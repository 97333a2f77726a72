"""Scores and divergences assembled from bracket triples.

Every family is computed from a :class:`~divkit.densities.BracketTriple`,
never from raw densities, so discrete, grid and Gaussian representations
share a single set of formulas.  For gamma > 0 the families are

* Hoelder:            S = eta(X/Y) Y,               D = S + Z
* two-power (fdp):    S = gamma phi(Y) - (1+gamma) phi(X),
                      D = phi(Z)/gamma - (1+gamma) phi(X)/gamma + phi(Y)
* jhhb (zeta family): the power / log branches written out directly
* xi-Hoelder:         S = eta(xi(X)/xi(Y)) xi(Y),   D = S + xi(Z)

and each but xi-Hoelder has a gamma = 0 branch: the scores read the masses
X = <g>, Y = <f> and cross = <g log f>, the divergences X, Y and
L = <g log(g/f)>.
Values follow the extended codomain: log-like generators return -inf at 0
and divergences through them become +inf rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .densities import BracketTriple
from .errors import DegenerateModelError, DomainError, GeneratorValidityError
from .generators import (
    GeneratorEta,
    GeneratorPhi,
    GeneratorXi,
    signed_power,
    validate_eta,
    validate_phi,
    validate_xi,
)

# the slots of DivergenceSpec that each family takes: generators and zeta
FAMILY_SLOTS = {
    "holder": ("eta",),
    "fdpd": ("phi",),
    "jhhb": ("zeta",),
    "xi_holder": ("eta", "xi"),
}
FAMILIES = tuple(FAMILY_SLOTS)


def _log(x: float) -> float:
    if x < 0.0:
        raise DomainError(f"log of negative bracket value {x}")
    return -math.inf if x == 0.0 else math.log(x)


# ---------------------------------------------------------------------------
# Hoelder family
# ---------------------------------------------------------------------------


def holder_score(b: BracketTriple, eta: GeneratorEta) -> float:
    """eta(X/Y) * Y for gamma > 0; -<g log f> + <f> at gamma = 0."""
    if b.gamma > 0.0:
        if b.Y <= 0.0:
            raise DegenerateModelError("holder score undefined: <f**(1+gamma)> = 0")
        return float(eta(b.X / b.Y) * b.Y)
    return -b.require_cross() + b.Y


def holder_divergence(b: BracketTriple, eta: GeneratorEta) -> float:
    if b.gamma > 0.0:
        return holder_score(b, eta) + b.require_z()
    return b.require_l() - b.X + b.Y


# ---------------------------------------------------------------------------
# two-power functional family
# ---------------------------------------------------------------------------


def fdp_score(b: BracketTriple, phi: GeneratorPhi) -> float:
    """gamma phi(Y) - (1+gamma) phi(X); the gamma = 0 branch uses phi'."""
    g = b.gamma
    if g > 0.0:
        return g * phi(b.Y) - (1.0 + g) * phi(b.X)
    return -phi.phi_prime(b.X) * b.require_cross() + phi(b.Y)


def fdp_divergence(b: BracketTriple, phi: GeneratorPhi) -> float:
    g = b.gamma
    if g > 0.0:
        return phi(b.require_z()) / g - (1.0 + g) * phi(b.X) / g + phi(b.Y)
    return phi.phi_prime(b.X) * b.require_l() - phi(b.X) + phi(b.Y)


# ---------------------------------------------------------------------------
# jhhb (gamma, zeta) family, written out branch by branch
# ---------------------------------------------------------------------------


def jhhb_score(b: BracketTriple, zeta: float) -> float:
    """The score of the (gamma, zeta) family; zeta = 0 is the log branch."""
    _check_zeta(zeta)
    g = b.gamma
    if g > 0.0:
        if zeta > 0.0:
            return (g * b.Y**zeta - (1.0 + g) * b.X**zeta + 1.0) / zeta
        return g * _log(b.Y) - (1.0 + g) * _log(b.X)
    cross = b.require_cross()
    if zeta > 0.0:
        return -(b.X ** (zeta - 1.0)) * cross + (b.Y**zeta - 1.0) / zeta
    return -cross / b.X + _log(b.Y)


def jhhb_divergence(b: BracketTriple, zeta: float) -> float:
    _check_zeta(zeta)
    g = b.gamma
    if g > 0.0:
        z_int = b.require_z()
        if zeta > 0.0:
            return (z_int**zeta / g - (1.0 + g) * b.X**zeta / g + b.Y**zeta) / zeta
        return _log(z_int) / g - (1.0 + g) * _log(b.X) / g + _log(b.Y)
    ll = b.require_l()
    if zeta > 0.0:
        return b.X ** (zeta - 1.0) * ll - b.X**zeta / zeta + b.Y**zeta / zeta
    return ll / b.X - _log(b.X) + _log(b.Y)


def _check_zeta(zeta: float) -> None:
    if not 0.0 <= zeta < math.inf:
        raise DomainError(f"zeta must be finite and >= 0, got {zeta}")


# ---------------------------------------------------------------------------
# xi-Hoelder family
# ---------------------------------------------------------------------------


def xi_holder_score(b: BracketTriple, eta: GeneratorEta, xi: GeneratorXi) -> float:
    """eta(xi(X)/xi(Y)) * xi(Y); defined for gamma > 0 only."""
    if not b.gamma > 0.0:
        raise DomainError("xi-Hoelder scores require gamma > 0")
    xi_y = xi(b.Y)
    if xi_y <= 0.0:
        raise DegenerateModelError("xi-Hoelder score undefined: xi(<f**(1+gamma)>) = 0")
    return float(eta(xi(b.X) / xi_y) * xi_y)


def xi_holder_divergence(b: BracketTriple, eta: GeneratorEta, xi: GeneratorXi) -> float:
    return xi_holder_score(b, eta, xi) + float(xi(b.require_z()))


# ---------------------------------------------------------------------------
# equivalence transforms
# ---------------------------------------------------------------------------


def equivalent_transform(s: float, tau: str, zeta: float | None = None) -> float:
    """Strictly increasing reparameterizations of a score (both tau kinds).

    ``signed_power``: (sign(s)|s|**zeta - 1)/zeta, the odd power map;
    ``neg_exp_neg``:  -exp(-s).
    """
    if tau == "signed_power":
        if zeta is None or not 0.0 < zeta < math.inf:
            raise DomainError(f"signed_power transform needs finite zeta > 0, got {zeta}")
        return (float(signed_power(s, zeta)) - 1.0) / zeta
    if tau == "neg_exp_neg":
        return -math.exp(-s)
    raise DomainError(f"unknown transform {tau!r}")


# ---------------------------------------------------------------------------
# family specification
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _eta_certificate(eta: GeneratorEta, gamma: float):
    return validate_eta(eta, gamma)


@lru_cache(maxsize=512)
def _psi_certificate(generator: GeneratorPhi | GeneratorXi):
    if isinstance(generator, GeneratorPhi):
        return validate_phi(generator)
    return validate_xi(generator)


@dataclass(frozen=True)
class DivergenceSpec:
    """A family selection with its generators; construction certifies them.

    The family takes the slots that :data:`FAMILY_SLOTS` lists.  xi_holder
    requires gamma > 0; the others admit their gamma = 0 branch, where
    holder takes no generator.
    """

    family: str
    gamma: float
    eta: GeneratorEta | None = None
    phi: GeneratorPhi | None = None
    xi: GeneratorXi | None = None
    zeta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILY_SLOTS:
            raise DomainError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not 0.0 <= self.gamma < math.inf:
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.family == "xi_holder" and self.gamma == 0.0:
            raise DomainError("xi_holder requires gamma > 0")
        if self.family == "holder" and self.gamma == 0.0:
            return  # the gamma = 0 branch never evaluates eta
        for slot in FAMILY_SLOTS[self.family]:
            value = getattr(self, slot)
            if value is None:
                raise DomainError(f"{self.family} needs {slot}")
            if slot == "zeta":
                _check_zeta(value)
                continue
            cert = (_eta_certificate(value, self.gamma) if slot == "eta"
                    else _psi_certificate(value))
            if not cert.valid:
                raise GeneratorValidityError(_failure_message(slot, cert))

    def describe(self) -> dict:
        out: dict = {"family": self.family, "gamma": self.gamma}
        for slot in FAMILY_SLOTS[self.family]:
            value = getattr(self, slot)
            if value is not None:
                out[slot] = value if slot == "zeta" else value.label()
        return out


def _failure_message(slot: str, cert) -> str:
    if slot != "eta":
        lift = "phi(e^z)" if slot == "phi" else "log xi(e^z)"
        return (f"{slot} certificate failed: psi(z) = {lift} {cert.failure} "
                f"violation at {cert.points}")
    if cert.reason == "normalization":
        return f"eta certificate failed: eta(1) != -1 (gap {cert.gap:.3e})"
    return (f"eta certificate failed: eta(z) < -z**(1+gamma) at z={cert.z_star:g} "
            f"(gap {cert.gap:.3e})")


# each family's score and divergence, from a bracket triple and a spec
_FORMULAS = {
    "holder": (lambda b, s: holder_score(b, s.eta), lambda b, s: holder_divergence(b, s.eta)),
    "fdpd": (lambda b, s: fdp_score(b, s.phi), lambda b, s: fdp_divergence(b, s.phi)),
    "jhhb": (lambda b, s: jhhb_score(b, s.zeta), lambda b, s: jhhb_divergence(b, s.zeta)),
    "xi_holder": (lambda b, s: xi_holder_score(b, s.eta, s.xi),
                  lambda b, s: xi_holder_divergence(b, s.eta, s.xi)),
}


def score(b: BracketTriple, spec: DivergenceSpec) -> float:
    """Evaluate the family's composite score on a bracket triple (see _evaluate)."""
    return _evaluate(0, b, spec)


def divergence(b: BracketTriple, spec: DivergenceSpec) -> float:
    """Evaluate the family's divergence on a bracket triple (see _evaluate)."""
    return _evaluate(1, b, spec)


def _evaluate(which: int, b: BracketTriple, spec: DivergenceSpec) -> float:
    """The family's score (0) or divergence (1), in the extended codomain.

    +-inf passes.  A formula that raises ArithmeticError or returns NaN
    leaves float range and raises DomainError: an overflow raises in Python
    floats, and gives an inf in numpy that inf - inf turns into NaN.
    """
    try:
        value = _FORMULAS[spec.family][which](b, spec)
    except ArithmeticError:
        value = math.nan
    if value != value:
        kind = ("score", "divergence")[which]
        raise DomainError(f"the {spec.family} {kind} leaves float range at gamma={b.gamma}")
    return value
