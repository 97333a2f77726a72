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
and divergences through them become +inf rather than raising.  Every family
function raises DomainError where its value leaves float range.

Each family function runs one formula on a float bracket and on the
brackets of a batch of densities, whose array fields give one value per row.
Every power and log is a numpy ufunc, which gives a value the same bits alone
and inside an array, so each row equals its float call bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .densities import BracketTriple
from .errors import DegenerateModelError, DivkitError, DomainError, GeneratorValidityError
from .generators import (
    Certificate,
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


def _in_codomain(family: str, kind: str):
    """Raise DomainError where the family function's value leaves float range.

    +-inf passes: log 0, or an overflow that meets no other infinity.  A
    formula that returns NaN in any entry (inf - inf, the log of a negative
    bracket), or raises anything but a DivkitError (``math.log`` of a
    negative in a custom generator, a RuntimeWarning under warnings-as-errors),
    leaves float range; the DomainError is chained to what it raised.  numpy's
    overflow, invalid and divide warnings are off, since the guard reports
    what they would.  A float bracket's value is returned as a Python float.
    The wrapper takes fixed arguments: a ``*args`` call costs about as much
    as the cheapest formula.
    """
    def decorate(formula):
        @functools.wraps(formula)
        def guarded(b: BracketTriple, generator, xi=None):  # xi: the xi-Hoelder slot
            cause = None
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    value = formula(b, generator) if xi is None else formula(b, generator, xi)
            except DivkitError:
                raise
            except Exception as err:
                cause, value = err, math.nan
            if value.__class__ is np.ndarray and value.ndim:  # a batch: one value per row
                if not np.isnan(value).any():
                    return value
            elif value == value:
                return float(value)
            raise DomainError(f"the {family} {kind} leaves float range "
                              f"at gamma={b.gamma}") from cause
        return guarded
    return decorate


# ---------------------------------------------------------------------------
# Hoelder family
# ---------------------------------------------------------------------------


@_in_codomain("holder", "score")
def holder_score(b: BracketTriple, eta: GeneratorEta) -> float:
    """eta(X/Y) * Y for gamma > 0; -<g log f> + <f> at gamma = 0."""
    if b.gamma > 0.0:
        if np.count_nonzero(b.Y <= 0.0):
            raise DegenerateModelError("holder score undefined: <f**(1+gamma)> = 0")
        return eta(b.X / b.Y) * b.Y
    return -b.require_cross() + b.Y


@_in_codomain("holder", "divergence")
def holder_divergence(b: BracketTriple, eta: GeneratorEta) -> float:
    if b.gamma > 0.0:
        return holder_score.__wrapped__(b, eta) + b.require_z()
    return b.require_l() - b.X + b.Y


# ---------------------------------------------------------------------------
# two-power functional family
# ---------------------------------------------------------------------------


@_in_codomain("fdpd", "score")
def fdp_score(b: BracketTriple, phi: GeneratorPhi) -> float:
    """gamma phi(Y) - (1+gamma) phi(X); the gamma = 0 branch uses phi'."""
    g = b.gamma
    if g > 0.0:
        return g * phi(b.Y) - (1.0 + g) * phi(b.X)
    return -phi.phi_prime(b.X) * b.require_cross() + phi(b.Y)


@_in_codomain("fdpd", "divergence")
def fdp_divergence(b: BracketTriple, phi: GeneratorPhi) -> float:
    g = b.gamma
    if g > 0.0:
        return phi(b.require_z()) / g - (1.0 + g) * phi(b.X) / g + phi(b.Y)
    return phi.phi_prime(b.X) * b.require_l() - phi(b.X) + phi(b.Y)


# ---------------------------------------------------------------------------
# jhhb (gamma, zeta) family, written out branch by branch
# ---------------------------------------------------------------------------


@_in_codomain("jhhb", "score")
def jhhb_score(b: BracketTriple, zeta: float) -> float:
    """The score of the (gamma, zeta) family; zeta = 0 is the log branch."""
    _check_zeta(zeta)
    g = b.gamma
    if g > 0.0:
        if zeta > 0.0:
            return (g * np.power(b.Y, zeta) - (1.0 + g) * np.power(b.X, zeta) + 1.0) / zeta
        return g * np.log(b.Y) - (1.0 + g) * np.log(b.X)
    cross = b.require_cross()
    if zeta > 0.0:
        return -np.power(b.X, zeta - 1.0) * cross + (np.power(b.Y, zeta) - 1.0) / zeta
    return -cross / b.X + np.log(b.Y)


@_in_codomain("jhhb", "divergence")
def jhhb_divergence(b: BracketTriple, zeta: float) -> float:
    _check_zeta(zeta)
    g = b.gamma
    if g > 0.0:
        z_int = b.require_z()
        if zeta > 0.0:
            return (np.power(z_int, zeta) / g - (1.0 + g) * np.power(b.X, zeta) / g
                    + np.power(b.Y, zeta)) / zeta
        return np.log(z_int) / g - (1.0 + g) * np.log(b.X) / g + np.log(b.Y)
    ll = b.require_l()
    if zeta > 0.0:
        return (np.power(b.X, zeta - 1.0) * ll - np.power(b.X, zeta) / zeta
                + np.power(b.Y, zeta) / zeta)
    return ll / b.X - np.log(b.X) + np.log(b.Y)


def _check_zeta(zeta: float) -> None:
    if not 0.0 <= zeta < math.inf:
        raise DomainError(f"zeta must be finite and >= 0, got {zeta}")


# ---------------------------------------------------------------------------
# xi-Hoelder family
# ---------------------------------------------------------------------------


@_in_codomain("xi_holder", "score")
def xi_holder_score(b: BracketTriple, eta: GeneratorEta, xi: GeneratorXi) -> float:
    """eta(xi(X)/xi(Y)) * xi(Y); defined for gamma > 0 only."""
    if not b.gamma > 0.0:
        raise DomainError("xi-Hoelder scores require gamma > 0")
    xi_y = xi(b.Y)
    if np.count_nonzero(xi_y <= 0.0):
        raise DegenerateModelError("xi-Hoelder score undefined: xi(<f**(1+gamma)>) = 0")
    return eta(xi(b.X) / xi_y) * xi_y


@_in_codomain("xi_holder", "divergence")
def xi_holder_divergence(b: BracketTriple, eta: GeneratorEta, xi: GeneratorXi) -> float:
    return xi_holder_score.__wrapped__(b, eta, xi) + xi(b.require_z())


# ---------------------------------------------------------------------------
# equivalence transforms
# ---------------------------------------------------------------------------


def equivalent_transform(s, tau: str, zeta: float | None = None):
    """Strictly increasing reparameterizations of a score (both tau kinds).

    ``signed_power``: (sign(s)|s|**zeta - 1)/zeta, the odd power map;
    ``neg_exp_neg``:  -exp(-s).  An array of scores maps entry by entry.
    Values follow the extended codomain: an overflow gives +-inf, and a NaN
    in any entry raises DomainError.
    """
    if tau == "signed_power":
        if zeta is None or not 0.0 < zeta < math.inf:
            raise DomainError(f"signed_power transform needs finite zeta > 0, got {zeta}")
    elif tau != "neg_exp_neg":
        raise DomainError(f"unknown transform {tau!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.asarray(s, dtype=float)
        out = (signed_power(s, zeta) - 1.0) / zeta if tau == "signed_power" else -np.exp(-s)
    if np.isnan(out).any():
        raise DomainError(f"the {tau} transform leaves float range")
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# family specification
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _certificate(generator: GeneratorEta | GeneratorPhi | GeneratorXi):
    """The generator's certificate; an eta's is taken at the gamma it is bound to."""
    return {"eta": validate_eta, "phi": validate_phi, "xi": validate_xi}[generator.slot](generator)


@dataclass(frozen=True)
class DivergenceSpec:
    """A family selection with its generators; construction certifies them.

    The family takes the slots that :meth:`slots` gives, an eta at the spec's
    gamma.  xi_holder requires gamma > 0; the others admit their gamma = 0 branch.
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
        for slot in self.slots(self.family, self.gamma):
            value = getattr(self, slot)
            if value is None:
                raise DomainError(f"{self.family} needs {slot}")
            if slot == "zeta":
                _check_zeta(value)
                continue
            if slot == "eta" and value.gamma != self.gamma:
                raise DomainError(f"eta is bound to gamma={value.gamma}, the spec to {self.gamma}")
            cert = _certificate(value)
            if not cert.valid:
                raise GeneratorValidityError(_failure_message(slot, cert))

    @staticmethod
    def slots(family: str, gamma: float) -> tuple[str, ...]:
        """The family's :data:`FAMILY_SLOTS`, but none at holder's gamma = 0 branch."""
        return () if family == "holder" and not gamma > 0.0 else FAMILY_SLOTS[family]

    def describe(self) -> dict:
        """The family, gamma and the slots it takes (:meth:`slots`), generators by label."""
        out: dict = {"family": self.family, "gamma": self.gamma}
        for slot in self.slots(self.family, self.gamma):
            value = getattr(self, slot)
            out[slot] = value if slot == "zeta" else value.label()
        return out


def _failure_message(slot: str, cert: Certificate) -> str:
    if slot != "eta":
        lift = "phi(e^z)" if slot == "phi" else "log xi(e^z)"
        return (f"{slot} certificate failed: psi(z) = {lift} {cert.failure} "
                f"violation at {cert.points}")
    if cert.failure == "normalization":
        return f"eta certificate failed: eta(1) != -1 (gap {cert.value:.3e})"
    return (f"eta certificate failed: eta(z) < -z**(1+gamma) at z={cert.points[0]:g} "
            f"(gap {cert.value:.3e})")


# each family's score and divergence, from a bracket triple and a spec
_FORMULAS = {
    "holder": (lambda b, s: holder_score(b, s.eta), lambda b, s: holder_divergence(b, s.eta)),
    "fdpd": (lambda b, s: fdp_score(b, s.phi), lambda b, s: fdp_divergence(b, s.phi)),
    "jhhb": (lambda b, s: jhhb_score(b, s.zeta), lambda b, s: jhhb_divergence(b, s.zeta)),
    "xi_holder": (lambda b, s: xi_holder_score(b, s.eta, s.xi),
                  lambda b, s: xi_holder_divergence(b, s.eta, s.xi)),
}


def score(b: BracketTriple, spec: DivergenceSpec) -> float:
    """The family's composite score on a bracket triple, in the extended codomain."""
    return _formula(b, spec, 0)


def divergence(b: BracketTriple, spec: DivergenceSpec) -> float:
    """The family's divergence on a bracket triple, in the extended codomain."""
    return _formula(b, spec, 1)


def _formula(b: BracketTriple, spec: DivergenceSpec, which: int) -> float:
    if b.gamma != spec.gamma:
        raise DomainError(f"the bracket is taken at gamma={b.gamma}, "
                          f"the spec's gamma is {spec.gamma}")
    return _FORMULAS[spec.family][which](b, spec)
