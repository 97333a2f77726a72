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

Each family function also takes the brackets of a batch of discrete
densities, whose fields are arrays, and returns one value per row.  A float
bracket stays on Python floats and ``math``, which a fit calls many times.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

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


# A batch of brackets must give each row the bits of its scalar value: the
# jhhb check reports its worst trial, and the errors it compares are rounding
# noise.  On a float bracket some powers and logs come from the C library (in
# Python floats, and in signed_power, where |w|**p is a numpy scalar), and
# numpy's SIMD loops can miss those results by the last bit.  So a batch
# takes those steps entry by entry, in Python floats, through the helpers
# below.


def _by_entry(fn, z: np.ndarray, *args) -> np.ndarray:
    """fn(entry, *args) for each entry of z, as a Python float."""
    return np.fromiter(map(fn, z.tolist(), *map(itertools.repeat, args)), float, z.size)


def _in_python_floats(formula, b: BracketTriple, zeta: float) -> np.ndarray:
    """formula on a batch, its arithmetic and ``**`` run as Python runs them.

    The bracket's arrays become object arrays of Python floats, on which
    numpy applies each operator as Python does to each float.
    """
    fields = {name: getattr(b, name).astype(object) for name in ("X", "Y", "Z", "L", "cross")
              if getattr(b, name) is not None}
    return np.asarray(formula(replace(b, **fields), zeta), dtype=float)


def _log(x):
    """log x, -inf at 0, by math.log; for an array, entry by entry."""
    if x.__class__ is float and x > 0.0:  # first, and not isinstance: a fit's hot path
        return math.log(x)
    if x.__class__ is np.ndarray:
        return _by_entry(_log, x)
    if x < 0.0:
        raise DomainError(f"log of negative bracket value {x}")
    return -math.inf if x == 0.0 else math.log(x)


def _in_codomain(family: str, kind: str):
    """Raise DomainError where the family function's value leaves float range.

    +-inf passes.  A formula that raises ArithmeticError or returns NaN (in
    any entry, for a batch) leaves float range: an overflow raises in Python
    floats, and gives an inf in numpy that inf - inf turns into NaN.  The
    formula runs with numpy's overflow and invalid warnings off, since the
    guard reports them; a RuntimeWarning raised under warnings-as-errors
    (a division by zero, say) is that overflow too.  The wrapper takes fixed
    arguments: a fit calls it often, and a ``*args`` call costs about as
    much as the cheapest formula.
    """
    def decorate(formula):
        @functools.wraps(formula)
        def guarded(b: BracketTriple, generator, xi=None):  # xi: the xi-Hoelder slot
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    value = formula(b, generator) if xi is None else formula(b, generator, xi)
            except (ArithmeticError, RuntimeWarning):
                value = math.nan
            if value == value if value.__class__ is float else not np.isnan(value).any():
                return value
            raise DomainError(f"the {family} {kind} leaves float range at gamma={b.gamma}")
        return guarded
    return decorate


# ---------------------------------------------------------------------------
# Hoelder family
# ---------------------------------------------------------------------------


@_in_codomain("holder", "score")
def holder_score(b: BracketTriple, eta: GeneratorEta) -> float:
    """eta(X/Y) * Y for gamma > 0; -<g log f> + <f> at gamma = 0."""
    if b.gamma > 0.0:
        y = b.Y
        batch = y.__class__ is np.ndarray
        if (y <= 0.0).any() if batch else y <= 0.0:
            raise DegenerateModelError("holder score undefined: <f**(1+gamma)> = 0")
        return _by_entry(eta, b.X / y) * y if batch else float(eta(b.X / y) * y)
    return -b.require_cross() + b.Y


@_in_codomain("holder", "divergence")
def holder_divergence(b: BracketTriple, eta: GeneratorEta) -> float:
    if b.gamma > 0.0:
        return holder_score(b, eta) + b.require_z()
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
    if not 0.0 <= zeta < math.inf:  # _check_zeta, inline on this hot path
        raise DomainError(f"zeta must be finite and >= 0, got {zeta}")
    if b.X.__class__ is np.ndarray and b.X.dtype != object:
        return _in_python_floats(jhhb_score.__wrapped__, b, zeta)
    g = b.gamma
    if g > 0.0:
        if zeta > 0.0:
            return (g * b.Y**zeta - (1.0 + g) * b.X**zeta + 1.0) / zeta
        return g * _log(b.Y) - (1.0 + g) * _log(b.X)
    cross = b.require_cross()
    if zeta > 0.0:
        return -(b.X ** (zeta - 1.0)) * cross + (b.Y**zeta - 1.0) / zeta
    return -cross / b.X + _log(b.Y)


@_in_codomain("jhhb", "divergence")
def jhhb_divergence(b: BracketTriple, zeta: float) -> float:
    _check_zeta(zeta)
    if b.X.__class__ is np.ndarray and b.X.dtype != object:
        return _in_python_floats(jhhb_divergence.__wrapped__, b, zeta)
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


@_in_codomain("xi_holder", "score")
def xi_holder_score(b: BracketTriple, eta: GeneratorEta, xi: GeneratorXi) -> float:
    """eta(xi(X)/xi(Y)) * xi(Y); defined for gamma > 0 only."""
    if not b.gamma > 0.0:
        raise DomainError("xi-Hoelder scores require gamma > 0")
    xi_y = xi(b.Y)
    batch = xi_y.__class__ is np.ndarray
    if (xi_y <= 0.0).any() if batch else xi_y <= 0.0:
        raise DegenerateModelError("xi-Hoelder score undefined: xi(<f**(1+gamma)>) = 0")
    if batch:
        return _by_entry(eta, xi(b.X) / xi_y) * xi_y
    return float(eta(xi(b.X) / xi_y) * xi_y)


@_in_codomain("xi_holder", "divergence")
def xi_holder_divergence(b: BracketTriple, eta: GeneratorEta, xi: GeneratorXi) -> float:
    return xi_holder_score(b, eta, xi) + xi(b.require_z())


# ---------------------------------------------------------------------------
# equivalence transforms
# ---------------------------------------------------------------------------


def equivalent_transform(s: float, tau: str, zeta: float | None = None) -> float:
    """Strictly increasing reparameterizations of a score (both tau kinds).

    ``signed_power``: (sign(s)|s|**zeta - 1)/zeta, the odd power map, which
    also maps an array of scores entry by entry;
    ``neg_exp_neg``:  -exp(-s).
    """
    if tau == "signed_power":
        if zeta is None or not 0.0 < zeta < math.inf:
            raise DomainError(f"signed_power transform needs finite zeta > 0, got {zeta}")
        if s.__class__ is np.ndarray:
            return (_by_entry(signed_power, s, zeta) - 1.0) / zeta
        return (signed_power(s, zeta) - 1.0) / zeta
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
    """The family's composite score on a bracket triple, in the extended codomain."""
    return _FORMULAS[spec.family][0](b, spec)


def divergence(b: BracketTriple, spec: DivergenceSpec) -> float:
    """The family's divergence on a bracket triple, in the extended codomain."""
    return _FORMULAS[spec.family][1](b, spec)
