"""Generating functions for the density-power divergence families.

Three kinds of scalar generators parameterize every score in this package:

* ``GeneratorEta`` -- a function ``eta`` on [0, inf) with ``eta(1) = -1`` and
  ``eta(z) >= -z**(1+gamma)``.  Presets: ``dpd`` (power-divergence tangent
  line), ``ps`` (pseudo-spherical lower bound), ``bhd`` (kappa-bridge), and
  the ``jhhb`` family derived in :func:`jhhb_eta`.
* ``GeneratorPhi`` -- a function ``phi`` on [0, inf) whose lift
  ``psi(t) = phi(exp(t))`` must be strictly increasing and convex.
* ``GeneratorXi``  -- a nonnegative function ``xi`` whose lift
  ``psi(t) = log(xi(exp(t)))`` must be strictly increasing and convex.

One name table per kind, :data:`PRESETS`, maps the flag text ``name[:param...]``
to a constructor; :func:`parse_generator` reads that text and the generators'
``label()`` writes it back.

Validity is established numerically, never symbolically: the conditions are
sampled on a fixed certificate grid and the result is returned as a
certificate object recording either success or a concrete counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .densities import read_columns
from .errors import CliUsageError, DomainError, EvaluationError

# Certificate grid: log-spaced over 12 decades, plus the endpoints that the
# side conditions pin down (z=0 for the lower bound, z=1 for normalization).
GRID_POINTS = 10_000
GRID_Z_MIN = 1e-6
GRID_Z_MAX = 1e6

ETA_NORMALIZATION_TOL = 1e-12
ETA_BOUND_REL_TOL = 1e-12
PSI_CONVEXITY_TOL = -1e-9


@lru_cache(maxsize=1)
def certificate_grid() -> np.ndarray:
    """z values on which eta certificates are sampled (includes 0 and 1)."""
    z = np.geomspace(GRID_Z_MIN, GRID_Z_MAX, GRID_POINTS)
    z = np.union1d(z, [0.0, 1.0])
    z.flags.writeable = False
    return z


@lru_cache(maxsize=1)
def log_certificate_grid() -> np.ndarray:
    """The same grid in log-argument space, where psi conditions are sampled."""
    t = np.linspace(np.log(GRID_Z_MIN), np.log(GRID_Z_MAX), GRID_POINTS)
    t.flags.writeable = False
    return t


def signed_power(w, exponent):
    """sign(w) * |w|**exponent, the odd extension of the power map.

    Used everywhere a fractional power of a possibly negative quantity
    appears; sign(0) = 0.
    """
    w = np.asarray(w, dtype=float)
    out = np.sign(w) * np.power(np.abs(w), exponent)
    return out if out.ndim else float(out)


def _call_vectorized(fn: Callable, z: np.ndarray) -> np.ndarray:
    """Evaluate fn on an array, falling back to a scalar loop.

    A scalar-only fn (one built on ``math``, say) raises on an array, or,
    on numpy releases that deprecate an array's conversion to a scalar,
    warns or returns one value; each of these takes the loop.  The loop
    passes 0-d arrays, as a generator called on a float does (see _apply):
    a ``**`` on a numpy scalar takes the C library's power, which can miss
    numpy's in the last bit.
    """
    try:
        out = np.asarray(fn(z), dtype=float)
        if out.shape == z.shape:
            return out
    except (TypeError, ValueError, DeprecationWarning):
        pass
    return np.array([float(fn(np.asarray(zi))) for zi in z])


def _apply(fn: Callable, z: np.ndarray) -> np.ndarray:
    """fn at z: called directly on a 0-d z, through _call_vectorized on an array."""
    return np.asarray(fn(z), dtype=float) if z.ndim == 0 else _call_vectorized(fn, z)


def tabulated(path) -> Callable:
    """Monotone piecewise-linear interpolant of a (z, value) CSV table.

    Header rows are read as :func:`~divkit.densities.read_columns` reads them.
    Outside the tabulated range the boundary segments are extended linearly,
    which preserves monotonicity of the table.
    """
    z_tab, v_tab = read_columns(path, ("z", "value"))
    if z_tab.size < 2:
        raise DomainError(f"generator table {path!r} needs at least two rows")
    if np.any(np.diff(z_tab) <= 0):
        raise DomainError(f"generator table {path!r} must have strictly increasing z")
    slope_lo = (v_tab[1] - v_tab[0]) / (z_tab[1] - z_tab[0])
    slope_hi = (v_tab[-1] - v_tab[-2]) / (z_tab[-1] - z_tab[-2])

    def fn(z):
        z = np.asarray(z, dtype=float)
        out = np.interp(z, z_tab, v_tab)
        out = np.where(z < z_tab[0], v_tab[0] + slope_lo * (z - z_tab[0]), out)
        out = np.where(z > z_tab[-1], v_tab[-1] + slope_hi * (z - z_tab[-1]), out)
        return out if out.ndim else float(out)

    return fn


class _Labelled:
    """The label shared by the generator classes, read from :data:`PRESETS`."""

    slot: ClassVar[str]  # the key of the class's name table in PRESETS

    def label(self) -> str:
        """``name[:param...]``, the flag text that :func:`parse_generator` reads back.

        A parameter prints as ``%g`` where that reads back exactly and as
        ``repr`` otherwise.  Custom and tabulated generators are ``custom``.
        """
        preset = PRESETS[self.slot].get(self.kind)
        if preset is None:
            return self.kind
        return ":".join([self.kind, *(_number_text(getattr(self, field))
                                      for field in preset.params)])


# ---------------------------------------------------------------------------
# eta generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorEta(_Labelled):
    """A scalar generator eta bound to a power parameter gamma.

    ``kind`` is one of ``dpd``, ``ps``, ``bhd``, ``jhhb``, ``custom``; the
    parameter fields that do not apply to a kind stay None.  A custom ``fn``
    is called through _apply, as phi and xi call theirs.
    """

    slot: ClassVar[str] = "eta"
    kind: str
    gamma: float
    kappa: float | None = None
    zeta: float | None = None
    fn: Callable | None = None

    def __call__(self, z):
        g, z = self.gamma, np.asarray(z, dtype=float)
        if self.kind == "dpd":
            return g - (1.0 + g) * z
        if self.kind == "ps" or self.kind == "jhhb" and self.zeta == 0.0:
            return -z ** (1.0 + g)
        if self.kind == "bhd":
            k = self.kappa
            return -signed_power(k * z - k + 1.0, (1.0 + g) / k)
        if self.kind == "jhhb":
            return -signed_power((1.0 + g) * z**self.zeta - g, 1.0 / self.zeta)
        return _apply(self.fn, z)


def dpd_eta(gamma: float) -> GeneratorEta:
    """eta(z) = gamma - (1+gamma) z, the tangent line of the lower bound at z=1."""
    _require_positive(gamma, "gamma")
    return GeneratorEta("dpd", gamma)


def ps_eta(gamma: float) -> GeneratorEta:
    """eta(z) = -z**(1+gamma), the pointwise lower bound itself."""
    _require_positive(gamma, "gamma")
    return GeneratorEta("ps", gamma)


def bhd_eta(kappa: float, gamma: float) -> GeneratorEta:
    """Bridge generator; kappa=1+gamma gives dpd, kappa=1 gives ps."""
    _require_positive(gamma, "gamma")
    if not 1.0 <= kappa < math.inf:
        raise DomainError(f"bhd requires finite kappa >= 1, got {kappa}")
    return GeneratorEta("bhd", gamma, kappa=kappa)


def jhhb_eta(zeta: float, gamma: float) -> GeneratorEta:
    """Generator under which the two-power divergence family becomes a Hoelder score.

    For zeta > 0::

        eta(z) = -|(1+gamma) z**zeta - gamma| ** (1/zeta) * sign((1+gamma) z**zeta - gamma)

    and for zeta = 0 it degenerates to the ps generator -z**(1+gamma).
    """
    _require_positive(gamma, "gamma")
    if not 0.0 <= zeta < math.inf:
        raise DomainError(f"jhhb requires finite zeta >= 0, got {zeta}")
    return GeneratorEta("jhhb", gamma, zeta=zeta)


def custom_eta(fn: Callable, gamma: float) -> GeneratorEta:
    _require_positive(gamma, "gamma")
    return GeneratorEta("custom", gamma, fn=fn)


def eta_from_table(path, gamma: float) -> GeneratorEta:
    """Custom eta from a two-column (z, value) CSV table."""
    return custom_eta(tabulated(path), gamma)


@dataclass(frozen=True)
class EtaCertificate:
    """Outcome of sampling the eta side conditions on the certificate grid."""

    valid: bool
    gamma: float
    reason: str | None = None  # "normalization" | "lower-bound"
    z_star: float | None = None
    gap: float | None = None  # eta(z*) + z* ** (1+gamma)

    def __bool__(self) -> bool:
        return self.valid


def validate_eta(eta: GeneratorEta, gamma: float | None = None) -> EtaCertificate:
    """Certify eta(1) = -1 and eta(z) >= -z**(1+gamma) on the certificate grid.

    Returns a certificate; an invalid one carries the most violating z and the
    signed gap ``eta(z) + z**(1+gamma)``.  Non-finite eta values raise
    :class:`EvaluationError` naming the offending z.
    """
    g = eta.gamma if gamma is None else gamma
    z = certificate_grid()
    values = _call_vectorized(eta, z)
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise EvaluationError(f"eta evaluated non-finite at z={z[bad][0]:g}")

    at_one = float(values[np.searchsorted(z, 1.0)])
    if abs(at_one + 1.0) > ETA_NORMALIZATION_TOL:
        return EtaCertificate(False, g, "normalization", 1.0, at_one + 1.0)

    bound = z ** (1.0 + g)
    gap = values + bound
    tol = ETA_BOUND_REL_TOL * np.maximum(1.0, bound)
    scaled = gap / np.maximum(1.0, bound)
    worst = int(np.argmin(scaled))
    if gap[worst] < -tol[worst]:
        return EtaCertificate(False, g, "lower-bound", float(z[worst]), float(gap[worst]))
    return EtaCertificate(True, g)


# ---------------------------------------------------------------------------
# phi generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorPhi(_Labelled):
    """A scalar generator phi with lift psi(t) = phi(exp(t)).

    ``phi_prime`` is analytic for the presets and a centered finite
    difference for custom generators unless a derivative is supplied.
    log-like kinds return -inf at argument 0 (extended codomain) instead of
    raising.  ``custom`` evaluates ``fn`` and ``dfn``, on an array element
    by element where they take scalars only.
    """

    slot: ClassVar[str] = "phi"
    kind: str
    zeta: float | None = None
    lam1: float | None = None
    lam2: float | None = None
    fn: Callable | None = None
    dfn: Callable | None = None

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "identity":
            out = z
        elif self.kind == "log":
            with np.errstate(divide="ignore"):
                out = np.log(z)
        elif self.kind == "power":
            out = (z**self.zeta - 1.0) / self.zeta
        elif self.kind == "bdpd":
            with np.errstate(divide="ignore"):
                out = np.log(self.lam1 + self.lam2 * z) / self.lam2
        elif self.kind == "exp-minus-one":
            out = np.exp(z) - 1.0
        else:
            out = _apply(self.fn, z)
        return out if out.ndim else float(out)

    def psi(self, t):
        return self(np.exp(np.asarray(t, dtype=float)))

    def phi_prime(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "identity":
            out = np.ones_like(z)
        elif self.kind == "log":
            out = 1.0 / z
        elif self.kind == "power":
            out = z ** (self.zeta - 1.0)
        elif self.kind == "bdpd":
            out = 1.0 / (self.lam1 + self.lam2 * z)
        elif self.kind == "exp-minus-one":
            out = np.exp(z)
        elif self.dfn is not None:
            out = _apply(self.dfn, z)
        else:
            step = 1e-6 * np.maximum(1.0, np.abs(z))
            out = (_apply(self.fn, z + step) - _apply(self.fn, z - step)) / (2.0 * step)
        return out if out.ndim else float(out)

    def has_constant_derivative(self) -> bool:
        """True when phi is affine, the condition for a proper gamma=0 score."""
        return self.kind == "identity" or (self.kind == "power" and self.zeta == 1.0)


def identity_phi() -> GeneratorPhi:
    return GeneratorPhi("identity")


def log_phi() -> GeneratorPhi:
    return GeneratorPhi("log")


def power_phi(zeta: float) -> GeneratorPhi:
    """phi(z) = (z**zeta - 1) / zeta; zeta=1 is identity shifted by a constant."""
    _require_positive(zeta, "zeta")
    return GeneratorPhi("power", zeta=zeta)


def bdpd_phi(lam1: float, lam2: float) -> GeneratorPhi:
    """phi(z) = log(lam1 + lam2 z) / lam2, bridging identity (lam1 -> 0 scale) and log."""
    if not 0.0 <= lam1 < math.inf:
        raise DomainError(f"bdpd requires finite lam1 >= 0, got {lam1}")
    _require_positive(lam2, "lam2")
    return GeneratorPhi("bdpd", lam1=lam1, lam2=lam2)


def custom_phi(fn: Callable, dfn: Callable | None = None) -> GeneratorPhi:
    return GeneratorPhi("custom", fn=fn, dfn=dfn)


def phi_from_table(path) -> GeneratorPhi:
    """Custom phi from a two-column (z, value) CSV table."""
    return custom_phi(tabulated(path))


def exp_minus_one_phi() -> GeneratorPhi:
    """phi(z) = exp(z) - 1: a valid generator that is not scale-compatible.

    Useful as the stock counterexample in affine-invariance checks.
    """
    return GeneratorPhi("exp-minus-one")


# ---------------------------------------------------------------------------
# xi generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorXi(_Labelled):
    """A nonnegative generator xi with lift psi(t) = log(xi(exp(t)))."""

    slot: ClassVar[str] = "xi"
    kind: str
    zeta: float | None = None
    fn: Callable | None = None

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "identity":
            out = z
        elif self.kind == "power":
            out = z**self.zeta
        else:
            out = _apply(self.fn, z)
        return out if out.ndim else float(out)

    def psi(self, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(self(np.exp(np.asarray(t, dtype=float))))
        return out if np.ndim(out) else float(out)


def identity_xi() -> GeneratorXi:
    return GeneratorXi("identity")


def power_xi(zeta: float) -> GeneratorXi:
    """xi(z) = z**zeta (note: plain power, unlike the phi power preset)."""
    _require_positive(zeta, "zeta")
    return GeneratorXi("power", zeta=zeta)


def custom_xi(fn: Callable) -> GeneratorXi:
    return GeneratorXi("custom", fn=fn)


def xi_from_table(path) -> GeneratorXi:
    return custom_xi(tabulated(path))


# ---------------------------------------------------------------------------
# name tables: flag text <-> generator
# ---------------------------------------------------------------------------


class Preset(NamedTuple):
    """A named generator: ``make(*params, *gamma)`` builds it, and ``params``
    names the generator fields that hold its parameters, in flag order."""

    make: Callable
    params: tuple[str, ...] = ()


PRESETS = {
    "eta": {"dpd": Preset(dpd_eta), "ps": Preset(ps_eta),
            "bhd": Preset(bhd_eta, ("kappa",)), "jhhb": Preset(jhhb_eta, ("zeta",))},
    "phi": {"identity": Preset(identity_phi), "log": Preset(log_phi),
            "power": Preset(power_phi, ("zeta",)),
            "bdpd": Preset(bdpd_phi, ("lam1", "lam2")),
            "exp-minus-one": Preset(exp_minus_one_phi)},
    "xi": {"identity": Preset(identity_xi), "power": Preset(power_xi, ("zeta",))},
}
# ``file:PATH`` builds a custom generator of each kind from a (z, value) table
FROM_TABLE = {"eta": eta_from_table, "phi": phi_from_table, "xi": xi_from_table}


def parse_generator(kind: str, text: str, *gamma: float):
    """The generator of ``kind`` (eta, phi or xi) that ``text`` names.

    ``text`` is ``name[:param...]`` or ``file:PATH``; eta generators also
    take gamma.  An unknown name, a wrong parameter count or a non-numeric
    parameter raises :class:`CliUsageError`; a value out of range raises
    the constructor's :class:`DomainError`.
    """
    name, sep, rest = text.partition(":")
    if name == "file":
        return FROM_TABLE[kind](rest, *gamma)
    usage = {key: ":".join([key, *preset.params]) for key, preset in PRESETS[kind].items()}
    if name not in usage:
        raise CliUsageError(f"unknown {kind} generator {text!r}; known: "
                            f"{', '.join(usage.values())}, file:path")
    params = rest.split(":") if sep else []
    preset = PRESETS[kind][name]
    if len(params) != len(preset.params):
        raise CliUsageError(f"{kind} generator {name!r} is written {usage[name]!r}, "
                            f"got {text!r}")
    return preset.make(*(parse_number(p, text) for p in params), *gamma)


def parse_number(text: str, where: str) -> float:
    """float(text), or a :class:`CliUsageError` that quotes ``where``."""
    try:
        return float(text)
    except ValueError:
        raise CliUsageError(f"expected a numeric parameter in {where!r}") from None


def _number_text(value: float) -> str:
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


# ---------------------------------------------------------------------------
# psi certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiCertificate:
    """Outcome of the strict-monotonicity / convexity sampling of psi."""

    valid: bool
    failure: str | None = None  # "monotonicity" | "convexity"
    points: tuple | None = None  # grid points witnessing the violation
    value: float | None = None  # the offending difference

    def __bool__(self) -> bool:
        return self.valid


def validate_psi(psi: Callable) -> PsiCertificate:
    """Certify psi strictly increasing and convex on the log-argument grid.

    Monotonicity uses forward differences (> 0 required); convexity uses a
    centered second difference with per-point step max(1e-4, 1e-4 |t|) and
    tolerance -1e-9, which rides out round-off while catching genuine
    concavity.  -inf is tolerated as a left-boundary value only.  A
    contiguous +inf suffix is float saturation of a fast-growing generator
    and truncates the certificate window from the right; +inf ahead of a
    finite value, or NaN anywhere, raises :class:`EvaluationError`.
    """
    t = log_certificate_grid()
    with np.errstate(all="ignore"):
        v = _call_vectorized(psi, t)
    if np.any(np.isnan(v)):
        where = t[np.isnan(v)][0]
        raise EvaluationError(f"psi evaluated non-finite at t={where:g}")
    saturated = np.isposinf(v)
    if np.any(saturated):
        first_inf = int(np.argmax(saturated))
        if not np.all(saturated[first_inf:]) or first_inf < 3:
            where = t[saturated][0]
            raise EvaluationError(f"psi evaluated non-finite at t={where:g}")
        t, v = t[:first_inf], v[:first_inf]

    diffs = v[1:] - v[:-1]
    increasing = diffs > 0.0
    if not np.all(increasing):
        i = int(np.argmin(increasing))
        return PsiCertificate(False, "monotonicity", (float(t[i]), float(t[i + 1])),
                              float(diffs[i]))

    step = np.maximum(1e-4, 1e-4 * np.abs(t))
    with np.errstate(all="ignore"):
        upper = _call_vectorized(psi, t + step)
        lower = _call_vectorized(psi, t - step)
        second = upper - 2.0 * v + lower
    # an overflowing upper stencil value means upward blow-up, not concavity
    second = np.where(np.isposinf(upper), np.inf, second)
    second = np.where(np.isneginf(v) & np.isneginf(lower), np.inf, second)
    if np.any(np.isnan(second)):
        where = t[np.isnan(second)][0]
        raise EvaluationError(f"psi evaluated non-finite near t={where:g}")
    if np.any(second < PSI_CONVEXITY_TOL):
        i = int(np.argmin(second))
        return PsiCertificate(False, "convexity",
                              (float(t[i] - step[i]), float(t[i]), float(t[i] + step[i])),
                              float(second[i]))
    return PsiCertificate(True)


def validate_phi(phi: GeneratorPhi) -> PsiCertificate:
    """Certificate for a phi generator (validity of its lift psi)."""
    return validate_psi(phi.psi)


def validate_xi(xi: GeneratorXi) -> PsiCertificate:
    """Certificate for a xi generator: xi >= 0 plus validity of its lift.

    A negative xi value surfaces as a monotonicity failure of log(xi), so the
    nonnegative-range condition is checked explicitly first.
    """
    z = certificate_grid()
    with np.errstate(all="ignore"):
        values = _call_vectorized(xi, z)
    if np.any(np.isnan(values)):
        raise EvaluationError(f"xi evaluated non-finite at z={z[np.isnan(values)][0]:g}")
    negative = values < 0.0
    if np.any(negative):
        i = int(np.argmax(negative))
        return PsiCertificate(False, "monotonicity", (float(z[i]),), float(values[i]))
    return validate_psi(xi.psi)


def _require_positive(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and > 0, got {value}")
