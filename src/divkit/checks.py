"""Numerical verification of the structural claims behind the score families.

Each check here samples randomized instances (fixed seed, recorded in the
report) and measures the worst deviation from an identity or inequality:

* :func:`check_affine_invariance` -- scale-compatibility of the two-power
  functional divergence under x -> sigma x + mu, with predicted scale
  |sigma|**(-gamma zeta); for generators outside the power/log class it
  searches for a counterexample instead.
* :func:`verify_jhhb_holder_representation` -- the two formula routes to the
  (gamma, zeta) family score (direct, and through the Hoelder score plus a
  monotone transform) agree.
* :func:`check_fdps_lower_bound` -- the score gamma phi(Y) - (1+gamma) phi(X)
  dominates -exp(-[gamma log phi(Y) - (1+gamma) log phi(X)]), and the bound
  is itself a valid score exactly when log phi(e^z) passes its certificate.
* :func:`check_uv_consistency` -- the structural identity u(<g U(g)>) =
  v(<V(g)>) with U(z)=z**gamma, V(z)=z**(1+gamma), u=v=xi, on random
  densities g.
* :func:`equality_condition_probe` -- zero-divergence cases g**(1+gamma) =
  c f**(1+gamma) occur exactly when psi is affine on the relevant segment.

Random brackets are always generated from genuine random discrete densities,
never as free triples, so Hoelder feasibility holds by construction.  The
lower-bound and representation checks draw them BATCH_TRIALS trials at a time
and evaluate each batch in one vectorized pass; the draws are those of
:func:`random_discrete_pair` trial after trial, so a seed gives the same
densities whatever the batch size.  The consistency check draws its
densities as one batch whose rows are the draws of
:func:`random_discrete_density` trial after trial.  A score, gap or
generator value that leaves float range in any trial raises DomainError:
such a trial is neither passed nor skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .densities import (
    BracketTriple,
    DensityObject,
    DiscreteDensity,
    GaussianDensity,
    GridDensity,
    affine_transform,
    bracket_integrals,
    density_value,
    scale_values,
    seeded_rng,
)
from .errors import DomainError, EvaluationError
from .generators import GeneratorPhi, GeneratorXi, jhhb_eta, validate_psi
from .scores import equivalent_transform, fdp_divergence, fdp_score, holder_score, jhhb_score

# bench/tracing.py wraps this name in this module; it must stay importable here
from .scores import xi_holder_score  # noqa: F401

STRICT_CONVEXITY_TOL = 1e-11
# every random discrete density has RANDOM_ATOMS masses drawn from [low, RANDOM_MASS_HIGH)
RANDOM_ATOMS = 8
RANDOM_MASS_HIGH = 3.0
# trials drawn and evaluated together; larger batches only add memory
BATCH_TRIALS = 1024


# ---------------------------------------------------------------------------
# randomized inputs
# ---------------------------------------------------------------------------


def random_discrete_density(rng: np.random.Generator, low: float = 0.05,
                            normalize: bool = False) -> DiscreteDensity:
    masses = rng.uniform(low, RANDOM_MASS_HIGH, RANDOM_ATOMS)
    if normalize:
        masses = masses / masses.sum()
    return DiscreteDensity(masses)


def random_discrete_pair(rng: np.random.Generator, low: float = 0.05,
                         normalize: bool = False):
    return (random_discrete_density(rng, low, normalize),
            random_discrete_density(rng, low, normalize))


def random_brackets(rng: np.random.Generator, gamma: float,
                    low: float = 0.05) -> BracketTriple:
    g, f = random_discrete_pair(rng, low)
    return bracket_integrals(g, f, gamma)


def _bracket_batches(rng: np.random.Generator, trials: int, gamma: float,
                     low: float = 0.05):
    """The brackets of ``trials`` random pairs, BATCH_TRIALS pairs per batch.

    The masses are drawn g before f, trial after trial, as
    :func:`random_discrete_pair` draws them, so batch i holds the brackets
    that :func:`random_brackets` would give at trials i*BATCH_TRIALS on.
    """
    for start in range(0, trials, BATCH_TRIALS):
        masses = rng.uniform(low, RANDOM_MASS_HIGH,
                             (min(BATCH_TRIALS, trials - start), 2, RANDOM_ATOMS))
        yield bracket_integrals(DiscreteDensity(masses[:, 0]),
                                DiscreteDensity(masses[:, 1]), gamma)


def _bracket_dict(b: BracketTriple, row: int) -> dict:
    """The bracket of one trial of a batch, as the reports write it."""
    return {"X": float(b.X[row]), "Y": float(b.Y[row]), "Z": float(b.Z[row]),
            "gamma": b.gamma}


def _no_nan(values: np.ndarray, what: str, gamma: float) -> np.ndarray:
    if np.isnan(values).any():
        raise DomainError(f"the {what} leaves float range at gamma={gamma}")
    return values


def _require_tolerance(tolerance: float) -> None:
    # written so that NaN fails
    if not 0.0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be a finite number >= 0, got {tolerance}")


def _trial_rng(trials: int, seed, tolerance: float) -> np.random.Generator:
    """The random stream of a randomized check, once its trials, seed and
    tolerance are valid."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    _require_tolerance(tolerance)
    return seeded_rng(seed)


@dataclass(frozen=True)
class CheckReport:
    """The one JSON shape of every ``divkit verify`` report.

    ``trials``, ``seed`` and ``passed`` (written ``pass``) go to the top level,
    the fields named in ``PARAMETERS`` under ``parameters``, and every other
    field under ``worst_case``, with the entries of a ``worst`` dict merged in.
    """

    THEOREM = ""  # set by each report; unannotated, so not dataclass fields
    PARAMETERS = ()

    def to_report(self) -> dict:
        placed = {"trials", "seed", "passed", "worst", *self.PARAMETERS}
        rest = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in placed}
        return {
            "theorem": self.THEOREM,
            "parameters": {name: getattr(self, name) for name in self.PARAMETERS},
            "trials": self.trials,
            "seed": self.seed,
            "worst_case": dict(getattr(self, "worst", {}), **rest),
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# affine invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport(CheckReport):
    """Worst relative deviation of h * D(transformed) from D(original).

    The violation is measured against the predicted scale h, not against a
    raw ratio of 1.  For uncharacterized generators the check compares the
    implied scales of two independent pairs under the same transform, which
    is free of any assumed h.
    """

    THEOREM = "affine-invariance"
    PARAMETERS = ("gamma", "zeta", "characterized")

    gamma: float
    zeta: float | None
    trials: int
    skipped: int
    seed: int
    max_relative_violation: float
    predicted_scale: float | None
    worst: dict
    characterized: bool
    passed: bool

    @property
    def used(self) -> int:
        return self.trials - self.skipped


def _render_pair(rng, representation, grid_points):
    mus = rng.uniform(-1.5, 1.5, 2)
    sigmas = rng.uniform(0.6, 1.8, 2)
    g = GaussianDensity(float(mus[0]), float(sigmas[0]))
    f = GaussianDensity(float(mus[1]), float(sigmas[1]))
    if representation == "gaussian":
        return g, f
    xs = np.linspace(-12.0, 12.0, grid_points)
    dx = float(xs[1] - xs[0])
    return (GridDensity(-12.0, dx, np.asarray(density_value(g, xs))),
            GridDensity(-12.0, dx, np.asarray(density_value(f, xs))))


def _transform_for_gamma(d, sigma, mu, gamma):
    # The gamma = 0 branch acts on brackets as <.> -> |sigma| <.>, realized by
    # value-rescaling the mass-preserving image (see the scale law h = |sigma|**-zeta).
    out = affine_transform(d, sigma, mu)
    return scale_values(out, abs(sigma)) if gamma == 0.0 else out


def check_affine_invariance(phi: GeneratorPhi, gamma: float, trials: int, seed: int,
                            representation: str = "grid", grid_points: int = 4096,
                            tolerance: float = 1e-5) -> InvarianceReport:
    """Measure h * D(g_t, f_t) / D(g, f) across random Gaussian pairs.

    phi in the power/log class uses the predicted h; any other phi is probed
    for a counterexample (two pairs under one transform implying different
    scales).  Trials with numerically zero divergence are skipped and logged;
    the check fails when every trial is skipped.
    """
    if representation not in ("grid", "gaussian"):
        raise DomainError(f"unknown representation {representation!r}")
    if representation == "grid" and grid_points < 2:
        raise DomainError(f"a grid needs at least 2 points, got {grid_points}")
    rng = _trial_rng(trials, seed, tolerance)
    if phi.kind == "power":
        zeta: float | None = phi.zeta
    elif phi.kind == "log":
        zeta = 0.0
    else:
        zeta = None

    worst = {"sigma": None, "mu": None, "ratio": None}
    worst_violation = -1.0
    predicted_at_worst = None
    skipped = 0

    for _ in range(trials):
        pairs = [_render_pair(rng, representation, grid_points)]
        if zeta is None:
            pairs.append(_render_pair(rng, representation, grid_points))
        sigma_t = float(rng.uniform(0.25, 4.0))
        mu_t = float(rng.uniform(-3.0, 3.0))

        ratios = []
        degenerate = False
        for g, f in pairs:
            d_orig = fdp_divergence(bracket_integrals(g, f, gamma), phi)
            g_t = _transform_for_gamma(g, sigma_t, mu_t, gamma)
            f_t = _transform_for_gamma(f, sigma_t, mu_t, gamma)
            d_trans = fdp_divergence(bracket_integrals(g_t, f_t, gamma), phi)
            if abs(d_orig) < 1e-12 or abs(d_trans) < 1e-12:
                degenerate = True
                break
            ratios.append(d_trans / d_orig)
        if degenerate:
            skipped += 1
            continue

        if zeta is not None:
            h = abs(sigma_t) ** (-gamma * zeta) if gamma > 0.0 else abs(sigma_t) ** (-zeta)
            ratio = h * ratios[0]
            violation = abs(ratio - 1.0)
        else:
            h = None
            ratio = ratios[0] / ratios[1]
            violation = abs(ratio - 1.0)
        if violation > worst_violation:
            worst_violation = violation
            predicted_at_worst = h
            worst = {"sigma": sigma_t, "mu": mu_t, "ratio": float(ratio)}

    # a check whose every trial was skipped has witnessed nothing
    passed = skipped < trials and worst_violation <= tolerance
    return InvarianceReport(gamma, zeta, trials, skipped, seed,
                            float(worst_violation), predicted_at_worst, worst,
                            zeta is not None, passed)


# ---------------------------------------------------------------------------
# representation of the (gamma, zeta) family as a Hoelder score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepresentationReport(CheckReport):
    THEOREM = "jhhb-representation"
    PARAMETERS = ("zeta", "gamma")

    zeta: float
    gamma: float
    trials: int
    seed: int
    max_abs_error: float
    worst: dict
    passed: bool


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # NaN is caught
def verify_jhhb_holder_representation(zeta: float, gamma: float, trials: int,
                                      seed: int,
                                      tolerance: float = 1e-10) -> RepresentationReport:
    """Compare -tau(-S_holder) against the directly assembled family score.

    tau is the signed power map for zeta > 0 and log for zeta = 0.  The two
    routes are independent formula paths and serve as each other's oracle.
    The worst trial is the first with the largest error.
    """
    rng = _trial_rng(trials, seed, tolerance)
    eta = jhhb_eta(zeta, gamma)
    max_err = -1.0
    worst: dict = {}
    for b in _bracket_batches(rng, trials, gamma):
        s = holder_score(b, eta)
        via_holder = (-equivalent_transform(-s, "signed_power", zeta) if zeta > 0.0
                      else -np.log(-s))
        err = _no_nan(np.abs(via_holder - jhhb_score(b, zeta)),
                      "representation error", gamma)
        i = int(np.argmax(err))
        if err[i] > max_err:
            max_err = float(err[i])
            worst = _bracket_dict(b, i)
    return RepresentationReport(zeta, gamma, trials, seed, float(max_err), worst,
                                max_err <= tolerance)


# ---------------------------------------------------------------------------
# lower bound of the two-power functional score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundReport(CheckReport):
    """Worst signed gap of score - bound over random brackets (>= 0 expected)."""

    THEOREM = "fdps-lower-bound"
    PARAMETERS = ("gamma", "phi", "bound_is_fdps")

    gamma: float
    phi: str
    trials: int
    invalid_trials: int
    seed: int
    passed: bool
    worst_gap: float
    tight_at: dict | None
    bound_is_fdps: bool

    @property
    def valid_trials(self) -> int:
        return self.trials - self.invalid_trials

    @property
    def holds(self) -> bool:  # the name tests/test_acceptance.py reads
        return self.passed


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # NaN is caught
def check_fdps_lower_bound(phi: GeneratorPhi, gamma: float, trials: int, seed: int,
                           tolerance: float = 1e-12) -> LowerBoundReport:
    """Check gamma phi(Y) - (1+gamma) phi(X) >= -phi(X)**(1+gamma)/phi(Y)**gamma.

    Trials where phi is nonpositive at a bracket (so log phi is undefined)
    are counted invalid and skipped; masses drawn from [0.8, 3.0) keep
    brackets above 1 so power-kind generators stay positive.  The tight
    trial is the first with the smallest |gap|.  The report also states
    whether the bound is itself a valid score, i.e. whether log phi(e^z)
    passes the psi certificate.
    """
    if not gamma > 0.0:
        raise DomainError("the lower-bound check requires gamma > 0")
    rng = _trial_rng(trials, seed, tolerance)
    worst_gap = math.inf
    tight_gap = math.inf
    tight_at = None
    invalid = 0
    for b in _bracket_batches(rng, trials, gamma, low=0.8):
        phi_x, phi_y = phi(b.X), phi(b.Y)
        valid = (phi_x > 0.0) & (phi_y > 0.0)
        invalid += int(np.count_nonzero(~valid))
        if not valid.any():
            continue
        if not valid.all():  # score the valid trials only
            b = BracketTriple(b.X[valid], b.Y[valid], b.Z[valid], gamma)
            phi_x, phi_y = phi_x[valid], phi_y[valid]
        lhs = fdp_score(b, phi)
        rhs = -np.exp(-(gamma * np.log(phi_y) - (1.0 + gamma) * np.log(phi_x)))
        gap = _no_nan(lhs - rhs, "lower-bound gap", gamma)
        worst_gap = min(worst_gap, float(gap.min()))
        abs_gap = np.abs(gap)
        i = int(np.argmin(abs_gap))
        if abs_gap[i] < tight_gap:
            tight_gap = float(abs_gap[i])
            tight_at = _bracket_dict(b, i)

    def psi_star(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(phi.psi(t))

    try:
        bound_is_fdps = bool(validate_psi(psi_star))
    except EvaluationError:
        bound_is_fdps = False

    if tight_gap > 1e-9:
        tight_at = None
    holds = invalid < trials and worst_gap >= -tolerance
    return LowerBoundReport(gamma, phi.label(), trials, invalid, seed,
                            holds, float(worst_gap), tight_at, bound_is_fdps)


# ---------------------------------------------------------------------------
# structural consistency of the assembled score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UvConsistencyReport(CheckReport):
    THEOREM = "uv-consistency"
    PARAMETERS = ("gamma", "xi")

    gamma: float
    xi: str
    trials: int
    seed: int
    max_abs_error: float
    passed: bool

    @property
    def densities(self) -> int:  # the name bench/tracing.py reads
        return self.trials


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # inf and NaN are caught
def check_uv_consistency(xi: GeneratorXi, gamma: float, trials: int, seed: int,
                         tolerance: float = 1e-12) -> UvConsistencyReport:
    """Verify xi(<g g**gamma>) = xi(<g**(1+gamma)>) on random densities g.

    This is u(<g U(g)>) = v(<V(g)>) with U(z) = z**gamma, V(z) = z**(1+gamma)
    and u = v = xi, the identity that gives the composite score the
    structure of the xi-Hoelder score.  Each trial draws one density, as
    :func:`random_discrete_density` does, and compares the two code paths to
    the same integral, X and Y of the bracket of (g, g).
    """
    if not gamma > 0.0:
        raise DomainError("the consistency check requires gamma > 0")
    rng = _trial_rng(trials, seed, tolerance)
    masses = rng.uniform(0.05, RANDOM_MASS_HIGH, (trials, RANDOM_ATOMS))
    g = DiscreteDensity(masses)
    selves = bracket_integrals(g, g, gamma)
    xi_x, xi_y = xi(selves.X), xi(selves.Y)
    if not (np.isfinite(xi_x).all() and np.isfinite(xi_y).all()):
        raise DomainError(f"the xi value leaves float range at gamma={gamma}")
    max_err = float(np.max(np.abs(xi_x - xi_y)))
    return UvConsistencyReport(gamma, xi.label(), trials, seed, max_err,
                               max_err <= tolerance)


# ---------------------------------------------------------------------------
# equality conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityProbeReport(CheckReport):
    """Divergence of the scaled pair g = c**(1/(1+gamma)) f against f.

    Expected zero exactly when psi is affine on the segment between
    log <g**(1+gamma)> and log <f**(1+gamma)> (or trivially when c = 1);
    ``passed`` records whether the observed value matches that
    expectation.  The probe is one deterministic trial.
    """

    THEOREM = "equality-conditions"
    PARAMETERS = ("gamma", "c", "phi")
    trials = 1
    seed = None

    gamma: float
    c: float
    phi: str
    D_value: float
    psi_strictly_convex: bool
    segment: tuple[float, float]
    passed: bool


def equality_condition_probe(phi: GeneratorPhi, gamma: float, f: DensityObject,
                             c: float, tolerance: float = 1e-8) -> EqualityProbeReport:
    """Evaluate D(c**(1/(1+gamma)) f, f) and test psi's strict convexity there."""
    if not c > 0.0:
        raise DomainError(f"the scaling constant must be > 0, got {c}")
    if not gamma > 0.0:
        raise DomainError("the equality probe requires gamma > 0")
    _require_tolerance(tolerance)
    g = scale_values(f, c ** (1.0 / (1.0 + gamma)))
    b = bracket_integrals(g, f, gamma)
    d_value = fdp_divergence(b, phi)
    lo, hi = sorted((math.log(b.require_z()), math.log(b.Y)))
    strictly_convex = _strictly_convex_on(phi, lo, hi)
    expect_zero = (c == 1.0) or not strictly_convex
    consistent = (abs(d_value) <= tolerance) == expect_zero
    return EqualityProbeReport(gamma, c, phi.label(), float(d_value),
                               strictly_convex, (lo, hi), consistent)


def _strictly_convex_on(phi: GeneratorPhi, lo: float, hi: float) -> bool:
    if hi - lo < 1e-15:
        return False  # degenerate segment: convexity is vacuous
    ts = np.linspace(lo, hi, 101)
    step = np.maximum(1e-4, 1e-4 * np.abs(ts))
    second = phi.psi(ts + step) - 2.0 * phi.psi(ts) + phi.psi(ts - step)
    return bool(np.min(second) > STRICT_CONVEXITY_TOL)
