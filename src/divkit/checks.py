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

Random brackets are always generated from genuine random densities, never
as free triples, so Hoelder feasibility holds by construction.  Every
randomized check draws its trials in batches and evaluates each batch in one
vectorized pass: BATCH_TRIALS trials of discrete densities or Gaussians, or
as many grid trials as hold BATCH_TRIALS * RANDOM_ATOMS grid values.  The
draws come from the seed's stream trial after trial, as
:func:`random_discrete_pair` (:func:`random_discrete_density` in the
consistency check) would draw them one trial at a time, so a seed gives the
same densities whatever the batch size.  A score, gap or generator value
that leaves float range in any trial raises DomainError: such a trial is
neither passed nor skipped.
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
from .errors import DomainError, EvaluationError, RepresentationError
from .generators import GeneratorPhi, GeneratorXi, custom_xi, jhhb_eta, ps_eta, validate_psi
from .scores import (equivalent_transform, fdp_divergence, fdp_score, holder_score, jhhb_score,
                     xi_holder_score)

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


def _uniform_batches(rng: np.random.Generator, trials: int, rows: int, low, high,
                     *shape: int):
    """Draws uniform on [low, high) for ``trials`` trials of the given shape,
    ``rows`` trials per batch, drawn trial after trial."""
    for start in range(0, trials, rows):
        yield rng.uniform(low, high, (min(rows, trials - start), *shape))


def _bracket_batches(rng: np.random.Generator, trials: int, gamma: float,
                     low: float = 0.05):
    """The brackets of ``trials`` random pairs, BATCH_TRIALS pairs per batch.

    The masses are drawn g before f, trial after trial, as
    :func:`random_discrete_pair` draws them, so batch i holds the brackets
    that :func:`random_brackets` would give at trials i*BATCH_TRIALS on.
    """
    for masses in _uniform_batches(rng, trials, BATCH_TRIALS, low, RANDOM_MASS_HIGH,
                                   2, RANDOM_ATOMS):
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # inf, nan of skipped trials masked
def check_affine_invariance(phi: GeneratorPhi, gamma: float, trials: int, seed: int,
                            representation: str = "grid", grid_points: int = 4096,
                            tolerance: float = 1e-5) -> InvarianceReport:
    """Measure h * D(g_t, f_t) / D(g, f) across random Gaussian pairs.

    phi in the power/log class uses the predicted h; any other phi is probed
    for a counterexample (two pairs under one transform implying different
    scales).  Trials with numerically zero divergence are skipped and logged;
    the check fails when every trial is skipped.  The worst trial is the
    first with the largest violation.
    """
    if representation not in ("grid", "gaussian"):
        raise DomainError(f"unknown representation {representation!r}")
    if representation == "grid" and grid_points < 2:
        raise DomainError(f"a grid needs at least 2 points, got {grid_points}")
    rng = _trial_rng(trials, seed, tolerance)
    # the exponent of the predicted scale; None: phi is outside the power/log class
    zeta = phi.zeta if phi.kind == "power" else 0.0 if phi.kind == "log" else None
    pairs = 1 if zeta is not None else 2
    # per trial: (mu_g, mu_f, sigma_g, sigma_f) of each pair, then the transform's (sigma, mu)
    low = np.array([-1.5, -1.5, 0.6, 0.6] * pairs + [0.25, -3.0])
    high = np.array([1.5, 1.5, 1.8, 1.8] * pairs + [4.0, 3.0])
    xs, rows = None, BATCH_TRIALS
    if representation == "grid":  # a grid batch holds no more values than a discrete one
        xs = np.linspace(-12.0, 12.0, grid_points)
        rows = max(1, BATCH_TRIALS * RANDOM_ATOMS // grid_points)

    worst = {"sigma": None, "mu": None, "ratio": None}
    worst_violation = -1.0
    predicted_at_worst = None
    skipped = 0

    for draws in _uniform_batches(rng, trials, rows, low, high, low.size):
        sigma_t, mu_t = draws[:, -2], draws[:, -1]
        ratios, degenerate = [], False
        for pair in draws[:, :-2].reshape(-1, pairs, 4).transpose(1, 0, 2):
            g, f = GaussianDensity(pair[:, 0], pair[:, 2]), GaussianDensity(pair[:, 1], pair[:, 3])
            if xs is not None:
                g, f = (GridDensity(-12.0, float(xs[1] - xs[0]), density_value(d, xs))
                        for d in (g, f))
            d_orig = fdp_divergence(bracket_integrals(g, f, gamma), phi)
            g_t, f_t = affine_transform(g, sigma_t, mu_t), affine_transform(f, sigma_t, mu_t)
            if gamma == 0.0:  # the gamma = 0 branch acts on brackets as <.> -> sigma <.>,
                # so the mass-preserving images are rescaled (the scale law h = sigma**-zeta)
                g_t, f_t = scale_values(g_t, sigma_t), scale_values(f_t, sigma_t)
            d_trans = fdp_divergence(bracket_integrals(g_t, f_t, gamma), phi)
            degenerate |= (np.abs(d_orig) < 1e-12) | (np.abs(d_trans) < 1e-12)
            ratios.append(d_trans / d_orig)
        skipped += int(np.count_nonzero(degenerate))

        h = None if zeta is None else sigma_t ** -(gamma * zeta if gamma > 0.0 else zeta)
        ratio = ratios[0] / ratios[1] if h is None else h * ratios[0]
        violation = np.where(degenerate, -1.0, np.abs(ratio - 1.0))
        i = int(np.argmax(violation))
        if violation[i] > worst_violation:
            worst_violation = float(violation[i])
            predicted_at_worst = None if h is None else float(h[i])
            worst = {"sigma": float(sigma_t[i]), "mu": float(mu_t[i]), "ratio": float(ratio[i])}

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

    The bound is the xi-Hoelder score of the ps generator with xi = phi.
    Trials where phi is nonpositive at a bracket (so log phi is undefined)
    are counted invalid and skipped; masses drawn from [0.8, 3.0) keep
    brackets above 1 so power-kind generators stay positive.  The tight
    trial is the first with the smallest |gap|.  The report also states
    whether the bound is itself a valid score, i.e. whether log phi(e^z),
    the lift of phi taken as a xi generator, passes the psi certificate.
    """
    if not gamma > 0.0:
        raise DomainError("the lower-bound check requires gamma > 0")
    rng = _trial_rng(trials, seed, tolerance)
    eta, xi = ps_eta(gamma), custom_xi(phi)
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
        gap = _no_nan(fdp_score(b, phi) - xi_holder_score(b, eta, xi), "lower-bound gap",
                      gamma)
        worst_gap = min(worst_gap, float(gap.min()))
        abs_gap = np.abs(gap)
        i = int(np.argmin(abs_gap))
        if abs_gap[i] < tight_gap:
            tight_gap = float(abs_gap[i])
            tight_at = _bracket_dict(b, i)

    try:
        bound_is_fdps = bool(validate_psi(xi.psi))
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
    max_err = 0.0
    for masses in _uniform_batches(rng, trials, BATCH_TRIALS, 0.05, RANDOM_MASS_HIGH,
                                   RANDOM_ATOMS):
        g = DiscreteDensity(masses)
        selves = bracket_integrals(g, g, gamma)
        xi_x, xi_y = xi(selves.X), xi(selves.Y)
        if not (np.isfinite(xi_x).all() and np.isfinite(xi_y).all()):
            raise DomainError(f"the xi value leaves float range at gamma={gamma}")
        max_err = max(max_err, float(np.max(np.abs(xi_x - xi_y))))
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
    if np.ndim(b.X):
        raise RepresentationError("the equality probe takes a single density, not a batch")
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
