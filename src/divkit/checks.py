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
  v(<V(g)>) with U(z)=z**gamma, V(z)=z**(1+gamma), u=v=xi, plus agreement of
  the assembled score with the xi-Hoelder score.
* :func:`equality_condition_probe` -- zero-divergence cases g**(1+gamma) =
  c f**(1+gamma) occur exactly when psi is affine on the relevant segment.

Random brackets are always generated from genuine random discrete densities,
never as free triples, so Hoelder feasibility holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
)
from .errors import DomainError, EvaluationError
from .generators import (
    GeneratorPhi,
    GeneratorXi,
    dpd_eta,
    jhhb_eta,
    ps_eta,
    validate_psi,
)
from .scores import (
    equivalent_transform,
    fdp_divergence,
    fdp_score,
    holder_score,
    jhhb_score,
    xi_holder_score,
)

STRICT_CONVEXITY_TOL = 1e-11


# ---------------------------------------------------------------------------
# randomized inputs
# ---------------------------------------------------------------------------


def random_discrete_density(rng: np.random.Generator, atoms: int = 8,
                            low: float = 0.05, high: float = 3.0,
                            normalize: bool = False) -> DiscreteDensity:
    masses = rng.uniform(low, high, atoms)
    if normalize:
        masses = masses / masses.sum()
    return DiscreteDensity(masses)


def random_discrete_pair(rng: np.random.Generator, atoms: int = 8,
                         low: float = 0.05, high: float = 3.0,
                         normalize: bool = False):
    return (random_discrete_density(rng, atoms, low, high, normalize),
            random_discrete_density(rng, atoms, low, high, normalize))


def random_brackets(rng: np.random.Generator, gamma: float, atoms: int = 8,
                    low: float = 0.05, high: float = 3.0) -> BracketTriple:
    g, f = random_discrete_pair(rng, atoms, low, high)
    return bracket_integrals(g, f, gamma)


def _bracket_dict(b: BracketTriple) -> dict:
    return {"X": b.X, "Y": b.Y, "Z": b.Z, "gamma": b.gamma}


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")


# ---------------------------------------------------------------------------
# affine invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    """Worst relative deviation of h * D(transformed) from D(original).

    The violation is measured against the predicted scale h, not against a
    raw ratio of 1.  For uncharacterized generators the check compares the
    implied scales of two independent pairs under the same transform, which
    is free of any assumed h.
    """

    gamma: float
    zeta: float | None
    trials: int
    used: int
    skipped: int
    seed: int
    max_relative_violation: float
    predicted_scale: float | None
    worst: dict
    characterized: bool
    passed: bool

    def to_report(self) -> dict:
        return {
            "theorem": "affine-invariance",
            "parameters": {"gamma": self.gamma, "zeta": self.zeta,
                           "characterized": self.characterized},
            "trials": self.trials,
            "seed": self.seed,
            "worst_case": dict(self.worst,
                               max_relative_violation=self.max_relative_violation,
                               predicted_scale=self.predicted_scale,
                               skipped=self.skipped),
            "pass": self.passed,
        }


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
    scales).  Trials with numerically zero divergence are skipped and logged.
    """
    if representation not in ("grid", "gaussian"):
        raise DomainError(f"unknown representation {representation!r}")
    if representation == "grid" and grid_points < 2:
        raise DomainError(f"a grid needs at least 2 points, got {grid_points}")
    _require_trials(trials)
    if phi.kind == "power":
        zeta: float | None = phi.zeta
    elif phi.kind == "log":
        zeta = 0.0
    else:
        zeta = None

    rng = np.random.default_rng(seed)
    worst = {"sigma": None, "mu": None, "ratio": None}
    worst_violation = -1.0
    predicted_at_worst = None
    used = skipped = 0

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
        used += 1

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

    passed = worst_violation <= tolerance
    return InvarianceReport(gamma, zeta, trials, used, skipped, seed,
                            float(worst_violation), predicted_at_worst, worst,
                            zeta is not None, passed)


# ---------------------------------------------------------------------------
# representation of the (gamma, zeta) family as a Hoelder score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepresentationReport:
    zeta: float
    gamma: float
    trials: int
    seed: int
    max_abs_error: float
    worst_bracket: dict
    passed: bool

    def to_report(self) -> dict:
        return {
            "theorem": "jhhb-representation",
            "parameters": {"zeta": self.zeta, "gamma": self.gamma},
            "trials": self.trials,
            "seed": self.seed,
            "worst_case": dict(self.worst_bracket, max_abs_error=self.max_abs_error),
            "pass": self.passed,
        }


def verify_jhhb_holder_representation(zeta: float, gamma: float, trials: int,
                                      seed: int,
                                      tolerance: float = 1e-10) -> RepresentationReport:
    """Compare -tau(-S_holder) against the directly assembled family score.

    tau is the signed power map for zeta > 0 and log for zeta = 0.  The two
    routes are independent formula paths and serve as each other's oracle.
    """
    _require_trials(trials)
    eta = jhhb_eta(zeta, gamma)
    rng = np.random.default_rng(seed)
    max_err = -1.0
    worst: dict = {}
    for _ in range(trials):
        b = random_brackets(rng, gamma)
        s = holder_score(b, eta)
        if zeta > 0.0:
            via_holder = -equivalent_transform(-s, "signed_power", zeta)
        else:
            via_holder = -math.log(-s)
        direct = jhhb_score(b, zeta)
        err = abs(via_holder - direct)
        if err > max_err:
            max_err = err
            worst = _bracket_dict(b)
    return RepresentationReport(zeta, gamma, trials, seed, float(max_err), worst,
                                max_err <= tolerance)


# ---------------------------------------------------------------------------
# lower bound of the two-power functional score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundReport:
    """Worst signed gap of score - bound over random brackets (>= 0 expected)."""

    gamma: float
    phi_label: str
    trials: int
    valid_trials: int
    invalid_trials: int
    seed: int
    holds: bool
    worst_gap: float
    tight_at: dict | None
    bound_is_fdps: bool

    def to_report(self) -> dict:
        return {
            "theorem": "fdps-lower-bound",
            "parameters": {"gamma": self.gamma, "phi": self.phi_label,
                           "bound_is_fdps": self.bound_is_fdps},
            "trials": self.trials,
            "seed": self.seed,
            "worst_case": {"worst_gap": self.worst_gap, "tight_at": self.tight_at,
                           "invalid_trials": self.invalid_trials},
            "pass": self.holds,
        }


def check_fdps_lower_bound(phi: GeneratorPhi, gamma: float, trials: int, seed: int,
                           atoms: int = 8, mass_low: float = 0.8,
                           mass_high: float = 3.0,
                           tolerance: float = 1e-12) -> LowerBoundReport:
    """Check gamma phi(Y) - (1+gamma) phi(X) >= -phi(X)**(1+gamma)/phi(Y)**gamma.

    Trials where phi is nonpositive at a bracket (so log phi is undefined)
    are counted invalid and skipped; the default mass range keeps brackets
    above 1 so power-kind generators stay positive.  The report also states
    whether the bound is itself a valid score, i.e. whether log phi(e^z)
    passes the psi certificate.
    """
    if not gamma > 0.0:
        raise DomainError("the lower-bound check requires gamma > 0")
    _require_trials(trials)
    rng = np.random.default_rng(seed)
    worst_gap = math.inf
    tight_gap = math.inf
    tight_at = None
    invalid = valid = 0
    for _ in range(trials):
        b = random_brackets(rng, gamma, atoms, mass_low, mass_high)
        phi_x, phi_y = phi(b.X), phi(b.Y)
        if not (phi_x > 0.0 and phi_y > 0.0):
            invalid += 1
            continue
        valid += 1
        lhs = fdp_score(b, phi)
        rhs = -math.exp(-(gamma * math.log(phi_y) - (1.0 + gamma) * math.log(phi_x)))
        gap = lhs - rhs
        worst_gap = min(worst_gap, gap)
        if abs(gap) < tight_gap:
            tight_gap = abs(gap)
            tight_at = _bracket_dict(b)

    def psi_star(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(phi.psi(t))

    try:
        bound_is_fdps = bool(validate_psi(psi_star))
    except EvaluationError:
        bound_is_fdps = False

    if tight_gap > 1e-9:
        tight_at = None
    holds = valid > 0 and worst_gap >= -tolerance
    return LowerBoundReport(gamma, phi.label(), trials, valid, invalid, seed,
                            holds, float(worst_gap), tight_at, bound_is_fdps)


# ---------------------------------------------------------------------------
# structural consistency of the assembled score
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UvConsistencyReport:
    gamma: float
    xi_label: str
    densities: int
    max_abs_error: float
    passed: bool

    def to_report(self) -> dict:
        return {
            "theorem": "uv-consistency",
            "parameters": {"gamma": self.gamma, "xi": self.xi_label},
            "trials": self.densities,
            "seed": None,
            "worst_case": {"max_abs_error": self.max_abs_error},
            "pass": self.passed,
        }


def check_uv_consistency(xi: GeneratorXi, gamma: float,
                         densities: list[DensityObject],
                         tolerance: float = 1e-12) -> UvConsistencyReport:
    """Verify xi(<g g**gamma>) = xi(<g**(1+gamma)>) and the assembled score.

    The first identity compares two code paths to the same integral; the
    second assembles eta(u(c X)/u(c Y)) u(c Y) with u = xi, c = 1 and checks
    it against the xi-Hoelder score for the stock eta generators.
    """
    if not gamma > 0.0:
        raise DomainError("the consistency check requires gamma > 0")
    if not densities:
        raise DomainError("the consistency check needs at least one density")
    max_err = 0.0
    for g in densities:
        b = bracket_integrals(g, g, gamma)
        max_err = max(max_err, abs(float(xi(b.X)) - float(xi(b.Y))))
    etas = (dpd_eta(gamma), ps_eta(gamma))
    c = 1.0
    for g, f in zip(densities, densities[1:] + densities[:1]):
        b = bracket_integrals(g, f, gamma)
        for eta in etas:
            u_x, u_y = float(xi(c * b.X)), float(xi(c * b.Y))
            assembled = float(eta(u_x / u_y)) * u_y
            max_err = max(max_err, abs(assembled - xi_holder_score(b, eta, xi)))
    return UvConsistencyReport(gamma, xi.label(), len(densities), float(max_err),
                               max_err <= tolerance)


# ---------------------------------------------------------------------------
# equality conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityProbeReport:
    """Divergence of the scaled pair g = c**(1/(1+gamma)) f against f.

    Expected zero exactly when psi is affine on the segment between
    log <g**(1+gamma)> and log <f**(1+gamma)> (or trivially when c = 1);
    ``consistent`` records whether the observed value matches that
    expectation.
    """

    gamma: float
    c: float
    phi_label: str
    D_value: float
    psi_strictly_convex: bool
    segment: tuple[float, float]
    consistent: bool

    def to_report(self) -> dict:
        return {
            "theorem": "equality-conditions",
            "parameters": {"gamma": self.gamma, "c": self.c, "phi": self.phi_label},
            "trials": 1,
            "seed": None,
            "worst_case": {"D_value": self.D_value,
                           "psi_strictly_convex": self.psi_strictly_convex,
                           "segment": list(self.segment)},
            "pass": self.consistent,
        }


def equality_condition_probe(phi: GeneratorPhi, gamma: float, f: DensityObject,
                             c: float, tolerance: float = 1e-8) -> EqualityProbeReport:
    """Evaluate D(c**(1/(1+gamma)) f, f) and test psi's strict convexity there."""
    if not c > 0.0:
        raise DomainError(f"the scaling constant must be > 0, got {c}")
    if not gamma > 0.0:
        raise DomainError("the equality probe requires gamma > 0")
    g = scale_values(f, c ** (1.0 / (1.0 + gamma)))
    b = bracket_integrals(g, f, gamma)
    d_value = fdp_divergence(b, phi)
    lo, hi = sorted((math.log(b.require_z()), math.log(b.Y)))
    strictly_convex = _strictly_convex_on(phi, lo, hi)
    expect_zero = (c == 1.0) or not strictly_convex
    consistent = (abs(d_value) <= tolerance) == expect_zero
    return EqualityProbeReport(gamma, c, phi.label(), float(d_value),
                               strictly_convex, (lo, hi), consistent)


def _strictly_convex_on(phi: GeneratorPhi, lo: float, hi: float,
                        samples: int = 101) -> bool:
    if hi - lo < 1e-15:
        return False  # degenerate segment: convexity is vacuous
    ts = np.linspace(lo, hi, samples)
    step = np.maximum(1e-4, 1e-4 * np.abs(ts))
    second = phi.psi(ts + step) - 2.0 * phi.psi(ts) + phi.psi(ts - step)
    return bool(np.min(second) > STRICT_CONVEXITY_TOL)
