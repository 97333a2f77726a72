"""Minimum-score estimation of a Gaussian location/scale model.

The empirical (plug-in) form of each scoring rule replaces <g f**gamma> with
the sample average of f(x_i)**gamma, which is exactly what makes these
families practical: the data enters only through that decomposable term.

For gamma > 0 the fit minimizes the empirical score F(X, Y) over
(mu, log sigma) by BFGS with an analytic gradient.  For N(mu, sigma),

    X = mean f(x_i)**gamma = (2 pi sigma^2)**(-gamma/2) mean exp(-gamma r_i^2 / 2)

with r_i = (x_i - mu) / sigma, so one pass over the samples gives X and its
partials through sums of e_i, e_i r_i and e_i r_i^2; Y = <f**(1+gamma)> and
its partial are closed forms.  These are the estimating equations of Basu,
Harris, Hjort & Jones (Biometrika 1998) and Fujisawa & Eguchi (J.
Multivariate Anal. 2008).  The partials of the family's outer map F come from
a central difference on that scalar map, so every family and custom generator
is covered.  The fit restarts from perturbed initial points, descends once
more around its result when that lies far from the initial point, and is
deterministic given the sample and config.

gamma = 0 estimation is only exposed for generators with constant
derivative (plain likelihood scoring): for any other generator the gamma = 0
plug-in score fails to be a composite scoring rule, so requesting it raises
:class:`~divkit.errors.GeneratorValidityError`.  For the accepted generators
the minimizer is the sample mean and (ddof = 0) standard deviation, which the
fit returns in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .densities import BracketTriple, DensityObject, GaussianDensity, empirical_brackets
from .errors import DomainError, GeneratorValidityError
from .scores import DivergenceSpec, score

# bench/tracing.py wraps these names in this module; they must stay importable here
from .densities import density_value  # noqa: F401
from .scores import fdp_score, holder_score, jhhb_score, xi_holder_score  # noqa: F401

# BFGS stops when every component of the gradient of the normalized score
# (see fit) is below this; tighter tolerances run into rounding error.
GRADIENT_TOLERANCE = 1e-7
# relative step of the central difference of F in X and in Y
OUTER_STEP = 1e-6
# X and Y are kept at or above the smallest normal float, so that F stays
# finite where the model density underflows at every sample
LOG_TINY = math.log(sys.float_info.min)
LOG_TWO_PI = math.log(2.0 * math.pi)
# sigma is held at or below e**MAX_LOG_SIGMA, where exp still has headroom
MAX_LOG_SIGMA = 700.0
# (t, log sigma) offsets of the restarts from the initial point, t in sigmas
START_OFFSETS = [(0.5, 0.3), (-0.5, -0.3), (0.5, -0.3)]
# sigma is held at or above this; a fit that ends on it is unconverged
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """Fit settings; the defaults suit n in the hundreds to 10^5."""

    initial: tuple[float, float] | None = None  # (mu, sigma); default: median, IQR-based
    max_iterations: int = 2000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DomainError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class EstimationProblem:
    samples: np.ndarray
    spec: DivergenceSpec
    config: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.size == 0:
            raise DomainError("estimation needs a nonempty sample list")
        if not np.all(np.isfinite(samples)):
            raise DomainError("samples must be finite")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class EstimationResult:
    mu: float
    sigma: float
    score: float
    iterations: int
    converged: bool
    sigma_at_floor: bool = False
    optimizer_converged: bool = True
    evaluations: tuple[int, ...] = ()  # objective evaluations of each BFGS descent

    def to_dict(self) -> dict:
        return {
            "mu_hat": self.mu,
            "sigma_hat": self.sigma,
            "score_at_min": self.score,
            "iterations": self.iterations,
            "evaluations": list(self.evaluations),
            "converged": self.converged,
            "optimizer_converged": self.optimizer_converged,
            "sigma_at_floor": self.sigma_at_floor,
        }


def empirical_score(samples, f: DensityObject, spec: DivergenceSpec) -> float:
    """Plug-in score of the model f on the samples under the chosen family.

    The family's score of :func:`~divkit.densities.empirical_brackets`.  At
    gamma = 0 only constant-derivative generators are accepted (see module
    docstring).
    """
    if spec.gamma == 0.0:
        if spec.family == "fdpd" and not spec.phi.has_constant_derivative():
            raise GeneratorValidityError(
                "gamma=0 plug-in scoring is improper unless phi' is constant; "
                f"got phi={spec.phi.label()!r} (use identity)")
        if spec.family == "jhhb" and spec.zeta != 1.0:
            raise GeneratorValidityError(
                "gamma=0 plug-in scoring in the zeta family is improper unless "
                f"zeta=1; got zeta={spec.zeta}")
        if spec.family not in ("fdpd", "jhhb"):
            raise GeneratorValidityError(
                f"{spec.family} plug-in scoring requires gamma > 0")
    return score(empirical_brackets(samples, f, spec.gamma), spec)


def _outer(spec: DivergenceSpec, x: float, y: float) -> tuple[float, float, float]:
    """F(X, Y) with X dF/dX and Y dF/dY, by central differences in X and Y."""
    h = OUTER_STEP

    def f(xv, yv):
        return score(BracketTriple(xv, yv, None, spec.gamma), spec)

    return (f(x, y),
            (f(x * (1.0 + h), y) - f(x * (1.0 - h), y)) / (2.0 * h),
            (f(x, y * (1.0 + h)) - f(x, y * (1.0 - h))) / (2.0 * h))


def _gaussian_brackets(samples: np.ndarray, gamma: float, mu: float,
                       log_sigma: float) -> tuple[float, float, float, float]:
    """X, Y of N(mu, e^log_sigma) on the samples, and d log X / d(mu, log sigma).

    One pass over the samples.  The exponent is shifted by the smallest r^2,
    so the sums stay positive when every f(x_i) underflows.
    """
    sigma = math.exp(log_sigma)
    r = samples - mu
    r *= 1.0 / sigma
    r2 = r * r
    shift = float(r2.min())
    e = r2 - shift
    e *= -0.5 * gamma
    np.exp(e, out=e)
    # einsum rather than a BLAS dot, whose threads stall on a busy machine
    s0, s1, s2 = float(e.sum()), float(np.einsum("i,i", e, r)), float(np.einsum("i,i", e, r2))
    log_front = -gamma * (0.5 * LOG_TWO_PI + log_sigma)
    log_x = log_front - 0.5 * gamma * shift + math.log(s0 / samples.size)
    log_y = log_front - 0.5 * math.log1p(gamma)
    return (math.exp(max(log_x, LOG_TINY)), math.exp(max(log_y, LOG_TINY)),
            gamma * s1 / (s0 * sigma), gamma * (s2 / s0 - 1.0))


def gaussian_objective(samples: np.ndarray, spec: DivergenceSpec,
                       sigma_floor: float):
    """The plug-in score of N(mu, sigma) and its gradient in (mu, log sigma).

    Returns ``objective(mu, log_sigma) -> (score, d/dmu, d/dlog sigma)`` for
    gamma > 0.  Outside [sigma_floor, e**MAX_LOG_SIGMA] sigma is held at the
    bound and the log sigma component of the gradient is 0.
    """
    gamma = spec.gamma
    log_floor = math.log(sigma_floor)

    def objective(mu: float, log_sigma: float) -> tuple[float, float, float]:
        held = min(max(log_sigma, log_floor), MAX_LOG_SIGMA)
        x, y, dlogx_mu, dlogx_u = _gaussian_brackets(samples, gamma, mu, held)
        value, ex, ey = _outer(spec, x, y)
        d_u = ex * dlogx_u - gamma * ey if held == log_sigma else 0.0
        return value, ex * dlogx_mu, d_u

    return objective


def fit(problem: EstimationProblem) -> EstimationResult:
    """Minimize the empirical score over (mu, log sigma).

    gamma = 0 returns the closed-form minimizer.  gamma > 0 runs BFGS from
    the base initial point (sample median, scaled interquartile range) and
    from its START_OFFSETS perturbations, and keeps the best minimum.  A fit
    whose sigma lands on SIGMA_FLOOR is flagged unconverged.
    """
    samples = problem.samples
    spec = problem.spec
    cfg = problem.config
    log_floor = math.log(SIGMA_FLOOR)

    if spec.gamma == 0.0:
        mu_hat = float(np.mean(samples))
        sigma_hat = max(float(np.std(samples)), SIGMA_FLOOR)
        value = empirical_score(samples, GaussianDensity(mu_hat, sigma_hat, 1.0), spec)
        at_floor = sigma_hat <= SIGMA_FLOOR * (1.0 + 1e-9)
        return EstimationResult(mu_hat, sigma_hat, value, 0, converged=not at_floor,
                                sigma_at_floor=at_floor)

    if cfg.initial is not None:
        mu0, sigma0 = cfg.initial
    else:
        mu0 = float(np.median(samples))
        q75, q25 = np.percentile(samples, [75.0, 25.0])
        sigma0 = float((q75 - q25) / 1.349)
    sigma0 = max(sigma0, 1e-3)

    objective = gaussian_objective(samples, spec, SIGMA_FLOOR)
    runs = []

    def descend(mu_ref: float, sigma_ref: float, offsets) -> tuple[float, float, float]:
        """BFGS from (mu_ref + dt sigma_ref, sigma_ref e**du) for each offset.

        The search runs in (t, log sigma) with mu = mu_ref + sigma_ref t, on
        the score divided by its sensitivity |X dF/dX| + |Y dF/dY| at the
        reference point, so that one gradient tolerance serves every
        location, scale and family.  Returns the best (mu, log sigma, score).
        """
        u_ref = math.log(sigma_ref)
        x, y, _, _ = _gaussian_brackets(samples, spec.gamma, mu_ref, u_ref)
        _, ex, ey = _outer(spec, x, y)
        scale = abs(ex) + abs(ey)
        if not (math.isfinite(scale) and scale > 0.0):
            scale = 1.0

        def normalized(params):
            value, d_mu, d_u = objective(mu_ref + sigma_ref * params[0], params[1])
            return value / scale, np.array([sigma_ref * d_mu, d_u]) / scale

        for dt, du in offsets:
            runs.append(minimize(normalized, np.array([dt, u_ref + du]), method="BFGS",
                                 jac=True, options={"maxiter": cfg.max_iterations,
                                                    "gtol": GRADIENT_TOLERANCE}))
        best = min(runs[-len(offsets):], key=lambda res: res.fun)
        return (mu_ref + sigma_ref * float(best.x[0]),
                min(max(float(best.x[1]), log_floor), MAX_LOG_SIGMA),
                float(best.fun) * scale)

    offsets = [(0.0, 0.0)] + START_OFFSETS
    mu_hat, u_hat, value = descend(mu0, sigma0, offsets)
    if abs(u_hat - math.log(sigma0)) > math.log(2.0):
        # far from the initial point the normalization and the units of t
        # no longer fit the score, and BFGS may stop early or miss its
        # tolerance; descend once more around the point found
        mu_hat, u_hat, value = descend(mu_hat, math.exp(u_hat), [(0.0, 0.0)])

    sigma_hat = math.exp(u_hat)
    at_floor = sigma_hat <= SIGMA_FLOOR * (1.0 + 1e-9)
    any_converged = any(bool(res.success) for res in runs)
    return EstimationResult(mu_hat, sigma_hat, value, sum(int(res.nit) for res in runs),
                            converged=any_converged and not at_floor,
                            sigma_at_floor=at_floor,
                            optimizer_converged=any_converged,
                            evaluations=tuple(int(res.nfev) for res in runs))


# ---------------------------------------------------------------------------
# contamination experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    family: str
    gamma: float
    zeta: float | None
    mu_hat: float
    sigma_hat: float
    bias: float
    converged: bool

    def as_csv_row(self) -> list:
        zeta = "" if self.zeta is None else repr(float(self.zeta))
        return [repr(float(self.epsilon)), self.family, repr(float(self.gamma)), zeta,
                repr(float(self.mu_hat)), repr(float(self.sigma_hat)),
                repr(float(self.bias)), str(self.converged).lower()]


SWEEP_HEADER = ["epsilon", "family", "gamma", "zeta", "mu_hat", "sigma_hat",
                "bias", "converged"]


def contaminated_sample(n: int, epsilon: float, outlier_location: float,
                        seed_key) -> np.ndarray:
    """(1-eps) standard normal draws plus a point mass of outliers at one location."""
    if n < 1:
        raise DomainError(f"a sample needs n >= 1, got {n}")
    if not 0.0 <= epsilon <= 0.45:
        raise DomainError(f"epsilon must lie in [0, 0.45], got {epsilon}")
    rng = np.random.default_rng(seed_key)
    n_out = int(round(epsilon * n))
    clean = rng.standard_normal(n - n_out)
    return np.concatenate([clean, np.full(n_out, float(outlier_location))])


def contamination_sweep(epsilons, outlier_location: float,
                        specs: list[DivergenceSpec], n: int, seed: int,
                        config: OptimizerConfig | None = None) -> list[SweepRow]:
    """Fit every spec against every contamination level; bias is mu_hat - 0.

    Rows are ordered (epsilon outer, spec inner) and fully determined by the
    seed.
    """
    config = config or OptimizerConfig()
    rows = []
    for epsilon in epsilons:
        epsilon = float(epsilon)
        samples = contaminated_sample(n, epsilon, outlier_location,
                                      [seed, int(round(1e9 * epsilon))])
        for spec in specs:
            result = fit(EstimationProblem(samples, spec, config))
            rows.append(SweepRow(epsilon, spec.family, spec.gamma, spec.zeta,
                                 result.mu, result.sigma, result.mu - 0.0,
                                 result.converged))
    return rows
