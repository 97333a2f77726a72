"""Minimum-score estimation of a Gaussian location/scale model.

The empirical (plug-in) form of each scoring rule replaces <g f**gamma> with
the sample average of f(x_i)**gamma, which is exactly what makes these
families practical: the data enters only through that decomposable term.

For gamma > 0 the fit minimizes the empirical score F(X, Y) over
(mu, log sigma) by a safeguarded Newton method with an analytic gradient and
Hessian.  For N(mu, sigma),

    X = mean f(x_i)**gamma = (2 pi sigma^2)**(-gamma/2) mean exp(-gamma r_i^2 / 2)

with r_i = (x_i - mu) / sigma, so one pass over the samples gives X and the
first and second partials of log X through sums of e_i r_i**k, k = 0..4;
Y = <f**(1+gamma)> and its partial are closed forms.  Setting the gradient to
zero gives the weighted-moment estimating equations of Basu, Harris, Hjort &
Jones (Biometrika 1998) and Fujisawa & Eguchi (J. Multivariate Anal. 2008).
The partials of the family's outer map F come from central differences on
that scalar map, so every family and custom generator is covered; the seven
points of the stencil, at one step in log X and log Y, are scored in one
batched call.  Each descent runs on the score normalized around a reference
point (see :func:`gaussian_objective`).  The fit restarts from perturbed
initial points, descends again around its result while that lies far from
the point the last descent started from (at most MAX_REDESCENTS times), and
is deterministic given the sample and config.  Its ``converged`` flag
describes the descent whose point it returns.

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
from typing import Callable, NamedTuple

import numpy as np

from .densities import (BracketTriple, DensityObject, GaussianDensity, empirical_brackets,
                        seeded_rng)
from .errors import DomainError, GeneratorValidityError
from .scores import DivergenceSpec, score

# bench/tracing.py wraps these names in this module; they must stay importable here
from .densities import density_value  # noqa: F401
from .scores import fdp_score, holder_score, jhhb_score, xi_holder_score  # noqa: F401

# a descent stops when every component of its normalized gradient (see
# gaussian_objective) is below this; tighter tolerances run into rounding error
GRADIENT_TOLERANCE = 1e-7
# step in log X and log Y of the central first and second differences of F
OUTER_STEP = 1e-4
# a Newton step divides by the Hessian's eigenvalues taken in absolute value
# and raised to at least this, so every step descends
CURVATURE_FLOOR = 1e-8
# Armijo backtracking accepts a step that decreases the value by at least
# this share of the first-order prediction, and halves it at most
# MAX_HALVINGS times
ARMIJO_SHARE = 1e-4
MAX_HALVINGS = 30
# a Newton step moves no coordinate by more than this (sigmas in t, e-folds
# in log sigma), so that a region of small curvature is not jumped across
MAX_STEP = 2.0
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
# a fit descends again around its point at most this many times (see fit)
MAX_REDESCENTS = 2


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
        if samples.ndim != 1 or samples.size == 0:
            raise DomainError("estimation needs a nonempty 1-D array of samples")
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
    evaluations: tuple[int, ...] = ()  # objective evaluations of each Newton descent

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


def _outer(spec: DivergenceSpec, x: float, y: float) -> tuple[float, ...]:
    """F(X, Y), its first partials X dF/dX, Y dF/dY and its second partials in
    (log X, log Y), by central differences on the scalar map F.

    The seven points of the stencil, the center and its neighbours along
    log X, log Y and the diagonal, go to ``score`` as one batched bracket;
    each row is the value that a float bracket of that point gives.
    """
    k = OUTER_STEP
    up, down = math.exp(k), math.exp(-k)
    x_up, x_down, y_up, y_down = x * up, x * down, y * up, y * down
    xs = np.array([x, x_up, x_down, x, x, x_up, x_down])
    ys = np.array([y, y, y, y_up, y_down, y_up, y_down])
    center, f_x_up, f_x_down, f_y_up, f_y_down, f_up, f_down = score(
        BracketTriple(xs, ys, None, spec.gamma), spec).tolist()
    twice = 2.0 * center
    f_aa = (f_x_up - twice + f_x_down) / (k * k)
    f_bb = (f_y_up - twice + f_y_down) / (k * k)
    # along the diagonal the second difference is f_aa + 2 f_ab + f_bb
    f_ab = ((f_up - twice + f_down) / (k * k) - f_aa - f_bb) / 2.0
    return (center, (f_x_up - f_x_down) / (2.0 * k), (f_y_up - f_y_down) / (2.0 * k),
            f_aa, f_ab, f_bb)


def _weighted_sums(e: np.ndarray, r: np.ndarray, r2: np.ndarray) -> tuple[float, ...]:
    """The sums of e_i r_i**k, k = 0..4; multiplies e by r2 in place."""
    # einsum rather than a BLAS dot, whose threads stall on a busy machine
    s0, s1 = float(e.sum()), float(np.einsum("i,i", e, r))
    e *= r2
    return (s0, s1, float(e.sum()), float(np.einsum("i,i", e, r)),
            float(np.einsum("i,i", e, r2)))


def _gaussian_brackets(samples: np.ndarray, gamma: float, mu: float, log_sigma: float,
                       work: np.ndarray) -> tuple[float, ...]:
    """X, Y of N(mu, e^log_sigma) on the samples, and the gradient and Hessian
    of log X in (mu, log sigma): d/dmu, d/dlog sigma, then the second
    partials in mu mu, mu log sigma and log sigma log sigma.

    One pass over the samples gives the sums s_k of e_i r_i**k, k = 0..4.
    With m_k = s_k / s0, the moments of r under the weights e_i,

        d2 log X / dmu2            = gamma / sigma^2 (gamma (m2 - m1^2) - 1)
        d2 log X / dmu dlog sigma  = gamma / sigma (gamma (m3 - m1 m2) - 2 m1)
        d2 log X / dlog sigma2     = gamma (gamma (m4 - m2^2) - 2 m2)

    The exponent is shifted by the smallest r^2, so the sums stay positive
    when every f(x_i) underflows.  The pass writes into ``work``, a (3, n)
    array that the fit allocates once: at n = 10^5 a fresh one per call
    would cost about as much time as the pass itself, in page faults.
    """
    r, r2, e = work
    sigma = math.exp(log_sigma)
    np.subtract(samples, mu, out=r)
    r *= 1.0 / sigma
    np.multiply(r, r, out=r2)
    shift = float(r2.min())
    np.subtract(r2, shift, out=e)
    e *= -0.5 * gamma
    np.exp(e, out=e)
    sums = _weighted_sums(e, r, r2)
    if not math.isfinite(sum(sums)) and math.isfinite(shift):
        # r^2 = inf for a sample beyond sqrt(float max) sigma: its weight is
        # 0, and 0 * inf is NaN, so the sums go over the other samples (when
        # every r^2 is inf, the NaN stays and a line search rejects the point)
        near = np.isfinite(r2)
        r, r2 = r[near], r2[near]
        sums = _weighted_sums(np.exp(-0.5 * gamma * (r2 - shift)), r, r2)
    s0, s1, s2, s3, s4 = sums
    m1, m2, m3, m4 = s1 / s0, s2 / s0, s3 / s0, s4 / s0
    log_front = -gamma * (0.5 * LOG_TWO_PI + log_sigma)
    log_x = log_front - 0.5 * gamma * shift + math.log(s0 / samples.size)
    log_y = log_front - 0.5 * math.log1p(gamma)
    return (math.exp(max(log_x, LOG_TINY)), math.exp(max(log_y, LOG_TINY)),
            gamma * m1 / sigma, gamma * (m2 - 1.0),
            gamma / (sigma * sigma) * (gamma * (m2 - m1 * m1) - 1.0),
            gamma / sigma * (gamma * (m3 - m1 * m2) - 2.0 * m1),
            gamma * (gamma * (m4 - m2 * m2) - 2.0 * m2))


def gaussian_objective(samples: np.ndarray, spec: DivergenceSpec, mu_ref: float,
                       sigma_ref: float, work: np.ndarray):
    """A descent's objective around N(mu_ref, sigma_ref), for gamma > 0, and
    its scale.

    ``objective((t, log sigma))`` returns the plug-in score of
    N(mu_ref + sigma_ref t, sigma) divided by ``scale``, its gradient and its
    Hessian (a pair of rows) in (t, log sigma).  ``scale`` is the sensitivity
    |X dF/dX| + |Y dF/dY| at the reference (1 where that is 0 or not
    finite), so that one gradient tolerance serves every location, scale and
    family.  Outside [SIGMA_FLOOR, e**MAX_LOG_SIGMA] sigma is held at the
    bound, and the log sigma component of the gradient and the log sigma row
    and column of the Hessian are 0.  Every pass over the samples writes
    into ``work`` (see :func:`_gaussian_brackets`).
    """
    gamma = spec.gamma
    log_floor = math.log(SIGMA_FLOOR)
    x, y = _gaussian_brackets(samples, gamma, mu_ref, math.log(sigma_ref), work)[:2]
    ex, ey = _outer(spec, x, y)[1:3]
    scale = abs(ex) + abs(ey)
    if not (math.isfinite(scale) and scale > 0.0):
        scale = 1.0

    def objective(params):
        t, log_sigma = params
        held = min(max(log_sigma, log_floor), MAX_LOG_SIGMA)
        mu = mu_ref + sigma_ref * t
        x, y, a_m, a_u, a_mm, a_mu, a_uu = _gaussian_brackets(samples, gamma, mu, held, work)
        value, ex, ey, f_aa, f_ab, f_bb = _outer(spec, x, y)
        # F(log X, log Y) with d log Y / dlog sigma = -gamma the only
        # nonzero partial of log Y; d/dt = sigma_ref d/dmu
        d_mu, h_mm = ex * a_m, f_aa * a_m * a_m + ex * a_mm
        if held != log_sigma:
            d_u = h_mu = h_uu = 0.0
        else:
            d_u = ex * a_u - gamma * ey
            h_mu = (f_aa * a_u - gamma * f_ab) * a_m + ex * a_mu
            h_uu = (f_aa * a_u - 2.0 * gamma * f_ab) * a_u + gamma * gamma * f_bb + ex * a_uu
        h_mu *= sigma_ref / scale
        return (value / scale, (sigma_ref * d_mu / scale, d_u / scale),
                ((sigma_ref * sigma_ref * h_mm / scale, h_mu), (h_mu, h_uu / scale)))

    return objective, scale


class Minimum(NamedTuple):
    """Where one :func:`minimize` descent ended, and what it spent."""

    x: tuple[float, float]
    fun: float
    nfev: int  # objective evaluations
    nit: int  # Newton steps taken
    success: bool  # the gradient tolerance was met


def _newton_step(grad, hess) -> tuple[float, float]:
    """-H^-1 grad, with H's eigenvalues replaced by max(|lambda|, CURVATURE_FLOOR).

    The eigen-decomposition of the symmetric 2x2 [[a, b], [b, c]] is closed
    form: the eigenvalues are (a + c)/2 +- hypot((a - c)/2, b), with the
    eigenvectors at angle theta and theta + pi/2, tan 2 theta = 2b / (a - c).
    """
    (a, b), (_, c) = hess
    mean, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    theta = 0.5 * math.atan2(b, 0.5 * (a - c))
    cos, sin = math.cos(theta), math.sin(theta)
    along = (cos * grad[0] + sin * grad[1]) / max(abs(mean + radius), CURVATURE_FLOOR)
    across = (cos * grad[1] - sin * grad[0]) / max(abs(mean - radius), CURVATURE_FLOOR)
    return -(cos * along - sin * across), -(sin * along + cos * across)


def _largest(pair) -> float:
    return max(abs(pair[0]), abs(pair[1]))


def minimize(objective: Callable, x0: tuple[float, float], max_iterations: int) -> Minimum:
    """Safeguarded Newton descent of a smooth function of two variables.

    ``objective(x)`` returns ``(value, gradient, hessian)``, the gradient as
    a pair and the Hessian as a pair of rows.  Each step is the Newton step
    of the eigenvalue-floored Hessian (see :func:`_newton_step`), so it
    descends also where the curvature is negative.  Armijo backtracking
    halves it until the value falls by ARMIJO_SHARE of the first-order
    prediction.  The descent succeeds when every gradient component is below
    GRADIENT_TOLERANCE; it fails after ``max_iterations`` steps, when
    MAX_HALVINGS halvings find no decrease, or when the step is not a
    descent direction (a NaN gradient or Hessian).
    """
    x = x0
    value, grad, hess = objective(x)
    nfev, nit = 1, 0
    # written so that a NaN component never passes
    while not (abs(grad[0]) < GRADIENT_TOLERANCE and abs(grad[1]) < GRADIENT_TOLERANCE):
        step = _newton_step(grad, hess)
        longest = _largest(step)
        if longest > MAX_STEP:
            step = (step[0] * MAX_STEP / longest, step[1] * MAX_STEP / longest)
        slope = grad[0] * step[0] + grad[1] * step[1]
        if nit == max_iterations or not slope < 0.0:
            return Minimum(x, value, nfev, nit, False)
        nit += 1
        length = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = (x[0] + length * step[0], x[1] + length * step[1])
            found = objective(trial)
            nfev += 1
            # strict: a step whose gain rounds away is no progress
            if found[0] < value + ARMIJO_SHARE * length * slope:
                break
            length *= 0.5
        else:
            return Minimum(x, value, nfev, nit, False)
        x, (value, grad, hess) = trial, found
    return Minimum(x, value, nfev, nit, True)


def _on_floor(sigma: float) -> bool:
    return sigma <= SIGMA_FLOOR * (1.0 + 1e-9)


# an overflow or an invalid operation gives inf or NaN, which the range
# checks and the descent's tests catch
@np.errstate(over="ignore", invalid="ignore")
def fit(problem: EstimationProblem) -> EstimationResult:
    """Minimize the empirical score over (mu, log sigma).

    gamma = 0 returns the closed-form minimizer.  gamma > 0 runs a Newton
    descent (:func:`minimize`) from the base initial point (sample median,
    scaled interquartile range) and from its START_OFFSETS perturbations, and
    keeps the best minimum.  The fit is converged when the descent whose
    point it returns met the gradient tolerance and sigma did not land on
    SIGMA_FLOOR.
    """
    samples = problem.samples
    spec = problem.spec
    cfg = problem.config
    log_floor = math.log(SIGMA_FLOOR)

    if spec.gamma == 0.0:
        mu_hat, sigma_hat = float(np.mean(samples)), float(np.std(samples))
        if not (math.isfinite(mu_hat) and math.isfinite(sigma_hat)):
            # the sum or the squares overflow: take both on the samples
            # divided by their largest magnitude, and scale back
            top = float(np.max(np.abs(samples)))
            mu_hat, sigma_hat = (top * float(np.mean(samples / top)),
                                 top * float(np.std(samples / top)))
        sigma_hat = max(sigma_hat, SIGMA_FLOOR)
        value = empirical_score(samples, GaussianDensity(mu_hat, sigma_hat, 1.0), spec)
        at_floor = _on_floor(sigma_hat)
        return EstimationResult(mu_hat, sigma_hat, value, 0, converged=not at_floor,
                                sigma_at_floor=at_floor)

    if cfg.initial is not None:
        mu0, sigma0 = cfg.initial
    else:
        # both order statistics partition one scratch copy in place; their
        # values do not depend on the order they leave behind
        scratch = samples.copy()
        mu0 = float(np.median(scratch, overwrite_input=True))
        q75, q25 = np.percentile(scratch, [75.0, 25.0], overwrite_input=True)
        sigma0 = float((q75 - q25) / 1.349)
    sigma0 = max(sigma0, 1e-3)

    work = np.empty((3, samples.size))
    runs = []

    def descend(mu_ref: float, sigma_ref: float, offsets) -> tuple[float, float, float, bool]:
        """Newton descents of :func:`gaussian_objective` around (mu_ref,
        sigma_ref) from (t, log sigma) = (dt, log sigma_ref + du), one per
        offset.  Returns the best (mu, log sigma, score) and whether the
        descent that found it met the tolerance.
        """
        objective, scale = gaussian_objective(samples, spec, mu_ref, sigma_ref, work)
        u_ref = math.log(sigma_ref)
        for dt, du in offsets:
            runs.append(minimize(objective, (dt, u_ref + du), cfg.max_iterations))
        best = min(runs[-len(offsets):], key=lambda res: res.fun)
        return (mu_ref + sigma_ref * best.x[0],
                min(max(best.x[1], log_floor), MAX_LOG_SIGMA),
                best.fun * scale, best.success)

    offsets = [(0.0, 0.0)] + START_OFFSETS
    mu_hat, u_hat, value, succeeded = descend(mu0, sigma0, offsets)
    sigma_ref = sigma0
    for _ in range(MAX_REDESCENTS):
        # every step from a point on the floor goes below it, where the score is held
        if abs(u_hat - math.log(sigma_ref)) <= math.log(2.0) or _on_floor(math.exp(u_hat)):
            break
        # far from the reference point the normalization and the units of t
        # no longer fit the score, and a descent may stop early or miss its
        # tolerance; descend once more around the point found
        sigma_ref = math.exp(u_hat)
        mu_hat, u_hat, value, succeeded = descend(mu_hat, sigma_ref, [(0.0, 0.0)])

    sigma_hat = math.exp(u_hat)
    at_floor = _on_floor(sigma_hat)
    return EstimationResult(mu_hat, sigma_hat, value, sum(res.nit for res in runs),
                            converged=succeeded and not at_floor,
                            sigma_at_floor=at_floor,
                            optimizer_converged=succeeded,
                            evaluations=tuple(res.nfev for res in runs))


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
    rng = seeded_rng(seed_key)
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
