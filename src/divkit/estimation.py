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
batched call.  Each descent measures every point in that point's own units:
mu in its sigma, and the partials of F divided by its sensitivity (see
:func:`gaussian_objective`); a Newton step takes mu in units of at least the
fit's initial sigma (see :func:`minimize`).  So the fit of a x + b takes the
steps of the fit of x.  The fit descends from the initial point and from
perturbations of it, keeps the lowest score, and is deterministic given the
sample and config.  Its ``converged`` flag describes the descent whose point
it returns.

The descents run in lockstep (see :func:`_lockstep`): at each step the
pending points of all running descents share one pass over a block of
samples and one ``score`` call on their stencils.  A block holds up to
BLOCK_ROWS = 4 points in rows of at most BLOCK_SAMPLES = 8192 sample
values, so that numpy sums each row as it sums a single point's (the rows
of a block of longer rows move in their last bits, at any
:func:`numpy.setbufsize`); on more samples each point has a pass of its
own.  Every row of a block gets the bits of a one-point evaluation, so each
descent takes the steps it takes alone.  A failing evaluation fails the fit
with its error.

A contamination sweep runs the descents of all its fits in one lockstep
(see :func:`_fit_together`).  At each step the points on one samples array
at one gamma share their passes, each distinct point bracketed once (specs
that share a gamma start from the same four points), and the points of one
spec share one ``score`` call.  Each fit so gets the bits that it gets
alone; a failing evaluation fails every fit of the sweep with its error.

On more than BLOCK_SAMPLES samples, where the four starts no longer share
one block, a fit runs in two phases.  The coarse phase runs the descents,
in one block of four rows, on a fixed quantile subsample of COARSE_SAMPLES
= 1024 order statistics (see :func:`_quantile_subsample`), which locates
the minima; at n = 10^5 a coarse evaluation costs about 2% of a full one.
Coarse end points within SAME_MINIMUM of each other in (t, log sigma) are
one minimum (see :func:`_distinct`), and the fine phase descends on all the
samples from each distinct one, one point to a pass, usually in two
evaluations.  The fit returns the lowest fine end point, so it meets the
gradient tolerance on the full sample as a one-phase fit does.  Its
``evaluations`` list the coarse descents, then the fine ones, and its
``iterations`` count the steps of both.  A failing evaluation in either
phase fails the fit with its error.  The result does not depend on
:func:`numpy.setbufsize`.

gamma = 0 estimation is only exposed for plain likelihood scoring: holder,
and fdpd and jhhb with a constant-derivative generator.  For any other
generator the gamma = 0 plug-in score fails to be a composite scoring rule,
so requesting it raises :class:`~divkit.errors.GeneratorValidityError`.  For
the accepted specs the minimizer is the sample mean and (ddof = 0) standard
deviation, which the fit returns in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
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
# a Newton step moves no coordinate by more than this (t in its units, see
# minimize; e-folds in log sigma), so that a region of small curvature is not
# jumped across
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
# numpy sums each row of a (rows, n) block as it sums that row alone while
# n is at most this (numpy.getbufsize() does not move it), so a pass over at
# most this many samples brackets BLOCK_ROWS points in one block, and a pass
# over more brackets one point.  A fit on at most this many samples runs its
# four descents in one block; a fit on more runs them on a subsample first
# (see _fit_together), so that only its short fine descents take one-point
# passes
BLOCK_SAMPLES = 8192
# the coarse phase of a fit on more than BLOCK_SAMPLES samples descends on a
# quantile subsample of this many values, which places its minima for the
# fine phase as 8192 values did: on 626 two-phase fits at n 1.5e4 to 1e5 the
# fine phase took 1574 evaluations after 1024 values and 1596 after 8192.
# At n = 10^5 a coarse pass costs about 2% of a full one
COARSE_SAMPLES = 1024
# a fit's four pending points fill one block; blocks of 16 rows were slower
# (nine fits at n = 2000: 6.3 ms against 5.4 ms, on 2 CPUs)
BLOCK_ROWS = 4
# coarse end points closer than this in (t, log sigma), t in the sigma of the
# end kept, are one minimum: on 626 fits at n 1.5e4 to 1e5, on subsamples of
# 1024 and of 8192 values alike, ends of one basin agreed to 2e-7 in 9 pairs
# of 10, and distinct minima were 0.5 or more apart (except on two
# noise-limited scores)
SAME_MINIMUM = 1e-3


@dataclass(frozen=True)
class OptimizerConfig:
    """Fit settings; the defaults suit n in the hundreds to 10^5."""

    initial: tuple[float, float] | None = None  # (mu, sigma); default: median, IQR-based
    max_iterations: int = 2000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DomainError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.initial is not None:
            mu, sigma = self.initial
            if not math.isfinite(mu):
                raise DomainError(f"the initial mu must be finite, got {mu}")
            if not (math.isfinite(sigma) and sigma > 0.0):
                raise DomainError(f"the initial sigma must be finite and > 0, got {sigma}")


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
    gamma = 0 only likelihood scoring is accepted (see module docstring).
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
    return score(empirical_brackets(samples, f, spec.gamma), spec)


# the factors of X and of Y at the seven points of _outer's stencil
_UP, _DOWN = math.exp(OUTER_STEP), math.exp(-OUTER_STEP)
_STENCIL_X = np.array([1.0, _UP, _DOWN, 1.0, 1.0, _UP, _DOWN])
_STENCIL_Y = np.array([1.0, 1.0, 1.0, _UP, _DOWN, _UP, _DOWN])


def _outer(spec: DivergenceSpec, xs, ys) -> list[tuple[float, ...]]:
    """F(X, Y), its first partials X dF/dX, Y dF/dY and its second partials in
    (log X, log Y), by central differences on the scalar map F, at each
    (X, Y) pair of ``xs`` and ``ys``.

    The seven points of each stencil, the center and its neighbours along
    log X, log Y and the diagonal, go to ``score`` as one batched bracket of
    7 rows per pair; each row is the value that a float bracket of that
    point gives, so a pair's partials do not depend on the others.
    """
    k = OUTER_STEP
    stencil_x = np.multiply.outer(xs, _STENCIL_X).ravel()
    stencil_y = np.multiply.outer(ys, _STENCIL_Y).ravel()
    values = score(BracketTriple(stencil_x, stencil_y, None, spec.gamma), spec).tolist()
    out = []
    for i in range(0, len(values), 7):
        center, f_x_up, f_x_down, f_y_up, f_y_down, f_up, f_down = values[i:i + 7]
        twice = 2.0 * center
        f_aa = (f_x_up - twice + f_x_down) / (k * k)
        f_bb = (f_y_up - twice + f_y_down) / (k * k)
        # along the diagonal the second difference is f_aa + 2 f_ab + f_bb
        f_ab = ((f_up - twice + f_down) / (k * k) - f_aa - f_bb) / 2.0
        out.append((center, (f_x_up - f_x_down) / (2.0 * k),
                    (f_y_up - f_y_down) / (2.0 * k), f_aa, f_ab, f_bb))
    return out


def _weighted_sums(e: np.ndarray, r: np.ndarray, r2: np.ndarray) -> list[tuple[float, ...]]:
    """The sums of e_i r_i**k, k = 0..4, of each row; multiplies e by r2 in place.

    Each row's sums are the bits of that row alone where the rows hold at
    most BLOCK_SAMPLES values, or there is one row: numpy sums the rows of
    a block of longer rows in pieces, which moves their last bits.
    """
    def dot(a, b):
        # einsum rather than a BLAS dot, whose threads stall on a busy machine
        return np.einsum("ij,ij->i", a, b).tolist()

    s0, s1 = e.sum(axis=1).tolist(), dot(e, r)
    e *= r2
    return list(zip(s0, s1, e.sum(axis=1).tolist(), dot(e, r), dot(e, r2)))


def _gaussian_brackets(samples: np.ndarray, gamma: float, points,
                       work: np.ndarray) -> list[tuple[float, ...]]:
    """X, Y of N(mu, e^log_sigma) on the samples at each (mu, log sigma) of
    ``points``, and the gradient and Hessian of log X in (t, log sigma), with
    t = (mu' - mu) / sigma in units of this sigma: d/dt, d/dlog sigma, then
    the second partials in t t, t log sigma and log sigma log sigma.

    One pass over the samples gives the sums s_k of e_i r_i**k, k = 0..4.
    With m_k = s_k / s0, the moments of r under the weights e_i,

        d log X / dt               = gamma m1
        d log X / dlog sigma       = gamma (m2 - 1)
        d2 log X / dt2             = gamma (gamma (m2 - m1^2) - 1)
        d2 log X / dt dlog sigma   = gamma (gamma (m3 - m1 m2) - 2 m1)
        d2 log X / dlog sigma2     = gamma (gamma (m4 - m2^2) - 2 m2)

    The exponent is shifted by the smallest r^2, so the sums stay positive
    when every f(x_i) underflows.  The pass writes into ``work``, a
    (3, rows, n) array that the objective allocates once for each n, one row
    per point: at n = 10^5 a fresh one per call would cost about as much
    time as the pass itself, in page faults.  The shifts and scales of each
    row are scalar ufunc calls on that row, and the square, the exp and the
    sums run over the whole block; every row gets the bits of a one-point
    call.
    """
    r, r2, e = work[:, :len(points)]
    for row, (mu, log_sigma) in zip(r, points):
        np.subtract(samples, mu, out=row)
        row *= 1.0 / math.exp(log_sigma)
    np.multiply(r, r, out=r2)
    shifts = r2.min(axis=1).tolist()
    for row, row_r2, shift in zip(e, r2, shifts):
        np.subtract(row_r2, shift, out=row)
    e *= -0.5 * gamma
    np.exp(e, out=e)
    out = []
    for i, ((_, log_sigma), shift, sums) in enumerate(zip(points, shifts,
                                                          _weighted_sums(e, r, r2))):
        if not math.isfinite(sum(sums)) and math.isfinite(shift):
            # r^2 = inf for a sample beyond sqrt(float max) sigma: its weight
            # is 0, and 0 * inf is NaN, so the sums go over the other samples
            # (when every r^2 is inf, the NaN stays and a line search rejects
            # the point)
            near = np.isfinite(r2[i])
            row_r, row_r2 = r[i, near], r2[i, near]
            sums = _weighted_sums(np.exp(-0.5 * gamma * (row_r2 - shift))[None],
                                  row_r[None], row_r2[None])[0]
        s0, s1, s2, s3, s4 = sums
        m1, m2, m3, m4 = s1 / s0, s2 / s0, s3 / s0, s4 / s0
        log_front = -gamma * (0.5 * LOG_TWO_PI + log_sigma)
        log_x = log_front - 0.5 * gamma * shift + math.log(s0 / samples.size)
        log_y = log_front - 0.5 * math.log1p(gamma)
        out.append((math.exp(max(log_x, LOG_TINY)), math.exp(max(log_y, LOG_TINY)),
                    gamma * m1, gamma * (m2 - 1.0),
                    gamma * (gamma * (m2 - m1 * m1) - 1.0),
                    gamma * (gamma * (m3 - m1 * m2) - 2.0 * m1),
                    gamma * (gamma * (m4 - m2 * m2) - 2.0 * m2)))
    return out


def _held(log_sigma: float) -> float:
    """log sigma held in [log SIGMA_FLOOR, MAX_LOG_SIGMA]."""
    return min(max(log_sigma, math.log(SIGMA_FLOOR)), MAX_LOG_SIGMA)


def gaussian_objective():
    """The plug-in score of N(mu, sigma) over (mu, log sigma), for gamma > 0.

    ``objective(requests)`` takes a list of requests ``((samples, spec),
    (mu, log sigma))`` and returns, for each, five things: the score F of
    ``spec`` on ``samples``; its gradient and its Hessian (a pair of rows)
    in (t, log sigma), with t in units of that point's sigma, both divided
    by that point's sensitivity |X dF/dX| + |Y dF/dY|; the sensitivity; and
    sigma.  The division lets one gradient tolerance serve every location,
    scale and family; where both first partials of F are 0 the gradient is
    NaN, so a descent stops there unconverged.  Outside [SIGMA_FLOOR,
    e**MAX_LOG_SIGMA] sigma is held at the bound, and the log sigma
    component of the gradient and the log sigma row and column of the
    Hessian are 0.

    The requests share their work.  Each distinct held point of a samples
    array and a gamma is bracketed once (see :func:`_gaussian_brackets`),
    in blocks of at most BLOCK_ROWS points on at most BLOCK_SAMPLES
    samples and of one point on more, which write into one work array per
    sample count.  The points of one spec share one ``score`` call (see
    :func:`_outer`).  Each request's result is the bits of a one-point call.
    """
    works = {}  # sample count -> the work array of _gaussian_brackets

    def objective(requests):
        passes = {}  # (samples, gamma) -> (samples, gamma, {held point: its row})
        placed = []  # the pass and the row of each request
        for (samples, spec), (mu, log_sigma) in requests:
            key = (id(samples), spec.gamma)
            if key not in passes:
                passes[key] = (samples, spec.gamma, {})
            points = passes[key][2]
            placed.append((key, points.setdefault((mu, _held(log_sigma)), len(points))))
        found = {}  # (samples, gamma) -> the brackets of its points
        for key, (samples, gamma, points) in passes.items():
            work = works.get(samples.size)
            if work is None:
                rows = BLOCK_ROWS if samples.size <= BLOCK_SAMPLES else 1
                work = works[samples.size] = np.empty((3, rows, samples.size))
            held, rows = list(points), work.shape[1]
            found[key] = [bracket for first in range(0, len(held), rows)
                          for bracket in _gaussian_brackets(samples, gamma,
                                                            held[first:first + rows], work)]
        brackets = [found[key][row] for key, row in placed]
        by_spec = {}  # spec -> (spec, the indices of its requests)
        for i, ((_, spec), _) in enumerate(requests):
            by_spec.setdefault(id(spec), (spec, []))[1].append(i)
        outers = [None] * len(requests)
        for spec, members in by_spec.values():
            scored = _outer(spec, [brackets[i][0] for i in members],
                            [brackets[i][1] for i in members])
            for i, outer in zip(members, scored):
                outers[i] = outer
        out = []
        for ((_, spec), (_, log_sigma)), bracket, outer in zip(requests, brackets, outers):
            gamma, u = spec.gamma, _held(log_sigma)
            _, _, a_t, a_u, a_tt, a_tu, a_uu = bracket
            value, ex, ey, f_aa, f_ab, f_bb = outer
            # F(log X, log Y) with d log Y / dlog sigma = -gamma the only
            # nonzero partial of log Y
            d_t, h_tt = ex * a_t, f_aa * a_t * a_t + ex * a_tt
            if u != log_sigma:
                d_u = h_tu = h_uu = 0.0
            else:
                d_u = ex * a_u - gamma * ey
                h_tu = (f_aa * a_u - gamma * f_ab) * a_t + ex * a_tu
                h_uu = (f_aa * a_u - 2.0 * gamma * f_ab) * a_u + gamma * gamma * f_bb + ex * a_uu
            sensitivity = abs(ex) + abs(ey)
            norm = sensitivity or math.nan
            h_tu /= norm
            out.append((value, (d_t / norm, d_u / norm),
                        ((h_tt / norm, h_tu), (h_tu, h_uu / norm)), sensitivity, math.exp(u)))
        return out

    return objective


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


def minimize(objective: Callable, x0: tuple[float, float], max_iterations: int,
             min_unit: float) -> Minimum:
    """Safeguarded Newton descent over (mu, log sigma).

    ``objective(x)`` returns ``(value, gradient, hessian, sensitivity,
    sigma)`` as :func:`gaussian_objective` does for each point: the gradient
    as a pair and the Hessian as a pair of rows, in (t, log sigma) with t in units of
    ``sigma``, both divided by ``sensitivity``.  The descent succeeds when
    every gradient component is below GRADIENT_TOLERANCE.  Each step is the
    Newton step of the eigenvalue-floored Hessian (see :func:`_newton_step`),
    so it descends also where the curvature is negative, taken with t in
    units of max(sigma, ``min_unit``).  Where the curvature is negative the
    step depends on its units; in sigma alone, the descents of a fit on a
    heavily contaminated sample more often end in a higher minimum or on
    SIGMA_FLOOR than in units of at least the fit's initial sigma.  Armijo
    backtracking halves the step until the value falls by ARMIJO_SHARE of
    the first-order prediction, the slope times the sensitivity.  The
    descent fails after ``max_iterations`` steps, when MAX_HALVINGS halvings
    find no decrease, or when the step is not a descent direction (a NaN
    gradient or Hessian).

    A failing evaluation fails the descent with its error.  This is
    :func:`_lockstep` on one start.  A fit runs its descents in lockstep,
    where each descent takes the steps it takes here.
    """
    return _lockstep(lambda requests: [objective(requests[0][1])],
                     [(None, x0, max_iterations, min_unit)])[0]


def _descent(x0: tuple[float, float], max_iterations: int, min_unit: float):
    """The descent of :func:`minimize` as a generator: it yields each point
    to evaluate, is sent that point's evaluation, and returns its
    :class:`Minimum`."""
    x = x0
    value, grad, hess, sensitivity, sigma = yield x
    nfev, nit = 1, 0
    # written so that a NaN component never passes
    while not (abs(grad[0]) < GRADIENT_TOLERANCE and abs(grad[1]) < GRADIENT_TOLERANCE):
        # the gradient and Hessian with t in units of ``unit``
        unit = max(sigma, min_unit)
        k = unit / sigma
        (h_tt, h_tu), (_, h_uu) = hess
        g, h = (grad[0] * k, grad[1]), ((h_tt * k * k, h_tu * k), (h_tu * k, h_uu))
        step = _newton_step(g, h)
        longest = _largest(step)
        if longest > MAX_STEP:
            step = (step[0] * MAX_STEP / longest, step[1] * MAX_STEP / longest)
        slope = g[0] * step[0] + g[1] * step[1]
        if nit == max_iterations or not slope < 0.0:
            return Minimum(x, value, nfev, nit, False)
        nit += 1
        drop = ARMIJO_SHARE * slope * sensitivity
        length = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = (x[0] + length * step[0] * unit, x[1] + length * step[1])
            found = yield trial
            nfev += 1
            # strict: a step whose gain rounds away is no progress
            if found[0] < value + length * drop:
                break
            length *= 0.5
        else:
            return Minimum(x, value, nfev, nit, False)
        x, (value, grad, hess, sensitivity, sigma) = trial, found
    return Minimum(x, value, nfev, nit, True)


def _lockstep(objective: Callable, descents: list) -> list[Minimum]:
    """The descents, run together: the :class:`Minimum` of each.

    Each descent is ``(task, start, max_iterations, min_unit)``, a descent
    of :func:`minimize` from ``start`` on the objective of ``task``.
    ``objective(requests)`` evaluates a list of ``(task, point)`` requests
    (see :func:`gaussian_objective`, whose tasks are (samples, spec)
    pairs).  At each step the pending points of all running descents are
    evaluated in one call, in descent order, and each is sent back to its
    descent.  A descent so takes the steps that it takes alone.  A failing
    evaluation fails every descent with its error: an exception from the
    call propagates.
    """
    runs = [_descent(x0, max_iterations, min_unit) for _, x0, max_iterations, min_unit in descents]
    pending = {i: next(run) for i, run in enumerate(runs)}  # descent -> point
    ends = [None] * len(runs)
    while pending:
        running = list(pending)
        for i, evaluation in zip(running, objective([(descents[i][0], pending[i])
                                                     for i in running])):
            try:
                pending[i] = runs[i].send(evaluation)
            except StopIteration as stop:
                ends[i] = stop.value
                del pending[i]
    return ends


def _on_floor(sigma: float) -> bool:
    return sigma <= SIGMA_FLOOR * (1.0 + 1e-9)


def _median(ordered: np.ndarray) -> float:
    """numpy's median of a sorted array: the mean of its middle pair at even n."""
    half = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[half])
    return (float(ordered[half - 1]) + float(ordered[half])) / 2.0


def _percentile(ordered: np.ndarray, q: float) -> float:
    """numpy's ``linear`` percentile of a sorted array at the fraction q, in
    numpy's arithmetic: interpolated from the nearer of its two neighbours."""
    virtual = (ordered.size - 1) * q
    below = math.floor(virtual)
    a, b = float(ordered[below]), float(ordered[min(below + 1, ordered.size - 1)])
    t = virtual - below
    if t >= 0.5:
        return b - (b - a) * (1.0 - t)
    return a + (b - a) * t


def _quantile_subsample(ordered: np.ndarray) -> np.ndarray:
    """COARSE_SAMPLES order statistics of a sorted array: the one nearest the
    middle of each of COARSE_SAMPLES equal runs, where the i-th (from 0)
    spans [i, i + 1).  The picks of the upper half mirror those of the lower
    half, so the subsample of a x + b is that of x mapped, also for a < 0."""
    n, m = ordered.size, COARSE_SAMPLES
    lower = (2 * np.arange(m // 2) + 1) * n // (2 * m)
    return ordered[np.concatenate([lower, n - 1 - lower[::-1]])]


def _distinct(points: list) -> list:
    """The points, without those within SAME_MINIMUM of an earlier one."""
    kept = []
    for mu, u in points:
        if not any(max(abs(mu - k_mu) / math.exp(_held(k_u)), abs(u - k_u)) <= SAME_MINIMUM
                   for k_mu, k_u in kept):
            kept.append((mu, u))
    return kept


def fit(problem: EstimationProblem) -> EstimationResult:
    """Minimize the empirical score over (mu, log sigma).

    gamma = 0 returns the closed-form minimizer.  gamma > 0 runs the Newton
    descent of :func:`minimize` from the base initial point (sample median,
    scaled interquartile range) and from its START_OFFSETS perturbations, in
    lockstep (:func:`_lockstep`), and keeps the lowest score.  Above
    BLOCK_SAMPLES samples those descents run on a quantile subsample of
    COARSE_SAMPLES values (see :func:`_quantile_subsample`), and a second
    lockstep descends on all the samples from each distinct end point
    (:func:`_distinct`); the lowest of those is kept.  The fit is converged
    when the descent whose point it returns met the gradient tolerance and
    sigma did not land on SIGMA_FLOOR.  A failing evaluation fails the fit
    with its error.  This is :func:`_fit_together` on one problem.
    """
    return _fit_together([problem])[0]


def _closed_form(problem: EstimationProblem) -> EstimationResult:
    """The gamma = 0 fit: the sample mean and standard deviation."""
    samples = problem.samples
    mu_hat, sigma_hat = float(np.mean(samples)), float(np.std(samples))
    if not (math.isfinite(mu_hat) and math.isfinite(sigma_hat)):
        # the sum or the squares overflow: take both on the samples
        # divided by their largest magnitude, and scale back
        top = float(np.max(np.abs(samples)))
        mu_hat, sigma_hat = (top * float(np.mean(samples / top)),
                             top * float(np.std(samples / top)))
    sigma_hat = max(sigma_hat, SIGMA_FLOOR)
    value = empirical_score(samples, GaussianDensity(mu_hat, sigma_hat, 1.0), problem.spec)
    at_floor = _on_floor(sigma_hat)
    return EstimationResult(mu_hat, sigma_hat, value, 0, converged=not at_floor,
                            sigma_at_floor=at_floor)


# an overflow or an invalid operation gives inf or NaN, which the range
# checks and the descent's tests catch
@np.errstate(over="ignore", invalid="ignore")
def _fit_together(problems: list[EstimationProblem]) -> list[EstimationResult]:
    """The :func:`fit` of each problem, bit for bit, from one lockstep.

    gamma = 0 problems take the closed form (:func:`_closed_form`).  The
    descents of all the others run in one :func:`_lockstep`, and the second
    phases of those on more than BLOCK_SAMPLES samples in a second, so that
    at each step they share passes over the samples and score calls (see
    :func:`gaussian_objective`).  Each samples array is sorted once, for its
    default start and its subsample.  A failing evaluation fails every fit
    with its error.
    """
    results = [_closed_form(problem) if problem.spec.gamma == 0.0 else None
               for problem in problems]
    # id(samples) -> (the sorted samples, the samples the first phase descends on)
    sorted_sets = {}
    fits, first = [], []  # (index, problem, large, min_unit); the first phase's descents
    for i, problem in enumerate(problems):
        if results[i] is not None:
            continue
        samples, cfg = problem.samples, problem.config
        large = samples.size > BLOCK_SAMPLES
        if id(samples) not in sorted_sets:
            ordered = np.sort(samples)
            sorted_sets[id(samples)] = ordered, _quantile_subsample(ordered) if large else samples
        ordered, sample_set = sorted_sets[id(samples)]
        if cfg.initial is not None:
            mu0, sigma0 = cfg.initial
        else:
            mu0 = _median(ordered)
            sigma0 = (_percentile(ordered, 0.75) - _percentile(ordered, 0.25)) / 1.349
        sigma0 = max(sigma0, 1e-3)
        u0 = math.log(sigma0)
        first += [((sample_set, problem.spec), (mu0 + sigma0 * dt, u0 + du),
                   cfg.max_iterations, sigma0) for dt, du in [(0.0, 0.0)] + START_OFFSETS]
        fits.append((i, problem, large, sigma0))

    per_fit = 1 + len(START_OFFSETS)
    ends = _lockstep(gaussian_objective(), first)
    firsts = [ends[k * per_fit:(k + 1) * per_fit] for k in range(len(fits))]
    # a large fit descends on all its samples from each distinct coarse end
    second = [[((problem.samples, problem.spec), x0, problem.config.max_iterations, sigma0)
               for x0 in _distinct([end.x for end in coarse])] if large else []
              for (_, problem, large, sigma0), coarse in zip(fits, firsts)]
    fine = iter(_lockstep(gaussian_objective(), [descent for descents in second
                                                 for descent in descents]))
    for (i, _, large, _), own, descents in zip(fits, firsts, second):
        last = [next(fine) for _ in descents] if large else own
        best = min(last, key=lambda res: res.fun)
        sigma_hat = math.exp(_held(best.x[1]))
        at_floor = _on_floor(sigma_hat)
        runs = own + last if large else own
        results[i] = EstimationResult(best.x[0], sigma_hat, best.fun,
                                      sum(res.nit for res in runs),
                                      converged=best.success and not at_floor,
                                      sigma_at_floor=at_floor,
                                      optimizer_converged=best.success,
                                      evaluations=tuple(res.nfev for res in runs))
    return results


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


SWEEP_HEADER = [column.name for column in fields(SweepRow)]


def contaminated_sample(n: int, epsilon: float, outlier_location: float,
                        seed_key) -> np.ndarray:
    """(1-eps) standard normal draws plus a point mass of outliers at one location."""
    if n < 1:
        raise DomainError(f"a sample needs n >= 1, got {n}")
    _require_epsilon(epsilon)
    rng = seeded_rng(seed_key)
    n_out = int(round(epsilon * n))
    clean = rng.standard_normal(n - n_out)
    return np.concatenate([clean, np.full(n_out, float(outlier_location))])


def _require_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon <= 0.45:
        raise DomainError(f"epsilon must lie in [0, 0.45], got {epsilon}")


def contamination_sweep(epsilons, outlier_location: float,
                        specs: list[DivergenceSpec], n: int, seed: int,
                        config: OptimizerConfig | None = None) -> list[SweepRow]:
    """Fit every spec against every contamination level; bias is mu_hat - 0.

    Rows are ordered (epsilon outer, spec inner) and fully determined by the
    seed.  All the fits run together (see :func:`_fit_together`): each row
    is the :func:`fit` of its problem alone, and a failing evaluation fails
    the sweep with its error.
    """
    config = config or OptimizerConfig()
    cases, problems = [], []
    for epsilon in epsilons:
        epsilon = float(epsilon)
        _require_epsilon(epsilon)  # before the seed key, which takes finite epsilon only
        samples = contaminated_sample(n, epsilon, outlier_location,
                                      [seed, int(round(1e9 * epsilon))])
        cases += [(epsilon, spec) for spec in specs]
        problems += [EstimationProblem(samples, spec, config) for spec in specs]
    return [SweepRow(epsilon, spec.family, spec.gamma, spec.zeta, result.mu, result.sigma,
                     result.mu - 0.0, result.converged)
            for (epsilon, spec), result in zip(cases, _fit_together(problems))]
