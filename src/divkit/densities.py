"""Nonnegative densities and the bracket integrals every score consumes.

Three in-memory representations share one integral interface:

* ``DiscreteDensity`` -- masses on a finite shared support; exact sums.
* ``GridDensity``     -- values on a uniform 1-D grid; trapezoid quadrature.
* ``GaussianDensity`` -- mass * N(mu, sigma); closed forms throughout.

Each also holds a batch of densities, one per row: 2-D masses, 2-D grid
values, or arrays of Gaussian parameters.

The central object is :class:`BracketTriple`, the integrals

    X = <g f**gamma>,  Y = <f**(1+gamma)>,  Z = <g**(1+gamma)>,

which satisfy the Hoelder bound X <= Z**(1/(1+gamma)) * Y**(gamma/(1+gamma)).
At gamma = 0 the triple degenerates to the total masses X = Z = <g> and
Y = <f>, and is extended with the cross-entropy fields L = <g log(g/f)> and
cross = <g log f>.

Every integral is one numpy formula for a single density and for a batch.
numpy's ufuncs give a value the same bits alone and inside an array, so two
batches give a triple whose fields are arrays, one entry per row, each equal
bit for bit to the triple of that row alone.

Every input file is read once, whole (:func:`read_bytes`), and the kind
lookup, the header scan, the parse cache and the parse all read that one
copy of its bytes.  The readers of the grid, discrete and samples files
keep what they parse in a process next to those bytes, so changed bytes
are parsed again: the same bytes, at any path, are parsed once.  The cache
is bounded (PARSED_ENTRIES results and PARSED_BYTES of file bytes and
arrays, oldest dropped first), and a format error is never kept.  Every
result a reader returns, kept or too large to keep, has its array on an
immutable buffer, and every read of the same kept bytes shares it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, RepresentationError, SupportError

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)
EPS = float(np.finfo(float).eps)


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DiscreteDensity:
    """Nonnegative masses on a finite support shared by position.

    A 2-D array of masses is a batch: each row is a density of its own, and
    each row is validated on its own.  Batches have no file form.
    """

    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", _freeze(self.masses))
        _check_nonnegative(self.masses, "masses")

    @property
    def size(self) -> int:
        """The number of support points (of each row, for a batch)."""
        return self.masses.shape[-1]

    def total_mass(self) -> float | np.ndarray:
        return _total(self.masses, None)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative values sampled on the uniform grid x0 + dx * arange(n).

    A 2-D array of values is a batch: each row is a grid of its own, and
    each row is validated on its own.  x0 and dx are broadcast to one entry
    per row.  Batches have no file form and no pointwise values.
    """

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.x0).all():
            raise DomainError(f"grid origin must be finite, got {self.x0}")
        if not (np.isfinite(self.dx) & (self.dx > 0.0)).all():
            raise DomainError(f"grid spacing must be finite and > 0, got {self.dx}")
        object.__setattr__(self, "values", _freeze(self.values))
        _check_nonnegative(self.values, "values")
        if self.values.ndim > 1 or np.ndim(self.x0) or np.ndim(self.dx):
            _broadcast_rows(self, ("x0", "dx"), self.values.shape[:-1])

    @property
    def xs(self) -> np.ndarray:
        if self.values.ndim > 1:
            raise RepresentationError("a grid batch has no single x coordinates")
        return self.x0 + self.dx * np.arange(self.values.size)

    def total_mass(self) -> float | np.ndarray:
        return _total(self.values, self.dx)


@dataclass(frozen=True)
class GaussianDensity:
    """mass * N(mu, sigma); the total integral equals mass exactly.

    Arrays of parameters are a batch, one Gaussian per entry; the three are
    broadcast to one shape.
    """

    mu: float
    sigma: float
    mass: float = 1.0

    def __post_init__(self):
        if np.ndim(self.mu) or np.ndim(self.sigma) or np.ndim(self.mass):
            _broadcast_rows(self, ("mu", "sigma", "mass"))
        if not (np.isfinite(self.mu) & np.isfinite(self.sigma) & (self.sigma > 0.0)
                & np.isfinite(self.mass) & (self.mass > 0.0)).all():
            raise DomainError(
                f"gaussian needs finite mu, sigma > 0 and mass > 0; got "
                f"({self.mu}, {self.sigma}, {self.mass})")

    def total_mass(self) -> float | np.ndarray:
        return self.mass


def _broadcast_rows(d, names: tuple, rows: tuple | None = None) -> None:
    """Make a batch's named parameters read-only arrays of its rows' shape."""
    try:
        if rows is None:
            rows = np.broadcast(*(getattr(d, name) for name in names)).shape
        for name in names:
            param = np.empty(rows)
            param[...] = getattr(d, name)
            param.flags.writeable = False
            object.__setattr__(d, name, param)
    except ValueError:
        raise RepresentationError(f"the {', '.join(names)} of a {type(d).__name__} batch "
                                  "do not broadcast to one entry per row") from None


DensityObject = DiscreteDensity | GridDensity | GaussianDensity


@dataclass(frozen=True)
class BracketTriple:
    """The integrals X = <g f**gamma>, Y = <f**(1+gamma)>, Z = <g**(1+gamma)>.

    At gamma = 0, X = Z = <g> and Y = <f> are the total masses, and the
    triple carries L = <g log(g/f)>, which the divergences read, and
    cross = <g log f>, which the scores read.  An empirical (plug-in)
    bracket has neither Z nor L, so a divergence on it raises DomainError.
    Two batches give an array, one entry per row, in each field but gamma.
    """

    X: float
    Y: float
    Z: float | None
    gamma: float
    L: float | None = None
    cross: float | None = None

    def require_z(self) -> float:
        if self.Z is None:
            raise DomainError("this bracket has no <g**(1+gamma)> integral "
                              "(empirical plug-in); divergence unavailable")
        return self.Z

    def require_l(self) -> float:
        if self.L is None:
            raise DomainError("this bracket has no <g log(g/f)> integral "
                              "(empirical plug-in, or gamma > 0); divergence unavailable")
        return self.L

    def require_cross(self) -> float:
        if self.cross is None:
            raise DomainError("this bracket has no <g log f> integral; "
                              "build it with gamma=0")
        return self.cross


def _check_nonnegative(arr: np.ndarray, name: str) -> None:
    """Finite, nonnegative and not identically zero; a batch, row by row.

    Whole-array passes: one min of every value answers the first two for all
    rows at once, and one peak per row the third.  The peaks are reduced
    along the longer axis: across the rows of a batch taller than its rows
    are long (a contiguous transposed copy), else along each row.  min and
    max do not depend on the order of the values.
    """
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-D array or a 2-D batch of them")
    low = arr.min()
    if arr.ndim == 2 and arr.shape[1] < arr.shape[0]:
        high = np.ascontiguousarray(arr.T).max(axis=0)
    else:
        high = arr.max(axis=-1)
    # a NaN makes both NaN
    if not (-math.inf < low and (high < math.inf).all()):
        raise DomainError(f"{name} must be finite")
    if low < 0.0:
        raise DomainError(f"{name} must be nonnegative")
    if not (high > 0.0).all():
        raise DomainError(f"{name} must not be identically zero")


def _grids_match(g: GridDensity, f: GridDensity) -> bool:
    """One length, dx within 1e-12 relative, and x0 within 1e-9 relative but
    at most a millionth of a step, plus 4 ulps of the larger |x0|."""
    x0_tolerance = (np.minimum(1e-9 * np.maximum(1.0, np.abs(g.x0)), 1e-6 * g.dx)
                    + 4.0 * EPS * np.maximum(np.abs(g.x0), np.abs(f.x0)))
    return (g.values.shape == f.values.shape
            and (np.abs(g.x0 - f.x0) <= x0_tolerance).all()
            and (np.abs(g.dx - f.dx) <= 1e-12 * g.dx).all())


def _array(d: DiscreteDensity | GridDensity) -> tuple[np.ndarray, float | None]:
    """The values of an array density and its trapezoid spacing (None: a plain sum)."""
    return (d.values, d.dx) if isinstance(d, GridDensity) else (d.masses, None)


def _batch_shape(d: DensityObject) -> tuple:
    """The shape of a batch's rows; () for a single density."""
    if isinstance(d, GaussianDensity):
        return np.shape(d.mu)
    return _array(d)[0].shape[:-1]


def _total(values: np.ndarray, dx) -> float | np.ndarray:
    """The sum over the last axis, or the trapezoid rule on a grid's values."""
    total = values.sum(axis=-1)
    if dx is not None:
        total = dx * (total - 0.5 * (values[..., 0] + values[..., -1]))
    return total if total.ndim else float(total)


def _power_integral(d: DensityObject, gamma: float):
    """<d**(1+gamma)>, unchecked (see _in_range).

    A Gaussian's is mass**(1+gamma) (2 pi sigma^2)**(-gamma/2) / sqrt(1+gamma),
    with sigma**(-gamma) taken on its own, since sigma**2 underflows to 0 for
    sigma below ~1e-154.
    """
    if isinstance(d, GaussianDensity):
        return (np.power(d.mass, 1.0 + gamma) * np.power(TWO_PI, -gamma / 2.0)
                * np.power(d.sigma, -gamma) / math.sqrt(1.0 + gamma))
    values, dx = _array(d)
    return _total(values ** (1.0 + gamma), dx)


def _integrals(g: DensityObject, f: DensityObject, gamma: float) -> tuple:
    """X, Y and Z of two densities of one representation, unchecked.

    Two Gaussians' X completes the square in the exponent, with
    s = sqrt(gamma g.sigma^2 + f.sigma^2) formed by hypot, which neither
    underflows nor overflows.
    """
    if isinstance(g, GaussianDensity):
        s = np.hypot(math.sqrt(gamma) * g.sigma, f.sigma)
        q = (g.mu - f.mu) / s
        x = (g.mass * np.power(f.mass, gamma) * np.power(TWO_PI, -gamma / 2.0)
             * np.power(f.sigma, -gamma) * (f.sigma / s) * np.exp(-0.5 * gamma * q * q))
    else:
        (gv, dx), (fv, _) = _array(g), _array(f)
        x = _total(gv * fv**gamma, dx)
    return x, _power_integral(f, gamma), _power_integral(g, gamma)


def _in_range(gamma: float, values: tuple) -> tuple:
    """The integrals, floats for a single density, once all are finite (in
    every row of a batch); else DomainError.  Callers silence numpy's warnings."""
    if np.isfinite(values).all():  # a batch's integrals share its shape, so they stack
        return values if np.ndim(values[0]) else tuple(map(float, values))
    raise DomainError(f"bracket integrals leave float range at gamma={gamma}")


def _log_ratio(a, b, where=True):
    """log(a/b) for a, b > 0 where ``where`` holds, from their binary mantissas
    and exponents: no ratio leaves float range, and no two large logs cancel
    as log a - log b does at a ~ b ~ 1e-300.  Equal exponents give log(a/b)."""
    (mant_a, exp_a), (mant_b, exp_b) = np.frexp(a), np.frexp(b)
    log_mant = np.log(mant_a / mant_b, out=np.zeros_like(mant_a), where=where)
    return log_mant + (exp_a - exp_b) * math.log(2.0)


def _log_integrals(g: DensityObject, f: DensityObject) -> tuple:
    """L = <g log(g/f)> and cross = <g log f>, the gamma = 0 fields, unchecked.

    cross is <g log g> - L; where g > 0 meets f = 0 this raises SupportError.
    Every ratio of densities, masses or scales goes through _log_ratio.
    """
    if isinstance(g, GaussianDensity):
        ll = g.mass * (_log_ratio(g.mass, f.mass)
                       + (_log_ratio(f.sigma, g.sigma)
                          + 0.5 * (np.square(g.sigma / f.sigma)
                                   + np.square((g.mu - f.mu) / f.sigma)) - 0.5))
        entropy = 0.5 * math.log(TWO_PI * math.e) + np.log(g.sigma)
        return ll, (g.mass * np.log(g.mass) - g.mass * entropy) - ll
    (gv, dx), (fv, _) = _array(g), _array(f)
    support = gv > 0.0
    if np.any(support & (fv == 0.0)):
        raise SupportError("g log(g/f) undefined: g > 0 where f = 0")
    # off the support, g = 0 zeroes each term
    ll = _total(gv * _log_ratio(gv, fv, support), dx)
    return ll, _total(gv * np.log(gv, out=np.zeros_like(gv), where=support), dx) - ll


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # inf and nan fail _in_range
def bracket_integrals(g: DensityObject, f: DensityObject, gamma: float) -> BracketTriple:
    """Compute the bracket triple of (g, f) at the given power parameter.

    g and f must share a representation class (and, for grids, the grid
    itself).  gamma = 0 additionally fills the cross-entropy fields and
    raises :class:`SupportError` where g > 0 meets f = 0.  An integral out
    of float range raises :class:`DomainError`.  Two batches of one shape
    give the brackets of their rows, as arrays.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if type(g) is not type(f):
        raise RepresentationError(
            f"g and f must share a representation, got {type(g).__name__} "
            f"and {type(f).__name__}")
    if isinstance(g, DiscreteDensity) and g.size != f.size:
        raise RepresentationError(f"discrete supports differ: {g.size} vs {f.size} points")
    if _batch_shape(g) != _batch_shape(f):
        raise RepresentationError(f"batches differ: rows {_batch_shape(g)} vs {_batch_shape(f)}")
    if isinstance(g, GridDensity) and not _grids_match(g, f):
        raise RepresentationError("grid densities must share x0, dx and length")

    xyz = _in_range(gamma, _integrals(g, f, gamma))
    if gamma > 0.0:
        return BracketTriple(*xyz, gamma)
    return BracketTriple(*xyz, 0.0, *_in_range(0.0, _log_integrals(g, f)))


def affine_transform(f: DensityObject, sigma, mu) -> DensityObject:
    """The mass-preserving image of f under x -> sigma x + mu.

    Returns |sigma| f(sigma x + mu).  Gaussians map to Gaussians in closed
    form; grids are remapped onto the transformed coordinates (same samples,
    rescaled spacing and values), which preserves the trapezoid mass exactly.
    sigma and mu may be arrays, one entry per row of a batch; the sigmas of
    a grid batch must share one sign.
    """
    if np.equal(sigma, 0.0).any():
        raise DomainError("singular transform: sigma = 0")
    if isinstance(f, GaussianDensity):
        return GaussianDensity((f.mu - mu) / sigma, f.sigma / abs(sigma), f.mass)
    if isinstance(f, GridDensity):
        with np.errstate(over="ignore"):  # an infinite value fails the grid's own check
            scaled = np.abs(sigma)[..., np.newaxis] * f.values
        if np.greater(sigma, 0.0).all():
            return GridDensity((f.x0 - mu) / sigma, f.dx / sigma, scaled)
        if np.greater(sigma, 0.0).any():
            raise DomainError("a grid batch needs sigmas of one sign")
        x_last = f.x0 + f.dx * (f.values.shape[-1] - 1)
        return GridDensity((x_last - mu) / sigma, f.dx / abs(sigma), scaled[..., ::-1])
    raise RepresentationError("affine transform needs a grid or gaussian density")


def scale_values(f: DensityObject, factor) -> DensityObject:
    """Pointwise rescaling f -> factor * f (total mass scales by factor).

    factor may be an array, one entry per row of a batch.
    """
    if not np.greater(factor, 0.0).all():
        raise DomainError(f"scale factor must be > 0, got {factor}")
    if isinstance(f, GaussianDensity):
        return replace(f, mass=factor * f.mass)
    with np.errstate(over="ignore"):  # an infinite value fails the density's own check
        scaled = np.asarray(factor)[..., np.newaxis] * _array(f)[0]
    if isinstance(f, GridDensity):
        return GridDensity(f.x0, f.dx, scaled)
    return DiscreteDensity(scaled)


def density_value(f: DensityObject, x) -> np.ndarray | float:
    """Pointwise evaluation; grids interpolate linearly and vanish outside.

    A Gaussian batch gives the values at x of each of its Gaussians, the
    batch's axes first; a grid batch raises RepresentationError.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(f, GaussianDensity):
        rows = (..., *(np.newaxis,) * x.ndim)  # a batch's parameters against every x
        mu, sigma, mass = (np.asarray(p)[rows] for p in (f.mu, f.sigma, f.mass))
        # a squared distance of inf gives exp(-inf) = 0, a value past float range inf
        with np.errstate(over="ignore"):
            r2 = ((x - mu) / sigma) ** 2
            out = mass * np.exp(-0.5 * r2) / (sigma * SQRT_TWO_PI)
    elif isinstance(f, GridDensity):
        out = np.interp(x, f.xs, f.values, left=0.0, right=0.0)
    else:
        raise RepresentationError("discrete densities are not pointwise evaluable")
    return out if out.ndim else float(out)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # inf and nan fail _in_range
def empirical_brackets(samples, f: DensityObject, gamma: float) -> BracketTriple:
    """Bracket triple of the plug-in measure: X = mean f(x_i)**gamma.

    Y comes from the model exactly (or by quadrature).  The plug-in measure
    has no power or log-ratio integral of its own, so Z and L are None and a
    divergence on this bracket raises DomainError.  At gamma = 0, X = 1 is
    the plug-in mass and cross = mean log f(x_i), which is -inf where some
    f(x_i) = 0.  The model is a single density, not a batch.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("empirical brackets need a nonempty sample list")
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"empirical brackets require finite gamma >= 0, got {gamma}")
    if _batch_shape(f):
        raise RepresentationError("empirical brackets take a single model density")
    values = np.asarray(density_value(f, samples), dtype=float)
    # pow(v, 0) is 1 for every v, NaN and inf too: X = 1 at gamma = 0 without a pass
    x = np.mean(values**gamma) if gamma > 0.0 else 1.0
    x, y = _in_range(gamma, (x, _power_integral(f, gamma)))
    if gamma > 0.0:
        return BracketTriple(x, y, None, gamma)
    return BracketTriple(x, y, None, 0.0, cross=float(np.mean(np.log(values))))


def gaussian_grid(d: GaussianDensity, points: int = 4096, x_min: float | None = None,
                  x_max: float | None = None) -> GridDensity:
    """Render a single Gaussian on a uniform grid (default: +/- 12 sigma)."""
    if _batch_shape(d):
        raise RepresentationError("gaussian_grid renders a single Gaussian, not a batch")
    if points < 2:
        raise DomainError(f"a grid needs at least 2 points, got {points}")
    lo = d.mu - 12.0 * d.sigma if x_min is None else x_min
    hi = d.mu + 12.0 * d.sigma if x_max is None else x_max
    xs = np.linspace(lo, hi, points)
    return GridDensity(lo, float(xs[1] - xs[0]), np.asarray(density_value(d, xs)))


def seeded_rng(seed) -> np.random.Generator:
    """numpy's generator for a seed (a nonnegative integer or a list of them)."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise DomainError(f"seeds must be nonnegative integers, got {seed!r}") from None


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def read_grid_csv(path, content: bytes | None = None) -> GridDensity:
    """Grid density file: header ``x,value``, finite, equally spaced increasing x.

    Each step may differ from the mean step dx by min(1e-9 max(1, |dx|),
    1e-6 |dx|), a millionth of a step at most, plus 4 ulps of the largest |x|.
    ``content`` is the file's bytes, when the caller has read them
    (:func:`read_bytes`); the file is then not read again.
    """
    return _parse_once(path, _parse_grid, content=content)


def read_discrete_csv(path, content: bytes | None = None) -> DiscreteDensity:
    """Discrete density file: header ``index,mass`` with indices 0..n-1.

    ``content`` is as for :func:`read_grid_csv`.
    """
    return _parse_once(path, _parse_discrete, content=content)


def read_samples_csv(path) -> np.ndarray:
    """Samples file: single column ``x``.  The array is read-only and shared by
    every read of the same bytes; it used to be a new writable copy per call."""
    return _parse_once(path, _parse_samples)


def _parse_grid(path, content) -> GridDensity:
    xs, values = read_columns(path, ("x", "value"), content)
    if xs.size < 2:
        raise RepresentationError(f"{path!r}: a grid needs at least two rows")
    if not np.isfinite(xs).all():
        raise RepresentationError(f"{path!r}: x must be finite")
    steps = np.diff(xs)
    if np.any(steps <= 0.0):
        raise RepresentationError(f"{path!r}: x must be strictly increasing")
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    tolerance = (min(1e-9 * max(1.0, dx), 1e-6 * dx)
                 + 4.0 * EPS * max(abs(xs[0]), abs(xs[-1])))
    if np.any(np.abs(steps - dx) > tolerance):
        raise RepresentationError(f"{path!r}: x must be equally spaced")
    return GridDensity(float(xs[0]), float(dx), values)


def _parse_discrete(path, content) -> DiscreteDensity:
    idx, masses = read_columns(path, ("index", "mass"), content)
    order = np.argsort(idx)
    idx = idx[order]
    if not np.array_equal(idx, np.arange(idx.size)):
        raise RepresentationError(f"{path!r}: indices must be 0..n-1")
    return DiscreteDensity(masses[order])


def _parse_samples(path, content) -> np.ndarray:
    (samples,) = read_columns(path, ("x",), content)
    return samples


# What the parses above returned, oldest first: (parser, the file's bytes,
# result) for at most PARSED_ENTRIES files, holding at most PARSED_BYTES of
# file bytes and arrays together.  _parse_once swaps in a new list under
# _lock, so a lookup scans a snapshot and takes no lock.
PARSED_ENTRIES = 16
PARSED_BYTES = 8 << 20
_parsed: list = []
_lock = threading.Lock()


def _parse_once(path, parse, content=None):
    """parse(path, content) sealed (:func:`_sealed`), or the kept result of
    parse on the same bytes.

    ``content`` is the file's bytes, read here (:func:`read_bytes`) unless
    the caller has read them, and is compared with the bytes of each kept
    entry of ``parse``; equal bytes return that entry's result, and only a
    file of the same size costs a comparison.  Otherwise the bytes are
    parsed (:func:`read_columns`), and the result is kept under them,
    dropping the oldest entries until the bounds hold.  A parse that raises
    keeps nothing, nor does one whose bytes and arrays together exceed
    PARSED_BYTES.  Every read of the same kept bytes, the first included,
    shares one result.
    """
    global _parsed
    if content is None:
        content = read_bytes(path)
    for kept_parse, kept_content, kept in _parsed:
        if kept_parse is parse and kept_content == content:
            return kept
    result = _sealed(parse(path, content))
    if len(content) + _result_array(result).nbytes <= PARSED_BYTES:
        with _lock:
            entries = [*_parsed, (parse, content, result)]
            while (len(entries) > PARSED_ENTRIES
                   or sum(len(kept_content) + _result_array(kept).nbytes
                          for _, kept_content, kept in entries) > PARSED_BYTES):
                del entries[0]
            _parsed = entries
    return result


def read_bytes(path) -> bytes:
    """A file's bytes, read whole in one ``read()``: the one read of every
    input file, which a pipe allows only once."""
    with open(path, "rb") as handle:
        return handle.read()


def _holds(path, content: bytes) -> bool:
    """Whether a file still holds ``content``.  It is compared in 64 KiB
    blocks: a second whole copy would take fresh pages on every cold read."""
    with open(path, "rb") as handle:
        for start in range(0, len(content), 1 << 16):
            if content[start:start + (1 << 16)] != handle.read(1 << 16):
                return False
        return not handle.read(1)


def _sealed(result):
    """A parse result with its array moved onto an immutable bytes buffer,
    whose writeable flag cannot be set again: samples are that array, and a
    density is sealed in place."""
    arr = _result_array(result)
    sealed = np.frombuffer(arr.tobytes(), arr.dtype).reshape(arr.shape)
    if arr is result:
        return sealed
    object.__setattr__(result, "values" if isinstance(result, GridDensity) else "masses", sealed)
    return result


def _result_array(result) -> np.ndarray:
    """A parse result's array: its values, masses or samples."""
    return result if isinstance(result, np.ndarray) else _array(result)[0]


# utf-8-sig, as _text decodes: a byte-order mark is never part of a cell
_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2,
            "encoding": "utf-8-sig"}


def read_columns(path, names, content: bytes) -> tuple[np.ndarray, ...]:
    """The numeric columns of a CSV file, one array per name in ``names``.

    Rows before the first data row are headers; a row is data when its first
    cell, stripped of quotes and whitespace, is a number.  Blank rows are
    skipped.  A header row with more cells than ``names``, a data row with a
    non-numeric or empty cell, a column count other than ``len(names)``, or a
    file without data rows raises :class:`RepresentationError`.  The text is
    UTF-8, a leading byte-order mark dropped (:func:`_text`); a byte that does
    not decode reads as its ``\\xNN`` escape, a non-numeric cell.

    ``content`` is the file's bytes, as the caller read them
    (:func:`read_bytes`).  One Python pass over them reads the header rows.
    A regular file's data rows go to numpy's chunked C reader, given the
    path, which is faster than any in-memory source; the rows are kept only
    when the file still holds ``content`` (:func:`_holds`), so that they are
    the rows of those bytes.  Otherwise the data rows are read from
    ``content``, row by row through Python: for a file rewritten since,
    for a file that is not a regular file (a pipe can be read only once),
    and for a file with whitespace-only rows or a format error, since
    numpy's reader skips empty rows but not whitespace-only ones.  Python
    skips the former and names the file line of the latter.
    """
    expected = ",".join(names)
    with _text(content) as handle:
        for line, row in _rows(handle):
            if _is_data(row):
                break
            if len(row.split(",")) > len(names):
                raise RepresentationError(
                    f"{path!r}: expected columns {expected}, got header {row.strip()!r}")
        else:  # checked here, since loadtxt warns on a file without data
            raise RepresentationError(f"{path!r}: expected columns {expected}, got no data row")
    data = None
    if os.path.isfile(path):
        with contextlib.suppress(ValueError):
            data = np.loadtxt(path, skiprows=line - 1, **_LOADTXT)
        if data is not None and not _holds(path, content):
            data = None
    if data is None:
        lines = []  # the file line of each data row, appended as numpy takes the row
        with _text(content) as handle:
            rows = (lines.append(number) or row for number, row in _rows(handle) if number >= line)
            try:
                data = np.loadtxt(rows, **_LOADTXT)
            except ValueError as err:
                raise RepresentationError(f"{path!r}: {_at_file_line(lines, err)}") from None
    if data.shape[1] != len(names):
        raise RepresentationError(
            f"{path!r}: expected columns {expected}, got {data.shape[1]} per row")
    return tuple(data.T)


def density_kind(content: bytes) -> str | None:
    """The kind a CSV file's header names: ``x`` (grid), ``index`` (discrete) or None.

    That is the first cell, stripped of quotes and whitespace and lowercased, of the
    first header row of two or more cells that names a kind, in the file's
    bytes (:func:`read_bytes`).
    """
    with _text(content) as handle:
        for _, row in _rows(handle):
            if _is_data(row):
                break
            if "," in row and (kind := _first_cell(row).lower()) in ("x", "index"):
                return kind
    return None


def _text(content: bytes):
    """A file's bytes as UTF-8 text, without a leading byte-order mark; a
    byte that does not decode reads as its ``\\xNN`` escape."""
    return io.TextIOWrapper(io.BytesIO(content), encoding="utf-8-sig",
                            errors="backslashreplace")


def _rows(handle):
    """Each non-blank row of an open text file, with its 1-based file line."""
    return ((number, row) for number, row in enumerate(handle, 1) if row.strip())


def _first_cell(row: str) -> str:
    return row.split(",", 1)[0].strip().strip('"')


def _is_data(row: str) -> bool:
    """A data row: its first cell, stripped of quotes and whitespace, is a number."""
    try:
        float(_first_cell(row))
    except ValueError:
        return False
    return True


# numpy counts the data rows it was given, from 0 in a bad-cell message and
# from 1 in a column-count one; the rest of its message is dropped
_NUMPY_ROW = re.compile(r" at row (\d+)(, column \d+)?.*", re.DOTALL)


def _at_file_line(lines: list, err: ValueError) -> str:
    """numpy's loadtxt message, its data row given as that row's file line in ``lines``."""
    def at_line(match):
        row = int(match[1]) - (match[2] is None)
        return f" at line {lines[row]}{match[2] or ''}" if row < len(lines) else match[0]
    return _NUMPY_ROW.sub(at_line, str(err), count=1)


def write_density_csv(path, d: DensityObject) -> None:
    """Write a single grid or discrete density in its standard CSV format."""
    if isinstance(d, GridDensity) and d.values.ndim == 1:
        rows = [("x", "value"), *((repr(float(x)), repr(float(v)))
                                  for x, v in zip(d.xs, d.values))]
    elif isinstance(d, DiscreteDensity) and d.masses.ndim == 1:
        rows = [("index", "mass"), *((i, repr(float(m))) for i, m in enumerate(d.masses))]
    else:
        raise RepresentationError("only single grid and discrete densities have a file form")
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
