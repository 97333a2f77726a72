"""Nonnegative densities and the bracket integrals every score consumes.

Three in-memory representations share one integral interface:

* ``DiscreteDensity`` -- masses on a finite shared support; exact sums.  A
  (trials, atoms) array of masses is a batch of densities, one per row.
* ``GridDensity``     -- values on a uniform 1-D grid; trapezoid quadrature.
* ``GaussianDensity`` -- mass * N(mu, sigma); closed forms throughout.

The central object is :class:`BracketTriple`, the integrals

    X = <g f**gamma>,  Y = <f**(1+gamma)>,  Z = <g**(1+gamma)>,

which satisfy the Hoelder bound X <= Z**(1/(1+gamma)) * Y**(gamma/(1+gamma)).
At gamma = 0 the triple degenerates to the total masses X = Z = <g> and
Y = <f>, and is extended with the cross-entropy fields L = <g log(g/f)> and
cross = <g log f>.

Two batches of discrete densities give a triple whose fields are arrays, one
entry per row, each equal bit for bit to the triple of that row alone.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, RepresentationError, SupportError

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)


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
        _check_nonnegative(self.masses, "masses", batch=True)

    @property
    def size(self) -> int:
        """The number of support points (of each row, for a batch)."""
        return self.masses.shape[-1]

    def total_mass(self) -> float | np.ndarray:
        return _total(self.masses, None)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative values sampled on the uniform grid x0 + dx * arange(n)."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        if not self.dx > 0.0:
            raise DomainError(f"grid spacing must be > 0, got {self.dx}")
        object.__setattr__(self, "values", _freeze(self.values))
        _check_nonnegative(self.values, "values")

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    def total_mass(self) -> float:
        return _trapezoid(self.values, self.dx)


@dataclass(frozen=True)
class GaussianDensity:
    """mass * N(mu, sigma); the total integral equals mass exactly."""

    mu: float
    sigma: float
    mass: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.sigma > 0.0 and self.mass > 0.0):
            raise DomainError(
                f"gaussian needs finite mu, sigma > 0, mass > 0; got "
                f"({self.mu}, {self.sigma}, {self.mass})")

    def total_mass(self) -> float:
        return self.mass


DensityObject = DiscreteDensity | GridDensity | GaussianDensity


@dataclass(frozen=True)
class BracketTriple:
    """The integrals X = <g f**gamma>, Y = <f**(1+gamma)>, Z = <g**(1+gamma)>.

    At gamma = 0, X = Z = <g> and Y = <f> are the total masses, and the
    triple carries L = <g log(g/f)>, which the divergences read, and
    cross = <g log f>, which the scores read.  An empirical (plug-in)
    bracket has neither Z nor L, so a divergence on it raises DomainError.
    The brackets of two batches of discrete densities hold one array entry
    per row in each field but gamma.
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


def _check_nonnegative(arr: np.ndarray, name: str, batch: bool = False) -> None:
    """Finite, nonnegative and not identically zero; a batch, row by row."""
    if arr.ndim not in ((1, 2) if batch else (1,)) or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-D array"
                          + (" or a 2-D batch of them" if batch else ""))
    low, high = arr.min(axis=-1), arr.max(axis=-1)
    # a NaN makes both NaN
    if not ((-math.inf < low) & (low <= high) & (high < math.inf)).all():
        raise DomainError(f"{name} must be finite")
    if (low < 0.0).any():
        raise DomainError(f"{name} must be nonnegative")
    if not (high > 0.0).all():
        raise DomainError(f"{name} must not be identically zero")


def _trapezoid(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def _grids_match(g: GridDensity, f: GridDensity) -> bool:
    return (g.values.size == f.values.size
            and abs(g.x0 - f.x0) <= 1e-9 * max(1.0, abs(g.x0))
            and abs(g.dx - f.dx) <= 1e-12 * g.dx)


def _gaussian_power_integral(d: GaussianDensity, gamma: float) -> float:
    """<d**(1+gamma)> = mass**(1+gamma) (2 pi sigma^2)**(-gamma/2) / sqrt(1+gamma).

    sigma**(-gamma) is taken on its own, since sigma**2 underflows to 0 for
    sigma below ~1e-154.
    """
    return float(d.mass ** (1.0 + gamma)
                 * TWO_PI ** (-gamma / 2.0) * d.sigma ** (-gamma)
                 / math.sqrt(1.0 + gamma))


def _gaussian_cross_integral(g: GaussianDensity, f: GaussianDensity, gamma: float) -> float:
    """<g f**gamma> for two Gaussians, by completing the square in the exponent.

    s = sqrt(gamma g.sigma^2 + f.sigma^2) is formed with hypot, which neither
    underflows nor overflows.
    """
    s = math.hypot(math.sqrt(gamma) * g.sigma, f.sigma)
    q = (g.mu - f.mu) / s
    return float(g.mass * f.mass**gamma
                 * TWO_PI ** (-gamma / 2.0) * f.sigma ** (-gamma)
                 * (f.sigma / s)
                 * math.exp(-0.5 * gamma * q * q))


def _array(d: DiscreteDensity | GridDensity) -> tuple[np.ndarray, float | None]:
    """The values of an array density and its trapezoid spacing (None: a plain sum)."""
    return (d.values, d.dx) if isinstance(d, GridDensity) else (d.masses, None)


def _total(values: np.ndarray, dx: float | None) -> float | np.ndarray:
    """The sum over the last axis, or the trapezoid rule on a grid's values."""
    if dx is not None:
        return _trapezoid(values, dx)
    total = values.sum(axis=-1)
    return total if total.ndim else float(total)


def _power_integral(d: DensityObject, gamma: float) -> float:
    """<d**(1+gamma)>, unchecked (see _in_range)."""
    if isinstance(d, GaussianDensity):
        return _gaussian_power_integral(d, gamma)
    values, dx = _array(d)
    return _total(values ** (1.0 + gamma), dx)


def _integrals(g: DensityObject, f: DensityObject, gamma: float) -> tuple:
    """X, Y and Z of two densities of one representation, unchecked."""
    if isinstance(g, GaussianDensity):
        x = _gaussian_cross_integral(g, f, gamma)
    else:
        (gv, dx), (fv, _) = _array(g), _array(f)
        x = _total(gv * fv**gamma, dx)
    return x, _power_integral(f, gamma), _power_integral(g, gamma)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # inf and nan are caught below
def _in_range(gamma: float, *forms) -> tuple:
    """The integrals that the first form to stay in float range returns.

    A form fails when it raises in Python arithmetic (OverflowError,
    ZeroDivisionError, a math domain error) or returns inf or nan, whether
    from an overflow in numpy or silently from a Python product; for a
    batch, when any row does.  When every form fails, the integrals leave
    float range and DomainError is raised.  Values the first form computes
    in range keep its formula.
    """
    for form in forms:
        try:
            values = form()
        except (ArithmeticError, ValueError):
            continue
        if np.isfinite(values).all():
            return values
    raise DomainError(f"bracket integrals leave float range at gamma={gamma}")


def _log_integrals(g: DensityObject, f: DensityObject) -> tuple:
    """L = <g log(g/f)> and cross = <g log f>, the gamma = 0 fields.

    cross is <g log g> - L; where g > 0 meets f = 0 this raises SupportError.
    Where g/f, a mass ratio or sigma**2 leaves float range, the logs are
    taken of each factor and subtracted instead.
    """
    if isinstance(g, GaussianDensity):
        mg, mf, delta = g.mass, f.mass, g.mu - f.mu

        def gaussian(log_mass_ratio, kl, entropy):
            ll = mg * (log_mass_ratio + kl)
            return ll, (mg * math.log(mg) - mg * entropy) - ll

        return _in_range(
            0.0,
            lambda: gaussian(math.log(mg / mf),
                             math.log(f.sigma / g.sigma)
                             + (g.sigma**2 + delta**2) / (2.0 * f.sigma**2) - 0.5,
                             0.5 * math.log(2.0 * math.pi * math.e * g.sigma**2)),
            lambda: gaussian(math.log(mg) - math.log(mf),
                             math.log(f.sigma) - math.log(g.sigma)
                             + 0.5 * ((g.sigma / f.sigma) ** 2 + (delta / f.sigma) ** 2) - 0.5,
                             0.5 * math.log(2.0 * math.pi * math.e) + math.log(g.sigma)))
    (gv, dx), (fv, _) = _array(g), _array(f)
    support = gv > 0.0
    if np.any(support & (fv == 0.0)):
        raise SupportError("g log(g/f) undefined: g > 0 where f = 0")
    gs, fs = gv[support], fv[support]

    def array(log_ratio):
        ratio_term, g_log_g = np.zeros_like(gv), np.zeros_like(gv)
        ratio_term[support] = gs * log_ratio
        g_log_g[support] = gs * np.log(gs)
        ll = _total(ratio_term, dx)
        return ll, _total(g_log_g, dx) - ll

    return _in_range(0.0, lambda: array(np.log(gs / fs)),
                     lambda: array(np.log(gs) - np.log(fs)))


def bracket_integrals(g: DensityObject, f: DensityObject, gamma: float) -> BracketTriple:
    """Compute the bracket triple of (g, f) at the given power parameter.

    g and f must share a representation class (and, for grids, the grid
    itself).  gamma = 0 additionally fills the cross-entropy fields and
    raises :class:`SupportError` where g > 0 meets f = 0.  An integral out
    of float range raises :class:`DomainError`.  Two discrete batches of one
    shape give the brackets of their rows, as arrays.
    """
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if type(g) is not type(f):
        raise RepresentationError(
            f"g and f must share a representation, got {type(g).__name__} "
            f"and {type(f).__name__}")
    if isinstance(g, DiscreteDensity) and g.size != f.size:
        raise RepresentationError(f"discrete supports differ: {g.size} vs {f.size} points")
    if isinstance(g, DiscreteDensity) and g.masses.shape != f.masses.shape:
        raise RepresentationError(f"discrete batches differ: masses of shape "
                                  f"{g.masses.shape} vs {f.masses.shape}")
    if isinstance(g, GridDensity) and not _grids_match(g, f):
        raise RepresentationError("grid densities must share x0, dx and length")

    xyz = _in_range(gamma, lambda: _integrals(g, f, gamma))
    if gamma > 0.0:
        return BracketTriple(*xyz, gamma)
    return BracketTriple(*xyz, 0.0, *_log_integrals(g, f))


def affine_transform(f: DensityObject, sigma: float, mu: float) -> DensityObject:
    """The mass-preserving image of f under x -> sigma x + mu.

    Returns |sigma| f(sigma x + mu).  Gaussians map to Gaussians in closed
    form; grids are remapped onto the transformed coordinates (same samples,
    rescaled spacing and values), which preserves the trapezoid mass exactly.
    """
    if sigma == 0.0:
        raise DomainError("singular transform: sigma = 0")
    if isinstance(f, GaussianDensity):
        return GaussianDensity((f.mu - mu) / sigma, f.sigma / abs(sigma), f.mass)
    if isinstance(f, GridDensity):
        with np.errstate(over="ignore"):  # an infinite value fails the grid's own check
            scaled = abs(sigma) * f.values
        if sigma > 0.0:
            return GridDensity((f.x0 - mu) / sigma, f.dx / sigma, scaled)
        x_last = f.x0 + f.dx * (f.values.size - 1)
        return GridDensity((x_last - mu) / sigma, f.dx / abs(sigma), scaled[::-1])
    raise RepresentationError("affine transform needs a grid or gaussian density")


def scale_values(f: DensityObject, factor: float) -> DensityObject:
    """Pointwise rescaling f -> factor * f (total mass scales by factor)."""
    if not factor > 0.0:
        raise DomainError(f"scale factor must be > 0, got {factor}")
    if isinstance(f, GaussianDensity):
        return replace(f, mass=factor * f.mass)
    with np.errstate(over="ignore"):  # an infinite value fails the density's own check
        scaled = factor * (f.values if isinstance(f, GridDensity) else f.masses)
    if isinstance(f, GridDensity):
        return GridDensity(f.x0, f.dx, scaled)
    return DiscreteDensity(scaled)


def density_value(f: DensityObject, x) -> np.ndarray | float:
    """Pointwise evaluation; grids interpolate linearly and vanish outside."""
    if isinstance(f, GaussianDensity):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # a squared distance of inf gives exp(-inf) = 0
            r2 = ((x - f.mu) / f.sigma) ** 2
        out = f.mass * np.exp(-0.5 * r2) / (f.sigma * SQRT_TWO_PI)
        return out if out.ndim else float(out)
    if isinstance(f, GridDensity):
        out = np.interp(np.asarray(x, dtype=float), f.xs, f.values, left=0.0, right=0.0)
        return out if out.ndim else float(out)
    raise RepresentationError("discrete densities are not pointwise evaluable")


def empirical_brackets(samples, f: DensityObject, gamma: float) -> BracketTriple:
    """Bracket triple of the plug-in measure: X = mean f(x_i)**gamma.

    Y comes from the model exactly (or by quadrature).  The plug-in measure
    has no power or log-ratio integral of its own, so Z and L are None and a
    divergence on this bracket raises DomainError.  At gamma = 0, X = 1 is
    the plug-in mass and cross = mean log f(x_i), which is -inf where some
    f(x_i) = 0.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("empirical brackets need a nonempty sample list")
    if not 0.0 <= gamma < math.inf:
        raise DomainError(f"empirical brackets require finite gamma >= 0, got {gamma}")
    values = np.asarray(density_value(f, samples), dtype=float)
    x, y = _in_range(gamma, lambda: (float(np.mean(values**gamma)), _power_integral(f, gamma)))
    if gamma > 0.0:
        return BracketTriple(x, y, None, gamma)
    with np.errstate(divide="ignore"):
        return BracketTriple(x, y, None, 0.0, cross=float(np.mean(np.log(values))))


def gaussian_grid(d: GaussianDensity, half_width_sigmas: float = 12.0,
                  points: int = 4096, x_min: float | None = None,
                  x_max: float | None = None) -> GridDensity:
    """Render a Gaussian on a uniform grid (default: +/- 12 sigma)."""
    lo = d.mu - half_width_sigmas * d.sigma if x_min is None else x_min
    hi = d.mu + half_width_sigmas * d.sigma if x_max is None else x_max
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


def read_grid_csv(path) -> GridDensity:
    """Grid density file: header ``x,value``, equally spaced increasing x."""
    xs, values = read_columns(path, ("x", "value"))
    if xs.size < 2:
        raise RepresentationError(f"{path!r}: a grid needs at least two rows")
    steps = np.diff(xs)
    if np.any(steps <= 0.0):
        raise RepresentationError(f"{path!r}: x must be strictly increasing")
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    if np.any(np.abs(steps - dx) > 1e-9 * max(1.0, abs(dx))):
        raise RepresentationError(f"{path!r}: x must be equally spaced")
    return GridDensity(float(xs[0]), float(dx), values)


def read_discrete_csv(path) -> DiscreteDensity:
    """Discrete density file: header ``index,mass`` with indices 0..n-1."""
    idx, masses = read_columns(path, ("index", "mass"))
    order = np.argsort(idx)
    idx = idx[order]
    if not np.array_equal(idx, np.arange(idx.size)):
        raise RepresentationError(f"{path!r}: indices must be 0..n-1")
    return DiscreteDensity(masses[order])


def read_samples_csv(path) -> np.ndarray:
    """Samples file: single column ``x``."""
    (samples,) = read_columns(path, ("x",))
    return samples


_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2}


def read_columns(path, names) -> tuple[np.ndarray, ...]:
    """The numeric columns of a CSV file, one array per name in ``names``.

    Rows before the first data row are headers; a row is data when its first
    cell, stripped of quotes and whitespace, is a number.  Blank rows are
    skipped.  A header row with more cells than ``names``, a data row with a
    non-numeric or empty cell, a column count other than ``len(names)``, or a
    file without data rows raises :class:`RepresentationError`.  A byte that
    does not decode reads as its ``\\xNN`` escape, a non-numeric cell.

    One Python pass reads the header rows; the data rows go to numpy's
    chunked C reader, given the path.  That reader skips empty rows but not
    whitespace-only ones, so a file with whitespace-only rows, or with a
    format error, is read again row by row through Python, which skips the
    former and names the file line of the latter.
    """
    expected = ",".join(names)
    with open(path, errors="backslashreplace") as handle:
        for skip, row in enumerate(handle):
            if not row.strip():
                continue
            if _is_data(row):
                break
            if len(row.split(",")) > len(names):
                raise RepresentationError(
                    f"{path!r}: expected columns {expected}, got header {row.strip()!r}")
        else:  # checked here, since loadtxt warns on a file without data
            raise RepresentationError(f"{path!r}: expected columns {expected}, got no data row")
    try:
        data = np.loadtxt(path, skiprows=skip, **_LOADTXT)
    except ValueError:
        with open(path, errors="backslashreplace") as handle:
            try:
                data = np.loadtxt(filter(str.strip, itertools.islice(handle, skip, None)),
                                  **_LOADTXT)
            except ValueError as err:
                raise RepresentationError(
                    f"{path!r}: {_at_file_line(path, skip, err)}") from None
    if data.shape[1] != len(names):
        raise RepresentationError(
            f"{path!r}: expected columns {expected}, got {data.shape[1]} per row")
    return tuple(data.T)


def _is_data(row: str) -> bool:
    """A data row: its first cell, stripped of quotes and whitespace, is a number."""
    try:
        float(row.split(",", 1)[0].strip().strip('"'))
    except ValueError:
        return False
    return True


# numpy counts the data rows it was given, from 0 in a bad-cell message and
# from 1 in a column-count one
_NUMPY_ROW = re.compile(r" at row (\d+)(, column \d+)?")


def _at_file_line(path, skip: int, err: ValueError) -> str:
    """numpy's loadtxt message, with its data row given as a 1-based file line.

    ``skip`` is the number of lines before the first data row.  The file
    is read again to count its blank lines; this runs on the error path only.
    """
    text = str(err)
    match = _NUMPY_ROW.search(text)
    if match is None:
        return text
    data_row = int(match[1]) - (match[2] is None)
    with open(path, errors="backslashreplace") as handle:
        lines = ((number, row) for number, row in enumerate(handle, 1)
                 if number > skip and row.strip())
        line = next(itertools.islice(lines, data_row, None), None)
    if line is None:
        return text
    return f"{text[:match.start()]} at line {line[0]}{match[2] or ''}"


def write_density_csv(path, d: DensityObject) -> None:
    """Write a grid or discrete density in its standard CSV format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if isinstance(d, GridDensity):
            writer.writerow(["x", "value"])
            for x, v in zip(d.xs, d.values):
                writer.writerow([repr(float(x)), repr(float(v))])
        elif isinstance(d, DiscreteDensity) and d.masses.ndim == 1:
            writer.writerow(["index", "mass"])
            for i, m in enumerate(d.masses):
                writer.writerow([i, repr(float(m))])
        else:
            raise RepresentationError("only grid and single discrete densities have a "
                                      "file form")
