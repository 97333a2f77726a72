"""Nonnegative densities and the bracket integrals every score consumes.

Three in-memory representations share one integral interface:

* ``DiscreteDensity`` -- masses on a finite shared support; exact sums.
* ``GridDensity``     -- values on a uniform 1-D grid; trapezoid quadrature.
* ``GaussianDensity`` -- mass * N(mu, sigma); closed forms throughout.

The central object is :class:`BracketTriple`, the integrals

    X = <g f**gamma>,  Y = <f**(1+gamma)>,  Z = <g**(1+gamma)>,

which satisfy the Hoelder bound X <= Z**(1/(1+gamma)) * Y**(gamma/(1+gamma)).
At gamma = 0 the triple degenerates to total masses and is extended with the
cross-entropy fields L = <g log(g/f)>, Mg = <g>, Mf = <f> and <g log g>.
"""

from __future__ import annotations

import csv
import itertools
import math
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
    """Nonnegative masses on a finite support shared by position."""

    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", _freeze(self.masses))
        _check_nonnegative(self.masses, "masses")

    @property
    def size(self) -> int:
        return self.masses.size

    def total_mass(self) -> float:
        return float(self.masses.sum())


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

    Z is None for empirical brackets (no score needs the plug-in measure's
    own power integral).  The gamma = 0 extension carries L = <g log(g/f)>,
    the total masses Mg, Mf, and g_log_g = <g log g>, from which both the
    gamma = 0 score and divergence are assembled.
    """

    X: float
    Y: float
    Z: float | None
    gamma: float
    L: float | None = None
    Mg: float | None = None
    Mf: float | None = None
    g_log_g: float | None = None

    def require_z(self) -> float:
        if self.Z is None:
            raise DomainError("this bracket has no <g**(1+gamma)> integral "
                              "(empirical plug-in); divergence unavailable")
        return self.Z

    def require_kl_fields(self) -> tuple[float, float, float, float]:
        if self.L is None or self.Mg is None or self.Mf is None or self.g_log_g is None:
            raise DomainError("gamma=0 fields (L, Mg, Mf, <g log g>) missing; "
                              "build the bracket with gamma=0")
        return self.L, self.Mg, self.Mf, self.g_log_g


def _check_nonnegative(arr: np.ndarray, name: str) -> None:
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr < 0.0):
        raise DomainError(f"{name} must be nonnegative")
    if not np.any(arr > 0.0):
        raise DomainError(f"{name} must not be identically zero")


def _trapezoid(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def _grids_match(g: GridDensity, f: GridDensity) -> bool:
    return (g.values.size == f.values.size
            and abs(g.x0 - f.x0) <= 1e-9 * max(1.0, abs(g.x0))
            and abs(g.dx - f.dx) <= 1e-12 * g.dx)


def _xlogx(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    positive = values > 0.0
    out[positive] = values[positive] * np.log(values[positive])
    return out


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


def _gaussian_kl(g: GaussianDensity, f: GaussianDensity) -> float:
    """KL divergence between the normalized shapes of g and f."""
    delta = g.mu - f.mu
    return float(math.log(f.sigma / g.sigma)
                 + (g.sigma**2 + delta**2) / (2.0 * f.sigma**2) - 0.5)


def bracket_integrals(g: DensityObject, f: DensityObject, gamma: float) -> BracketTriple:
    """Compute the bracket triple of (g, f) at the given power parameter.

    g and f must share a representation class (and, for grids, the grid
    itself).  gamma = 0 additionally fills the cross-entropy fields and
    raises :class:`SupportError` where g > 0 meets f = 0.
    """
    if gamma < 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    if type(g) is not type(f):
        raise RepresentationError(
            f"g and f must share a representation, got {type(g).__name__} "
            f"and {type(f).__name__}")

    if isinstance(g, GaussianDensity):
        if gamma == 0.0:
            mg, mf = g.mass, f.mass
            ll = mg * (math.log(mg / mf) + _gaussian_kl(g, f))
            entropy = 0.5 * math.log(2.0 * math.pi * math.e * g.sigma**2)
            g_log_g = mg * math.log(mg) - mg * entropy
            return BracketTriple(mg, mf, mg, 0.0, L=ll, Mg=mg, Mf=mf, g_log_g=g_log_g)
        return BracketTriple(
            _gaussian_cross_integral(g, f, gamma),
            _gaussian_power_integral(f, gamma),
            _gaussian_power_integral(g, gamma),
            gamma)

    if isinstance(g, DiscreteDensity):
        if g.size != f.size:
            raise RepresentationError(
                f"discrete supports differ: {g.size} vs {f.size} points")
        gv, fv = g.masses, f.masses
        weight = None
    else:
        if not _grids_match(g, f):
            raise RepresentationError("grid densities must share x0, dx and length")
        gv, fv = g.values, f.values
        weight = g.dx

    def total(values: np.ndarray) -> float:
        return float(values.sum()) if weight is None else _trapezoid(values, weight)

    if gamma == 0.0:
        support = gv > 0.0
        if np.any(support & (fv == 0.0)):
            raise SupportError("g log(g/f) undefined: g > 0 where f = 0")
        ratio_term = np.zeros_like(gv)
        ratio_term[support] = gv[support] * np.log(gv[support] / fv[support])
        mg, mf = total(gv), total(fv)
        return BracketTriple(mg, mf, mg, 0.0, L=total(ratio_term),
                             Mg=mg, Mf=mf, g_log_g=total(_xlogx(gv)))

    return BracketTriple(total(gv * fv**gamma),
                         total(fv ** (1.0 + gamma)),
                         total(gv ** (1.0 + gamma)),
                         gamma)


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
    if isinstance(f, GridDensity):
        return GridDensity(f.x0, f.dx, factor * f.values)
    return DiscreteDensity(factor * f.masses)


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


def power_bracket(f: DensityObject, gamma: float) -> float:
    """<f**(1+gamma)> of a single density."""
    if isinstance(f, GaussianDensity):
        return _gaussian_power_integral(f, gamma)
    if isinstance(f, GridDensity):
        return _trapezoid(f.values ** (1.0 + gamma), f.dx)
    return float((f.masses ** (1.0 + gamma)).sum())


def empirical_brackets(samples, f: DensityObject, gamma: float) -> BracketTriple:
    """Bracket triple with the plug-in cross integral X = mean f(x_i)**gamma.

    Y comes from the model exactly (or by quadrature); Z is unavailable for
    the empirical measure and left as None.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("empirical brackets need a nonempty sample list")
    if not gamma > 0.0:
        raise DomainError(f"empirical brackets require gamma > 0, got {gamma}")
    values = np.asarray(density_value(f, samples), dtype=float)
    return BracketTriple(float(np.mean(values**gamma)), power_bracket(f, gamma),
                         None, gamma)


def gaussian_grid(d: GaussianDensity, half_width_sigmas: float = 12.0,
                  points: int = 4096, x_min: float | None = None,
                  x_max: float | None = None) -> GridDensity:
    """Render a Gaussian on a uniform grid (default: +/- 12 sigma)."""
    lo = d.mu - half_width_sigmas * d.sigma if x_min is None else x_min
    hi = d.mu + half_width_sigmas * d.sigma if x_max is None else x_max
    xs = np.linspace(lo, hi, points)
    return GridDensity(lo, float(xs[1] - xs[0]), np.asarray(density_value(d, xs)))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def read_grid_csv(path) -> GridDensity:
    """Grid density file: header ``x,value``, equally spaced increasing x."""
    xs, values = _read_two_columns(path, ("x", "value"))
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
    idx, masses = _read_two_columns(path, ("index", "mass"))
    order = np.argsort(idx)
    idx = idx[order]
    if not np.array_equal(idx, np.arange(idx.size)):
        raise RepresentationError(f"{path!r}: indices must be 0..n-1")
    return DiscreteDensity(masses[order])


def read_samples_csv(path) -> np.ndarray:
    """Samples file: single column ``x``.

    Leading non-numeric rows (headers) and blank rows are skipped.  A second
    non-empty column, a non-numeric row after the first sample, or a file
    without samples raises :class:`RepresentationError`.
    """
    with open(path, newline="") as handle:
        rows = (row for row in handle if row.strip())
        first = next((row for row in rows if "," in row or _is_number(row)), None)
        try:
            samples = np.fromiter(map(float, itertools.chain([first] if first else [], rows)),
                                  dtype=float)
        except ValueError:  # extra cells or a non-numeric row: go row by row
            handle.seek(0)
            samples = np.array(_sample_rows(path, handle), dtype=float)
    if samples.size == 0:
        raise RepresentationError(f"{path!r}: no samples found")
    return samples


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _sample_rows(path, rows) -> list[float]:
    out = []
    for row in rows:
        cells = row.rstrip("\r\n").split(",")
        if not cells[0].strip():
            continue
        if any(cell.strip() for cell in cells[1:]):
            raise RepresentationError(f"{path!r}: expected a single column, got {cells!r}")
        try:
            out.append(float(cells[0]))
        except ValueError:
            if out:
                raise RepresentationError(
                    f"{path!r}: non-numeric sample {cells[0]!r}") from None
    return out


def write_density_csv(path, d: DensityObject) -> None:
    """Write a grid or discrete density in its standard CSV format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if isinstance(d, GridDensity):
            writer.writerow(["x", "value"])
            for x, v in zip(d.xs, d.values):
                writer.writerow([repr(float(x)), repr(float(v))])
        elif isinstance(d, DiscreteDensity):
            writer.writerow(["index", "mass"])
            for i, m in enumerate(d.masses):
                writer.writerow([i, repr(float(m))])
        else:
            raise RepresentationError("only grid and discrete densities have a file form")


def _read_two_columns(path, header_names) -> tuple[np.ndarray, np.ndarray]:
    first, second = [], []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or not row[0].strip():
                continue
            try:
                a, b = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if first:
                    raise RepresentationError(f"{path!r}: malformed row {row!r}")
                continue  # header
            first.append(a)
            second.append(b)
    if not first:
        raise RepresentationError(
            f"{path!r}: expected columns {header_names[0]},{header_names[1]}")
    return np.asarray(first), np.asarray(second)
