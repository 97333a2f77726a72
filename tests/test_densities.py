import math
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
    DiscreteDensity,
    DivkitError,
    DomainError,
    GaussianDensity,
    GridDensity,
    RepresentationError,
    SupportError,
    affine_transform,
    bracket_integrals,
    density_value,
    empirical_brackets,
    gaussian_grid,
    holder_divergence,
    read_discrete_csv,
    read_grid_csv,
    read_samples_csv,
    scale_values,
    write_density_csv,
)
from divkit.densities import read_columns
from divkit.generators import eta_from_table

SQRT_PI = math.sqrt(math.pi)


def test_two_point_brackets_exact(discrete_pair):
    g, f = discrete_pair
    b = bracket_integrals(g, f, 1.0)
    assert b.X == pytest.approx(0.50, abs=1e-15)
    assert b.Y == pytest.approx(0.68, abs=1e-15)
    assert b.Z == pytest.approx(0.50, abs=1e-15)


def test_point_mass_brackets():
    one = DiscreteDensity([1.0])
    b = bracket_integrals(one, one, 1.0)
    assert (b.X, b.Y, b.Z) == (1.0, 1.0, 1.0)


def test_gaussian_closed_forms(gaussian_pair):
    # oracle: adaptive quadrature of the integrands gives
    #   X = exp(-1/4)/(2 sqrt(pi)), Y = Z = 1/(2 sqrt(pi))
    g, f = gaussian_pair
    b = bracket_integrals(g, f, 1.0)
    assert b.X == pytest.approx(math.exp(-0.25) / (2.0 * SQRT_PI), rel=1e-14)
    assert b.Y == pytest.approx(1.0 / (2.0 * SQRT_PI), rel=1e-14)
    assert b.Z == pytest.approx(1.0 / (2.0 * SQRT_PI), rel=1e-14)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_gaussian_agrees_with_grid_quadrature(gaussian_pair, gamma):
    g, f = gaussian_pair
    exact = bracket_integrals(g, f, gamma)
    gg = gaussian_grid(g, x_min=-12.0, x_max=12.0, points=4096)
    fg = gaussian_grid(f, x_min=-12.0, x_max=12.0, points=4096)
    quad = bracket_integrals(gg, fg, gamma)
    assert quad.X == pytest.approx(exact.X, rel=1e-6)
    assert quad.Y == pytest.approx(exact.Y, rel=1e-6)
    assert quad.Z == pytest.approx(exact.Z, rel=1e-6)


def test_gamma_zero_brackets_gaussian(gaussian_pair):
    g, f = gaussian_pair
    b = bracket_integrals(g, f, 0.0)
    assert b.X == 1.0 and b.Y == 1.0 and b.Z == 1.0
    assert b.L == pytest.approx(0.5, abs=1e-14)  # KL of N(0,1) vs N(1,1)
    # <g log f> = <g log g> - L = -log(sqrt(2 pi e)) - 1/2
    assert b.cross == pytest.approx(-0.5 * math.log(2.0 * math.pi * math.e) - 0.5,
                                    abs=1e-14)


def test_gamma_zero_brackets_grid_match_gaussian(gaussian_pair):
    g, f = gaussian_pair
    exact = bracket_integrals(g, f, 0.0)
    gg = gaussian_grid(g, x_min=-12.0, x_max=12.0, points=4096)
    fg = gaussian_grid(f, x_min=-12.0, x_max=12.0, points=4096)
    quad = bracket_integrals(gg, fg, 0.0)
    assert quad.L == pytest.approx(exact.L, abs=1e-6)
    assert quad.X == pytest.approx(1.0, abs=1e-8)
    assert quad.cross == pytest.approx(exact.cross, abs=1e-6)


LOG_2PI, LOG_2PIE = math.log(2.0 * math.pi), math.log(2.0 * math.pi * math.e)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g, f, ll, cross, rel", [
    # sigma**2 underflows to 0 in the KL and in the entropy
    (GaussianDensity(0.0, 1e-200), GaussianDensity(0.0, 1e-200),
     0.0, -0.5 * LOG_2PIE + 200.0 * math.log(10.0), 1e-15),
    (GaussianDensity(0.0, 1e-170), GaussianDensity(0.0, 1.0),
     170.0 * math.log(10.0) - 0.5, -0.5 * LOG_2PI, 1e-15),
    # sigma**2 and delta**2 overflow
    (GaussianDensity(1e200, 1e200), GaussianDensity(0.0, 1e200),
     0.5, -0.5 * LOG_2PI - 200.0 * math.log(10.0) - 1.0, 1e-15),
    # g/f overflows
    (DiscreteDensity([1.0]), DiscreteDensity([1e-320]),
     -math.log(1e-320), math.log(1e-320), 1e-15),
    # g/f underflows to 0; the results are subnormal
    (DiscreteDensity([1e-320]), DiscreteDensity([1e10]),
     1e-320 * (math.log(1e-320) - math.log(1e10)), 1e-320 * math.log(1e10), 1e-2),
], ids=["gaussian-tiny-sigma", "gaussian-tiny-against-unit", "gaussian-huge",
        "discrete-ratio-overflow", "discrete-ratio-underflow"])
def test_gamma_zero_log_integrals_at_extreme_scales(g, f, ll, cross, rel):
    b = bracket_integrals(g, f, 0.0)
    assert b.L == pytest.approx(ll, rel=rel, abs=0.0)
    assert b.cross == pytest.approx(cross, rel=rel)


@pytest.mark.filterwarnings("error")
def test_gamma_zero_log_integrals_out_of_float_range_raise_domain_error():
    with pytest.raises(DomainError, match="float range"):
        bracket_integrals(GaussianDensity(0.0, 1e200), GaussianDensity(0.0, 1e-200), 0.0)


def _log_ratio(a, b):
    # log(a/b) from the binary mantissas and exponents, the densities' one formula
    (mant_a, exp_a), (mant_b, exp_b) = math.frexp(a), math.frexp(b)
    return np.log(mant_a / mant_b) + (exp_a - exp_b) * math.log(2.0)


def test_gamma_zero_log_integrals_pin_their_one_formula():
    g, f = GaussianDensity(0.3, 0.7, 2.0), GaussianDensity(-0.2, 1.3, 0.5)
    b = bracket_integrals(g, f, 0.0)
    kl = (_log_ratio(1.3, 0.7) + 0.5 * (np.square(0.7 / 1.3) + np.square((0.3 - -0.2) / 1.3))
          - 0.5)
    ll = 2.0 * (_log_ratio(2.0, 0.5) + kl)
    entropy = 0.5 * math.log(2.0 * math.pi * math.e) + np.log(0.7)
    assert (b.L, b.cross) == (ll, (2.0 * np.log(2.0) - 2.0 * entropy) - ll)
    gv, fv = np.array([0.2, 0.0, 0.8]), np.array([0.5, 0.25, 0.25])
    b = bracket_integrals(DiscreteDensity(gv), DiscreteDensity(fv), 0.0)
    ll = 0.2 * _log_ratio(0.2, 0.5) + 0.8 * _log_ratio(0.8, 0.25)
    assert (b.L, b.cross) == (ll, (gv[[0, 2]] * np.log(gv[[0, 2]])).sum() - ll)
    # the ratio form log(g/f) rounds differently here: the formula is pinned
    assert b.L != (gv[[0, 2]] * np.log(gv[[0, 2]] / fv[[0, 2]])).sum()


def test_gamma_zero_support_error():
    g = DiscreteDensity([0.5, 0.5])
    f = DiscreteDensity([1.0, 0.0])
    with pytest.raises(SupportError):
        bracket_integrals(g, f, 0.0)
    # zero-where-zero is fine: g log(g/f) = 0 where g = 0
    b = bracket_integrals(f, g, 0.0)
    assert math.isfinite(b.L)


def test_holder_inequality_on_random_pairs(rng):
    for _ in range(1000):
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        g = DiscreteDensity(rng.uniform(0.05, 3.0, 8))
        f = DiscreteDensity(rng.uniform(0.05, 3.0, 8))
        b = bracket_integrals(g, f, gamma)
        bound = b.Z ** (1.0 / (1.0 + gamma)) * b.Y ** (gamma / (1.0 + gamma))
        assert b.X <= bound + 1e-12


@settings(max_examples=100, deadline=None)
@given(gv=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=6),
       fv=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=6),
       gamma=st.sampled_from([0.5, 1.0, 2.0]))
def test_holder_inequality_property(gv, fv, gamma):
    n = min(len(gv), len(fv))
    b = bracket_integrals(DiscreteDensity(gv[:n]), DiscreteDensity(fv[:n]), gamma)
    bound = b.Z ** (1.0 / (1.0 + gamma)) * b.Y ** (gamma / (1.0 + gamma))
    assert b.X <= bound * (1.0 + 1e-12) + 1e-12


def test_mixed_representations_rejected(gaussian_pair):
    g, _ = gaussian_pair
    with pytest.raises(RepresentationError):
        bracket_integrals(g, DiscreteDensity([1.0]), 1.0)


def test_mismatched_grids_rejected():
    a = GridDensity(0.0, 0.1, np.ones(5))
    b = GridDensity(0.5, 0.1, np.ones(5))
    with pytest.raises(RepresentationError):
        bracket_integrals(a, b, 1.0)


# ---------------------------------------------------------------------------
# affine transform
# ---------------------------------------------------------------------------


def test_affine_identity(gaussian_pair):
    g, _ = gaussian_pair
    out = affine_transform(g, 1.0, 0.0)
    assert (out.mu, out.sigma, out.mass) == (g.mu, g.sigma, g.mass)


def test_affine_gaussian_change_of_variables():
    f = GaussianDensity(0.7, 1.3, mass=2.0)
    out = affine_transform(f, -2.0, 0.5)
    assert out.mu == pytest.approx((0.7 - 0.5) / -2.0)
    assert out.sigma == pytest.approx(1.3 / 2.0)
    assert out.mass == 2.0


def test_affine_grid_scales_power_bracket_by_sigma_gamma():
    f = gaussian_grid(GaussianDensity(0.0, 1.0), x_min=-12, x_max=12, points=2048)
    before = bracket_integrals(f, f, 1.0).Y
    out = affine_transform(f, 2.0, 0.0)
    after = bracket_integrals(out, out, 1.0).Y
    assert after == pytest.approx(2.0 * before, rel=1e-13)
    assert out.total_mass() == pytest.approx(f.total_mass(), abs=1e-8)


def test_affine_grid_negative_sigma_preserves_mass():
    f = gaussian_grid(GaussianDensity(0.3, 0.8), points=512)
    out = affine_transform(f, -1.5, 0.2)
    assert out.dx > 0
    assert out.total_mass() == pytest.approx(f.total_mass(), abs=1e-12)


def test_affine_rejects_singular_and_discrete():
    with pytest.raises(DomainError):
        affine_transform(GaussianDensity(0, 1), 0.0, 0.0)
    with pytest.raises(RepresentationError):
        affine_transform(DiscreteDensity([1.0]), 1.0, 0.0)


@pytest.mark.parametrize("f, sigma, mu", [
    (gaussian_grid(GaussianDensity(0.0, 1.0), points=16), 1.0, math.nan),
    (gaussian_grid(GaussianDensity(0.0, 1.0), points=16), 1e-320, 0.0),
    (GaussianDensity(0.0, 1.0), 1e-320, 0.0),
], ids=["grid-nan-shift", "grid-tiny-sigma", "gaussian-tiny-sigma"])
def test_affine_rejects_an_image_off_the_float_line(f, sigma, mu):
    with pytest.raises(DomainError, match="finite"):
        affine_transform(f, sigma, mu)


def test_scale_values_scales_mass():
    f = DiscreteDensity([0.8, 0.2])
    assert scale_values(f, 2.0).total_mass() == pytest.approx(2.0)
    g = GaussianDensity(0, 1, 1.0)
    assert scale_values(g, 3.0).mass == 3.0


@pytest.mark.parametrize("transform, f, message", [
    (lambda f: scale_values(f, 1e10), GridDensity(0.0, 1.0, [1e300, 1e300]), "values"),
    (lambda f: scale_values(f, 1e10), DiscreteDensity([1e300, 1e300]), "masses"),
    (lambda f: affine_transform(f, 1e10, 0.0), GridDensity(0.0, 1.0, [1e300, 1e300]), "values"),
], ids=["scale_values-grid", "scale_values-discrete", "affine_transform"])
def test_a_transform_that_overflows_raises_without_a_warning(transform, f, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivkitError, match=f"{message} must be finite"):
            transform(f)


# ---------------------------------------------------------------------------
# empirical brackets
# ---------------------------------------------------------------------------


def test_empirical_single_sample_at_unit_density():
    # a gaussian with sigma = 1/sqrt(2 pi) has f(mu) = 1
    f = GaussianDensity(0.0, 1.0 / math.sqrt(2.0 * math.pi))
    b = empirical_brackets([0.0], f, 1.0)
    assert b.X == pytest.approx(1.0, rel=1e-14)
    assert b.Z is None


def test_empirical_two_samples_at_zero(gaussian_pair):
    g, _ = gaussian_pair
    b = empirical_brackets([0.0, 0.0], g, 1.0)
    assert b.X == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)


def test_empirical_law_of_large_numbers(rng):
    # X -> <f**1.5> = 1.5**-0.5 (2 pi)**-0.25 for N(0,1) draws at gamma = 0.5
    f = GaussianDensity(0.0, 1.0)
    samples = rng.standard_normal(100_000)
    b = empirical_brackets(samples, f, 0.5)
    target = 1.5**-0.5 * (2.0 * math.pi) ** -0.25
    assert b.X == pytest.approx(target, rel=0.02)
    assert b.Y == pytest.approx(target, rel=1e-12)


def test_empirical_rejects_bad_input(gaussian_pair):
    g, _ = gaussian_pair
    with pytest.raises(DomainError):
        empirical_brackets([], g, 1.0)
    with pytest.raises(DomainError):
        empirical_brackets([0.0], g, -0.5)


@pytest.mark.parametrize("gamma", [-0.5, math.nan, math.inf])
def test_brackets_reject_a_gamma_out_of_range(gaussian_pair, gamma):
    g, f = gaussian_pair
    with pytest.raises(DomainError, match="finite"):
        bracket_integrals(g, f, gamma)
    with pytest.raises(DomainError, match="finite"):
        empirical_brackets([0.0], f, gamma)


def test_density_value_grid_interpolates():
    f = GridDensity(0.0, 1.0, np.array([0.0, 1.0, 0.0]))
    assert density_value(f, 0.5) == pytest.approx(0.5)
    assert density_value(f, 10.0) == 0.0


# ---------------------------------------------------------------------------
# constructors and file formats
# ---------------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(DomainError):
        DiscreteDensity([0.0, 0.0])
    with pytest.raises(DomainError):
        DiscreteDensity([-0.1, 1.0])
    with pytest.raises(DomainError):
        GridDensity(0.0, -0.1, np.ones(3))
    with pytest.raises(DomainError):
        GaussianDensity(0.0, 0.0)


@pytest.mark.parametrize("x0, dx", [(math.nan, 0.1), (math.inf, 0.1), (0.0, math.inf),
                                    (0.0, math.nan)])
def test_grid_rejects_a_non_finite_origin_or_spacing(x0, dx):
    with pytest.raises(DomainError, match="finite"):
        GridDensity(x0, dx, np.ones(3))


@pytest.mark.parametrize("sigma, mass", [(math.inf, 1.0), (1.0, math.inf)])
def test_gaussian_rejects_an_infinite_sigma_or_mass(sigma, mass):
    with pytest.raises(DomainError, match="finite mu, sigma > 0 and mass > 0"):
        GaussianDensity(0.0, sigma, mass)


@pytest.mark.parametrize("points", [1, 0])
def test_gaussian_grid_needs_two_points(points):
    with pytest.raises(DomainError, match="at least 2 points"):
        gaussian_grid(GaussianDensity(0.0, 1.0), points=points)


def test_grid_csv_roundtrip(tmp_path):
    f = gaussian_grid(GaussianDensity(0.4, 1.1), points=257)
    path = tmp_path / "grid.csv"
    write_density_csv(path, f)
    back = read_grid_csv(path)
    b1 = bracket_integrals(f, f, 1.0)
    b2 = bracket_integrals(back, back, 1.0)
    assert b2.Y == pytest.approx(b1.Y, abs=1e-12)
    assert back.x0 == f.x0 and back.values.size == f.values.size


def test_discrete_csv_roundtrip(tmp_path, discrete_pair):
    g, _ = discrete_pair
    path = tmp_path / "d.csv"
    write_density_csv(path, g)
    back = read_discrete_csv(path)
    assert np.array_equal(back.masses, g.masses)


def test_samples_csv(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x\n0.5\n-1.25\n")
    assert np.array_equal(read_samples_csv(path), [0.5, -1.25])


def test_samples_csv_skips_header_rows_and_blank_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# samples\nx\n\n0.5\n  \n2e3\n")
    assert np.array_equal(read_samples_csv(path), [0.5, 2000.0])


@pytest.mark.parametrize("text, message", [
    ("x\n0.5,1.0\n", "expected columns x, got 2 per row"),
    ("x,y\n0.5\n", "expected columns x, got header 'x,y'"),
    ("x\n0.5\nabc\n", "could not convert string 'abc' to float64 at line 3, column 1$"),
    ("x\n\n", "expected columns x, got no data row"),
    ("", "expected columns x, got no data row"),
    ("x\n0.5\n-1.25,\n", "number of columns changed from 1 to 2 at line 3$"),
    ("x\n-1.25,\n", "could not convert string '' to float64 at line 2, column 2$"),
    ("x\n0.5\n,7\n", "number of columns changed from 1 to 2 at line 3$"),
], ids=["two-cells", "wide-header", "non-numeric", "header-only", "empty",
        "trailing-empty-cell", "first-row-trailing-empty-cell", "blank-first-cell"])
def test_samples_csv_rejections(tmp_path, text, message):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(RepresentationError, match=message):
        read_samples_csv(path)


# the column names of each file kind
FILE_KINDS = {
    "grid": ("x", "value"),
    "discrete": ("index", "mass"),
    "samples": ("x",),
    "table": ("z", "value"),
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(FILE_KINDS)),
       rows=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=20),
       fmt=st.sampled_from(["{!r}", "{:.17g}"]),
       newline=st.sampled_from(["\n", "\r\n"]),
       headers=st.integers(0, 2),
       blanks=st.lists(st.sampled_from(["", "  ", "\t"]), max_size=3))
def test_read_columns_gives_the_floats_of_the_written_text(tmp_path_factory, kind, rows,
                                                          fmt, newline, headers, blanks):
    names = FILE_KINDS[kind]
    cells = [[fmt.format(v) for v in row[:len(names)]] for row in rows]
    lines = ["# written by a test", ",".join(names)][2 - headers:]
    lines += blanks + [",".join(row) for row in cells]
    lines.insert(len(lines) // 2 + 1, "")  # a blank row among the data
    path = tmp_path_factory.mktemp("files") / f"{kind}.csv"
    with open(path, "w", newline="") as handle:
        handle.write(newline.join(lines) + newline)
    columns = read_columns(path, names)
    assert len(columns) == len(names)
    for j, column in enumerate(columns):
        expected = np.array([float(row[j]) for row in cells])
        assert column.tobytes() == expected.tobytes()


THIRD_COLUMN = {
    "grid": (read_grid_csv, "x,value\n0,1{}\n1,1{}\n"),
    "discrete": (read_discrete_csv, "index,mass\n0,0.5{}\n1,0.5{}\n"),
    "table": (lambda path: eta_from_table(path, gamma=1.0), "z,value\n0,0{}\n1,1{}\n"),
}


@pytest.mark.parametrize("kind", sorted(THIRD_COLUMN))
@pytest.mark.parametrize("cells, message", [
    (("", ",99"), "number of columns changed from 2 to 3 at line 3$"),
    ((",99", ",99"), "expected columns .*, got 3 per row"),
], ids=["one-row", "every-row"])
def test_a_third_column_is_rejected(tmp_path, kind, cells, message):
    read, template = THIRD_COLUMN[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(template.format(*cells))
    with pytest.raises(RepresentationError, match=message):
        read(path)


@pytest.mark.parametrize("read, text, message", [
    (read_grid_csv, "x,value\n0,1\n\n1,abc\n", "'abc' to float64 at line 4, column 2$"),
    (read_discrete_csv, "# masses\nindex,mass\n\n0,0.5\n  \n1,0.5,9\n",
     "number of columns changed from 2 to 3 at line 6$"),
    (read_samples_csv, "# c\nx\n\n0.5\n\n\nabc\n", "'abc' to float64 at line 7, column 1$"),
    (read_samples_csv, "x\n\n0.5\n\n,7\n", "number of columns changed from 1 to 2 at line 5$"),
], ids=["grid-cell", "discrete-columns", "samples-cell", "samples-columns"])
def test_reader_errors_name_the_file_line(tmp_path, read, text, message):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(RepresentationError, match=message):
        read(path)


def recorded_loadtxt(monkeypatch):
    """The first arguments that ``np.loadtxt`` is given, in call order."""
    calls, loadtxt = [], np.loadtxt

    def record(source, *args, **kwargs):
        calls.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", record)
    return calls


@pytest.mark.parametrize("read, text", [
    (read_grid_csv, "# a grid\n\nx,value\n0,1\n\n1,2\n"),
    (read_discrete_csv, '"index","mass"\n0,0.5\n1,0.5\n'),
    (read_samples_csv, "0.5\n1.5\n"),
], ids=["grid", "discrete", "samples"])
def test_data_rows_go_to_numpy_as_a_path(tmp_path, monkeypatch, read, text):
    # given a path, loadtxt reads the file in chunks in C; an iterator of
    # rows would pass every row through Python first
    path = tmp_path / "f.csv"
    path.write_text(text)
    calls = recorded_loadtxt(monkeypatch)
    read(path)
    assert len(calls) == 1
    assert isinstance(calls[0], (str, os.PathLike))


def test_whitespace_only_rows_keep_the_floats(tmp_path, monkeypatch):
    values = np.random.default_rng(11).standard_normal((100_000, 2)) * [1.0, 1e-3]
    rows = [f"{x!r},{y!r}\n" for x, y in values.tolist()]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("x,value\n" + "".join(rows))
    for at, blank in ((0, " \n"), (17, "\t\n"), (50_000, "  \r\n"), (100_000, " \n")):
        rows.insert(at, blank)
    spaced.write_text("x,value\n" + "".join(rows))
    calls = recorded_loadtxt(monkeypatch)
    expected = read_columns(plain, ("x", "value"))
    got = read_columns(spaced, ("x", "value"))
    assert len(calls) == 3  # the plain file once; the spaced one, then its re-read
    for column, want, exact in zip(got, expected, values.T):
        assert column.tobytes() == want.tobytes() == exact.tobytes()


def test_a_quoted_first_data_row_is_data(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text('"x","value"\n"0.0","0.5"\n1.0,0.25\n')
    back = read_grid_csv(path)
    assert (back.x0, back.dx, back.values.tolist()) == (0.0, 1.0, [0.5, 0.25])


@pytest.mark.parametrize("text", ["", "\n  \n", "x,value\n", "x,value\n\n# no rows\n"],
                         ids=["empty", "blank", "header-only", "headers-and-blanks"])
def test_a_file_without_data_rows_raises_without_a_warning(tmp_path, text):
    path = tmp_path / "grid.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RepresentationError, match="got no data row"):
            read_grid_csv(path)


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_grid_csv_rejects_a_non_finite_x(tmp_path, x):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,value\n0,0.2\n{x},0.5\n2,0.3\n")
    with pytest.raises(RepresentationError, match="x must be finite"):
        read_grid_csv(path)


def test_grid_csv_rejects_uneven_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,1.0\n1.0,1.0\n2.5,1.0\n")
    with pytest.raises(RepresentationError):
        read_grid_csv(path)


@pytest.mark.filterwarnings("error")
def test_gaussian_powers_out_of_float_range_raise_domain_error():
    tiny = GaussianDensity(0.0, 1e-300)
    with pytest.raises(DomainError, match="float range"):
        bracket_integrals(tiny, tiny, 1.5)
    with pytest.raises(DomainError, match="float range"):
        bracket_integrals(GaussianDensity(0.0, 1.0), tiny, 1.5)
    with pytest.raises(DomainError, match="float range"):
        empirical_brackets([0.0, 1.0], tiny, 1.5)
    # f(x)**gamma overflows though sigma**(-gamma) does not
    with pytest.raises(DomainError, match="float range"):
        empirical_brackets([0.0], GaussianDensity(0.0, 1e-153, mass=1e3), 2.0)


@pytest.mark.filterwarnings("error")
def test_gaussian_powers_in_range_keep_their_formula():
    g, f = GaussianDensity(0.3, 1e-100, 2.0), GaussianDensity(0.0, 1e-100)
    gamma = 1.5
    b = bracket_integrals(g, f, gamma)
    assert b.Y == (1.0 ** (1.0 + gamma) * (2.0 * math.pi) ** (-gamma / 2.0)
                   * 1e-100 ** (-gamma) / math.sqrt(1.0 + gamma))
    s = math.hypot(math.sqrt(gamma) * 1e-100, 1e-100)
    q = 0.3 / s
    assert b.X == (2.0 * 1.0**gamma * (2.0 * math.pi) ** (-gamma / 2.0)
                   * 1e-100 ** (-gamma) * (1e-100 / s) * math.exp(-0.5 * gamma * q * q))


HUGE_GRID = GridDensity(0.0, 1.0, np.array([1e200, 1e200]))
TINY_HEAVY = GaussianDensity(0.0, 1e-153, mass=1e3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("compute", [
    lambda: bracket_integrals(HUGE_GRID, HUGE_GRID, 1.0),
    lambda: empirical_brackets([0.0], GridDensity(-1.0, 1.0, np.array([1e200] * 3)), 1.0),
    # the product overflows, though no power does
    lambda: bracket_integrals(TINY_HEAVY, TINY_HEAVY, 2.0),
    lambda: bracket_integrals(DiscreteDensity([1.0, 1.0]), DiscreteDensity([1e300, 1.0]), 0.5),
    # every term is in range, their sum is not
    lambda: bracket_integrals(DiscreteDensity([1e308] * 4), DiscreteDensity([1.0] * 4), 0.0),
], ids=["grid", "empirical-grid", "gaussian-product", "discrete-cross", "discrete-sum"])
def test_brackets_out_of_float_range_raise_domain_error(compute):
    with pytest.raises(DomainError, match="float range"):
        compute()


@pytest.mark.filterwarnings("error")
def test_array_powers_in_range_keep_their_formula():
    gv, fv = np.array([1e100, 3e100, 2e100]), np.array([2e100, 1e100, 5e99])
    gamma, dx = 2.0, 0.5

    def trapezoid(v):
        return dx * (v.sum() - 0.5 * (v[0] + v[-1]))

    b = bracket_integrals(GridDensity(0.0, dx, gv), GridDensity(0.0, dx, fv), gamma)
    assert (b.X, b.Y, b.Z) == (trapezoid(gv * fv**gamma), trapezoid(fv ** (1.0 + gamma)),
                               trapezoid(gv ** (1.0 + gamma)))
    b = bracket_integrals(DiscreteDensity(gv), DiscreteDensity(fv), gamma)
    assert (b.X, b.Y, b.Z) == ((gv * fv**gamma).sum(), (fv ** (1.0 + gamma)).sum(),
                               (gv ** (1.0 + gamma)).sum())


@pytest.mark.filterwarnings("error")
def test_empirical_gamma_zero_bracket():
    f = GaussianDensity(0.5, 2.0, mass=1.5)
    samples = np.array([0.0, 1.0, -3.0])
    b = empirical_brackets(samples, f, 0.0)
    assert b.X == 1.0 and b.Y == 1.5
    assert b.cross == float(np.mean(np.log(density_value(f, samples))))
    assert b.L is None and b.Z is None
    with pytest.raises(DomainError):
        holder_divergence(b, None)


@pytest.mark.parametrize("masses, message", [
    ([math.nan], "finite"),
    ([-math.inf, 1.0], "finite"),
    ([1.0, math.inf], "finite"),
    ([math.nan, -1.0], "finite"),
    ([-1.0, math.nan], "finite"),
    ([2.0, -1.0], "nonnegative"),
    ([0.0, 0.0], "identically zero"),
    ([-0.0], "identically zero"),
    ([], "nonempty 1-D"),
    ([[[1.0]]], "nonempty 1-D"),  # a 2-D array is a batch (see the batch tests)
])
def test_density_validation_order(masses, message):
    with pytest.raises(DomainError, match=message):
        DiscreteDensity(masses)


# ---------------------------------------------------------------------------
# batches of discrete densities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
def test_batched_brackets_equal_the_row_brackets_bit_for_bit(gamma):
    rng = np.random.default_rng(808)
    g = rng.uniform(0.05, 3.0, (700, 8))
    f = rng.uniform(0.05, 3.0, (700, 8))
    g[rng.random(g.shape) < 0.1] = 0.0  # the gamma = 0 fields mask g = 0 row by row
    g[:, 0] = 1.0
    batch = bracket_integrals(DiscreteDensity(g), DiscreteDensity(f), gamma)
    rows = [bracket_integrals(DiscreteDensity(gi), DiscreteDensity(fi), gamma)
            for gi, fi in zip(g, f)]
    assert batch.gamma == gamma
    for name in ("X", "Y", "Z", "L", "cross"):
        expected = [getattr(row, name) for row in rows]
        if gamma > 0.0 and name in ("L", "cross"):
            assert getattr(batch, name) is None and set(expected) == {None}
        else:
            assert getattr(batch, name).shape == (700,)
            assert np.array_equal(getattr(batch, name), expected), name


@pytest.mark.parametrize("row, message", [
    ([1.0, math.nan], "finite"),
    ([1.0, -1.0], "nonnegative"),
    ([0.0, 0.0], "identically zero"),
])
def test_batch_validation_is_row_by_row(row, message):
    with pytest.raises(DomainError, match=message):
        DiscreteDensity([[0.5, 0.5], row, [2.0, 1.0]])


def test_batches_must_share_a_shape():
    two, three = DiscreteDensity(np.ones((2, 4))), DiscreteDensity(np.ones((3, 4)))
    with pytest.raises(RepresentationError, match="batches differ"):
        bracket_integrals(two, three, 1.0)
    with pytest.raises(RepresentationError, match="batches differ"):
        bracket_integrals(two, DiscreteDensity(np.ones(4)), 1.0)
    with pytest.raises(RepresentationError, match="supports differ"):
        bracket_integrals(two, DiscreteDensity(np.ones((2, 5))), 1.0)


def test_a_batch_has_row_masses_and_no_file_form(tmp_path):
    batch = DiscreteDensity([[0.5, 0.5], [1.0, 2.0]])
    assert batch.size == 2
    assert np.array_equal(batch.total_mass(), [1.0, 3.0])
    with pytest.raises(RepresentationError, match="file form"):
        write_density_csv(tmp_path / "batch.csv", batch)


def test_a_batch_raises_where_one_row_leaves_float_range():
    g = np.ones((3, 2))
    g[1] = 1e200
    with pytest.raises(DomainError, match="float range"):
        bracket_integrals(DiscreteDensity(g), DiscreteDensity(g), 1.0)
    support = np.ones((3, 2))
    support[2, 1] = 0.0
    with pytest.raises(SupportError):
        bracket_integrals(DiscreteDensity(np.ones((3, 2))), DiscreteDensity(support), 0.0)


# ---------------------------------------------------------------------------
# batches of grid and Gaussian densities
# ---------------------------------------------------------------------------


def _gaussian_rows(seed=909, rows=300):
    rng = np.random.default_rng(seed)
    return [GaussianDensity(rng.uniform(-3.0, 3.0, rows), rng.uniform(0.05, 5.0, rows),
                            rng.uniform(0.1, 4.0, rows)) for _ in range(2)]


def _grid_rows(seed=910, rows=200, points=64):
    rng = np.random.default_rng(seed)
    x0, dx = rng.uniform(-5.0, 5.0, rows), rng.uniform(0.01, 2.0, rows)
    g, f = rng.uniform(0.0, 3.0, (2, rows, points))
    g[rng.random(g.shape) < 0.1] = 0.0  # the gamma = 0 fields mask g = 0 row by row
    g[:, 0] = 1.0
    return GridDensity(x0, dx, g), GridDensity(x0, dx, f)


def _single(d, row):
    if isinstance(d, GaussianDensity):
        return GaussianDensity(float(d.mu[row]), float(d.sigma[row]), float(d.mass[row]))
    return GridDensity(float(d.x0[row]), float(d.dx[row]), d.values[row])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("batch", [_gaussian_rows, _grid_rows], ids=["gaussian", "grid"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
def test_gaussian_and_grid_batches_equal_their_rows_bit_for_bit(batch, gamma):
    g, f = batch()
    whole = bracket_integrals(g, f, gamma)
    rows = [bracket_integrals(_single(g, i), _single(f, i), gamma)
            for i in range(len(whole.X))]
    assert whole.gamma == gamma
    for name in ("X", "Y", "Z", "L", "cross"):
        expected = [getattr(row, name) for row in rows]
        if gamma > 0.0 and name in ("L", "cross"):
            assert getattr(whole, name) is None and set(expected) == {None}
        else:
            assert getattr(whole, name).shape == (len(rows),)
            assert np.array_equal(getattr(whole, name), expected), name


def _fields_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, field.name), getattr(b, field.name))
               for field in fields(a))


@pytest.mark.parametrize("batch", [_gaussian_rows, _grid_rows], ids=["gaussian", "grid"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_transforms_of_a_batch_equal_their_rows(batch, sign):
    g, _ = batch(rows=5)
    sigma, mu = sign * np.linspace(0.25, 4.0, 5), np.linspace(-3.0, 3.0, 5)
    moved, scaled = affine_transform(g, sigma, mu), scale_values(g, np.abs(sigma))
    for i in range(5):
        assert _fields_equal(_single(moved, i), affine_transform(_single(g, i), sigma[i], mu[i]))
        assert _fields_equal(_single(scaled, i), scale_values(_single(g, i), abs(sigma[i])))


def test_a_grid_batch_has_no_pointwise_values_and_no_file_form(tmp_path):
    g, _ = _grid_rows(rows=3, points=4)
    with pytest.raises(RepresentationError, match="no single x"):
        g.xs
    with pytest.raises(RepresentationError, match="no single x"):
        density_value(g, 0.5)
    with pytest.raises(RepresentationError, match="file form"):
        write_density_csv(tmp_path / "batch.csv", g)
    assert not (tmp_path / "batch.csv").exists()


def test_a_grid_batch_maps_through_sigmas_of_one_sign():
    g, _ = _grid_rows(rows=3, points=4)
    with pytest.raises(DomainError, match="one sign"):
        affine_transform(g, np.array([1.0, -1.0, 2.0]), 0.0)
    with pytest.raises(DomainError, match="sigma = 0"):
        affine_transform(g, np.array([1.0, 0.0, 2.0]), 0.0)


def test_batches_of_other_shapes_are_rejected():
    g, f = _gaussian_rows(rows=3)
    with pytest.raises(RepresentationError, match="batches differ"):
        bracket_integrals(g, GaussianDensity(np.zeros(4), np.ones(4)), 1.0)
    with pytest.raises(RepresentationError, match="batches differ"):
        bracket_integrals(g, GaussianDensity(0.0, 1.0), 1.0)
    with pytest.raises(RepresentationError, match="do not broadcast"):
        GaussianDensity(np.zeros(3), np.ones(2))
    with pytest.raises(RepresentationError, match="do not broadcast"):
        GridDensity(np.zeros(2), 1.0, np.ones((3, 4)))
    with pytest.raises(RepresentationError, match="do not broadcast"):
        GridDensity(np.zeros(2), 1.0, np.ones(2))
    grids = _grid_rows(rows=3, points=4)
    with pytest.raises(RepresentationError, match="batches differ"):
        bracket_integrals(grids[0], _grid_rows(rows=2, points=4)[1], 1.0)
    with pytest.raises(RepresentationError, match="single model"):
        empirical_brackets([0.0], g, 1.0)
    with pytest.raises(RepresentationError, match="single Gaussian"):
        gaussian_grid(g)


def test_a_batch_parameter_is_validated_row_by_row():
    with pytest.raises(DomainError, match="sigma > 0"):
        GaussianDensity(np.zeros(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DomainError, match="spacing"):
        GridDensity(0.0, np.array([1.0, math.nan]), np.ones((2, 3)))
    with pytest.raises(DomainError, match="identically zero"):
        GridDensity(0.0, 1.0, [[1.0, 1.0], [0.0, 0.0]])
