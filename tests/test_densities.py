import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
    DiscreteDensity,
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
    read_discrete_csv,
    read_grid_csv,
    read_samples_csv,
    scale_values,
    write_density_csv,
)

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
    assert b.Mg == 1.0 and b.Mf == 1.0
    assert b.L == pytest.approx(0.5, abs=1e-14)  # KL of N(0,1) vs N(1,1)
    # <g log g> = -differential entropy = -log(sqrt(2 pi e))
    assert b.g_log_g == pytest.approx(-0.5 * math.log(2.0 * math.pi * math.e), abs=1e-14)


def test_gamma_zero_brackets_grid_match_gaussian(gaussian_pair):
    g, f = gaussian_pair
    exact = bracket_integrals(g, f, 0.0)
    gg = gaussian_grid(g, x_min=-12.0, x_max=12.0, points=4096)
    fg = gaussian_grid(f, x_min=-12.0, x_max=12.0, points=4096)
    quad = bracket_integrals(gg, fg, 0.0)
    assert quad.L == pytest.approx(exact.L, abs=1e-6)
    assert quad.Mg == pytest.approx(1.0, abs=1e-8)
    assert quad.g_log_g == pytest.approx(exact.g_log_g, abs=1e-6)


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


def test_scale_values_scales_mass():
    f = DiscreteDensity([0.8, 0.2])
    assert scale_values(f, 2.0).total_mass() == pytest.approx(2.0)
    g = GaussianDensity(0, 1, 1.0)
    assert scale_values(g, 3.0).mass == 3.0


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
        empirical_brackets([0.0], g, 0.0)


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
    path.write_text("# samples\nx\n\n0.5\n  \n-1.25,\n,7\n2e3\n")
    assert np.array_equal(read_samples_csv(path), [0.5, -1.25, 2000.0])


@pytest.mark.parametrize("text, message", [
    ("x\n0.5,1.0\n", "expected a single column, got \\['0.5', '1.0'\\]"),
    ("x,y\n0.5\n", "expected a single column"),
    ("x\n0.5\nabc\n", "non-numeric sample 'abc'"),
    ("x\n\n", "no samples found"),
    ("", "no samples found"),
])
def test_samples_csv_rejections(tmp_path, text, message):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(RepresentationError, match=message):
        read_samples_csv(path)


def test_grid_csv_rejects_uneven_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,1.0\n1.0,1.0\n2.5,1.0\n")
    with pytest.raises(RepresentationError):
        read_grid_csv(path)
