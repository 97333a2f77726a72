import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit import (
    BracketTriple,
    DegenerateModelError,
    DiscreteDensity,
    DivergenceSpec,
    DomainError,
    GeneratorValidityError,
    bhd_eta,
    bracket_integrals,
    custom_eta,
    custom_phi,
    custom_xi,
    divergence,
    dpd_eta,
    equivalent_transform,
    fdp_divergence,
    fdp_score,
    holder_divergence,
    holder_score,
    identity_phi,
    identity_xi,
    jhhb_divergence,
    jhhb_eta,
    jhhb_score,
    log_phi,
    power_phi,
    power_xi,
    ps_eta,
    scale_values,
    score,
    xi_holder_divergence,
    xi_holder_score,
)
from divkit.checks import random_brackets, random_discrete_pair


@pytest.fixture
def b(discrete_pair):
    g, f = discrete_pair
    return bracket_integrals(g, f, 1.0)


# ---------------------------------------------------------------------------
# worked values on the two-point pair (hand-evaluated oracles)
# ---------------------------------------------------------------------------


def test_holder_scores(b):
    assert holder_score(b, dpd_eta(1.0)) == pytest.approx(-0.32, abs=1e-14)
    assert holder_score(b, ps_eta(1.0)) == pytest.approx(-0.25 / 0.68, abs=1e-14)


def test_holder_divergences(b):
    # dpd at gamma 1 equals the squared distance sum((q - p)**2) = 0.18
    assert holder_divergence(b, dpd_eta(1.0)) == pytest.approx(0.18, abs=1e-14)
    assert holder_divergence(b, ps_eta(1.0)) == pytest.approx(0.5 - 0.25 / 0.68, abs=1e-14)


def test_fdp_scores(b):
    assert fdp_score(b, identity_phi()) == pytest.approx(-0.32, abs=1e-14)
    # log branch: log 0.68 - 2 log 0.5 = 1.000631880307906
    assert fdp_score(b, log_phi()) == pytest.approx(math.log(0.68) - 2.0 * math.log(0.5),
                                                    abs=1e-14)
    assert fdp_score(b, log_phi()) == pytest.approx(1.000631880307906, abs=1e-12)


def test_fdp_divergences(b):
    assert fdp_divergence(b, identity_phi()) == pytest.approx(0.18, abs=1e-14)
    assert fdp_divergence(b, log_phi()) == pytest.approx(math.log(1.36), abs=1e-14)


def test_scale_indifference_of_log_generator(discrete_pair):
    # f against 2f: the log-generator divergence vanishes
    _, f = discrete_pair
    two_f = scale_values(f, 2.0)
    assert fdp_divergence(bracket_integrals(two_f, f, 1.0), log_phi()) == pytest.approx(
        0.0, abs=1e-14)


def test_jhhb_divergences(b):
    assert jhhb_divergence(b, 1.0) == pytest.approx(0.18, abs=1e-14)
    assert jhhb_divergence(b, 0.5) == pytest.approx(
        2.0 * math.sqrt(0.5) - 4.0 * math.sqrt(0.5) + 2.0 * math.sqrt(0.68), abs=1e-14)
    assert jhhb_divergence(b, 0.0) == pytest.approx(math.log(1.36), abs=1e-14)


def test_xi_holder_values(b):
    s = xi_holder_score(b, ps_eta(1.0), power_xi(0.5))
    assert s == pytest.approx(-0.5 / math.sqrt(0.68), abs=1e-14)
    d = xi_holder_divergence(b, ps_eta(1.0), power_xi(0.5))
    assert d == pytest.approx(s + math.sqrt(0.5), abs=1e-14)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_score_at_self_is_minus_model_bracket(rng):
    # eta(1) = -1 makes S(g, g) = -Y for every valid generator
    for _ in range(50):
        g, _ = random_discrete_pair(rng)
        b = bracket_integrals(g, g, 1.0)
        for eta in (dpd_eta(1.0), ps_eta(1.0), jhhb_eta(0.5, 1.0)):
            assert holder_score(b, eta) == pytest.approx(-b.Y, rel=1e-12)


def test_divergence_vanishes_at_equal_probability_vectors(rng):
    for _ in range(50):
        g, _ = random_discrete_pair(rng, normalize=True)
        b = bracket_integrals(g, g, 1.0)
        assert abs(holder_divergence(b, dpd_eta(1.0))) <= 1e-10
        assert abs(fdp_divergence(b, log_phi())) <= 1e-10
        b0 = bracket_integrals(g, g, 0.0)
        assert abs(holder_divergence(b0, None)) <= 1e-10


def test_xi_identity_reduces_to_holder(rng):
    for gamma in (0.5, 1.0, 2.0):
        for _ in range(100):
            b = random_brackets(rng, gamma)
            for eta in (dpd_eta(gamma), ps_eta(gamma)):
                assert xi_holder_score(b, eta, identity_xi()) == pytest.approx(
                    holder_score(b, eta), abs=1e-12)
                assert xi_holder_divergence(b, eta, identity_xi()) == pytest.approx(
                    holder_divergence(b, eta), abs=1e-12)


def test_dpd_eta_with_xi_gives_the_functional_score(rng):
    # eta(z) = gamma - (1+gamma) z turns the xi score into
    # gamma xi(Y) - (1+gamma) xi(X), the functional score with phi = xi
    gamma = 0.5
    sqrt_phi = custom_phi(lambda z: np.sqrt(np.asarray(z, float)))
    for _ in range(100):
        b = random_brackets(rng, gamma)
        assert xi_holder_score(b, dpd_eta(gamma), power_xi(0.5)) == pytest.approx(
            fdp_score(b, sqrt_phi), rel=1e-12)


def test_holder_dpd_is_gamma_times_functional_identity(rng):
    # the scores coincide exactly; the divergences differ by the known
    # positive factor gamma of the 1/gamma-normalized functional form
    for gamma in (0.5, 1.0, 2.0):
        for _ in range(50):
            b = random_brackets(rng, gamma)
            assert holder_score(b, dpd_eta(gamma)) == pytest.approx(
                fdp_score(b, identity_phi()), rel=1e-12)
            assert holder_divergence(b, dpd_eta(gamma)) == pytest.approx(
                gamma * fdp_divergence(b, identity_phi()), rel=1e-12)


def test_log_score_at_self_collapses_to_minus_log_model_bracket(rng):
    # X = Y makes gamma log Y - (1+gamma) log X = -log Y
    for _ in range(20):
        g, _ = random_discrete_pair(rng)
        b = bracket_integrals(g, g, 1.5)
        assert fdp_score(b, log_phi()) == pytest.approx(-math.log(b.Y), rel=1e-12)


def test_xi_reduction_recovers_the_squared_distance(b):
    assert xi_holder_divergence(b, dpd_eta(1.0), identity_xi()) == pytest.approx(
        0.18, abs=1e-14)


def test_jhhb_equals_functional_power_and_log(rng):
    for gamma in (0.5, 1.0, 2.0):
        for _ in range(100):
            b = random_brackets(rng, gamma)
            assert jhhb_divergence(b, 0.5) == pytest.approx(
                fdp_divergence(b, power_phi(0.5)), rel=1e-12)
            assert jhhb_divergence(b, 0.0) == pytest.approx(
                fdp_divergence(b, log_phi()), rel=1e-12)
            assert jhhb_score(b, 2.0) == pytest.approx(
                fdp_score(b, power_phi(2.0)), rel=1e-12)


def test_gamma_zero_branches(discrete_pair):
    g, f = discrete_pair
    b = bracket_integrals(g, f, 0.0)
    cross_entropy = sum(gi * math.log(fi) for gi, fi in zip([0.5, 0.5], [0.8, 0.2]))
    assert holder_score(b, None) == pytest.approx(-cross_entropy + 1.0, abs=1e-14)
    assert holder_divergence(b, None) == pytest.approx(b.L, abs=1e-14)  # Mg = Mf = 1
    assert fdp_score(b, identity_phi()) == pytest.approx(holder_score(b, None), abs=1e-14)
    # log generator at gamma 0: phi'(1) L - log 1 + log 1 = L
    assert fdp_divergence(b, log_phi()) == pytest.approx(b.L, abs=1e-14)
    assert jhhb_divergence(b, 0.0) == pytest.approx(b.L, abs=1e-14)


# ---------------------------------------------------------------------------
# equivalence transforms
# ---------------------------------------------------------------------------


def test_signed_power_transform_values():
    assert equivalent_transform(3.0, "signed_power", 1.0) == pytest.approx(2.0)
    assert equivalent_transform(-2.0, "signed_power", 0.5) == pytest.approx(
        (-math.sqrt(2.0) - 1.0) / 0.5)
    assert equivalent_transform(0.5, "neg_exp_neg") == pytest.approx(-math.exp(-0.5))


@settings(max_examples=100, deadline=None)
@given(s1=st.floats(-50, 50), s2=st.floats(-50, 50),
       zeta=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_transforms_strictly_increasing(s1, s2, zeta):
    if abs(s1 - s2) < 1e-4:  # below this the float images can collide
        return
    lo, hi = sorted((s1, s2))
    assert equivalent_transform(lo, "signed_power", zeta) < equivalent_transform(
        hi, "signed_power", zeta)
    assert equivalent_transform(lo, "neg_exp_neg") < equivalent_transform(
        hi, "neg_exp_neg")


def test_neg_exp_neg_links_log_xi_score_to_ps_xi_score(rng):
    # -exp(-S_fdp(log xi)) = -xi(X)**(1+gamma)/xi(Y)**gamma = S_xi(ps, xi)
    gamma, zeta = 1.0, 0.5
    log_xi = custom_phi(lambda z: zeta * np.log(np.asarray(z, float)))
    for _ in range(100):
        b = random_brackets(rng, gamma)
        lhs = equivalent_transform(fdp_score(b, log_xi), "neg_exp_neg")
        rhs = xi_holder_score(b, ps_eta(gamma), power_xi(zeta))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_signed_power_links_holder_to_jhhb(rng):
    gamma, zeta = 1.0, 0.5
    eta = jhhb_eta(zeta, gamma)
    for _ in range(100):
        b = random_brackets(rng, gamma)
        via = -equivalent_transform(-holder_score(b, eta), "signed_power", zeta)
        assert via == pytest.approx(jhhb_score(b, zeta), abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau, zeta, s, expected", [
    ("neg_exp_neg", None, -1000.0, -math.inf),
    ("neg_exp_neg", None, math.inf, -0.0),
    ("signed_power", 2.0, 1e300, math.inf),
    ("signed_power", 2.0, -1e300, -math.inf),
], ids=["exp-overflow", "exp-of-minus-inf", "power-overflow", "negative-power-overflow"])
def test_transform_gives_inf_where_it_overflows(tau, zeta, s, expected):
    out = equivalent_transform(s, tau, zeta)
    assert out == expected and type(out) is float
    # an array maps entry by entry, each as its float call
    batch = equivalent_transform(np.array([s, 0.5]), tau, zeta)
    assert batch.tolist() == [expected, equivalent_transform(0.5, tau, zeta)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau, zeta", [("neg_exp_neg", None), ("signed_power", 0.5)])
def test_transform_of_a_nan_raises_domain_error(tau, zeta):
    with pytest.raises(DomainError, match="float range"):
        equivalent_transform(math.nan, tau, zeta)
    with pytest.raises(DomainError, match="float range"):
        equivalent_transform(np.array([1.0, math.nan]), tau, zeta)


def test_transform_rejects_bad_zeta():
    with pytest.raises(DomainError):
        equivalent_transform(1.0, "signed_power", 0.0)
    with pytest.raises(DomainError):
        equivalent_transform(1.0, "unknown")


# ---------------------------------------------------------------------------
# extended values and errors
# ---------------------------------------------------------------------------


def test_log_generators_give_infinite_divergence_on_disjoint_support():
    b = BracketTriple(0.0, 0.5, 0.5, 1.0)  # X = 0: disjoint supports
    assert fdp_divergence(b, log_phi()) == math.inf
    assert jhhb_divergence(b, 0.0) == math.inf


def test_degenerate_model_errors():
    with pytest.raises(DegenerateModelError):
        holder_score(BracketTriple(0.0, 0.0, 1.0, 1.0), dpd_eta(1.0))
    with pytest.raises(DegenerateModelError):
        xi_holder_score(BracketTriple(0.0, 0.0, 1.0, 1.0), dpd_eta(1.0), identity_xi())


def test_empirical_bracket_has_no_divergence():
    with pytest.raises(DomainError):
        BracketTriple(0.5, 0.5, None, 1.0).require_z()


def test_xi_holder_requires_positive_gamma(b):
    with pytest.raises(DomainError):
        xi_holder_score(BracketTriple(1.0, 1.0, 1.0, 0.0, L=0.0, cross=0.0),
                        dpd_eta(1.0), identity_xi())


# ---------------------------------------------------------------------------
# family specification
# ---------------------------------------------------------------------------


def test_spec_validates_generators(b):
    spec = DivergenceSpec("holder", 1.0, eta=dpd_eta(1.0))
    assert score(b, spec) == pytest.approx(-0.32, abs=1e-14)
    assert divergence(b, spec) == pytest.approx(0.18, abs=1e-14)


def test_spec_rejects_invalid_eta():
    bad = custom_eta(lambda z: -2.0 * np.asarray(z, float) ** 2, gamma=1.0)
    with pytest.raises(GeneratorValidityError, match=r"eta\(1\) != -1"):
        DivergenceSpec("holder", 1.0, eta=bad)


def test_spec_rejects_invalid_phi():
    with pytest.raises(GeneratorValidityError, match="monotonicity"):
        DivergenceSpec("fdpd", 1.0, phi=custom_phi(lambda z: -np.asarray(z, float)))


def test_spec_rejects_xi_holder_at_gamma_zero():
    with pytest.raises(DomainError):
        DivergenceSpec("xi_holder", 0.0, eta=dpd_eta(1.0), xi=identity_xi())


def test_spec_rejects_unknown_family():
    with pytest.raises(DomainError):
        DivergenceSpec("bregman", 1.0)


def test_spec_dispatch_matches_direct_calls(b):
    pairs = [
        (DivergenceSpec("fdpd", 1.0, phi=log_phi()), fdp_divergence(b, log_phi())),
        (DivergenceSpec("jhhb", 1.0, zeta=0.5), jhhb_divergence(b, 0.5)),
        (DivergenceSpec("xi_holder", 1.0, eta=ps_eta(1.0), xi=power_xi(0.5)),
         xi_holder_divergence(b, ps_eta(1.0), power_xi(0.5))),
    ]
    for spec, expected in pairs:
        assert divergence(b, spec) == expected


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), gamma=st.sampled_from([0.5, 1.0, 2.0]))
def test_nonnegativity_property(seed, gamma):
    b = random_brackets(np.random.default_rng(seed), gamma)
    assert holder_divergence(b, dpd_eta(gamma)) >= -1e-10
    assert fdp_divergence(b, log_phi()) >= -1e-10
    assert xi_holder_divergence(b, ps_eta(gamma), power_xi(2.0)) >= -1e-10


def test_gamma_to_zero_continuity_on_gaussian_pairs(gaussian_pair):
    from divkit import GaussianDensity

    pairs = [gaussian_pair, (GaussianDensity(-0.3, 0.9), GaussianDensity(0.5, 1.2))]
    for phi in (identity_phi(), log_phi(), power_phi(0.5)):
        for g, f in pairs:
            d_small = fdp_divergence(bracket_integrals(g, f, 1e-4), phi)
            d_zero = fdp_divergence(bracket_integrals(g, f, 0.0), phi)
            assert abs(d_small - d_zero) <= 1e-3, phi.label()


def test_strict_propriety_for_certified_xi(rng):
    # S(g, f) >= S(g, g) whenever the lifted xi passes its certificate
    from divkit import custom_xi

    for gamma in (0.5, 1.0, 2.0):
        for _ in range(200):
            g, f = random_discrete_pair(rng)
            b_gf = bracket_integrals(g, f, gamma)
            b_gg = bracket_integrals(g, g, gamma)
            for eta in (dpd_eta(gamma), ps_eta(gamma)):
                for xi in (identity_xi(), power_xi(0.5), power_xi(2.0)):
                    assert (xi_holder_score(b_gf, eta, xi)
                            >= xi_holder_score(b_gg, eta, xi) - 1e-10)

    # the concave lift xi(z) = log(1 + z) admits a concrete propriety violation
    concave = custom_xi(lambda z: np.log1p(np.asarray(z, float)))
    g = DiscreteDensity([1.0, 1.0])
    f = scale_values(g, 0.5)
    b_gf = bracket_integrals(g, f, 1.0)
    b_gg = bracket_integrals(g, g, 1.0)
    assert (xi_holder_score(b_gf, ps_eta(1.0), concave)
            < xi_holder_score(b_gg, ps_eta(1.0), concave) - 1e-3)


# ---------------------------------------------------------------------------
# the dispatch stays in the extended codomain
# ---------------------------------------------------------------------------


def test_dispatch_keeps_infinite_values():
    # disjoint supports: X = <g f**gamma> = 0, and log phi(0) = -inf
    b = bracket_integrals(DiscreteDensity([1.0, 0.0]), DiscreteDensity([0.0, 1.0]), 0.5)
    spec = DivergenceSpec("fdpd", 0.5, phi=log_phi())
    assert score(b, spec) == math.inf
    assert divergence(b, spec) == math.inf


@pytest.mark.parametrize("spec", [
    DivergenceSpec("jhhb", 1.0, zeta=2.0),
    DivergenceSpec("fdpd", 1.0, phi=power_phi(2.0)),  # inf - inf in numpy
], ids=["jhhb-zeta-2", "fdpd-power-2"])
def test_dispatch_out_of_float_range_raises_domain_error(spec):
    b = BracketTriple(1e300, 1e300, 1e300, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate in (score, divergence):
            with pytest.raises(DomainError, match="leaves float range at gamma=1.0"):
                evaluate(b, spec)


# ---------------------------------------------------------------------------
# batches of brackets
# ---------------------------------------------------------------------------


def _batch_and_rows(gamma, trials=300, seed=44):
    rng = np.random.default_rng(seed)
    g, f = rng.uniform(0.05, 3.0, (2, trials, 8))
    batch = bracket_integrals(DiscreteDensity(g), DiscreteDensity(f), gamma)
    return batch, [bracket_integrals(DiscreteDensity(gi), DiscreteDensity(fi), gamma)
                   for gi, fi in zip(g, f)]


BATCH_FORMULAS = {
    "holder-dpd": lambda b: holder_score(b, dpd_eta(1.0)),
    "holder-jhhb-0.25": lambda b: holder_score(b, jhhb_eta(0.25, 1.0)),
    "holder-scalar-only-custom": lambda b: holder_score(
        b, custom_eta(lambda z: -math.pow(z, 2.0), 1.0)),
    "holder-divergence-ps": lambda b: holder_divergence(b, ps_eta(1.0)),
    "holder-bhd-1.5": lambda b: holder_score(b, bhd_eta(1.5, 1.0)),  # through signed_power
    "fdpd-power-0.5": lambda b: fdp_score(b, power_phi(0.5)),
    "fdpd-divergence-log": lambda b: fdp_divergence(b, log_phi()),
    "jhhb-0": lambda b: jhhb_score(b, 0.0),
    "jhhb-0.25": lambda b: jhhb_score(b, 0.25),
    "jhhb-divergence-2": lambda b: jhhb_divergence(b, 2.0),
    "jhhb-divergence-0": lambda b: jhhb_divergence(b, 0.0),
    "xi-holder": lambda b: xi_holder_score(b, dpd_eta(1.0), power_xi(0.5)),
    "xi-holder-jhhb-0.25": lambda b: xi_holder_score(b, jhhb_eta(0.25, 1.0), power_xi(0.5)),
    "xi-holder-scalar-only-custom": lambda b: xi_holder_score(
        b, dpd_eta(1.0), custom_xi(math.sqrt)),
    "fdpd-scalar-only-custom": lambda b: fdp_score(b, custom_phi(math.log1p)),
    # a ** on a numpy scalar takes the C library's power, not numpy's
    "fdpd-scalar-only-custom-power": lambda b: fdp_score(
        b, custom_phi(lambda z: math.sqrt(z) + z**1.5)),
    "xi-holder-divergence": lambda b: xi_holder_divergence(b, ps_eta(1.0), power_xi(2.0)),
    "signed-power-transform": lambda b: equivalent_transform(
        holder_score(b, jhhb_eta(0.5, 1.0)), "signed_power", 0.5),
}


@pytest.mark.parametrize("name", sorted(BATCH_FORMULAS))
def test_a_batch_scores_each_row_bit_for_bit(name):
    batch, rows = _batch_and_rows(1.0)
    formula = BATCH_FORMULAS[name]
    assert np.array_equal(formula(batch), [formula(row) for row in rows])


@pytest.mark.parametrize("formula", [
    lambda b: holder_score(b, None),
    lambda b: holder_divergence(b, None),
    lambda b: fdp_score(b, identity_phi()),
    lambda b: fdp_divergence(b, log_phi()),
    lambda b: jhhb_score(b, 0.0),
    lambda b: jhhb_score(b, 0.5),
    lambda b: jhhb_divergence(b, 0.5),
    lambda b: jhhb_divergence(b, 0.0),
], ids=["holder", "holder-divergence", "fdpd", "fdpd-divergence", "jhhb-0", "jhhb-0.5",
        "jhhb-divergence", "jhhb-divergence-0"])
def test_a_gamma_zero_batch_scores_each_row_bit_for_bit(formula):
    batch, rows = _batch_and_rows(0.0)
    assert np.array_equal(formula(batch), [formula(row) for row in rows])


def test_a_float_bracket_gives_python_floats(b, discrete_pair):
    b0 = bracket_integrals(*discrete_pair, 0.0)
    square = custom_eta(lambda z: -z**2.0, 1.0)
    specs = [DivergenceSpec("holder", 1.0, eta=bhd_eta(1.5, 1.0)),
             DivergenceSpec("fdpd", 1.0, phi=power_phi(0.5)),
             DivergenceSpec("jhhb", 1.0, zeta=0.25),
             DivergenceSpec("xi_holder", 1.0, eta=square, xi=custom_xi(math.sqrt)),
             DivergenceSpec("fdpd", 0.0, phi=identity_phi()),
             DivergenceSpec("jhhb", 0.0, zeta=0.0)]
    values = [holder_score(b, square), holder_divergence(b, dpd_eta(1.0)),
              fdp_score(b, custom_phi(math.log1p)), fdp_divergence(b, log_phi()),
              jhhb_score(b, 0.0), jhhb_divergence(b, 0.5),
              xi_holder_score(b, jhhb_eta(0.25, 1.0), power_xi(0.5)),
              xi_holder_divergence(b, ps_eta(1.0), identity_xi()),
              holder_score(b0, None), holder_divergence(b0, None),
              fdp_score(b0, log_phi()), fdp_divergence(b0, power_phi(0.5)),
              jhhb_score(b0, 0.5), jhhb_divergence(b0, 0.0),
              *(evaluate(b0 if spec.gamma == 0.0 else b, spec)
                for spec in specs for evaluate in (score, divergence))]
    # the zeta = 0 log branch at a zero bracket: log X = -inf
    disjoint = BracketTriple(0.0, 1.0, 1.0, 1.0)
    infinite = [jhhb_score(disjoint, 0.0), jhhb_divergence(disjoint, 0.0)]
    assert [type(v) for v in values + infinite] == [float] * (len(values) + 2)
    assert all(math.isfinite(v) for v in values)
    assert infinite == [math.inf, math.inf]


@pytest.mark.parametrize("evaluate", [
    lambda b: fdp_score(b, power_phi(2.0)),  # inf - inf in numpy
    lambda b: fdp_divergence(b, power_phi(2.0)),
    lambda b: jhhb_score(b, 2.0),
    lambda b: jhhb_divergence(b, 2.0),
], ids=["fdpd", "fdpd-divergence", "jhhb", "jhhb-divergence"])
def test_family_functions_called_directly_stay_in_the_codomain(evaluate):
    # no np.errstate here: the family functions keep numpy's overflow quiet
    # themselves, and warnings are errors in this suite
    with pytest.raises(DomainError, match="leaves float range at gamma=1.0"):
        evaluate(BracketTriple(1e300, 1e300, 1e300, 1.0))
    one_row_out = BracketTriple(np.array([1.0, 1e300]), np.array([1.0, 1e300]),
                                np.array([1.0, 1e300]), 1.0)
    with pytest.raises(DomainError, match="leaves float range"):
        evaluate(one_row_out)
    # with warnings recorded, not raised: an error filter would turn numpy's
    # warning into the same DomainError and hide it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for b in (BracketTriple(1e300, 1e300, 1e300, 1.0), one_row_out):
            with pytest.raises(DomainError):
                evaluate(b)
    assert [str(w.message) for w in caught] == []
