import math
import warnings

import numpy as np
import pytest

from divkit import (
    DiscreteDensity,
    DivkitError,
    DomainError,
    GaussianDensity,
    GridDensity,
    affine_transform,
    bracket_integrals,
    custom_phi,
    custom_xi,
    density_value,
    equivalent_transform,
    exp_minus_one_phi,
    fdp_divergence,
    fdp_score,
    holder_score,
    identity_phi,
    identity_xi,
    jhhb_eta,
    jhhb_score,
    log_phi,
    power_phi,
    power_xi,
    scale_values,
)
from divkit import checks
from divkit.checks import (
    BATCH_TRIALS,
    check_affine_invariance,
    check_fdps_lower_bound,
    check_uv_consistency,
    equality_condition_probe,
    random_discrete_density,
    random_discrete_pair,
    verify_jhhb_holder_representation,
)

REPORT_KEYS = {"theorem", "parameters", "trials", "seed", "worst_case", "pass"}


# ---------------------------------------------------------------------------
# affine invariance
# ---------------------------------------------------------------------------


def test_gaussian_dpd_doubles_under_sigma_two(gaussian_pair):
    # closed-form oracle: D = (1 - exp(-1/4)) / sqrt(pi) for N(0,1) vs N(1,1)
    g, f = gaussian_pair
    d = fdp_divergence(bracket_integrals(g, f, 1.0), power_phi(1.0))
    assert d == pytest.approx((1.0 - math.exp(-0.25)) / math.sqrt(math.pi), rel=1e-12)
    g_t, f_t = affine_transform(g, 2.0, 0.0), affine_transform(f, 2.0, 0.0)
    d_t = fdp_divergence(bracket_integrals(g_t, f_t, 1.0), power_phi(1.0))
    assert d_t == pytest.approx(2.0 * d, rel=1e-12)
    assert 0.5 * d_t == pytest.approx(d, rel=1e-12)  # h = |sigma|**(-gamma zeta)


@pytest.mark.parametrize("phi", [power_phi(0.5), power_phi(1.0), power_phi(2.0), log_phi()])
@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_invariance_holds_for_the_characterized_class(phi, gamma):
    report = check_affine_invariance(phi, gamma, trials=30, seed=101)
    assert report.characterized
    assert report.passed
    assert report.max_relative_violation <= 1e-5
    assert report.skipped == 0


def test_log_generator_is_scale_invariant_h_equals_one():
    report = check_affine_invariance(log_phi(), 1.0, trials=10, seed=3,
                                     representation="gaussian")
    assert report.zeta == 0.0
    assert report.predicted_scale == pytest.approx(1.0)
    assert report.max_relative_violation <= 1e-12


def test_uncharacterized_generator_yields_a_counterexample():
    report = check_affine_invariance(exp_minus_one_phi(), 1.0, trials=100, seed=11)
    assert not report.characterized
    assert report.max_relative_violation >= 1e-2
    assert not report.passed


def test_invariance_gamma_zero_branch():
    report = check_affine_invariance(power_phi(0.5), 0.0, trials=20, seed=7)
    assert report.passed


def test_invariance_report_shape():
    report = check_affine_invariance(log_phi(), 1.0, trials=5, seed=1).to_report()
    assert set(report) >= REPORT_KEYS
    assert report["seed"] == 1


def test_invariance_fails_when_every_trial_is_skipped():
    # (z**300 - 1)/300 is -1/300 at every Gaussian bracket, where z**300
    # underflows, so every divergence is 0 and every trial is skipped
    report = check_affine_invariance(power_phi(300.0), 1.0, trials=5, seed=1,
                                     representation="gaussian")
    assert (report.skipped, report.used) == (5, 0)
    assert not report.passed


def _reference_affine(phi, gamma, trials, seed, representation, grid_points):
    """The affine-invariance check trial by trial, on single densities drawn
    from the seed's stream one trial at a time: (skipped, worst, predicted
    scale, max violation)."""
    zeta = phi.zeta if phi.kind == "power" else 0.0 if phi.kind == "log" else None
    rng = np.random.default_rng(seed)
    xs = np.linspace(-12.0, 12.0, grid_points)

    def draw_pair():
        mus, sigmas = rng.uniform(-1.5, 1.5, 2), rng.uniform(0.6, 1.8, 2)
        pair = [GaussianDensity(float(m), float(s)) for m, s in zip(mus, sigmas)]
        if representation == "grid":
            pair = [GridDensity(-12.0, float(xs[1] - xs[0]), density_value(d, xs)) for d in pair]
        return pair

    skipped, worst, predicted, max_violation = 0, {"sigma": None, "mu": None, "ratio": None}, \
        None, -1.0
    for _ in range(trials):
        pairs = [draw_pair() for _ in range(1 if zeta is not None else 2)]
        sigma, mu = float(rng.uniform(0.25, 4.0)), float(rng.uniform(-3.0, 3.0))
        ratios = []
        for g, f in pairs:
            moved = [affine_transform(d, sigma, mu) for d in (g, f)]
            if gamma == 0.0:
                moved = [scale_values(d, sigma) for d in moved]
            d_orig = fdp_divergence(bracket_integrals(g, f, gamma), phi)
            d_moved = fdp_divergence(bracket_integrals(*moved, gamma), phi)
            ratios.append(None if min(abs(d_orig), abs(d_moved)) < 1e-12 else d_moved / d_orig)
        if None in ratios:
            skipped += 1
            continue
        # h through numpy's power, as every density formula takes its powers
        h = None if zeta is None else float(
            np.power(sigma, -(gamma * zeta if gamma > 0.0 else zeta)))
        ratio = ratios[0] / ratios[1] if zeta is None else h * ratios[0]
        if abs(ratio - 1.0) > max_violation:
            max_violation, predicted = abs(ratio - 1.0), h
            worst = {"sigma": sigma, "mu": mu, "ratio": ratio}
    return skipped, worst, predicted, max_violation


def _assert_affine_matches_its_reference(phi, gamma, trials, seed, representation,
                                         grid_points):
    report = check_affine_invariance(phi, gamma, trials, seed, representation=representation,
                                     grid_points=grid_points)
    skipped, worst, predicted, max_violation = _reference_affine(
        phi, gamma, trials, seed, representation, grid_points)
    assert (report.skipped, report.worst) == (skipped, worst)
    assert report.predicted_scale == predicted
    assert report.max_relative_violation == max_violation


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("representation", ["grid", "gaussian"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("phi", [log_phi(), power_phi(0.5), exp_minus_one_phi()],
                         ids=["log", "power:0.5", "exp-minus-one"])
def test_affine_invariance_matches_a_trial_by_trial_reference(monkeypatch, phi, gamma,
                                                              representation):
    # 8 Gaussian trials, or 4 trials of 16-point grids, per batch: 19 trials
    # cross two batch boundaries or four
    monkeypatch.setattr(checks, "BATCH_TRIALS", 8)
    _assert_affine_matches_its_reference(phi, gamma, 19, 23, representation, 16)


@pytest.mark.parametrize("gamma, seed, representation", [(1.0, 42, "gaussian"),
                                                         (0.0, 2, "grid")])
def test_affine_invariance_keeps_the_first_of_tied_worst_trials(monkeypatch, gamma, seed,
                                                                representation):
    # log phi predicts h = 1, so violations are a few ulps and tie across
    # batches at these seeds: the first trial to reach the largest is the worst
    monkeypatch.setattr(checks, "BATCH_TRIALS", 8)
    _assert_affine_matches_its_reference(log_phi(), gamma, 19, seed, representation, 16)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phi, gamma, trials, representation, grid_points", [
    (log_phi(), 1.0, BATCH_TRIALS + 37, "gaussian", 4096),
    (exp_minus_one_phi(), 0.0, BATCH_TRIALS + 1, "gaussian", 4096),
    (power_phi(0.5), 0.5, 5, "grid", 4096),  # two 4096-point grids per batch
    (log_phi(), 0.0, 37, "grid", 512),
])
def test_affine_invariance_batches_of_the_default_size_match_the_reference(
        phi, gamma, trials, representation, grid_points):
    _assert_affine_matches_its_reference(phi, gamma, trials, 31, representation, grid_points)


# ---------------------------------------------------------------------------
# representation of the (gamma, zeta) family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("zeta", [0.0, 0.25, 0.5, 1.0, 2.0])
def test_representation_routes_agree(zeta):
    report = verify_jhhb_holder_representation(zeta, 1.0, trials=300, seed=17)
    assert report.passed
    assert report.max_abs_error <= 1e-10


# two full batches and a partial one
BATCHED_TRIALS = 2 * BATCH_TRIALS + 37


def _close(value, reference):
    return abs(value - reference) <= 1e-13 * max(1.0, abs(reference))


def _reference_representation(zeta, gamma, trials, seed):
    """The representation check trial by trial, on the float brackets of
    random_discrete_pair: (max error, worst bracket)."""
    eta = jhhb_eta(zeta, gamma)
    rng = np.random.default_rng(seed)
    max_err, worst = -1.0, {}
    for _ in range(trials):
        b = bracket_integrals(*random_discrete_pair(rng), gamma)
        s = holder_score(b, eta)
        if zeta > 0.0:
            via_holder = -equivalent_transform(-s, "signed_power", zeta)
        else:
            via_holder = -math.log(-s)
        err = abs(via_holder - jhhb_score(b, zeta))
        if err > max_err:
            max_err, worst = err, {"X": b.X, "Y": b.Y, "Z": b.Z, "gamma": gamma}
    return max_err, worst


@pytest.mark.parametrize("seed", [5, 7, 1005])
@pytest.mark.parametrize("zeta, gamma", [(0.0, 1.0), (0.25, 1.0), (0.5, 0.5), (2.0, 2.0)])
def test_representation_matches_a_trial_by_trial_reference(zeta, gamma, seed):
    report = verify_jhhb_holder_representation(zeta, gamma, BATCHED_TRIALS, seed)
    max_err, worst = _reference_representation(zeta, gamma, BATCHED_TRIALS, seed)
    assert report.trials == BATCHED_TRIALS
    assert report.worst == worst
    assert _close(report.max_abs_error, max_err)
    assert report.passed is (max_err <= 1e-10)


def test_representation_affine_case_is_exact():
    report = verify_jhhb_holder_representation(1.0, 1.0, trials=300, seed=17)
    assert report.max_abs_error <= 1e-12


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_hand_example():
    # identity generator on the worked brackets: -0.32 >= -0.25/0.68
    report = check_fdps_lower_bound(identity_phi(), 1.0, trials=1, seed=1)
    assert report.holds
    b_vals = {"X": 0.5, "Y": 0.68}
    lhs = 1.0 * b_vals["Y"] - 2.0 * b_vals["X"]
    rhs = -math.exp(-(math.log(b_vals["Y"]) - 2.0 * math.log(b_vals["X"])))
    assert lhs >= rhs
    assert rhs == pytest.approx(-0.25 / 0.68, abs=1e-14)


def test_lower_bound_is_tight_at_equal_brackets():
    # X = Y makes both sides equal -phi(Y)
    for phi in (identity_phi(), power_phi(2.0)):
        y = 1.7
        lhs = 1.0 * phi(y) - 2.0 * phi(y)
        rhs = -math.exp(-(math.log(phi(y)) - 2.0 * math.log(phi(y))))
        assert lhs == pytest.approx(rhs, rel=1e-14)


@pytest.mark.parametrize("phi,is_fdps", [(identity_phi(), True),
                                         (power_phi(0.5), False),
                                         (power_phi(2.0), False)])
def test_lower_bound_holds_and_flag_matches(phi, is_fdps):
    report = check_fdps_lower_bound(phi, 1.0, trials=2000, seed=23)
    assert report.holds
    assert report.worst_gap >= -1e-12
    assert report.bound_is_fdps is is_fdps
    assert report.invalid_trials == 0


def _reference_lower_bound(phi, gamma, trials, seed, tolerance=1e-12):
    """The lower-bound check trial by trial, on the float brackets of
    random_discrete_pair: (invalid trials, worst gap, tight bracket, pass)."""
    rng = np.random.default_rng(seed)
    worst_gap = tight_gap = math.inf
    tight_at, invalid = None, 0
    for _ in range(trials):
        b = bracket_integrals(*random_discrete_pair(rng, low=0.8), gamma)
        phi_x, phi_y = phi(b.X), phi(b.Y)
        if not (phi_x > 0.0 and phi_y > 0.0):
            invalid += 1
            continue
        rhs = -math.exp(-(gamma * math.log(phi_y) - (1.0 + gamma) * math.log(phi_x)))
        gap = fdp_score(b, phi) - rhs
        worst_gap = min(worst_gap, gap)
        if abs(gap) < tight_gap:
            tight_gap, tight_at = abs(gap), {"X": b.X, "Y": b.Y, "Z": b.Z, "gamma": gamma}
    return (invalid, worst_gap, tight_at if tight_gap <= 1e-9 else None,
            invalid < trials and worst_gap >= -tolerance)


@pytest.mark.parametrize("seed", [5, 7, 1005])
@pytest.mark.parametrize("phi, gamma", [
    (identity_phi(), 1.0),
    (power_phi(0.5), 1.0),
    (log_phi(), 2.0),
    # nonpositive below 20: batches mix valid and invalid trials
    (custom_phi(lambda z: np.asarray(z, float) - 20.0), 0.5),
], ids=["identity", "power-0.5", "log", "shifted"])
def test_lower_bound_matches_a_trial_by_trial_reference(phi, gamma, seed):
    report = check_fdps_lower_bound(phi, gamma, BATCHED_TRIALS, seed)
    invalid, worst_gap, tight_at, passed = _reference_lower_bound(
        phi, gamma, BATCHED_TRIALS, seed)
    assert (report.trials, report.invalid_trials) == (BATCHED_TRIALS, invalid)
    assert report.tight_at == tight_at
    assert report.passed is passed
    assert _close(report.worst_gap, worst_gap)


def test_lower_bound_takes_a_scalar_only_custom_phi():
    phi = custom_phi(lambda z: math.sqrt(z) + z)  # math.sqrt raises on an array
    report = check_fdps_lower_bound(phi, 1.0, trials=300, seed=12)
    invalid, worst_gap, tight_at, passed = _reference_lower_bound(phi, 1.0, 300, 12)
    assert report.passed and passed
    assert (report.invalid_trials, report.tight_at) == (invalid, tight_at)
    assert _close(report.worst_gap, worst_gap)


def test_lower_bound_raises_where_one_trial_leaves_float_range():
    # phi is inf above 30: a trial with X and Y above 30 scores inf - inf,
    # and the finite gaps of the other trials must not hide it
    phi = custom_phi(lambda z: np.where(np.asarray(z, float) > 30.0, np.inf, z))
    with pytest.raises(DomainError, match="leaves float range"):
        check_fdps_lower_bound(phi, 1.0, trials=500, seed=3)


def test_lower_bound_report_shape():
    report = check_fdps_lower_bound(identity_phi(), 0.5, trials=50, seed=2).to_report()
    assert set(report) >= REPORT_KEYS
    assert report["parameters"]["bound_is_fdps"] is True


# ---------------------------------------------------------------------------
# structural consistency and equality conditions
# ---------------------------------------------------------------------------


def test_uv_consistency():
    for xi in (identity_xi(), power_xi(0.5)):
        report = check_uv_consistency(xi, 1.0, trials=25, seed=20240817)
        assert report.passed
        assert report.max_abs_error <= 1e-12
        assert (report.trials, report.seed) == (25, 20240817)


@pytest.mark.parametrize("seed", [3, 11, 1005])
@pytest.mark.parametrize("trials", [1, 2, 37])
def test_uv_consistency_checks_the_draws_of_random_discrete_density(seed, trials):
    # the reference: one density per trial, drawn and bracketed on its own
    rng = np.random.default_rng(seed)
    rows = [random_discrete_density(rng) for _ in range(trials)]
    for xi, gamma in ((identity_xi(), 1.0), (power_xi(0.5), 1.0), (power_xi(2.0), 0.5),
                      (custom_xi(lambda z: math.sqrt(z) * z**0.25), 2.0)):
        selves = [bracket_integrals(g, g, gamma) for g in rows]
        reference = max(abs(xi(b.X) - xi(b.Y)) for b in selves)
        report = check_uv_consistency(xi, gamma, trials, seed)
        assert report.max_abs_error.hex() == reference.hex()
        assert (report.trials, report.seed) == (trials, seed)


def test_uv_consistency_draws_batch_trials_densities_at_a_time(monkeypatch):
    whole = check_uv_consistency(power_xi(0.5), 1.0, 11, 4)
    built = []

    def recording(masses):
        built.append(np.shape(masses)[0])
        return DiscreteDensity(masses)

    monkeypatch.setattr(checks, "BATCH_TRIALS", 4)
    monkeypatch.setattr(checks, "DiscreteDensity", recording)
    batched = check_uv_consistency(power_xi(0.5), 1.0, 11, 4)
    assert built == [4, 4, 3]
    assert batched.max_abs_error.hex() == whole.max_abs_error.hex()


def test_uv_consistency_rejects_no_trials_and_gamma_zero():
    with pytest.raises(DomainError, match=r"^trials must be >= 1, got 0$"):
        check_uv_consistency(identity_xi(), 1.0, 0, 1)
    with pytest.raises(DomainError, match="requires gamma > 0"):
        check_uv_consistency(identity_xi(), 0.0, 5, 1)


def test_uv_consistency_out_of_float_range_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivkitError, match="the xi value leaves float range at gamma=1.0"):
            check_uv_consistency(power_xi(300.0), 1.0, 5, 1)


def test_equality_probe_affine_lift_gives_zero(discrete_pair):
    _, f = discrete_pair
    report = equality_condition_probe(log_phi(), 1.0, f, c=2.0)
    assert abs(report.D_value) <= 1e-10
    assert not report.psi_strictly_convex
    assert report.passed


def test_equality_probe_strictly_convex_lift_is_positive(discrete_pair):
    # hand value: D = 0.68 (3 - 2 sqrt(2)) for g = sqrt(2) f
    _, f = discrete_pair
    report = equality_condition_probe(identity_phi(), 1.0, f, c=2.0)
    assert report.D_value == pytest.approx(0.68 * (3.0 - 2.0 * math.sqrt(2.0)), abs=1e-9)
    assert report.psi_strictly_convex
    assert report.passed


def test_equality_probe_c_one_is_zero_for_any_generator(discrete_pair):
    _, f = discrete_pair
    for phi in (identity_phi(), power_phi(2.0), log_phi()):
        report = equality_condition_probe(phi, 1.0, f, c=1.0)
        assert abs(report.D_value) <= 1e-12
        assert report.passed


def test_equality_probe_gaussian_input():
    report = equality_condition_probe(log_phi(), 0.5, GaussianDensity(0.0, 1.0), c=3.0)
    assert abs(report.D_value) <= 1e-10


def test_equality_probe_rejects_a_batch():
    batch = GaussianDensity(np.zeros(3), np.ones(3))
    with pytest.raises(DivkitError, match="single density"):
        equality_condition_probe(log_phi(), 1.0, batch, 2.0)


def test_equality_probe_rejects_bad_c(discrete_pair):
    _, f = discrete_pair
    with pytest.raises(DomainError):
        equality_condition_probe(log_phi(), 1.0, f, c=-1.0)


def test_checks_are_reproducible():
    a = verify_jhhb_holder_representation(0.5, 1.0, trials=100, seed=9)
    b = verify_jhhb_holder_representation(0.5, 1.0, trials=100, seed=9)
    assert a == b


# every theorem's report, each with a nonzero count where the check has one:
# the lower bound's phi is nonpositive at brackets below 20
REPORTS = {
    "affine-invariance": lambda: check_affine_invariance(
        exp_minus_one_phi(), 0.5, trials=20, seed=3, representation="gaussian"),
    "jhhb-representation": lambda: verify_jhhb_holder_representation(
        0.5, 1.0, trials=20, seed=4),
    "fdps-lower-bound": lambda: check_fdps_lower_bound(
        custom_phi(lambda z: np.asarray(z, float) - 20.0), 0.5, trials=50, seed=5),
    "uv-consistency": lambda: check_uv_consistency(identity_xi(), 1.0, trials=4, seed=6),
    "equality-conditions": lambda: equality_condition_probe(
        log_phi(), 1.0, DiscreteDensity([0.8, 0.2]), c=2.0),
}


@pytest.mark.parametrize("theorem", sorted(REPORTS))
def test_every_report_has_the_one_shape(theorem):
    report = REPORTS[theorem]()
    payload = report.to_report()
    assert set(payload) == REPORT_KEYS
    assert (payload["theorem"], payload["trials"], payload["seed"], payload["pass"]) == (
        theorem, report.trials, report.seed, report.passed)
    assert set(payload["parameters"]) == set(report.PARAMETERS)
    if theorem == "affine-invariance":
        assert report.used + report.skipped == report.trials
    if theorem == "fdps-lower-bound":
        assert report.invalid_trials > 0 and report.valid_trials > 0
        assert report.valid_trials + report.invalid_trials == report.trials
        assert payload["worst_case"]["invalid_trials"] == report.invalid_trials
