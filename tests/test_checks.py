import math

import numpy as np
import pytest

from divkit import (
    DiscreteDensity,
    DomainError,
    GaussianDensity,
    affine_transform,
    bracket_integrals,
    checks,
    custom_phi,
    custom_xi,
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
    xi_holder_score,
)
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


def test_uv_consistency(rng):
    densities = [random_discrete_density(rng) for _ in range(25)]
    for xi in (identity_xi(), power_xi(0.5)):
        report = check_uv_consistency(xi, 1.0, densities)
        assert report.passed
        assert report.max_abs_error <= 1e-12


def test_uv_consistency_mixed_representations(gaussian_pair):
    g, f = gaussian_pair
    report = check_uv_consistency(power_xi(2.0), 0.5, [g, f])
    assert report.passed


@pytest.mark.parametrize("seed", [3, 11, 1005])
@pytest.mark.parametrize("trials", [1, 2, 37])
def test_uv_consistency_of_a_batch_is_that_of_its_rows(seed, trials):
    # the rows of a batch are the densities that one draw per trial gives
    batch = DiscreteDensity(np.random.default_rng(seed).uniform(0.05, 3.0, (trials, 8)))
    rng = np.random.default_rng(seed)
    rows = [random_discrete_density(rng) for _ in range(trials)]
    assert np.array_equal(batch.masses, [row.masses for row in rows])
    for xi, gamma in ((identity_xi(), 1.0), (power_xi(0.5), 1.0), (power_xi(2.0), 0.5),
                      (custom_xi(lambda z: math.sqrt(z) * z**0.25), 2.0)):
        from_batch = check_uv_consistency(xi, gamma, batch)
        assert from_batch == check_uv_consistency(xi, gamma, rows)
        assert from_batch.trials == trials


def test_uv_consistency_pairs_each_density_with_the_next(monkeypatch):
    # the assembled score repeats the xi-Hoelder formula, so the pairs show
    # in the brackets the check scores, not in its error
    scored = []

    def recorded(b, eta, xi):
        scored.append((b.X, b.Y))
        return xi_holder_score(b, eta, xi)

    monkeypatch.setattr(checks, "xi_holder_score", recorded)
    batch = DiscreteDensity(np.random.default_rng(5).uniform(0.05, 3.0, (37, 8)))
    rows = [DiscreteDensity(masses) for masses in batch.masses]
    check_uv_consistency(identity_xi(), 1.0, batch)
    check_uv_consistency(identity_xi(), 1.0, rows)
    pairs = [bracket_integrals(g, f, 1.0) for g, f in zip(rows, rows[1:] + rows[:1])]
    assert len(scored) == 4  # dpd and ps, for each form
    for x, y in scored:
        assert np.array_equal(x, [b.X for b in pairs]) and np.array_equal(y, [b.Y for b in pairs])


def test_uv_consistency_rejects_a_density_that_is_no_batch():
    with pytest.raises(DomainError, match=r"\(trials, atoms\) masses"):
        check_uv_consistency(identity_xi(), 1.0, DiscreteDensity([0.5, 0.5]))
    with pytest.raises(DomainError, match="at least one density"):
        check_uv_consistency(identity_xi(), 1.0, [])


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
    "uv-consistency": lambda: check_uv_consistency(
        identity_xi(), 1.0, [random_discrete_density(np.random.default_rng(6))
                             for _ in range(4)]),
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
