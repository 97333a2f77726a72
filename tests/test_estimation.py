import math
import warnings

import numpy as np
import pytest

from divkit import (
    DivergenceSpec,
    DomainError,
    EstimationProblem,
    GaussianDensity,
    GeneratorValidityError,
    GridDensity,
    OptimizerConfig,
    contaminated_sample,
    contamination_sweep,
    custom_phi,
    dpd_eta,
    empirical_brackets,
    empirical_score,
    fit,
    identity_phi,
    log_phi,
    power_phi,
    power_xi,
    ps_eta,
    score,
)
from divkit.estimation import START_OFFSETS, SWEEP_HEADER, gaussian_objective

MLE = DivergenceSpec("fdpd", 0.0, phi=identity_phi())
DPD_HALF = DivergenceSpec("fdpd", 0.5, phi=identity_phi())
GDIV_HALF = DivergenceSpec("jhhb", 0.5, zeta=0.0)


def seeded_contaminated(n=2000, eps=0.2, loc=8.0, seed=1):
    return contaminated_sample(n, eps, loc, [seed, int(round(1e9 * eps))])


# ---------------------------------------------------------------------------
# empirical scores
# ---------------------------------------------------------------------------


def test_empirical_dpd_score_single_sample(gaussian_pair):
    # closed forms: Y = 1/(2 sqrt(pi)), X = f(0) = 1/sqrt(2 pi)
    f, _ = gaussian_pair
    spec = DivergenceSpec("holder", 1.0, eta=dpd_eta(1.0))
    s = empirical_score([0.0], f, spec)
    expected = 1.0 / (2.0 * math.sqrt(math.pi)) - 2.0 / math.sqrt(2.0 * math.pi)
    assert s == pytest.approx(expected, abs=1e-14)
    assert s == pytest.approx(-0.5157897690289872, abs=1e-12)


def test_empirical_ps_score_single_sample(gaussian_pair):
    f, _ = gaussian_pair
    spec = DivergenceSpec("holder", 1.0, eta=ps_eta(1.0))
    x = 1.0 / math.sqrt(2.0 * math.pi)
    y = 1.0 / (2.0 * math.sqrt(math.pi))
    assert empirical_score([0.0], f, spec) == pytest.approx(-x * x / y, abs=1e-14)
    assert empirical_score([0.0], f, spec) == pytest.approx(-0.5641895835477563, abs=1e-12)


def test_score_prefers_model_centered_on_the_data():
    spec = DivergenceSpec("fdpd", 1.0, phi=identity_phi())
    samples = np.zeros(32)
    centered = empirical_score(samples, GaussianDensity(0.0, 1.0), spec)
    offset = empirical_score(samples, GaussianDensity(3.0, 1.0), spec)
    assert centered < offset


def test_gamma_zero_score_is_likelihood_based(gaussian_pair):
    f, _ = gaussian_pair
    samples = np.array([-0.5, 0.25, 1.0])
    expected = -float(np.mean(-0.5 * samples**2 - 0.5 * math.log(2 * math.pi))) + 1.0
    assert empirical_score(samples, f, MLE) == pytest.approx(expected, abs=1e-12)
    # the zeta = 1 family branch differs only by the constant -1
    zeta_one = DivergenceSpec("jhhb", 0.0, zeta=1.0)
    assert empirical_score(samples, f, zeta_one) == pytest.approx(expected - 1.0, abs=1e-12)


def test_gamma_zero_rejects_improper_generators(gaussian_pair):
    f, _ = gaussian_pair
    with pytest.raises(GeneratorValidityError, match="improper"):
        empirical_score([0.0], f, DivergenceSpec("fdpd", 0.0, phi=log_phi()))
    with pytest.raises(GeneratorValidityError):
        empirical_score([0.0], f, DivergenceSpec("jhhb", 0.0, zeta=0.0))
    with pytest.raises(GeneratorValidityError):
        empirical_score([0.0], f, DivergenceSpec("holder", 0.0))


@pytest.mark.parametrize("spec", [MLE, DivergenceSpec("jhhb", 0.0, zeta=1.0), DPD_HALF,
                                  GDIV_HALF], ids=["mle", "jhhb-1-at-0", "dpd", "gdiv"])
def test_empirical_score_is_the_score_of_the_plug_in_bracket(gaussian_pair, spec):
    f, _ = gaussian_pair
    samples = np.array([-0.5, 0.25, 1.0])
    b = empirical_brackets(samples, f, spec.gamma)
    assert empirical_score(samples, f, spec) == score(b, spec)


def test_gamma_zero_score_rejects_an_empty_sample(gaussian_pair):
    f, _ = gaussian_pair
    with pytest.raises(DomainError):
        empirical_score([], f, MLE)


def test_gamma_zero_score_is_inf_where_the_model_vanishes():
    f = GridDensity(0.0, 1.0, np.array([0.0, 1.0, 0.0]))
    assert empirical_score([0.5, 5.0], f, MLE) == math.inf


def test_empirical_score_survives_an_underflowing_sigma():
    samples = np.random.default_rng(0).standard_normal(50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = empirical_score(samples, GaussianDensity(0.0, 1e-300), DPD_HALF)
    assert isinstance(value, float) and math.isfinite(value)


# ---------------------------------------------------------------------------
# the gradient objective
# ---------------------------------------------------------------------------

OBJECTIVE_SPECS = [
    DivergenceSpec("holder", 0.5, eta=dpd_eta(0.5)),
    DivergenceSpec("holder", 0.5, eta=ps_eta(0.5)),
    DivergenceSpec("fdpd", 0.5, phi=identity_phi()),
    DivergenceSpec("fdpd", 0.5, phi=log_phi()),
    DivergenceSpec("fdpd", 0.5, phi=power_phi(0.5)),
    DivergenceSpec("jhhb", 0.5, zeta=0.0),
    DivergenceSpec("jhhb", 0.5, zeta=0.5),
    DivergenceSpec("xi_holder", 0.5, eta=dpd_eta(0.5), xi=power_xi(0.5)),
]


@pytest.mark.parametrize("spec", OBJECTIVE_SPECS, ids=lambda s: str(s.describe()))
@pytest.mark.parametrize("mu, sigma", [(0.3, 1.2), (1.5, 0.6)])
def test_objective_matches_the_empirical_score(spec, mu, sigma):
    samples = seeded_contaminated(n=500)
    objective = gaussian_objective(samples, spec, 1e-6)

    def reference(m, u):
        return empirical_score(samples, GaussianDensity(m, math.exp(u)), spec)

    u, h = math.log(sigma), 1e-5
    value, d_mu, d_u = objective(mu, u)
    assert value == pytest.approx(reference(mu, u), rel=1e-12, abs=1e-14)
    fd_mu = (reference(mu + h, u) - reference(mu - h, u)) / (2 * h)
    fd_u = (reference(mu, u + h) - reference(mu, u - h)) / (2 * h)
    scale = abs(value) + 1.0
    assert d_mu == pytest.approx(fd_mu, rel=1e-6, abs=1e-8 * scale)
    assert d_u == pytest.approx(fd_u, rel=1e-6, abs=1e-8 * scale)


def test_objective_is_flat_in_log_sigma_below_the_floor():
    samples = seeded_contaminated(n=200)
    objective = gaussian_objective(samples, DPD_HALF, 1e-3)
    below = objective(0.1, math.log(1e-5))
    assert below[2] == 0.0
    assert below[:2] == objective(0.1, math.log(1e-3))[:2]


def test_objective_stays_finite_far_from_the_data():
    samples = seeded_contaminated(n=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in OBJECTIVE_SPECS:
            values = gaussian_objective(samples, spec, 1e-6)(1e6, math.log(0.01))
            assert all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_clean_fit_recovers_standard_normal():
    rng = np.random.default_rng(42)
    res = fit(EstimationProblem(rng.standard_normal(2000), DPD_HALF))
    assert abs(res.mu) <= 0.1
    assert abs(res.sigma - 1.0) <= 0.1
    assert res.converged
    # one descent from the initial point and one from each of its offsets
    assert len(res.evaluations) == 1 + len(START_OFFSETS)


def test_fit_never_worse_than_initial_point():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(500)
    problem = EstimationProblem(samples, DPD_HALF,
                                OptimizerConfig(initial=(2.0, 3.0)))
    res = fit(problem)
    initial_score = empirical_score(samples, GaussianDensity(2.0, 3.0), DPD_HALF)
    assert res.score <= initial_score


def test_degenerate_data_hits_sigma_floor():
    res = fit(EstimationProblem(np.full(40, 3.0), DivergenceSpec("fdpd", 1.0,
                                                                 phi=identity_phi())))
    assert res.mu == pytest.approx(3.0, abs=1e-6)
    assert res.sigma_at_floor
    assert not res.converged


def test_mle_fit_matches_the_analytic_minimizer():
    samples = seeded_contaminated()
    res = fit(EstimationProblem(samples, MLE))
    assert res.mu == pytest.approx(float(np.mean(samples)), abs=1e-5)
    assert res.sigma == pytest.approx(float(np.std(samples)), abs=1e-4)


@pytest.mark.parametrize("spec", [MLE, DivergenceSpec("jhhb", 0.0, zeta=1.0),
                                  DivergenceSpec("fdpd", 0.0, phi=power_phi(1.0))],
                         ids=["fdpd-identity", "jhhb-1", "fdpd-power-1"])
def test_gamma_zero_fit_is_the_sample_mean_and_std(spec):
    samples = seeded_contaminated(n=777, eps=0.1)
    res = fit(EstimationProblem(samples, spec))
    assert res.mu == float(np.mean(samples))
    assert res.sigma == float(np.std(samples))
    assert res.score == empirical_score(samples, GaussianDensity(res.mu, res.sigma), spec)
    assert res.converged and res.evaluations == ()


def test_gamma_zero_fit_rejects_improper_generators():
    with pytest.raises(GeneratorValidityError):
        fit(EstimationProblem(seeded_contaminated(n=50), DivergenceSpec("jhhb", 0.0, zeta=0.0)))


@pytest.mark.parametrize("spec", [DPD_HALF, DivergenceSpec("jhhb", 3.0, zeta=0.5)],
                         ids=["dpd", "jhhb-3"])
@pytest.mark.parametrize("initial", [(0.0, 1e6), (0.0, 1e-5), (50.0, 0.01)])
def test_fit_from_a_far_initial_point_reaches_the_minimum(spec, initial):
    samples = seeded_contaminated(n=500)
    ref = fit(EstimationProblem(samples, spec))
    res = fit(EstimationProblem(samples, spec, OptimizerConfig(initial=initial)))
    assert res.converged
    assert res.mu == pytest.approx(ref.mu, abs=1e-6)
    assert res.sigma == pytest.approx(ref.sigma, abs=1e-6)


def test_fit_holds_sigma_inside_float_range():
    # from sigma = 1e-3 the score of N(mu, sigma) with the ps generator at
    # gamma = 2 falls steeply, and a line search tries log sigma past 709
    spec = DivergenceSpec("holder", 2.0, eta=ps_eta(2.0))
    samples = contaminated_sample(500, 0.2, 8.0, [1, 2])
    res = fit(EstimationProblem(samples, spec, OptimizerConfig(initial=(0.0, 1e-3))))
    assert math.isfinite(res.score)


def test_fit_emits_no_warning():
    samples = seeded_contaminated()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in [MLE, DPD_HALF, GDIV_HALF] + OBJECTIVE_SPECS:
            fit(EstimationProblem(samples, spec))


def test_fit_reports_evaluations_per_start():
    res = fit(EstimationProblem(seeded_contaminated(), DPD_HALF))
    assert len(res.evaluations) == 4 and all(k > 0 for k in res.evaluations)
    assert res.optimizer_converged
    payload = res.to_dict()
    assert payload["evaluations"] == list(res.evaluations)
    assert payload["optimizer_converged"] is True


def test_contaminated_fit_bias_ordering():
    samples = seeded_contaminated()
    mu_mle = abs(fit(EstimationProblem(samples, MLE)).mu)
    mu_dpd = abs(fit(EstimationProblem(samples, DPD_HALF)).mu)
    mu_gdiv = abs(fit(EstimationProblem(samples, GDIV_HALF)).mu)
    assert mu_gdiv <= 0.3
    assert abs(mu_mle - 1.6) <= 0.15 * 1.6
    assert mu_gdiv < mu_dpd < mu_mle


def test_gdiv_fit_agrees_with_grid_search_oracle():
    # brute-force (mu, sigma) grid evaluation of the same objective
    samples = seeded_contaminated()
    res = fit(EstimationProblem(samples, GDIV_HALF))
    mus = np.linspace(-1.0, 3.0, 161)
    sigmas = np.linspace(0.5, 4.0, 71)
    best = math.inf
    best_mu = None
    for mu in mus:
        for sigma in sigmas:
            x = float(np.mean((np.exp(-0.5 * ((samples - mu) / sigma) ** 2)
                               / (sigma * math.sqrt(2 * math.pi))) ** 0.5))
            y = (2 * math.pi * sigma**2) ** -0.25 / math.sqrt(1.5)
            val = 0.5 * math.log(y) - 1.5 * math.log(x)
            if val < best:
                best, best_mu = val, mu
    assert abs(res.mu - best_mu) <= 0.025  # within one grid cell


def test_equivalent_scores_share_the_minimizer():
    # functional score with phi = log xi vs xi score with the ps generator
    zeta = 0.5
    log_xi = custom_phi(lambda z: zeta * np.log(np.asarray(z, float)),
                        lambda z: zeta / np.asarray(z, float))
    spec_a = DivergenceSpec("fdpd", 0.5, phi=log_xi)
    spec_b = DivergenceSpec("xi_holder", 0.5, eta=ps_eta(0.5), xi=power_xi(zeta))
    samples = seeded_contaminated()
    res_a = fit(EstimationProblem(samples, spec_a))
    res_b = fit(EstimationProblem(samples, spec_b))
    assert abs(res_a.mu - res_b.mu) <= 1e-4
    assert abs(res_a.sigma - res_b.sigma) <= 1e-4


def test_affine_equivariance_of_the_fit():
    spec = DivergenceSpec("jhhb", 0.5, zeta=0.5)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1500) + 0.3
    b = -1.25
    base = fit(EstimationProblem(x, spec))
    for a in (2.5, 1e-4, 1e4):
        moved = fit(EstimationProblem(a * x + b, spec))
        assert moved.mu == pytest.approx(a * base.mu + b, abs=1e-3 * min(a, 1.0))
        assert moved.sigma == pytest.approx(a * base.sigma, abs=1e-3 * min(a, 1.0))


def test_problem_validation():
    with pytest.raises(DomainError):
        EstimationProblem(np.array([]), MLE)
    with pytest.raises(DomainError):
        EstimationProblem(np.array([np.nan]), MLE)


# ---------------------------------------------------------------------------
# contamination sweep
# ---------------------------------------------------------------------------


def test_sweep_is_deterministic_and_ordered():
    specs = [GDIV_HALF, DPD_HALF, MLE]
    rows_a = contamination_sweep([0.0, 0.1], 8.0, specs, n=400, seed=5)
    rows_b = contamination_sweep([0.0, 0.1], 8.0, specs, n=400, seed=5)
    assert rows_a == rows_b
    assert len(rows_a) == 6
    assert [r.epsilon for r in rows_a] == [0.0, 0.0, 0.0, 0.1, 0.1, 0.1]
    assert rows_a[0].zeta == 0.0 and rows_a[2].zeta is None


def test_sweep_clean_rows_have_small_bias():
    specs = [GDIV_HALF, DPD_HALF, MLE]
    rows = contamination_sweep([0.0], 8.0, specs, n=2000, seed=11)
    assert all(abs(r.bias) <= 0.1 for r in rows)


def test_sweep_mle_bias_tracks_the_contamination_mean():
    rows = contamination_sweep([0.1, 0.2], 8.0, [MLE], n=2000, seed=1)
    for row in rows:
        assert row.bias == pytest.approx(row.epsilon * 8.0, rel=0.15)


def test_bias_is_monotone_in_gamma():
    # graded regime: outliers at 4 so every gamma level reacts differently
    specs = [MLE] + [DivergenceSpec("fdpd", g, phi=identity_phi())
                     for g in (0.25, 0.5, 1.0)]
    rows = contamination_sweep([0.2], 4.0, specs, n=4000, seed=2)
    biases = [abs(r.bias) for r in rows]
    assert all(biases[i + 1] <= biases[i] + 0.02 for i in range(3))
    assert biases[0] > 0.5  # likelihood fit is pulled far


def test_sweep_rejects_out_of_range_epsilon():
    with pytest.raises(DomainError):
        contamination_sweep([0.6], 8.0, [MLE], n=100, seed=1)


def test_sweep_csv_row_shape():
    rows = contamination_sweep([0.0], 8.0, [MLE], n=200, seed=3)
    assert len(rows[0].as_csv_row()) == len(SWEEP_HEADER)
