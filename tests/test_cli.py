import json
import math

import numpy as np
import pytest

from divkit import DiscreteDensity, GaussianDensity, gaussian_grid, write_density_csv
from divkit.cli import main


@pytest.fixture
def density_files(tmp_path):
    g_path, f_path = tmp_path / "q.csv", tmp_path / "p.csv"
    write_density_csv(g_path, DiscreteDensity([0.5, 0.5]))
    write_density_csv(f_path, DiscreteDensity([0.8, 0.2]))
    return str(g_path), str(f_path)


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_dpd_divergence(density_files, tmp_path):
    g, f = density_files
    out = tmp_path / "report.json"
    code = run(["compute", "--family", "holder", "--eta", "dpd", "--gamma", "1",
                "--g", g, "--f", f, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["divergence"] == pytest.approx(0.18, abs=1e-12)
    assert payload["score"] == pytest.approx(-0.32, abs=1e-12)
    assert payload["brackets"]["X"] == pytest.approx(0.5)
    assert payload["brackets"]["Y"] == pytest.approx(0.68)


def test_compute_jhhb_zeta_zero(density_files, tmp_path):
    g, f = density_files
    out = tmp_path / "report.json"
    code = run(["compute", "--family", "jhhb", "--zeta", "0", "--gamma", "1",
                "--g", g, "--f", f, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["divergence"] == pytest.approx(math.log(1.36), abs=1e-12)


def test_compute_is_byte_identical(density_files, tmp_path):
    g, f = density_files
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compute", "--family", "fdpd", "--phi", "power:0.5", "--gamma", "1",
            "--g", g, "--f", f]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compute_grid_densities(tmp_path):
    g_path, f_path = tmp_path / "g.csv", tmp_path / "f.csv"
    write_density_csv(g_path, gaussian_grid(GaussianDensity(0, 1), x_min=-12,
                                            x_max=12, points=1024))
    write_density_csv(f_path, gaussian_grid(GaussianDensity(1, 1), x_min=-12,
                                            x_max=12, points=1024))
    out = tmp_path / "r.json"
    code = run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
                "--g", str(g_path), "--f", str(f_path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    expected = (1.0 - math.exp(-0.25)) / math.sqrt(math.pi)
    assert payload["divergence"] == pytest.approx(expected, rel=1e-5)


def test_compute_gamma_zero_reports_kl_fields(density_files, tmp_path):
    g, f = density_files
    out = tmp_path / "r.json"
    code = run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "0",
                "--g", g, "--f", f, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    brackets = payload["brackets"]
    assert "L" in brackets
    assert brackets["Mg"] == brackets["X"] == brackets["Z"] == 1.0
    assert brackets["Mf"] == brackets["Y"] == 1.0


def test_compute_missing_file_exits_3(density_files):
    g, _ = density_files
    assert run(["compute", "--family", "holder", "--eta", "dpd", "--gamma", "1",
                "--g", g, "--f", "/nonexistent.csv"]) == 3


def test_compute_unknown_generator_exits_3(density_files):
    g, f = density_files
    assert run(["compute", "--family", "holder", "--eta", "nope", "--gamma", "1",
                "--g", g, "--f", f]) == 3


def test_compute_invalid_certificate_exits_2(density_files, tmp_path, capsys):
    # a tabulated eta with eta(1) = -2 fails the normalization certificate
    g, f = density_files
    table = tmp_path / "eta.csv"
    zs = np.geomspace(1e-7, 1e7, 501)
    table.write_text("z,value\n" + "\n".join(
        f"{float(z)!r},{float(-2.0 * z**2)!r}" for z in zs) + "\n")
    code = run(["compute", "--family", "holder", "--eta", f"file:{table}",
                "--gamma", "1", "--g", g, "--f", f])
    assert code == 2
    assert "eta(1) != -1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_representation_passes(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--theorem", "jhhb-representation", "--zeta", "0.5",
                "--gamma", "1", "--trials", "1000", "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["worst_case"]["max_abs_error"] <= 1e-10
    assert payload["seed"] == 7


def test_verify_affine_counterexample_exits_1(tmp_path):
    out = tmp_path / "aff.json"
    code = run(["verify", "--theorem", "affine-invariance", "--phi", "exp-minus-one",
                "--gamma", "1", "--trials", "50", "--seed", "11", "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["pass"] is False
    assert payload["worst_case"]["max_relative_violation"] >= 1e-2


def test_verify_affine_power_passes(tmp_path):
    out = tmp_path / "aff.json"
    code = run(["verify", "--theorem", "affine-invariance", "--phi", "power:1",
                "--gamma", "1", "--trials", "20", "--seed", "11", "--out", str(out)])
    assert code == 0


def test_verify_lower_bound_passes(tmp_path):
    out = tmp_path / "lb.json"
    code = run(["verify", "--theorem", "fdps-lower-bound", "--phi", "identity",
                "--gamma", "1", "--trials", "500", "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["parameters"]["bound_is_fdps"] is True


def test_verify_uv_and_equality(tmp_path):
    out = tmp_path / "uv.json"
    assert run(["verify", "--theorem", "uv-consistency", "--xi", "power:0.5",
                "--gamma", "1", "--trials", "20", "--seed", "2", "--out", str(out)]) == 0
    out2 = tmp_path / "eq.json"
    assert run(["verify", "--theorem", "equality-conditions", "--phi", "log",
                "--gamma", "1", "--c", "2", "--seed", "1", "--out", str(out2)]) == 0
    payload = json.loads(out2.read_text())
    assert abs(payload["worst_case"]["D_value"]) <= 1e-10


def test_verify_requires_seed():
    assert run(["verify", "--theorem", "jhhb-representation", "--zeta", "1",
                "--gamma", "1", "--trials", "10"]) == 3


def test_verify_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "1.json", tmp_path / "2.json"
    args = ["verify", "--theorem", "fdps-lower-bound", "--phi", "power:2",
            "--gamma", "0.5", "--trials", "200", "--seed", "13"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# estimate and sweep
# ---------------------------------------------------------------------------


def write_samples(path, samples):
    path.write_text("x\n" + "\n".join(repr(float(s)) for s in samples) + "\n")


def test_estimate_clean_sample(tmp_path):
    rng = np.random.default_rng(5)
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, rng.standard_normal(2000))
    out = tmp_path / "fit.json"
    code = run(["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
                "--samples", str(samples_path), "--seed", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["result"]["mu_hat"]) <= 0.1
    assert abs(payload["result"]["sigma_hat"] - 1.0) <= 0.1


@pytest.mark.parametrize("samples", [[3.0] * 40, [0.7]], ids=["all-equal", "one-sample"])
@pytest.mark.parametrize("gamma", ["0", "0.5"])
def test_estimate_degenerate_sample_exits_4(tmp_path, samples, gamma):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, samples)
    out = tmp_path / "fit.json"
    code = run(["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", gamma,
                "--samples", str(samples_path), "--out", str(out)])
    assert code == 4
    result = json.loads(out.read_text())["result"]
    assert result["converged"] is False and result["sigma_at_floor"] is True
    assert result["mu_hat"] == pytest.approx(samples[0], abs=1e-12)
    assert result["optimizer_converged"] is True
    assert len(result["evaluations"]) == (0 if gamma == "0" else 5)


def test_estimate_improper_gamma_zero_exits_2(tmp_path):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [0.0, 1.0, 2.0])
    code = run(["estimate", "--family", "fdpd", "--phi", "log", "--gamma", "0",
                "--samples", str(samples_path)])
    assert code == 2


def test_sweep_table(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--epsilons", "0,0.2", "--outlier", "8", "--n", "400",
            "--seed", "3", "--out", str(out),
            "--spec", "family=jhhb,zeta=0,gamma=0.5",
            "--spec", "family=fdpd,phi=identity,gamma=0"]
    assert run(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,family,gamma,zeta,mu_hat,sigma_hat,bias,converged"
    assert len(lines) == 5
    assert lines[2].split(",")[3] == ""  # the likelihood row has no zeta


def test_sweep_is_byte_identical(tmp_path):
    args = ["sweep", "--epsilons", "0,0.1", "--outlier", "8", "--n", "300",
            "--seed", "9", "--spec", "family=jhhb,zeta=0,gamma=0.5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_needs_a_spec():
    assert run(["sweep", "--epsilons", "0", "--outlier", "8", "--seed", "1"]) == 3


def test_sweep_rejects_malformed_spec():
    assert run(["sweep", "--epsilons", "0", "--outlier", "8", "--seed", "1",
                "--spec", "family=jhhb"]) == 3


# ---------------------------------------------------------------------------
# flag text
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [
    ["--family", "holder", "--eta", "dpd:5"],
    ["--family", "fdpd", "--phi", "identity:3"],
    ["--family", "fdpd", "--phi", "power"],
    ["--family", "fdpd", "--phi", "bdpd:1"],
    ["--family", "xi_holder", "--eta", "dpd", "--xi", "power:1:2"],
])
def test_wrong_parameter_count_exits_3(density_files, capsys, flags):
    g, f = density_files
    assert run(["compute", *flags, "--gamma", "1", "--g", g, "--f", f]) == 3
    assert "is written" in capsys.readouterr().err


def test_unknown_generator_lists_the_known_names(density_files, capsys):
    g, f = density_files
    assert run(["compute", "--family", "fdpd", "--phi", "nope", "--gamma", "1",
                "--g", g, "--f", f]) == 3
    err = capsys.readouterr().err
    assert ("identity, log, power:zeta, bdpd:lam1:lam2, exp-minus-one, file:path"
            in err)


def test_spec_label_keeps_every_digit(density_files, tmp_path):
    g, f = density_files
    out = tmp_path / "r.json"
    assert run(["compute", "--family", "fdpd", "--phi", "power:0.123456789",
                "--gamma", "1", "--g", g, "--f", f, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["spec"]["phi"] == "power:0.123456789"


@pytest.mark.parametrize("flags", [
    ["--spec", "family=fdpd,phi=identity,gamma=abc"],
    ["--spec", "family=jhhb,zeta=x,gamma=0.5"],
    ["--spec", "family=jhhb,zeta=0,gamma=0.5", "--epsilons", "0,abc"],
], ids=["gamma", "zeta", "epsilons"])
def test_sweep_non_numeric_values_exit_3(flags, capsys):
    args = ["sweep", "--outlier", "8", "--n", "50", "--seed", "1", *flags]
    if "--epsilons" not in flags:
        args += ["--epsilons", "0"]
    assert run(args) == 3
    assert "expected a numeric parameter" in capsys.readouterr().err


VERIFY_CHECKS = [
    ("affine-invariance", "check_affine_invariance"),
    ("jhhb-representation", "verify_jhhb_holder_representation"),
    ("fdps-lower-bound", "check_fdps_lower_bound"),
    ("uv-consistency", "check_uv_consistency"),
    ("equality-conditions", "equality_condition_probe"),
]


@pytest.mark.parametrize("theorem, check", VERIFY_CHECKS)
@pytest.mark.parametrize("tolerance", [None, "0.25"])
def test_verify_tolerance_reaches_every_check(monkeypatch, tmp_path, theorem, check,
                                              tolerance):
    from divkit import checks

    seen = {}
    real = getattr(checks, check)

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, check, spy)
    args = ["verify", "--theorem", theorem, "--gamma", "1", "--zeta", "0.5",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "r.json")]
    run(args + ([] if tolerance is None else ["--tolerance", tolerance]))
    if tolerance is None:
        assert "tolerance" not in seen  # the check's own default applies
    else:
        assert seen["tolerance"] == 0.25


def test_tight_tolerance_flips_the_equality_probe(tmp_path):
    args = ["verify", "--theorem", "equality-conditions", "--phi", "log",
            "--gamma", "1", "--seed", "1", "--out", str(tmp_path / "r.json")]
    assert run(args) == 0  # D is zero up to rounding, as psi is affine
    assert run(args + ["--tolerance", "1e-20"]) == 1


# ---------------------------------------------------------------------------
# out-of-range flags: each exits 3 with a message, never a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [
    ["--theorem", "affine-invariance", "--trials", "-3"],
    ["--theorem", "jhhb-representation", "--zeta", "0.5", "--trials", "0"],
    ["--theorem", "fdps-lower-bound", "--trials", "0"],
], ids=["affine-invariance", "jhhb-representation", "fdps-lower-bound"])
def test_verify_without_trials_exits_3(flags, capsys, tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", *flags, "--gamma", "0.5", "--seed", "1", "--out", str(out)]) == 3
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_affine_on_a_one_point_grid_exits_3(capsys):
    assert run(["verify", "--theorem", "affine-invariance", "--gamma", "0.5",
                "--trials", "2", "--grid-points", "1", "--seed", "1"]) == 3
    assert "at least 2 points" in capsys.readouterr().err


def test_sweep_with_negative_n_exits_3(capsys):
    assert run(["sweep", "--epsilons", "0,0.1", "--outlier", "6", "--n", "-5",
                "--seed", "1", "--spec", "family=fdpd,phi=identity,gamma=0.5"]) == 3
    assert "n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--family", "jhhb", "--zeta", "nan", "--gamma", "0.5"],
    ["--family", "jhhb", "--zeta", "inf", "--gamma", "0.5"],
    ["--family", "fdpd", "--phi", "identity", "--gamma", "inf"],
    ["--family", "holder", "--eta", "dpd", "--gamma", "nan"],
], ids=["zeta-nan", "zeta-inf", "gamma-inf", "gamma-nan"])
def test_compute_with_a_non_finite_parameter_exits_3(density_files, flags, capsys, tmp_path):
    g, f = density_files
    out = tmp_path / "r.json"
    assert run(["compute", *flags, "--g", g, "--f", f, "--out", str(out)]) == 3
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_with_a_nan_zeta_exits_3(tmp_path, capsys):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [0.0, 1.0, 2.0])
    assert run(["estimate", "--family", "jhhb", "--zeta", "nan", "--gamma", "0.5",
                "--samples", str(samples_path)]) == 3
    assert "zeta must be finite" in capsys.readouterr().err


def test_verify_with_a_nan_zeta_exits_3(capsys):
    assert run(["verify", "--theorem", "jhhb-representation", "--zeta", "nan",
                "--gamma", "0.5", "--trials", "3", "--seed", "1"]) == 3
    assert "finite zeta" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_max_iterations_below_one_exits_3(tmp_path, capsys, command, value):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [0.0, 1.0, 2.0])
    args = (["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
             "--samples", str(samples_path)] if command == "estimate" else
            ["sweep", "--epsilons", "0", "--outlier", "6", "--n", "50", "--seed", "1",
             "--spec", "family=fdpd,phi=identity,gamma=0.5"])
    assert run(args + ["--max-iterations", value]) == 3
    assert f"max_iterations must be >= 1, got {value}" in capsys.readouterr().err


def test_max_iterations_reaches_the_optimizer(tmp_path):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, np.random.default_rng(2).standard_normal(200))
    out = tmp_path / "fit.json"
    args = ["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
            "--samples", str(samples_path), "--out", str(out)]
    assert run(args) == 0
    default = json.loads(out.read_text())["result"]["evaluations"]
    run(args + ["--max-iterations", "1"])
    payload = json.loads(out.read_text())
    assert payload["config"]["max_iterations"] == 1
    assert sum(payload["result"]["evaluations"]) < sum(default)


def test_sweep_without_epsilons_exits_3(capsys):
    assert run(["sweep", "--epsilons", ",", "--outlier", "6", "--seed", "1",
                "--spec", "family=fdpd,phi=identity,gamma=0.5"]) == 3
    assert "--epsilons needs at least one value" in capsys.readouterr().err
