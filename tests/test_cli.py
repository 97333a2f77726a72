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
    assert "L" in payload["brackets"] and "Mg" in payload["brackets"]


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
