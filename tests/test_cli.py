import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divkit
from divkit import (
    DiscreteDensity,
    GaussianDensity,
    bracket_integrals,
    gaussian_grid,
    power_xi,
    write_density_csv,
)
from divkit.checks import random_discrete_density
from divkit.cli import main


@pytest.fixture
def density_files(tmp_path):
    g_path, f_path = tmp_path / "q.csv", tmp_path / "p.csv"
    write_density_csv(g_path, DiscreteDensity([0.5, 0.5]))
    write_density_csv(f_path, DiscreteDensity([0.8, 0.2]))
    return str(g_path), str(f_path)


def run(args):
    return main(args)


def test_importing_the_cli_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy's import time and shared
    # libraries would otherwise land on every command
    src = str(Path(divkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, divkit.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "False"


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


@pytest.mark.parametrize("kind, plain, header", [
    ("grid", "x,value\n", "\n  \nx,value\n"),
    ("grid", "x,value\n", '"x","value"\n'),
    ("grid", "x,value\n", ' "X" , value\n'),
    ("discrete", "index,mass\n", '\n"index","mass"\n'),
], ids=["grid-blank-first-rows", "grid-quoted", "grid-spaced", "discrete-blank-quoted"])
def test_compute_sniffs_the_header_as_the_readers_take_it(tmp_path, capsys, kind, plain,
                                                          header):
    # the density kind comes from the first non-blank row, cells stripped of
    # quotes and whitespace; the output equals the plain-header file's
    g_body, f_body = {"grid": ("-1,0.25\n0,0.5\n1,0.25\n", "-1,0.2\n0,0.6\n1,0.2\n"),
                      "discrete": ("0,0.5\n1,0.25\n2,0.25\n", "0,0.4\n1,0.4\n2,0.2\n")}[kind]
    g, f = tmp_path / "g.csv", tmp_path / "f.csv"
    f.write_text(plain + f_body)
    args = ["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
            "--g", str(g), "--f", str(f)]
    outputs = []
    for text in (plain, header):
        g.write_text(text + g_body)
        assert run(args) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]


def test_compute_without_a_known_header_exits_3(tmp_path, capsys):
    g = tmp_path / "g.csv"
    g.write_text("\n0,0.5\n1,0.5\n")
    assert run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
                "--g", str(g), "--f", str(g)]) == 3
    assert "expected header 'x,value' or 'index,mass'" in capsys.readouterr().err


def test_compute_on_a_grid_with_a_nan_x_exits_3_naming_it(tmp_path, capsys):
    g = tmp_path / "g.csv"
    g.write_text("x,value\n0,0.2\nnan,0.5\n2,0.3\n")
    assert run(["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
                "--g", str(g), "--f", str(g)]) == 3
    assert capsys.readouterr().err.startswith(f"divkit: {str(g)!r}: x must be finite")


@pytest.mark.parametrize("command, text", [
    (["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
      "--g", "{bad}", "--f", "{bad}"], b"x,value\n0,1\n1,\xff\n"),
    (["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "1",
      "--samples", "{bad}"], b"x\n0.5\n\xff\n"),
    (["compute", "--family", "fdpd", "--phi", "file:{bad}", "--gamma", "1",
      "--g", "{good}", "--f", "{good}"], b"z,value\n0,0\n1,\xff\n"),
], ids=["compute", "estimate", "phi-table"])
def test_a_file_that_is_not_utf8_exits_3_naming_it(tmp_path, capsys, density_files,
                                                    command, text):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    assert run([arg.format(bad=bad, good=density_files[0]) for arg in command]) == 3
    err = capsys.readouterr().err
    # the byte reads as its escape, a cell that is not a number
    assert err.startswith(f"divkit: {str(bad)!r}: ") and "xff" in err and "at line 3" in err


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


def test_verify_equality_conditions_out_of_float_range_exits_3(tmp_path, capsys):
    # c**(1/2) = 1e150 times a mass of 1e300 overflows the scaled density
    path = tmp_path / "big.csv"
    path.write_text("index,mass\n0,1e300\n1,1\n")
    assert run(["verify", "--theorem", "equality-conditions", "--gamma", "1",
                "--c", "1e300", "--f", str(path), "--seed", "1"]) == 3
    assert capsys.readouterr().err == "divkit: masses must be finite\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_uv_consistency_without_trials_exits_3(capsys, trials):
    assert run(["verify", "--theorem", "uv-consistency", "--gamma", "1",
                "--trials", trials, "--seed", "1"]) == 3
    assert capsys.readouterr().err == f"divkit: trials must be >= 1, got {trials}\n"


def test_verify_uv_consistency_checks_one_density_per_trial(tmp_path):
    out = tmp_path / "uv.json"
    assert run(["verify", "--theorem", "uv-consistency", "--xi", "power:0.5", "--gamma", "2",
                "--trials", "37", "--seed", "9", "--out", str(out)]) == 0
    rng = np.random.default_rng(9)
    xi = power_xi(0.5)
    selves = [bracket_integrals(g, g, 2.0) for g in
              (random_discrete_density(rng) for _ in range(37))]
    payload = json.loads(out.read_text())
    assert (payload["trials"], payload["seed"]) == (37, 9)
    assert payload["worst_case"]["max_abs_error"].hex() == max(
        abs(xi(b.X) - xi(b.Y)) for b in selves).hex()


def test_verify_affine_invariance_with_every_trial_skipped_exits_1(tmp_path):
    out = tmp_path / "affine.json"
    assert run(["verify", "--theorem", "affine-invariance", "--phi", "power:300",
                "--gamma", "1", "--trials", "5", "--representation", "gaussian",
                "--seed", "1", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["worst_case"]["skipped"] == 5
    assert payload["pass"] is False


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
    # gamma > 0: the four descents end on the floor, and none starts again there
    assert result["optimizer_converged"] is True
    assert len(result["evaluations"]) == (0 if gamma == "0" else 4)


@pytest.mark.parametrize("phi", ["bdpd:1:1", "exp-minus-one"])
def test_estimate_exits_4_when_the_returned_descent_missed_the_tolerance(tmp_path, phi):
    # F is noise-limited on this sample at gamma = 2: log(1 + z) and
    # e**z - 1 near z = 0 lose about 9 digits, and no descent meets the
    # tolerance
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path,
                  1e4 * divkit.contaminated_sample(700, 0.1, 5.0, [3, 100000000]) - 3)
    out = tmp_path / "fit.json"
    assert run(["estimate", "--family", "fdpd", "--phi", phi, "--gamma", "2",
                "--samples", str(samples_path), "--out", str(out)]) == 4
    result = json.loads(out.read_text())["result"]
    assert result["converged"] is False and result["optimizer_converged"] is False


def test_estimate_improper_gamma_zero_exits_2(tmp_path):
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [0.0, 1.0, 2.0])
    code = run(["estimate", "--family", "fdpd", "--phi", "log", "--gamma", "0",
                "--samples", str(samples_path)])
    assert code == 2


def test_estimate_gamma_zero_mle_near_the_top_of_float_range(tmp_path):
    # the squares of the samples overflow; the MLE sigma, 1e300, does not
    samples_path = tmp_path / "s.csv"
    write_samples(samples_path, [1e300, -1e300])
    out = tmp_path / "fit.json"
    assert run(["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0",
                "--samples", str(samples_path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert (result["mu_hat"], result["sigma_hat"]) == (0.0, 1e300)
    assert result["converged"] is True


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


@pytest.mark.parametrize("args", [
    ["verify", "--theorem", "affine-invariance", "--gamma", "1", "--trials", "3"],
    ["verify", "--theorem", "jhhb-representation", "--zeta", "0.5", "--gamma", "1",
     "--trials", "10"],
    ["verify", "--theorem", "fdps-lower-bound", "--phi", "log", "--gamma", "1",
     "--trials", "3"],
    ["verify", "--theorem", "uv-consistency", "--gamma", "1", "--trials", "3"],
    ["sweep", "--epsilons", "0", "--outlier", "8", "--n", "50",
     "--spec", "family=fdpd,phi=identity,gamma=0.5"],
], ids=["affine-invariance", "jhhb-representation", "fdps-lower-bound", "uv-consistency",
        "sweep"])
def test_a_negative_seed_exits_3(args, capsys, tmp_path):
    out = tmp_path / "r.out"
    assert run(args + ["--seed", "-1", "--out", str(out)]) == 3
    assert "seeds must be nonnegative integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
@pytest.mark.parametrize("theorem", [theorem for theorem, _ in VERIFY_CHECKS])
def test_verify_with_a_tolerance_that_is_no_finite_number_ge_0_exits_3(theorem, tolerance,
                                                                        capsys, tmp_path):
    # exit 1 would report a counterexample
    out = tmp_path / "r.json"
    assert run(["verify", "--theorem", theorem, "--gamma", "1", "--zeta", "0.5",
                "--trials", "5", "--seed", "1", "--tolerance", tolerance,
                "--out", str(out)]) == 3
    assert "tolerance must be a finite number >= 0" in capsys.readouterr().err
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


@pytest.mark.parametrize("flags, family", [
    (["--family", "jhhb", "--zeta", "2"], "jhhb"),
    (["--family", "fdpd", "--phi", "power:2"], "fdpd"),
    (["--family", "fdpd", "--phi", "exp-minus-one"], "fdpd"),
], ids=["jhhb-zeta-2", "fdpd-power-2", "fdpd-exp-minus-one"])
def test_compute_out_of_float_range_exits_3(tmp_path, capsys, flags, family):
    # X = Y = Z = 1e300 are in range; the scores are not.  Warnings are errors
    # in this suite, so numpy's overflow warning would fail the test too.
    path = tmp_path / "big.csv"
    path.write_text("index,mass\n0,1e150\n1,1\n")
    out = tmp_path / "r.json"
    assert run(["compute", *flags, "--gamma", "1", "--g", str(path), "--f", str(path),
                "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"divkit: the {family} score leaves float range at gamma=1.0\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, what", [
    # phi(X) overflows, so every gap would be NaN: no trial may pass silently
    (["--theorem", "fdps-lower-bound", "--phi", "power:300"], "fdpd score"),
    # X**300 overflows in Python floats
    (["--theorem", "jhhb-representation", "--zeta", "300"], "jhhb score"),
    # xi(X) = xi(Y) = inf: inf - inf is no error of 0
    (["--theorem", "uv-consistency", "--xi", "power:300"], "xi value"),
], ids=["fdps-lower-bound", "jhhb-representation", "uv-consistency"])
def test_verify_out_of_float_range_exits_3(tmp_path, capsys, flags, what):
    out = tmp_path / "r.json"
    assert run(["verify", *flags, "--gamma", "1", "--trials", "10", "--seed", "1",
                "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"divkit: the {what} leaves float range at gamma=1.0\n")
    assert not out.exists()
