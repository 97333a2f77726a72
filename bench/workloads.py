"""The four workloads: their inputs, the commands of one round, and the check
of each command's output.

A round is a fixed list of ``divkit`` commands.  The seed changes the data
and the command seeds, never the list, so every round of every run attempts
the same operations and the failed share is the same in every run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Op:
    argv: list[str]
    work: int                                   # fits, trials or computes
    check: Callable[[object, str], str | None]  # (exit code, stdout) -> problem
    known_fault: bool = False                   # expected to fail today


@dataclass
class Case:
    ops: list[Op]
    work_unit: str
    # (divkit.cli function, args) calls that set a fresh interpreter up for
    # the workload's commands: their specs, certified on construction
    setup_calls: list


def spec_flags(spec: dict) -> list[str]:
    flags = ["--family", spec["family"], "--gamma", repr(spec["gamma"])]
    for key in ("eta", "phi", "xi", "zeta"):
        if key in spec:
            flags += [f"--{key}", str(spec[key])]
    return flags


def sweep_spec(spec: dict) -> str:
    return ",".join(f"{key}={spec[key]}" for key in
                    ("family", "eta", "phi", "xi", "zeta", "gamma") if key in spec)


def build_spec_call(spec: dict) -> tuple[str, list]:
    return ("build_spec", [spec["family"], spec["gamma"], spec.get("eta"),
                           spec.get("phi"), spec.get("xi"), spec.get("zeta")])


# The estimator mix shared by both estimate workloads: the gamma = 0 MLE, the
# DPD, the gamma-divergence (jhhb zeta = 0) and a xi-Hoelder score.
FIT_SPECS = [
    {"family": "fdpd", "phi": "identity", "gamma": 0.0},
    {"family": "fdpd", "phi": "identity", "gamma": 0.5},
    {"family": "jhhb", "zeta": 0.0, "gamma": 0.5},
    {"family": "xi_holder", "eta": "dpd", "xi": "power:0.5", "gamma": 0.5},
]


def _fit_result(code, stdout: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    result = json.loads(stdout)["result"]
    if result["converged"] is not True or result["sigma_at_floor"] is not False:
        return None, f"fit not converged: {result}"
    return result, None


# ---------------------------------------------------------------------------
# sweep-small-n
# ---------------------------------------------------------------------------

SWEEP_N = 2000
SWEEP_EPSILONS = (0.0, 0.1, 0.2)
SWEEP_OUTLIER = 8.0
SWEEPS_PER_ROUND = 3


def build_sweep(seed: int, workdir: Path) -> Case:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for sweep_seed in rng.integers(1, 2**31, SWEEPS_PER_ROUND):
        argv = ["sweep", "--epsilons", ",".join(map(repr, SWEEP_EPSILONS)),
                "--outlier", repr(SWEEP_OUTLIER), "--n", str(SWEEP_N),
                "--seed", str(int(sweep_seed))]
        for spec in FIT_SPECS:
            argv += ["--spec", sweep_spec(spec)]
        ops.append(Op(argv, len(SWEEP_EPSILONS) * len(FIT_SPECS),
                      _sweep_check(int(sweep_seed))))
    return Case(ops, "fits", [build_spec_call(s) for s in FIT_SPECS])


def _sweep_check(sweep_seed: int):
    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if len(rows) != len(SWEEP_EPSILONS) * len(FIT_SPECS):
            return f"expected {len(SWEEP_EPSILONS) * len(FIT_SPECS)} rows, got {len(rows)}"
        for i, eps in enumerate(SWEEP_EPSILONS):
            x = oracles.contaminated_sample(SWEEP_N, eps, SWEEP_OUTLIER,
                                            [sweep_seed, int(round(1e9 * eps))])
            biases = []
            for j, spec in enumerate(FIT_SPECS):
                row = rows[i * len(FIT_SPECS) + j]
                if (float(row["epsilon"]) != eps or row["family"] != spec["family"]
                        or float(row["gamma"]) != spec["gamma"]):
                    return f"row {row} out of order"
                if row["converged"] != "true":
                    return f"fit not converged: {row}"
                mu, sigma, bias = (float(row[k]) for k in ("mu_hat", "sigma_hat", "bias"))
                if bias != mu:
                    return f"bias {bias!r} is not mu_hat - 0 for {row}"
                problem = oracles.check_fit(x, spec, mu, sigma)
                if problem:
                    return f"epsilon {eps}: {problem}"
                biases.append(abs(bias))
            mle_bias = biases[0]
            # the sample mean is (1-eps) mean(clean) + eps * outlier
            if abs(mle_bias - eps * SWEEP_OUTLIER) > 5.0 / math.sqrt(SWEEP_N):
                return f"epsilon {eps}: MLE bias {mle_bias} far from {eps * SWEEP_OUTLIER}"
            if eps > 0.0 and not all(b < mle_bias for b in biases[1:]):
                return f"epsilon {eps}: a robust |bias| {biases[1:]} >= MLE {mle_bias}"
        return None
    return check


# ---------------------------------------------------------------------------
# estimate-large-n
# ---------------------------------------------------------------------------

ESTIMATE_N = 100_000
ESTIMATE_EPSILONS = (0.1, 0.2)
ESTIMATE_OUTLIER_SIGMAS = 8.0


def build_estimate(seed: int, workdir: Path) -> Case:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k, eps in enumerate(ESTIMATE_EPSILONS):
        mu, sigma = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.5, 2.0))
        n_out = int(round(eps * ESTIMATE_N))
        x = np.concatenate([mu + sigma * rng.standard_normal(ESTIMATE_N - n_out),
                            np.full(n_out, mu + ESTIMATE_OUTLIER_SIGMAS * sigma)])
        x = x[rng.permutation(x.size)]
        path = workdir / f"samples{k}.csv"
        path.write_text("x\n" + "".join(f"{v!r}\n" for v in x.tolist()))
        for spec in FIT_SPECS:
            argv = ["estimate", *spec_flags(spec), "--samples", str(path), "--seed", "0"]
            ops.append(Op(argv, 1, _estimate_check(x, spec, mu)))
    return Case(ops, "fits", [build_spec_call(s) for s in FIT_SPECS])


def _estimate_check(x: np.ndarray, spec: dict, mu_clean: float):
    def check(code, stdout):
        result, problem = _fit_result(code, stdout)
        if problem:
            return problem
        if json.loads(stdout)["config"]["n_samples"] != x.size:
            return "n_samples differs from the file"
        problem = oracles.check_fit(x, spec, result["mu_hat"], result["sigma_hat"])
        if problem:
            return problem
        if spec["gamma"] > 0.0 and not (abs(result["mu_hat"] - mu_clean)
                                        < abs(float(np.mean(x)) - mu_clean)):
            return f"{spec} is no more robust than the sample mean"
        return None
    return check


# ---------------------------------------------------------------------------
# verify-trials
# ---------------------------------------------------------------------------

def build_verify(seed: int, workdir: Path) -> Case:
    """Seven commands, at the acceptance gate's sizes where the gate has one.

    Their costs differ a hundredfold, so the round makes the median command
    sit well apart from its neighbours, or the median latency would jump
    between them: uv-consistency (600 trials, ~55 ms) has the three affine
    commands (~8, ~13, ~37 ms) below it and jhhb (~80 ms) and the two lower
    bounds (~750 ms) above it.
    """
    rng = np.random.default_rng([seed, 3])

    def seed_flag():
        return ["--seed", str(int(rng.integers(1, 2**31)))]

    ops = []
    for phi, bound_is_fdps in (("identity", True), ("power:0.5", False)):
        # log phi(e^t) is t for identity (convex) and log(2(e^(t/2) - 1)) for
        # power:0.5 (concave), so only the first bound is itself a valid score
        argv = ["verify", "--theorem", "fdps-lower-bound", "--phi", phi, "--gamma", "1",
                "--trials", "10000", *seed_flag()]
        ops.append(Op(argv, 10_000, _lower_bound_check(phi, bound_is_fdps)))
    argv = ["verify", "--theorem", "jhhb-representation", "--zeta", "0.5",
            "--gamma", "1", "--trials", "1000", *seed_flag()]
    ops.append(Op(argv, 1000, _representation_check(0.5)))
    argv = ["verify", "--theorem", "uv-consistency", "--xi", "power:0.5", "--gamma", "1",
            "--trials", "600", *seed_flag()]
    ops.append(Op(argv, 600, _uv_check))
    for phi, gamma, zeta, representation in (("log", 1.0, 0.0, "grid"),
                                             ("power:0.5", 0.5, 0.5, "gaussian"),
                                             ("exp-minus-one", 1.0, None, "gaussian")):
        argv = ["verify", "--theorem", "affine-invariance", "--phi", phi,
                "--gamma", repr(gamma), "--trials", "100",
                "--representation", representation, *seed_flag()]
        ops.append(Op(argv, 100, _affine_check(gamma, zeta)))
    setup = [("parse_phi", [p]) for p in ("identity", "power:0.5", "log", "exp-minus-one")]
    return Case(ops, "trials", setup + [("parse_xi", ["power:0.5"])])


def _report(code, stdout, expect_pass: bool) -> tuple[dict | None, str | None]:
    if code != (0 if expect_pass else 1):
        return None, f"exit code {code}, expected {0 if expect_pass else 1}"
    report = json.loads(stdout)
    if report["pass"] is not expect_pass:
        return None, f"pass is {report['pass']}, expected {expect_pass}"
    return report, None


def _lower_bound_check(phi: str, bound_is_fdps: bool):
    def check(code, stdout):
        report, problem = _report(code, stdout, True)
        if problem:
            return problem
        worst = report["worst_case"]
        if report["parameters"]["bound_is_fdps"] is not bound_is_fdps:
            return f"bound_is_fdps is {report['parameters']['bound_is_fdps']}"
        if worst["invalid_trials"] != 0 or worst["worst_gap"] < -1e-12:
            return f"lower bound violated or trials invalid: {worst}"
        tight = worst["tight_at"]
        if tight is not None:
            if oracles.holder_gap(tight, tight["gamma"]) < -1e-12 * tight["X"]:
                return f"tight bracket breaks Hoelder's inequality: {tight}"
            if abs(oracles.lower_bound_gap(tight, phi)) > 1e-8:
                return f"recomputed gap at the tight bracket is not ~0: {tight}"
        return None
    return check


def _representation_check(zeta: float):
    def check(code, stdout):
        report, problem = _report(code, stdout, True)
        if problem:
            return problem
        worst = report["worst_case"]
        if worst["max_abs_error"] > 1e-10:
            return f"max_abs_error {worst['max_abs_error']} > 1e-10"
        if oracles.holder_gap(worst, worst["gamma"]) < -1e-12 * worst["X"]:
            return f"worst bracket breaks Hoelder's inequality: {worst}"
        error = oracles.jhhb_representation_error(worst, zeta)
        if error > 1e-10:
            return f"identity error {error} at the worst bracket"
        return None
    return check


def _uv_check(code, stdout):
    report, problem = _report(code, stdout, True)
    if problem:
        return problem
    if report["worst_case"]["max_abs_error"] > 1e-12:
        return f"max_abs_error {report['worst_case']['max_abs_error']} > 1e-12"
    return None


def _affine_check(gamma: float, zeta: float | None):
    def check(code, stdout):
        report, problem = _report(code, stdout, zeta is not None)
        if problem:
            return problem
        worst = report["worst_case"]
        if worst["skipped"] != 0:
            return f"{worst['skipped']} trials skipped"
        if zeta is None:
            # exp(z) - 1 is not scale-compatible: two pairs under one
            # transform must imply clearly different scales
            if worst["predicted_scale"] is not None or worst["max_relative_violation"] < 1e-2:
                return f"no counterexample found: {worst}"
            return None
        predicted = abs(worst["sigma"]) ** (-gamma * zeta)
        if not oracles.close(worst["predicted_scale"], predicted, 1e-12):
            return f"predicted scale {worst['predicted_scale']} != {predicted}"
        # the reported ratio is already scaled by the predicted h
        violation = abs(worst["ratio"] - 1.0)
        if violation > 1e-5 or worst["max_relative_violation"] > 1e-5:
            return f"scale law violated by {violation}"
        return None
    return check


# ---------------------------------------------------------------------------
# compute-files
# ---------------------------------------------------------------------------

GRID_POINTS = 20_000
DISCRETE_ATOMS = 4096
COMPUTE_GAMMA = 0.5
COMPUTE_SPECS = [
    {"family": "holder", "eta": "dpd"},
    {"family": "holder", "eta": "ps"},
    {"family": "fdpd", "phi": "identity"},
    {"family": "fdpd", "phi": "log"},
    {"family": "fdpd", "phi": "power:0.5"},
    {"family": "jhhb", "zeta": 0.5},
    {"family": "xi_holder", "eta": "dpd", "xi": "power:0.5"},
]
COMPUTE_SPECS_AT_ZERO = [
    {"family": "holder"},
    {"family": "fdpd", "phi": "identity"},
    {"family": "fdpd", "phi": "log"},
    {"family": "jhhb", "zeta": 0.0},
]
# gamma -> 0 limit of the fdpd(log), fdpd(identity) and jhhb(0) divergences
SMALL_GAMMA = 1e-12
SMALL_GAMMA_SPECS = [
    {"family": "fdpd", "phi": "log"},
    {"family": "fdpd", "phi": "identity"},
    {"family": "jhhb", "zeta": 0.0},
]
SMALL_GAMMA_TOL = 1e-6
GRID_REL_TOL = 1e-9
DISCRETE_REL_TOL = 1e-10


def _gaussian_values(xs: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def _write_grid(path: Path, x0: float, dx: float, values: np.ndarray) -> None:
    xs = x0 + dx * np.arange(values.size)
    path.write_text("x,value\n" + "".join(
        f"{x!r},{v!r}\n" for x, v in zip(xs.tolist(), values.tolist())))


def _write_discrete(path: Path, masses: np.ndarray) -> None:
    path.write_text("index,mass\n" + "".join(
        f"{i},{m!r}\n" for i, m in enumerate(masses.tolist())))


def _gaussian_grid_pair(workdir: Path, name: str, g: tuple, f: tuple) -> tuple[str, str]:
    lo = min(g[0], f[0]) - 12.0 * max(g[1], f[1])
    hi = max(g[0], f[0]) + 12.0 * max(g[1], f[1])
    dx = (hi - lo) / (GRID_POINTS - 1)
    xs = lo + dx * np.arange(GRID_POINTS)
    paths = []
    for label, (mu, sigma) in (("g", g), ("f", f)):
        path = workdir / f"{name}_{label}.csv"
        _write_grid(path, lo, dx, _gaussian_values(xs, mu, sigma))
        paths.append(str(path))
    return paths[0], paths[1]


def build_compute(seed: int, workdir: Path) -> Case:
    rng = np.random.default_rng([seed, 4])
    g = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.7, 1.5)))
    f = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.7, 1.5)))
    grid_g, grid_f = _gaussian_grid_pair(workdir, "grid", g, f)
    mg, mf = rng.uniform(0.05, 3.0, DISCRETE_ATOMS), rng.uniform(0.05, 3.0, DISCRETE_ATOMS)
    disc_g, disc_f = str(workdir / "disc_g.csv"), str(workdir / "disc_f.csv")
    _write_discrete(Path(disc_g), mg)
    _write_discrete(Path(disc_f), mf)
    # seed-independent pair N(0,1) against N(1,1), whose KL divergence is 0.5
    fixed_g, fixed_f = _gaussian_grid_pair(workdir, "fixed", (0.0, 1.0), (1.0, 1.0))

    def grid_ref(gamma):
        return oracles.gaussian_brackets(g, f, gamma)

    def disc_ref(gamma):
        return oracles.discrete_brackets(mg, mf, gamma)

    def disc_self_ref(gamma):
        return oracles.discrete_brackets(mg, mg, gamma)

    def grid_self_ref(gamma):
        return oracles.gaussian_brackets(g, g, gamma)

    # Every family at both gammas runs on the grid pair.  The discrete file
    # commands cost a fifth as much, so there are only three of them: a
    # larger share would put the median latency on the edge of the grid
    # commands' cluster instead of near its middle.
    ops = []
    for gamma, specs in ((COMPUTE_GAMMA, COMPUTE_SPECS), (0.0, COMPUTE_SPECS_AT_ZERO)):
        for spec in specs:
            ops.append(_compute_op(dict(spec, gamma=gamma), (grid_g, grid_f),
                                   grid_ref(gamma), GRID_REL_TOL))
    ops.append(_compute_op(dict(COMPUTE_SPECS[0], gamma=COMPUTE_GAMMA), (disc_g, disc_f),
                           disc_ref(COMPUTE_GAMMA), DISCRETE_REL_TOL))
    ops.append(_compute_op(dict(COMPUTE_SPECS_AT_ZERO[2], gamma=0.0), (disc_g, disc_f),
                           disc_ref(0.0), DISCRETE_REL_TOL))
    # D(g, g) = 0 for every family
    ops.append(_compute_op(dict(COMPUTE_SPECS[4], gamma=COMPUTE_GAMMA), (disc_g, disc_g),
                           disc_self_ref(COMPUTE_GAMMA), DISCRETE_REL_TOL, zero=True))
    ops.append(_compute_op(dict(COMPUTE_SPECS_AT_ZERO[3], gamma=0.0), (grid_g, grid_g),
                           grid_self_ref(0.0), GRID_REL_TOL, zero=True))
    for spec in SMALL_GAMMA_SPECS:
        spec = dict(spec, gamma=SMALL_GAMMA)
        argv = ["compute", *spec_flags(spec), "--g", fixed_g, "--f", fixed_f]
        ops.append(Op(argv, 1, _small_gamma_check, known_fault=True))

    setup_specs = [dict(s, gamma=COMPUTE_GAMMA) for s in COMPUTE_SPECS]
    setup_specs += [dict(s, gamma=0.0) for s in COMPUTE_SPECS_AT_ZERO]
    setup_specs += [dict(s, gamma=SMALL_GAMMA) for s in SMALL_GAMMA_SPECS]
    return Case(ops, "computes", [build_spec_call(s) for s in setup_specs])


def _compute_op(spec: dict, paths: tuple[str, str], ref: dict, tol: float,
                zero: bool = False) -> Op:
    argv = ["compute", *spec_flags(spec), "--g", paths[0], "--f", paths[1]]
    expected_score, expected_div = oracles.family_values(spec, ref)

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(stdout)
        for key, value in payload["brackets"].items():
            if not oracles.close(value, ref[key], tol, 1e-300):
                return f"bracket {key} = {value!r}, expected {ref[key]!r}"
        scale = 1.0 + abs(expected_score) + abs(expected_div)
        if not oracles.close(payload["score"], expected_score, tol, tol * scale):
            return f"score {payload['score']!r}, expected {expected_score!r}"
        if not oracles.close(payload["divergence"], expected_div, tol, tol * scale):
            return f"divergence {payload['divergence']!r}, expected {expected_div!r}"
        if zero and abs(payload["divergence"]) > tol * scale:
            return f"D(g, g) = {payload['divergence']!r}, expected 0"
        return None

    return Op(argv, 1, check)


def _small_gamma_check(code, stdout):
    if code != 0:
        return f"exit code {code}"
    divergence = json.loads(stdout)["divergence"]
    if abs(divergence - 0.5) > SMALL_GAMMA_TOL:
        return (f"divergence {divergence!r} at gamma={SMALL_GAMMA} is "
                f"{abs(divergence - 0.5):.2e} from the KL limit 0.5")
    return None


WORKLOADS = {
    "sweep-small-n": build_sweep,
    "estimate-large-n": build_estimate,
    "verify-trials": build_verify,
    "compute-files": build_compute,
}
