"""The golden CLI battery: fixed commands on fixed input files, and their records.

Every command runs through ``divkit.cli.main`` in one process, in a working
directory that holds the inputs under fixed relative names, so the paths in
the reports do not depend on where the battery runs.  A record holds the
command's exit code, standard output and standard error.  The records file
also holds the platform they were taken on: the numpy and Python versions,
the machine and the CPU features numpy dispatches to, since a SIMD ``exp``
or ``log`` may round differently from the C library's.

``regenerate.py`` writes the records; ``tests/test_golden.py`` replays them
in one process, and ``replay.py`` replays each in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

RECORDS = Path(__file__).with_name("records.json")

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

HELP_WIDTH = "80"  # argparse wraps its help at the COLUMNS it reads

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

GRID_POINTS = 401


def write_inputs(directory: Path) -> None:
    """The input files, each under its fixed name in ``directory``."""
    lo, hi = -12.0, 13.0
    dx = (hi - lo) / (GRID_POINTS - 1)
    for name, mu in (("g.csv", 0.0), ("f.csv", 1.0)):
        rows = []
        for i in range(GRID_POINTS):
            x = lo + dx * i
            rows.append(f"{x!r},{math.exp(-0.5 * (x - mu) ** 2) / math.sqrt(2.0 * math.pi)!r}\n")
        (directory / name).write_text("x,value\n" + "".join(rows))
    for name, masses in (("q.csv", (0.5, 0.25, 0.125, 0.125)), ("p.csv", (0.1, 0.2, 0.3, 0.4))):
        for prefix, scale in (("", 1.0), ("tiny_", 1e-300), ("huge_", 1e300)):
            (directory / (prefix + name)).write_text(
                "index,mass\n" + "".join(f"{i},{m * scale!r}\n" for i, m in enumerate(masses)))
    rng = np.random.default_rng(20261019)
    write_samples(directory / "s.csv", np.concatenate([0.5 + rng.standard_normal(270),
                                                       np.full(30, 8.0)]))
    # a sample large enough that a fit descends on a subsample first
    write_samples(directory / "s-20000.csv",
                  contaminated(20261020, 20_000, 2_000, 15.0, loc=-1.0, scale=2.0))
    # samples whose fits bracket one block of four 5000-value rows, and of
    # four 8192-value rows
    for n, seed in ((5000, 20261021), (8192, 20261022)):
        write_samples(directory / f"s-{n}.csv", contaminated(seed, n, n // 10, 6.0))
    # the shape of the benchmark's large fits: 10^5 samples, 10% of them
    # outliers at 8 sigma
    write_samples(directory / "s-100000.csv", contaminated(20261023, 100_000, 10_000, 8.5))
    # the same shape at 10^4 samples, just over one block: the smallest
    # fits that run in two phases
    write_samples(directory / "s-10000.csv", contaminated(20261024, 10_000, 1_000, 8.5))
    # scaled draws on which a fit fails inside an evaluation of its score
    draws = np.random.default_rng(1).normal(0.5, 1.0, 1000)
    for name, scaled in (("s-1e-3.csv", 1e-3 * draws + 0.2), ("s-1e150.csv", 1e150 * draws)):
        write_samples(directory / name, scaled)
    # generator tables: an identity-like (z, value) line for phi and xi, and
    # the dpd eta at gamma = 0.5 (exact on its knots, linear between them)
    knots = [0.0, 0.5, 1.0, 2.0, 4.0, 1e3, 1e6]
    (directory / "line.csv").write_text(
        "z,value\n" + "".join(f"{z!r},{z!r}\n" for z in knots))
    (directory / "eta.csv").write_text(
        "z,value\n" + "".join(f"{z!r},{0.5 - 1.5 * z!r}\n" for z in knots))
    (directory / "falling.csv").write_text("z,value\n0,1\n1,0\n2,-1\n")
    (directory / "flat.csv").write_text("z,value\n0,1\n1,1\n2,2\n")  # max(z, 1)
    (directory / "bad.csv").write_text("a,b\n1,2\n")
    # a byte-order mark before a grid's header and before a headerless sample
    (directory / "bom-g.csv").write_bytes(b"\xef\xbb\xbf" + (directory / "g.csv").read_bytes())
    (directory / "bom-s.csv").write_bytes(b"\xef\xbb\xbf1.0\n2.0\n3.0\n10.0\n")


def write_samples(path: Path, samples: np.ndarray) -> None:
    """A samples file: the header ``x``, then each value as its ``repr``."""
    path.write_text("x\n" + "".join(f"{v!r}\n" for v in samples.tolist()))


def contaminated(seed: int, n: int, outliers: int, at: float, loc: float = 0.5,
                 scale: float = 1.0) -> np.ndarray:
    """n values in a seeded random order: n - outliers draws of
    loc + scale N(0, 1), and ``outliers`` values equal to ``at``."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.concatenate([loc + scale * rng.standard_normal(n - outliers),
                                           np.full(outliers, at)]))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# each family with every preset and a file: table, as (family, slot flags)
SPECS = [
    *(("holder", ["--eta", eta]) for eta in ("dpd", "ps", "bhd:2", "jhhb:0", "jhhb:0.5",
                                              "file:eta.csv")),
    *(("fdpd", ["--phi", phi]) for phi in ("identity", "log", "power:0.5", "power:2",
                                            "bdpd:1:1", "exp-minus-one", "file:line.csv")),
    *(("jhhb", ["--zeta", zeta]) for zeta in ("0", "0.5", "1", "2")),
    *(("xi_holder", ["--eta", "dpd", "--xi", xi]) for xi in ("identity", "power:0.5",
                                                              "power:2", "file:line.csv")),
]


def commands() -> list[tuple[list[str], bool]]:
    """Each command's argv, and whether argparse writes its output (help, usage)."""
    out = [(argv, True) for argv in (["--help"], [], ["frobnicate"], ["verify"])]
    out += [([command, "--help"], True) for command in ("compute", "verify", "estimate",
                                                         "sweep")]
    for gamma in ("0", "1e-12", "0.5", "1", "2"):
        for family, flags in SPECS:
            for g, f in (("g.csv", "f.csv"), ("q.csv", "p.csv")):
                out.append((["compute", "--family", family, "--gamma", gamma, *flags,
                             "--g", g, "--f", f], False))
    # masses near the bottom and the top of float range
    for gamma in ("0", "0.5"):
        for family, flags in (("holder", ["--eta", "dpd"]), ("fdpd", ["--phi", "identity"]),
                              ("fdpd", ["--phi", "log"]), ("jhhb", ["--zeta", "0"])):
            for g, f in (("tiny_q.csv", "tiny_p.csv"), ("huge_q.csv", "huge_p.csv")):
                out.append((["compute", "--family", family, "--gamma", gamma, *flags,
                             "--g", g, "--f", f], False))
    out += [(argv, False) for argv in [
        ["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
         "--g", "g.csv", "--f", "missing.csv"],
        ["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
         "--g", "bad.csv", "--f", "f.csv"],
        ["compute", "--family", "fdpd", "--phi", "file:falling.csv", "--gamma", "0.5",
         "--g", "g.csv", "--f", "f.csv"],
        ["compute", "--family", "fdpd", "--phi", "nonesuch", "--gamma", "0.5",
         "--g", "g.csv", "--f", "f.csv"],
        ["compute", "--family", "fdpd", "--gamma", "0.5", "--g", "g.csv", "--f", "f.csv"],
        ["compute", "--family", "fdpd", "--phi", "identity", "--gamma", "0.5",
         "--g", "bom-g.csv", "--f", "f.csv"],
        ["estimate", "--family", "fdpd", "--phi", "identity", "--gamma", "0",
         "--samples", "bom-s.csv", "--seed", "0"],
    ]]
    # power lifts flat to rounding near z = 1e-6, a lift flat up to z = 1, and
    # generators whose certificate grid leaves float range
    out += [(["compute", "--family", family, "--gamma", gamma, *flags,
              "--g", "q.csv", "--f", "p.csv"], False) for family, gamma, flags in [
        *(("fdpd", "1", ["--phi", phi]) for phi in ("power:2.5", "power:3", "power:5",
                                                    "power:300", "file:flat.csv")),
        ("holder", "400", ["--eta", "ps"]),
        ("holder", "1", ["--eta", "jhhb:400"]),
        ("xi_holder", "1", ["--eta", "dpd", "--xi", "power:400"]),
    ]]
    verify = []
    for gamma in ("0", "1"):
        for phi in ("identity", "log", "power:0.5", "exp-minus-one"):
            for representation in ("grid", "gaussian"):
                verify.append(["--theorem", "affine-invariance", "--phi", phi,
                               "--gamma", gamma, "--trials", "20", "--grid-points", "256",
                               "--representation", representation, "--seed", "3"])
    for gamma in ("0.5", "2"):
        for zeta in ("0", "0.5", "2"):
            verify.append(["--theorem", "jhhb-representation", "--zeta", zeta,
                           "--gamma", gamma, "--trials", "50", "--seed", "4"])
        for phi in ("identity", "power:0.5", "log"):
            verify.append(["--theorem", "fdps-lower-bound", "--phi", phi, "--gamma", gamma,
                           "--trials", "200", "--seed", "5"])
        for xi in ("identity", "power:0.5", "power:2"):
            verify.append(["--theorem", "uv-consistency", "--xi", xi, "--gamma", gamma,
                           "--trials", "50", "--seed", "6"])
    for phi in ("log", "identity", "power:2"):
        for c in ("2", "1"):
            verify.append(["--theorem", "equality-conditions", "--phi", phi, "--gamma", "1",
                           "--c", c, "--seed", "1"])
    verify += [
        ["--theorem", "equality-conditions", "--gamma", "1", "--f", "g.csv", "--seed", "1"],
        ["--theorem", "equality-conditions", "--gamma", "0", "--seed", "1"],
        # Z = c <f**2> is subnormal at c = 1e-320 and normal at 1e-300
        ["--theorem", "equality-conditions", "--phi", "log", "--gamma", "1",
         "--c", "1e-320", "--seed", "1"],
        ["--theorem", "equality-conditions", "--phi", "log", "--gamma", "1",
         "--c", "1e-300", "--seed", "1"],
        ["--theorem", "fdps-lower-bound", "--gamma", "0", "--seed", "1"],
        # phi(X) overflows and phi(Y) does not: both sides -inf, their gap NaN
        ["--theorem", "fdps-lower-bound", "--phi", "exp-minus-one", "--gamma", "5",
         "--trials", "1", "--seed", "61"],
        ["--theorem", "jhhb-representation", "--gamma", "1", "--seed", "1"],
    ]
    # trials that fill more than one batch at the default sizes, the last one
    # partly: 4096-point grids, and BATCH_TRIALS = 1024 discrete pairs
    for phi, gamma in (("log", "0"), ("log", "0.5"), ("log", "1"), ("exp-minus-one", "1")):
        verify.append(["--theorem", "affine-invariance", "--phi", phi, "--gamma", gamma,
                       "--trials", "9", "--grid-points", "4096", "--representation", "grid",
                       "--seed", "8"])
    verify += [
        ["--theorem", "fdps-lower-bound", "--phi", "power:0.5", "--gamma", "1",
         "--trials", "2085", "--seed", "9"],
        ["--theorem", "jhhb-representation", "--zeta", "0.5", "--gamma", "1",
         "--trials", "2085", "--seed", "9"],
        ["--theorem", "uv-consistency", "--xi", "power:2", "--gamma", "2",
         "--trials", "2085", "--seed", "9"],
    ]
    out += [(["verify", *argv], False) for argv in verify]
    fits = [["--family", "fdpd", "--phi", "identity", "--gamma", "0"],
            ["--family", "fdpd", "--phi", "identity", "--gamma", "0.5"],
            ["--family", "fdpd", "--phi", "log", "--gamma", "0.5"],
            ["--family", "jhhb", "--zeta", "0", "--gamma", "0.5"],
            ["--family", "holder", "--eta", "ps", "--gamma", "1"],
            ["--family", "xi_holder", "--eta", "dpd", "--xi", "power:0.5", "--gamma", "0.5"],
            ["--family", "fdpd", "--phi", "power:0.5", "--gamma", "0"],
            ["--family", "fdpd", "--phi", "power:3", "--gamma", "1"],
            ["--family", "fdpd", "--phi", "power:300", "--gamma", "1"]]
    out += [(["estimate", *flags, "--samples", "s.csv", "--seed", "0"], False)
            for flags in fits]
    out += [(["estimate", *flags, "--samples", "s-20000.csv", "--seed", "0"], False)
            for flags in (fits[1], fits[3], fits[5], [*fits[1], "--max-iterations", "1"])]
    out += [(["estimate", *flags, "--samples", samples, "--seed", "0"], False)
            for samples in ("s-5000.csv", "s-8192.csv", "s-10000.csv", "s-100000.csv")
            for flags in (fits[1], fits[3], fits[5])]
    # no gamma = 0 generator to certify: the likelihood fit
    out.append((["estimate", "--family", "holder", "--gamma", "0", "--samples", "s.csv",
                 "--seed", "0"], False))
    # fits that fail inside an evaluation: the score leaves float range, and
    # xi(<f**(1+gamma)>) underflows to 0
    out += [(["estimate", *flags, "--seed", "0"], False) for flags in [
        ["--family", "fdpd", "--phi", "exp-minus-one", "--gamma", "2", "--samples", "s-1e-3.csv"],
        ["--family", "xi_holder", "--eta", "dpd", "--xi", "power:3", "--gamma", "1",
         "--samples", "s-1e150.csv"]]]
    sweep = ["sweep", "--outlier", "8", "--n", "300", "--seed", "1",
             "--spec", "family=fdpd,phi=identity,gamma=0",
             "--spec", "family=jhhb,zeta=0,gamma=0.5"]
    out += [(sweep + ["--epsilons", "0,0.1"], False),
            (sweep + ["--epsilons", "0.2", "--format", "json"], False),
            (sweep + ["--epsilons", "nan"], False),
            (sweep[:-4] + ["--spec", "family=fdpd,phi=power:3,gamma=0.5",
                           "--epsilons", "0,0.1"], False)]
    # every family at gamma 0 to 2 in one sweep, specs sharing a gamma among
    # them; at n = 13000 every fit runs in two phases
    mixed = ["--outlier", "8", "--seed", "2", "--epsilons", "0,0.1,0.3"]
    for spec in ("family=holder,eta=dpd,gamma=1", "family=fdpd,phi=identity,gamma=0",
                 "family=fdpd,phi=identity,gamma=0.5", "family=fdpd,phi=log,gamma=0.5",
                 "family=jhhb,zeta=0,gamma=0.5", "family=jhhb,zeta=0.5,gamma=1",
                 "family=xi_holder,eta=dpd,xi=power:0.5,gamma=0.5",
                 "family=holder,eta=ps,gamma=2", "family=fdpd,phi=power:2,gamma=2"):
        mixed += ["--spec", spec]
    out += [(["sweep", "--n", "300", *mixed], False),
            (["sweep", "--n", "300", *mixed, "--format", "json"], False),
            (["sweep", "--n", "13000", *mixed], False)]
    return out


# ---------------------------------------------------------------------------
# running and comparing
# ---------------------------------------------------------------------------


def platform_key() -> dict:
    """What the bytes of a record may depend on besides divkit itself."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "python": "%d.%d" % sys.version_info[:2],
            "machine": platform.machine(),
            "cpu_features": sorted(name for name, on in __cpu_features__.items() if on)}


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of ``divkit argv``."""
    from divkit.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as done:  # --help
            code = done.code
    return code, stdout.getvalue(), stderr.getvalue()


def run_fresh(argv: list[str], directory: Path) -> tuple[int, str, str]:
    """:func:`run` as ``python -m divkit argv`` in a new interpreter, in the
    inputs' ``directory``, on the divkit imported here, at the help width and
    with a numpy RuntimeWarning an error: every input file is read cold."""
    import divkit

    env = dict(os.environ, PYTHONPATH=str(Path(divkit.__file__).resolve().parents[1]),
               COLUMNS=HELP_WIDTH, PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run([sys.executable, "-m", "divkit", *argv], cwd=directory, env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def fresh_mismatches(recorded: dict, records: list[dict], directory: Path) -> list[str]:
    """A :func:`moves` line for each of ``records``, from ``recorded``, that
    :func:`run_fresh` in ``directory`` does not replay (:func:`replays`)."""
    here, lines = platform_key(), []
    for record in records:
        code, stdout, stderr = run_fresh(record["argv"], directory)
        fresh = dict(record, exit=code, stdout=stdout, stderr=stderr)
        if not replays(record, fresh, recorded["platform"], here):
            lines += moves({"records": [record]}, {"records": [fresh]})
    return lines


def record_all(directory: Path) -> dict:
    """Write the inputs into ``directory`` and run every command there."""
    write_inputs(directory)
    records = []
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = HELP_WIDTH
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may leave the library
            for argv, from_argparse in commands():
                code, stdout, stderr = run(argv)
                records.append({"argv": argv, "argparse": from_argparse, "exit": code,
                                "stdout": stdout, "stderr": stderr})
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"platform": platform_key(), "records": records}


def dumps(battery: dict) -> str:
    return json.dumps(battery, indent=1) + "\n"


def replays(recorded: dict, replayed: dict, recorded_on: dict, replayed_on: dict) -> bool:
    """Whether ``replayed``, run on platform ``replayed_on``, reproduces
    ``recorded``, taken on ``recorded_on``.

    On the recording platform that is byte for byte.  Elsewhere the exit code
    and the text between the numbers must be equal, and the numbers are not
    compared: many of them are rounding residuals (a D of 1e-16 where the
    exact value is 0, the worst of many noisy trials and that trial's
    parameters), which another libm or SIMD path moves by any number of ulps,
    and no spread across builds has been measured yet.  argparse's help and
    usage text is compared only on the recorded Python version, since argparse
    words it differently across versions.
    """
    if recorded_on == replayed_on:
        return recorded == replayed
    if recorded["exit"] != replayed["exit"]:
        return False
    if recorded["argparse"] and recorded_on["python"] != replayed_on["python"]:
        return True
    return all(NUMBER.split(recorded[key]) == NUMBER.split(replayed[key])
               for key in ("stdout", "stderr"))


def ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def number_moves(recorded: str, replayed: str) -> str | None:
    """How the numbers of two outputs with the same text between them
    moved, in order: each changed count (a token without a point or an
    exponent on both sides) as ``old -> new``, then the largest ulp distance
    between the other numbers.  None where the text around the numbers
    differs."""
    if NUMBER.split(recorded) != NUMBER.split(replayed):
        return None
    counts, ulps = [], 0.0
    for a, b in zip(NUMBER.findall(recorded), NUMBER.findall(replayed)):
        if not any(mark in a + b for mark in ".eE"):
            if int(a) != int(b):
                counts.append(f"{a} -> {b}")
        else:
            ulps = max(ulps, ulps_apart(float(a), float(b)))
    return "".join(f"count {count}, " for count in counts) + f"{ulps:g} ulps"


def moves(old: dict, new: dict) -> list[str]:
    """One line per command of ``new`` whose record differs from ``old``'s."""
    before = {tuple(r["argv"]): r for r in old["records"]}
    lines = []
    for record in new["records"]:
        was = before.get(tuple(record["argv"]))
        if was == record:
            continue
        what = ["new command"] if was is None else []
        if was is not None and was["exit"] != record["exit"]:
            what.append(f"exit {was['exit']} -> {record['exit']}")
        for key in ("stdout", "stderr"):
            if was is not None and was[key] != record[key]:
                moved = number_moves(was[key], record[key])
                what.append(f"{key} text" if moved is None else f"{key} {moved}")
        lines.append(f"divkit {' '.join(record['argv'])}: {', '.join(what)}")
    return lines
