"""End-to-end benchmark of the divkit CLI, one workload per invocation.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep-small-n --seed 1 --seconds 15 --trace 0

Workloads: sweep-small-n, estimate-large-n, verify-trials, compute-files (see
bench/README.md).  The run

1. writes the workload's input files from ``--seed`` into ``.bench_work/``;
2. times set-up: a fresh interpreter that imports ``divkit.cli`` and builds
   the workload's specs (certifying their generators), median of several;
3. runs the closed loop in a child process (bench/loop.py) for ``--seconds``;
4. checks every distinct output against independent references
   (bench/oracles.py) and every repeat against the first, byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the run's details: exact counts that fingerprint the program, the CPU
count and the Python, numpy and scipy versions, and the latency tail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_UNITS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0

SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import divkit.cli as cli
for name, args in json.loads(sys.argv[2]):
    getattr(cli, name)(*args)
"""


def child_env() -> dict:
    # the package's default configuration: one fit thread
    return {k: v for k, v in os.environ.items() if k != "DIVKIT_THREADS"}


def time_setup(setup_calls: list) -> float:
    """Median wall time of a fresh interpreter importing divkit.cli and
    building the workload's specs.  One unmeasured start comes first, so that
    bytecode and the file cache are warm as they are for a returning user."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(setup_calls)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None with fewer than forty samples."""
    n = len(latencies)
    if n < 40:
        return None
    ordered = sorted(latencies)
    rank = n - 11  # ten samples lie above this one
    return 100.0 * (rank + 1) / n, ordered[rank]


def run(args) -> int:
    if not (SRC / "divkit" / "cli.py").is_file():
        print(f"bench: no divkit sources under {SRC}", file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        case = build(args.seed, workdir)
        setup_s = None if args.trace else time_setup(case.setup_calls)
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
        if args.trace:
            spans_path.parent.mkdir(exist_ok=True)
        plan = {"src": str(SRC), "ops": [op.argv for op in case.ops],
                "seconds": args.seconds, "trace": args.trace,
                "spans_path": str(spans_path)}
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan))
        subprocess.run([sys.executable, str(Path(__file__).with_name("loop.py")),
                        str(plan_path), str(result_path)],
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result["rounds"]
    failed = 0
    correct = True
    problems = []
    for op, (code, stdout, stderr), mismatched in zip(case.ops, result["reference"],
                                                      result["mismatches"]):
        problem = op.check(code, stdout)
        if problem is not None:
            failed += rounds  # every round printed this output
        elif mismatched:
            problem = f"output changed in {mismatched} of {rounds - 1} repeats"
            failed += mismatched
        else:
            continue
        if not op.known_fault:
            correct = False
        problems.append(("known fault: " if op.known_fault else "") + " ".join(op.argv)
                        + f": {problem}" + (f"\n{stderr}" if stderr else ""))
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)

    latencies = [t for round_ in result["latencies"] for t in round_]
    work = sum(op.work for op in case.ops) * len(result["latencies"])
    op_tail = tail(latencies)
    # Each command's latency is its mean over the timed rounds; op_p50_ms is
    # the median of these over the round's commands.  The host alternates
    # between a fast and a slow speed from one command to the next, so the
    # median of all latencies pooled lands in one mode or the other and jumps
    # between them from run to run; a mean per command moves smoothly.
    op_means = [statistics.fmean(column) for column in zip(*result["latencies"])]
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "ops_per_round": len(case.ops), "timed_ops": len(latencies),
        "round_s": result["round_s"],
        "work_unit": case.work_unit,
        "pooled_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail": None if op_tail is None else
        {"percentile": op_tail[0], "ms": op_tail[1] * 1e3},
        "fingerprint": dict(result["fingerprint"], cpu_count=os.cpu_count(),
                            **result["versions"]),
    }
    print(json.dumps({"detail": detail}))

    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_means) * 1e3, "unit": "ms"},
            "work_per_s": {"value": work / sum(latencies), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": rounds * len(case.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
