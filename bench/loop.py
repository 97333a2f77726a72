"""Closed-loop runner: one client issues one divkit command at a time.

Usage: ``python3 bench/loop.py PLAN.json RESULT.json`` (started by run.py).

The plan names the divkit source directory, the commands of one round, the
run length and whether to trace.  Every command goes through
``divkit.cli.main(argv)`` in this process, with its standard output captured.

* Round 0 runs cold (certificate caches empty) and untimed.  Its outputs are
  the reference that run.py checks; a counting tracer takes the exact counts
  that fingerprint the run (full spans when tracing).
* Then whole rounds run until the run length has passed.  Untraced, they are
  timed; traced, untraced and traced rounds alternate, so that the tracing
  overhead is the difference of their median round times.
* Every later output must equal round 0's byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import (FINGERPRINT, Tracer, combine_rounds, fingerprint_counts, layer_metrics,
                     write_spans)


def run_round(cli, ops: list[list[str]]) -> list[tuple]:
    """(exit code, stdout, stderr, seconds) of each command, in order."""
    results = []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # an escaping exception is a failed command, not a crash
            code = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        results.append((code, out.getvalue(), err.getvalue(), elapsed))
    return results


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import divkit.cli as cli
    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"loop: divkit imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    ops, seconds, trace = plan["ops"], plan["seconds"], plan["trace"]
    tracer = Tracer(keep=bool(trace))

    tracer.install()
    first = run_round(cli, ops)
    tracer.uninstall()
    reference = [r[:3] for r in first]
    if trace:
        cold = layer_metrics(tracer.spans)
        fingerprint = {name: cold[name] for name in FINGERPRINT}
    else:
        fingerprint = fingerprint_counts(tracer.totals)
    tracer.reset()

    mismatches = [0] * len(ops)
    rounds = 1

    def timed_round(traced: bool) -> tuple[list[float], float]:
        nonlocal rounds
        if traced:
            tracer.install()
        start = time.perf_counter()
        results = run_round(cli, ops)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        rounds += 1
        for i, result in enumerate(results):
            if result[:3] != reference[i]:
                mismatches[i] += 1
        return [r[3] for r in results], wall

    latencies, untraced_walls, traced_walls, warm = [], [], [], []
    last_spans = []
    loop_start = time.perf_counter()
    while True:
        lat, wall = timed_round(False)
        latencies.append(lat)
        untraced_walls.append(wall)
        if trace:
            _, wall = timed_round(True)
            traced_walls.append(wall)
            warm.append(layer_metrics(tracer.spans))
            last_spans = tracer.spans
            tracer.reset()
        if time.perf_counter() - loop_start >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "reference": reference,
        "mismatches": mismatches,
        "rounds": rounds,
        "latencies": latencies,
        "round_s": statistics.median(untraced_walls),
        "peak_rss_kb": peak_kb,
        "fingerprint": fingerprint,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if trace:
        layers = combine_rounds(cold, warm)
        overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
        layers["trace.overhead_ms"] = overhead * 1e3
        layers["trace.overhead_share"] = overhead / statistics.median(untraced_walls)
        result["layers"] = layers
        write_spans(last_spans, plan["spans_path"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
