"""Span tracer that wraps divkit's entry points from outside the package.

Every target is replaced at the module attribute its caller looks up at call
time.  ``from .densities import bracket_integrals`` binds the name inside
``divkit.checks`` at import time, so wrapping ``divkit.densities`` would miss
that call; the wrapper goes into ``divkit.checks`` instead.

A span is ``[name code, start, end, parent index, info]``.  ``info`` is a
number (or a tuple of numbers) taken from the call, such as rows read or
trials run.  With ``keep=False`` the tracer keeps no spans, only per-name
totals, so that a counting pass does not grow the process.

The tracer assumes one thread: it keeps a single stack of open spans.  The
benchmark runs divkit with ``DIVKIT_THREADS`` unset, so sweeps fit serially.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter


def _rows(density) -> int:
    values = getattr(density, "values", None)
    return int((density.masses if values is None else values).size)


def _check_counts(trials_attr: str, used_attr: str):
    def info(report, args, kwargs):
        return (int(getattr(report, trials_attr)), int(getattr(report, used_attr)))
    return info


def _size_of(position: int):
    def info(result, args, kwargs):
        return len(args[position])
    return info


def _restart(result, args, kwargs):
    return (int(result.nfev), float(result.fun))


# (module, attribute looked up by the caller, span name, info extractor)
TARGETS = [
    # generators: certificates, cached in scores, and the psi* certificate of
    # the lower-bound check (not cached)
    ("divkit.scores", "validate_eta", "generators.certify", None),
    ("divkit.scores", "validate_phi", "generators.certify", None),
    ("divkit.scores", "validate_xi", "generators.certify", None),
    ("divkit.checks", "validate_psi", "generators.certify", None),
    # densities
    ("divkit.cli", "read_grid_csv", "densities.read", lambda r, a, k: _rows(r)),
    ("divkit.cli", "read_discrete_csv", "densities.read", lambda r, a, k: _rows(r)),
    ("divkit.cli", "read_samples_csv", "densities.read", lambda r, a, k: int(r.size)),
    ("divkit.checks", "DiscreteDensity", "densities.construct", None),
    ("divkit.checks", "GridDensity", "densities.construct", None),
    ("divkit.checks", "GaussianDensity", "densities.construct", None),
    ("divkit.checks", "density_value", "densities.construct", None),
    ("divkit.checks", "affine_transform", "densities.construct", None),
    ("divkit.checks", "scale_values", "densities.construct", None),
    ("divkit.estimation", "GaussianDensity", "densities.construct", None),
    ("divkit.cli", "bracket_integrals", "densities.bracket", None),
    ("divkit.checks", "bracket_integrals", "densities.bracket", None),
    ("divkit.estimation", "empirical_brackets", "densities.empirical", _size_of(0)),
    ("divkit.estimation", "density_value", "densities.empirical", _size_of(1)),
    # scores
    ("divkit.cli", "score", "scores.score", None),
    ("divkit.cli", "divergence", "scores.score", None),
    ("divkit.checks", "fdp_divergence", "scores.score", None),
    ("divkit.checks", "fdp_score", "scores.score", None),
    ("divkit.checks", "holder_score", "scores.score", None),
    ("divkit.checks", "jhhb_score", "scores.score", None),
    ("divkit.checks", "xi_holder_score", "scores.score", None),
    ("divkit.checks", "equivalent_transform", "scores.score", None),
    ("divkit.estimation", "holder_score", "scores.score", None),
    ("divkit.estimation", "fdp_score", "scores.score", None),
    ("divkit.estimation", "jhhb_score", "scores.score", None),
    ("divkit.estimation", "xi_holder_score", "scores.score", None),
    # checks: (trials requested, trials used)
    ("divkit.checks", "check_affine_invariance", "checks.check",
     _check_counts("trials", "used")),
    ("divkit.checks", "verify_jhhb_holder_representation", "checks.check",
     _check_counts("trials", "trials")),
    ("divkit.checks", "check_fdps_lower_bound", "checks.check",
     _check_counts("trials", "valid_trials")),
    ("divkit.checks", "check_uv_consistency", "checks.check",
     _check_counts("densities", "densities")),
    ("divkit.checks", "equality_condition_probe", "checks.check",
     lambda r, a, k: (1, 1)),
    # estimation
    ("divkit.estimation", "fit", "estimation.fit", None),
    ("divkit.estimation", "empirical_score", "estimation.objective", None),
    ("divkit.estimation", "minimize", "estimation.restart", _restart),
    # cli (build_parser is special-cased so that parse_args is traced too)
    ("divkit.cli", "main", "cli.main", None),
    ("divkit.cli", "build_parser", "cli.parse", None),
    ("divkit.cli", "load_density", "cli.load_density", None),
    ("divkit.cli", "_emit_json", "cli.emit", None),
    ("divkit.cli", "_emit", "cli.emit", None),
]

NAMES = sorted({name for _, _, name, _ in TARGETS})
CODE = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Installs wrappers on the targets and records spans while installed."""

    def __init__(self, keep: bool = True):
        self.keep = keep
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, info sums]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, info in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapped = self._wrap(name, original, info)
            if attr == "build_parser":
                wrapped = self._wrap_parser(wrapped)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans = []
        self.totals = {}

    def _wrap(self, name, fn, info):
        code = CODE[name]
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(self.spans)
            if self.keep:
                self.spans.append(None)
                stack.append(index)
            else:
                stack.append(-1)
            result = finished = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                finished = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = info(result, args, kwargs) if finished and info else None
                if self.keep:
                    self.spans[index] = [code, start, end, parent, extra]
                else:
                    self._count(name, end - start, extra)

        return traced

    def _wrap_parser(self, build_parser):
        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self._wrap("cli.parse", parser.parse_args, None)
            return parser
        return traced_build_parser

    def _count(self, name, seconds, extra) -> None:
        entry = self.totals.setdefault(name, [0, 0.0, None])
        entry[0] += 1
        entry[1] += seconds
        if extra is not None:
            extra = extra if isinstance(extra, tuple) else (extra,)
            entry[2] = extra if entry[2] is None else tuple(
                a + b for a, b in zip(entry[2], extra))

# exact counts that repeat bit for bit on the same program and inputs
FINGERPRINT = ("estimation.objective_evals", "checks.trials", "densities.read_rows")


def fingerprint_counts(totals: dict[str, list]) -> dict[str, int]:
    """The fingerprint from the totals of a counting (keep=False) tracer."""
    def info(name):
        entry = totals.get(name)
        return 0 if entry is None or entry[2] is None else int(entry[2][0])
    return {
        "estimation.objective_evals": totals.get("estimation.objective", [0])[0],
        "checks.trials": info("checks.check"),
        "densities.read_rows": info("densities.read"),
    }


def write_spans(spans: list[list], path) -> None:
    """Write spans as CSV: index, name, start, end (us from the first), parent, info."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as handle:
        handle.write("index,name,start_us,end_us,parent,info\n")
        for i, (code, start, end, parent, extra) in enumerate(spans):
            info = "" if extra is None else (
                ";".join(map(repr, extra)) if isinstance(extra, tuple) else repr(extra))
            handle.write(f"{i},{NAMES[code]},{(start - origin) * 1e6:.3f},"
                         f"{(end - origin) * 1e6:.3f},{parent},{info}\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times (ms) of one round, from its spans."""
    n = len(spans)
    child_time = [0.0] * n
    for code, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def name_of(i):
        return NAMES[spans[i][0]]

    calls = {name: 0 for name in NAMES}
    total = {name: 0.0 for name in NAMES}   # time of outermost spans of a name
    self_time = {name: 0.0 for name in NAMES}
    info_sum: dict[str, list] = {}
    for i, (code, start, end, parent, extra) in enumerate(spans):
        name = NAMES[code]
        calls[name] += 1
        if parent < 0 or name_of(parent) != name:
            total[name] += end - start
        self_time[name] += (end - start) - child_time[i]
        if extra is not None:
            extra = extra if isinstance(extra, tuple) else (extra,)
            acc = info_sum.setdefault(name, [0.0] * len(extra))
            for j, value in enumerate(extra):
                acc[j] += value

    # objective time inside fits, and the share of evaluations spent by the
    # winning restart (the first restart with the lowest final score)
    objective_in_fits = 0.0
    restarts_by_fit: dict[int, list] = {}
    for i, (code, start, end, parent, extra) in enumerate(spans):
        name = NAMES[code]
        if name == "estimation.objective" and _inside(spans, i, "estimation.fit"):
            objective_in_fits += end - start
        if name == "estimation.restart" and parent >= 0:
            restarts_by_fit.setdefault(parent, []).append(extra)
    winning = all_evals = 0
    for restarts in restarts_by_fit.values():
        best = restarts[0]
        for candidate in restarts[1:]:
            if candidate[1] < best[1]:
                best = candidate
        winning += best[0]
        all_evals += sum(r[0] for r in restarts)

    def info(name, j=0):
        return info_sum.get(name, [0.0, 0.0])[j]

    fits = calls["estimation.fit"]
    evals = calls["estimation.objective"]
    trials, used = info("checks.check", 0), info("checks.check", 1)
    samples = info("densities.empirical")
    ms = 1e3
    return {
        "generators.certify_calls": calls["generators.certify"],
        "generators.certify_ms": total["generators.certify"] * ms,
        "densities.read_rows": int(info("densities.read")),
        "densities.read_ms": total["densities.read"] * ms,
        "densities.construct_calls": calls["densities.construct"],
        "densities.construct_ms": total["densities.construct"] * ms,
        "densities.bracket_calls": calls["densities.bracket"],
        "densities.bracket_ms": total["densities.bracket"] * ms,
        "densities.empirical_calls": calls["densities.empirical"],
        "densities.empirical_samples": int(samples),
        # computed, not measured: each float64 sample read once and its
        # float64 model value written once
        "densities.empirical_bytes_computed": int(16 * samples),
        "densities.empirical_ms": total["densities.empirical"] * ms,
        "scores.calls": calls["scores.score"],
        "scores.ms": total["scores.score"] * ms,
        "checks.trials": int(trials),
        "checks.trials_used": int(used),
        "checks.used_ratio": used / trials if trials else 0.0,
        "checks.self_ms": self_time["checks.check"] * ms,
        "estimation.fits": fits,
        "estimation.objective_evals": evals,
        "estimation.evals_per_fit": evals / fits if fits else 0.0,
        "estimation.objective_ms": objective_in_fits * ms,
        "estimation.optimizer_ms": (total["estimation.fit"] - objective_in_fits) * ms,
        "estimation.winning_restart_share": winning / all_evals if all_evals else 0.0,
        "cli.commands": calls["cli.main"],
        "cli.parse_ms": total["cli.parse"] * ms,
        "cli.emit_ms": total["cli.emit"] * ms,
        "cli.self_ms": (self_time["cli.main"] + self_time["cli.load_density"]) * ms,
    }


def _inside(spans, index, name) -> bool:
    code = CODE[name]
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == code:
            return True
        parent = spans[parent][3]
    return False


LAYER_UNITS = {
    "generators.certify_calls": "count", "generators.certify_ms": "ms",
    "densities.read_rows": "count", "densities.read_ms": "ms",
    "densities.construct_calls": "count", "densities.construct_ms": "ms",
    "densities.bracket_calls": "count", "densities.bracket_ms": "ms",
    "densities.empirical_calls": "count", "densities.empirical_samples": "count",
    "densities.empirical_bytes_computed": "B", "densities.empirical_ms": "ms",
    "scores.calls": "count", "scores.ms": "ms",
    "checks.trials": "count", "checks.trials_used": "count",
    "checks.used_ratio": "ratio", "checks.self_ms": "ms",
    "estimation.fits": "count", "estimation.objective_evals": "count",
    "estimation.evals_per_fit": "count", "estimation.objective_ms": "ms",
    "estimation.optimizer_ms": "ms", "estimation.winning_restart_share": "ratio",
    "cli.commands": "count", "cli.parse_ms": "ms", "cli.emit_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms", "trace.overhead_share": "ratio",
}

def combine_rounds(cold: dict[str, float], warm: list[dict[str, float]]) -> dict:
    """Per-round layer metrics: certificates from the cold first round, the
    rest from the warm traced rounds (counts from the first, times as medians).
    """
    out = {}
    for name in warm[0]:
        if name.startswith("generators."):
            out[name] = cold[name]
        elif LAYER_UNITS[name] == "ms":
            out[name] = statistics.median(m[name] for m in warm)
        else:
            out[name] = warm[0][name]
    return out
