"""Command-line front end: compute, verify, estimate, sweep.

All randomized commands take an explicit ``--seed`` and write byte-identical
output for identical configs.  Exit codes are contract, not decoration:

* 0 -- success (and, for ``verify``, the checked property held)
* 1 -- ``verify`` found a counterexample (expected for invalid inputs)
* 2 -- a generator failed its validity certificate, or an improper score
       was requested
* 3 -- file, format or flag errors, and a score, divergence or bracket
       integral that leaves float range
* 4 -- a fit did not converge: for ``estimate``, the optimizer failed from
       every start or sigma ended on its floor (degenerate samples, such as
       all-equal values or n = 1); for ``sweep``, no row converged

Generator flags use ``name`` or ``name:param`` syntax (``--phi power:0.5``,
``--eta bhd:2.0``, ``--phi bdpd:1:1``, ``--eta file:table.csv``); the names
and their parameters are the tables in ``generators.PRESETS``.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import sys

from . import checks, densities, estimation
from .densities import (
    DiscreteDensity,
    bracket_integrals,
    read_discrete_csv,
    read_grid_csv,
    read_samples_csv,
)
from .errors import CliUsageError, DivkitError, GeneratorValidityError
from .generators import parse_generator, parse_number
from .scores import FAMILIES, FAMILY_SLOTS, DivergenceSpec, divergence, score

# each report names its theorem; the order is the order checks defines them in
THEOREMS = tuple(report.THEOREM for report in checks.CheckReport.__subclasses__())
# every slot that some family takes
SLOTS = tuple(dict.fromkeys(slot for slots in FAMILY_SLOTS.values() for slot in slots))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


def parse_phi(text: str):
    return parse_generator("phi", text)


def parse_xi(text: str):
    return parse_generator("xi", text)


def build_spec(family: str, gamma: float, eta: str | None, phi: str | None,
               xi: str | None, zeta: float | None) -> DivergenceSpec:
    """The spec of a family from its flag texts; slots it does not take are ignored."""
    if family not in FAMILY_SLOTS:
        raise CliUsageError(f"unknown family {family!r}")
    given = {"eta": eta, "phi": phi, "xi": xi, "zeta": zeta}
    slots = DivergenceSpec.slots(family, gamma)
    if any(given[slot] is None for slot in slots):
        raise CliUsageError(f"--family {family} needs "
                            + " and ".join(f"--{slot}" for slot in slots))
    parsed = {slot: given[slot] if slot == "zeta"
              else parse_generator(slot, given[slot], *([gamma] if slot == "eta" else []))
              for slot in slots}
    return DivergenceSpec(family, gamma, **parsed)


def load_density(path):
    """The grid or discrete density of a CSV file, by :func:`densities.density_kind`.

    The file is read once: the kind lookup and the parse take its bytes.
    """
    content = densities.read_bytes(path)
    read = {"x": read_grid_csv, "index": read_discrete_csv}.get(
        densities.density_kind(content))
    if read is None:
        raise CliUsageError(f"{path!r}: expected header 'x,value' or 'index,mass'")
    return read(path, content)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    spec = build_spec(args.family, args.gamma, args.eta, args.phi, args.xi, args.zeta)
    g = load_density(args.g)
    f = load_density(args.f)
    b = bracket_integrals(g, f, args.gamma)
    brackets = {"X": b.X, "Y": b.Y, "Z": b.Z}
    if b.gamma == 0.0:
        brackets.update({"L": b.L, "Mg": b.X, "Mf": b.Y})
    payload = {
        "config": _resolved_config(args, spec=spec.describe()),
        "brackets": brackets,
        "score": score(b, spec),
        "divergence": divergence(b, spec),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    # each check keeps its own default tolerance unless --tolerance is given
    tolerance = {} if args.tolerance is None else {"tolerance": args.tolerance}
    if args.theorem == checks.InvarianceReport.THEOREM:
        phi = parse_phi(args.phi or "log")
        report = checks.check_affine_invariance(
            phi, args.gamma, args.trials, args.seed,
            representation=args.representation, grid_points=args.grid_points,
            **tolerance)
    elif args.theorem == checks.RepresentationReport.THEOREM:
        if args.zeta is None:
            raise CliUsageError(f"{args.theorem} needs --zeta")
        report = checks.verify_jhhb_holder_representation(
            args.zeta, args.gamma, args.trials, args.seed, **tolerance)
    elif args.theorem == checks.LowerBoundReport.THEOREM:
        phi = parse_phi(args.phi or "identity")
        report = checks.check_fdps_lower_bound(phi, args.gamma, args.trials, args.seed,
                                               **tolerance)
    elif args.theorem == checks.UvConsistencyReport.THEOREM:
        xi = parse_xi(args.xi or "identity")
        report = checks.check_uv_consistency(xi, args.gamma, args.trials, args.seed,
                                             **tolerance)
    else:
        phi = parse_phi(args.phi or "log")
        f = load_density(args.f) if args.f else DiscreteDensity([0.8, 0.2])
        report = checks.equality_condition_probe(phi, args.gamma, f, args.c, **tolerance)

    payload = report.to_report()
    payload["config"] = _resolved_config(args)
    _emit_json(payload, args.out)
    return 0 if payload["pass"] else 1


def cmd_estimate(args) -> int:
    spec = build_spec(args.family, args.gamma, args.eta, args.phi, args.xi, args.zeta)
    samples = read_samples_csv(args.samples)
    problem = estimation.EstimationProblem(samples, spec, _optimizer_config(args))
    result = estimation.fit(problem)
    payload = {
        "config": _resolved_config(args, spec=spec.describe(), n_samples=len(samples)),
        "result": result.to_dict(),
    }
    _emit_json(payload, args.out)
    return 0 if result.converged else 4


def cmd_sweep(args) -> int:
    epsilons = [parse_number(tok, f"--epsilons {args.epsilons}")
                for tok in args.epsilons.split(",") if tok.strip()]
    if not epsilons:
        raise CliUsageError(f"--epsilons needs at least one value, got {args.epsilons!r}")
    specs = [_parse_sweep_spec(text) for text in args.spec]
    if not specs:
        raise CliUsageError("sweep needs at least one --spec")
    rows = estimation.contamination_sweep(
        epsilons, args.outlier, specs, args.n, args.seed,
        config=_optimizer_config(args))
    if args.format == "json":
        payload = {
            "config": _resolved_config(args),
            "rows": [row.__dict__ for row in rows],
        }
        _emit_json(payload, args.out)
    else:
        lines = [",".join(estimation.SWEEP_HEADER)]
        lines += [",".join(row.as_csv_row()) for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if any(row.converged for row in rows) else 4


def _parse_sweep_spec(text: str) -> DivergenceSpec:
    fields = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        key, eq, value = token.partition("=")
        if not eq:
            raise CliUsageError(f"--spec entries are key=value pairs, got {token!r}")
        fields[key.strip()] = value.strip()
    try:
        family = fields.pop("family")
        gamma = parse_number(fields.pop("gamma"), text)
    except KeyError as missing:
        raise CliUsageError(f"--spec needs {missing.args[0]}=...") from None
    slots = {slot: fields.pop(slot, None) for slot in SLOTS}
    if fields:
        raise CliUsageError(f"unknown --spec keys {sorted(fields)}")
    if slots["zeta"] is not None:
        slots["zeta"] = parse_number(slots["zeta"], text)
    return build_spec(family, gamma, **slots)


def _optimizer_config(args) -> estimation.OptimizerConfig:
    given = {} if args.max_iterations is None else {"max_iterations": args.max_iterations}
    return estimation.OptimizerConfig(**given)


def _resolved_config(args, **extra) -> dict:
    skip = {"func", "out"}  # the output destination is not part of the config
    config = {key: value for key, value in vars(args).items()
              if key not in skip and value is not None}
    config.update(extra)
    return config


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_spec_flags(parser):
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--gamma", type=float, required=True)
    for slot in SLOTS:
        parser.add_argument(f"--{slot}", type=float if slot == "zeta" else str)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    Each call returns a shallow copy of the one parser: a caller may set
    attributes on it, such as a wrapped ``parse_args``, without reaching the
    next caller.  Parsing keeps no state in the parser, so the copies share
    its actions and subparsers; adding an argument to a copy would change
    them all.
    """
    return copy.copy(_parser())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divkit",
                     description="Density-power divergence toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="score and divergence of two density files")
    _add_spec_flags(p)
    p.add_argument("--g", required=True, help="data-side density CSV")
    p.add_argument("--f", required=True, help="model-side density CSV")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="run a randomized structural check")
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--zeta", type=float)
    p.add_argument("--phi")
    p.add_argument("--xi")
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--f", help="density CSV for the equality probe")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--representation", choices=("grid", "gaussian"), default="grid")
    p.add_argument("--grid-points", type=int, default=4096, dest="grid_points")
    p.add_argument("--out", help="report path (default stdout)")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="minimum-score Gaussian fit of a sample file")
    _add_spec_flags(p)
    p.add_argument("--samples", required=True, help="single-column samples CSV")
    p.add_argument("--seed", type=int, help="recorded in the report")
    p.add_argument("--max-iterations", type=int, dest="max_iterations")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="contamination sweep over epsilon and specs")
    p.add_argument("--epsilons", required=True, help="comma list, e.g. 0,0.1,0.2")
    p.add_argument("--outlier", type=float, required=True)
    p.add_argument("--spec", action="append", default=[],
                   help="family=...,gamma=...[,zeta=...][,eta=...][,phi=...][,xi=...]")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-iterations", type=int, dest="max_iterations")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # the library keeps numpy's warnings to itself: a value out of float
        # range reaches this point as a DivkitError
        return args.func(args)
    except GeneratorValidityError as err:
        print(f"divkit: {err}", file=sys.stderr)
        return 2
    except (DivkitError, OSError) as err:
        print(f"divkit: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
