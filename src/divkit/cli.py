"""Command-line front end: compute, verify, estimate, sweep.

All randomized commands take an explicit ``--seed`` and write byte-identical
output for identical configs.  Exit codes are contract, not decoration:

* 0 -- success (and, for ``verify``, the checked property held)
* 1 -- ``verify`` found a counterexample (expected for invalid inputs)
* 2 -- a generator failed its validity certificate, or an improper score
       was requested
* 3 -- file, format or flag errors
* 4 -- a fit did not converge: for ``estimate``, the optimizer failed from
       every start or sigma ended on its floor (degenerate samples, such as
       all-equal values or n = 1); for ``sweep``, no row converged

Generator flags use ``name`` or ``name:param`` syntax (``--phi power:0.5``,
``--eta bhd:2.0``, ``--phi bdpd:1:1``, ``--eta file:table.csv``).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import checks, estimation
from .densities import (
    DiscreteDensity,
    bracket_integrals,
    read_discrete_csv,
    read_grid_csv,
    read_samples_csv,
)
from .errors import DivkitError, GeneratorValidityError
from .generators import (
    bhd_eta,
    bdpd_phi,
    dpd_eta,
    eta_from_table,
    exp_minus_one_phi,
    identity_phi,
    identity_xi,
    jhhb_eta,
    log_phi,
    phi_from_table,
    power_phi,
    power_xi,
    ps_eta,
    xi_from_table,
)
from .scores import DivergenceSpec, divergence, score

THEOREMS = ("affine-invariance", "jhhb-representation", "fdps-lower-bound",
            "uv-consistency", "equality-conditions")


class CliUsageError(DivkitError):
    """Malformed flags; mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------


def _split_flag(text: str):
    name, _, rest = text.partition(":")
    return name, rest


def parse_eta(text: str, gamma: float):
    name, rest = _split_flag(text)
    if name == "dpd":
        return dpd_eta(gamma)
    if name == "ps":
        return ps_eta(gamma)
    if name == "bhd":
        return bhd_eta(_flag_float(text, rest), gamma)
    if name == "jhhb":
        return jhhb_eta(_flag_float(text, rest), gamma)
    if name == "file":
        return eta_from_table(rest, gamma)
    raise CliUsageError(f"unknown eta generator {text!r}")


def parse_phi(text: str):
    name, rest = _split_flag(text)
    if name == "identity":
        return identity_phi()
    if name == "log":
        return log_phi()
    if name == "power":
        return power_phi(_flag_float(text, rest))
    if name == "bdpd":
        lam1, _, lam2 = rest.partition(":")
        return bdpd_phi(_flag_float(text, lam1), _flag_float(text, lam2))
    if name == "exp-minus-one":
        return exp_minus_one_phi()
    if name == "file":
        return phi_from_table(rest)
    raise CliUsageError(f"unknown phi generator {text!r}")


def parse_xi(text: str):
    name, rest = _split_flag(text)
    if name == "identity":
        return identity_xi()
    if name == "power":
        return power_xi(_flag_float(text, rest))
    if name == "file":
        return xi_from_table(rest)
    raise CliUsageError(f"unknown xi generator {text!r}")


def _flag_float(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CliUsageError(f"expected a numeric parameter in {flag!r}") from None


def build_spec(family: str, gamma: float, eta: str | None, phi: str | None,
               xi: str | None, zeta: float | None) -> DivergenceSpec:
    if family == "holder":
        if eta is None and gamma > 0.0:
            raise CliUsageError("--family holder needs --eta")
        # the gamma = 0 branch takes no generator; ignore a stray --eta
        eta_gen = parse_eta(eta, gamma) if (eta is not None and gamma > 0.0) else None
        return DivergenceSpec("holder", gamma, eta=eta_gen)
    if family == "fdpd":
        if phi is None:
            raise CliUsageError("--family fdpd needs --phi")
        return DivergenceSpec("fdpd", gamma, phi=parse_phi(phi))
    if family == "jhhb":
        if zeta is None:
            raise CliUsageError("--family jhhb needs --zeta")
        return DivergenceSpec("jhhb", gamma, zeta=zeta)
    if family == "xi_holder":
        if eta is None or xi is None:
            raise CliUsageError("--family xi_holder needs --eta and --xi")
        return DivergenceSpec("xi_holder", gamma, eta=parse_eta(eta, gamma),
                              xi=parse_xi(xi))
    raise CliUsageError(f"unknown family {family!r}")


def load_density(path):
    """Sniff the density kind from the CSV header (x,value vs index,mass)."""
    with open(path, newline="") as handle:
        header = handle.readline().strip().lower().replace(" ", "")
    if header.startswith("x,"):
        return read_grid_csv(path)
    if header.startswith("index,"):
        return read_discrete_csv(path)
    raise CliUsageError(f"{path!r}: expected header 'x,value' or 'index,mass'")


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
        brackets.update({"L": b.L, "Mg": b.Mg, "Mf": b.Mf})
    payload = {
        "config": _resolved_config(args, spec=spec.describe()),
        "brackets": brackets,
        "score": score(b, spec),
        "divergence": divergence(b, spec),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.theorem == "affine-invariance":
        phi = parse_phi(args.phi or "log")
        report = checks.check_affine_invariance(
            phi, args.gamma, args.trials, args.seed,
            representation=args.representation, grid_points=args.grid_points,
            tolerance=args.tolerance if args.tolerance is not None else 1e-5)
    elif args.theorem == "jhhb-representation":
        if args.zeta is None:
            raise CliUsageError("jhhb-representation needs --zeta")
        report = checks.verify_jhhb_holder_representation(
            args.zeta, args.gamma, args.trials, args.seed,
            tolerance=args.tolerance if args.tolerance is not None else 1e-10)
    elif args.theorem == "fdps-lower-bound":
        phi = parse_phi(args.phi or "identity")
        report = checks.check_fdps_lower_bound(phi, args.gamma, args.trials, args.seed)
    elif args.theorem == "uv-consistency":
        xi = parse_xi(args.xi or "identity")
        rng = np.random.default_rng(args.seed)
        densities = [checks.random_discrete_density(rng) for _ in range(args.trials)]
        report = checks.check_uv_consistency(xi, args.gamma, densities)
    else:
        phi = parse_phi(args.phi or "log")
        f = load_density(args.f) if args.f else DiscreteDensity([0.8, 0.2])
        report = checks.equality_condition_probe(phi, args.gamma, f, args.c)

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
    epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
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
        gamma = float(fields.pop("gamma"))
    except KeyError as missing:
        raise CliUsageError(f"--spec needs {missing.args[0]}=...") from None
    eta = fields.pop("eta", None)
    phi = fields.pop("phi", None)
    xi = fields.pop("xi", None)
    zeta = fields.pop("zeta", None)
    if fields:
        raise CliUsageError(f"unknown --spec keys {sorted(fields)}")
    return build_spec(family, gamma, eta, phi, xi,
                      float(zeta) if zeta is not None else None)


def _optimizer_config(args) -> estimation.OptimizerConfig:
    kwargs = {}
    if getattr(args, "max_iterations", None):
        kwargs["max_iterations"] = args.max_iterations
    return estimation.OptimizerConfig(**kwargs)


def _resolved_config(args, **extra) -> dict:
    skip = {"func", "out"}  # the output destination is not part of the config
    config = {key: value for key, value in vars(args).items()
              if key not in skip and value is not None}
    config.update(extra)
    return config


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_spec_flags(parser, require_gamma=True):
    parser.add_argument("--family", choices=("holder", "fdpd", "jhhb", "xi_holder"),
                        required=True)
    parser.add_argument("--gamma", type=float, required=require_gamma)
    parser.add_argument("--eta")
    parser.add_argument("--phi")
    parser.add_argument("--xi")
    parser.add_argument("--zeta", type=float)


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
    except CliUsageError as err:
        print(f"divkit: {err}", file=sys.stderr)
        return 3
    except GeneratorValidityError as err:
        print(f"divkit: {err}", file=sys.stderr)
        return 2
    except (DivkitError, OSError) as err:
        print(f"divkit: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
