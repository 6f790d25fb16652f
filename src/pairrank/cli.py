"""Command line front end: matrix I/O, five subcommands, report formatting.

Each subcommand accepts only the options it reads; the first --format choice
is the default:

  rank MATRIX        --scale --base --reciprocity-tol --format {json,table,csv}
  witness            --pair --n --sigma1 --sigma2 --out [--report] [--base]
  classify4 MATRIX   --scale --base --reciprocity-tol --margin --format {json,table}
  simulate           --n --trials [--noise --sd --halfwidth --scores --seed --jobs]
                     --format {json,table}
  trajectory MATRIX  --scale --base --reciprocity-tol --k-min --k-max --points
                     --format {csv,json}

Exit codes: 0 success, 1 input or validation error, 2 degenerate or boundary
result (rank with tied scores, classify4 within margin of a region wall).
Numeric output carries 12 significant digits in JSON and CSV, 3 decimals in
table form.  Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .analysis import (
    METHOD_PAIRS,
    GaussianUpperTriangle,
    SimulationConfig,
    UniformSTperp,
    _consistency,
    hadamard_trajectory,
    kendall_tau,
    monte_carlo_disagreement,
)
from .core import (
    Ranking,
    Scale,
    ScoreVector,
    load_matrix,
    rank_of,
    save_matrix,
    to_additive,
    to_multiplicative,
)
from .errors import BoundaryCase, PairrankError, TieDetected
from .geometry import classify_region4, tropical_closed_form4
from .methods import hodge_scores, principal_scores, tropical_solve
from .witness import Pair, WitnessRequest, generate_witness

__all__ = ["main"]


# -- output formatting ---------------------------------------------------------


def _json_scalar(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    v = float(obj)
    if not math.isfinite(v):
        return "null"
    return format(v, ".12g")


def _json_dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with 12-significant-digit floats, NaN as null."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}{_json_scalar(str(k))}: {_json_dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            return "[" + ", ".join(_json_scalar(v) for v in items) + "]"
        parts = [f"{inner}{_json_dumps(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return _json_scalar(obj)


def _g12(x: float) -> str:
    return format(float(x), ".12g")


def _f3(x: float) -> str:
    return format(float(x), ".3f")


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


# -- argument plumbing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _matrix_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", choices=["multiplicative", "additive"], default=None,
                        help="override the scale declared in (or defaulted by) the file")
    common.add_argument("--base", type=float, default=math.e,
                        help="base for additive/multiplicative conversion (default e)")
    common.add_argument("--reciprocity-tol", type=float, default=1e-9,
                        help="tolerated reciprocity defect before repair (default 1e-9)")
    return common


def _load(args, path: str):
    override = Scale(args.scale) if args.scale else None
    return load_matrix(path, scale_override=override,
                       reciprocity_tol=args.reciprocity_tol)


def _parse_scores(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ValueError(f"cannot parse score list {text!r}") from None


# -- rank ----------------------------------------------------------------------


def _rank_report(args) -> dict:
    m = _load(args, args.matrix)
    x = to_multiplicative(m, base=args.base)
    a = to_additive(m, base=args.base)

    perron = principal_scores(x)
    trop = tropical_solve(a)
    scores = {
        "principal": perron.eigenvector,
        "hodge": hodge_scores(x),
        "tropical": trop.eigenvector.as_multiplicative(args.base),
    }
    unit = {name: s.as_multiplicative(args.base).first_unit().values
            for name, s in scores.items()}
    rankings = {name: rank_of(s) for name, s in scores.items()}
    taus = {}
    for pair in METHOD_PAIRS:
        first, second = pair.split("-")
        taus[pair] = kendall_tau(rankings[first], rankings[second])
    return {
        "input": str(args.matrix),
        "scale": m.scale.value,
        "base": args.base,
        "scores": {name: list(unit[name]) for name in ("principal", "hodge", "tropical")},
        "rankings": {name: str(rankings[name])
                     for name in ("principal", "hodge", "tropical")},
        "consistency_index": _consistency(perron.eigenvalue, x.n),
        "tropical": {
            "eigenvalue": trop.eigenvalue,
            "unique": trop.unique,
            "critical_class_count": trop.critical_class_count,
        },
        "kendall_tau": taus,
    }


def cmd_rank(args) -> int:
    report = _rank_report(args)
    if args.format == "json":
        _print(_json_dumps(report))
        return 0
    names = ("principal", "hodge", "tropical")
    n = len(report["scores"]["principal"])
    if args.format == "csv":
        lines = ["method," + ",".join(f"s{i}" for i in range(1, n + 1)) + ",ranking"]
        for name in names:
            row = ",".join(_g12(v) for v in report["scores"][name])
            lines.append(f"{name},{row},{report['rankings'][name]}")
        _print("\n".join(lines))
        return 0
    width = max(len(name) for name in names)
    lines = [f"input: {report['input']}  (scale {report['scale']})"]
    header = " ".join(f"{('item ' + str(i)):>8}" for i in range(1, n + 1))
    lines.append(f"{'':<{width}} {header}  ranking")
    for name in names:
        row = " ".join(f"{_f3(v):>8}" for v in report["scores"][name])
        lines.append(f"{name:<{width}} {row}  {report['rankings'][name]}")
    lines.append(f"consistency index {_f3(report['consistency_index'])}")
    uniq = "unique" if report["tropical"]["unique"] else "non-unique"
    lines.append(f"tropical eigenvalue {_f3(report['tropical']['eigenvalue'])} ({uniq})")
    lines.append("kendall tau " + "  ".join(
        f"{p}={report['kendall_tau'][p]}" for p in METHOD_PAIRS))
    _print("\n".join(lines))
    return 0


# -- witness -------------------------------------------------------------------


def _fraction_str(value) -> str | float:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def cmd_witness(args) -> int:
    req = WitnessRequest(
        n=args.n,
        pair=Pair(args.pair),
        sigma1=Ranking.from_string(args.sigma1),
        sigma2=Ranking.from_string(args.sigma2),
    )
    if args.base is not None and req.pair is Pair.HODGE_TROPICAL:
        raise ValueError("--base applies only to the multiplicative pairs "
                         "(hodge-principal, tropical-principal)")
    result = generate_witness(req, base=math.e if args.base is None else args.base)
    params = result.parameters
    ver = result.verification
    report = {
        "pair": req.pair.value,
        "n": req.n,
        "sigma1": str(req.sigma1),
        "sigma2": str(req.sigma2),
        "matrix_file": str(args.out),
        "scale": result.matrix.scale.value,
        "parameters": {
            "k": params.k,
            "epsilon": params.epsilon,
            "L": _fraction_str(params.L),
            "delta": [_fraction_str(d) for d in params.delta] if params.delta else None,
            "base": params.base,
        },
        "verification": {
            ver.method1: {"scores": list(ver.scores1.values),
                          "scale": ver.scores1.scale.value,
                          "ranking": str(ver.ranking1)},
            ver.method2: {"scores": list(ver.scores2.values),
                          "scale": ver.scores2.scale.value,
                          "ranking": str(ver.ranking2)},
        },
    }
    text = _json_dumps(report)
    save_matrix(args.out, result.matrix)
    if args.report:
        Path(args.report).write_text(text + "\n")
    _print(text)
    return 0


# -- classify4 -----------------------------------------------------------------


def cmd_classify4(args) -> int:
    m = _load(args, args.matrix)
    a = to_additive(m, base=args.base)
    match = classify_region4(a, margin=args.margin)
    trop = tropical_closed_form4(a, margin=args.margin)
    report = {
        "input": str(args.matrix),
        "region": match.region.name,
        "facet": match.region.facet,
        "critical_cycle": list(match.region.critical_cycle),
        "tau": list(match.tau),
        "f_original": list(match.f_original),
        "f_canonical": list(match.f_canonical),
        "tropical": {
            "eigenvalue": trop.eigenvalue,
            "eigenvector": list(trop.eigenvector.values),
            "unique": trop.unique,
        },
    }
    if args.format == "table":
        lines = [
            f"input: {report['input']}",
            f"region {report['region']} (facet {report['facet']}), "
            f"critical cycle {tuple(report['critical_cycle'])}",
            f"relabeling tau: {tuple(report['tau'])}",
            "f original:  " + " ".join(_f3(v) for v in report["f_original"]),
            "f canonical: " + " ".join(_f3(v) for v in report["f_canonical"]),
            f"tropical eigenvalue {_f3(trop.eigenvalue)}, eigenvector "
            + " ".join(_f3(v) for v in trop.eigenvector.values),
        ]
        _print("\n".join(lines))
    else:
        _print(_json_dumps(report))
    return 0


# -- simulate ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.noise == "gaussian":
        noise = GaussianUpperTriangle(args.sd)
        noise_desc = {"kind": "gaussian", "sd": args.sd}
    else:
        noise = UniformSTperp(args.halfwidth)
        noise_desc = {"kind": "stperp", "halfwidth": args.halfwidth}
    true_scores = None
    if args.scores:
        true_scores = ScoreVector(_parse_scores(args.scores), Scale.ADDITIVE)
    cfg = SimulationConfig(n=args.n, trials=args.trials, noise=noise,
                           true_scores=true_scores, seed=args.seed)
    rep = monte_carlo_disagreement(cfg, jobs=args.jobs)
    report = {
        "n": rep.n,
        "trials": rep.trials,
        "seed": rep.seed,
        "noise": noise_desc,
        "true_scores": list(true_scores.values) if true_scores is not None else None,
        "degenerate": rep.degenerate,
        "failures": rep.failures,
        "effective": rep.effective,
        "counts": rep.counts,
        "rates": rep.rates,
        "mean_kendall": rep.mean_kendall,
    }
    if args.format == "table":
        lines = [f"n={rep.n} trials={rep.trials} seed={rep.seed} "
                 f"effective={rep.effective} degenerate={rep.degenerate} "
                 f"failures={rep.failures}"]
        for pair in METHOD_PAIRS:
            rate = rep.rates[pair]
            shown = _f3(rate) if math.isfinite(rate) else "n/a"
            lines.append(f"{pair:<20} count {rep.counts[pair]:>6}  rate {shown}")
        _print("\n".join(lines))
    else:
        _print(_json_dumps(report))
    return 0


# -- trajectory ----------------------------------------------------------------


def cmd_trajectory(args) -> int:
    m = _load(args, args.matrix)
    x = to_multiplicative(m, base=args.base)
    # np.geomspace warns on a bound that is not finite
    if not 0 < args.k_min < args.k_max < math.inf or args.points < 2:
        raise ValueError("need finite 0 < k-min < k-max and at least two points")
    grid = np.geomspace(args.k_min, args.k_max, args.points)
    points = hadamard_trajectory(x, k_grid=grid)
    n = x.n
    if args.format == "json":
        out = [{
            "k": p.k,
            "v": list(p.v_normalized) if p.converged else None,
            "ranking": str(p.ranking) if p.ranking else ("tie" if p.converged else None),
            "converged": p.converged,
        } for p in points]
        _print(_json_dumps(out))
        return 0
    lines = ["k," + ",".join(f"v{i}" for i in range(1, n + 1)) + ",ranking"]
    for p in points:
        if not p.converged:
            lines.append(_g12(p.k) + "," * n + ",failed")
            continue
        row = ",".join(_g12(v) for v in p.v_normalized)
        label = str(p.ranking) if p.ranking is not None else "tie"
        lines.append(f"{_g12(p.k)},{row},{label}")
    _print("\n".join(lines))
    return 0


# -- entry point ---------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    common = _matrix_flags()
    parser = _Parser(prog="pairrank",
                     description="Rank from pairwise comparison matrices and "
                                 "probe where the three classical methods disagree.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("rank", parents=[common],
                       help="score and rank one comparison matrix three ways")
    p.add_argument("matrix", help="CSV matrix file")
    p.add_argument("--format", choices=["json", "table", "csv"], default="json")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("witness", help="construct a matrix giving two prescribed rankings")
    p.add_argument("--pair", required=True, choices=[pr.value for pr in Pair])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--sigma1", required=True, help="ranking, e.g. 1,2,3,4 or 1>2>3>4")
    p.add_argument("--sigma2", required=True)
    p.add_argument("--out", required=True, help="output CSV path for the matrix")
    p.add_argument("--report", default=None, help="optional JSON report path")
    p.add_argument("--base", type=float, default=None,
                   help="base for the multiplicative pairs only (default e)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("classify4", parents=[common],
                       help="locate a 4-item matrix in the region decomposition")
    p.add_argument("matrix")
    p.add_argument("--margin", type=float, default=1e-7,
                   help="relative wall margin treated as boundary (default 1e-7)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_classify4)

    p = sub.add_parser("simulate", help="Monte Carlo disagreement rates on noisy matrices")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--noise", choices=["gaussian", "stperp"], default="gaussian")
    p.add_argument("--sd", type=float, default=1.0,
                   help="gaussian noise sd (default 1.0)")
    p.add_argument("--halfwidth", type=float, default=1.0,
                   help="stperp coefficient half-width (default 1.0)")
    p.add_argument("--scores", default=None,
                   help="comma-separated additive true scores (default none)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most the CPU count (default 1)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trajectory", parents=[common],
                       help="principal eigenvector of Hadamard powers along a k-grid")
    p.add_argument("matrix")
    p.add_argument("--k-min", type=float, default=0.05)
    p.add_argument("--k-max", type=float, default=60.0)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_trajectory)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TieDetected as exc:
        return _fail(f"degenerate result: {exc}", 2)
    except BoundaryCase as exc:
        return _fail(f"boundary result: {exc}", 2)
    except (PairrankError, ValueError, OSError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
