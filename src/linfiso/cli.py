"""Command line interface.

Subcommands: decide, bounds, projconst, crosscheck, gen.  All rational
values print as exact tokens like 4/3; --json output carries them as
strings, never as floating point.  decide exits 0 when the subspace is
isometric to the smaller sup-norm space, 1 when it is not, 2 on errors;
crosscheck exits 1 when any instance disagrees.  decide, bounds and
projconst refuse, with exit 2, an instance with more index sets than
--max-sets before their scan starts; crosscheck refuses a --max-n and
--max-m whose widest shape exceeds the default budget before it draws.

Each subcommand returns its exit code and its whole output as one
string; main writes it only after every value has been formatted, so a
failure part-way (exit 2) leaves stdout empty."""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import comb
from typing import Optional, Sequence

from .bounds import best_upper_bound
from .canonical import MAX_SETS, SubspaceSpec
from .crosscheck import run_crosscheck
from .decide import DecisionReport, decide_isometric
from .errors import LinfisoError, SetBudgetError
from .instances import (
    KIND_ANNIHILATOR,
    KIND_SPANNING,
    format_instance,
    load_instance,
    random_instance,
)
from .linalg import Matrix, format_rational
from .lp import verify_certificate
from .projection import minimal_projection_program, projection_constant


def _matrix_rows(matrix: Matrix) -> list[list[str]]:
    return [
        [format_rational(x) for x in matrix.row(i)]
        for i in range(matrix.rows)
    ]


def _witness_payload(report: DecisionReport):
    if report.witness is None:
        return None
    witness = report.witness
    return {
        "set": list(witness.index_set.members),
        "vectors": {
            str(k): [format_rational(x) for x in vec]
            for k, vec in witness.family.vectors.items()
        },
        "norms": {
            str(k): format_rational(v) for k, v in witness.norms.items()
        },
    }


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_spec(args) -> SubspaceSpec:
    if args.max_sets < 1:
        raise LinfisoError("--max-sets must be at least 1")
    return load_instance(args.path).to_spec()


def _cmd_decide(args) -> tuple[int, str]:
    report = decide_isometric(_load_spec(args), max_sets=args.max_sets)
    code = 0 if report.verdict else 1
    verdict = "isometric" if report.verdict else "not isometric"
    if args.json:
        payload = {
            "verdict": verdict,
            "method": report.method.value,
            "sets_examined": report.sets_examined,
            "witness": _witness_payload(report),
        }
        return code, _json(payload)
    lines = [
        f"verdict: {verdict}",
        f"method: {report.method.value}",
        f"sets examined: {report.sets_examined}",
    ]
    if report.witness is not None:
        witness = report.witness
        lines.append(f"witness: {witness.index_set}")
        for k in witness.index_set:
            vec = " ".join(format_rational(x) for x in witness.family.vectors[k])
            norm = format_rational(witness.norms[k])
            lines.append(f"vector {k}: [{vec}]  1-norm {norm}")
    return code, _text(lines)


def _cmd_bounds(args) -> tuple[int, str]:
    spec = _load_spec(args)
    report = best_upper_bound(spec, materialize=args.per_set, max_sets=args.max_sets)
    proj = projection_constant(spec, report.best_set)
    if args.json:
        payload = {
            "lower": format_rational(proj.constant),
            "upper": format_rational(report.best_upper),
            "best_set": list(report.best_set.members),
        }
        if report.per_set is not None:
            payload["per_set"] = {
                str(list(s.members)): format_rational(v)
                for s, v in report.per_set.items()
            }
        return 0, _json(payload)
    lines = [
        f"lower (projection constant): {format_rational(proj.constant)}",
        f"upper (best per-set bound): {format_rational(report.best_upper)}",
        f"best set: {report.best_set}",
    ]
    if report.per_set is not None:
        for s, v in report.per_set.items():
            lines.append(f"  {s}: {format_rational(v)}")
    return 0, _text(lines)


def _cmd_projconst(args) -> tuple[int, str]:
    spec = _load_spec(args)
    # the cut loop starts at the best set of the scan; a hyperplane has
    # a closed form and needs no scan
    best_set = None
    if spec.codim > 1:
        best_set = best_upper_bound(spec, max_sets=args.max_sets).best_set
    # built before the solve: its objects survive the solve's young
    # collections and so bring the next full one sooner, which keeps the
    # peak RSS of a process that runs many jobs lower
    program = minimal_projection_program(spec)
    proj = projection_constant(spec, best_set)
    certified = verify_certificate(program, proj.certificate)
    code = 0 if certified else 2
    certificate = "valid" if certified else "INVALID"
    if args.json:
        payload = {
            "lambda": format_rational(proj.constant),
            "method": proj.method,
            "certificate": certificate,
        }
        if args.emit_projection:
            payload["right_inverse"] = _matrix_rows(proj.right_inverse)
            payload["projection"] = _matrix_rows(proj.projection)
        return code, _json(payload)
    lines = [
        f"projection constant: {format_rational(proj.constant)}",
        f"method: {proj.method}",
        f"certificate: {certificate}",
    ]
    if args.emit_projection:
        lines.append("right inverse:")
        lines.extend("  " + " ".join(row) for row in _matrix_rows(proj.right_inverse))
        lines.append("projection:")
        lines.extend("  " + " ".join(row) for row in _matrix_rows(proj.projection))
    return code, _text(lines)


def _cmd_crosscheck(args) -> tuple[int, str]:
    if args.count < 1:
        raise LinfisoError("--count must be at least 1")
    if not 1 <= args.max_m < args.max_n:
        raise LinfisoError("need 1 <= --max-m < --max-n")
    # the widest shape it can draw must fit the scans' set budget; the
    # first test spares comb a huge --max-n, as C(N, k) >= N for k >= 1
    widest = min(args.max_m, args.max_n // 2)
    if args.max_n > MAX_SETS or comb(args.max_n, widest) > MAX_SETS:
        raise LinfisoError(
            f"--max-n {args.max_n} with --max-m {args.max_m} can draw "
            f"C({args.max_n}, {widest}) index sets, over the set budget of "
            f"{MAX_SETS}; lower --max-n or --max-m"
        )
    if args.entry_range < 1:
        raise LinfisoError("--entry-range must be at least 1")
    summary = run_crosscheck(
        seed=args.seed,
        count=args.count,
        max_ambient=args.max_n,
        max_codim=args.max_m,
        entry_bound=args.entry_range,
    )
    code = 0 if summary.ok else 1
    if args.json:
        payload = {
            "seed": summary.seed,
            "instances": summary.instances,
            "agreements": summary.agreements,
            "checks_run": summary.checks_run,
            "disagreements": [
                {
                    "instance_index": f.instance_index,
                    "check": f.check,
                    "detail": f.detail,
                    "instance": f.instance_text,
                }
                for f in summary.disagreements
            ],
        }
        return code, _json(payload)
    lines = [
        f"instances: {summary.instances}  agreements: {summary.agreements}"
        f"  disagreements: {len(summary.disagreements)}"
    ]
    for f in summary.disagreements:
        lines.append(f"instance {f.instance_index} failed {f.check}: {f.detail}")
        lines.append(f.instance_text.rstrip())
    return code, _text(lines)


def _cmd_gen(args) -> tuple[int, str]:
    if args.n < 1 or args.m < 1:
        raise LinfisoError("--n and --m must be at least 1")
    if args.entry_range < 1:
        raise LinfisoError("--entry-range must be at least 1")
    rng = random.Random(args.seed)
    instance = random_instance(
        rng,
        ambient=args.n + args.m,
        codim=args.m,
        entry_bound=args.entry_range,
        kind=args.kind,
        rational=args.rational,
    )
    return 0, format_instance(instance)


def _add_max_sets(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-sets",
        type=int,
        default=MAX_SETS,
        help=f"refuse an instance with more index sets (default {MAX_SETS})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfiso",
        description=(
            "Exact isometry tests and projection constants for subspaces "
            "of finite sup-norm spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser(
        "decide", help="is the subspace isometric to the smaller space?"
    )
    decide.add_argument("path", help="instance file")
    decide.add_argument("--json", action="store_true")
    _add_max_sets(decide)
    decide.set_defaults(func=_cmd_decide)

    bounds = sub.add_parser(
        "bounds", help="projection constant and best per-set distance bound"
    )
    bounds.add_argument("path", help="instance file")
    bounds.add_argument(
        "--per-set", action="store_true", help="also list every set's bound"
    )
    bounds.add_argument("--json", action="store_true")
    _add_max_sets(bounds)
    bounds.set_defaults(func=_cmd_bounds)

    projconst = sub.add_parser(
        "projconst",
        help="exact projection constant, by closed form for a hyperplane "
        "and rational LP otherwise",
    )
    projconst.add_argument("path", help="instance file")
    projconst.add_argument(
        "--emit-projection",
        action="store_true",
        help="print the optimal right inverse and projection",
    )
    projconst.add_argument("--json", action="store_true")
    _add_max_sets(projconst)
    projconst.set_defaults(func=_cmd_projconst)

    crosscheck = sub.add_parser(
        "crosscheck", help="random instances, every route must agree"
    )
    crosscheck.add_argument("--seed", type=int, default=0)
    crosscheck.add_argument("--count", type=int, default=100)
    crosscheck.add_argument("--max-n", type=int, default=5)
    crosscheck.add_argument("--max-m", type=int, default=2)
    crosscheck.add_argument("--entry-range", type=int, default=5)
    crosscheck.add_argument("--json", action="store_true")
    crosscheck.set_defaults(func=_cmd_crosscheck)

    gen = sub.add_parser("gen", help="write a random instance to stdout")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, required=True, help="subspace dimension")
    gen.add_argument("--m", type=int, required=True, help="codimension")
    gen.add_argument("--entry-range", type=int, default=5)
    gen.add_argument(
        "--kind",
        choices=[KIND_ANNIHILATOR, KIND_SPANNING],
        default=KIND_ANNIHILATOR,
    )
    gen.add_argument(
        "--rational",
        action="store_true",
        help="divide entries by random denominators",
    )
    gen.set_defaults(func=_cmd_gen)
    return parser


# main's parser, built on the first call and kept: building one takes
# about a millisecond, a large share of a small job
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, text = args.func(args)
        sys.stdout.write(text)
    except SetBudgetError as exc:
        print(f"error: {exc}; raise it with --max-sets", file=sys.stderr)
        return 2
    except (LinfisoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    raise SystemExit(main())
