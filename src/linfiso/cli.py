"""Command line interface.

Subcommands: decide, bounds, projconst, crosscheck, gen.  All rational
values print as exact tokens like 4/3; --json output carries them as
strings, never as floating point.  decide exits 0 when the subspace is
isometric to the smaller sup-norm space, 1 when it is not, 2 on errors;
crosscheck exits 1 when any instance disagrees.

Each subcommand returns its exit code and its whole output as one
string; main writes it only after every value has been formatted, so a
failure part-way (exit 2) leaves stdout empty."""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional, Sequence

from .bounds import best_upper_bound
from .crosscheck import run_crosscheck
from .decide import DecisionReport, decide_isometric
from .errors import LinfisoError
from .instances import (
    KIND_ANNIHILATOR,
    KIND_SPANNING,
    format_instance,
    load_instance,
    random_instance,
)
from .linalg import Matrix, format_rational
from .lp import verify_certificate
from .projection import projection_constant


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


def _cmd_decide(args) -> tuple[int, str]:
    instance = load_instance(args.path)
    report = decide_isometric(instance.to_spec(), mode=args.mode)
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
    instance = load_instance(args.path)
    spec = instance.to_spec()
    report = best_upper_bound(spec, materialize=args.per_set)
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
    instance = load_instance(args.path)
    proj = projection_constant(instance.to_spec())
    certified = verify_certificate(proj.program, proj.certificate)
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
    decide.add_argument(
        "--mode",
        choices=["auto", "general"],
        default="auto",
        help="auto uses closed forms for codimension 1 and 2",
    )
    decide.add_argument("--json", action="store_true")
    decide.set_defaults(func=_cmd_decide)

    bounds = sub.add_parser(
        "bounds", help="projection constant and best per-set distance bound"
    )
    bounds.add_argument("path", help="instance file")
    bounds.add_argument(
        "--per-set", action="store_true", help="also list every set's bound"
    )
    bounds.add_argument("--json", action="store_true")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.func(args)
        sys.stdout.write(text)
    except (LinfisoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    raise SystemExit(main())
