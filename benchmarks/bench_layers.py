"""Layer timings of the projection constant and of the admissible-set
scan on a fixed, seeded ladder.

Run from the root of a source checkout:

    python3 benchmarks/bench_layers.py [--out benchmarks/BENCH_layers.json]

Each rung is a shape (N, m) and a seed, and its instance is
random_instance(random.Random(seed), N, m); (12, 4) runs at two seeds,
so one lucky draw does not carry a figure, and (16, 4), (16, 5) and
(20, 4) stand past the wall, where the master's pivots dominate and long
stretches of them are degenerate.  projection_constant runs REPEATS
times on each.  Each time is the median over the repeats, in seconds:
the whole projection_constant call; setup_s, from the call to the start
of the LP (the best-set scan and P_S); master_s, from the start of the
LP to its last solve (every round of the cut loop, its separation
included); mapping_s, from there to the end of the call (the reading of
Y and of the dual operator Z from the last master, and the product P
and its norm); and verify_s, the LP check: lp_certificate, which writes
the point and the duals of the full program from the result, the build
of minimal_projection_program(spec) and verify_certificate on them;
and check_s, verify_trace_duality(spec, result), the integer check of
the same answer by its own Z, with no program.  The two checks must
agree on every repeat, or the script exits 1; check_s is null in a
checkout without the integer check.
projection_constant builds no program and writes no LP certificate: a
checkout whose call still built one counts that build in projconst_s
(and in setup_s), and builds it again for verify_s, and a checkout whose
result carried its certificate counts the writing in mapping_s and
projconst_s.  The LP counters are read from result.stats, or from
result.certificate.stats in a checkout that has no such field.  The
answer fields come from the first repeat, and every repeat must give the
same ones, or the script exits 1: the route (method), the digest of
lambda, whether the certificate verifies, the cut rounds and cuts, the
master's pivots and degenerate pivots, and tableau_bits, LpStats.end_bits
of the last solve: the largest bit length of det and of an entry of the
master's integer block [det B^-1, rhs; cost row].  Those integers run
longer than the reduced fractions of the rational tableau that the
master kept before, so tableau_bits does not compare with files written
by such a checkout.  A hyperplane (m = 1) runs no LP: its closed form has no
solver stats, so the LP fields and setup_s, master_s and mapping_s are
null, and projconst_s is the closed form and the product P = I - Y F^T.
The file also records the Python version, the CPU count, the commit, and
source_sha256, a digest of src/linfiso/*.py that tells apart checkouts
without git metadata, so two files written by two checkouts of the
program on one machine compare layer by layer.  A checkout that predates
a field reports it as null.

Two such files compare exactly in their answer fields, but they are not a
timing comparison.  Each file times its checkout in one block of about a
minute, and a machine's speed drifts between blocks: on a 2-vCPU Intel
Xeon, the scan rungs of two files written back to back read up to 1.9x
apart on identical code.  A timing claim needs an interleaved A/B
instead: the two checkouts timed in alternation, rung by rung, with the
minimum of several process_time runs a side.

The scan rungs, under "scans", are the three scan_wide shapes of the
benchmark, (12, 5), (13, 3) and (14, 3), then (16, 4), (18, 3) and the
hyperplane (400, 1), on random_instance(random.Random(seed), N, m), and
then the planted isometric (14, 3) of planted_instance, whose verdict
is "isometric", so its verdict digest covers the witness set and norms.
They run no LP.  decide_s is decide_isometric(spec), the prefix walk,
which decide runs at every m (a checkout that took the closed form at
m = 1 times that instead), bounds_s is best_upper_bound(spec,
materialize=True) and bounds_best_s is best_upper_bound(spec), the start
scan of projection_constant, each the median over the repeats.  The
answer fields are the verdict's digest (verdict, witness set and witness
norms), sets_examined, admissible_sets (the size of per_set),
bound_digest, the digest of best_upper and best_set, and
best_bound_digest, the same digest from best_upper_bound(spec), which
must equal bound_digest; every repeat must give the same ones, or the
script exits 1.

The program is imported from ./src of the checkout the script runs from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import linfiso  # noqa: E402
from linfiso import (  # noqa: E402
    best_upper_bound,
    decide_isometric,
    minimal_projection_program,
    projection_constant,
    random_instance,
    subspace_from_annihilator,
    verify_certificate,
)

# (N, m, seed)
RUNGS = (
    (16, 1, 1), (24, 1, 1), (8, 4, 1), (10, 4, 1), (12, 3, 1), (12, 4, 1),
    (12, 4, 2), (14, 3, 1), (16, 4, 1), (16, 5, 1), (20, 4, 1),
)
# (N, m, seed, planted) of the scan rungs
SCAN_RUNGS = (
    (12, 5, 1, False), (13, 3, 1, False), (14, 3, 1, False), (16, 4, 1, False),
    (18, 3, 1, False), (400, 1, 1, False), (14, 3, 1, True),
)
REPEATS = 3


def digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def planted_instance(n: int, m: int, seed: int):
    """An isometric instance: F has the rows of the m x m identity at m
    coordinates that random.Random(seed) draws, and elsewhere rows over
    one denominator per column that give every column 1-norm at most 1
    off those coordinates.  The identity rows are then a witness whose
    canonical vectors are the columns of F, of 1-norm at most 2."""
    rng = random.Random(seed)
    witness = sorted(rng.sample(range(n), m))
    weights = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n - m)]
    scales = [
        sum(abs(w[k]) for w in weights) + rng.randint(0, 2) or 1 for k in range(m)
    ]
    rest = iter(weights)
    rows = [
        [int(witness.index(i) == k) for k in range(m)] if i in witness
        else [Fraction(w, s) for w, s in zip(next(rest), scales)]
        for i in range(n)
    ]
    return subspace_from_annihilator(rows)


def certificate_of(spec, result):
    """The LP certificate of a result: lp_certificate's, or the one a
    checkout's result carried."""
    if hasattr(linfiso, "lp_certificate"):
        return linfiso.lp_certificate(spec, result)
    return result.certificate


def measure(n: int, m: int, seed: int) -> dict:
    """One repeat: the answer's fingerprint and the time of each layer."""
    spec = random_instance(random.Random(seed), n, m).to_spec()
    began = time.perf_counter()
    result = projection_constant(spec)
    ended = time.perf_counter()
    certificate = certificate_of(spec, result)
    ok = verify_certificate(minimal_projection_program(spec), certificate)
    verified = time.perf_counter()
    checker = getattr(linfiso, "verify_trace_duality", None)
    proved = checker(spec, result) if checker else ok
    checked = time.perf_counter()
    stats = getattr(result, "stats", None) or getattr(certificate, "stats", None)
    lp = stats is not None
    return {
        "answer": {
            "method": getattr(result, "method", None),
            "lambda_digest": digest(result.constant),
            "certificate_verifies": ok,
            "rounds": getattr(result, "rounds", None),
            "cuts": getattr(result, "cuts", None),
            "pivots": getattr(stats, "pivots", None),
            "degenerate_pivots": stats.degenerate_pivots if lp else None,
            "tableau_bits": getattr(stats, "end_bits", None),
        },
        "seconds": {
            "projconst_s": ended - began,
            "setup_s": stats.started - began if lp else None,
            "master_s": stats.finished - stats.started if lp else None,
            "mapping_s": ended - stats.finished if lp else None,
            "verify_s": verified - ended,
            "check_s": checked - verified if checker else None,
        },
        "proved": proved,
    }


def measure_scan(n: int, m: int, seed: int, planted: bool) -> dict:
    """One repeat of a scan rung: decide and bounds, timed apart."""
    if planted:
        spec = planted_instance(n, m, seed)
    else:
        spec = random_instance(random.Random(seed), n, m).to_spec()
    began = time.perf_counter()
    decision = decide_isometric(spec)
    decided = time.perf_counter()
    bound = best_upper_bound(spec, materialize=True)
    bounded = time.perf_counter()
    best = best_upper_bound(spec)
    ended = time.perf_counter()
    witness = decision.witness
    return {
        "answer": {
            "verdict_digest": digest((
                decision.verdict,
                witness and witness.index_set.members,
                witness and sorted(witness.norms().items()),
            )),
            "sets_examined": decision.sets_examined,
            "admissible_sets": len(bound.per_set),
            "bound_digest": digest((bound.best_upper, bound.best_set.members)),
            "best_bound_digest": digest((best.best_upper, best.best_set.members)),
        },
        "seconds": {
            "decide_s": decided - began,
            "bounds_s": bounded - decided,
            "bounds_best_s": ended - bounded,
        },
    }


def median_seconds(runs: list) -> dict:
    return {
        key: None if runs[0]["seconds"][key] is None
        else round(statistics.median(run["seconds"][key] for run in runs), 4)
        for key in runs[0]["seconds"]
    }


def source_sha256() -> str:
    """A digest of the names and bytes of src/linfiso/*.py."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linfiso").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--out", type=Path, default=ROOT / "benchmarks" / "BENCH_layers.json"
    )
    args = parser.parse_args()
    rows = []
    for n, m, seed in RUNGS:
        runs = [measure(n, m, seed) for _ in range(REPEATS)]
        answer = runs[0]["answer"]
        if any(run["answer"] != answer for run in runs):
            print(f"({n}, {m}) seed {seed}: repeats disagree", file=sys.stderr)
            return 1
        if any(run["proved"] != answer["certificate_verifies"] for run in runs):
            print(f"({n}, {m}) seed {seed}: the two checks disagree", file=sys.stderr)
            return 1
        seconds = median_seconds(runs)
        rows.append({"n": n, "m": m, "seed": seed, **answer, **seconds})
        print(
            f"({n}, {m}) seed {seed}: lambda {answer['lambda_digest']}  rounds "
            f"{answer['rounds']} cuts {answer['cuts']} pivots "
            f"{answer['pivots']}  projconst {seconds['projconst_s']} s"
        )
    scans = []
    for n, m, seed, planted in SCAN_RUNGS:
        runs = [measure_scan(n, m, seed, planted) for _ in range(REPEATS)]
        answer = runs[0]["answer"]
        if any(run["answer"] != answer for run in runs):
            print(f"scan ({n}, {m}) seed {seed}: repeats disagree", file=sys.stderr)
            return 1
        if answer["best_bound_digest"] != answer["bound_digest"]:
            print(f"scan ({n}, {m}) seed {seed}: best bounds disagree", file=sys.stderr)
            return 1
        seconds = median_seconds(runs)
        scans.append(
            {"n": n, "m": m, "seed": seed, "planted": planted, **answer, **seconds}
        )
        print(
            f"scan ({n}, {m}) seed {seed}: examined {answer['sets_examined']} of "
            f"{answer['admissible_sets']}  decide {seconds['decide_s']} s  "
            f"bounds {seconds['bounds_s']} s  best {seconds['bounds_best_s']} s"
        )
    report = {
        "commit": commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "shapes": rows,
        "scans": scans,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
