"""Layer timings of the m >= 2 projection constant on a fixed, seeded ladder.

Run from the root of a source checkout:

    python3 benchmarks/bench_layers.py [--out benchmarks/BENCH_layers.json]

For each shape (N, m) the instance is random_instance(random.Random(1), N, m)
and projection_constant runs REPEATS times.  Each time is the median over
the repeats, in seconds: the whole projection_constant call, the tableau
build, phase 1 (the crash pivots of a started solve, else the phase-1
pricing), phase 2, the whole solve, and verify_certificate.  The pivot
counts and the digest of lambda come from the first repeat; every repeat
must give the same ones, or the script exits 1.  The file also records the
Python version, the CPU count and the commit, so two files written by two
checkouts of the program on one machine compare layer by layer.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from linfiso import (  # noqa: E402
    projection_constant,
    random_instance,
    verify_certificate,
)

SHAPES = ((8, 4), (10, 4), (12, 3), (12, 4), (14, 3))
SEED = 1
REPEATS = 3


def digest(value) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def measure(n: int, m: int) -> dict:
    """One repeat: the answer's fingerprint and the time of each layer."""
    spec = random_instance(random.Random(SEED), n, m).to_spec()
    began = time.perf_counter()
    result = projection_constant(spec)
    ended = time.perf_counter()
    ok = verify_certificate(result.program, result.certificate)
    verified = time.perf_counter()
    stats = result.certificate.stats
    return {
        "answer": {
            "lambda_digest": digest(result.constant),
            "certificate_verifies": ok,
            "start_pivots": getattr(stats, "start_pivots", 0),
            "phase1_pivots": stats.phase1_pivots,
            "phase2_pivots": stats.phase2_pivots,
            "degenerate_pivots": stats.degenerate_pivots,
        },
        "seconds": {
            "projconst_s": ended - began,
            "build_s": stats.built - stats.started,
            "phase1_s": stats.phase1_done - stats.built,
            "phase2_s": stats.finished - stats.phase1_done,
            "solve_s": stats.finished - stats.started,
            "verify_s": verified - ended,
        },
    }


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
    for n, m in SHAPES:
        runs = [measure(n, m) for _ in range(REPEATS)]
        answer = runs[0]["answer"]
        if any(run["answer"] != answer for run in runs):
            print(f"({n}, {m}): repeats disagree", file=sys.stderr)
            return 1
        seconds = {
            key: round(statistics.median(run["seconds"][key] for run in runs), 4)
            for key in runs[0]["seconds"]
        }
        rows.append({"n": n, "m": m, "seed": SEED, **answer, **seconds})
        print(
            f"({n}, {m}): lambda {answer['lambda_digest']}  pivots start "
            f"{answer['start_pivots']} phase 1 {answer['phase1_pivots']} "
            f"phase 2 {answer['phase2_pivots']}  solve {seconds['solve_s']} s"
        )
    report = {
        "commit": commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "shapes": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
