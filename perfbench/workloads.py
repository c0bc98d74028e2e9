"""Seeded instances and job lists for the three workloads.

The generator is the benchmark's own random.Random, so a change to
linfiso.instances.random_instance cannot shift any workload.  Instances
are written in the documented text format and handed to linfiso as files.

Why each workload (BENCHMARK.json repeats this):

* projconst_ladder: one `linfiso projconst --json --emit-projection` job
  per instance over a size ladder.  lp.solve and verify_certificate do
  nearly all the work; the m = 1 rows are where a closed form would show
  and the rational rows stress bit-length growth in the pivot kernel.
* scan_wide: (N, m) = (12, 5), (13, 3), (14, 3), so `decide` runs the general
  determinant-ratio scan and the LP does nothing.  Half the instances
  are random (full scan), half carry a planted witness near the middle of
  the scan order (early exit).  Each instance gives a `linfiso decide
  --json` job and a library best_upper_bound(spec, materialize=True) job.
* crosscheck_small: many tiny instances, one check_instance call each:
  the acceptance-sweep traffic, where per-LP fixed costs matter.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

import exact

ENTRY_BOUND = 5

# projconst_ladder rungs: (N, m, rational entries, instances).  The LP
# time of one random instance with m >= 2 varies by a third to a half of
# its mean from seed to seed, and with m = 1 by a twentieth.  So the
# m >= 2 rungs use small instances, and nine m = 1 instances at N = 11
# hold the middle of the job-time order: the seven m >= 2 jobs take less
# or more depending on the seed, the N = 12 jobs always take more, and
# the median of the nineteen jobs is one of the nine whatever the seed.
# The nine also keep the seed-to-seed spread of a pass's total time to
# about a thirtieth of it, where the m >= 2 jobs alone would spread by a
# sixth of theirs.  Larger LPs are
# left out: ROADMAP's (8, 4) and (10, 4) because one solve takes 32 s
# and 447 s today; (7, 3) and (8, 2) because one instance takes anywhere
# from 1.5 to 7 s and from 0.7 to 5 s, depending on the seed; and m = 1
# beyond N = 12 because the time of those tableaus swung by up to 1.5x
# between runs of the same input on a shared 2-core machine.
LADDER = (
    (11, 1, False, 9),
    (12, 1, False, 3),
    (6, 2, False, 1),
    (7, 2, False, 1),
    (5, 2, True, 2),
    (6, 2, True, 1),
    (5, 3, False, 2),
)

# scan_wide: (N, m) shapes; each gets one random and one planted instance.
# The planted decide jobs stop at a seed-dependent point of the scan, so
# the three full-scan jobs of (14, 3), which take longer than the (13, 3)
# jobs and less than the (12, 5) ones, hold the median job latency.
SCAN_SHAPES = ((12, 5), (13, 3), (14, 3))

# crosscheck_small follows run_crosscheck's distribution (N uniform in
# 2..5, m uniform in 1..min(3, N - 1)) but is stratified: each (N, m)
# cell gets its expected share of CROSSCHECK_COUNT, so the seed moves the
# entries and not the size mix.  N = 6 is left out: one (6, 3) check
# takes 1.4 s on average with a seed-to-seed spread of half that, and
# the few (6, 3) instances a pass can hold would set its time.  Even the
# (5, 3) checks take half a pass, and their time varies by half its mean
# from seed to seed; so the count is 360, not 100, with which the pass
# total spread by a twentieth of it over ten seeds.  More would average
# the seeds out further, but a run's two passes already take 30 to 45 s
# on a shared 2-core Xeon.
CROSSCHECK_MAX_N = 5
CROSSCHECK_MAX_M = 3
CROSSCHECK_COUNT = 360

WORKLOADS = ("projconst_ladder", "scan_wide", "crosscheck_small")


@dataclass(frozen=True)
class Instance:
    key: str
    matrix: tuple  # N rows of m Fractions: the annihilator F
    planted: bool = False

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def m(self) -> int:
        return len(self.matrix[0])

    def text(self) -> str:
        lines = [f"{self.n} {self.m} annihilator"]
        lines += [" ".join(str(x) for x in row) for row in self.matrix]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Job:
    key: str
    kind: str  # projconst | decide | bounds | crosscheck
    instance: Instance


def _random_matrix(rng, n, m, rational=False):
    """Full-rank N x m matrix, entries uniform in [-R, R], optionally
    divided by a uniform denominator in [1, R]."""
    while True:
        rows = [
            [
                Fraction(rng.randint(-ENTRY_BOUND, ENTRY_BOUND),
                         rng.randint(1, ENTRY_BOUND) if rational else 1)
                for _ in range(m)
            ]
            for _ in range(n)
        ]
        if exact.rank(rows) == m:
            return tuple(tuple(r) for r in rows)


def _unrank(n, m, rank_):
    """The rank_-th m-subset of range(n) in lexicographic order."""
    out, start = [], 0
    for slot in range(m):
        for first in range(start, n):
            below = comb(n - first - 1, m - slot - 1)
            if rank_ < below:
                out.append(first)
                start = first + 1
                break
            rank_ -= below
    return tuple(out)


def _planted_matrix(rng, n, m):
    """An isometric instance: F = [I; G] A with every column of G of
    1-norm at most 1, so the rows of I form a witness.  The witness rows
    land on a set near the middle of the lexicographic scan order; A is a
    random invertible integer matrix and a common denominator is cleared,
    so the file shows neither the identity block nor fractions."""
    g_cols = []
    for _ in range(m):
        weights = [rng.randint(-3, 3) for _ in range(n - m)]
        scale = sum(abs(w) for w in weights) + rng.randint(0, 2) or 1
        g_cols.append([Fraction(w, scale) for w in weights])
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        if exact.inverse(a) is not None:
            break
    total = comb(n, m)
    witness = _unrank(n, m, total // 2 + rng.randint(-total // 10, total // 10))
    others = [i for i in range(n) if i not in witness]
    rng.shuffle(others)
    order = list(range(m))
    rng.shuffle(order)
    base = [None] * n
    for pos, k in zip(witness, order):
        base[pos] = [Fraction(int(j == k)) for j in range(m)]
    for pos, r in zip(others, range(n - m)):
        base[pos] = [g_cols[k][r] for k in range(m)]
    rows = exact.matmul(base, a)
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x * den for x in row) for row in rows)


def _crosscheck_cells(count):
    """(N, m) cells with the instance count run_crosscheck's
    distribution gives each, largest remainders rounded up."""
    shares = []
    for n in range(2, CROSSCHECK_MAX_N + 1):
        top = min(CROSSCHECK_MAX_M, n - 1)
        for m in range(1, top + 1):
            shares.append(((n, m), Fraction(count, (CROSSCHECK_MAX_N - 1) * top)))
    counts = {cell: int(share) for cell, share in shares}
    left = count - sum(counts.values())
    by_remainder = sorted(shares, key=lambda cs: (-(cs[1] - int(cs[1])), cs[0]))
    for cell, _ in by_remainder[:left]:
        counts[cell] += 1
    return counts


def make_instances(workload, seed):
    """The workload's instances; the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "projconst_ladder":
        for n, m, rational, copies in LADDER:
            for c in range(copies):
                tag = "q" if rational else "z"
                out.append(Instance(f"n{n}m{m}{tag}{c}", _random_matrix(rng, n, m, rational)))
    elif workload == "scan_wide":
        for n, m in SCAN_SHAPES:
            out.append(Instance(f"n{n}m{m}r", _random_matrix(rng, n, m)))
            out.append(Instance(f"n{n}m{m}p", _planted_matrix(rng, n, m), planted=True))
    elif workload == "crosscheck_small":
        for (n, m), copies in sorted(_crosscheck_cells(CROSSCHECK_COUNT).items()):
            for c in range(copies):
                out.append(Instance(f"n{n}m{m}c{c}", _random_matrix(rng, n, m)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def make_jobs(workload, instances):
    kinds = {
        "projconst_ladder": ("projconst",),
        "scan_wide": ("decide", "bounds"),
        "crosscheck_small": ("crosscheck",),
    }[workload]
    return [Job(f"{inst.key}.{kind}", kind, inst) for inst in instances for kind in kinds]


def _cli(linfiso, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = linfiso.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_job(linfiso, job, path):
    """Run one job against the linfiso package; returns its raw result.
    Every lookup goes through module attributes at call time, so a
    traced run sees the wrapped entry points."""
    if job.kind == "projconst":
        return _cli(linfiso, ["projconst", "--json", "--emit-projection", path])
    if job.kind == "decide":
        return _cli(linfiso, ["decide", "--json", path])
    instance = linfiso.instances.load_instance(path)
    if job.kind == "bounds":
        return linfiso.bounds.best_upper_bound(instance.to_spec(), materialize=True)
    return linfiso.crosscheck.check_instance(instance)
