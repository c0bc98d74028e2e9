"""Answer extraction and answer checks.

answer_of() reduces a job's raw result to the answer that is pinned and
hashed: verdicts, witness sets, scan counts, lambda and the best per-set
bound.  The projection matrix is left out of the answer, because a
change of pivot rule may pick another optimal projection.

problems() rechecks each answer with the plain Fraction code in exact.py
and, where reference answers are pinned for the seed, against them.
It returns the list of what is wrong; empty means the job passed."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import exact


def answer_of(job, raw):
    """(answer, output, detail): the pinned fields, the complete output
    that two passes of one run must reproduce byte for byte, and the
    parsed detail the checks read."""
    if job.kind in ("projconst", "decide"):
        code, out, err = raw
        payload = json.loads(out)
        if job.kind == "projconst":
            answer = {"code": code, "lambda": payload["lambda"],
                      "certificate": payload["certificate"]}
        else:
            witness = payload["witness"]
            answer = {"code": code, "verdict": payload["verdict"],
                      "sets_examined": payload["sets_examined"],
                      "witness_set": None if witness is None else witness["set"]}
        return answer, f"{code}\n{out}{err}", payload
    if job.kind == "bounds":
        per_set = [(list(s.members), str(v)) for s, v in raw.per_set.items()]
        answer = {"best_upper": str(raw.best_upper), "best_set": list(raw.best_set.members)}
        return answer, repr((answer, per_set)), per_set
    checks = [(name, bool(passed), str(detail)) for name, passed, detail in raw]
    answer = {"passed": all(p for _, p, _ in checks), **_crosscheck_values(checks)}
    return answer, repr(checks), checks


def _crosscheck_values(checks):
    details = {name: detail for name, _, detail in checks}
    verdict = re.fullmatch(r"verdict=(True|False) constant=(\S+)",
                           details.get("verdict_iff_constant_one", ""))
    upper = re.fullmatch(r"constant=(\S+) upper=(\S+)",
                         details.get("constant_le_best_upper", ""))
    if verdict is None or upper is None:
        raise ValueError("check_instance no longer reports the verdict, constant and upper bound")
    return {"verdict": verdict.group(1) == "True", "lambda": verdict.group(2),
            "best_upper": upper.group(2)}


def _best_bound(memo, inst):
    """The best per-set bound by exact.py, computed once per run; the
    instance is isometric exactly when it is 1."""
    if "best" not in memo:
        memo["best"] = min(b for _, b in exact.per_set_bounds(inst.matrix))
    return memo["best"]


def problems(job, answer, detail, memo, earlier, pinned):
    """What is wrong with one job's answer.  memo caches independent
    facts about the instance; earlier maps job kind to the answer and
    detail of the same instance's jobs earlier in this pass."""
    inst = job.instance
    found = []
    if pinned is not None and pinned.get(job.key) != answer:
        found.append(f"answer {answer} differs from pinned {pinned.get(job.key)}")
    checker = {"projconst": _check_projconst, "decide": _check_decide,
               "bounds": _check_bounds, "crosscheck": _check_crosscheck}[job.kind]
    found += checker(inst, answer, detail, memo, earlier)
    return found


def _check_projconst(inst, answer, payload, memo, earlier):
    found = []
    if answer["code"] != 0 or answer["certificate"] != "valid":
        found.append(f"exit {answer['code']}, certificate {answer['certificate']}")
    f = [list(r) for r in inst.matrix]
    n, m = inst.n, inst.m
    lam = Fraction(answer["lambda"])
    y = [[Fraction(t) for t in row] for row in payload["right_inverse"]]
    p = [[Fraction(t) for t in row] for row in payload["projection"]]
    ft = exact.transpose(f)
    if exact.matmul(ft, y) != exact.identity(m):
        found.append("F^T Y != I")
    if p != [[a - b for a, b in zip(r1, r2)]
             for r1, r2 in zip(exact.identity(n), exact.matmul(y, ft))]:
        found.append("P != I - Y F^T")
    if exact.matmul(p, p) != p:
        found.append("P is not idempotent")
    if any(x != 0 for row in exact.matmul(ft, p) for x in row):
        found.append("F^T P != 0")
    if exact.op_norm_inf(p) != lam:
        found.append(f"lambda {lam} != largest absolute row sum of P")
    best = _best_bound(memo, inst)
    if not 1 <= lam <= best:
        found.append(f"lambda {lam} outside [1, best per-set bound {best}]")
    if (lam == 1) != (best == 1):
        found.append(f"lambda {lam} disagrees with the verdict")
    if m == 1 and lam != exact.hyperplane_constant([r[0] for r in f]):
        found.append(f"lambda {lam} != Blatter-Cheney closed form")
    return found


def _check_decide(inst, answer, payload, memo, earlier):
    found = []
    iso = answer["verdict"] == "isometric"
    if answer["code"] != (0 if iso else 1):
        found.append(f"exit {answer['code']} for verdict {answer['verdict']}")
    if inst.planted and not iso:
        found.append("planted instance reported not isometric")
    if not 1 <= answer["sets_examined"] <= comb(inst.n, inst.m):
        found.append(f"sets_examined {answer['sets_examined']} out of range")
    witness = payload["witness"]
    if iso != (witness is not None):
        found.append("witness present iff isometric fails")
    if witness is not None:
        found += _check_witness(inst, witness)
    return found


def _check_witness(inst, witness):
    f = [list(r) for r in inst.matrix]
    members = witness["set"]
    rows = [k - 1 for k in members]
    if len(rows) != inst.m or sorted(set(rows)) != rows or not 0 <= rows[0] <= rows[-1] < inst.n:
        return [f"witness set {members} is not an index set of size {inst.m}"]
    columns = [[Fraction(t) for t in witness["vectors"][str(k)]] for k in members]
    found = []
    for k, col in zip(rows, columns):
        norm = exact.norm1(col)
        if norm > 2 or Fraction(witness["norms"][str(k + 1)]) != norm:
            found.append(f"witness vector {k + 1} has 1-norm {norm}")
        if [col[i] for i in rows] != [exact.ONE if i == k else exact.ZERO for i in rows]:
            found.append(f"witness vector {k + 1} is not the identity on the set")
    if exact.matmul(exact.transpose(columns), [f[i] for i in rows]) != f:
        found.append("witness vectors times F_S do not give F")
    return found


def _check_bounds(inst, answer, per_set, memo, earlier):
    found = []
    f = [list(r) for r in inst.matrix]
    best = Fraction(answer["best_upper"])
    values = [Fraction(v) for _, v in per_set]
    keys = [tuple(k - 1 for k in s) for s, _ in per_set]
    if keys != sorted(set(keys)) or any(len(k) != inst.m for k in keys):
        found.append("per-set keys are not distinct lexicographic index sets")
        return found
    if not values or best != min(values) or best < 1:
        found.append(f"best bound {best} is not the least per-set bound")
    elif keys[values.index(best)] != tuple(k - 1 for k in answer["best_set"]):
        found.append("best set is not the first minimizer")
    if exact.set_bound(f, tuple(k - 1 for k in answer["best_set"])) != best:
        found.append("best set's bound differs from an independent recomputation")
    present = set(keys)
    for s in combinations(range(inst.n), inst.m):
        if s not in present and exact.inverse([f[i] for i in s]) is not None:
            found.append(f"admissible set {s} missing from the per-set bounds")
            break
    sample = random.Random(inst.key).sample(range(len(keys)), min(12, len(keys)))
    for i in sample:
        if exact.set_bound(f, keys[i]) != values[i]:
            found.append(f"bound of set {keys[i]} differs from an independent recomputation")
    if inst.planted and best != 1:
        found.append("planted instance has best bound above 1")
    decided = earlier.get("decide")
    if decided is not None:
        verdict = decided[0]
        iso = verdict["verdict"] == "isometric"
        if iso != (best == 1):
            found.append("decide verdict disagrees with best bound == 1")
        first = next((i for i, v in enumerate(values) if v == 1), None)
        expected = len(values) if first is None else first + 1
        if verdict["sets_examined"] != expected:
            found.append(f"decide examined {verdict['sets_examined']} sets, bounds say {expected}")
        if iso and first is not None and verdict["witness_set"] != [k + 1 for k in keys[first]]:
            found.append("decide witness is not the first set with bound 1")
    return found


def _check_crosscheck(inst, answer, checks, memo, earlier):
    found = [f"check {name} failed: {detail}" for name, passed, detail in checks if not passed]
    best = _best_bound(memo, inst)
    lam = Fraction(answer["lambda"])
    if answer["verdict"] != (best == 1):
        found.append(f"verdict {answer['verdict']} differs from an independent scan")
    if Fraction(answer["best_upper"]) != best:
        found.append(f"best bound {answer['best_upper']} != independent {best}")
    if not 1 <= lam <= best or (lam == 1) != (best == 1):
        found.append(f"lambda {lam} inconsistent with best bound {best}")
    if inst.m == 1 and lam != exact.hyperplane_constant([r[0] for r in inst.matrix]):
        found.append(f"lambda {lam} != Blatter-Cheney closed form")
    return found
