"""Decides whether the subspace is isometric to a smaller sup-norm space.

Verdict true means some admissible index set S has every canonical
vector with 1-norm at most 2; the scan runs in lexicographic set order
and stops at the first witness.  decide_isometric runs one scan at every
codimension, on the prefix walk (canonical._prefix_walk): for a set
Q + x, the canonical vector of its last member x is rho / rho[x], rho
the residual row of the prefix Q, so x's inequality is
||rho||_1 <= 2 |rho[x]|, one integer comparison per set with ||rho||_1
summed once per prefix.  At most two x per prefix pass it; only those
sets are completed by one exchange, and the completed rows r, canonical
vectors over rho[x], are tested as sum |row r| <= 2 |rho[x]|, with no
Fraction per set.  Every admissible set up to the witness counts as
examined, completed or not.  The witness is the set's CanonicalFamily,
read off its own completed rows over the signed rho[x]
(canonical._family); its 1-norms are family.norms().  At m = 1 the only
prefix is empty and rho is the functional itself, scaled to integers.

Codimension 1 and 2 admit closed forms that provably visit the same
sets in the same order, so all three return equal DecisionReports:
decide_hyperplane compares the functional's 1-norm with twice each
entry, and decide_by_minors tests pairs on the 2 x 2 minors.  Neither
runs faster than the scan; they stay as the references that crosscheck
and the tests compare it against, report for report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .canonical import (
    MAX_SETS,
    CanonicalFamily,
    SubspaceSpec,
    _check_set_budget,
    _complete,
    _family,
    _prefix_walk,
    family_from_minors,
    minor_vectors,
)
from .errors import InvalidBasisError, WrongCodimensionError
from .linalg import IndexSet, as_rational, vec_norm1

_TWO = Fraction(2)


@dataclass(frozen=True)
class DecisionReport:
    """A decider's answer.  witness is the canonical family of the first
    index set whose vectors all have 1-norm at most 2 (None when no set
    qualifies); sets_examined counts the admissible sets tested, the
    witness's included."""

    verdict: bool
    witness: Optional[CanonicalFamily]
    sets_examined: int


def decide_isometric(spec: SubspaceSpec, max_sets: int = MAX_SETS) -> DecisionReport:
    """The paper's inequalities on the prefix walk's integer rows.

    Raises SetBudgetError before the walk starts when the spec has more
    than max_sets index sets.  Every set Q + x with rho[x] != 0 counts
    as examined.  Its last member passes exactly when
    ||rho||_1 <= 2 |rho[x]|; only then is the set completed, and it is a
    witness when every completed row r of the prefix's members, a
    canonical vector over rho[x], has sum |row r| <= 2 |rho[x]| (row
    free is rho itself, which x's test has passed)."""
    _check_set_budget(spec, max_sets)
    n = spec.ambient
    examined = 0
    for prefix, order, rows, common, free in _prefix_walk(spec):
        rho = rows[free]
        norm = sum(map(abs, rho))
        for x in range(prefix[-1] + 1 if prefix else 0, n):
            if not rho[x]:
                continue
            examined += 1
            if 2 * abs(rho[x]) < norm:
                continue
            done, den = _complete(rows, common, free, x)
            if all(sum(map(abs, done[r])) <= 2 * abs(den) for r in order):
                family = _family(n, prefix + (x,), order + (free,), done, den)
                return DecisionReport(True, family, examined)
    return DecisionReport(False, None, examined)


def decide_hyperplane(functional: Iterable) -> DecisionReport:
    """Codimension-1 test: isometric exactly when the 1-norm of the
    defining functional is at most twice its sup norm."""
    vec = tuple(as_rational(x) for x in functional)
    if len(vec) < 2:
        raise InvalidBasisError("need an ambient dimension of at least 2")
    if all(x == 0 for x in vec):
        raise InvalidBasisError("the zero functional defines no hyperplane")
    norm1 = vec_norm1(vec)
    ambient = len(vec)
    examined = 0
    for k, value in enumerate(vec, start=1):
        if value == 0:
            continue
        examined += 1
        if norm1 <= _TWO * abs(value):
            scaled = tuple(x / value for x in vec)
            family = CanonicalFamily(IndexSet((k,), ambient), {k: scaled})
            return DecisionReport(True, family, examined)
    return DecisionReport(False, None, examined)


def decide_by_minors(spec: SubspaceSpec) -> DecisionReport:
    """Codimension-2 test over pairs: a pair {k, l} with a nonzero minor
    is a witness exactly when both minor vectors have 1-norm at most
    twice that minor's absolute value."""
    if spec.codim != 2:
        raise WrongCodimensionError("pair-minor test needs codimension 2")
    minors = minor_vectors(spec)
    norms1 = [vec_norm1(v) for v in minors]
    ambient = spec.ambient
    examined = 0
    for k in range(1, ambient + 1):
        for l in range(k + 1, ambient + 1):
            pivot = minors[k - 1][l - 1]
            if pivot == 0:
                continue
            examined += 1
            if max(norms1[k - 1], norms1[l - 1]) <= _TWO * abs(pivot):
                family = family_from_minors(spec, IndexSet((k, l), ambient))
                return DecisionReport(True, family, examined)
    return DecisionReport(False, None, examined)
