"""Upper bounds on the distance from the subspace to a sup-norm space.

Each admissible index set yields the bound max(1, largest canonical
1-norm minus 1); minimizing over sets gives the best upper bound this
family of coordinate sections can offer.  The report never claims the
minimum equals the actual distance.  best_upper_bound reads each set
Q + x off the prefix walk (canonical._prefix_walk): the residual row rho
of Q gives x's canonical 1-norm ||rho||_1 / |rho[x]|, so
max(1, ||rho||_1 / |rho[x]| - 1) is a floor under the set's bound, and
the other members' 1-norms are read off the prefix's rows, scaled by
|common|, only for a set whose floor can strictly beat the best bound so
far (_kernels.exchange_norms; no set is completed).  Bounds are
compared by integer cross-multiplication, building Fractions and
IndexSets only for what it reports; distance_bound_for_set computes one
set's bound from its determinant-ratio family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import _kernels
from .canonical import (
    MAX_SETS,
    SubspaceSpec,
    _check_set_budget,
    _prefix_walk,
    canonical_family,
)
from .errors import InternalConsistencyError
from .linalg import IndexSet

_ONE = Fraction(1)


@dataclass(frozen=True)
class BoundReport:
    """best_upper is the minimum per-set bound, attained at best_set
    (lexicographically first minimizer).  per_set is filled on request."""

    best_upper: Fraction
    best_set: IndexSet
    per_set: Optional[dict[IndexSet, Fraction]]


def distance_bound_for_set(spec: SubspaceSpec, index_set: IndexSet) -> Fraction:
    """Upper bound contributed by one admissible index set."""
    return _bound(canonical_family(spec, index_set).norms().values())


def best_upper_bound(
    spec: SubspaceSpec, materialize: bool = False, max_sets: int = MAX_SETS
) -> BoundReport:
    """Minimize the per-set bound over every admissible index set.

    Each set Q + x is read off the prefix walk's integer rows: with
    d = |rho[x]| and top the largest of ||rho||_1 and the 1-norms of the
    completed rows of Q's members (_kernels.exchange_norms, over
    |common|, one exact division per set), the largest canonical 1-norm
    is top / d, so the bound is (top - d) / d when top exceeds 2d and 1
    otherwise.  Since top >= ||rho||_1, the set's bound is at least
    max(1, ||rho||_1 / d - 1); a set whose floor cannot strictly beat the
    best bound so far has no other norm read, so ties keep the first
    set.  Bounds are compared by integer cross-multiplication, and only
    the reported sets and bounds become IndexSets and Fractions.

    materialize=True reads every set's norms and additionally returns
    the full set-to-bound map.  Raises SetBudgetError before the scan
    when the spec has more than max_sets index sets.
    """
    _check_set_budget(spec, max_sets)
    n = spec.ambient
    per_set: Optional[dict[IndexSet, Fraction]] = {} if materialize else None
    best: Optional[tuple[int, int]] = None
    best_combo: tuple[int, ...] = ()
    for prefix, order, rows, common, free in _prefix_walk(spec):
        rho = rows[free]
        norm = sum(map(abs, rho))
        scale = abs(common)
        head = tuple(q + 1 for q in prefix)
        for x in range(prefix[-1] + 1 if prefix else 0, n):
            if not rho[x]:
                continue
            d = abs(rho[x])
            if (
                per_set is None
                and best is not None
                and _excess(norm, d) * best[1] >= best[0] * d
            ):
                continue
            scaled = _kernels.exchange_norms(rows, order, free, x)
            top = max(norm, max(scaled, default=0) // scale)
            num = _excess(top, d)
            if per_set is not None:
                per_set[IndexSet(head + (x + 1,), n)] = Fraction(num, d)
            if best is None or num * best[1] < best[0] * d:
                best = num, d
                best_combo = prefix + (x,)
    if best is None:
        raise InternalConsistencyError(
            "a full-rank annihilator must admit at least one invertible block"
        )
    best_set = IndexSet(tuple(q + 1 for q in best_combo), n)
    return BoundReport(Fraction(*best), best_set, per_set)


def _excess(top: int, d: int) -> int:
    """The numerator over d of max(1, top / d - 1)."""
    return top - d if top > 2 * d else d


def _bound(norms) -> Fraction:
    """One set's bound from the 1-norms of its canonical vectors."""
    return max(_ONE, max(norms) - 1)
