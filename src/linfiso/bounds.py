"""Upper bounds on the distance from the subspace to a sup-norm space.

Each admissible index set yields the bound max(1, largest canonical
1-norm minus 1); minimizing over sets gives the best upper bound this
family of coordinate sections can offer.  The report never claims the
minimum equals the actual distance.  best_upper_bound reads each bound
off the integer rows of the basis-exchange walk (canonical._exchange_walk)
and compares bounds by integer cross-multiplication, building Fractions
and IndexSets only for what it reports; distance_bound_for_set computes
one set's bound from its determinant-ratio family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .canonical import SubspaceSpec, _exchange_walk, canonical_family
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


def best_upper_bound(spec: SubspaceSpec, materialize: bool = False) -> BoundReport:
    """Minimize the per-set bound over every admissible index set.

    Each set's bound is read off the exchange walk's integer rows: with
    top the largest sum of |rows[r]| and d = |common|, the largest
    canonical 1-norm is top / d, so the bound is (top - d) / d when top
    exceeds 2d and 1 otherwise.  Bounds are compared by integer
    cross-multiplication, and only the reported sets and bounds become
    IndexSets and Fractions.

    materialize=True additionally returns the full set-to-bound map.
    """
    n = spec.ambient
    per_set: Optional[dict[IndexSet, Fraction]] = {} if materialize else None
    best: Optional[tuple[int, int]] = None
    best_combo: tuple[int, ...] = ()
    for combo, _, rows, common in _exchange_walk(spec):
        d = abs(common)
        top = max(sum(map(abs, row)) for row in rows)
        num = top - d if top > 2 * d else d
        if per_set is not None:
            per_set[IndexSet(tuple(q + 1 for q in combo), n)] = Fraction(num, d)
        if best is None or num * best[1] < best[0] * d:
            best = num, d
            best_combo = combo
    if best is None:
        raise InternalConsistencyError(
            "a full-rank annihilator must admit at least one invertible block"
        )
    best_set = IndexSet(tuple(q + 1 for q in best_combo), n)
    return BoundReport(Fraction(*best), best_set, per_set)


def _bound(norms) -> Fraction:
    """One set's bound from the 1-norms of its canonical vectors."""
    return max(_ONE, max(norms) - 1)
