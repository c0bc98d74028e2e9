"""Upper bounds on the distance from the subspace to a sup-norm space.

Each admissible index set yields the bound max(1, largest canonical
1-norm minus 1); minimizing over sets gives the best upper bound this
family of coordinate sections can offer.  The report never claims the
minimum equals the actual distance.  best_upper_bound reads the norms
off the basis-exchange scan and builds no family; distance_bound_for_set
computes one set's bound from its determinant-ratio family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .canonical import SubspaceSpec, canonical_family, canonical_scan
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

    materialize=True additionally returns the full set-to-bound map.
    """
    per_set: Optional[dict[IndexSet, Fraction]] = {} if materialize else None
    best: Optional[Fraction] = None
    best_set: Optional[IndexSet] = None
    for index_set, _, norms in canonical_scan(spec):
        bound = _bound(norms)
        if per_set is not None:
            per_set[index_set] = bound
        if best is None or bound < best:
            best = bound
            best_set = index_set
    if best is None or best_set is None:
        raise InternalConsistencyError(
            "a full-rank annihilator must admit at least one invertible block"
        )
    return BoundReport(best, best_set, per_set)


def _bound(norms) -> Fraction:
    """One set's bound from the 1-norms of its canonical vectors."""
    return max(_ONE, max(norms) - 1)
