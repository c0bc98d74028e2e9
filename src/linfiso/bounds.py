"""Upper bounds on the distance from the subspace to a sup-norm space.

Each admissible index set yields the bound max(1, largest canonical
1-norm minus 1); minimizing over sets gives the best upper bound this
family of coordinate sections can offer.  The report never claims the
minimum equals the actual distance.  best_upper_bound reads canonical
1-norms off the residual rows of the prefix walk (canonical._prefix_walk):
the residual row rho of an (m - 1)-set P vanishes on P, and rho / rho[y]
is the canonical vector of y in the set P + y for every y outside P with
rho[y] != 0, so that vector's 1-norm is ||rho||_1 / |rho[y]|.  The walk
yields rho as one row per prefix, and the scan reads nothing else: no
prefix's tableau is built.

best_upper_bound reads each member y of a set S off the residual row of
S - y, from the walk's prefixes and, for the prefixes that hold
coordinate N - 1, which the walk does not reach, from a table of the
determinants the walk met.  Bounds are compared by integer
cross-multiplication, building Fractions and IndexSets only for what the
report holds; materialize decides only whether that is every set's bound
or the best one alone.  At m = 1 the one prefix is empty, and its rho,
F's scaled column, gives every singleton's bound: the best set is the
first x with the largest |rho[x]|, with no table.  distance_bound_for_set
computes one set's bound from its determinant-ratio family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
    """Minimize the per-set bound over every admissible index set, from
    the walk's prefixes of range(N - 1) and one pass over the prefixes
    that hold coordinate N - 1.

    Each member y of a set S has the canonical vector rho_P / rho_P[y],
    P = S - y, so its 1-norm is ||rho_P||_1 / |rho_P[y]|.  The
    denominator is the same from every prefix: |rho_P[y]| is
    |det F_{P+y}| times the product of the column scales, which
    completing P + y leaves as `common`.  So each set keeps two
    integers, keyed by its bitmask: dets[S] = |rho_P[y]| and tops[S],
    the largest ||rho_P||_1 so far, and its largest canonical 1-norm is
    tops[S] / dets[S].  Every admissible set gets its d from the walk,
    through its subset without N - 1.  The walk skips the prefixes P
    that hold N - 1, and their norms are read off the table instead:
    ||rho_P||_1 is the sum of the d's of the sets P + y, 0 for a
    singular one.  The sets are then emitted in lexicographic order,
    each entry popped as it goes; best_set is the first minimizer.
    Bounds are compared by integer cross-multiplication.  At m = 1
    there is neither table nor pass (_singletons).

    materialize decides only whether the emission also builds the full
    set-to-bound map, per_set; otherwise only the reported set and bound
    become an IndexSet and a Fraction.  Raises SetBudgetError before the
    scan when the spec has more than max_sets index sets.
    """
    _check_set_budget(spec, max_sets)
    n, m = spec.ambient, spec.codim
    if m == 1:
        return _singletons(spec, materialize)
    bits = [1 << q for q in range(n)]
    dets: dict[int, int] = {}
    tops: dict[int, int] = {}
    for prefix, rho, _ in _prefix_walk(spec):
        norm = sum(map(abs, rho))
        mask = sum(map(bits.__getitem__, prefix))
        for bit, v in zip(bits, rho):
            if v:
                key = mask | bit
                if tops.get(key, 0) < norm:
                    tops[key] = norm
                    dets[key] = abs(v)
    rest = bits[:-1]
    for others in itertools.combinations(rest, m - 2):
        mask = sum(others) | bits[-1]
        keys = [mask | bit for bit in rest if not mask & bit]
        ds = [dets.get(key, 0) for key in keys]
        norm = sum(ds)
        for key, d in zip(keys, ds):
            if d and tops[key] < norm:
                tops[key] = norm
    per_set: Optional[dict[IndexSet, Fraction]] = {} if materialize else None
    best: Optional[tuple[int, int]] = None
    best_members: tuple[int, ...] = ()
    masks = map(sum, itertools.combinations(bits, m))
    for members, key in zip(itertools.combinations(range(1, n + 1), m), masks):
        d = dets.pop(key, 0)
        if not d:
            continue
        num = _excess(tops.pop(key), d)
        if per_set is not None:
            per_set[IndexSet._of(members, n)] = Fraction(num, d)
        if best is None or num * best[1] < best[0] * d:
            best = num, d
            best_members = members
    if best is None:
        raise _no_admissible_set()
    return BoundReport(Fraction(*best), IndexSet._of(best_members, n), per_set)


def _singletons(spec: SubspaceSpec, materialize: bool) -> BoundReport:
    """best_upper_bound at m = 1.  The walk's one prefix is empty and
    its rho is F's scaled column, so the singleton {x} has the bound
    max(1, ||rho||_1 / |rho[x]| - 1), which falls as |rho[x]| grows
    until the floor, reached at 2 |rho[x]| >= ||rho||_1; two entries
    that both reach it are equal, as they sum to at most ||rho||_1.  So
    the first x with the largest |rho[x]| is the first minimizer."""
    n = spec.ambient
    ((_, rho, _),) = _prefix_walk(spec)
    ds = list(map(abs, rho))
    norm, best = sum(ds), max(ds)
    per_set = None
    if materialize:
        per_set = {
            IndexSet._of((x + 1,), n): Fraction(_excess(norm, d), d)
            for x, d in enumerate(ds)
            if d
        }
    best_set = IndexSet._of((ds.index(best) + 1,), n)
    return BoundReport(Fraction(_excess(norm, best), best), best_set, per_set)


def _no_admissible_set() -> InternalConsistencyError:
    return InternalConsistencyError(
        "a full-rank annihilator must admit at least one invertible block"
    )


def _excess(top: int, d: int) -> int:
    """The numerator over d of max(1, top / d - 1)."""
    return top - d if top > 2 * d else d


def _bound(norms) -> Fraction:
    """One set's bound from the 1-norms of its canonical vectors."""
    return max(_ONE, max(norms) - 1)
