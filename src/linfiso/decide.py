"""Decides whether the subspace is isometric to a smaller sup-norm space.

Verdict true means some admissible index set S has every canonical
vector with 1-norm at most 2; the scan runs in lexicographic set order
and stops at the first witness.  The general scan moves between
families by basis exchange (canonical_scan) and builds a
CanonicalFamily, by determinant ratios, only for the witness it
returns.  Codimension 1 and 2 admit closed-form
shortcuts that provably visit the same sets in the same order, so
verdict, witness, and the number of sets examined all coincide with the
general scan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .canonical import (
    CanonicalFamily,
    SubspaceSpec,
    canonical_family,
    canonical_scan,
    family_from_minors,
    minor_vectors,
)
from .errors import InvalidBasisError, WrongCodimensionError
from .linalg import IndexSet, as_rational, vec_norm1

_TWO = Fraction(2)


class DecisionMethod(enum.Enum):
    GENERAL = "general"
    HYPERPLANE = "hyperplane"
    PAIR_MINORS = "pair_minors"


@dataclass(frozen=True)
class Witness:
    """An index set certifying the verdict, with its canonical vectors
    and their 1-norms (each at most 2)."""

    index_set: IndexSet
    family: CanonicalFamily
    norms: dict[int, Fraction]


@dataclass(frozen=True)
class DecisionReport:
    verdict: bool
    witness: Optional[Witness]
    sets_examined: int
    method: DecisionMethod


def decide_isometric(spec: SubspaceSpec, mode: str = "auto") -> DecisionReport:
    """Run the isometry test; mode "auto" picks the fastest equivalent
    route, mode "general" forces the scan over every admissible set (by
    basis exchange) even for codimension 1 and 2."""
    if mode not in ("auto", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        if spec.codim == 1:
            return decide_hyperplane(spec.annihilator.column(0))
        if spec.codim == 2:
            return decide_by_minors(spec)
    return _decide_general(spec)


def _decide_general(spec: SubspaceSpec) -> DecisionReport:
    examined = 0
    for index_set, _, norms in canonical_scan(spec):
        examined += 1
        if all(value <= _TWO for value in norms):
            family = canonical_family(spec, index_set)
            witness = Witness(index_set, family, dict(zip(index_set, norms)))
            return DecisionReport(True, witness, examined, DecisionMethod.GENERAL)
    return DecisionReport(False, None, examined, DecisionMethod.GENERAL)


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
            index_set = IndexSet((k,), ambient)
            scaled = tuple(x / value for x in vec)
            family = CanonicalFamily(index_set, {k: scaled}, value)
            norms = {k: norm1 / abs(value)}
            witness = Witness(index_set, family, norms)
            return DecisionReport(True, witness, examined, DecisionMethod.HYPERPLANE)
    return DecisionReport(False, None, examined, DecisionMethod.HYPERPLANE)


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
                index_set = IndexSet((k, l), ambient)
                family = family_from_minors(spec, index_set)
                norms = {
                    k: norms1[l - 1] / abs(pivot),
                    l: norms1[k - 1] / abs(pivot),
                }
                witness = Witness(index_set, family, norms)
                return DecisionReport(
                    True, witness, examined, DecisionMethod.PAIR_MINORS
                )
    return DecisionReport(False, None, examined, DecisionMethod.PAIR_MINORS)
