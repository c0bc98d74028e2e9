"""Cross-validation of the decision test against the projection constant.

Every instance runs through independent routes that must agree in exact
arithmetic: the basis-exchange scan against the determinant-ratio
families set by set, the closed forms for codimension 1 and 2, the
projection constant proved by its own trace-duality operator Z (for a
hyperplane, the closed form against the cut loop's optimum, each proved
by its own Z), the per-set distance bounds (the best one against the
norm of its coordinate projection, where the cut loop starts for
m >= 2), and the structural identities tying the pieces together.
projection.verify_trace_duality proves a constant exactly, in O(N^2 m)
integer products, so no program is built and no LP certificate is
written here; the tests run the same results through the full program's
LP check as well.  Any mismatch is recorded with the serialized instance
so it can be replayed."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .bounds import best_upper_bound
from .canonical import (
    admissible_sets,
    canonical_family,
    exchange_families,
    family_from_minors,
)
from .decide import decide_by_minors, decide_hyperplane, decide_isometric
from .instances import Instance, format_instance, random_instance
from .linalg import Matrix, cauchy_binet_check, op_norm_inf
from .projection import (
    _cut_loop,
    coordinate_projection,
    projection_constant,
    verify_norm_gap,
    verify_trace_duality,
)

_ONE = Fraction(1)


@dataclass(frozen=True)
class CheckFailure:
    instance_index: int
    check: str
    detail: str
    instance_text: str


@dataclass
class CrossCheckSummary:
    seed: int
    instances: int = 0
    agreements: int = 0
    checks_run: dict[str, int] = field(default_factory=dict)
    disagreements: list[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def check_instance(instance: Instance) -> list[tuple[str, bool, str]]:
    """All agreement checks for one instance: (name, passed, detail)."""
    results: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        results.append((name, passed, detail))

    spec = instance.to_spec()
    mat = spec.annihilator

    # the closed forms give the walk's whole report: verdict, sets
    # examined and the witness's canonical family
    general = decide_isometric(spec)
    if spec.codim == 1:
        direct = decide_hyperplane(mat.column(0))
        record(
            "hyperplane_matches_general", direct == general, f"direct={direct.verdict}"
        )
    if spec.codim == 2:
        direct = decide_by_minors(spec)
        record(
            "minor_test_matches_general", direct == general, f"direct={direct.verdict}"
        )

    families = [
        (index_set, canonical_family(spec, index_set))
        for index_set, _ in admissible_sets(spec)
    ]

    exchanged = list(exchange_families(spec))
    record(
        "exchange_scan_matches_ratios",
        exchanged == [family for _, family in families],
        f"{len(exchanged)} exchange families, {len(families)} ratio sets",
    )

    identity_ok = True
    reconstruction_ok = True
    for index_set, family in families:
        for k in index_set:
            vec = family.vectors[k]
            for i in index_set:
                want = _ONE if i == k else 0
                if vec[i - 1] != want:
                    identity_ok = False
        if family.matrix() @ mat.take_rows(index_set) != mat:
            reconstruction_ok = False
    record("identity_pattern_on_set", identity_ok)
    record("family_times_block_reconstructs", reconstruction_ok)

    if spec.codim == 2:
        minor_ok = all(
            family_from_minors(spec, index_set) == family
            for index_set, family in families
        )
        record("minor_vectors_match_ratio", minor_ok)

    report = best_upper_bound(spec)
    proj = projection_constant(spec, report.best_set)
    record("trace_duality_valid", verify_trace_duality(spec, proj))
    if spec.codim == 1:
        # the closed form skipped the cut loop; the cut loop must reach
        # the same optimum and prove it by its own Z
        cut = _cut_loop(spec, report.best_set)
        certified = verify_trace_duality(spec, cut)
        record(
            "hyperplane_matches_cut_loop",
            cut.constant == proj.constant and certified,
            f"cut loop={cut.constant} closed form={proj.constant} "
            f"certified={certified}",
        )
    record("constant_at_least_one", proj.constant >= 1, str(proj.constant))
    record(
        "verdict_iff_constant_one",
        general.verdict == (proj.constant == 1),
        f"verdict={general.verdict} constant={proj.constant}",
    )

    record(
        "constant_le_best_upper",
        proj.constant <= report.best_upper,
        f"constant={proj.constant} upper={report.best_upper}",
    )
    record(
        "best_upper_one_iff_verdict",
        (report.best_upper == 1) == general.verdict,
        f"upper={report.best_upper}",
    )
    # the coordinate projection the m >= 2 cut loop starts from
    start_norm = op_norm_inf(coordinate_projection(spec, report.best_set)[1])
    record(
        "best_set_projection_norm",
        start_norm == report.best_upper,
        f"norm={start_norm} upper={report.best_upper}",
    )

    try:
        gap = verify_norm_gap(spec, proj)
        record(
            "norm_gap_holds",
            gap.holds,
            f"excess={gap.excess} bound={gap.bound} at {gap.index_set}",
        )
    except Exception as exc:  # identity breakage or singular section
        record("norm_gap_holds", False, repr(exc))

    lhs, rhs = cauchy_binet_check(mat, proj.right_inverse)
    record(
        "block_det_products_sum_to_one",
        lhs == 1 and rhs == 1,
        f"det={lhs} sum={rhs}",
    )

    p = proj.projection
    record("projection_idempotent", p @ p == p)
    record(
        "projection_into_subspace",
        mat.transpose() @ p == Matrix.zeros(spec.codim, spec.ambient),
    )
    return results


def draw_instances(
    seed: int, count: int, max_ambient: int, max_codim: int, entry_bound: int = 5
) -> Iterator[Instance]:
    """The instances run_crosscheck checks, in its order: N uniform in
    2..max_ambient, then m uniform in 1..min(max_codim, N - 1)."""
    rng = random.Random(seed)
    for _ in range(count):
        ambient = rng.randint(2, max_ambient)
        codim = rng.randint(1, min(max_codim, ambient - 1))
        yield random_instance(rng, ambient, codim, entry_bound)


def run_crosscheck(
    seed: int,
    count: int,
    max_ambient: int,
    max_codim: int,
    entry_bound: int = 5,
) -> CrossCheckSummary:
    """Generate count random instances and run every check on each.

    The same seed always yields the same instances and the same summary."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 1 <= max_codim < max_ambient:
        raise ValueError("need 1 <= max codimension < max ambient dimension")
    summary = CrossCheckSummary(seed=seed)
    draws = draw_instances(seed, count, max_ambient, max_codim, entry_bound)
    for index, instance in enumerate(draws):
        summary.instances += 1
        all_ok = True
        for name, passed, detail in check_instance(instance):
            summary.checks_run[name] = summary.checks_run.get(name, 0) + 1
            if not passed:
                all_ok = False
                summary.disagreements.append(
                    CheckFailure(index, name, detail, format_instance(instance))
                )
        if all_ok:
            summary.agreements += 1
    return summary
