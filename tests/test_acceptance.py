"""Acceptance gate: every release-blocking property in one module.

Each test prints exactly one [PASS]/[FAIL] line (run with -s to stream
them).  All comparisons are exact rational equality; no tolerances
appear anywhere.  The large randomized sweep is shared between the
tests that consume it through a module-scoped fixture.
"""

import random
from fractions import Fraction as F

import pytest

from linfiso.bounds import best_upper_bound
from linfiso.canonical import (
    SubspaceSpec,
    admissible_sets,
    canonical_family,
    family_from_minors,
    subspace_from_annihilator,
)
from linfiso.crosscheck import run_crosscheck
from linfiso.decide import decide_by_minors, decide_isometric
from linfiso.errors import InvalidBasisError
from linfiso.instances import random_instance
from linfiso.linalg import (
    IndexSet,
    Matrix,
    cauchy_binet_check,
    inverse,
    vec_norm1,
    vec_norm_inf,
)
from linfiso.lp import (
    LpProblem,
    LpSolution,
    LpStatus,
    solve,
    verify_certificate,
    verify_infeasibility,
)
from linfiso.projection import projection_constant, verify_norm_gap
from oracles import enumerate_lp, hyperplane_projection_constant

SWEEP_SEED = 108
SWEEP_COUNT = 500


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def failures_in(summary, names):
    return [f for f in summary.disagreements if f.check in names]


@pytest.fixture(scope="module")
def sweep():
    return run_crosscheck(
        seed=SWEEP_SEED,
        count=SWEEP_COUNT,
        max_ambient=6,
        max_codim=3,
        entry_bound=5,
    )


def random_spec(rng, ambient, codim, bound=5):
    while True:
        rows = [
            [F(rng.randint(-bound, bound)) for _ in range(codim)]
            for _ in range(ambient)
        ]
        try:
            return subspace_from_annihilator(rows)
        except InvalidBasisError:
            continue


def test_verdict_equals_unit_constant(sweep):
    """Isometry verdict agrees with the projection constant being 1 on
    every sweep instance, certified by the exact LP."""
    names = {"verdict_iff_constant_one", "lp_certificate_valid"}
    bad = failures_in(sweep, names)
    counts = {n: sweep.checks_run.get(n, 0) for n in sorted(names)}
    report(
        "verdict-equals-unit-constant",
        sweep.instances == SWEEP_COUNT and not bad,
        f"{sweep.instances} instances, checks {counts}, "
        f"{len(bad)} disagreements",
    )


def test_uniform_functional_anchor():
    """The all-ones functional in dimension 3: derived values held exactly."""
    spec = subspace_from_annihilator([1, 1, 1])
    verdict = decide_isometric(spec).verdict
    result = projection_constant(spec)
    certified = verify_certificate(result.program, result.certificate)
    oracle_value = hyperplane_projection_constant([F(1), F(1), F(1)])
    bounds = best_upper_bound(spec)
    gap = verify_norm_gap(spec, result)
    checks = {
        "verdict is false": verdict is False,
        "constant 4/3": result.constant == F(4, 3),
        "oracle agrees": oracle_value == F(4, 3),
        "certificate valid": certified,
        "best upper bound 2": bounds.best_upper == F(2),
        "gap set {1}": gap.index_set.members == (1,),
        "gap sides equal 2": gap.excess == F(2) and gap.bound == F(2),
    }
    bad = [k for k, ok in checks.items() if not ok]
    report(
        "uniform-functional-anchor",
        not bad,
        "all seven derived values exact" if not bad else f"failed: {bad}",
    )


def test_hyperplane_norm_inequality():
    """200 codimension-1 instances: verdict holds exactly when the
    functional's 1-norm is at most twice its sup norm, boundary included."""
    rng = random.Random(203)
    total = boundary = mismatches = 0

    def check(spec):
        nonlocal total, boundary, mismatches
        f = spec.annihilator.column(0)
        expected = vec_norm1(f) <= 2 * vec_norm_inf(f)
        if vec_norm1(f) == 2 * vec_norm_inf(f):
            boundary += 1
        if decide_isometric(spec).verdict != expected:
            mismatches += 1
        total += 1

    check(subspace_from_annihilator([1, 1, 2]))
    while total < 200:
        ambient = rng.randint(2, 6)
        if total % 5 == 4:
            # construct a boundary case: one entry equals the sum of the
            # absolute values of the others
            rest = [F(rng.randint(-4, 4)) for _ in range(ambient - 1)]
            if not any(rest):
                continue
            peak = sum(abs(x) for x in rest)
            position = rng.randrange(ambient)
            entries = rest[:position] + [peak] + rest[position:]
            check(subspace_from_annihilator(entries))
        else:
            check(random_spec(rng, ambient, 1))
    report(
        "hyperplane-norm-inequality",
        mismatches == 0 and boundary >= 40,
        f"{total} instances, {boundary} boundary-equality cases, "
        f"{mismatches} mismatches",
    )


def test_pair_minor_route():
    """200 codimension-2 instances: the minor-based test and the general
    scan give identical verdicts, and the minor-built canonical vectors
    equal the determinant-ratio ones entrywise on every admissible set."""
    rng = random.Random(204)
    verdict_mismatches = family_mismatches = sets_compared = 0
    for _ in range(200):
        ambient = rng.randint(3, 6)
        spec = random_spec(rng, ambient, 2)
        if decide_by_minors(spec).verdict != decide_isometric(
            spec, mode="general"
        ).verdict:
            verdict_mismatches += 1
        for index_set, _ in admissible_sets(spec):
            sets_compared += 1
            via_minors = family_from_minors(spec, index_set)
            via_ratios = canonical_family(spec, index_set)
            if via_minors.vectors != via_ratios.vectors:
                family_mismatches += 1
    report(
        "pair-minor-route",
        verdict_mismatches == 0 and family_mismatches == 0,
        f"200 instances, {sets_compared} families compared entrywise, "
        f"{verdict_mismatches} verdict and {family_mismatches} family "
        "mismatches",
    )


def test_structural_identities(sweep):
    """Reconstruction, the identity pattern, the block-determinant sum,
    and projection structure hold on every sweep instance; the
    determinant sum also holds for hand-built feasible right inverses."""
    names = {
        "family_times_block_reconstructs",
        "identity_pattern_on_set",
        "block_det_products_sum_to_one",
        "projection_idempotent",
        "projection_into_subspace",
    }
    bad = failures_in(sweep, names)

    # a right inverse supported on any admissible set is feasible for
    # the minimization, so the determinant-product sum must be 1 for it
    # as well, not only for the optimizer
    rng = random.Random(205)
    alternates = alternate_bad = 0
    for _ in range(60):
        ambient = rng.randint(3, 5)
        codim = rng.randint(1, min(3, ambient - 1))
        spec = random_spec(rng, ambient, codim)
        mat = spec.annihilator
        for index_set, _ in list(admissible_sets(spec))[:4]:
            block_inv = inverse(mat.take_rows(index_set).transpose())
            zero = [F(0)] * codim
            rows = [
                list(block_inv.row(index_set.position(i)))
                if i in index_set
                else list(zero)
                for i in range(1, ambient + 1)
            ]
            candidate = Matrix(rows)
            alternates += 1
            if mat.transpose() @ candidate != Matrix.identity(codim):
                alternate_bad += 1
            elif cauchy_binet_check(mat, candidate) != (F(1), F(1)):
                alternate_bad += 1
    report(
        "structural-identities",
        not bad and alternate_bad == 0,
        f"{sweep.instances} sweep instances with {len(bad)} failures, "
        f"{alternates} alternate right inverses with {alternate_bad} failures",
    )


def test_inequality_chain(sweep):
    """1 <= constant <= best per-set bound, and the norm-gap inequality
    holds at the chosen index set, on every sweep instance."""
    names = {
        "constant_at_least_one",
        "constant_le_best_upper",
        "norm_gap_holds",
        "best_upper_one_iff_verdict",
    }
    bad = failures_in(sweep, names)
    counts = {n: sweep.checks_run.get(n, 0) for n in sorted(names)}
    report(
        "inequality-chain",
        not bad,
        f"checks {counts}, {len(bad)} failures",
    )


def test_invariance():
    """Verdict, projection constant, and best upper bound survive
    annihilator basis changes, coordinate permutations, and coordinate
    sign flips."""
    rng = random.Random(207)
    shapes = [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
    transforms = violations = 0
    for ambient, codim in shapes:
        spec = random_spec(rng, ambient, codim)
        base = (
            decide_isometric(spec).verdict,
            projection_constant(spec).constant,
            best_upper_bound(spec).best_upper,
        )

        def probe(other):
            nonlocal transforms, violations
            transforms += 1
            got = (
                decide_isometric(other).verdict,
                projection_constant(other).constant,
                best_upper_bound(other).best_upper,
            )
            if got != base:
                violations += 1

        for _ in range(20):
            while True:
                change = Matrix(
                    [
                        [F(rng.randint(-3, 3)) for _ in range(codim)]
                        for _ in range(codim)
                    ]
                )
                try:
                    inverse(change)
                    break
                except Exception:
                    continue
            probe(SubspaceSpec(spec.annihilator @ change))

        witness = decide_isometric(spec).witness
        for _ in range(5):
            order = list(range(ambient))
            rng.shuffle(order)
            permuted = SubspaceSpec(
                Matrix([list(spec.annihilator.row(p)) for p in order])
            )
            probe(permuted)
            if witness is not None:
                # the image of the original witness certifies the
                # permuted instance, though not necessarily first in
                # lexicographic order
                mapped = IndexSet(
                    tuple(
                        sorted(order.index(k - 1) + 1 for k in witness.index_set)
                    ),
                    ambient,
                )
                fam = canonical_family(permuted, mapped)
                if not all(v <= 2 for v in fam.norms().values()):
                    violations += 1

        for _ in range(5):
            signs = [rng.choice([F(1), F(-1)]) for _ in range(ambient)]
            flipped = SubspaceSpec(
                Matrix(
                    [
                        [signs[i] * x for x in spec.annihilator.row(i)]
                        for i in range(ambient)
                    ]
                )
            )
            probe(flipped)
    report(
        "invariance",
        violations == 0,
        f"{len(shapes)} base instances, {transforms} transformed copies, "
        f"{violations} violations",
    )


def test_lp_against_enumeration():
    """At least 50 random programs with up to 8 variables match the
    vertex-enumeration oracle exactly; every certificate verifies and a
    perturbed copy of it is rejected."""
    rng = random.Random(208)
    optimal_matches = infeasible_agreements = 0
    value_mismatches = cert_failures = perturb_accepted = 0
    attempts = 0
    while optimal_matches < 50 and attempts < 400:
        attempts += 1
        nvars = rng.randint(1, 8)
        if nvars <= 5:
            nrows = rng.randint(1, 3)
            rows = [
                [F(rng.randint(-4, 4)) for _ in range(nvars)]
                for _ in range(nrows)
            ]
            senses = [rng.choice(["<=", ">="]) for _ in range(nrows)]
            rhs = [F(rng.randint(-6, 6)) for _ in range(nrows)]
        else:
            # equality-heavy shapes keep the enumeration tractable
            neq = nvars - 3
            rows = [
                [F(rng.randint(-3, 3)) for _ in range(nvars)]
                for _ in range(neq + 1)
            ]
            senses = ["=="] * neq + ["<="]
            rhs = [F(rng.randint(-3, 3)) for _ in range(neq)] + [
                F(rng.randint(0, 8))
            ]
        upper = [F(rng.randint(1, 5)) for _ in range(nvars)]
        problem = LpProblem.build(
            [F(rng.randint(-5, 5)) for _ in range(nvars)],
            [list(enumerate(row)) for row in rows],
            senses,
            rhs,
            upper=upper,
        )
        solution = solve(problem)
        oracle = enumerate_lp(
            list(problem.objective),
            rows,
            senses,
            rhs,
            lower=[F(0)] * nvars,
            upper=upper,
        )
        if oracle is None:
            if solution.status is not LpStatus.INFEASIBLE:
                value_mismatches += 1
            elif not verify_infeasibility(problem, solution):
                cert_failures += 1
            else:
                infeasible_agreements += 1
            continue
        if (
            solution.status is not LpStatus.OPTIMAL
            or solution.objective_value != oracle[0]
        ):
            value_mismatches += 1
            continue
        if not verify_certificate(problem, solution):
            cert_failures += 1
            continue
        optimal_matches += 1
        target = next(
            (j for j, cj in enumerate(problem.objective) if cj != 0), None
        )
        if target is None:
            perturbed = LpSolution(
                status=solution.status,
                x=solution.x,
                objective_value=solution.objective_value + F(1, 1000),
                duals=solution.duals,
            )
        else:
            moved = list(solution.x)
            moved[target] += F(1, 1000)
            perturbed = LpSolution(
                status=solution.status,
                x=tuple(moved),
                objective_value=solution.objective_value,
                duals=solution.duals,
            )
        if verify_certificate(problem, perturbed):
            perturb_accepted += 1
    ok = (
        optimal_matches >= 50
        and value_mismatches == 0
        and cert_failures == 0
        and perturb_accepted == 0
    )
    report(
        "lp-vs-enumeration",
        ok,
        f"{optimal_matches} optimal matches, {infeasible_agreements} "
        f"infeasible agreements, {value_mismatches} value mismatches, "
        f"{cert_failures} certificate failures, {perturb_accepted} "
        "perturbed certificates accepted",
    )
