from linfiso.crosscheck import check_instance, run_crosscheck
from linfiso.instances import parse_instance


class TestCheckInstance:
    def test_anchor_instance_passes_everything(self):
        inst = parse_instance("3 1 annihilator\n1\n1\n1\n")
        results = check_instance(inst)
        assert results
        failures = [(n, d) for n, ok, d in results if not ok]
        assert failures == []
        names = {n for n, _, _ in results}
        assert "hyperplane_matches_general" in names
        assert "hyperplane_matches_cut_loop" in names
        assert "verdict_iff_constant_one" in names
        assert "trace_duality_valid" in names
        assert "norm_gap_holds" in names
        assert "block_det_products_sum_to_one" in names

    def test_pair_route_checked_for_codim_two(self):
        inst = parse_instance("4 2 annihilator\n1 0\n0 1\n1 1\n2 -1\n")
        names = {n for n, _, _ in check_instance(inst)}
        assert "minor_test_matches_general" in names
        assert "minor_vectors_match_ratio" in names
        assert "hyperplane_matches_general" not in names
        assert "hyperplane_matches_cut_loop" not in names

    def test_best_set_projection_norm_checked(self):
        for text in ("3 1 annihilator\n1\n1\n1\n",
                     "4 2 annihilator\n1 0\n0 1\n1 1\n2 -1\n"):
            results = {n: (ok, d) for n, ok, d in check_instance(parse_instance(text))}
            assert results["best_set_projection_norm"][0]

    def test_wrong_closed_form_fails_the_cut_loop_check(self, monkeypatch):
        # the closed form replaced by the coordinate projection of {1},
        # whose norm 2 it claims: a projection, but not a minimal one,
        # since the anchor's constant is 4/3
        from linfiso import projection
        from linfiso.linalg import IndexSet, op_norm_inf

        real = projection._hyperplane_solution
        inst = parse_instance("3 1 annihilator\n1\n1\n1\n")
        spec = inst.to_spec()

        def suboptimal(annihilator):
            y, p = projection.coordinate_projection(spec, IndexSet((1,), 3))
            return y, op_norm_inf(p), real(annihilator)[2]

        monkeypatch.setattr(projection, "_hyperplane_solution", suboptimal)
        results = {n: (ok, d) for n, ok, d in check_instance(inst)}
        assert results["hyperplane_matches_cut_loop"] == (
            False, "cut loop=4/3 closed form=2 certified=True"
        )

    def test_uncertified_cut_loop_fails_the_check(self, monkeypatch):
        # the cut loop's optimum kept, its dual operator Z zeroed: the
        # value agrees with the closed form, but the certificate proves
        # no bound
        from dataclasses import replace

        from linfiso import crosscheck

        real = crosscheck._cut_loop

        def zero_z(spec, index_set):
            result = real(spec, index_set)
            rows, den = result.dual
            return replace(result, dual=([[0] * len(row) for row in rows], den))

        monkeypatch.setattr(crosscheck, "_cut_loop", zero_z)
        results = {n: (ok, d) for n, ok, d in check_instance(parse_instance(
            "3 1 annihilator\n1\n1\n1\n"))}
        assert results["hyperplane_matches_cut_loop"] == (
            False, "cut loop=4/3 closed form=4/3 certified=False"
        )

    def test_unproved_constant_fails_the_check(self, monkeypatch):
        # the closed form's optimum kept, its Z_00 raised by one unit of
        # its denominator: the constant is right, its proof is not
        from dataclasses import replace

        from linfiso import crosscheck

        real = crosscheck.projection_constant

        def raised_z(spec, best_set):
            result = real(spec, best_set)
            rows, den = result.dual
            rows = [list(row) for row in rows]
            rows[0][0] += 1
            return replace(result, dual=(rows, den))

        monkeypatch.setattr(crosscheck, "projection_constant", raised_z)
        results = {n: ok for n, ok, _ in check_instance(parse_instance(
            "3 1 annihilator\n1\n1\n1\n"))}
        assert results["trace_duality_valid"] is False
        assert results["hyperplane_matches_cut_loop"] is True

    def test_no_program_is_built(self, monkeypatch):
        # trace duality proves both routes' constants; the full program
        # and its LP certificate are never made, by crosscheck or below it
        from linfiso import crosscheck, lp, projection

        def refused(*args):
            raise AssertionError("the LP check ran")

        for module, name in (
            (projection, "minimal_projection_program"),
            (projection, "lp_certificate"),
            (lp, "verify_certificate"),
        ):
            monkeypatch.setattr(module, name, refused)
            monkeypatch.setattr(crosscheck, name, refused, raising=False)
        for text in ("3 1 annihilator\n1\n1\n1\n",
                     "4 2 annihilator\n1 0\n0 1\n1 1\n2 -1\n"):
            assert all(ok for _, ok, _ in check_instance(parse_instance(text)))

    def test_best_upper_bound_scans_once(self, monkeypatch):
        # the report's best set is handed to projection_constant
        from linfiso import bounds, crosscheck, projection

        calls = []

        def counted(spec, *args, **kwargs):
            calls.append(spec)
            return bounds.best_upper_bound(spec, *args, **kwargs)

        monkeypatch.setattr(crosscheck, "best_upper_bound", counted)
        monkeypatch.setattr(projection, "best_upper_bound", counted)
        results = check_instance(parse_instance("4 2 annihilator\n1 0\n0 1\n1 1\n2 -1\n"))
        assert all(ok for _, ok, _ in results)
        assert len(calls) == 1


class TestRunCrosscheck:
    def test_small_run_is_clean(self):
        summary = run_crosscheck(seed=7, count=25, max_ambient=5, max_codim=2)
        assert summary.ok
        assert summary.instances == 25
        assert summary.agreements == 25
        assert summary.disagreements == []
        # every instance runs the shared checks; each hyperplane checks
        # its closed forms against the scan and the cut loop
        assert summary.checks_run["trace_duality_valid"] == 25
        assert (
            summary.checks_run["hyperplane_matches_general"]
            == summary.checks_run["hyperplane_matches_cut_loop"]
            > 0
        )
        per_route = summary.checks_run.get(
            "hyperplane_matches_general", 0
        ) + summary.checks_run.get("minor_test_matches_general", 0)
        assert per_route == 25

    def test_deterministic_under_seed(self):
        a = run_crosscheck(seed=19, count=10, max_ambient=5, max_codim=2)
        b = run_crosscheck(seed=19, count=10, max_ambient=5, max_codim=2)
        assert a == b

    def test_seed_changes_instances(self):
        a = run_crosscheck(seed=1, count=5, max_ambient=5, max_codim=2)
        b = run_crosscheck(seed=2, count=5, max_ambient=5, max_codim=2)
        assert a.checks_run != b.checks_run or a is not b

    def test_rational_entries_pass_all_checks(self):
        import random

        from linfiso.instances import random_instance

        rng = random.Random(3)
        for _ in range(8):
            ambient = rng.randint(3, 4)
            codim = rng.randint(1, 2)
            inst = random_instance(rng, ambient, codim, rational=True)
            assert all(ok for _, ok, _ in check_instance(inst))
