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
        assert "auto_matches_general" in names
        assert "hyperplane_matches_general" in names
        assert "verdict_iff_constant_one" in names
        assert "lp_certificate_valid" in names
        assert "norm_gap_holds" in names
        assert "block_det_products_sum_to_one" in names

    def test_pair_route_checked_for_codim_two(self):
        inst = parse_instance("4 2 annihilator\n1 0\n0 1\n1 1\n2 -1\n")
        names = {n for n, _, _ in check_instance(inst)}
        assert "minor_test_matches_general" in names
        assert "minor_vectors_match_ratio" in names
        assert "hyperplane_matches_general" not in names

    def test_best_set_projection_norm_checked(self):
        for text in ("3 1 annihilator\n1\n1\n1\n",
                     "4 2 annihilator\n1 0\n0 1\n1 1\n2 -1\n"):
            results = {n: (ok, d) for n, ok, d in check_instance(parse_instance(text))}
            assert results["best_set_projection_norm"][0]

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
        # every instance runs the shared checks
        assert summary.checks_run["auto_matches_general"] == 25
        assert summary.checks_run["lp_certificate_valid"] == 25
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
