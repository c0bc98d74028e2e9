import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import linfiso
from linfiso.cli import main

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")

ACCEPTING = "3 1 annihilator\n1\n1\n2\n"
REJECTING = "3 1 annihilator\n1\n1\n1\n"


@pytest.fixture
def accepting(tmp_path):
    path = tmp_path / "yes.txt"
    path.write_text(ACCEPTING, encoding="utf-8")
    return str(path)


@pytest.fixture
def rejecting(tmp_path):
    path = tmp_path / "no.txt"
    path.write_text(REJECTING, encoding="utf-8")
    return str(path)


def walk_strings(payload):
    if isinstance(payload, dict):
        for v in payload.values():
            yield from walk_strings(v)
    elif isinstance(payload, list):
        for v in payload:
            yield from walk_strings(v)
    elif isinstance(payload, str):
        yield payload


class TestDecide:
    def test_accepting_exit_and_text(self, accepting, capsys):
        assert main(["decide", accepting]) == 0
        out = capsys.readouterr().out
        assert "verdict: isometric" in out
        assert "method:" not in out
        assert "witness: {3}" in out
        assert "vector 3: [1/2 1/2 1]  1-norm 2" in out

    def test_rejecting_exit(self, rejecting, capsys):
        assert main(["decide", rejecting]) == 1
        out = capsys.readouterr().out
        assert "verdict: not isometric" in out
        assert "witness" not in out

    def test_json_payload(self, accepting, capsys):
        assert main(["decide", accepting, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "isometric"
        assert payload["witness"]["set"] == [3]
        assert payload["witness"]["norms"] == {"3": "2"}
        assert payload["witness"]["vectors"]["3"] == ["1/2", "1/2", "1"]

    def test_json_keys(self, accepting, rejecting, capsys):
        assert main(["decide", accepting, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"verdict", "sets_examined", "witness"}
        assert set(payload["witness"]) == {"set", "vectors", "norms"}
        assert main(["decide", rejecting, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"verdict", "sets_examined", "witness"}
        assert payload["witness"] is None

    def test_printed_norms_are_the_vectors_norms(self, tmp_path, capsys):
        # text and JSON: each member's printed 1-norm is the sum of the
        # absolute values of its printed vector, at m = 1, 2 and 3
        line = re.compile(r"^vector (\d+): \[(.*)\]  1-norm (\S+)$")
        path = tmp_path / "planted.txt"
        seen = set()
        for text in (
            ACCEPTING,
            "3 2 annihilator\n1/2 2\n0 1/3\n2 -1\n",
            "4 2 annihilator\n1 0\n-2 0\n1 2\n0 -2\n",
            "5 3 annihilator\n1 0 1\n0 -1 -1\n0 2 2\n-2 2 2\n-2 1 1\n",
        ):
            path.write_text(text, encoding="utf-8")
            assert main(["decide", str(path)]) == 0
            out = capsys.readouterr().out
            printed = [line.match(row) for row in out.splitlines()[3:]]
            for match in printed:
                total = sum(abs(F(x)) for x in match[2].split())
                assert F(match[3]) == total
            assert main(["decide", str(path), "--json"]) == 0
            witness = json.loads(capsys.readouterr().out)["witness"]
            assert [int(m[1]) for m in printed] == witness["set"]
            for k, vec in witness["vectors"].items():
                assert F(witness["norms"][k]) == sum(abs(F(x)) for x in vec)
            seen.add(len(witness["set"]))
        assert seen == {1, 2, 3}

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["decide", str(tmp_path / "absent.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 1 annihilator\n1\nx\n1\n", encoding="utf-8")
        assert main(["decide", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err


class TestHostileInput:
    """Exit 2 leaves stdout empty and says why in one stderr line."""

    def run(self, tmp_path, capsys, text, *argv):
        path = tmp_path / "hostile.txt"
        path.write_text(text, encoding="utf-8")
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_exponent_token_rejected(self, tmp_path, capsys):
        self.run(tmp_path, capsys, "2 1 annihilator\n1e300000\n1\n", "decide")

    @pytest.mark.parametrize("command", ["decide", "bounds", "projconst"])
    @pytest.mark.parametrize(
        "token, needle",
        [("1" * 5000, "wider than the interpreter's limit"),
         ("x" * 5000, "not rational"),
         ("1/" + "3" * 4400, "wider than the interpreter's limit")],
        ids=["wide_integer", "long_garbage", "wide_denominator"],
    )
    def test_long_token_error_is_short(self, tmp_path, capsys, command, token, needle):
        path = tmp_path / "long.txt"
        path.write_text(f"2 1 annihilator\n1\n{token}\n", encoding="utf-8")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 3: token 1: ")
        assert captured.err.count("\n") == 1
        assert needle in captured.err
        assert len(captured.err) < 200

    @pytest.mark.parametrize("command", ["decide", "bounds", "projconst"])
    @pytest.mark.parametrize(
        "header",
        ["0_3 1 annihilator", "3 +1 annihilator", "\u0663 1 annihilator"],
        ids=["underscore", "plus_sign", "arabic_indic_digit"],
    )
    def test_header_takes_ascii_digits_only(self, tmp_path, capsys, command, header):
        err = self.run(tmp_path, capsys, header + "\n1\n1\n2\n", command)
        assert err.startswith("error: line 1: N and m must be integers")

    @pytest.mark.parametrize("command", ["decide", "bounds", "projconst"])
    def test_header_wider_than_the_int_limit(self, tmp_path, capsys, command):
        text = "1" * 5000 + " 1 annihilator\n1\n1\n"
        err = self.run(tmp_path, capsys, text, command)
        assert err.startswith("error: line 1: N and m: a 5000-digit number")
        assert "wider than the interpreter's limit" in err
        assert len(err) < 200

    def test_long_kind_error_is_short(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "2 1 " + "k" * 5000 + "\n1\n1\n", "decide")
        assert len(err) < 200


class TestSetBudget:
    """decide, bounds and projconst refuse an instance with more index
    sets than --max-sets before their scan starts: exit 2, one stderr
    line naming the budget and the flag, and no stdout."""

    @pytest.mark.parametrize("command", ["decide", "bounds", "projconst"])
    def test_oversized_instance_refused(self, tmp_path, capsys, monkeypatch, command):
        from linfiso import bounds, decide

        def no_scan(spec):
            raise AssertionError("the scan started")

        monkeypatch.setattr(decide, "_prefix_walk", no_scan)
        monkeypatch.setattr(bounds, "_prefix_walk", no_scan)
        assert main(["gen", "--seed", "1", "--n", "15", "--m", "15"]) == 0
        path = tmp_path / "wide.txt"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: C(30, 15) = 155117520 index sets exceed the set budget of "
            "100000; raise it with --max-sets\n"
        )

    @pytest.mark.parametrize("command", ["decide", "bounds", "projconst"])
    def test_raised_budget_gives_the_default_answer(self, tmp_path, capsys, command):
        # C(6, 3) = 20 sets: refused under a budget of 19, and a budget
        # of 20 prints what the default prints
        path = tmp_path / "small.txt"
        path.write_text("6 3 annihilator\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n1 -1 2\n"
                        "2 1 -1\n", encoding="utf-8")
        assert main([command, str(path), "--json"]) in (0, 1)
        default = capsys.readouterr().out
        assert main([command, str(path), "--json", "--max-sets", "19"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "set budget of 19; raise it with --max-sets" in captured.err
        assert main([command, str(path), "--json", "--max-sets", "20"]) in (0, 1)
        assert capsys.readouterr().out == default

    def test_hyperplane_counts_its_coordinates(self, accepting, capsys):
        # a hyperplane in Q^3 has C(3, 1) = 3 index sets
        assert main(["decide", accepting, "--max-sets", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: C(3, 1) = 3 index sets exceed the set budget of 2; "
            "raise it with --max-sets\n"
        )
        assert main(["decide", accepting, "--max-sets", "3"]) == 0

    @pytest.mark.parametrize("command", ["bounds", "projconst"])
    def test_hyperplane_refused_before_its_certificate(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # projconst scans at every m, so a hyperplane in Q^12 is refused
        # under a budget of 11 sets before its program is built
        from linfiso import cli

        def no_program(spec):
            raise AssertionError("the program was built")

        path = tmp_path / "wide.txt"
        path.write_text("12 1 annihilator\n" + "1\n" * 12, encoding="utf-8")
        monkeypatch.setattr(cli, "minimal_projection_program", no_program)
        assert main([command, str(path), "--max-sets", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: C(12, 1) = 12 index sets exceed the set budget of 11; "
            "raise it with --max-sets\n"
        )
        monkeypatch.undo()
        assert main([command, str(path), "--max-sets", "12"]) == 0
        # the all-ones functional on Q^12 has constant 2 - 2/12
        assert "11/6" in capsys.readouterr().out

    def test_hyperplane_budget_checked_without_the_scan(
        self, tmp_path, capsys, monkeypatch
    ):
        # the closed form needs no start set: projconst counts a
        # hyperplane's N sets and runs no best_upper_bound scan
        from linfiso import cli

        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        path = tmp_path / "wide.txt"
        path.write_text("12 1 annihilator\n" + "1\n" * 12, encoding="utf-8")
        monkeypatch.setattr(cli, "best_upper_bound", no_scan)
        assert main(["projconst", str(path), "--max-sets", "11"]) == 2
        assert capsys.readouterr().err.startswith("error: C(12, 1) = 12 index sets")
        assert main(["projconst", str(path), "--max-sets", "12"]) == 0
        assert "11/6" in capsys.readouterr().out

    def test_budget_must_be_positive(self, accepting, capsys):
        assert main(["decide", accepting, "--max-sets", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-sets must be at least 1\n"


class TestWideResults:
    """Results past the interpreter's 4300-digit limit for int-to-str
    conversion print in full."""

    # f = (1, 1/(10**2500 + 1), 1/(10**2500 + 3)).  The witness 1-norm is
    # 1 + 1/a + 1/b with a = 10**2500 + 1, b = 10**2500 + 3: numerator
    # 10**5000 + 6 * 10**2500 + 7 over ab = 10**5000 + 4 * 10**2500 + 3,
    # in lowest terms.  Every expected token is spelled out by hand.
    A = "1" + "0" * 2499 + "1"
    B = "1" + "0" * 2499 + "3"
    NORM = (
        "1" + "0" * 2499 + "6" + "0" * 2499 + "7"
        + "/1" + "0" * 2499 + "4" + "0" * 2499 + "3"
    )

    @pytest.fixture
    def wide(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text(
            f"3 1 annihilator\n1\n1/{self.A}\n1/{self.B}\n", encoding="utf-8"
        )
        return str(path)

    def test_decide_text(self, wide, capsys):
        assert main(["decide", wide]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "verdict: isometric",
            "sets examined: 1",
            "witness: {1}",
            f"vector 1: [1 1/{self.A} 1/{self.B}]  1-norm {self.NORM}",
        ]

    def test_decide_json(self, wide, capsys):
        assert main(["decide", wide, "--json"]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness["norms"] == {"1": self.NORM}
        assert witness["vectors"]["1"] == ["1", f"1/{self.A}", f"1/{self.B}"]

    def test_projconst(self, wide, capsys):
        argv = ["projconst", wide, "--json", "--emit-projection"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == "1"
        assert payload["certificate"] == "valid"
        assert payload["right_inverse"] == [["1"], ["0"], ["0"]]
        assert payload["projection"] == [
            ["0", f"-1/{self.A}", f"-1/{self.B}"],
            ["0", "1", "0"],
            ["0", "0", "1"],
        ]


class TestBounds:
    def test_text_output(self, rejecting, capsys):
        assert main(["bounds", rejecting]) == 0
        out = capsys.readouterr().out
        assert "lower (projection constant): 4/3" in out
        assert "upper (best per-set bound): 2" in out
        assert "best set: {1}" in out

    def test_per_set_listing(self, rejecting, capsys):
        assert main(["bounds", rejecting, "--per-set"]) == 0
        out = capsys.readouterr().out
        assert out.count(": 2") >= 3

    def test_json_rationals_are_strings(self, rejecting, capsys):
        assert main(["bounds", rejecting, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] == "4/3"
        assert payload["upper"] == "2"
        assert payload["best_set"] == [1]
        for token in (payload["lower"], payload["upper"]):
            assert RATIONAL.match(token)

    def test_codim_two_scans_once(self, tmp_path, capsys, monkeypatch):
        # the report's best set starts the projection simplex
        from linfiso import bounds, cli, projection

        calls = []

        def counted(spec, *args, **kwargs):
            calls.append(spec)
            return bounds.best_upper_bound(spec, *args, **kwargs)

        monkeypatch.setattr(cli, "best_upper_bound", counted)
        monkeypatch.setattr(projection, "best_upper_bound", counted)
        path = tmp_path / "pair.txt"
        path.write_text("4 2 annihilator\n1 0\n0 1\n1 1\n2 -1\n", encoding="utf-8")
        assert main(["bounds", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert payload["lower"] == payload["upper"] == "1"


class TestProjconst:
    def test_certified_output(self, rejecting, capsys):
        assert main(["projconst", rejecting]) == 0
        out = capsys.readouterr().out
        assert "projection constant: 4/3" in out
        assert "certificate: valid" in out

    def test_method(self, rejecting, tmp_path, capsys):
        assert main(["projconst", rejecting]) == 0
        assert "method: hyperplane" in capsys.readouterr().out
        path = tmp_path / "pair.txt"
        path.write_text("4 2 annihilator\n1 0\n0 1\n1 1\n1 -1\n", "utf-8")
        assert main(["projconst", str(path)]) == 0
        assert "method: cuts" in capsys.readouterr().out
        for instance, method in ((rejecting, "hyperplane"), (str(path), "cuts")):
            assert main(["projconst", instance, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["method"] == method
            assert payload["certificate"] == "valid"

    def test_emit_projection(self, rejecting, capsys):
        assert main(["projconst", rejecting, "--emit-projection"]) == 0
        out = capsys.readouterr().out
        assert "right inverse:" in out
        assert "1/3" in out
        assert "projection:" in out

    def test_json_payload(self, rejecting, capsys):
        assert main(
            ["projconst", rejecting, "--json", "--emit-projection"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == "4/3"
        assert payload["certificate"] == "valid"
        assert payload["right_inverse"] == [["1/3"], ["1/3"], ["1/3"]]
        for token in walk_strings(payload["projection"]):
            assert RATIONAL.match(token)


class TestCrosscheck:
    def test_smoke_run(self, capsys):
        code = main(
            ["crosscheck", "--seed", "7", "--count", "10", "--max-n", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "instances: 10" in out
        assert "disagreements: 0" in out

    def test_json_summary(self, capsys):
        code = main(
            [
                "crosscheck",
                "--seed",
                "7",
                "--count",
                "5",
                "--max-n",
                "4",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instances"] == 5
        assert payload["agreements"] == 5
        assert payload["disagreements"] == []
        runs = payload["checks_run"]
        assert runs["trace_duality_valid"] == 5
        assert runs["hyperplane_matches_cut_loop"] == runs["hyperplane_matches_general"] > 0

    def test_oversized_shapes_refused_before_drawing(self, capsys, monkeypatch):
        # the widest shape is C(max n, min(max m, max n // 2)); crosscheck
        # has no --max-sets, so the refusal names the flags it does have
        from linfiso import cli
        from linfiso.crosscheck import CrossCheckSummary

        runs = []

        def recorded(**kwargs):
            runs.append(kwargs)
            return CrossCheckSummary(seed=kwargs["seed"])

        monkeypatch.setattr(cli, "run_crosscheck", recorded)
        for n, m, k, code in ((30, 15, 15, 2), (20, 9, 9, 2), (40, 39, 20, 2),
                              (19, 9, 9, 0), (19, 18, 9, 0)):
            argv = ["crosscheck", "--max-n", str(n), "--max-m", str(m), "--count", "1"]
            assert main(argv) == code
            captured = capsys.readouterr()
            if code:
                assert captured.out == ""
                assert captured.err == (
                    f"error: --max-n {n} with --max-m {m} can draw C({n}, {k}) "
                    "index sets, over the set budget of 100000; lower --max-n "
                    "or --max-m\n"
                )
            else:
                assert captured.err == ""
        assert [(run["max_ambient"], run["max_codim"]) for run in runs] == [
            (19, 9), (19, 18)
        ]

    def test_argument_validation(self, capsys):
        assert main(["crosscheck", "--count", "0"]) == 2
        assert main(["crosscheck", "--max-m", "9"]) == 2
        assert main(["crosscheck", "--entry-range", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 3


class TestGen:
    def test_deterministic_and_parseable(self, capsys):
        assert main(["gen", "--seed", "5", "--n", "3", "--m", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--seed", "5", "--n", "3", "--m", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
        from linfiso.instances import parse_instance

        inst = parse_instance(first)
        assert inst.ambient == 5
        assert inst.codim == 2

    def test_pipe_into_decide(self, tmp_path, capsys):
        assert main(["gen", "--seed", "5", "--n", "2", "--m", "1"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "gen.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["decide", str(path)]) in (0, 1)

    def test_spanning_and_rational_flags(self, capsys):
        code = main(
            [
                "gen",
                "--seed",
                "2",
                "--n",
                "2",
                "--m",
                "1",
                "--kind",
                "spanning",
                "--rational",
            ]
        )
        assert code == 0
        from linfiso.instances import parse_instance

        inst = parse_instance(capsys.readouterr().out)
        assert inst.kind == "spanning"

    def test_validation(self, capsys):
        assert main(["gen", "--seed", "1", "--n", "0", "--m", "1"]) == 2
        capsys.readouterr()


class TestParserReuse:
    """main builds its parser once per process; calls in a row, an
    argparse error among them, print what fresh processes print."""

    def test_calls_in_one_process_match_fresh_processes(
        self, accepting, rejecting, capsys
    ):
        runs = [
            ["decide", accepting],
            ["projconst", rejecting, "--json"],
            ["decide", accepting, "--max-sets", "many"],  # argparse refuses it
            ["bounds", rejecting, "--per-set"],
            ["gen", "--seed", "3", "--n", "4", "--m", "2"],
            ["crosscheck", "--seed", "2", "--count", "3"],
            ["decide", rejecting, "--json"],
        ]
        in_process = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0, 0, 1]
        env = dict(os.environ, PYTHONPATH=str(Path(linfiso.__file__).parents[1]))
        for argv, expected in zip(runs, in_process):
            fresh = subprocess.run(
                [sys.executable, "-c", "from linfiso.cli import run; run()", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == expected, argv
