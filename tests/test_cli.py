import json
import re

import pytest

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
        assert "method: hyperplane" in out
        assert "witness: {3}" in out
        assert "vector 3: [1/2 1/2 1]  1-norm 2" in out

    def test_rejecting_exit(self, rejecting, capsys):
        assert main(["decide", rejecting]) == 1
        out = capsys.readouterr().out
        assert "verdict: not isometric" in out
        assert "witness" not in out

    def test_general_mode(self, accepting, capsys):
        assert main(["decide", accepting, "--mode", "general"]) == 0
        assert "method: general" in capsys.readouterr().out

    def test_json_payload(self, accepting, capsys):
        assert main(["decide", accepting, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "isometric"
        assert payload["witness"]["set"] == [3]
        assert payload["witness"]["norms"] == {"3": "2"}
        assert payload["witness"]["vectors"]["3"] == ["1/2", "1/2", "1"]

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
            "method: hyperplane",
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
        assert "method: lp" in capsys.readouterr().out
        for instance, method in ((rejecting, "hyperplane"), (str(path), "lp")):
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
        assert payload["checks_run"]["auto_matches_general"] == 5

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
