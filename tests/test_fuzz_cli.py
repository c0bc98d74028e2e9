"""Property test of the CLI on arbitrary instance text: `decide` and
`bounds` return 0, 1 or 2, never raise, and when they fail print nothing
to stdout and one short error line to stderr.  Instances are built from the file grammar with N <= 6, then
some of their lines and tokens are mutated.  derandomize=True fixes the
examples, so the test runs the same inputs every time."""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linfiso.cli import main

GOOD_TOKENS = st.one_of(
    st.integers(-4, 4).map(str),
    st.tuples(st.integers(-4, 4), st.integers(1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["0.5", "-1.25", "+3", "007"]),
)
BAD_TOKENS = st.sampled_from(
    ["1/0", "1e3", "1_0", ".5", "3.", "x", "nan", "inf", "\u0661", "1/2/3",
     "9" * 4301, "--1", "1" * 5000]
)


@st.composite
def instance_texts(draw):
    ambient = draw(st.integers(2, 6))
    codim = draw(st.integers(1, ambient - 1))
    kind = draw(st.sampled_from(["annihilator", "spanning"]))
    width = codim if kind == "annihilator" else ambient - codim
    lines = [f"{ambient} {codim} {kind}"]
    lines += [
        " ".join(draw(st.lists(GOOD_TOKENS, min_size=width, max_size=width)))
        for _ in range(ambient)
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines = draw(mutations(lines))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\n\n"]))


@st.composite
def mutations(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split(" ")
    j = draw(st.integers(0, len(tokens) - 1))
    action = draw(st.sampled_from(
        ["drop_line", "dup_line", "swap_lines", "drop_token", "dup_token",
         "replace_token", "text_token"]
    ))
    lines = list(lines)
    if action == "drop_line":
        del lines[i]
    elif action == "dup_line":
        lines.insert(i, lines[i])
    elif action == "swap_lines":
        k = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[k] = lines[k], lines[i]
    else:
        if action == "drop_token":
            del tokens[j]
        elif action == "dup_token":
            tokens.insert(j, tokens[j])
        elif action == "replace_token":
            tokens[j] = draw(st.one_of(GOOD_TOKENS, BAD_TOKENS))
        else:
            tokens[j] = draw(st.text(max_size=8))
        lines[i] = " ".join(tokens)
    return lines or [""]


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    text=instance_texts(),
    argv=st.sampled_from([["decide"], ["decide", "--json"],
                          ["bounds"], ["bounds", "--per-set", "--json"]]),
)
def test_cli_never_raises(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.txt")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, path])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
        assert len(err.getvalue()) < 200
    else:
        assert err.getvalue() == ""
        assert out.getvalue()
