"""README's examples, run as written.

Every `$ linfiso ...` line of README's sh blocks runs in process through
cli.main, and its stdout must be exactly the lines README shows after
it, up to the next blank line or `$` line.  Lines of those blocks that
do not start with `$ linfiso` (install, pytest, benchmark commands) are
skipped.  A `> file` redirect writes stdout to that file instead, so
README's own `gen` line writes instance.txt.  hyperplane.txt is README's
example instance file and ones.txt the all-ones functional on R^3.  The
"Library use" block runs too, and each value it prints must equal the
comment on its line."""

import re
import shlex
from pathlib import Path

import pytest

from linfiso.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)
FENCED = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
ONES = "3 1 annihilator\n1\n1\n1\n"


def blocks(lang):
    return [body for tag, body in FENCED.findall(README) if tag == lang]


def examples():
    """(command line, stdout lines README shows) for each `$ linfiso`
    line of README's sh blocks, in README's order."""
    found = []
    for block in blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ linfiso "):
                continue
            shown = []
            for after in lines[i + 1 :]:
                if not after or after.startswith("$ "):
                    break
                shown.append(after)
            found.append((line[2:], shown))
    return found


def run(command, capsys):
    """Run one README command line through main; returns its stdout,
    after writing it to the redirect target when the line has one."""
    argv = shlex.split(command)[1:]
    target = None
    if ">" in argv:
        at = argv.index(">")
        argv, target = argv[:at], argv[at + 1]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) in ((0, ""), (1, "")), (command, captured.err)
    if target is None:
        return captured.out
    Path(target).write_text(captured.out, encoding="utf-8")
    return ""


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    """README's three instance files in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hyperplane.txt").write_text(blocks("")[0], encoding="utf-8")
    (tmp_path / "ones.txt").write_text(ONES, encoding="utf-8")
    for command, _ in examples():
        if ">" in shlex.split(command):
            run(command, capsys)
    return tmp_path


def test_every_subcommand_has_an_example():
    commands = [shlex.split(command)[1] for command, _ in examples()]
    assert set(commands) == {"gen", "decide", "projconst", "bounds", "crosscheck"}
    assert blocks("")[0] == "3 1 annihilator\n1\n1\n2\n"


@pytest.mark.parametrize(
    "command, shown", examples(), ids=[command for command, _ in examples()]
)
def test_command_prints_what_readme_shows(workdir, capsys, command, shown):
    assert run(command, capsys).splitlines() == shown


def test_library_example(capsys):
    (block,) = blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    commented = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if "#" in line
    ]
    assert len(commented) == 6
    assert printed == commented
