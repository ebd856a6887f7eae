"""The README's library example and command lines run as documented."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from fsgraph.cli import _COMMANDS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(name: str) -> str:
    """The text under the `## name` heading."""
    return README.split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def _code_block(section: str, language: str) -> str:
    """The first fenced block of `language` under the `## section` heading."""
    return re.search(rf"```{language}\n(.*?)```", _section(section), re.S).group(1)


COMMAND_LINES = [
    line for line in _code_block("Command line", "sh").splitlines() if line.startswith("fsgraph ")
]


def test_library_example_runs():
    exec(compile(_code_block("Library example", "python"), "README.md", "exec"), {})


def test_readme_shows_every_command_group():
    assert {shlex.split(line)[1] for line in COMMAND_LINES} == {words[0] for words in _COMMANDS}


@pytest.mark.parametrize("flag", ["--state-cap", "--listing-cap"])
def test_caps_table_names_the_commands_that_take_each_cap(flag):
    rows = _section("Caps and configuration").splitlines()
    row = next(line for line in rows if line.startswith(f"| `{flag}` |"))
    listed = set(re.findall(r"`([^`]+)`", row.split("|")[3]))
    assert listed == {" ".join(words) for words, (_, _, flags) in _COMMANDS.items() if flag in flags}


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_exits_zero(line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line)[1:])
    assert code == 0, err.getvalue()
    assert out.getvalue().endswith("\n")
