"""The README's library example and command lines run as documented."""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from fsgraph.cli import _build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _code_block(section: str, language: str) -> str:
    """The first fenced block of `language` under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


COMMAND_LINES = [
    line for line in _code_block("Command line", "sh").splitlines() if line.startswith("fsgraph ")
]


def test_library_example_runs():
    exec(compile(_code_block("Library example", "python"), "README.md", "exec"), {})


def test_readme_shows_every_command_group():
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {shlex.split(line)[1] for line in COMMAND_LINES} == set(commands.choices)


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_exits_zero(line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line)[1:])
    assert code == 0, err.getvalue()
    assert out.getvalue().endswith("\n")
