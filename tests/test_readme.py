"""The README's command-line examples and help block are the program's own output.

Each ``$ c4x4det ...`` line of ``README.md`` runs in this process, and its
stdout must be the lines shown under it, with elapsed seconds masked.
"""

import re
import shlex
from pathlib import Path

import pytest

from c4x4det import cli
from test_golden import _ELAPSED, run_case

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# (command after "$ c4x4det ", the lines up to the next prompt or the block's end)
EXAMPLES = re.findall(r"^\$ c4x4det (.*)\n((?:(?!\$ |```).*\n)*)", README, re.MULTILINE)


def test_every_prompt_is_an_example():
    assert len(EXAMPLES) == README.count("\n$ c4x4det ") > 0


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_example_prints_what_the_readme_shows(command, shown):
    result = run_case("cli", shlex.split(command))
    assert (result["stdout"], result["stderr"]) == (_ELAPSED.sub(", <elapsed>s", shown), "")


def test_readme_shows_the_help_text():
    assert f"```\n{cli.USAGE}```" in README
