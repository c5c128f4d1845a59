"""The README's ``## Library`` example and ``## CLI`` commands run as written."""

import re
import shlex
from pathlib import Path

import pytest
from conftest import POP_CSV_TEXT

from priorsearch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def cli_lines():
    block = re.search(r"```\n(.*?)```", section("CLI"), re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("priorsearch ")]


def test_library_example_runs():
    code = re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)
    exec(compile(code, "README.md (## Library)", "exec"), {})


def test_cli_block_is_not_empty():
    assert cli_lines()


@pytest.mark.parametrize("line", cli_lines(), ids=lambda line: " ".join(line.split("#")[0].split()[1:]))
def test_cli_line_runs(line, runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pop.csv").write_text(POP_CSV_TEXT)
    (tmp_path / "lik.csv").write_text("id,likelihood\na,0.2\nb,0.5\nc,0.9\n")
    result = runner.invoke(main, shlex.split(line, comments=True)[1:])
    assert result.exit_code == 0, result.output
