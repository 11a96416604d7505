"""The README's library quick start and console examples run as written."""

import re
import shlex
from pathlib import Path

from quotassign.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the block's own asserts are stripped under python -O; check its results here too
    market, R, lottery = namespace["market"], namespace["R"], namespace["lottery"]
    assert len(R) == market.n and all(sum(row) == 1 for row in R)
    assert lottery.expectation() == R


def test_readme_console_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    # each `$ quotassign ...` line runs on the README's seminar.json, in one
    # directory so that a later call reads what an earlier one wrote
    text = README.read_text(encoding="utf-8")
    (seminar,) = re.findall(r"`seminar\.json`:\n\n```json\n(.*?)^```$", text, re.M | re.S)
    (tmp_path / "seminar.json").write_text(seminar, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```console\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 2
    calls = [call for block in blocks for call in re.split(r"^\$ ", block, flags=re.M)[1:]]
    assert len(calls) == 3
    for call in calls:
        command, _, shown = call.partition("\n")
        program, *argv = shlex.split(command)
        assert program == "quotassign"
        assert main(argv) == 0, command
        assert capsys.readouterr() == (shown, ""), command
