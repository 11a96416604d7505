"""The README's library quick start runs as written."""

import re
from pathlib import Path

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
