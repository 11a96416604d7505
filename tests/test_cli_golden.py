"""Byte-for-byte goldens of the command line.

Each case is one `quotassign` call, run in-process through `cli.main`; its
exit code, stdout and stderr (and the file it writes, for `--output`) must
equal the record in cli_golden.json. The inputs are the golden markets of
goldens.py plus a few generated ones, written to a temporary directory that
the records spell as "{dir}". Outputs longer than HASH_ABOVE characters are
recorded by their SHA-256 and length.

To rerecord, only when an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from quotassign.cli import main
from quotassign.eating import run_pslq
from quotassign.marketio import (
    GeneratorConfig,
    generate_market,
    serialize_assignment,
    serialize_market,
)
from quotassign.model import Market
from quotassign.priority import run_priolq, run_rplq_exact

from goldens import (
    CHAIN_MATRIX,
    PSLQ_FIVE,
    PSLQ_LOWER_QUOTAS,
    RPLQ_LOWER_QUOTAS,
    RPLQ_SIX,
    market_chain,
    market_five,
    market_lower_quotas,
    market_no_quotas,
    market_six,
    market_thirds,
    mat,
)

RECORDS = Path(__file__).with_name("cli_golden.json")
HASH_ABOVE = 400
#: argparse wraps its usage lines to the terminal width
COLUMNS = "80"


def _generated(n, k, seed, quota_style="none"):
    cfg = GeneratorConfig(n=n, k=k, seed=seed, quota_style=quota_style)
    return generate_market(cfg)


def _inputs():
    """Market and assignment files by name, as JSON text."""
    g_tight = _generated(6, 4, 1, "integer-tight")
    g_loose = _generated(7, 4, 3, "integer-loose")
    g_frac = _generated(5, 3, 2, "fractional")
    g12 = _generated(12, 4, 0)
    markets = {
        "five": market_five(),
        "lq": market_lower_quotas(),
        "noq": market_no_quotas(),
        "six": market_six(),
        "chain": market_chain(),
        "thirds": market_thirds(),
        # a fractional cap on the chain's head, a lower quota on its tail:
        # the quota slack, not the held probability, bounds the shift
        "chain_up": Market(
            ["a", "b", "c"], [0, 1, 0], ["3/4", 1, None], [["a", "b", "c"], ["b", "c", "a"]]
        ),
        "chain_low": Market(
            ["a", "b", "c"], [0, 1, "3/8"], [None, 1, None], [["a", "b", "c"], ["b", "c", "a"]]
        ),
        "cycle3": Market(
            ["a", "b", "c"],
            [0, 0, 0],
            [None, None, None],
            [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]],
        ),
        "swap2": Market(["a", "b"], [0, 0], [None, None], [["a", "b"], ["b", "a"]]),
        "uncapped2": Market(["a", "b"], [0, 0], [None, None], [["a", "b"], ["b", "a"]]),
        "uncapped3": Market(
            ["a", "b", "c"],
            [0, 0, 0],
            [None, None, None],
            [["a", "b", "c"], ["a", "c", "b"], ["a", "b", "c"]],
        ),
        # one student whose ranking cannot matter: a is pinned at one seat
        "pinned": Market(["a", "b"], [1, 0], [1, 0], [["b", "a"]]),
        "wide8": _generated(2, 8, 0),
        "big10": Market(["a", "b"], [0, 0], [None, None], [["a", "b"], ["b", "a"]] * 5),
        "g_tight": g_tight,
        "g_loose": g_loose,
        "g_frac": g_frac,
        "g12": g12,
    }
    assignments = {
        "pslq_five": PSLQ_FIVE,
        "pslq_lq": PSLQ_LOWER_QUOTAS,
        "rplq_lq": RPLQ_LOWER_QUOTAS,
        "rplq_six": RPLQ_SIX,
        "chain": CHAIN_MATRIX,
        "swap": mat("0 1", "1 0"),
        "cycle3": mat("0 1 0", "0 0 1", "1 0 0"),
        "stacked": tuple((Fraction(1), Fraction(0), Fraction(0)) for _ in range(4)),
        "priolq_lq_1234": mat("1 0 0", "0 0 1", "0 1 0", "0 1 0"),
        "priolq_lq_4321": mat("0 0 1", "1 0 0", "0 1 0", "0 1 0"),
        "pareto_noq": mat("0 1 0", "1 0 0", "1 0 0", "0 1 0"),
        "g12_all_a": tuple((1, 0, 0, 0) for _ in range(12)),
        "g_tight_pslq": run_pslq(g_tight),
        "g_tight_rplq": run_rplq_exact(g_tight).assignment,
        "g_loose_priolq": run_priolq(g_loose, tuple(range(g_loose.n))),
        "g_frac_pslq": run_pslq(g_frac),
    }
    files = {f"{name}.json": serialize_market(m) for name, m in markets.items()}
    files.update({f"a_{name}.json": serialize_assignment(a) for name, a in assignments.items()})
    files["broken.json"] = "{not json"
    files["inverted.json"] = json.dumps(
        {"projects": [{"name": "a", "lower": 2, "upper": 1}], "preferences": [["a"]]}
    )
    files["unknown.json"] = json.dumps(
        {"projects": [{"name": "a"}], "preferences": [["a"], ["z"]]}
    )
    return files


_PER_FORMAT = [
    "run pslq --input {dir}/five.json",
    "run pslq --trace --input {dir}/five.json",
    "run pslq --trace --input {dir}/g_tight.json",
    "run pslq --input {dir}/g_frac.json",
    "run pslq --input {dir}/thirds.json",
    "run priolq --input {dir}/lq.json",
    "run priolq --order 3,4,1,2 --input {dir}/lq.json",
    "run rplq --input {dir}/lq.json",
    "run rplq --input {dir}/six.json",
    "run rplq --samples 50 --seed 3 --input {dir}/lq.json",
    "run multiunit --q 2 --input {dir}/noq.json",
    "run multiunit --q 2 --mechanism rplq --input {dir}/lq.json",
    "run multiunit --q 2 --mechanism rplq --samples 30 --seed 5 --input {dir}/lq.json",
]

_ONCE = [
    # run
    "run rplq --input {dir}/g_tight.json --format json",
    "run rplq --samples 20 --input {dir}/g_loose.json --format json",
    "run priolq --order 7,6,5,4,3,2,1 --input {dir}/g_loose.json",
    "run pslq --trace --input {dir}/thirds.json",
    "run pslq --trace --input {dir}/noq.json",
    "run multiunit --q 3 --input {dir}/uncapped2.json --format json",
    "run multiunit --q 3 --mechanism rplq --input {dir}/uncapped2.json --format json",
    "run multiunit --q 2 --mechanism rplq --input {dir}/uncapped3.json",
    "run multiunit --q 2 --mechanism rplq --samples 10 --seed 1 --input {dir}/uncapped3.json",
    "run pslq --input {dir}/five.json --output {dir}/out.txt",
    "run pslq --trace --input {dir}/five.json --format json --output {dir}/out.json",
    # check: every witness shape
    "check --input {dir}/five.json --assignment {dir}/a_pslq_five.json",
    "check --axioms ef --input {dir}/lq.json --assignment {dir}/a_rplq_lq.json",
    "check --axioms ef,wef --input {dir}/lq.json --assignment {dir}/a_priolq_lq_1234.json",
    "check --axioms ml,pareto --input {dir}/lq.json --assignment {dir}/a_priolq_lq_1234.json",
    "check --axioms ml --master-list 1,2,3,4 --input {dir}/lq.json"
    " --assignment {dir}/a_priolq_lq_4321.json",
    "check --axioms ml --master-list 4,3,2,1 --input {dir}/lq.json"
    " --assignment {dir}/a_priolq_lq_4321.json",
    "check --axioms pareto,ml --input {dir}/noq.json --assignment {dir}/a_pareto_noq.json",
    "check --axioms oe --input {dir}/chain.json --assignment {dir}/a_chain.json",
    "check --axioms feasible,ef,wef,oe --input {dir}/chain.json --assignment {dir}/a_chain.json",
    "check --axioms oe --input {dir}/chain_up.json --assignment {dir}/a_chain.json",
    "check --axioms oe --input {dir}/chain_low.json --assignment {dir}/a_chain.json",
    "check --axioms oe --input {dir}/swap2.json --assignment {dir}/a_swap.json",
    "check --axioms oe --input {dir}/cycle3.json --assignment {dir}/a_cycle3.json",
    "check --axioms oe --input {dir}/six.json --assignment {dir}/a_rplq_six.json",
    "check --axioms oe --input {dir}/lq.json --assignment {dir}/a_rplq_lq.json",
    "check --axioms oe --input {dir}/lq.json --assignment {dir}/a_priolq_lq_4321.json",
    "check --axioms oe --input {dir}/g_tight.json --assignment {dir}/a_g_tight_rplq.json",
    "check --axioms oe,ef --input {dir}/six.json --assignment {dir}/a_rplq_six.json",
    "check --axioms feasible,oe --input {dir}/lq.json --assignment {dir}/a_stacked.json",
    "check --axioms feasible,ef,wef,oe,ml,pareto --input {dir}/lq.json"
    " --assignment {dir}/a_stacked.json",
    "check --axioms ef,wef,oe --input {dir}/lq.json --assignment {dir}/a_pslq_lq.json",
    "check --input {dir}/g_tight.json --assignment {dir}/a_g_tight_pslq.json",
    "check --axioms ef,wef,oe --input {dir}/g_tight.json --assignment {dir}/a_g_tight_rplq.json",
    "check --axioms oe,ml,pareto --input {dir}/g_loose.json"
    " --assignment {dir}/a_g_loose_priolq.json",
    "check --axioms ' oe , ef ,' --input {dir}/lq.json --assignment {dir}/a_pslq_lq.json",
    "check --axioms oe,oe --input {dir}/chain.json --assignment {dir}/a_chain.json",
    # check: input errors
    "check --axioms karma --input {dir}/five.json --assignment {dir}/a_pslq_five.json",
    "check --axioms , --input {dir}/five.json --assignment {dir}/a_pslq_five.json",
    "check --axioms ml --input {dir}/lq.json --assignment {dir}/a_pslq_lq.json",
    "check --axioms ef,pareto --input {dir}/lq.json --assignment {dir}/a_pslq_lq.json",
    "check --axioms pareto --input {dir}/g12.json --assignment {dir}/a_g12_all_a.json",
    "check --axioms ml --master-list 1,2 --input {dir}/lq.json"
    " --assignment {dir}/a_priolq_lq_1234.json",
    "check --axioms ml --master-list x,y --input {dir}/lq.json"
    " --assignment {dir}/a_priolq_lq_1234.json",
    "check --input {dir}/lq.json --assignment {dir}/a_pslq_five.json",
    "check --input {dir}/lq.json --assignment {dir}/missing.json",
    "check --input {dir}/lq.json --assignment {dir}/broken.json",
    "check --axioms karma --input {dir}/lq.json --assignment {dir}/a_stacked.json",
    # decompose
    "decompose --verify --input {dir}/five.json --assignment {dir}/a_pslq_five.json",
    "decompose --input {dir}/lq.json --assignment {dir}/a_rplq_lq.json",
    "decompose --verify --input {dir}/g_tight.json --assignment {dir}/a_g_tight_pslq.json",
    "decompose --verify --input {dir}/g_frac.json --assignment {dir}/a_g_frac_pslq.json",
    "decompose --verify --input {dir}/six.json --assignment {dir}/a_rplq_six.json",
    "decompose --input {dir}/lq.json --assignment {dir}/a_stacked.json",
    # manipulate: strict, incomparable and no-change reports
    "manipulate --student 1 --input {dir}/thirds.json",
    "manipulate --student 3 --input {dir}/lq.json",
    "manipulate --mechanism rplq-exact --student 1 --input {dir}/lq.json",
    "manipulate --student 1 --input {dir}/pinned.json",
    "manipulate --mechanism rplq-exact --student 1 --input {dir}/pinned.json",
    "manipulate --student 2 --input {dir}/g_tight.json",
    "manipulate --student 9 --input {dir}/thirds.json",
    "manipulate --student 0 --input {dir}/thirds.json",
    "manipulate --student 1 --input {dir}/wide8.json",
    "manipulate --mechanism rplq-exact --student 1 --input {dir}/thirds.json",
    "manipulate --mechanism bogus --student 1 --input {dir}/thirds.json",
    # verify-wsp
    "verify-wsp --input {dir}/thirds.json",
    "verify-wsp --input {dir}/lq.json",
    "verify-wsp --strong --input {dir}/lq.json",
    "verify-wsp --strong --input {dir}/five.json",
    "verify-wsp --mechanism rplq-exact --strong --input {dir}/lq.json",
    "verify-wsp --mechanism rplq-exact --input {dir}/g_tight.json",
    "verify-wsp --mechanism rplq-exact --input {dir}/thirds.json",
    "verify-wsp --mechanism bogus --input {dir}/lq.json",
    # impossibility
    "impossibility --format table",
    "impossibility --format json",
    # gen
    "gen --n 4 --k 3 --seed 5",
    "gen --n 6 --k 4 --seed 1 --quota-style integer-tight",
    "gen --n 5 --k 3 --seed 2 --quota-style fractional --denominator 3",
    "gen --n 5 --k 3 --seed 2 --quota-style integer-loose",
    "gen --n 4 --k 3 --seed 3 --pref-style correlated --weights 3,2,1",
    "gen --n 4 --k 3 --seed 3 --pref-style correlated",
    "gen --n 3 --k 2 --seed 1 --output {dir}/gen.json",
    "gen --n 0 --k 2",
    "gen --n 3 --k 2 --pref-style correlated --weights 1,2,3",
    "gen --n 3 --k 2 --pref-style correlated --weights 1,-1",
    "gen --n 3 --k 2 --quota-style fractional --denominator 0",
    # run: input errors
    "run pslq",
    "run pslq --input {dir}/nope.json",
    "run pslq --input {dir}/broken.json",
    "run pslq --input {dir}/inverted.json",
    "run pslq --input {dir}/unknown.json",
    "run priolq --order 1,1,2,2 --input {dir}/lq.json",
    "run priolq --order a,b --input {dir}/lq.json",
    "run priolq --input {dir}/thirds.json",
    "run multiunit --q 0 --input {dir}/noq.json",
    "run rplq --input {dir}/big10.json",
    "run rplq --input {dir}/thirds.json",
    "run rplq --samples 10 --input {dir}/g_frac.json",
    "run multiunit --q 2 --mechanism rplq --input {dir}/thirds.json",
]

CASES = [
    f"{argv} --format {fmt}" for argv in _PER_FORMAT for fmt in ("table", "json", "csv")
] + _ONCE


def _digest(text: str):
    if len(text) <= HASH_ABOVE:
        return text
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "chars": len(text)}


def run_case(case: str, directory: str) -> dict:
    """Run one case with its files in `directory`; the record, with the
    directory spelled "{dir}"."""
    argv = [arg.replace("{dir}", directory) for arg in shlex.split(case)]
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    record = {
        "code": code,
        "stdout": _digest(stdout.getvalue().replace(directory, "{dir}")),
        "stderr": _digest(stderr.getvalue().replace(directory, "{dir}")),
    }
    if "--output" in argv:
        written = Path(argv[argv.index("--output") + 1])
        record["written"] = _digest(written.read_text(encoding="utf-8"))
        written.unlink()
    return record


def write_inputs(directory: Path) -> None:
    for name, text in _inputs().items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def records():
    return json.loads(RECORDS.read_text(encoding="utf-8"))


def test_every_case_is_recorded(records):
    assert sorted(records) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_byte_identical(case, golden_dir, records):
    assert run_case(case, str(golden_dir)) == records[case]


def record_all() -> dict:
    with tempfile.TemporaryDirectory() as name:
        write_inputs(Path(name))
        return {case: run_case(case, name) for case in CASES}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    # one record per line keeps the file small and its diffs readable
    lines = [
        f"{json.dumps(case)}: {json.dumps(record, sort_keys=True)}"
        for case, record in sorted(record_all().items())
    ]
    RECORDS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
