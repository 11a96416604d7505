"""The benchmark's tracer (bench/tracing.py) still fits the package.

`tracing.install` rebinds names in quotassign's modules and raises
AttributeError when one of them is gone, which ends a traced benchmark run
with a nonzero exit. This test installs it, runs the CLI calls it counts,
and checks that uninstalling restores every binding.
"""

import importlib
import json
import pathlib

from quotassign import cli, model, strategy
from quotassign.decompose import decompose
from quotassign.marketio import serialize_assignment, serialize_market

from goldens import PSLQ_FIVE, market_five

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_counts_cli_calls_and_uninstalls(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    market = market_five()
    market_path = tmp_path / "market.json"
    market_path.write_text(serialize_market(market))
    assignment_path = tmp_path / "assignment.json"
    assignment_path.write_text(serialize_assignment(PSLQ_FIVE))
    calls = [
        ["run", "pslq", "--trace", "--input", str(market_path), "--format", "json"],
        ["decompose", "--input", str(market_path), "--assignment", str(assignment_path)],
    ]
    bindings = (
        (cli, "run_pslq"),
        (cli, "parse_assignment"),
        (cli, "trace_to_json"),
        (cli, "lottery_to_json"),
        (cli, "json"),
        (model.Market, "__init__"),
    )
    originals = [getattr(owner, name) for owner, name in bindings]
    original_pslq = strategy.MECHANISMS["pslq"]

    untraced = []
    for argv in calls:
        assert cli.main(argv) == 0
        untraced.append(json.loads(capsys.readouterr().out))

    collector = tracing.Collector()
    uninstall = tracing.install(collector)
    try:
        traced_main = collector.timed("cli.self_s", cli.main)
        collector.active = True
        for argv, expected in zip(calls, untraced):
            assert traced_main(argv) == 0
            assert json.loads(capsys.readouterr().out) == expected
    finally:
        collector.active = False
        uninstall()

    assert collector.counts["eating.pslq_calls"] == 1
    assert collector.counts["eating.phases"] == len(untraced[0]["trace"]["phases"])
    assert collector.counts["decompose.peels"] == len(decompose(PSLQ_FIVE, market).terms)
    assert collector.self_s["eating.pslq_s"] > 0
    assert cli.run_pslq is originals[0]
    assert [getattr(owner, name) for owner, name in bindings] == originals
    assert strategy.MECHANISMS["pslq"] is original_pslq
