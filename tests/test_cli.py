import argparse
import json
from fractions import Fraction

import pytest

from quotassign import cli
from quotassign.cli import _build_parser, main
from quotassign.decompose import decompose
from quotassign.eating import run_pslq_traced
from quotassign.marketio import (
    lottery_to_json,
    parse_market,
    serialize_assignment,
    serialize_market,
    trace_to_json,
)
from quotassign.model import InternalError, Market, as_rational
from quotassign.priority import run_priolq, run_rplq_sampled

from goldens import (
    PSLQ_FIVE,
    PSLQ_LOWER_QUOTAS,
    RPLQ_LOWER_QUOTAS,
    market_five,
    market_lower_quotas,
    market_no_quotas,
    market_thirds,
)


def market_file(tmp_path, market, name="market.json"):
    path = tmp_path / name
    path.write_text(serialize_market(market))
    return str(path)


def assignment_file(tmp_path, matrix, name="assignment.json"):
    path = tmp_path / name
    path.write_text(serialize_assignment(matrix))
    return str(path)


def run_json(capsys, argv):
    """Run argv and parse its stdout; only run and impossibility take
    --format, the other commands always print JSON."""
    if argv[0] in ("run", "impossibility"):
        argv = argv + ["--format", "json"]
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def rows(matrix):
    return [[str(v) for v in row] for row in matrix]


def test_run_pslq_table(tmp_path, capsys):
    code = main(["run", "pslq", "--input", market_file(tmp_path, market_five())])
    out = capsys.readouterr().out
    assert code == 0
    assert "student 5" in out and "3/4" in out


def test_run_pslq_json_with_trace(tmp_path, capsys):
    market = market_five()
    code, doc = run_json(
        capsys, ["run", "pslq", "--trace", "--input", market_file(tmp_path, market)]
    )
    assert code == 0
    assert doc["mechanism"] == "pslq"
    assert doc["assignment"] == rows(PSLQ_FIVE)
    assert doc["trace"]["critical_time"] == "3/4"
    _, trace = run_pslq_traced(market)
    assert doc["trace"] == trace_to_json(trace, market)


def test_run_pslq_trace_table(tmp_path, capsys):
    code = main(
        ["run", "pslq", "--trace", "--input", market_file(tmp_path, market_five())]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "critical time: 3/4" in out
    assert "critical-shift" in out
    assert "eating 1:a" in out


def test_run_priolq_with_order(tmp_path, capsys):
    market = market_lower_quotas()
    code, doc = run_json(
        capsys,
        [
            "run",
            "priolq",
            "--order",
            "3,4,1,2",
            "--input",
            market_file(tmp_path, market),
        ],
    )
    assert code == 0
    assert doc["order"] == [3, 4, 1, 2]
    assert doc["assignment"] == rows(run_priolq(market, (2, 3, 0, 1)))


def test_run_rplq_exact(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        ["run", "rplq", "--input", market_file(tmp_path, market_lower_quotas())],
    )
    assert code == 0
    assert doc["mode"] == "exact"
    assert doc["assignment"] == rows(RPLQ_LOWER_QUOTAS)


def test_run_rplq_sampled_is_reproducible(tmp_path, capsys):
    market = market_lower_quotas()
    argv = [
        "run",
        "rplq",
        "--samples",
        "200",
        "--seed",
        "7",
        "--input",
        market_file(tmp_path, market),
    ]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["mode"] == "monte-carlo"
    assert doc["samples"] == 200 and doc["seed"] == 7
    expected = run_rplq_sampled(market, 200, 7).assignment
    assert doc["assignment"] == rows(expected)


def test_run_multiunit_row_sums(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        [
            "run",
            "multiunit",
            "--q",
            "2",
            "--input",
            market_file(tmp_path, market_no_quotas()),
        ],
    )
    assert code == 0
    assert doc["q"] == 2 and doc["inner"] == "pslq"
    for row in doc["assignment"]:
        assert sum(as_rational(v) for v in row) == 2


def test_check_passes(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        [
            "check",
            "--input",
            market_file(tmp_path, market_five()),
            "--assignment",
            assignment_file(tmp_path, PSLQ_FIVE),
        ],
    )
    assert code == 0
    assert doc["all_hold"] is True
    assert set(doc["axioms"]) == {"feasible", "ef", "wef", "oe"}


def test_check_reports_envy(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        [
            "check",
            "--axioms",
            "ef",
            "--input",
            market_file(tmp_path, market_lower_quotas()),
            "--assignment",
            assignment_file(tmp_path, RPLQ_LOWER_QUOTAS),
        ],
    )
    assert code == 1
    assert doc["axioms"]["ef"]["witness"] == {"student": 1, "envies": 3}


def test_check_skips_dependents_when_infeasible(tmp_path, capsys):
    stacked = tuple((Fraction(1), Fraction(0), Fraction(0)) for _ in range(4))
    code, doc = run_json(
        capsys,
        [
            "check",
            "--axioms",
            "feasible,oe",
            "--input",
            market_file(tmp_path, market_lower_quotas()),
            "--assignment",
            assignment_file(tmp_path, stacked),
        ],
    )
    assert code == 1
    assert doc["axioms"]["feasible"]["holds"] is False
    assert doc["axioms"]["feasible"]["witness"]
    assert doc["axioms"]["oe"] == {
        "holds": False,
        "skipped": "assignment is infeasible",
    }


def test_check_integral_axioms(tmp_path, capsys):
    market = market_lower_quotas()
    matrix = run_priolq(market, tuple(range(market.n)))
    code, doc = run_json(
        capsys,
        [
            "check",
            "--axioms",
            "ml,pareto",
            "--input",
            market_file(tmp_path, market),
            "--assignment",
            assignment_file(tmp_path, matrix),
        ],
    )
    assert code == 0
    assert doc["all_hold"] is True


def test_check_ml_needs_integral_assignment(tmp_path, capsys):
    code = main(
        [
            "check",
            "--axioms",
            "ml",
            "--input",
            market_file(tmp_path, market_lower_quotas()),
            "--assignment",
            assignment_file(tmp_path, PSLQ_LOWER_QUOTAS),
        ]
    )
    assert code == 2
    assert "deterministic" in capsys.readouterr().err


def test_check_unknown_axiom(tmp_path, capsys):
    code = main(
        [
            "check",
            "--axioms",
            "karma",
            "--input",
            market_file(tmp_path, market_five()),
            "--assignment",
            assignment_file(tmp_path, PSLQ_FIVE),
        ]
    )
    assert code == 2
    assert "unknown axiom" in capsys.readouterr().err


def test_decompose_verify(tmp_path, capsys):
    market = market_five()
    code, doc = run_json(
        capsys,
        [
            "decompose",
            "--verify",
            "--input",
            market_file(tmp_path, market),
            "--assignment",
            assignment_file(tmp_path, PSLQ_FIVE),
        ],
    )
    assert code == 0
    assert doc["verified"] is True
    lottery = decompose(PSLQ_FIVE, market)
    assert doc["terms"] == lottery_to_json(lottery)["terms"]
    assert lottery.expectation() == PSLQ_FIVE


def test_manipulate_finds_strict_gain(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        [
            "manipulate",
            "--student",
            "1",
            "--input",
            market_file(tmp_path, market_thirds()),
        ],
    )
    assert code == 1
    assert doc["relation"] == "strict-sd-gain"
    assert doc["misreport"] == ["b", "a", "c"]
    assert doc["truthful_row"] == ["2/3", "0", "1/3"]
    assert doc["misreport_row"] == ["2/3", "1/3", "0"]


def test_manipulate_reports_incomparable_change(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        [
            "manipulate",
            "--student",
            "3",
            "--input",
            market_file(tmp_path, market_lower_quotas()),
        ],
    )
    assert code == 0
    assert doc["relation"] == "incomparable-change"


def test_verify_wsp(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        ["verify-wsp", "--input", market_file(tmp_path, market_thirds())],
    )
    assert code == 1
    assert doc["holds"] is False
    assert doc["counterexample"]["student"] == 1

    code, doc = run_json(
        capsys,
        ["verify-wsp", "--input", market_file(tmp_path, market_lower_quotas())],
    )
    assert code == 0
    assert doc["holds"] is True and doc["counterexample"] is None


def test_impossibility_json(capsys):
    code, doc = run_json(capsys, ["impossibility"])
    assert code == 0
    assert doc["contradiction"] is True
    assert doc["family_parameters"] == ["0", "1/12", "1/6", "1/4", "1/3"]
    assert doc["first_misreport"] == ["b", "a", "c"]
    assert doc["unique_after_first"] == [["2/3", "1/3", "0"], ["0", "1/3", "2/3"]]
    assert doc["second_misreport"] == ["b", "a", "c"]
    assert doc["unique_after_second"] == [["2/3", "0", "1/3"], ["0", "2/3", "1/3"]]
    assert doc["parameter_forced_by_first"] == "1/3"
    assert doc["parameter_forced_by_second"] == "0"
    assert any("certificate" in key for key in doc)


def test_impossibility_text(capsys):
    assert main(["impossibility"]) == 0
    out = capsys.readouterr().out
    assert "no mechanism" in out


def test_gen_is_deterministic(tmp_path, capsys):
    argv = ["gen", "--n", "4", "--k", "3", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    market = parse_market(first)
    assert market.n == 4 and market.k == 3


def test_gen_writes_output_file(tmp_path, capsys):
    out = tmp_path / "generated.json"
    code = main(
        [
            "gen",
            "--n",
            "3",
            "--k",
            "2",
            "--seed",
            "1",
            "--quota-style",
            "fractional",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    market = parse_market(out.read_text())
    assert sum(market.lower) <= market.n


def test_gen_rejects_zero_students(capsys):
    assert main(["gen", "--n", "0", "--k", "2"]) == 2
    assert "n >= 1" in capsys.readouterr().err


def test_run_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "pslq"])
    assert exc.value.code == 2
    assert "required: --input" in capsys.readouterr().err


def test_missing_market_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "pslq", "--input", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_market_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "pslq", "--input", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_bad_priority_order(tmp_path, capsys):
    code = main(
        [
            "run",
            "priolq",
            "--order",
            "1,1,2,2",
            "--input",
            market_file(tmp_path, market_lower_quotas()),
        ]
    )
    assert code == 2
    assert "permutation" in capsys.readouterr().err


@pytest.mark.parametrize("mechanism", [["rplq"], ["multiunit", "--mechanism", "rplq"]])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_rplq_rejects_fewer_than_one_sample(tmp_path, capsys, mechanism, samples):
    argv = ["run", *mechanism, "--samples", samples, "--input", market_file(tmp_path, market_five())]
    assert main(argv) == 2
    assert "samples must be at least 1" in capsys.readouterr().err


def test_student_out_of_range(tmp_path, capsys):
    code = main(
        [
            "manipulate",
            "--student",
            "9",
            "--input",
            market_file(tmp_path, market_thirds()),
        ]
    )
    assert code == 2
    assert "1..2" in capsys.readouterr().err


def test_run_output_file(tmp_path, capsys):
    out = tmp_path / "result.txt"
    code = main(
        [
            "run",
            "pslq",
            "--input",
            market_file(tmp_path, market_five()),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert "3/4" in out.read_text()


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


UNCAPPED_TWO = Market(["a", "b"], [0, 0], [None, None], [["a", "b"], ["b", "a"]])
UNCAPPED_THREE = Market(
    ["a", "b", "c"],
    [0, 0, 0],
    [None, None, None],
    [["a", "b", "c"], ["a", "c", "b"], ["a", "b", "c"]],
)


@pytest.mark.parametrize("mechanism", ["pslq", "rplq"])
def test_multiunit_uncapped_projects_host_every_clone(tmp_path, capsys, mechanism):
    # uncapped means no cap: 2 students x 3 units fit on 2 uncapped projects
    code, doc = run_json(
        capsys,
        ["run", "multiunit", "--q", "3", "--mechanism", mechanism,
         "--input", market_file(tmp_path, UNCAPPED_TWO)],
    )
    assert code == 0
    assert doc["assignment"] == [["3", "0"], ["0", "3"]]


@pytest.mark.parametrize("mechanism", ["pslq", "rplq"])
def test_multiunit_uncapped_first_choice_takes_all_units(tmp_path, capsys, mechanism):
    code, doc = run_json(
        capsys,
        ["run", "multiunit", "--q", "2", "--mechanism", mechanism,
         "--input", market_file(tmp_path, UNCAPPED_THREE)],
    )
    assert code == 0
    assert doc["assignment"] == [["2", "0", "0"]] * 3


def test_check_calls_the_axiom_bound_in_the_cli_module(tmp_path, capsys, monkeypatch):
    # the axiom table must look its checkers up when called, so that a
    # rebinding of quotassign.cli's names (the traced benchmark's) is used
    import quotassign.cli as cli

    seen = []
    monkeypatch.setattr(cli, "is_envy_free", lambda R, prefs: seen.append("ef") or (True, None))
    monkeypatch.setattr(
        cli, "is_ordinally_efficient", lambda R, market: seen.append("oe") or (True, None)
    )
    code, doc = run_json(
        capsys,
        [
            "check",
            "--axioms",
            "oe,ef",
            "--input",
            market_file(tmp_path, market_lower_quotas()),
            "--assignment",
            assignment_file(tmp_path, RPLQ_LOWER_QUOTAS),
        ],
    )
    assert code == 0 and doc["all_hold"] is True
    assert seen == ["oe", "ef"]


def _subparsers():
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class _ReadLog(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.fixture
def cli_files(tmp_path):
    market = market_lower_quotas()
    return {
        "market": market_file(tmp_path, market),
        "assignment": assignment_file(tmp_path, run_priolq(market, (0, 1, 2, 3))),
        "out": str(tmp_path / "out.txt"),
    }


#: per subcommand, argvs whose handlers together read every declared option
READ_EVERY_OPTION = {
    "run": [
        ["run", "priolq", "--order", "4,3,2,1"],
        ["run", "rplq", "--samples", "5", "--seed", "3", "--format", "csv"],
        ["run", "pslq", "--trace", "--format", "json"],
        ["run", "multiunit", "--q", "2", "--mechanism", "rplq"],
    ],
    "check": [["check", "--assignment", "{assignment}", "--axioms", "ml", "--master-list", "4,3,2,1"]],
    "decompose": [["decompose", "--assignment", "{assignment}", "--verify"]],
    "manipulate": [["manipulate", "--student", "2", "--mechanism", "rplq-exact"]],
    "verify-wsp": [["verify-wsp", "--strong"]],
    "impossibility": [["impossibility", "--format", "json"]],
    "gen": [
        ["gen", "--n", "3", "--k", "2", "--seed", "4", "--quota-style", "fractional",
         "--denominator", "3", "--pref-style", "correlated", "--weights", "2,1"],
    ],
}


def test_every_subcommand_is_exercised():
    assert sorted(READ_EVERY_OPTION) == sorted(_subparsers())


@pytest.mark.parametrize("command", sorted(READ_EVERY_OPTION))
def test_every_option_is_read(command, cli_files, capsys):
    declared = {a.dest for a in _subparsers()[command]._actions if a.dest != "help"}
    reads = set()
    for argv in READ_EVERY_OPTION[command]:
        argv = [arg.format(**cli_files) for arg in argv] + ["--output", cli_files["out"]]
        if "input" in declared:
            argv += ["--input", cli_files["market"]]
        args = _build_parser().parse_args(argv, namespace=_ReadLog(_reads=set()))
        args._reads.clear()  # parsing reads defaults back; count the handler only
        assert args.handler(args) in (0, 1)
        reads |= args._reads
    assert declared - reads == set()


def _removed_option_cases():
    base = {
        "check": ["check", "--input", "{market}", "--assignment", "{assignment}"],
        "decompose": ["decompose", "--input", "{market}", "--assignment", "{assignment}"],
        "manipulate": ["manipulate", "--input", "{market}", "--student", "1"],
        "verify-wsp": ["verify-wsp", "--input", "{market}"],
        "impossibility": ["impossibility"],
        "gen": ["gen", "--n", "3", "--k", "2"],
    }
    removed = {
        "check": (["--format", "json"], ["--seed", "9"]),
        "decompose": (["--format", "json"], ["--seed", "9"]),
        "manipulate": (["--format", "json"], ["--seed", "9"]),
        "verify-wsp": (["--format", "json"], ["--seed", "9"]),
        "impossibility": (["--input", "{market}"], ["--seed", "9"], ["--format", "csv"]),
        "gen": (["--input", "{market}"], ["--format", "json"]),
    }
    return [
        pytest.param(base[command], extra, id=" ".join([command, *extra]))
        for command, extras in removed.items()
        for extra in extras
    ]


@pytest.mark.parametrize("base, extra", _removed_option_cases())
def test_removed_option_exits_2(base, extra, cli_files, capsys):
    base = [arg.format(**cli_files) for arg in base]
    _build_parser().parse_args(base)
    with pytest.raises(SystemExit) as exc:
        main(base + [arg.format(**cli_files) for arg in extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the subcommand reports it, with a usage line of its own options
    assert captured.err.startswith(f"usage: quotassign {base[0]} ")


def _deep_json_cases():
    market = ["--input", "{deep}"]
    return [
        ["run", "pslq", *market],
        ["run", "rplq", *market],
        ["check", *market, "--assignment", "{assignment}"],
        ["decompose", *market, "--assignment", "{assignment}"],
        ["manipulate", *market, "--student", "1"],
        ["verify-wsp", *market],
        ["check", "--input", "{market}", "--assignment", "{deep}"],
        ["decompose", "--input", "{market}", "--assignment", "{deep}"],
    ]


@pytest.mark.parametrize("argv", _deep_json_cases(), ids=" ".join)
def test_deeply_nested_json_is_an_input_error(argv, cli_files, tmp_path, capsys):
    # 2,000 nested arrays overrun the JSON decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 2000 + "]" * 2000)
    assert main([arg.format(deep=deep, **cli_files) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_internal_error_exits_3_without_a_traceback(cli_files, monkeypatch, capsys):
    def broken(market):
        raise InternalError("empty PrioLQ menu")

    monkeypatch.setattr(cli, "run_pslq", broken)
    assert main(["run", "pslq", "--input", cli_files["market"]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: empty PrioLQ menu\n"
