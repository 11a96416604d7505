"""Command-line entry point.

Subcommands: run {priolq|rplq|pslq|multiunit}, check, decompose, manipulate,
verify-wsp, impossibility, gen. Students and priority orders are 1-based on
the command line; exit codes are 0 (success, axioms hold), 1 (an axiom
violation or strict manipulation was found), 2 (input error).
"""

from __future__ import annotations

import argparse
import json
import sys

from .axioms import (
    is_envy_free,
    is_ml_fair,
    is_mqc_efficient,
    is_ordinally_efficient,
    is_weakly_envy_free,
)
from .decompose import decompose
from .eating import run_pslq, run_pslq_traced
from .marketio import (
    GeneratorConfig,
    PREFERENCE_STYLES,
    QUOTA_STYLES,
    RENDER_FORMATS,
    assignment_to_json,
    generate_market,
    lottery_to_json,
    market_to_json,
    parse_assignment,
    parse_market,
    render,
    serialize_market,
    trace_to_json,
)
from .model import (
    MarketError,
    as_rational,
    feasibility_violations,
    format_rational,
    is_integral,
)
from .priority import (
    clone_market,
    run_priolq,
    run_rplq_exact,
    run_rplq_sampled,
)
from .strategy import (
    MECHANISMS,
    STRICT_GAIN,
    impossibility_scenario,
    search_manipulation,
    verify_weak_sp,
)

DEFAULT_AXIOMS = "feasible,ef,wef,oe"


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, args) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _market(args):
    return parse_market(_read(args.input))


def _parse_order(text: str, n: int, what: str) -> tuple:
    try:
        values = [int(chunk) for chunk in text.split(",")]
    except ValueError:
        raise MarketError(f"{what} must be comma-separated integers") from None
    order = tuple(v - 1 for v in values)
    if sorted(order) != list(range(n)):
        raise MarketError(f"{what} must be a permutation of 1..{n}")
    return order


def _rows(matrix) -> list:
    return assignment_to_json(matrix)["assignment"]


def _names(market, projects):
    return None if projects is None else [market.projects[p] for p in projects]


def _improvement_json(witness, market) -> dict:
    return {
        "kind": witness.kind,
        "projects": _names(market, witness.projects),
        "students": [i + 1 for i in witness.students],
        "delta": format_rational(witness.delta),
        "improved": _rows(witness.improved),
    }


def _manipulation_json(report, market) -> dict:
    return {
        "student": report.student + 1,
        "relation": report.relation,
        "truthful_row": _rows([report.truthful_row])[0],
        "misreport": _names(market, report.misreport),
        "misreport_row": None
        if report.misreport_row is None
        else _rows([report.misreport_row])[0],
    }


def _pair(key: str):
    return lambda pair, market: {"student": pair[0] + 1, key: pair[1] + 1}


# name -> (checker, witness encoder, needs a 0/1 assignment). A checker takes
# (matrix, market, master list) and looks its axiom up in this module when
# called, so rebinding the names here (as bench/tracing.py does) reaches it.
AXIOMS = {
    "ef": (lambda R, m, master: is_envy_free(R, m.prefs), _pair("envies"), False),
    "wef": (lambda R, m, master: is_weakly_envy_free(R, m.prefs), _pair("envies"), False),
    "oe": (lambda R, m, master: is_ordinally_efficient(R, m), _improvement_json, False),
    "ml": (
        lambda R, m, master: is_ml_fair(R, m.prefs, master), _pair("prefers_assignment_of"), True
    ),
    "pareto": (
        lambda R, m, master: is_mqc_efficient(R, m), lambda mu, m: {"dominating": _rows(mu)}, True
    ),
}
CHECKABLE_AXIOMS = ("feasible", *AXIOMS)


def _rplq(market, args) -> tuple:
    """Exact RPLQ unless --samples is given: the matrix and its metadata."""
    if args.samples is not None:
        result = run_rplq_sampled(market, args.samples, args.seed)
        return result.assignment, {
            "mode": result.mode,
            "samples": result.samples,
            "seed": result.seed,
        }
    result = run_rplq_exact(market)
    return result.assignment, {"mode": result.mode}


def cmd_run(args) -> int:
    market = _market(args)
    trace = None
    meta = {"mechanism": args.mechanism}
    if args.mechanism == "priolq":
        if args.order:
            order = _parse_order(args.order, market.n, "--order")
        else:
            order = tuple(range(market.n))
        matrix = run_priolq(market, order)
        meta["order"] = [i + 1 for i in order]
    elif args.mechanism == "rplq":
        matrix, details = _rplq(market, args)
        meta |= details
    elif args.mechanism == "pslq":
        if args.trace:
            matrix, trace = run_pslq_traced(market)
        else:
            matrix = run_pslq(market)
    else:  # multiunit
        if args.q < 1:
            raise MarketError("--q must be at least 1")
        cloned, aggregate = clone_market(market, args.q)
        if args.inner_mechanism == "pslq":
            matrix = aggregate(run_pslq(cloned))
        else:
            matrix = aggregate(_rplq(cloned, args)[0])
        meta |= {"q": args.q, "inner": args.inner_mechanism}

    if args.format == "json":
        doc = meta | assignment_to_json(matrix)
        if trace is not None:
            doc["trace"] = trace_to_json(trace, market)
        _emit(json.dumps(doc, indent=2), args)
        return 0
    text = render(matrix, market, args.format)
    if trace is not None and args.format == "table":
        doc = trace_to_json(trace, market)
        lines = [text, "", f"critical time: {doc['critical_time'] or 'none'}"]
        for phase in doc["phases"]:
            active, closed = ",".join(phase["active"]), ",".join(phase["closed"])
            eating = " ".join(f"{i + 1}:{name}" for i, name in enumerate(phase["pattern"]))
            lines.append(
                f"[{phase['start']}, {phase['end']}] {phase['event']}"
                f" active={{{active}}} closed={{{closed}}} eating {eating}"
            )
        text = "\n".join(lines)
    _emit(text, args)
    return 0


def cmd_check(args) -> int:
    market = _market(args)
    matrix = parse_assignment(_read(args.assignment), market)
    requested = [name.strip() for name in args.axioms.split(",") if name.strip()]
    for name in requested:
        if name not in CHECKABLE_AXIOMS:
            raise MarketError(
                f"unknown axiom {name!r}; choose from {', '.join(CHECKABLE_AXIOMS)}"
            )
    if not requested:
        raise MarketError("no axioms requested")
    violations = feasibility_violations(matrix, market)
    needs_integral = [name for name in requested if name in AXIOMS and AXIOMS[name][2]]
    if needs_integral and not is_integral(matrix):
        raise MarketError(
            f"axiom {needs_integral[0]} needs a deterministic (0/1) assignment"
        )
    if args.master_list:
        master = list(_parse_order(args.master_list, market.n, "--master-list"))
    else:
        master = list(range(market.n))

    report = {"axioms": {}}
    for name in requested:
        if name == "feasible":
            entry = {"holds": not violations}
            if violations:
                entry["witness"] = violations
        elif violations:
            # dependent axioms are undefined off the feasible polytope
            entry = {"holds": False, "skipped": "assignment is infeasible"}
        else:
            check, encode, _ = AXIOMS[name]
            holds, witness = check(matrix, market, master)
            entry = {"holds": holds}
            if not holds:
                entry["witness"] = encode(witness, market)
        report["axioms"][name] = entry
    report["all_hold"] = all(entry["holds"] for entry in report["axioms"].values())
    _emit(json.dumps(report, indent=2), args)
    return 0 if report["all_hold"] else 1


def cmd_decompose(args) -> int:
    market = _market(args)
    matrix = parse_assignment(_read(args.assignment), market)
    lottery = decompose(matrix, market)
    doc = lottery_to_json(lottery)
    code = 0
    if args.verify:
        reconstructed = lottery.expectation()
        differences = [
            {
                "student": i + 1,
                "project": market.projects[p],
                "expected": format_rational(matrix[i][p]),
                "actual": format_rational(reconstructed[i][p]),
            }
            for i in range(market.n)
            for p in range(market.k)
            if reconstructed[i][p] != matrix[i][p]
        ]
        doc["verified"] = not differences
        if differences:
            doc["differences"] = differences
            code = 1
    _emit(json.dumps(doc, indent=2), args)
    return code


def cmd_manipulate(args) -> int:
    market = _market(args)
    if not 1 <= args.student <= market.n:
        raise MarketError(f"--student must be in 1..{market.n}")
    report = search_manipulation(args.mechanism, market, args.student - 1)
    _emit(json.dumps(_manipulation_json(report, market), indent=2), args)
    return 1 if report.relation == STRICT_GAIN else 0


def cmd_verify_wsp(args) -> int:
    market = _market(args)
    holds, witness = verify_weak_sp(args.mechanism, market, strong=args.strong)
    doc = {
        "mechanism": args.mechanism,
        "strong": args.strong,
        "holds": holds,
        "counterexample": None if holds else _manipulation_json(witness, market),
    }
    _emit(json.dumps(doc, indent=2), args)
    return 0 if holds else 1


def cmd_impossibility(args) -> int:
    report = impossibility_scenario()
    if args.format == "json":
        doc = {
            "market": market_to_json(report.market),
            "family_parameters": [format_rational(t) for t in report.family_parameters],
            "first_misreport": _names(report.market, report.first_misreport),
            "unique_after_first": _rows(report.unique_after_first),
            "second_misreport": _names(report.market, report.second_misreport),
            "unique_after_second": _rows(report.unique_after_second),
            "parameter_forced_by_first": format_rational(
                report.parameter_forced_by_first
            ),
            "parameter_forced_by_second": format_rational(
                report.parameter_forced_by_second
            ),
            "contradiction": report.contradiction,
            "certificate": report.lines(),
        }
        _emit(json.dumps(doc, indent=2), args)
    else:
        _emit("\n".join(report.lines()), args)
    return 0


def cmd_gen(args) -> int:
    weights = None
    if args.weights:
        weights = tuple(as_rational(chunk) for chunk in args.weights.split(","))
    cfg = GeneratorConfig(
        n=args.n,
        k=args.k,
        seed=args.seed,
        quota_style=args.quota_style,
        denominator=args.denominator,
        pref_style=args.pref_style,
        weights=weights,
    )
    _emit(serialize_market(generate_market(cfg)), args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotassign",
        description="random assignment mechanisms under lower and upper quotas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, market=True):
        cmd = sub.add_parser(name, help=help)
        if market:
            cmd.add_argument(
                "--input", required=True, help="market JSON file, or '-' for stdin"
            )
        cmd.add_argument("--output", help="write the result here instead of stdout")
        cmd.set_defaults(handler=handler)
        return cmd

    run = command("run", cmd_run, "run a mechanism")
    run.add_argument("mechanism", choices=("priolq", "rplq", "pslq", "multiunit"))
    run.add_argument(
        "--format", choices=RENDER_FORMATS, default="table", help="output format"
    )
    run.add_argument("--seed", type=int, default=0, help="rplq: seed of sampled orders")
    run.add_argument("--order", help="priolq: 1-based priority order, e.g. 3,4,1,2")
    run.add_argument(
        "--samples", type=int, help="rplq: Monte Carlo sample count (default: exact)"
    )
    run.add_argument("--trace", action="store_true", help="pslq: emit the eating trace")
    run.add_argument("--q", type=int, default=1, help="multiunit: units per student")
    run.add_argument(
        "--mechanism",
        dest="inner_mechanism",
        choices=("pslq", "rplq"),
        default="pslq",
        help="multiunit: underlying mechanism",
    )

    check = command("check", cmd_check, "verify axioms")
    check.add_argument("--assignment", required=True, help="assignment JSON file")
    check.add_argument(
        "--axioms",
        default=DEFAULT_AXIOMS,
        help=f"comma-separated subset of {','.join(CHECKABLE_AXIOMS)}"
        f" (default {DEFAULT_AXIOMS})",
    )
    check.add_argument(
        "--master-list",
        help="ml: 1-based priority list, highest first (default 1,2,...)",
    )

    dec = command("decompose", cmd_decompose, "decompose into a lottery")
    dec.add_argument("--assignment", required=True, help="assignment JSON file")
    dec.add_argument(
        "--verify", action="store_true", help="re-multiply the lottery and diff"
    )

    man = command("manipulate", cmd_manipulate, "search misreports for one student")
    wsp = command("verify-wsp", cmd_verify_wsp, "verify weak strategy-proofness")
    for lab in (man, wsp):
        lab.add_argument("--mechanism", choices=tuple(MECHANISMS), default="pslq")
    man.add_argument("--student", type=int, required=True, help="1-based student")
    wsp.add_argument(
        "--strong",
        action="store_true",
        help="demand the truthful row weakly dominate every misreport row",
    )

    imp = command(
        "impossibility",
        cmd_impossibility,
        "print the built-in impossibility certificate",
        market=False,
    )
    imp.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )

    gen = command("gen", cmd_gen, "generate a random market", market=False)
    gen.add_argument("--seed", type=int, default=0, help="random seed")
    gen.add_argument("--n", type=int, required=True, help="number of students")
    gen.add_argument("--k", type=int, required=True, help="number of projects")
    gen.add_argument("--quota-style", choices=QUOTA_STYLES, default="none")
    gen.add_argument(
        "--denominator", type=int, default=4, help="fractional quotas: denominator cap"
    )
    gen.add_argument("--pref-style", choices=PREFERENCE_STYLES, default="uniform")
    gen.add_argument(
        "--weights", help="correlated preferences: comma-separated project weights"
    )

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # MarketError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
