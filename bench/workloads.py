"""The three workloads: which markets each one generates, which CLI calls
make up one market's session, and how each call's output is checked.

A round generates one market per shape of its make-up; a run repeats whole
rounds, cycling through the workload's make-ups, so every run attempts the
same operations in the same proportions.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass(frozen=True)
class Shape:
    """One kind of market: size, quota style of `generate_market`, and
    whether the benchmark drops the lower quotas ("capped" markets, with
    upper quotas only)."""

    label: str
    n: int
    k: int
    quota_style: str
    drop_lower: bool = False


@dataclass
class Call:
    """One CLI call of a session and the check of its output."""

    label: str
    argv: list
    output: str
    check: Callable  # (market spec, exit code, output document, session docs) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: tuple  # make-ups: tuples of Shapes, used in turn
    warmup: Shape
    session: Callable  # (market path, out dir, market seed, market) -> [Call]
    multiunit: bool = False


def market_seed(*parts) -> int:
    """A generator seed derived from the run's seed and the market's place."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def write_market(path: str, shape: Shape, seed: int) -> dict:
    """Generate a market, as `quotassign gen` would, and write its file."""
    from quotassign.marketio import GeneratorConfig, generate_market, market_to_json

    cfg = GeneratorConfig(n=shape.n, k=shape.k, seed=seed, quota_style=shape.quota_style)
    doc = market_to_json(generate_market(cfg))
    if shape.drop_lower:
        for entry in doc["projects"]:
            entry["lower"] = "0"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
    return doc


# output checks; each returns a list of problems


def _exit_ok(code) -> list:
    return [] if code == 0 else [f"exit code {code}"]


def _matrix(doc):
    return oracles.read_matrix(doc["assignment"])


def check_pslq(market, code, doc, docs):
    problems = _exit_ok(code)
    if problems:
        return problems
    matrix = _matrix(doc)
    problems = oracles.feasibility(matrix, market)
    if "trace" in doc:
        problems += oracles.replay_trace(matrix, doc["trace"], market)
    if all(lo == 0 for lo in market.lower) and matrix != oracles.classical_eating(market):
        problems.append("differs from classical simultaneous eating")
    return problems


def check_sampled(samples):
    def check(market, code, doc, docs):
        problems = _exit_ok(code)
        if problems:
            return problems
        if doc.get("samples") != samples:
            return [f"reports {doc.get('samples')} samples, not {samples}"]
        matrix = _matrix(doc)
        return oracles.feasibility(matrix, market) + oracles.sampled_rplq(matrix, samples)

    return check


def check_exact(market, code, doc, docs):
    problems = _exit_ok(code)
    if problems:
        return problems
    matrix = _matrix(doc)
    problems = oracles.feasibility(matrix, market)
    if matrix != oracles.brute_force_rplq(market):
        problems.append("differs from the average over all n! priority orders")
    return problems


def check_axioms(market, code, doc, docs):
    failing = [name for name, entry in doc["axioms"].items() if not entry["holds"]]
    if code != 0 or failing or not doc["all_hold"]:
        return [f"exit code {code}; PSLQ output fails {failing}"]
    return []


def check_lottery(market, code, doc, docs):
    problems = _exit_ok(code)
    if problems:
        return problems
    return oracles.lottery(doc, _matrix(docs["pslq"]), market)


def check_wsp(market, code, doc, docs):
    if code != 0 or doc["holds"] is not True:
        return [f"exit code {code}; counterexample {doc['counterexample']}"]
    return []


def check_manipulate(market, code, doc, docs):
    if code != 0 or doc["relation"] == "strict-sd-gain":
        return [f"exit code {code}; relation {doc['relation']}"]
    return []


def check_multiunit(q):
    def check(market, code, doc, docs):
        if code != 0:
            return [f"exit code {code}"]
        matrix = _matrix(doc)
        return oracles.feasibility(matrix, market, row_total=q) + oracles.first_choices(
            matrix, market, q
        )

    return check


# sessions


def _call(out_dir: str, label: str, check, *argv) -> Call:
    """A call whose output goes to <out_dir>/<label>.json."""
    output = os.path.join(out_dir, f"{label}.json")
    return Call(label, [*argv, "--output", output], output, check)


CAMPUS_SAMPLES = 10
COHORT_SAMPLES = 100


def campus_session(path, out_dir, seed, market):
    pslq = _call(out_dir, "pslq", check_pslq,
                 "run", "pslq", "--input", path, "--trace", "--format", "json")
    return [
        pslq,
        _call(out_dir, "rplq", check_sampled(CAMPUS_SAMPLES),
              "run", "rplq", "--input", path, "--samples", str(CAMPUS_SAMPLES),
              "--seed", str(seed), "--format", "json"),
        _call(out_dir, "check", check_axioms,
              "check", "--input", path, "--assignment", pslq.output, "--axioms", "feasible,oe"),
    ]


def cohort_session(path, out_dir, seed, market):
    pslq = _call(out_dir, "pslq", check_pslq, "run", "pslq", "--input", path, "--format", "json")
    return [
        pslq,
        _call(out_dir, "check", check_axioms,
              "check", "--input", path, "--assignment", pslq.output),
        _call(out_dir, "decompose", check_lottery,
              "decompose", "--input", path, "--assignment", pslq.output, "--verify"),
        _call(out_dir, "rplq", check_sampled(COHORT_SAMPLES),
              "run", "rplq", "--input", path, "--samples", str(COHORT_SAMPLES),
              "--seed", str(seed), "--format", "json"),
    ]


def strategy_session(path, out_dir, seed, market):
    student = 1 + seed % market.n
    return [
        _call(out_dir, "rplq", check_exact, "run", "rplq", "--input", path, "--format", "json"),
        _call(out_dir, "wsp", check_wsp, "verify-wsp", "--input", path),
        _call(out_dir, "wsp-strong", check_wsp,
              "verify-wsp", "--input", path, "--mechanism", "rplq-exact", "--strong"),
        _call(out_dir, "manipulate", check_manipulate,
              "manipulate", "--input", path, "--student", str(student)),
    ]


#: uncapped markets with no lower quotas, where `run multiunit` must give
#: every student q units of their first choice; they do not depend on the
#: seed. The first is too small for the cap of n = 2 that `Market` stores
#: for "no cap" (q*n = 6 > 2 + 2); in the second all three students want a,
#: which the stored cap of 3 cuts to 3 of the 6 units wanted.
MULTIUNIT_MARKETS = {
    "two": {
        "projects": [{"name": "a", "lower": 0, "upper": None},
                     {"name": "b", "lower": 0, "upper": None}],
        "preferences": [["a", "b"], ["b", "a"]],
    },
    "three": {
        "projects": [{"name": name, "lower": 0, "upper": None} for name in "abc"],
        "preferences": [["a", "b", "c"], ["a", "c", "b"], ["a", "b", "c"]],
    },
}
MULTIUNIT_CALLS = (("two", 3, "pslq"), ("two", 3, "rplq"), ("three", 2, "pslq"), ("three", 2, "rplq"))


def multiunit_calls(out_dir: str) -> list:
    """The multi-unit calls of one strategy-lab round, with their markets."""
    calls = []
    for name, q, mechanism in MULTIUNIT_CALLS:
        path = os.path.join(out_dir, f"multiunit-{name}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(MULTIUNIT_MARKETS[name], handle)
        call = _call(out_dir, f"multiunit-{name}-{q}-{mechanism}", check_multiunit(q),
                     "run", "multiunit", "--q", str(q), "--mechanism", mechanism,
                     "--input", path, "--format", "json")
        calls.append((oracles.read_market(MULTIUNIT_MARKETS[name]), call))
    return calls


LOOSE = Shape("loose", 600, 30, "integer-loose")
TIGHT = Shape("tight", 300, 24, "integer-tight")
COHORT_TIGHT = Shape("tight", 60, 8, "integer-tight")
COHORT_LOOSE = Shape("loose", 60, 8, "integer-loose")
COHORT_CAPPED = Shape("capped", 60, 8, "integer-loose", drop_lower=True)

WORKLOADS = {
    "campus": Workload(
        name="campus",
        rounds=((LOOSE, TIGHT),),
        warmup=Shape("warmup", 60, 8, "integer-tight"),
        session=campus_session,
    ),
    # two tight markets in three keep the median session inside one
    # cluster; loose and capped markets are cheaper and vary more
    "cohort": Workload(
        name="cohort",
        rounds=((COHORT_TIGHT, COHORT_TIGHT, COHORT_LOOSE), (COHORT_TIGHT, COHORT_TIGHT, COHORT_CAPPED)),
        warmup=Shape("warmup", 20, 5, "integer-tight"),
        session=cohort_session,
    ),
    "strategy-lab": Workload(
        name="strategy-lab",
        rounds=((Shape("tight", 5, 4, "integer-tight"),),),
        warmup=Shape("warmup", 4, 4, "integer-tight"),
        session=strategy_session,
        multiunit=True,
    ),
}
