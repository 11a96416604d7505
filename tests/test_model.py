import importlib
import time
from fractions import Fraction

import pytest

from quotassign.model import (
    Market,
    MarketError,
    as_rational,
    column_sums,
    feasibility_violations,
    format_rational,
    is_feasible,
    is_integral,
    validate_permutation,
)

from goldens import (
    CHAIN_MATRIX,
    RPLQ_LOWER_QUOTAS,
    RPLQ_NO_QUOTAS,
    market_five,
    market_lower_quotas,
    mat,
)


def test_rational_round_trip():
    for q in [Fraction(0), Fraction(7), Fraction(-3), Fraction(1, 2), Fraction(22, 7)]:
        assert as_rational(format_rational(q)) == q
    assert format_rational(Fraction(5, 1)) == "5"
    assert format_rational(Fraction(7, 8)) == "7/8"


def test_as_rational_rejects_garbage():
    with pytest.raises(MarketError):
        as_rational("not-a-number")
    with pytest.raises(MarketError):
        as_rational("1/0")
    with pytest.raises(MarketError):
        as_rational(None)
    # an exponent would make Fraction build 10**100000000 first
    start = time.perf_counter()
    with pytest.raises(MarketError, match="not a rational number"):
        as_rational("1e100000000")
    assert time.perf_counter() - start < 0.5
    # bool is an int subclass, but a JSON true/false is no quota or entry
    for flag in (True, False):
        with pytest.raises(MarketError):
            as_rational(flag)


def test_unbounded_upper_becomes_n():
    m = market_lower_quotas()
    assert m.upper == (Fraction(4), Fraction(4), Fraction(4))
    assert m.lower == (Fraction(0), Fraction(2), Fraction(1))


def test_market_rejects_no_students():
    with pytest.raises(MarketError, match="no students"):
        Market(["a"], [0], [None], [])


def test_market_rejects_infeasible_quotas():
    # lower quotas exceed the student count
    with pytest.raises(MarketError, match="lower quotas sum"):
        Market(["a", "b"], [3, 0], [3, None], [["a", "b"], ["a", "b"]])
    # upper quotas cannot host everyone
    with pytest.raises(MarketError, match="upper quotas sum"):
        Market(["a", "b"], [0, 0], [1, 0], [["a", "b"], ["a", "b"]])
    with pytest.raises(MarketError, match="exceeds upper"):
        Market(["a"], [2], [1], [["a"]])


def test_market_rejects_bad_rankings():
    with pytest.raises(MarketError, match="unknown project"):
        Market(["a", "b"], [0, 0], [None, None], [["a", "z"]])
    with pytest.raises(MarketError, match="every project exactly once"):
        Market(["a", "b"], [0, 0], [None, None], [["a", "a"]])
    with pytest.raises(MarketError, match="every project exactly once"):
        Market(["a", "b"], [0, 0], [None, None], [["a"]])


def test_market_rejects_bools_as_project_indices():
    # True == 1 and False == 0, but a bool is not an index
    with pytest.raises(MarketError, match="student 1: unknown project True"):
        Market(["a", "b"], [0, 0], [None, None], [[True, False], [False, True]])
    with pytest.raises(MarketError, match="student 2: unknown project False"):
        Market(["a", "b"], [0, 0], [None, None], [[0, 1], [1, False]])


def test_market_rejects_unhashable_ranking_entries():
    with pytest.raises(MarketError, match=r"student 1: unknown project \['a'\]"):
        Market(["a", "b"], [0, 0], [None, None], [[["a"], "b"]])
    with pytest.raises(MarketError, match=r"student 2: unknown project \{'a': 0\}"):
        Market(["a", "b"], [0, 0], [None, None], [["a", "b"], [{"a": 0}, "b"]])


@pytest.mark.parametrize("ranking", [5, None, 1.5])
def test_market_rejects_a_ranking_that_is_not_iterable(ranking):
    with pytest.raises(MarketError, match=f"student 2: ranking must be a list, not {ranking}"):
        Market(["a", "b"], [0, 0], [None, None], [["a", "b"], ranking])


@pytest.mark.parametrize("ranking", ["ab", "ba", b"ab"])
def test_market_rejects_a_string_ranking(ranking):
    # letter by letter "ab" would read as ["a", "b"]
    with pytest.raises(MarketError, match="student 1: ranking must be a list, not"):
        Market(["a", "b"], [0, 0], [None, None], [ranking, ["a", "b"]])


@pytest.mark.parametrize(
    "field, args",
    [
        ("projects", ("ab", [0, 0], [None, None], [[0, 1]])),
        ("projects", (b"ab", [0, 0], [None, None], [[0, 1]])),
        ("lower", (["a", "b"], "00", [None, None], [[0, 1]])),
        ("upper", (["a", "b"], [0, 0], "11", [[0, 1]])),
        ("projects", ("ab", "00", [None, None], [[0, 1]])),
    ],
)
def test_market_rejects_a_string_for_projects_or_quotas(field, args):
    # letter by letter "ab" would read as projects ("a", "b"), "00" as (0, 0)
    with pytest.raises(MarketError, match=f"{field} must be a list, not"):
        Market(*args)


def test_integer_quota_detection():
    assert market_lower_quotas().has_integer_quotas()
    m = Market(["a", "b"], [0, "1/2"], [None, None], [["a", "b"], ["b", "a"]])
    assert not m.has_integer_quotas()


def test_feasibility_golden_matrices():
    lq = market_lower_quotas()
    assert is_feasible(RPLQ_LOWER_QUOTAS, lq)
    # permutation matrix on a free market
    free = Market(
        ["a", "b", "c"],
        [0, 0, 0],
        [1, 1, 1],
        [["a", "b", "c"], ["b", "a", "c"], ["c", "a", "b"]],
    )
    assert is_feasible(mat("1 0 0", "0 1 0", "0 0 1"), free)


def test_feasibility_violation_report():
    lq = market_lower_quotas()
    # quota-free outcome leaves columns b, c short of their lower quotas
    report = feasibility_violations(RPLQ_NO_QUOTAS, lq)
    assert any("column c sum 0 < l(c)=1" in line for line in report)
    assert all("column a" not in line for line in report)  # a has no lower quota
    assert not is_feasible(RPLQ_NO_QUOTAS, lq)


def test_feasibility_bad_rows_and_entries():
    m = Market(["a", "b"], [0, 0], [None, None], [["a", "b"], ["b", "a"]])
    report = feasibility_violations(mat("1/2 1/4", "2 -1"), m)
    assert any("sums to 3/4" in line for line in report)
    assert any("outside [0, 1]" in line for line in report)


def test_feasibility_rejects_float_and_bool_entries():
    # floats used to pass the check, and 0.75 broke its message formatting
    m = Market(["a", "b"], [0, 0], [None, None], [["a", "b"], ["b", "a"]])
    for R, culprit in (
        (((0.5, 0.5), (0.5, 0.5)), "student 1, project a is 0.5"),
        (((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), 0.5)), "student 2, project b is 0.5"),
        (((Fraction(1, 2), 0.25), (Fraction(1, 2), 0.75)), "student 1, project b is 0.25"),
        (((True, 0), (0, True)), "student 1, project a is True"),
    ):
        with pytest.raises(ValueError, match=f"{culprit}, not an int or a Fraction"):
            feasibility_violations(R, m)
    assert feasibility_violations(((1, 0), (Fraction(0), Fraction(1))), m) == []


def test_feasibility_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        feasibility_violations(CHAIN_MATRIX, market_five())


def test_matrix_helpers():
    assert column_sums(RPLQ_LOWER_QUOTAS) == (Fraction(1), Fraction(2), Fraction(1))
    assert is_integral(RPLQ_NO_QUOTAS)
    assert not is_integral(RPLQ_LOWER_QUOTAS)


def test_validate_permutation():
    assert validate_permutation([2, 0, 1], 3) == (2, 0, 1)
    with pytest.raises(ValueError):
        validate_permutation([0, 0, 1], 3)
    with pytest.raises(ValueError, match="holds a non-int entry"):
        validate_permutation([2, 0.0, 1], 3)


def test_uncapped_projects_are_flagged():
    m = Market(["a", "b"], [0, 1], [None, 2], [["a", "b"], ["b", "a"]])
    assert m.uncapped == (True, False)
    assert m.upper == (2, 2)
    assert m.declared_upper() == (None, 2)
    # same numbers, but a cap of 2 on a is a different market from no cap
    assert m != Market(["a", "b"], [0, 1], [2, 2], [["a", "b"], ["b", "a"]])


def test_package_exports_names_not_submodules():
    import types

    import quotassign

    for name in quotassign.__all__:
        assert not isinstance(getattr(quotassign, name), types.ModuleType), name
    assert {"axioms", "model", "strategy"}.isdisjoint(quotassign.__all__)


def test_public_api_is_pinned():
    # any change to the package's surface has to edit this set on purpose
    import quotassign

    assert set(quotassign.__all__) == {
        # model
        "InternalError", "Market", "MarketError", "as_rational", "assigned_project",
        "column_sums", "feasibility_violations", "format_rational", "is_feasible",
        "is_integral", "matrix",
        # eating
        "CRITICAL_SHIFT", "EPOCH_END", "EXHAUSTION", "EatingPhase", "EatingTrace",
        "run_pslq", "run_pslq_traced",
        # priority
        "EXACT_ENUMERATION_LIMIT", "RplqResult", "clone_market", "run_priolq",
        "run_rplq_exact", "run_rplq_sampled",
        # axioms
        "ImprovementWitness", "TAU_CYCLE", "WASTEFUL_CHAIN", "find_tau_cycle",
        "find_wasteful_chain", "is_envy_free", "is_ml_fair", "is_mqc_efficient",
        "is_ordinally_efficient", "is_weakly_envy_free", "sd_dominates", "tau_graph",
        # decompose
        "Lottery", "decompose",
        # marketio
        "GeneratorConfig", "decimal_string", "generate_market", "parse_assignment",
        "parse_market", "render", "serialize_assignment", "serialize_market",
        # strategy
        "INCOMPARABLE_CHANGE", "MECHANISMS", "NO_CHANGE", "STRICT_GAIN",
        "ImpossibilityReport", "ManipulationReport", "impossibility_scenario",
        "misreport_outcomes", "search_manipulation", "verify_weak_sp",
    }
    # the matrix-state eating step API, the unused menu pick and the rank table
    # left, trace and lottery documents are written only, and a lottery term
    # is its picks, so the extreme point has no public matrix form; it is a
    # method of the flow network only
    gone = {
        "EatingState", "initial_state", "next_event", "active_projects", "choice",
        "parse_trace", "parse_lottery", "serialize_trace", "serialize_lottery",
        "PHASE_EVENTS", "extract_extreme_point", "_unit_rows", "_reject_bad_input",
        "_extreme_point",
    }
    decompose_module = importlib.import_module("quotassign.decompose")
    assert gone.isdisjoint(
        dir(quotassign) + dir(quotassign.eating) + dir(quotassign.marketio) + dir(decompose_module)
    )
    assert not hasattr(quotassign.Market(["a"], [0], [None], [["a"]]), "rank")
