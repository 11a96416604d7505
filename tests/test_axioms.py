import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from quotassign.axioms import (
    TAU_CYCLE,
    WASTEFUL_CHAIN,
    _verify_witness,
    find_tau_cycle,
    find_wasteful_chain,
    is_envy_free,
    is_ml_fair,
    is_mqc_efficient,
    is_ordinally_efficient,
    is_weakly_envy_free,
    sd_dominates,
    tau_graph,
)
from quotassign.eating import run_pslq
from quotassign.marketio import GeneratorConfig, generate_market
from quotassign.model import InternalError, Market, is_feasible
from quotassign.priority import run_priolq

from conftest import random_market
from goldens import (
    CHAIN_DOMINATING,
    CHAIN_MATRIX,
    DOMINATES_SIX,
    PSLQ_FIVE,
    PSLQ_LOWER_QUOTAS,
    PSLQ_THIRDS,
    RPLQ_LOWER_QUOTAS,
    RPLQ_SIX,
    market_chain,
    market_five,
    market_lower_quotas,
    market_six,
    market_thirds,
    mat,
)
from oracles import exists_dominating, improve_until_efficient


def fr(s):
    return Fraction(s)


ABC = (0, 1, 2)  # ranking a > b > c


def test_sd_reflexive_weak_not_strict():
    x = (fr("1/2"), fr("1/3"), fr("1/6"))
    assert sd_dominates(x, x, ABC)
    assert not sd_dominates(x, x, ABC, strict=True)


def test_sd_thirds_rows():
    x = (fr("2/3"), fr("1/3"), fr(0))
    y = (fr("2/3"), fr(0), fr("1/3"))
    assert sd_dominates(x, y, ABC, strict=True)
    assert not sd_dominates(y, x, ABC)


def test_sd_six_rows():
    x = (fr("2/3"), fr(0), fr("1/3"), fr(0))
    y = (fr("3/5"), fr("1/15"), fr("1/3"), fr(0))
    assert sd_dominates(x, y, (0, 1, 2, 3), strict=True)


def test_sd_incomparable():
    x = (fr("1/2"), fr(0), fr("1/2"))
    y = (fr(0), fr(1), fr(0))
    assert not sd_dominates(x, y, ABC)
    assert not sd_dominates(y, x, ABC)


def test_sd_rejects_mismatched_lengths_under_any_optimization_level():
    x = (fr("1/2"), fr("1/2"))
    with pytest.raises(ValueError):
        sd_dominates(x, (fr(1), fr(0), fr(0)), ABC)
    with pytest.raises(ValueError):
        sd_dominates(x, x, ABC)


def test_sd_antisymmetry_random():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(1, 4)
        denom = rng.randint(1, 6)
        x = tuple(Fraction(rng.randint(0, denom), denom) for _ in range(k))
        y = tuple(Fraction(rng.randint(0, denom), denom) for _ in range(k))
        pref = list(range(k))
        rng.shuffle(pref)
        if sd_dominates(x, y, pref) and sd_dominates(y, x, pref):
            assert x == y


def test_envy_free_golden():
    assert is_envy_free(PSLQ_FIVE, market_five().prefs) == (True, None)
    assert is_envy_free(PSLQ_LOWER_QUOTAS, market_lower_quotas().prefs) == (True, None)


def test_envy_violation_random_priority():
    ok, pair = is_envy_free(RPLQ_LOWER_QUOTAS, market_lower_quotas().prefs)
    assert not ok
    assert pair == (0, 2)  # student 1 envies student 3's 7/8 of b


def test_envy_free_single_student():
    m = Market(["a"], [0], [None], [["a"]])
    assert is_envy_free(mat("1"), m.prefs) == (True, None)


def test_weak_envy_freeness():
    assert is_weakly_envy_free(RPLQ_LOWER_QUOTAS, market_lower_quotas().prefs) == (True, None)
    # both want a; student 1 holding only b is strictly dominated
    prefs = ((0, 1), (0, 1))
    ok, pair = is_weakly_envy_free(mat("0 1", "1 0"), prefs)
    assert not ok and pair == (0, 1)


def test_envy_free_implies_weakly_envy_free(rng):
    for _ in range(50):
        m = random_market(rng)
        R = run_pslq(m)
        if is_envy_free(R, m.prefs)[0]:
            assert is_weakly_envy_free(R, m.prefs)[0]


def test_tau_graph_chain_market():
    edges = tau_graph(CHAIN_MATRIX, market_chain().prefs)
    assert edges == {(0, 1): 0, (1, 2): 1}


def test_tau_graph_everyone_on_top_choice():
    prefs = ((0, 1), (1, 0))
    assert tau_graph(mat("1 0", "0 1"), prefs) == {}


def test_tau_acyclic_on_chain_market():
    assert find_tau_cycle(CHAIN_MATRIX, market_chain().prefs) is None


def test_tau_cycle_on_swap():
    prefs = ((0, 1), (1, 0))
    cycle = find_tau_cycle(mat("0 1", "1 0"), prefs)
    assert cycle is not None
    projects, witnesses = cycle
    assert sorted(projects) == [0, 1]
    assert set(witnesses) == {0, 1}


def test_wasteful_chain_found():
    found = find_wasteful_chain(CHAIN_MATRIX, market_chain().prefs, market_chain())
    assert found is not None
    students, projects = found
    assert projects == (0, 1, 2)
    assert students == (0, 1)


def test_no_wasteful_chain_in_eating_outputs():
    assert find_wasteful_chain(PSLQ_FIVE, market_five().prefs, market_five()) is None


def test_single_project_market_has_no_chain():
    m = Market(["a"], [0], [None], [["a"], ["a"]])
    R = mat("1", "1")
    assert find_wasteful_chain(R, m.prefs, m) is None
    assert is_ordinally_efficient(R, m) == (True, None)


def test_inefficiency_of_random_priority_six():
    m = market_six()
    ok, witness = is_ordinally_efficient(RPLQ_SIX, m)
    assert not ok
    assert witness.kind == WASTEFUL_CHAIN
    assert witness.delta == Fraction(1, 15)
    assert witness.improved[0] == (fr("2/3"), fr(0), fr("1/3"), fr(0))
    assert is_feasible(witness.improved, m)
    for i, ranking in enumerate(m.prefs):
        assert sd_dominates(witness.improved[i], RPLQ_SIX[i], ranking)


def test_inefficiency_of_chain_matrix():
    m = market_chain()
    ok, witness = is_ordinally_efficient(CHAIN_MATRIX, m)
    assert not ok
    assert witness.kind == WASTEFUL_CHAIN
    assert witness.projects == (0, 1, 2)
    assert witness.students == (0, 1)
    assert witness.delta == Fraction(1, 2)
    assert witness.improved == CHAIN_DOMINATING


def test_cycle_witness_construction():
    prefs = ((0, 1), (1, 0))
    m = Market(["a", "b"], [0, 0], [1, 1], [["a", "b"], ["b", "a"]])
    ok, witness = is_ordinally_efficient(mat("0 1", "1 0"), m)
    assert not ok
    assert witness.kind == TAU_CYCLE
    assert witness.improved == mat("1 0", "0 1")
    assert witness.delta == 1


def test_eating_outputs_are_ordinally_efficient():
    for market, R in [
        (market_five(), PSLQ_FIVE),
        (market_lower_quotas(), PSLQ_LOWER_QUOTAS),
        (market_thirds(), PSLQ_THIRDS),
    ]:
        assert is_ordinally_efficient(R, market) == (True, None)


def test_eating_efficient_on_random_markets(rng):
    for _ in range(60):
        m = random_market(rng)
        ok, witness = is_ordinally_efficient(run_pslq(m), m)
        assert ok, (m.projects, m.lower, m.upper, m.prefs, witness)


def test_ordinal_efficiency_rejects_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        is_ordinally_efficient(mat("1 0 0", "1 0 0"), market_chain())


def test_checker_agrees_with_improvement_fixpoint():
    # iterate the checker's own witnesses to a fixpoint; inefficiency of the
    # input is equivalent to the fixpoint differing from it
    rng = random.Random(17)

    def find_improvement(R, market):
        ok, witness = is_ordinally_efficient(R, market)
        return None if ok else witness.improved

    for _ in range(120):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        denominator = rng.choice([1, 2, 3, 6])
        rows = []
        for _ in range(n):
            cuts = sorted(rng.randint(0, denominator) for _ in range(k - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
            rows.append(tuple(Fraction(c, denominator) for c in parts))
        R = tuple(rows)
        cols = [sum(r[p] for r in rows) for p in range(k)]
        lower = [rng.randint(0, int(cols[p])) for p in range(k)]
        upper = [rng.randint(-(-cols[p] // 1), n) for p in range(k)]
        prefs = []
        for _ in range(n):
            ranking = list(range(k))
            rng.shuffle(ranking)
            prefs.append(ranking)
        m = Market([f"p{j}" for j in range(k)], lower, upper, prefs)
        ok, _ = is_ordinally_efficient(R, m)
        fixpoint = improve_until_efficient(R, m, find_improvement)
        assert ok == (fixpoint == R)
        for i in range(n):
            assert sd_dominates(fixpoint[i], R[i], m.prefs[i])


def test_checker_complete_against_exhaustive_search():
    # micro-scale completeness: agree with a brute-force hunt for any
    # feasible dominating matrix on a 1/4-resolution grid
    rng = random.Random(23)
    for _ in range(40):
        n, k, denominator = 2, 3, 4
        rows = []
        for _ in range(n):
            cuts = sorted(rng.randint(0, denominator) for _ in range(k - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
            rows.append(tuple(Fraction(c, denominator) for c in parts))
        R = tuple(rows)
        cols = [sum(r[p] for r in rows) for p in range(k)]
        lower = [rng.randint(0, int(cols[p])) for p in range(k)]
        upper = [rng.randint(int(-(-cols[p] // 1)), n) for p in range(k)]
        prefs = []
        for _ in range(n):
            ranking = list(range(k))
            rng.shuffle(ranking)
            prefs.append(ranking)
        m = Market([f"p{j}" for j in range(k)], lower, upper, prefs)
        ok, _ = is_ordinally_efficient(R, m)
        assert ok == (exists_dominating(R, m, denominator) is None)


def test_ml_fairness_of_priority_runs():
    m = market_lower_quotas()
    mu = run_priolq(m, [0, 1, 2, 3])
    assert is_ml_fair(mu, m.prefs, [0, 1, 2, 3]) == (True, None)


def test_ml_fairness_violation():
    prefs = ((0, 1), (0, 1))
    mu = mat("0 1", "1 0")  # the later student gets the project both prefer
    ok, pair = is_ml_fair(mu, prefs, [0, 1])
    assert not ok and pair == (0, 1)
    # with the list reversed the same assignment is fair
    assert is_ml_fair(mu, prefs, [1, 0]) == (True, None)


def test_ml_fairness_single_student():
    assert is_ml_fair(mat("1"), ((0,),), [0]) == (True, None)


@pytest.mark.parametrize(
    "master_list",
    [
        [0, 1],  # a student missing: only a partial order
        [0, 1, 1],  # a repeated entry would overwrite a position
        [0, 1, 3],  # a student out of range
        [0, 1, 2, 3],  # one entry too many
        [0.0, 1.0, 2.0],  # floats equal to ints are no student indices
        [0, "1", 2],  # a string does not sort against ints
        [True, False, 2],  # True == 1 and False == 0, but a bool is no index
    ],
)
def test_ml_fairness_rejects_a_master_list_that_is_not_a_permutation(master_list):
    prefs = ((0, 1, 2),) * 3
    mu = mat("0 0 1", "0 1 0", "1 0 0")
    with pytest.raises(ValueError, match="not a permutation"):
        is_ml_fair(mu, prefs, master_list)


def test_ml_fairness_rejects_a_ranking_count_unlike_the_rows():
    mu = mat("0 1", "1 0")
    with pytest.raises(ValueError, match="3 rankings for 2 students"):
        is_ml_fair(mu, ((0, 1),) * 3, [0, 1])
    with pytest.raises(ValueError, match="1 rankings for 2 students"):
        is_ml_fair(mu, ((0, 1),), [0, 1])


def test_mqc_efficiency_of_priority_runs():
    m = market_lower_quotas()
    for order in itertools.permutations(range(4)):
        mu = run_priolq(m, order)
        assert is_mqc_efficient(mu, m) == (True, None)


def test_mqc_dominated_swap():
    m = Market(["a", "b"], [0, 0], [1, 1], [["a", "b"], ["b", "a"]])
    ok, better = is_mqc_efficient(mat("0 1", "1 0"), m)
    assert not ok
    assert better == mat("1 0", "0 1")


def test_mqc_unique_assignment_is_efficient():
    m = Market(["a", "b"], [2, 0], [2, 0], [["a", "b"], ["b", "a"]])
    assert is_mqc_efficient(mat("1 0", "1 0"), m) == (True, None)


def test_mqc_decides_markets_past_the_old_enumeration_size():
    # 4**12 candidate assignments; student i ranks project i mod 4 first
    names = ["a", "b", "c", "d"]
    prefs = [names[i % 4:] + names[: i % 4] for i in range(12)]
    m = Market(names, [0] * 4, [None] * 4, prefs)
    mu = tuple((1, 0, 0, 0) for _ in range(12))
    ok, dominating = is_mqc_efficient(mu, m)
    assert not ok
    # the wasteful chain b -> a: student 2 moves to b, everyone else stays
    assert dominating == tuple((0, 1, 0, 0) if i == 1 else (1, 0, 0, 0) for i in range(12))


def test_mqc_efficiency_of_a_large_priority_run():
    m = generate_market(GeneratorConfig(n=600, k=30, seed=2, quota_style="integer-loose"))
    assert is_mqc_efficient(run_priolq(m, range(600)), m) == (True, None)


def test_mqc_rejects_fractional_and_infeasible_assignments():
    m = Market(["a", "b"], [0, 0], [2, 2], [["a", "b"], ["b", "a"]])
    with pytest.raises(ValueError, match="not deterministic"):
        is_mqc_efficient(mat("1/2 1/2", "0 1"), m)
    with pytest.raises(ValueError, match="assignment is infeasible"):
        is_mqc_efficient(mat("1 0", "1 1"), m)


def test_mqc_witness_shifting_less_than_a_seat_is_rejected(monkeypatch):
    import quotassign.axioms as axioms

    m = Market(["a", "b"], [0, 0], [1, 1], [["a", "b"], ["b", "a"]])
    mu = mat("0 1", "1 0")
    _, witness = is_ordinally_efficient(mu, m)
    half = dataclasses.replace(witness, delta=Fraction(1, 2))
    monkeypatch.setattr(axioms, "_audit", lambda R, market: (False, half))
    with pytest.raises(InternalError, match="witness on a 0/1 assignment shifts 1/2"):
        is_mqc_efficient(mu, m)


def test_bogus_witness_is_rejected_under_any_optimization_level():
    # the real witness for the chain matrix, then three ways to spoil it
    m = market_chain()
    _, witness = is_ordinally_efficient(CHAIN_MATRIX, m)
    _verify_witness(witness, CHAIN_MATRIX, m.prefs, m)
    bogus = [
        dataclasses.replace(witness, delta=Fraction(0)),
        dataclasses.replace(witness, improved=CHAIN_MATRIX),
        dataclasses.replace(witness, improved=mat("0 1 0", "1 0 0")),
    ]
    for spoiled in bogus:
        with pytest.raises(InternalError, match="witness"):
            _verify_witness(spoiled, CHAIN_MATRIX, m.prefs, m)


def test_witness_must_keep_every_untouched_row_object():
    # students 1 and 2 swap a and b; student 3 is untouched
    prefs = [["a", "b", "c"], ["b", "a", "c"], ["c", "a", "b"]]
    m = Market(["a", "b", "c"], [0] * 3, [None] * 3, prefs)
    R = mat("0 1 0", "1 0 0", "0 0 1")
    _, witness = is_ordinally_efficient(R, m)
    assert witness.students == (0, 1) and witness.improved[2] is R[2]
    copied = witness.improved[:2] + (tuple(list(R[2])),)  # equal values, new object
    for spoiled in (copied, witness.improved[:2], witness.improved + (R[2],)):
        with pytest.raises(InternalError, match="changes a student it does not name"):
            _verify_witness(dataclasses.replace(witness, improved=spoiled), R, m.prefs, m)


def test_efficiency_check_builds_the_tau_graph_once(monkeypatch):
    import quotassign.axioms as axioms

    calls = []
    original = axioms.tau_graph
    monkeypatch.setattr(axioms, "tau_graph", lambda R, prefs: calls.append(1) or original(R, prefs))
    for R, m in [(CHAIN_MATRIX, market_chain()), (PSLQ_FIVE, market_five())]:
        calls.clear()
        is_ordinally_efficient(R, m)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "lower, upper, delta",
    [
        ([0, 1, 0], ["3/4", 1, None], Fraction(1, 4)),  # cap slack at the head
        ([0, 1, "3/8"], [None, 1, None], Fraction(1, 8)),  # lower slack at the tail
    ],
)
def test_chain_shift_is_bounded_by_quota_slack(lower, upper, delta):
    m = Market(["a", "b", "c"], lower, upper, [["a", "b", "c"], ["b", "c", "a"]])
    ok, witness = is_ordinally_efficient(CHAIN_MATRIX, m)
    assert not ok
    assert (witness.kind, witness.projects, witness.students) == (WASTEFUL_CHAIN, (0, 1, 2), (0, 1))
    assert witness.delta == delta
    shift = tuple(
        tuple(x - r for x, r in zip(row, chain_row))
        for row, chain_row in zip(witness.improved, CHAIN_MATRIX)
    )
    assert shift == ((delta, -delta, 0), (0, delta, -delta))


def test_three_cycle_witness():
    prefs = [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]]
    m = Market(["a", "b", "c"], [0] * 3, [None] * 3, prefs)
    ok, witness = is_ordinally_efficient(mat("0 1 0", "0 0 1", "1 0 0"), m)
    assert not ok
    assert (witness.kind, witness.projects, witness.students) == (TAU_CYCLE, (0, 1, 2), (0, 1, 2))
    assert witness.delta == 1
    assert witness.improved == mat("1 0 0", "0 1 0", "0 0 1")


def test_a_deep_tau_path_is_searched_within_the_recursion_limit():
    # student i ranks project i-1 first, then i, and holds i: the tau graph
    # is the path 0 -> 1 -> ... -> 1199, deeper than the default recursion
    # limit, and every project is full, so no wasteful chain starts anywhere
    k = 1200
    zero, one = Fraction(0), Fraction(1)
    prefs = [
        [i - 1, i] + [p for p in range(k) if p not in (i - 1, i)] if i else list(range(k))
        for i in range(k)
    ]
    market = Market([f"p{p}" for p in range(k)], [0] * k, [1] * k, prefs)
    R = tuple(tuple(one if p == i else zero for p in range(k)) for i in range(k))
    assert len(tau_graph(R, market.prefs)) == k - 1
    assert find_tau_cycle(R, market.prefs) is None
    assert is_ordinally_efficient(R, market) == (True, None)
