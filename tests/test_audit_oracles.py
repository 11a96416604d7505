"""The envy audits over distinct rows, the bitmask `tau_graph`, the sparse
integer `Lottery.expectation` and the tau-cycle search on an explicit stack
against their earlier loops in tests/oracles.py: verdicts, witness pairs,
edge dicts, matrices and cycles must be identical."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quotassign.axioms import _cycle, _tau, is_envy_free, is_weakly_envy_free, tau_graph
from quotassign.decompose import Lottery, decompose
from quotassign.eating import run_pslq
from quotassign.priority import run_priolq, run_rplq_exact

from goldens import RPLQ_LOWER_QUOTAS, market_lower_quotas, mat
from oracles import (
    cycle_by_recursion,
    envy_free_by_pairs,
    expectation_by_dense_sum,
    tau_graph_by_triples,
    weakly_envy_free_by_pairs,
)
from test_eating_oracle import capacity_and_fraction_markets
from test_priority_oracles import priority_markets


def _same_audits(R, prefs):
    assert is_envy_free(R, prefs) == envy_free_by_pairs(R, prefs)
    assert is_weakly_envy_free(R, prefs) == weakly_envy_free_by_pairs(R, prefs)
    assert tau_graph(R, prefs) == tau_graph_by_triples(R, prefs)
    graph = _tau(R, prefs)
    assert _cycle(*graph) == cycle_by_recursion(*graph)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), market=priority_markets(max_n=7, max_k=5))
def test_audits_equal_the_pair_loops_on_mechanism_outputs(data, market):
    order = data.draw(st.permutations(range(market.n)))
    for R in (run_pslq(market), run_priolq(market, order), run_rplq_exact(market).assignment):
        _same_audits(R, market.prefs)


@settings(max_examples=150, deadline=None)
@given(market=capacity_and_fraction_markets())
def test_audits_equal_the_pair_loops_on_pslq_with_fractional_quotas(market):
    _same_audits(run_pslq(market), market.prefs)


@st.composite
def row_stochastic(draw, k):
    """A row of k multiples of 1/d summing to 1, some entries zero."""
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    if not any(weights):
        weights[draw(st.integers(0, k - 1))] = 1
    return tuple(Fraction(w, sum(weights)) for w in weights)


@st.composite
def duplicated_rows(draw, max_n=9, max_k=5):
    """(R, prefs): n students sharing a few distinct row-stochastic rows."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    distinct = draw(st.lists(row_stochastic(k), min_size=1, max_size=min(n, 4)))
    R = tuple(draw(st.sampled_from(distinct)) for _ in range(n))
    prefs = [draw(st.permutations(range(k))) for _ in range(n)]
    return R, prefs


@settings(max_examples=400, deadline=None)
@given(case=duplicated_rows())
def test_audits_equal_the_pair_loops_on_duplicated_rows(case):
    _same_audits(*case)


def test_failing_inputs_name_the_smallest_envied_student():
    # students 2 and 4 hold the row student 1 envies; student 3's row is 1's
    prefs = [[0, 1]] * 4
    R = mat("1/2 1/2", "1 0", "1/2 1/2", "1 0")
    assert is_envy_free(R, prefs) == envy_free_by_pairs(R, prefs) == (False, (0, 1))
    assert is_weakly_envy_free(R, prefs) == weakly_envy_free_by_pairs(R, prefs) == (False, (0, 1))
    prefs = market_lower_quotas().prefs
    assert is_envy_free(RPLQ_LOWER_QUOTAS, prefs) == envy_free_by_pairs(RPLQ_LOWER_QUOTAS, prefs)


@st.composite
def pick_lotteries(draw, max_terms=8, max_n=6, max_k=5):
    """Lotteries over random picks, with int and Fraction weights, terms
    repeated and projects that no term picks included."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    shares = draw(st.lists(st.integers(1, 9), min_size=1, max_size=max_terms))
    picks = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(tuple)
    if len(shares) == 1:
        return Lottery(k, ((1, draw(picks)),))
    return Lottery(k, tuple((Fraction(s, sum(shares)), draw(picks)) for s in shares))


@settings(max_examples=300, deadline=None)
@given(lottery=pick_lotteries())
def test_expectation_equals_the_dense_sum_on_random_picks(lottery):
    assert lottery.expectation() == expectation_by_dense_sum(lottery)


@settings(max_examples=100, deadline=None)
@given(market=priority_markets(max_n=6, max_k=4))
def test_expectation_equals_the_dense_sum_on_decompositions(market):
    lottery = decompose(run_pslq(market), market)
    expected = expectation_by_dense_sum(lottery)
    assert lottery.expectation() == expected == run_pslq(market)


@st.composite
def digraphs(draw, max_k=9):
    """(edges, successors) as `_tau` gives them: a random edge dict over k
    nodes, no self-loops, each edge with a witness, successors sorted."""
    k = draw(st.integers(1, max_k))
    pairs = [(p, q) for p in range(k) for q in range(k) if p != q]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * k)) if pairs else []
    edges = {pair: draw(st.integers(0, 5)) for pair in chosen}
    successors = [[] for _ in range(k)]
    for p, q in sorted(edges):
        successors[p].append(q)
    return edges, successors


@settings(max_examples=400, deadline=None)
@given(graph=digraphs())
def test_cycle_equals_the_recursive_search(graph):
    assert _cycle(*graph) == cycle_by_recursion(*graph)


def test_cycle_search_diff_sees_both_outcomes():
    # the same first cycle, entered through a tail, and an acyclic graph
    edges = {(0, 1): 4, (1, 2): 5, (2, 3): 6, (3, 1): 7, (0, 3): 8}
    successors = [[1, 3], [2], [3], [1]]
    assert _cycle(edges, successors) == cycle_by_recursion(edges, successors) == ((1, 2, 3), (5, 6, 7))
    del edges[(3, 1)]
    successors[3] = []
    assert _cycle(edges, successors) is cycle_by_recursion(edges, successors) is None
