"""The peel loop of `decompose` against two earlier loops in
tests/oracles.py: the `Fraction` loop `decompose_by_fractions`, on the flow
that scans every floor arc for each direct path, and the renormalising loop,
which takes its extreme points from the flow with one breadth-first search
per augmenting path. The terms must agree exactly, in weights, order and
picks. The flow's picks are also diffed alone, on random supports and
windows, short ones included, and on one network driven through a sequence
of windows and dropped entries, as `decompose` drives it, against a fresh
build of the earlier flows for each step."""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from quotassign.decompose import _Network, decompose
from quotassign.eating import run_pslq
from quotassign.marketio import GeneratorConfig, generate_market
from quotassign.model import InternalError, Market
from quotassign.priority import run_priolq, run_rplq_sampled

from goldens import (
    CHAIN_DOMINATING,
    CHAIN_MATRIX,
    DOMINATES_SIX,
    PSLQ_FIVE,
    PSLQ_LOWER_QUOTAS,
    RPLQ_LOWER_QUOTAS,
    RPLQ_NO_QUOTAS,
    RPLQ_SIX,
    market_chain,
    market_five,
    market_lower_quotas,
    market_no_quotas,
    market_six,
    mat,
)
from oracles import (
    decompose_by_fractions,
    decompose_by_renormalising,
    expanded_terms,
    extreme_point_by_bfs,
    extreme_point_by_rebuild,
)
from test_priority_oracles import priority_markets

pytestmark = pytest.mark.usefixtures("time_bound")


def _same_terms(R, market):
    lottery = decompose(R, market)
    assert lottery.terms == decompose_by_fractions(R, market)
    assert expanded_terms(lottery) == decompose_by_renormalising(R, market)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), market=priority_markets(max_n=7, max_k=5))
def test_terms_equal_the_renormalising_loop(data, market):
    order = data.draw(st.permutations(range(market.n)))
    seed = data.draw(st.integers(0, 2**16))
    for R in (
        run_pslq(market),
        run_priolq(market, order),
        run_rplq_sampled(market, 7, seed).assignment,
    ):
        _same_terms(R, market)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), market=priority_markets(max_n=16, max_k=12))
def test_terms_equal_the_fraction_loop_on_many_projects(data, market):
    # with up to 12 projects many floors are unmet at once, so the order in
    # which the direct paths take them matters
    order = data.draw(st.permutations(range(market.n)))
    seed = data.draw(st.integers(0, 2**16))
    for R in (
        run_pslq(market),
        run_priolq(market, order),
        run_rplq_sampled(market, 7, seed).assignment,
    ):
        lottery = decompose(R, market)
        assert lottery.terms == decompose_by_fractions(R, market)
        # every weight is a whole number of units of the input's lcm
        # denominator: the peel never needs a finer unit
        scale = math.lcm(*{v.denominator for row in R for v in row})
        assert all((weight * scale).denominator == 1 for weight, _ in lottery.terms)


def test_golden_terms_equal_the_renormalising_loop():
    for market, R in [
        (market_no_quotas(), RPLQ_NO_QUOTAS),
        (market_lower_quotas(), RPLQ_LOWER_QUOTAS),
        (market_lower_quotas(), PSLQ_LOWER_QUOTAS),
        (market_five(), PSLQ_FIVE),
        (market_six(), RPLQ_SIX),
        (market_six(), DOMINATES_SIX),
        (market_chain(), CHAIN_MATRIX),
        (market_chain(), CHAIN_DOMINATING),
    ]:
        _same_terms(R, market)


def test_column_windows_bound_the_weight():
    # both students go to a first; column a (9/5) reaches its floor 1 at
    # weight 4/5, before any entry or the ceilings of b and c (at 9/10)
    market = Market(["a", "b", "c"], [1, 0, 0], [2, 1, 1], [["a", "b", "c"], ["a", "c", "b"]])
    R = mat("9/10 1/10 0", "9/10 0 1/10")
    assert decompose(R, market).terms[0] == (Fraction(4, 5), (0, 0))
    _same_terms(R, market)
    # the first term gives nobody c: column c (7/8) climbs to its ceiling 1
    # at weight 1/8, before any held entry (1/4) or column a's floor (3/8)
    market = Market(["a", "b", "c"], [0, 0, 0], [None] * 3, [["a", "b", "c"]] * 3)
    R = mat("0 1/4 3/4", "5/8 1/4 1/8", "3/4 1/4 0")
    assert decompose(R, market).terms[0] == (Fraction(1, 8), (1, 0, 0))
    _same_terms(R, market)


def _draw_support(draw, n, k):
    support = [[0] * k for _ in range(n)]
    for row in support:
        for p in draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k)):
            row[p] = 1
    return support


def _draw_windows(draw, support):
    """Per-column windows: around a point planted on the support, or drawn
    freely, where the flow often falls short."""
    n, k = len(support), len(support[0])
    if draw(st.booleans()) and all(any(row) for row in support):
        counts = [0] * k
        for row in support:
            counts[draw(st.sampled_from([p for p in range(k) if row[p]]))] += 1
        floors = [max(0, c - draw(st.integers(0, 1))) for c in counts]
        ceilings = [c + draw(st.integers(0, 1)) for c in counts]
    else:
        floors = [draw(st.integers(0, n)) for _ in range(k)]
        ceilings = [lo + draw(st.integers(0, n - lo)) for lo in floors]
    return floors, ceilings


@st.composite
def flow_inputs(draw):
    """A 0/1 support with per-column windows."""
    support = _draw_support(draw, draw(st.integers(1, 8)), draw(st.integers(1, 5)))
    return (support, *_draw_windows(draw, support))


def _flows_agree(support, floors, ceilings):
    holdings = [[p for p, v in enumerate(row) if v] for row in support]
    network = _Network(holdings, len(floors))
    try:
        expected = extreme_point_by_bfs(support, floors, ceilings)
    except InternalError:
        with pytest.raises(InternalError, match="no integral point"):
            network.extreme_point(floors, ceilings)
        return False
    assert network.extreme_point(floors, ceilings) == [row.index(1) for row in expected]
    return True


@settings(max_examples=400, deadline=None)
@given(flow_inputs())
# the floors need more students than there are
@example(([[1, 0], [0, 1]], [2, 1], [2, 2]))
# student 2 holds nothing
@example(([[1, 1], [0, 0]], [0, 0], [2, 2]))
# both students hold only a, whose ceiling is 1
@example(([[1, 0], [1, 0]], [0, 0], [1, 2]))
# student 0's unmet floor is b, the second project they hold
@example(([[1, 1], [0, 1]], [0, 1], [1, 2]))
def test_picks_equal_the_breadth_first_flow(inputs):
    _flows_agree(*inputs)


def test_flow_diff_covers_both_outcomes():
    # one window the flow meets and one it falls short of, on one support
    support = [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
    assert _flows_agree(support, [1, 1, 1], [2, 2, 2])
    assert not _flows_agree(support, [2, 2, 1], [2, 2, 1])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), k=st.integers(1, 5))
def test_one_network_through_peels_equals_a_fresh_flow(data, n, k):
    # one network, as `decompose` keeps it: each step drops some entries
    # from the support, as peels do when held entries fall to 0, and asks
    # for an extreme point in new windows; a fresh build of each earlier
    # flow on the shrunk support must give the same picks, or fail too
    support = _draw_support(data.draw, n, k)
    network = _Network([[p for p, v in enumerate(row) if v] for row in support], k)
    for _ in range(data.draw(st.integers(1, 6))):
        entries = [(i, p) for i, row in enumerate(support) for p, v in enumerate(row) if v]
        if entries:
            for i, p in data.draw(st.sets(st.sampled_from(entries), max_size=3)):
                support[i][p] = 0
                network.drop(i, p)
        floors, ceilings = _draw_windows(data.draw, support)
        holdings = [[p for p, v in enumerate(row) if v] for row in support]
        try:
            expected = extreme_point_by_bfs(support, floors, ceilings)
        except InternalError:
            for flow in (network.extreme_point, partial(extreme_point_by_rebuild, holdings)):
                with pytest.raises(InternalError, match="no integral point"):
                    flow(floors, ceilings)
            continue
        picks = [row.index(1) for row in expected]
        assert extreme_point_by_rebuild(holdings, floors, ceilings) == picks
        assert network.extreme_point(floors, ceilings) == picks


def _cohort_market(quota_style, seed, capped=False, n=60, k=8):
    market = generate_market(GeneratorConfig(n=n, k=k, seed=seed, quota_style=quota_style))
    if capped:
        market = Market(market.projects, [0] * market.k, market.declared_upper(), market.prefs)
    return market


@pytest.mark.parametrize(
    "quota_style, capped, seed",
    [
        ("integer-tight", False, 1),
        ("integer-tight", False, 2),
        ("integer-tight", False, 3),
        ("integer-loose", False, 1),
        ("integer-loose", False, 3),
        ("integer-loose", True, 4),
        ("integer-loose", True, 6),
    ],
)
def test_cohort_terms_equal_the_renormalising_loop(quota_style, capped, seed):
    # the benchmark's cohort shapes: n=60, k=8, tight, loose and capped;
    # diffed against both earlier loops
    market = _cohort_market(quota_style, seed, capped)
    _same_terms(run_pslq(market), market)


@pytest.mark.parametrize(
    "quota_style, seed", [("integer-tight", 1), ("integer-tight", 2), ("integer-loose", 1)]
)
def test_twelve_project_terms_equal_the_fraction_loop(quota_style, seed):
    # n=40, k=12: a dozen floors compete for the direct paths of each peel
    market = _cohort_market(quota_style, seed, n=40, k=12)
    R = run_pslq(market)
    assert decompose(R, market).terms == decompose_by_fractions(R, market)
