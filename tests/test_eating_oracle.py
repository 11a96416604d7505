"""The k-vector eating loop against the full-matrix loop it replaced
(tests/oracles.py): identical assignments and traces, as exact Fractions;
its active set and critical time alone against the earlier event rule, on
random eating states; and the invariants every trace keeps, checked
directly."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quotassign.eating import (
    CRITICAL_SHIFT,
    EPOCH_END,
    EXHAUSTION,
    _active_set,
    _critical_event,
    run_pslq_traced,
)
from quotassign.model import InternalError, Market, column_sums

from conftest import random_market
from goldens import (
    market_five,
    market_lower_quotas,
    market_lower_quotas_misreport,
    market_six,
    market_thirds,
    market_thirds_misreport,
)
from oracles import active_set_by_clauses, critical_event_by_segments, pslq_by_full_matrix
from test_priority_oracles import _cover, priority_markets


@st.composite
def capacity_and_fraction_markets(draw, max_n=7, max_k=5):
    """Markets with loose integer quotas where some projects have upper
    quota 0 (zero-capacity), or with quotas that are multiples of 1/d
    (fractional), the lower ones scaled down to sum to n when they would
    exceed it."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    prefs = [draw(st.permutations(range(k))) for _ in range(n)]
    if draw(st.booleans()):
        d = draw(st.integers(2, 6))
        upper = _cover([Fraction(draw(st.integers(0, n * d)), d) for _ in range(k)], n)
        lower = [Fraction(draw(st.integers(0, int(u * d))), d) for u in upper]
        if sum(lower) > n:
            lower = [lo * n / sum(lower) for lo in lower]
    else:
        closed = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        closed[0] = False
        lower = [0 if shut else draw(st.integers(0, max(1, n // k))) for shut in closed]
        while sum(lower) > n:
            lower[lower.index(max(lower))] -= 1
        upper = _cover(
            [0 if shut else draw(st.integers(lo, n)) for shut, lo in zip(closed, lower)], n
        )
    return Market([f"p{j}" for j in range(k)], lower, upper, prefs)


# tight, loose, zero-lower and uncapped integer quotas, zero-capacity
# projects and fractional quotas
eating_markets = st.one_of(priority_markets(max_n=7, max_k=5), capacity_and_fraction_markets())


@st.composite
def eating_states(draw):
    """A market with Fraction quotas, eaten masses within the upper quotas,
    a time in [0, 1) and eater counts summing to n: reachable or not, the
    states both event rules must agree on."""
    market = draw(capacity_and_fraction_markets())
    d = draw(st.integers(1, 6))
    omega = [min(Fraction(draw(st.integers(0, math.ceil(u * d))), d), u) for u in market.upper]
    m = draw(st.integers(1, 6))
    t = Fraction(draw(st.integers(0, m - 1)), m)
    eaten = [draw(st.integers(0, market.k - 1)) for _ in range(market.n)]
    return market, t, omega, [eaten.count(p) for p in range(market.k)]


def _outcome(rule, *args):
    try:
        return rule(*args)
    except InternalError:
        return InternalError


@settings(max_examples=500, deadline=None)
@given(state=eating_states())
def test_event_rule_equals_the_rule_by_segments(state):
    market, t, omega, counts = state
    assert _active_set(t, omega, market) == active_set_by_clauses(t, omega, market)
    assert _outcome(_critical_event, t, omega, counts, market) == _outcome(
        critical_event_by_segments, t, omega, counts, market
    )


@settings(max_examples=300, deadline=None)
@given(market=eating_markets)
def test_eating_equals_full_matrix_oracle(market):
    assert run_pslq_traced(market) == pslq_by_full_matrix(market)


def test_eating_equals_full_matrix_oracle_on_goldens_and_random_markets():
    markets = [
        market_five(),
        market_six(),
        market_lower_quotas(),
        market_lower_quotas_misreport(),
        market_thirds(),
        market_thirds_misreport(),
    ]
    rng = random.Random(4)
    markets += [random_market(rng, integer_quotas=j % 2 == 0) for j in range(200)]
    for market in markets:
        assert run_pslq_traced(market) == pslq_by_full_matrix(market)


@settings(max_examples=300, deadline=None)
@given(market=eating_markets)
def test_every_trace_keeps_its_invariants(market):
    assignment, trace = run_pslq_traced(market)
    phases = trace.phases
    # the phases tile [0, 1], each with positive length
    assert phases[0].start == 0 and phases[-1].end == 1
    assert all(phase.end == following.start for phase, following in zip(phases, phases[1:]))
    assert all(phase.start < phase.end for phase in phases)
    for phase in phases:
        assert phase.event in (EXHAUSTION, CRITICAL_SHIFT, EPOCH_END)
        # each student eats their favourite active project
        active = set(phase.active)
        assert phase.pattern == tuple(
            next(p for p in ranking if p in active) for ranking in market.prefs
        )
        assert set(phase.closed) <= active
    for phase, following in zip(phases, phases[1:]):
        assert set(phase.closed) == set(phase.active) - set(following.active)
    last = phases[-1]
    if last.event == EPOCH_END:
        assert last.closed == last.active
    else:
        # an exhaustion at exactly t = 1 closes only the exhausted projects
        assert last.event == EXHAUSTION
        sums = column_sums(assignment)
        assert last.closed == tuple(p for p in last.active if sums[p] == market.upper[p])
    shifts = [phase.end for phase in phases if phase.event == CRITICAL_SHIFT]
    assert trace.critical_time == (shifts[0] if shifts else None)
    # replaying pattern x length rebuilds the assignment
    rows = [[Fraction(0)] * market.k for _ in range(market.n)]
    for phase in phases:
        for student, p in enumerate(phase.pattern):
            rows[student][p] += phase.end - phase.start
    assert tuple(map(tuple, rows)) == assignment


def test_an_exhaustion_at_one_closes_only_the_exhausted_project():
    # a fills up exactly at t = 1; b stays active and is in no phase's closed
    market = Market(["a", "b"], [0, 0], [1, None], [["a", "b"]])
    _, trace = run_pslq_traced(market)
    (phase,) = trace.phases
    assert (phase.end, phase.event, phase.active, phase.closed) == (1, EXHAUSTION, (0, 1), (0,))


def test_negative_reserve_raises_under_any_optimization_level():
    # lower quotas still owed in full at t = 9/10: the reserve is already
    # negative, which no reachable eating state allows
    market = Market(["a", "b"], [1, 1], [1, 1], [["a", "b"], ["b", "a"]])
    with pytest.raises(InternalError):
        _critical_event(Fraction(9, 10), [Fraction(0)] * 2, [1, 1], market)
