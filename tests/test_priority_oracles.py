"""The integer PrioLQ step and the exact-RPLQ dynamic program against
oracles written from the definitions in Fractions (tests/oracles.py)."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quotassign.model import Market, is_feasible
from quotassign.priority import run_priolq, run_rplq_exact, run_rplq_sampled

from goldens import market_lower_quotas, market_six
from oracles import priolq_from_definition, rplq_by_enumeration

QUOTA_STYLES = ("tight", "loose", "zero-lower", "uncapped")


def _cover(upper, n):
    """Raise the first cap until the caps can host all n students."""
    upper[0] += max(0, n - sum(upper))
    return upper


@st.composite
def priority_markets(draw, max_n=6, max_k=4):
    """Integer-quota markets in four styles: lower quotas summing to n - 1
    or n (tight), small lower quotas (loose), none at all (zero-lower), or
    loose lower quotas with some projects uncapped."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    style = draw(st.sampled_from(QUOTA_STYLES))
    prefs = [draw(st.permutations(range(k))) for _ in range(n)]
    if style == "tight":
        seats = draw(st.integers(max(0, n - 1), n))
        picks = draw(st.lists(st.integers(0, k - 1), min_size=seats, max_size=seats))
        lower = [picks.count(p) for p in range(k)]
    elif style == "zero-lower":
        lower = [0] * k
    else:
        lower = [draw(st.integers(0, max(1, n // k))) for _ in range(k)]
        while sum(lower) > n:
            lower[lower.index(max(lower))] -= 1
    upper = _cover([draw(st.integers(lo, n)) for lo in lower], n)
    if style == "uncapped":
        free = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        upper = [None if f else cap for f, cap in zip(free, upper)]
    return Market([f"p{j}" for j in range(k)], lower, upper, prefs)


@settings(max_examples=60, deadline=None)
@given(market=priority_markets())
def test_exact_rplq_equals_enumeration_oracle(market):
    assert run_rplq_exact(market).assignment == rplq_by_enumeration(market)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), market=priority_markets())
def test_priolq_equals_definition_oracle(data, market):
    order = data.draw(st.permutations(range(market.n)))
    assert run_priolq(market, order) == priolq_from_definition(market, order)


def test_exact_rplq_equals_enumeration_on_goldens():
    for market in (market_lower_quotas(), market_six()):
        assert run_rplq_exact(market).assignment == rplq_by_enumeration(market)


def test_exact_rplq_at_the_size_limit():
    # eight students (8! = 40320 orders) with a tight lower quota
    prefs = [["a", "b", "c"], ["b", "a", "c"], ["c", "b", "a"], ["a", "c", "b"]] * 2
    market = Market(["a", "b", "c"], [1, 3, 3], [None, 4, 3], prefs)
    result = run_rplq_exact(market).assignment
    assert is_feasible(result, market)
    assert all(math.factorial(8) % x.denominator == 0 for row in result for x in row)


@settings(max_examples=40, deadline=None)
@given(market=priority_markets(), seed=st.integers(0, 10**6))
def test_sampled_rplq_averages_the_seeded_orders(market, seed):
    # the same Fisher-Yates orders as the sampler draws, run one by one
    samples = 9
    rng = random.Random(seed)
    order = list(range(market.n))
    expected = [[Fraction(0)] * market.k for _ in range(market.n)]
    for _ in range(samples):
        rng.shuffle(order)
        outcome = priolq_from_definition(market, order)
        for i in range(market.n):
            for p in range(market.k):
                expected[i][p] += Fraction(outcome[i][p], samples)
    result = run_rplq_sampled(market, samples=samples, seed=seed).assignment
    assert result == tuple(tuple(row) for row in expected)
