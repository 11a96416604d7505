"""The integer PrioLQ step and the exact-RPLQ dynamic program against
oracles written from the definitions in Fractions (tests/oracles.py), and
the exact-RPLQ misreport scan, read off one run's arrival tables, against
a rerun of the earlier dynamic program on every misreported market."""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quotassign import strategy
from quotassign.model import Market, is_feasible
from quotassign.priority import run_priolq, run_rplq_exact, run_rplq_sampled
from quotassign.strategy import misreport_outcomes, search_manipulation, verify_weak_sp

from goldens import market_lower_quotas, market_six
from oracles import priolq_from_definition, rplq_by_bitmask_dp, rplq_by_enumeration

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


@settings(max_examples=60, deadline=None)
@given(market=priority_markets(max_n=7))
def test_exact_rplq_equals_bitmask_dp_oracle(market):
    assert run_rplq_exact(market).assignment == rplq_by_bitmask_dp(market).assignment


@settings(max_examples=40, deadline=None)
@given(data=st.data(), market=priority_markets())
def test_misreport_scan_equals_rerun_of_the_oracle(data, market):
    student = data.draw(st.integers(0, market.n - 1))
    truthful = market.prefs[student]
    expected = [
        (
            ranking,
            rplq_by_bitmask_dp(strategy._misreported_market(market, student, ranking))
            .assignment[student],
        )
        for ranking in itertools.permutations(range(market.k))
        if ranking != truthful
    ]
    truthful_outcome, misreports = strategy._runs("rplq-exact", market)
    assert truthful_outcome == run_rplq_exact(market).assignment
    assert list(misreports(student)) == expected
    # the rerun path, which a callable or misreport_outcomes takes
    assert list(misreport_outcomes("rplq-exact", market, student)) == expected


@settings(max_examples=25, deadline=None)
@given(data=st.data(), market=priority_markets(max_n=5))
def test_scan_by_name_equals_the_rerun_path(data, market):
    # a callable is rerun on each misreported market; the name reads the
    # rows off one run's arrival tables
    def rerun(m):
        return run_rplq_exact(m).assignment

    student = data.draw(st.integers(0, market.n - 1))
    assert search_manipulation("rplq-exact", market, student) == search_manipulation(
        rerun, market, student
    )
    for strong in (False, True):
        assert verify_weak_sp("rplq-exact", market, strong=strong) == verify_weak_sp(
            rerun, market, strong=strong
        )


def test_scan_by_name_runs_exact_rplq_once_and_builds_no_market(monkeypatch):
    market = market_six()
    runs, built = [], []
    monkeypatch.setattr(
        strategy, "run_rplq_exact", lambda m: runs.append(m) or run_rplq_exact(m)
    )
    monkeypatch.setattr(
        strategy,
        "_misreported_market",
        lambda *args: built.append(args) or Market(["a"], [0], [None], [["a"]]),
    )
    assert verify_weak_sp("rplq-exact", market, strong=True) == (True, None)
    assert runs == [market] and built == []
