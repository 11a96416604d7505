"""Hypothesis properties tying the mechanisms to the axiom checkers."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quotassign.axioms import (
    is_envy_free,
    is_ordinally_efficient,
    is_weakly_envy_free,
    sd_dominates,
)
from quotassign.decompose import decompose
from quotassign.eating import run_pslq
from quotassign.marketio import parse_market, serialize_market
from quotassign.model import column_sums, is_feasible, is_integral
from quotassign.priority import clone_market, run_rplq_exact

from conftest import random_market
from oracles import expanded_terms

shares = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def markets(draw, integer_quotas=True, max_n=5, max_k=4):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    return random_market(
        random.Random(seed), n=n, k=k, integer_quotas=integer_quotas
    )


@st.composite
def row_chains(draw, k=4):
    """Three rows z <=sd y <=sd x over one preference, built by moving mass up."""
    pref = tuple(draw(st.permutations(range(k))))
    z = list(draw(st.tuples(*[shares] * k)))

    def lift(row):
        lifted = list(row)
        hi = draw(st.integers(0, k - 1))
        lo = draw(st.integers(hi, k - 1))
        amount = draw(shares)
        moved = min(amount, lifted[pref[lo]])
        lifted[pref[lo]] -= moved
        lifted[pref[hi]] += moved
        return lifted

    y = lift(z)
    x = lift(y)
    return pref, tuple(x), tuple(y), tuple(z)


@given(pref=st.permutations(range(4)), row=st.tuples(*[shares] * 4))
def test_sd_is_reflexive(pref, row):
    assert sd_dominates(row, row, tuple(pref))
    assert not sd_dominates(row, row, tuple(pref), strict=True)


@given(
    pref=st.permutations(range(4)),
    x=st.tuples(*[shares] * 4),
    y=st.tuples(*[shares] * 4),
)
def test_sd_is_antisymmetric(pref, x, y):
    pref = tuple(pref)
    if sd_dominates(x, y, pref) and sd_dominates(y, x, pref):
        prefix = Fraction(0)
        for p in pref:
            prefix += x[p] - y[p]
            assert prefix == 0
    assert not (
        sd_dominates(x, y, pref, strict=True) and sd_dominates(y, x, pref, strict=True)
    )


@given(chain=row_chains())
def test_sd_is_transitive_along_lift_chains(chain):
    pref, x, y, z = chain
    assert sd_dominates(y, z, pref)
    assert sd_dominates(x, y, pref)
    assert sd_dominates(x, z, pref)


@settings(max_examples=60, deadline=None)
@given(market=markets())
def test_pslq_is_feasible_envy_free_efficient(market):
    matrix = run_pslq(market)
    assert is_feasible(matrix, market)
    assert is_envy_free(matrix, market.prefs)[0]
    assert is_ordinally_efficient(matrix, market)[0]


@settings(max_examples=40, deadline=None)
@given(market=markets(max_n=4, max_k=3))
def test_rplq_is_feasible_and_weakly_envy_free(market):
    matrix = run_rplq_exact(market).assignment
    assert is_feasible(matrix, market)
    assert is_weakly_envy_free(matrix, market.prefs)[0]


@settings(max_examples=30, deadline=None)
@given(market=markets())
def test_envy_free_implies_weakly_envy_free(market):
    matrix = run_pslq(market)
    if is_envy_free(matrix, market.prefs)[0]:
        assert is_weakly_envy_free(matrix, market.prefs)[0]


@settings(max_examples=40, deadline=None)
@given(market=markets(max_n=4, max_k=3))
def test_decomposition_reconstructs_exactly(market):
    matrix = run_pslq(market)
    lottery = decompose(matrix, market)
    assert lottery.expectation() == matrix
    fractional_entries = sum(
        1 for row in matrix for value in row if value.denominator > 1
    )
    fractional_columns = sum(
        1 for total in column_sums(matrix) if total.denominator > 1
    )
    assert len(lottery) <= fractional_entries + fractional_columns + 1
    for _, term in expanded_terms(lottery):
        assert is_integral(term)
        assert is_feasible(term, market)


@settings(max_examples=25, deadline=None)
@given(market=markets(max_n=3, max_k=3), q=st.integers(1, 3))
def test_multiunit_clone_rows_sum_to_q(market, q):
    # feasibility gives sum(u) >= n, so at least one unit per student fits
    q = min(q, int(sum(market.upper)) // market.n)
    cloned, aggregate = clone_market(market, q)
    matrix = aggregate(run_pslq(cloned))
    for row in matrix:
        assert sum(row) == q


@settings(max_examples=25, deadline=None)
@given(market=markets(max_n=4, max_k=3))
def test_inefficiency_witnesses_are_sound(market):
    matrix = run_rplq_exact(market).assignment
    efficient, witness = is_ordinally_efficient(matrix, market)
    if efficient:
        assert witness is None
        return
    assert is_feasible(witness.improved, market)
    strict = False
    for i in range(market.n):
        assert sd_dominates(witness.improved[i], matrix[i], market.prefs[i])
        strict = strict or sd_dominates(
            witness.improved[i], matrix[i], market.prefs[i], strict=True
        )
    assert strict


@settings(max_examples=40, deadline=None)
@given(market=markets(integer_quotas=False))
def test_market_serialization_round_trips(market):
    assert parse_market(serialize_market(market)) == market
