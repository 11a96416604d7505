"""The unnormalised peel loop of `decompose` against the earlier
renormalising loop in tests/oracles.py: the terms must agree exactly, in
weights, matrices and order."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quotassign.decompose import decompose
from quotassign.eating import run_pslq
from quotassign.model import Market
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
from oracles import decompose_by_renormalising
from test_priority_oracles import priority_markets


def _same_terms(R, market):
    assert decompose(R, market).terms == decompose_by_renormalising(R, market).terms


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
    assert decompose(R, market).terms[0] == (Fraction(4, 5), mat("1 0 0", "1 0 0"))
    _same_terms(R, market)
    # the first term gives nobody c: column c (7/8) climbs to its ceiling 1
    # at weight 1/8, before any held entry (1/4) or column a's floor (3/8)
    market = Market(["a", "b", "c"], [0, 0, 0], [None] * 3, [["a", "b", "c"]] * 3)
    R = mat("0 1/4 3/4", "5/8 1/4 1/8", "3/4 1/4 0")
    assert decompose(R, market).terms[0] == (Fraction(1, 8), mat("0 1 0", "1 0 0", "1 0 0"))
    _same_terms(R, market)
