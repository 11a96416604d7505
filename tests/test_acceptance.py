"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `python3 -m pytest tests/test_acceptance.py -q`; the per-criterion
lines go straight to the terminal so they show even under capture.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from quotassign.axioms import (
    is_envy_free,
    is_ordinally_efficient,
    is_weakly_envy_free,
    sd_dominates,
)
from quotassign.decompose import decompose
from quotassign.eating import run_pslq, run_pslq_traced
from quotassign.model import Market, column_sums, is_feasible, is_integral
from quotassign.priority import run_rplq_exact
from quotassign.strategy import (
    STRICT_GAIN,
    impossibility_scenario,
    search_manipulation,
    verify_weak_sp,
)

from conftest import random_market
from goldens import (
    PSLQ_FIVE,
    PSLQ_LOWER_QUOTAS,
    PSLQ_LOWER_QUOTAS_MISREPORT,
    PSLQ_THIRDS,
    PSLQ_THIRDS_MISREPORT,
    RPLQ_LOWER_QUOTAS,
    RPLQ_NO_QUOTAS,
    RPLQ_SIX,
    CHAIN_MATRIX,
    market_chain,
    market_five,
    market_lower_quotas,
    market_lower_quotas_misreport,
    market_no_quotas,
    market_six,
    market_thirds,
    market_thirds_misreport,
)
from oracles import classical_ps, expanded_terms


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL", file=sys.__stdout__)
        raise
    print(f"criterion {number} ({label}): PASS", file=sys.__stdout__)


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def witness_is_valid(witness, matrix, market):
    if not is_feasible(witness.improved, market):
        return False
    strict = False
    for i in range(market.n):
        if not sd_dominates(witness.improved[i], matrix[i], market.prefs[i]):
            return False
        strict = strict or sd_dominates(
            witness.improved[i], matrix[i], market.prefs[i], strict=True
        )
    return strict


def test_criterion_1_golden_priority_matrices():
    with criterion(1, "RPLQ golden matrices"):
        cases = [
            (market_no_quotas(), RPLQ_NO_QUOTAS),
            (market_lower_quotas(), RPLQ_LOWER_QUOTAS),
            (market_six(), RPLQ_SIX),
        ]
        for market, expected in cases:
            result, elapsed = timed(lambda m=market: run_rplq_exact(m))
            assert result.assignment == expected
            assert elapsed < 1.0, f"exact enumeration took {elapsed:.2f}s"


def test_criterion_2_golden_eating_matrices():
    with criterion(2, "PSLQ golden matrices"):
        start = time.perf_counter()
        matrix, trace = run_pslq_traced(market_five())
        assert matrix == PSLQ_FIVE
        assert trace.critical_time == Fraction(3, 4)
        assert run_pslq(market_lower_quotas()) == PSLQ_LOWER_QUOTAS
        assert run_pslq(market_lower_quotas_misreport()) == PSLQ_LOWER_QUOTAS_MISREPORT
        assert run_pslq(market_thirds()) == PSLQ_THIRDS
        assert run_pslq(market_thirds_misreport()) == PSLQ_THIRDS_MISREPORT
        assert time.perf_counter() - start < 0.5


def test_criterion_3_efficiency_checker():
    with criterion(3, "ordinal efficiency checker"):
        start = time.perf_counter()
        for market, matrix in [
            (market_six(), RPLQ_SIX),
            (market_chain(), CHAIN_MATRIX),
        ]:
            efficient, witness = is_ordinally_efficient(matrix, market)
            assert not efficient
            assert witness_is_valid(witness, matrix, market)
        rng = random.Random(3)
        for _ in range(200):
            market = random_market(rng)
            efficient, witness = is_ordinally_efficient(run_pslq(market), market)
            assert efficient and witness is None
        assert time.perf_counter() - start < 30.0


def test_criterion_4a_eating_axiom_campaign():
    with criterion(4, "PSLQ feasible + envy-free + efficient, 500 markets"):
        rng = random.Random(41)
        for _ in range(500):
            market = random_market(rng)
            matrix = run_pslq(market)
            assert is_feasible(matrix, market)
            assert is_envy_free(matrix, market.prefs)[0]
            assert is_ordinally_efficient(matrix, market)[0]


def test_criterion_4b_weak_strategy_proofness_campaign():
    with criterion(4, "PSLQ weak strategy-proofness campaign"):
        start = time.perf_counter()
        rng = random.Random(42)
        for _ in range(100):
            market = random_market(rng, n=rng.randint(1, 5), k=rng.randint(1, 4))
            holds, witness = verify_weak_sp(run_pslq, market)
            assert holds, f"unexpected strict gain: {witness}"

        # fractional lower quotas break weak SP in exactly the documented way
        holds, witness = verify_weak_sp(run_pslq, market_thirds())
        assert not holds
        assert witness.student == 0
        assert witness.relation == STRICT_GAIN
        assert witness.misreport == (1, 0, 2)
        assert witness.truthful_row == PSLQ_THIRDS[0]
        assert witness.misreport_row == PSLQ_THIRDS_MISREPORT[0]
        first = search_manipulation(run_pslq, market_thirds(), 0)
        assert (first.misreport, first.relation) == ((1, 0, 2), STRICT_GAIN)
        assert time.perf_counter() - start < 300.0


def test_criterion_4c_priority_strategy_proofness_campaign():
    with criterion(4, "RPLQ strong strategy-proofness + weak envy-freeness"):
        rng = random.Random(43)
        mechanism = lambda market: run_rplq_exact(market).assignment
        for _ in range(100):
            market = random_market(rng, n=rng.randint(1, 4), k=rng.randint(1, 3))
            holds, witness = verify_weak_sp(mechanism, market, strong=True)
            assert holds, f"profitable misreport: {witness}"
            assert is_weakly_envy_free(mechanism(market), market.prefs)[0]


def test_criterion_5_decomposition():
    with criterion(5, "lottery decomposition of the golden matrices"):
        cases = [
            (market_no_quotas(), RPLQ_NO_QUOTAS),
            (market_lower_quotas(), RPLQ_LOWER_QUOTAS),
            (market_six(), RPLQ_SIX),
            (market_five(), PSLQ_FIVE),
            (market_lower_quotas(), PSLQ_LOWER_QUOTAS),
            (market_lower_quotas_misreport(), PSLQ_LOWER_QUOTAS_MISREPORT),
        ]
        for market, matrix in cases:
            lottery, elapsed = timed(lambda a=matrix, m=market: decompose(a, m))
            assert elapsed < 1.0
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


def test_criterion_6_impossibility_certificate():
    with criterion(6, "impossibility certificate snapshot"):
        report = impossibility_scenario()
        assert report.market == market_thirds()
        assert report.family_parameters == tuple(
            Fraction(j, 12) for j in range(5)
        )
        assert report.first_misreport == (1, 0, 2)
        assert report.unique_after_first == PSLQ_THIRDS_MISREPORT
        assert report.second_misreport == (1, 0, 2)
        assert report.unique_after_second == (
            (Fraction(2, 3), Fraction(0), Fraction(1, 3)),
            (Fraction(0), Fraction(2, 3), Fraction(1, 3)),
        )
        assert report.parameter_forced_by_first == Fraction(1, 3)
        assert report.parameter_forced_by_second == Fraction(0)
        assert report.contradiction


def test_criterion_7_classical_eating_regression():
    with criterion(7, "classical simultaneous-eating regression"):
        rng = random.Random(7)
        for _ in range(100):
            base = random_market(rng)
            market = Market(base.projects, [0] * base.k, [None] * base.k, base.prefs)
            assert run_pslq(market) == classical_ps(market)
