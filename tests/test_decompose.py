import importlib
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from quotassign.decompose import Lottery, decompose
from quotassign.eating import run_pslq
from quotassign.model import (
    InternalError,
    Market,
    assigned_project,
    column_sums,
    is_feasible,
    is_integral,
)
from quotassign.priority import run_priolq

from conftest import random_market
from goldens import (
    PSLQ_FIVE,
    PSLQ_LOWER_QUOTAS,
    RPLQ_LOWER_QUOTAS,
    RPLQ_SIX,
    market_five,
    market_lower_quotas,
    market_six,
    market_thirds,
    mat,
)
from oracles import expanded_terms, picks_to_matrix

# the package's `decompose` attribute is the function, not the module
decompose_module = importlib.import_module("quotassign.decompose")


def fractional_entries(R):
    return sum(1 for row in R for r in row if r != int(r))


def fractional_columns(R):
    return sum(1 for s in column_sums(R) if s != int(s))


def check_lottery(lottery, R, market):
    assert lottery.expectation() == R
    assert len(lottery) <= fractional_entries(R) + fractional_columns(R) + 1
    for weight, term in expanded_terms(lottery):
        assert 0 < weight <= 1
        assert is_integral(term)
        assert is_feasible(term, market)


def first_extreme_point(R, market):
    """The first term's deterministic assignment, as a 0/1 matrix: the
    extreme point taken from R's own column windows."""
    return picks_to_matrix(decompose(R, market).terms[0][1], market.k)


def test_integral_input_gives_singleton():
    m = market_lower_quotas()
    mu = run_priolq(m, range(4))
    lottery = decompose(mu, m)
    assert lottery.terms == ((Fraction(1), tuple(assigned_project(row) for row in mu)),)
    assert expanded_terms(lottery) == ((Fraction(1), mu),)


def test_extract_from_integral_matrix_is_identity():
    m = market_lower_quotas()
    mu = run_priolq(m, range(4))
    assert first_extreme_point(mu, m) == mu


def test_extract_from_half_half_cycle():
    m = Market(["a", "b"], [0, 0], [1, 1], [["a", "b"], ["b", "a"]])
    R = mat("1/2 1/2", "1/2 1/2")
    X = first_extreme_point(R, m)
    assert X in (mat("1 0", "0 1"), mat("0 1", "1 0"))


def test_extract_respects_integral_column_windows():
    # all three column sums of this matrix are already integers, so the
    # extracted point has no slack: columns must come out (1, 2, 1)
    m = market_lower_quotas()
    X = first_extreme_point(PSLQ_LOWER_QUOTAS, m)
    assert is_integral(X)
    assert column_sums(X) == (1, 2, 1)
    for xrow, rrow in zip(X, PSLQ_LOWER_QUOTAS):
        assert all(r > 0 for x, r in zip(xrow, rrow) if x == 1)
        assert sum(xrow) == 1


def test_extract_respects_fractional_column_windows():
    # columns of the five-student matrix sum to (3/2, 3/2, 2)
    m = market_five()
    X = first_extreme_point(PSLQ_FIVE, m)
    cols = column_sums(X)
    assert 1 <= cols[0] <= 2
    assert 1 <= cols[1] <= 2
    assert cols[2] == 2
    assert X[4] == (0, 0, 1)  # the sure thing is preserved


def test_decompose_five_students():
    m = market_five()
    lottery = decompose(PSLQ_FIVE, m)
    check_lottery(lottery, PSLQ_FIVE, m)
    for _, picks in lottery.terms:
        assert picks[4] == 2


def test_decompose_lower_quota_eating_output():
    m = market_lower_quotas()
    lottery = decompose(PSLQ_LOWER_QUOTAS, m)
    check_lottery(lottery, PSLQ_LOWER_QUOTAS, m)
    for _, term in expanded_terms(lottery):
        assert column_sums(term) == (1, 2, 1)


def test_decompose_random_priority_outputs():
    for market, R in [
        (market_lower_quotas(), RPLQ_LOWER_QUOTAS),
        (market_six(), RPLQ_SIX),
    ]:
        check_lottery(decompose(R, market), R, market)


def test_permutation_multiset_is_also_a_lottery():
    # the mechanism's own definition gives an alternative decomposition:
    # all 4! priority runs with equal weight
    m = market_lower_quotas()
    counts = Counter(
        run_priolq(m, order) for order in itertools.permutations(range(4))
    )
    lottery = Lottery(
        m.k,
        tuple(
            (Fraction(c, 24), tuple(assigned_project(row) for row in mu))
            for mu, c in sorted(counts.items())
        ),
    )
    assert lottery.expectation() == RPLQ_LOWER_QUOTAS
    for _, term in expanded_terms(lottery):
        assert is_feasible(term, m)


def test_decompose_is_deterministic():
    m = market_five()
    assert decompose(PSLQ_FIVE, m) == decompose(PSLQ_FIVE, m)


def test_decompose_rejects_fractional_quotas():
    m = market_thirds()
    R = mat("2/3 0 1/3", "0 2/3 1/3")
    with pytest.raises(ValueError, match="integer quotas"):
        decompose(R, m)


def test_decompose_rejects_infeasible_assignment():
    m = market_lower_quotas()
    with pytest.raises(ValueError, match="infeasible"):
        decompose(mat("1 0 0", "1 0 0", "1 0 0", "1 0 0"), m)


def test_lottery_validates_weights():
    term = (0, 1)
    with pytest.raises(ValueError, match="sum"):
        Lottery(2, ((Fraction(1, 2), term),))
    with pytest.raises(ValueError, match="positive"):
        Lottery(2, ((Fraction(0), term), (Fraction(1), term)))
    with pytest.raises(ValueError, match="term"):
        Lottery(2, ())
    # a float weight used to pass and break expectation(); a bool is no weight
    for terms in (((0.5, term), (0.5, term)), ((1.0, term),), ((True, term),)):
        with pytest.raises(ValueError, match="ints or Fractions"):
            Lottery(2, terms)
    assert Lottery(2, ((1, term),)).expectation() == mat("1 0", "0 1")


def test_lottery_validates_picks():
    term = (0, 1)
    for other in ((0,), (0, 1, 0)):
        with pytest.raises(ValueError, match="same number of students"):
            Lottery(2, ((Fraction(1, 2), term), (Fraction(1, 2), other)))
    for other in ((0, 2), (-1, 0), (True, 0), (0, 1.0), (0, "b"), (0, None)):
        with pytest.raises(ValueError, match=r"ints in range\(2\)"):
            Lottery(2, ((Fraction(1, 2), term), (Fraction(1, 2), other)))
    assert Lottery(3, ((Fraction(1, 2), term), (Fraction(1, 2), (2, 1)))).expectation() == mat(
        "1/2 0 1/2", "0 1 0"
    )


def test_decompose_random_eating_outputs(rng):
    for _ in range(40):
        m = random_market(rng)
        R = run_pslq(m)
        check_lottery(decompose(R, m), R, m)


def test_decompose_checks_feasibility_once(monkeypatch):
    calls = []
    original = decompose_module.feasibility_violations
    monkeypatch.setattr(
        decompose_module,
        "feasibility_violations",
        lambda R, market: calls.append(1) or original(R, market),
    )
    m = market_five()
    assert len(decompose(PSLQ_FIVE, m)) > 1
    assert len(calls) == 1


def test_peel_that_leaves_a_remainder_is_rejected(monkeypatch):
    # a first peel taking all the mass leaves the rest of PSLQ_FIVE behind
    monkeypatch.setattr(decompose_module, "_peel_weight", lambda rest, mass, *_: mass)
    with pytest.raises(InternalError, match="do not add up"):
        decompose(PSLQ_FIVE, market_five())
