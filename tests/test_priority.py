import itertools
import math
from fractions import Fraction

import pytest

from quotassign.model import Market, assigned_project, is_feasible
from quotassign.priority import (
    EXACT_ENUMERATION_LIMIT,
    clone_market,
    run_priolq,
    run_rplq_exact,
    run_rplq_sampled,
)

from goldens import (
    RPLQ_LOWER_QUOTAS,
    RPLQ_NO_QUOTAS,
    RPLQ_SIX,
    market_lower_quotas,
    market_no_quotas,
    market_six,
    market_thirds,
)


def picks(market, order):
    """Project names chosen per student, in student order."""
    outcome = run_priolq(market, order)
    return tuple(market.projects[assigned_project(row)] for row in outcome)


def test_priolq_identity_order_on_quota_market():
    # hand trace: at step 2 the unfilled lower-quota mass (3) equals the
    # students left (3), so student 2's menu shrinks to {b, c} and she takes c
    assert picks(market_lower_quotas(), [0, 1, 2, 3]) == ("a", "c", "b", "b")


def test_priolq_reversed_blocks_order():
    # students 3,4 take b freely; at the last step only c can fill its quota
    assert picks(market_lower_quotas(), [2, 3, 0, 1]) == ("a", "c", "b", "b")


def test_priolq_all_lower_zero_is_serial_dictatorship():
    m = market_no_quotas()
    for order in itertools.permutations(range(4)):
        outcome = run_priolq(m, order)
        # without lower quotas everyone gets their top choice here (u = n)
        assert outcome == RPLQ_NO_QUOTAS


def test_priolq_always_feasible():
    m = market_lower_quotas()
    for order in itertools.permutations(range(4)):
        assert is_feasible(run_priolq(m, order), m)
    six = market_six()
    for order in itertools.permutations(range(6)):
        assert is_feasible(run_priolq(six, order), six)


def test_priolq_rejects_fractional_quotas():
    with pytest.raises(ValueError, match="integer quotas"):
        run_priolq(market_thirds(), [0, 1])


def test_priolq_rejects_bad_order():
    with pytest.raises(ValueError):
        run_priolq(market_no_quotas(), [0, 1, 2, 2])


@pytest.mark.parametrize(
    "order",
    [
        [0.0, 1.0, 2.0, 3.0],  # floats equal to ints are no student indices
        [0, "1", 2, 3],  # a string does not sort against ints
        [True, False, 2, 3],  # True == 1 and False == 0, but a bool is no index
    ],
)
def test_priolq_rejects_an_order_of_non_ints(order):
    with pytest.raises(ValueError, match="holds a non-int entry"):
        run_priolq(market_no_quotas(), order)


def test_rplq_exact_no_quotas():
    result = run_rplq_exact(market_no_quotas())
    assert result.assignment == RPLQ_NO_QUOTAS
    assert result.mode == "exact"


def test_rplq_exact_lower_quotas():
    assert run_rplq_exact(market_lower_quotas()).assignment == RPLQ_LOWER_QUOTAS


def test_rplq_exact_six_students():
    assert run_rplq_exact(market_six()).assignment == RPLQ_SIX


def test_rplq_exact_matches_direct_enumeration():
    # oracle identity: re-enumerate all orders here and average independently
    m = market_lower_quotas()
    total = [[Fraction(0)] * m.k for _ in range(m.n)]
    count = 0
    for order in itertools.permutations(range(m.n)):
        outcome = run_priolq(m, order)
        count += 1
        for i in range(m.n):
            for j in range(m.k):
                total[i][j] += outcome[i][j]
    mean = tuple(tuple(x / count for x in row) for row in total)
    assert run_rplq_exact(m).assignment == mean
    assert count == math.factorial(m.n)


def test_rplq_exact_denominators_divide_factorial():
    result = run_rplq_exact(market_six())
    for row in result.assignment:
        for x in row:
            assert math.factorial(6) % x.denominator == 0


def test_rplq_exact_size_guard():
    prefs = [["a", "b"], ["b", "a"]] * 5  # n = 10
    m = Market(["a", "b"], [0, 0], [None, None], prefs)
    assert m.n > EXACT_ENUMERATION_LIMIT
    with pytest.raises(ValueError, match="run_rplq_sampled"):
        run_rplq_exact(m)


def test_rplq_sampled_reproducible_and_close():
    m = market_lower_quotas()
    a = run_rplq_sampled(m, samples=20000, seed=42)
    b = run_rplq_sampled(m, samples=20000, seed=42)
    assert a.assignment == b.assignment
    assert a.mode == "monte-carlo" and a.samples == 20000 and a.seed == 42
    exact = run_rplq_exact(m).assignment
    for row_est, row_exact in zip(a.assignment, exact):
        assert sum(row_est) == 1
        for x, y in zip(row_est, row_exact):
            assert abs(x - y) < Fraction(1, 100)


def test_rplq_sampled_order_independent_market():
    # every order gives the same outcome, so one sample nails it
    result = run_rplq_sampled(market_no_quotas(), samples=10, seed=7)
    assert result.assignment == RPLQ_NO_QUOTAS


def test_rplq_sampled_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples"):
        run_rplq_sampled(market_no_quotas(), samples=0, seed=1)


def test_clone_identity():
    m = market_lower_quotas()
    cloned, aggregate = clone_market(m, 1)
    assert cloned == m
    assert aggregate(RPLQ_LOWER_QUOTAS) == RPLQ_LOWER_QUOTAS


def test_clone_two_units():
    m = Market(
        ["a", "b"],
        [1, 1],
        [2, 2],
        [["a", "b"], ["b", "a"]],
    )
    cloned, aggregate = clone_market(m, 2)
    assert cloned.n == 4
    assert cloned.prefs == (m.prefs[0], m.prefs[0], m.prefs[1], m.prefs[1])
    outcome = run_rplq_exact(cloned).assignment
    assert is_feasible(outcome, cloned)
    total = aggregate(outcome)
    for row in total:
        assert sum(row) == 2


def test_clone_infeasible_q():
    m = Market(["a", "b"], [0, 0], [1, 1], [["a", "b"], ["b", "a"]])
    with pytest.raises(ValueError, match="unit demands"):
        clone_market(m, 2)


def test_clone_keeps_projects_uncapped():
    m = Market(["a", "b", "c"], [0, 1, 0], [None, 2, None], [["a", "b", "c"]] * 3)
    cloned, aggregate = clone_market(m, 2)
    assert cloned.uncapped == (True, False, True)
    assert cloned.upper == (6, 2, 6)
    # every clone that can have a takes it; the lower quota of b takes one
    assert aggregate(run_rplq_exact(cloned).assignment) == (
        (Fraction(5, 3), Fraction(1, 3), 0),
    ) * 3
