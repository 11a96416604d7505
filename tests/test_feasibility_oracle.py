"""The distinct-entry feasibility check and column sums against the
per-entry loops they replaced (tests/oracles.py): the same violation
strings in the same order, the same column-sum Fractions and the same
ValueErrors, on random matrices whose equal values are sometimes one shared
object and sometimes several; and the sampled RPLQ matrix entry by entry."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quotassign.axioms import is_ordinally_efficient
from quotassign.eating import run_pslq
from quotassign.marketio import GeneratorConfig, generate_market, parse_assignment, serialize_assignment
from quotassign.model import Market, column_sums, feasibility_violations
from quotassign.priority import run_rplq_sampled

from oracles import column_sums_by_entries, feasibility_by_entries, priolq_from_definition
from test_priority_oracles import priority_markets

#: entry values: zero as an int and as a Fraction, units, shares, negative
#: entries and entries above 1
VALUES = (
    0, Fraction(0), 1, Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
    Fraction(1, 4), Fraction(3, 4), Fraction(1, 6), Fraction(5, 6), -1, Fraction(-1, 2),
    2, Fraction(3, 2), Fraction(7, 5),
)


def _copy(value):
    """An equal entry that is a separate object (small ints are cached)."""
    return Fraction(value.numerator, value.denominator) if isinstance(value, Fraction) else value


@st.composite
def rows_summing_to_one(draw, k):
    """A row of k shares of one denominator that sum to 1."""
    d = draw(st.integers(1, 6))
    units = [0] * k
    for p in draw(st.lists(st.integers(0, k - 1), min_size=d, max_size=d)):
        units[p] += 1
    return [Fraction(u, d) for u in units]


@st.composite
def markets_and_matrices(draw, max_n=7, max_k=5):
    """A market and an n x k matrix: rows that sum to 1, some of them
    edited with values from VALUES (so rows and columns may miss their
    targets), entries shared or copied, and quotas drawn around the
    column sums so that columns land inside and outside their windows."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    rows = [draw(rows_summing_to_one(k)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
        rows[i][j] = draw(st.sampled_from(VALUES))
    # repeat some rows outright: equal rows holding the same objects
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))] = rows[draw(st.integers(0, n - 1))]
    shared = {}
    matrix = tuple(
        tuple(
            shared.setdefault(x, x) if draw(st.booleans()) else _copy(x)
            for x in row
        )
        for row in rows
    )
    sums = column_sums_by_entries(matrix)
    lower = [max(Fraction(0), s + draw(st.sampled_from((-1, 0, Fraction(1, 2))))) for s in sums]
    upper = [
        None if draw(st.booleans()) else max(lo, s + draw(st.sampled_from((-1, 0, 1))))
        for lo, s in zip(lower, sums)
    ]
    if sum(lower) > n:
        lower = [0] * k
    if sum(n if u is None else u for u in upper) < n:
        upper[0] = None
    prefs = [list(range(k))] * n
    return Market([f"p{j}" for j in range(k)], lower, upper, prefs), matrix


def _same_fractions(got, want):
    assert [(type(x), x) for x in got] == [(type(x), x) for x in want]


@settings(max_examples=400, deadline=None)
@given(case=markets_and_matrices())
def test_feasibility_equals_the_per_entry_loop(case):
    market, R = case
    assert feasibility_violations(R, market) == feasibility_by_entries(R, market)
    _same_fractions(column_sums(R), column_sums_by_entries(R))
    # rows as lists, as the full-matrix eating loop keeps them
    _same_fractions(column_sums([list(row) for row in R]), column_sums_by_entries(R))


@settings(max_examples=150, deadline=None)
@given(case=markets_and_matrices(), data=st.data())
def test_float_and_bool_entries_raise_the_same_error(case, data):
    market, R = case
    i = data.draw(st.integers(0, market.n - 1))
    j = data.draw(st.integers(0, market.k - 1))
    culprit = data.draw(st.sampled_from((0.5, 1.0, 0.0, True, False)))
    rows = [list(row) for row in R]
    rows[i][j] = culprit
    bad = tuple(map(tuple, rows))
    with pytest.raises(ValueError) as want:
        feasibility_by_entries(bad, market)
    with pytest.raises(ValueError) as got:
        feasibility_violations(bad, market)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        column_sums(bad)


def test_column_sums_reject_floats_and_bools():
    # both were summed before: (0.5, 0.5) and (Fraction(1), Fraction(0))
    with pytest.raises(ValueError, match="student 1, project 1 is 0.5, not an int or a Fraction"):
        column_sums(((0.5, 0.5),))
    with pytest.raises(ValueError, match="student 1, project 1 is True, not an int or a Fraction"):
        column_sums(((True, False),))
    with pytest.raises(ValueError, match="student 2, project 2 is 0.25"):
        column_sums(((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), 0.25)))


def test_column_sums_reject_ragged_rows():
    with pytest.raises(ValueError, match="rows differ in length"):
        column_sums(((1, 0), (1,)))
    assert column_sums(()) == ()
    _same_fractions(column_sums(((0, 0),)), [Fraction(0), Fraction(0)])


def test_feasibility_on_distinct_large_denominators():
    # every entry its own denominator: the row totals and column sums stay
    # exact, and a quota one part in 10**60 too low is still seen
    rng = random.Random(7)
    ds = [rng.randrange(10**59, 10**60) for _ in range(40)]
    R = tuple((Fraction(1, d), Fraction(d - 1, d), 0) for d in ds)
    total = sum(Fraction(1, d) for d in ds)
    m = Market(["a", "b", "c"], [0, 0, 0], [None, None, None], [[0, 1, 2]] * 40)
    assert feasibility_violations(R, m) == feasibility_by_entries(R, m) == []
    assert column_sums(R) == (total, 40 - total, Fraction(0))
    capped = Market(["a", "b", "c"], [0, 0, 0], [total - Fraction(1, 10**60), None, None], [[0, 1, 2]] * 40)
    assert feasibility_violations(R, capped) == feasibility_by_entries(R, capped)
    assert feasibility_violations(R, capped)[0].startswith("column a sum")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("style", ["integer-tight", "integer-loose"])
def test_feasibility_and_audit_on_parsed_generated_markets(seed, style):
    # the matrices the command line reads: one object per distinct string
    market = generate_market(GeneratorConfig(n=60, k=8, seed=seed, quota_style=style))
    R = parse_assignment(serialize_assignment(run_pslq(market)), market)
    assert feasibility_violations(R, market) == feasibility_by_entries(R, market) == []
    _same_fractions(column_sums(R), column_sums_by_entries(R))
    assert is_ordinally_efficient(R, market) == (True, None)
    # one student's row moved onto their last choice
    worst = market.prefs[0][-1]
    moved = ((*(Fraction(int(p == worst)) for p in range(market.k)),), *R[1:])
    assert feasibility_violations(moved, market) == feasibility_by_entries(moved, market)


@settings(max_examples=40, deadline=None)
@given(market=priority_markets(), samples=st.integers(1, 12), seed=st.integers(0, 10**6))
def test_sampled_rplq_entries_are_counts_over_samples(market, samples, seed):
    # the sampler's Fisher-Yates orders, counted one by one
    rng = random.Random(seed)
    order = list(range(market.n))
    counts = [[0] * market.k for _ in range(market.n)]
    for _ in range(samples):
        rng.shuffle(order)
        for i, row in enumerate(priolq_from_definition(market, order)):
            for p, x in enumerate(row):
                counts[i][p] += x
    result = run_rplq_sampled(market, samples=samples, seed=seed).assignment
    for got, row in zip(result, counts):
        _same_fractions(got, [Fraction(t, samples) for t in row])
