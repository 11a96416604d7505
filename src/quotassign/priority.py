"""Serial priority mechanisms under lower/upper quotas.

`run_priolq` is a serial dictatorship with a menu restriction: students pick
their favorite project in priority order, but once the remaining students are
exactly as many as the unfilled lower-quota seats, menus shrink to the
quota-deficient projects so that every lower quota can still be met.

`run_rplq_exact` averages that mechanism over all n! priority orders with
exact rational weights, by a dynamic program over the states the orders
pass through rather than by running every order. The pass records each
student's arrival table: per menu, the number of orders in which the
student's turn comes with that menu. A student's row is their ranking's
first hit in each menu of the table. No choice of the student's own shapes
the table, so the same table gives the row of any ranking they might
report, which is how the strategy lab scans misreports without rerunning.
`run_rplq_sampled` is the seeded Monte Carlo estimator for larger markets.

The per-order runs share one integer PrioLQ step, `_pick`; the dynamic
program takes the whole menu at a state, `_menu`, by the same rule.
`clone_market` extends any mechanism to multi-unit demand by cloning
students.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .model import InternalError, Market, Matrix, validate_permutation

#: largest n accepted by run_rplq_exact; the dynamic program visits up to
#: 2^n sets of placed students, times the seat counts each set can reach
EXACT_ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class RplqResult:
    """Outcome of the random-priority lottery.

    `assignment` is the averaged n x k matrix. `mode` is "exact" when it
    averages all n! orders, "monte-carlo" when estimated from `samples`
    seeded draws. An exact result also carries `arrivals`: per student, a
    dict from menu (a bitmask of projects) to the number of orders in which
    the student's turn comes with that menu (see run_rplq_exact). It takes
    no part in comparisons.
    """

    assignment: Matrix
    mode: str
    samples: Optional[int] = None
    seed: Optional[int] = None
    arrivals: Optional[tuple] = field(default=None, compare=False, repr=False)


def _integer_quotas(market: Market) -> tuple:
    """The quotas as (lower, upper) tuples of ints.

    Only integer quotas are supported: with fractional pinned quotas no
    deterministic assignment is feasible at all, so the mechanism has no
    well-defined outcome.
    """
    if not market.has_integer_quotas():
        raise ValueError("priority mechanisms require integer quotas")
    return tuple(int(q) for q in market.lower), tuple(int(q) for q in market.upper)


def _pick(ranking, counts, lower, upper, unfilled: int, remaining: int) -> int:
    """One PrioLQ step: the project a student with `ranking` takes.

    `unfilled` is the number of lower-quota seats still empty and
    `remaining` the number of students still to place, this one included.
    While unfilled < remaining the menu is every project below its upper
    quota; once they are equal every remaining seat is needed for a lower
    quota, and the menu shrinks to the projects below their lower quota.
    """
    if unfilled > remaining:
        raise InternalError(
            f"partial assignment infeasible: {unfilled} lower-quota seats"
            f" left for {remaining} students"
        )
    caps = upper if unfilled < remaining else lower
    for p in ranking:
        if counts[p] < caps[p]:
            return p
    raise InternalError("empty PrioLQ menu")


def _priolq_picks(prefs, lower, upper, order):
    """Yield (student, project) for each student of `order` in turn."""
    counts = [0] * len(lower)
    unfilled = sum(lower)
    remaining = len(order)
    for student in order:
        p = _pick(prefs[student], counts, lower, upper, unfilled, remaining)
        if counts[p] < lower[p]:
            unfilled -= 1
        counts[p] += 1
        remaining -= 1
        yield student, p


def run_priolq(market: Market, order: Sequence[int]) -> Matrix:
    """Serial dictatorship with lower-quota menu restriction.

    Students are processed in `order` (a permutation of 0..n-1). At each
    step, if the unfilled lower-quota seats number strictly fewer than the
    students left to place, the current student chooses among all projects
    with remaining upper capacity; otherwise every remaining seat is needed
    for a lower quota and the menu is restricted to the quota-deficient
    projects.

    Returns a deterministic 0/1 assignment matrix, always feasible. Raises
    ValueError unless every quota is an integer.
    """
    lower, upper = _integer_quotas(market)
    order = validate_permutation(order, market.n)
    rows = [[0] * market.k for _ in range(market.n)]
    for student, p in _priolq_picks(market.prefs, lower, upper, order):
        rows[student][p] = 1
    return tuple(tuple(row) for row in rows)


def _menu(counts, lower, upper, unfilled: int, remaining: int) -> int:
    """The PrioLQ menu at a state, as a bitmask of projects.

    The same rule as `_pick`, over every project instead of down one
    ranking: a student's pick at the state is the first project of their
    ranking in the menu, whatever the ranking.
    """
    if unfilled > remaining:
        raise InternalError(
            f"partial assignment infeasible: {unfilled} lower-quota seats"
            f" left for {remaining} students"
        )
    caps = upper if unfilled < remaining else lower
    menu = 0
    for p, (count, cap) in enumerate(zip(counts, caps)):
        if count < cap:
            menu |= 1 << p
    if not menu:
        raise InternalError("empty PrioLQ menu")
    return menu


def _first_hit(ranking, menu: int) -> int:
    """The first project of `ranking` in the bitmask `menu`."""
    for p in ranking:
        if menu >> p & 1:
            return p
    raise InternalError("the ranking misses every project of the menu")


def arrival_totals(arrived: dict, ranking, k: int) -> list:
    """Per project, the number of orders in which a student takes it when
    reporting `ranking`.

    `arrived` is the student's arrival table, as in `RplqResult.arrivals`:
    a dict from menu (a bitmask of projects) to the number of orders in
    which the student's turn comes with that menu. Each menu's orders go to
    the ranking's first project in it.
    """
    totals = [0] * k
    for menu, orders in arrived.items():
        totals[_first_hit(ranking, menu)] += orders
    return totals


def run_rplq_exact(market: Market) -> RplqResult:
    """Average run_priolq over all n! priority orders, exactly.

    A forward dynamic program over the states the orders pass through: a
    state is the set of students placed so far together with the seats
    filled per project, and it carries the number of orders of those
    students that reach it. At each state every unplaced student faces the
    same menu, which the state alone decides; the state's orders times the
    (students left - 1)! completions are the orders in which that student's
    turn comes there. The pass records these per student and menu, the
    arrival table returned as `arrivals`, and each student's row is their
    ranking's first hit in each menu of their table.

    The table holds no choice of the student's own: the states at which a
    student's turn comes are set by the students placed before them. So the
    row a misreport would bring is the misreported ranking's first hits in
    the same table, with no new market and no new pass (the strategy lab
    reads it that way).

    Every entry of the result is a Fraction with denominator dividing n!,
    equal to the plain average over the n! orders. Markets with n >
    EXACT_ENUMERATION_LIMIT are rejected; use run_rplq_sampled for those.
    """
    if market.n > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"n={market.n} exceeds the exact-enumeration limit {EXACT_ENUMERATION_LIMIT};"
            " pass --samples on the command line, or call run_rplq_sampled"
        )
    lower, upper = _integer_quotas(market)
    n, k, prefs = market.n, market.k, market.prefs
    arrivals = tuple({} for _ in range(n))
    layer = {(0, (0,) * k): 1}
    for placed in range(n):
        remaining = n - placed
        completions = math.factorial(remaining - 1)
        following = {}
        for (mask, counts), ways in layer.items():
            unfilled = sum(max(lo - c, 0) for lo, c in zip(lower, counts))
            menu = _menu(counts, lower, upper, unfilled, remaining)
            orders = ways * completions
            for i in range(n):
                if mask >> i & 1:
                    continue
                arrived = arrivals[i]
                arrived[menu] = arrived.get(menu, 0) + orders
                p = _first_hit(prefs[i], menu)
                state = (mask | 1 << i, counts[:p] + (counts[p] + 1,) + counts[p + 1 :])
                following[state] = following.get(state, 0) + ways
        layer = following
    total = math.factorial(n)
    assignment = tuple(
        tuple(Fraction(t, total) for t in arrival_totals(arrived, ranking, k))
        for arrived, ranking in zip(arrivals, prefs)
    )
    return RplqResult(assignment=assignment, mode="exact", arrivals=arrivals)


def run_rplq_sampled(market: Market, samples: int, seed: int) -> RplqResult:
    """Monte Carlo estimate of the random-priority lottery.

    Draws `samples` uniform priority orders from a deterministic generator
    seeded with `seed` (Fisher-Yates shuffles) and averages the outcomes.
    Entries are exact rationals with denominator dividing `samples`, rows
    sum to exactly 1, and results are reproducible for a fixed seed.
    """
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValueError(f"samples must be at least 1 and an int, not {samples!r}")
    lower, upper = _integer_quotas(market)
    rng = random.Random(seed)
    totals = [[0] * market.k for _ in range(market.n)]
    order = list(range(market.n))
    for _ in range(samples):
        rng.shuffle(order)
        for student, p in _priolq_picks(market.prefs, lower, upper, order):
            totals[student][p] += 1
    # one Fraction per distinct count, shared by every entry holding it
    shares = {t: Fraction(t, samples) for t in set(chain.from_iterable(totals))}
    assignment = tuple(tuple(map(shares.__getitem__, row)) for row in totals)
    return RplqResult(assignment=assignment, mode="monte-carlo", samples=samples, seed=seed)


def clone_market(market: Market, q: int) -> tuple:
    """Clone every student q times, for multi-unit assignment.

    Clone j of student i sits at row i*q + j of the cloned market and
    inherits the student's ranking. Uncapped projects stay uncapped, so
    they can take all q*n clones. Requires sum(l) <= q*n <= sum(u) so the
    cloned market is feasible.

    Returns (cloned_market, aggregate) where aggregate maps any matrix over
    the cloned students back to an n x k matrix by summing clone rows; rows
    of the aggregate of a feasible assignment each sum to q.
    """
    if isinstance(q, bool) or not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be at least 1 and an int, not {q!r}")
    caps = market.declared_upper()
    if not sum(market.lower) <= q * market.n or (
        None not in caps and q * market.n > sum(caps)
    ):
        raise ValueError(
            f"quotas cannot host q*n = {q * market.n} unit demands"
        )
    prefs = []
    for ranking in market.prefs:
        prefs.extend([ranking] * q)
    cloned = Market(market.projects, market.lower, caps, prefs)

    def aggregate(mat: Matrix) -> Matrix:
        if len(mat) != q * market.n:
            raise ValueError(f"expected {q * market.n} rows, got {len(mat)}")
        return tuple(
            tuple(sum(mat[i * q + j][p] for j in range(q)) for p in range(len(mat[0])))
            for i in range(market.n)
        )

    return cloned, aggregate
