"""Serial priority mechanisms under lower/upper quotas.

`run_priolq` is a serial dictatorship with a menu restriction: students pick
their favorite project in priority order, but once the remaining students are
exactly as many as the unfilled lower-quota seats, menus shrink to the
quota-deficient projects so that every lower quota can still be met.

`run_rplq_exact` averages that mechanism over all n! priority orders with
exact rational weights, by a dynamic program over the states the orders
pass through rather than by running every order; `run_rplq_sampled` is the
seeded Monte Carlo estimator for larger markets. All three share one
integer PrioLQ step, `_pick`. `clone_market` extends any mechanism to
multi-unit demand by cloning students.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
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
    seeded draws.
    """

    assignment: Matrix
    mode: str
    samples: Optional[int] = None
    seed: Optional[int] = None


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


def run_rplq_exact(market: Market, limit: int = EXACT_ENUMERATION_LIMIT) -> RplqResult:
    """Average run_priolq over all n! priority orders, exactly.

    A forward dynamic program over the states the orders pass through: a
    state is the set of students placed so far together with the seats
    filled per project, and it carries the number of orders of those
    students that reach it. From each state every unplaced student takes
    their PrioLQ pick, which the state alone decides; that pick is theirs
    in every completion of those orders, (students left - 1)! of them.

    Every entry of the result is a Fraction with denominator dividing n!,
    equal to the plain average over the n! orders. Markets with n >
    `limit` are rejected; use run_rplq_sampled for those.
    """
    if market.n > limit:
        raise ValueError(
            f"n={market.n} exceeds the exact-enumeration limit {limit};"
            " use run_rplq_sampled instead"
        )
    lower, upper = _integer_quotas(market)
    n, prefs = market.n, market.prefs
    totals = [[0] * market.k for _ in range(n)]
    layer = {(0, (0,) * market.k): 1}
    for placed in range(n):
        remaining = n - placed
        completions = math.factorial(remaining - 1)
        following = {}
        for (mask, counts), ways in layer.items():
            unfilled = sum(max(lo - c, 0) for lo, c in zip(lower, counts))
            for i in range(n):
                if mask >> i & 1:
                    continue
                p = _pick(prefs[i], counts, lower, upper, unfilled, remaining)
                totals[i][p] += ways * completions
                state = (mask | 1 << i, counts[:p] + (counts[p] + 1,) + counts[p + 1 :])
                following[state] = following.get(state, 0) + ways
        layer = following
    weight = Fraction(1, math.factorial(n))
    assignment = tuple(tuple(weight * t for t in row) for row in totals)
    return RplqResult(assignment=assignment, mode="exact")


def run_rplq_sampled(market: Market, samples: int, seed: int) -> RplqResult:
    """Monte Carlo estimate of the random-priority lottery.

    Draws `samples` uniform priority orders from a deterministic generator
    seeded with `seed` (Fisher-Yates shuffles) and averages the outcomes.
    Entries are exact rationals with denominator dividing `samples`, rows
    sum to exactly 1, and results are reproducible for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    lower, upper = _integer_quotas(market)
    rng = random.Random(seed)
    totals = [[0] * market.k for _ in range(market.n)]
    order = list(range(market.n))
    for _ in range(samples):
        rng.shuffle(order)
        for student, p in _priolq_picks(market.prefs, lower, upper, order):
            totals[student][p] += 1
    assignment = tuple(
        tuple(Fraction(t, samples) for t in row) for row in totals
    )
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
    if q < 1:
        raise ValueError("q must be at least 1")
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
