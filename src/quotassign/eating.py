"""Simultaneous-eating mechanism under lower and upper quotas (PSLQ).

Students eat probability mass from their favorite *active* project at unit
speed over the time interval [0, 1]. The active set is PrioLQ's menu rule
(see `priority._pick`) on eaten masses: every project below its upper quota
while the feasibility reserve

    g(t) = n*(1 - t) - sum_p max(l(p) - omega_p(t), 0)

is strictly positive (omega_p is the project's consumed mass), and only the
projects below their lower quota once it is not. The reserve counts how
much eating time is left beyond what the unfilled lower quotas still
require; once it hits zero, all remaining eating must go to quota-deficient
projects.

The run is a sequence of phases with a frozen eating pattern. A phase ends
when either some project exhausts its upper quota, or the reserve is about
to go negative (the "critical shift"). Within a frozen pattern g is
piecewise linear, concave and non-increasing, so the critical time is one
walk over the times at which eaten projects fill their lower quotas. After
each event the active set is recomputed from the rule above, and the
projects leaving it are the ones the event closed, also when an
exhaustion and a shift coincide.

The run keeps no n x k matrix while it eats. Every event depends only on
the k eaten masses omega_p and on how many students eat each project, so
the state is the vector omega, advanced by (eaters of p) * (phase length)
per phase, plus, per student, the project being eaten and the time they
started on it. The active set only shrinks, so a student moves only when
their project closes, and each student's pointer into their ranking only
moves forward. A phase therefore works on the k projects and on the
students who move, not on the n x k matrix (the trace still copies the
n-entry eating pattern once per phase). A closed project never reopens, so
each student eats each project in one interval, and the entry of the
assignment is that interval's length: the phase lengths telescope to the
same exact Fraction.

All arithmetic is exact; event times, consumption, and the emitted trace
are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import InternalError, Market, Matrix

#: phase-ending event kinds
EXHAUSTION = "exhaustion"
CRITICAL_SHIFT = "critical-shift"
EPOCH_END = "epoch-end"


@dataclass(frozen=True)
class EatingPhase:
    """One maximal interval with a frozen eating pattern.

    `event` is what ended the phase: EXHAUSTION (some project hit its upper
    quota), CRITICAL_SHIFT (the feasibility reserve hit zero and projects at
    or above their lower quota closed), or EPOCH_END (time ran out at t = 1;
    projects still active then close without hitting a bound).
    `closed` lists the projects leaving the active set at `end`. An
    exhaustion at exactly t = 1 also ends the run, and its `closed` lists
    only the exhausted projects: the other active ones are then in no
    phase's `closed`.
    """

    start: Fraction
    end: Fraction
    active: tuple
    pattern: tuple
    event: str
    closed: tuple


@dataclass(frozen=True)
class EatingTrace:
    phases: tuple
    critical_time: Optional[Fraction]  # first critical-shift time, if any


def _reserve(t: Fraction, omega: Sequence[Fraction], market: Market) -> Fraction:
    """g(t) = n*(1 - t) - sum_p max(l(p) - omega_p, 0)."""
    return market.n * (1 - t) - sum(
        lo - eaten for lo, eaten in zip(market.lower, omega) if eaten < lo
    )


def _active_set(t: Fraction, omega: Sequence[Fraction], market: Market) -> frozenset:
    """PrioLQ's menu rule: below the upper quota while the reserve is
    positive, below the lower quota once it is not."""
    caps = market.upper if _reserve(t, omega, market) > 0 else market.lower
    return frozenset(p for p in range(market.k) if omega[p] < caps[p])


def _critical_event(
    t: Fraction, omega: Sequence[Fraction], counts: Sequence[int], market: Market
) -> Optional[Fraction]:
    """First time in (t, 1) where the reserve would turn negative, if any.

    Under the frozen pattern g falls at rate n minus the eaters of
    quota-deficient projects, and a project stops counting once it fills
    its lower quota. Walking the fills in time order, g is concave and
    non-increasing, so one check at the phase start covers every segment.
    Return the first zero of g with strictly negative outgoing slope.
    """
    budget = 1 - t
    fills = sorted(
        ((market.lower[p] - omega[p]) / count, count)
        for p, count in enumerate(counts)
        if count and omega[p] < market.lower[p]
    )
    g = _reserve(t, omega, market)
    slope = sum(count for _, count in fills) - market.n
    if g < 0 or slope > 0:
        raise InternalError(f"eating reserve at t={t} is {g} with slope {slope}")
    start = Fraction(0)
    for end, count in [fill for fill in fills if fill[0] < budget] + [(budget, 0)]:
        if slope < 0:
            crossing = start + g / -slope
            if crossing < end:
                return t + crossing
        g += slope * (end - start)
        slope -= count
        start = end
    return None


def _end_phase(
    t: Fraction, omega: list, counts: Sequence[int], active: frozenset, market: Market
) -> tuple:
    """When and how the phase starting at t ends, given the eaten masses
    omega and the number of students eating each project; advances omega
    in place to t_next.

    Returns (t_next, kind): the exact event time and its kind (EXHAUSTION,
    CRITICAL_SHIFT, or EPOCH_END when the run simply reaches t = 1). At an
    exhaustion time equal to the critical time, the critical shift takes
    precedence.
    """
    # every student eats some active project, so the min has an argument
    exhaust_t = min(t + (market.upper[p] - omega[p]) / counts[p] for p in active if counts[p])
    critical_t = _critical_event(t, omega, counts, market)
    if critical_t is not None and critical_t <= exhaust_t:
        t_next, kind = critical_t, CRITICAL_SHIFT
    elif exhaust_t <= 1:
        t_next, kind = exhaust_t, EXHAUSTION
    else:
        t_next, kind = Fraction(1), EPOCH_END

    duration = t_next - t
    for p, count in enumerate(counts):
        if count:
            omega[p] += count * duration
    return t_next, kind


def run_pslq_traced(market: Market) -> tuple:
    """Run the eating mechanism and return (assignment, trace).

    The trace lists every phase with exact endpoints, the active set and
    eating pattern, the event ending the phase, and the projects closing;
    replaying its linear segments reproduces the assignment exactly.
    """
    n, k, prefs = market.n, market.k, market.prefs
    zero = Fraction(0)
    t = zero
    omega = [zero] * k
    active = _active_set(t, omega, market)
    # student i eats prefs[i][position[i]] (= eating[i]) since start[i]
    position = [0] * n
    eating = [0] * n
    start = [zero] * n
    eaters = [[] for _ in range(k)]
    rows = [[zero] * k for _ in range(n)]
    movers = range(n)
    phases = []
    critical_time = None
    while t < 1:
        for i in movers:
            ranking = prefs[i]
            j = position[i]
            while ranking[j] not in active:
                j += 1
            position[i] = j
            eating[i] = ranking[j]
            eaters[ranking[j]].append(i)
        t_next, kind = _end_phase(t, omega, [len(e) for e in eaters], active, market)
        if t_next < 1:
            still_active = _active_set(t_next, omega, market)
            if not still_active < active:
                raise InternalError(f"eating event at t={t_next} closed no project")
            closed = active - still_active
        else:
            # every eater records their entry, but an exhaustion lists only
            # the exhausted projects as closed
            still_active = frozenset()
            closed = active if kind == EPOCH_END else frozenset(
                p for p in active if omega[p] == market.upper[p]
            )
        phases.append(
            EatingPhase(
                start=t,
                end=t_next,
                active=tuple(sorted(active)),
                pattern=tuple(eating),
                event=kind,
                closed=tuple(sorted(closed)),
            )
        )
        if kind == CRITICAL_SHIFT and critical_time is None:
            critical_time = t_next
        # only the eaters of closed projects record their entry and move on
        movers = []
        for p in active - still_active:
            for i in eaters[p]:
                rows[i][p] = t_next - start[i]
                start[i] = t_next
            movers += eaters[p]
            eaters[p] = []
        active = still_active
        t = t_next
    assignment = tuple(tuple(row) for row in rows)
    return assignment, EatingTrace(phases=tuple(phases), critical_time=critical_time)


def run_pslq(market: Market) -> Matrix:
    """The eating mechanism's random assignment (see run_pslq_traced)."""
    assignment, _ = run_pslq_traced(market)
    return assignment
