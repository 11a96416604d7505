"""Simultaneous-eating mechanism under lower and upper quotas (PSLQ).

Students eat probability mass from their favorite *active* project at unit
speed over the time interval [0, 1]. A project is active while it either
still needs mass to reach its lower quota, or has spare upper capacity and
the feasibility reserve

    g(t) = n*(1 - t) - sum_p max(l(p) - omega_p(t), 0)

is strictly positive (omega_p is the project's consumed mass). The reserve
counts how much eating time is left beyond what the unfilled lower quotas
still require; once it hits zero, all remaining eating must go to
quota-deficient projects.

The run is a sequence of phases with a frozen eating pattern. A phase ends
when either some project exhausts its upper quota, or the reserve is about
to go negative (the "critical shift", at which every project already at or
above its lower quota closes). Within a frozen pattern g is piecewise
linear and non-increasing, so the critical time is computed exactly as the
first zero of g with strictly negative outgoing slope. After each event the
active set is recomputed directly from the definition above, which also
resolves simultaneous exhaust-and-shift events (the reserve clause fails,
so exactly the quota-deficient projects survive).

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
PHASE_EVENTS = (EXHAUSTION, CRITICAL_SHIFT, EPOCH_END)


@dataclass(frozen=True)
class EatingPhase:
    """One maximal interval with a frozen eating pattern.

    `event` is what ended the phase: EXHAUSTION (some project hit its upper
    quota), CRITICAL_SHIFT (the feasibility reserve hit zero and projects at
    or above their lower quota closed), or EPOCH_END (time ran out at t = 1;
    projects still active then close without hitting a bound).
    `closed` lists the projects leaving the active set at `end`.
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


def _residuals(omega: Sequence[Fraction], market: Market) -> list:
    return [max(market.lower[p] - omega[p], Fraction(0)) for p in range(market.k)]


def _active_set(t: Fraction, omega: Sequence[Fraction], market: Market) -> frozenset:
    reserve_open = market.n * (1 - t) > sum(_residuals(omega, market))
    active = set()
    for p in range(market.k):
        if omega[p] < market.lower[p]:
            active.add(p)
        elif omega[p] < market.upper[p] and reserve_open:
            active.add(p)
    return frozenset(active)


def _critical_event(
    t: Fraction, omega: Sequence[Fraction], counts: Sequence[int], market: Market
) -> Optional[Fraction]:
    """First time in (t, 1) where the reserve would turn negative, if any.

    Under the frozen pattern, each residual max(l(p) - omega_p - counts[p]*d, 0)
    is piecewise linear in the phase offset d with one breakpoint; the reserve
    g is therefore piecewise linear and non-increasing. Walk its segments and
    return the first point where g = 0 and the outgoing slope is negative.
    """
    n = market.n
    budget = 1 - t
    residuals = _residuals(omega, market)
    breakpoints = sorted(
        {
            residuals[p] / counts[p]
            for p in range(market.k)
            if residuals[p] > 0 and counts[p] > 0 and residuals[p] / counts[p] < budget
        }
    )
    g = n * budget - sum(residuals)
    start = Fraction(0)
    for end in breakpoints + [budget]:
        # residuals still positive just beyond `start`
        slope = -n + sum(
            counts[p]
            for p in range(market.k)
            if residuals[p] - counts[p] * start > 0
        )
        if g < 0 or slope > 0:
            raise InternalError(f"eating reserve at t={t + start} is {g} with slope {slope}")
        if g == 0:
            if slope < 0:
                return t + start
        elif slope < 0:
            crossing = start + g / (-slope)
            if crossing < end:
                return t + crossing
        g += slope * (end - start)
        start = end
    return None


def _end_phase(
    t: Fraction, omega: list, counts: Sequence[int], active: frozenset, market: Market
) -> tuple:
    """When and how the phase starting at t ends, given the eaten masses
    omega and the number of students eating each project; advances omega
    in place to t_next.

    Returns (t_next, kind, closing): the exact event time, its kind
    (EXHAUSTION, CRITICAL_SHIFT, or EPOCH_END when the run simply reaches
    t = 1), and the frozenset of projects leaving the active set. At an
    exhaustion time equal to the critical time, the critical shift takes
    precedence; its closing rule removes exhausted projects as well.
    """
    exhaust_t = None
    for p in active:
        if counts[p] > 0:
            hit = t + (market.upper[p] - omega[p]) / counts[p]
            if hit <= 1 and (exhaust_t is None or hit < exhaust_t):
                exhaust_t = hit
    critical_t = _critical_event(t, omega, counts, market)

    if critical_t is not None and (exhaust_t is None or critical_t <= exhaust_t):
        t_next = critical_t
        kind = CRITICAL_SHIFT
    elif exhaust_t is not None:
        t_next = exhaust_t
        kind = EXHAUSTION
    else:
        t_next = Fraction(1)
        kind = EPOCH_END

    duration = t_next - t
    for p, count in enumerate(counts):
        if count:
            omega[p] += count * duration
    if kind == CRITICAL_SHIFT:
        closing = frozenset(p for p in active if omega[p] >= market.lower[p])
    elif kind == EXHAUSTION:
        closing = frozenset(p for p in active if omega[p] == market.upper[p])
    else:
        closing = frozenset(active)
    return t_next, kind, closing


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
        t_next, kind, closing = _end_phase(t, omega, [len(e) for e in eaters], active, market)
        phases.append(
            EatingPhase(
                start=t,
                end=t_next,
                active=tuple(sorted(active)),
                pattern=tuple(eating),
                event=kind,
                closed=tuple(sorted(closing)),
            )
        )
        if kind == CRITICAL_SHIFT and critical_time is None:
            critical_time = t_next
        if t_next == 1:
            still_active = frozenset()
        else:
            still_active = _active_set(t_next, omega, market)
            if not still_active < active:
                raise InternalError(f"eating event at t={t_next} closed no project")
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
