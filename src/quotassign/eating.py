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

All arithmetic is exact; event times, consumption, and the emitted trace
are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import InternalError, Market, Matrix, choice, column_sums

#: phase-ending event kinds
EXHAUSTION = "exhaustion"
CRITICAL_SHIFT = "critical-shift"
EPOCH_END = "epoch-end"


@dataclass(frozen=True)
class EatingState:
    """Snapshot of an eating run: time, consumption, active set, pattern."""

    t: Fraction
    rows: Matrix  # n x k consumption so far
    active: frozenset
    pattern: tuple  # pattern[i] = project student i is eating


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


def active_projects(state: EatingState, market: Market) -> frozenset:
    """The set of projects legally consumable at the state's time."""
    return _active_set(state.t, column_sums(state.rows), market)


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
        assert g >= 0 and slope <= 0
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


def next_event(state: EatingState, market: Market) -> tuple:
    """When and how the current phase ends.

    Returns (t_next, kind, closing): the exact event time, its kind
    (EXHAUSTION, CRITICAL_SHIFT, or EPOCH_END when the run simply reaches
    t = 1), and the frozenset of projects leaving the active set. At an
    exhaustion time equal to the critical time, the critical shift takes
    precedence; its closing rule removes exhausted projects as well.
    """
    omega = column_sums(state.rows)
    counts = [0] * market.k
    for p in state.pattern:
        counts[p] += 1

    exhaust_t = None
    for p in state.active:
        if counts[p] > 0:
            hit = state.t + (market.upper[p] - omega[p]) / counts[p]
            if hit <= 1 and (exhaust_t is None or hit < exhaust_t):
                exhaust_t = hit
    critical_t = _critical_event(state.t, omega, counts, market)

    if critical_t is not None and (exhaust_t is None or critical_t <= exhaust_t):
        t_next = critical_t
        kind = CRITICAL_SHIFT
    elif exhaust_t is not None:
        t_next = exhaust_t
        kind = EXHAUSTION
    else:
        t_next = Fraction(1)
        kind = EPOCH_END

    duration = t_next - state.t
    omega_next = list(omega)
    for p in state.pattern:
        omega_next[p] += duration
    if kind == CRITICAL_SHIFT:
        closing = frozenset(
            p for p in state.active if omega_next[p] >= market.lower[p]
        )
    elif kind == EXHAUSTION:
        closing = frozenset(
            p for p in state.active if omega_next[p] == market.upper[p]
        )
    else:
        closing = frozenset(state.active)
    return t_next, kind, closing


def initial_state(market: Market) -> EatingState:
    """The eating state at t = 0: nothing consumed, best active projects chosen."""
    rows = tuple((Fraction(0),) * market.k for _ in range(market.n))
    active = _active_set(Fraction(0), [Fraction(0)] * market.k, market)
    pattern = tuple(choice(market.prefs, i, active) for i in range(market.n))
    return EatingState(t=Fraction(0), rows=rows, active=active, pattern=pattern)


def run_pslq_traced(market: Market) -> tuple:
    """Run the eating mechanism and return (assignment, trace).

    The trace lists every phase with exact endpoints, the active set and
    eating pattern, the event ending the phase, and the projects closing;
    replaying its linear segments reproduces the assignment exactly.
    """
    state = initial_state(market)
    rows = [list(row) for row in state.rows]
    phases = []
    critical_time = None
    while state.t < 1:
        t_next, kind, closing = next_event(state, market)
        duration = t_next - state.t
        for i, p in enumerate(state.pattern):
            rows[i][p] += duration
        phases.append(
            EatingPhase(
                start=state.t,
                end=t_next,
                active=tuple(sorted(state.active)),
                pattern=state.pattern,
                event=kind,
                closed=tuple(sorted(closing)),
            )
        )
        if kind == CRITICAL_SHIFT and critical_time is None:
            critical_time = t_next
        frozen_rows = tuple(tuple(row) for row in rows)
        if t_next == 1:
            state = EatingState(t_next, frozen_rows, frozenset(), ())
            break
        omega = column_sums(frozen_rows)
        active = _active_set(t_next, omega, market)
        if not active < state.active:
            raise InternalError(f"eating event at t={t_next} closed no project")
        pattern = tuple(choice(market.prefs, i, active) for i in range(market.n))
        state = EatingState(t=t_next, rows=frozen_rows, active=active, pattern=pattern)
    assignment = tuple(tuple(row) for row in rows)
    return assignment, EatingTrace(phases=tuple(phases), critical_time=critical_time)


def run_pslq(market: Market) -> Matrix:
    """The eating mechanism's random assignment (see run_pslq_traced)."""
    assignment, _ = run_pslq_traced(market)
    return assignment
