import random
from fractions import Fraction

import pytest

from quotassign.eating import (
    CRITICAL_SHIFT,
    EPOCH_END,
    EXHAUSTION,
    _active_set,
    run_pslq,
    run_pslq_traced,
)
from quotassign.model import Market, column_sums, is_feasible

from conftest import random_market
from goldens import (
    PSLQ_FIVE,
    PSLQ_LOWER_QUOTAS,
    PSLQ_LOWER_QUOTAS_MISREPORT,
    PSLQ_THIRDS,
    PSLQ_THIRDS_MISREPORT,
    market_five,
    market_lower_quotas,
    market_lower_quotas_misreport,
    market_thirds,
    market_thirds_misreport,
    mat,
)
from oracles import classical_ps, discrete_eating


def test_golden_five_students():
    assert run_pslq(market_five()) == PSLQ_FIVE


def test_golden_lower_quotas():
    assert run_pslq(market_lower_quotas()) == PSLQ_LOWER_QUOTAS


def test_golden_lower_quotas_misreport():
    assert run_pslq(market_lower_quotas_misreport()) == PSLQ_LOWER_QUOTAS_MISREPORT


def test_golden_thirds():
    assert run_pslq(market_thirds()) == PSLQ_THIRDS
    assert run_pslq(market_thirds_misreport()) == PSLQ_THIRDS_MISREPORT


def test_five_students_trace():
    m = market_five()
    assignment, trace = run_pslq_traced(m)
    assert assignment == PSLQ_FIVE
    assert trace.critical_time == Fraction(3, 4)
    first = trace.phases[0]
    assert (first.start, first.end) == (0, Fraction(3, 4))
    assert first.event == CRITICAL_SHIFT
    assert [m.projects[p] for p in first.closed] == ["a", "b"]
    # after the shift only c is active, eaten by everyone until the end,
    # where it exhausts its upper quota of 2 exactly
    last = trace.phases[-1]
    assert [m.projects[p] for p in last.active] == ["c"]
    assert last.event == EXHAUSTION and last.end == 1


def test_lower_quotas_trace_events():
    m = market_lower_quotas()
    _, trace = run_pslq_traced(m)
    assert trace.critical_time == Fraction(1, 2)
    kinds = [(ph.end, ph.event, ph.closed) for ph in trace.phases]
    assert kinds == [
        (Fraction(1, 2), CRITICAL_SHIFT, (0,)),
        (Fraction(5, 6), CRITICAL_SHIFT, (1,)),
        (Fraction(1), EPOCH_END, (2,)),
    ]


def test_first_event_confirmed_by_discrete_simulation():
    # brute-force check of the first critical shift at 1/2
    m = market_lower_quotas()
    _, changes = discrete_eating(m, steps=1000)
    assert changes, "simulation saw no pattern change"
    assert abs(changes[0] - Fraction(1, 2)) <= Fraction(2, 1000)


def test_thirds_simultaneous_exhaust_and_shift():
    # b reaches its upper quota exactly when the reserve hits zero; the
    # critical branch wins and both a (above lower quota) and b close
    m = market_thirds()
    _, trace = run_pslq_traced(m)
    first = trace.phases[0]
    assert first.end == Fraction(2, 3)
    assert first.event == CRITICAL_SHIFT
    assert first.closed == (0, 1)
    assert trace.critical_time == Fraction(2, 3)


def test_thirds_misreport_trace_is_exhaustion_only():
    _, trace = run_pslq_traced(market_thirds_misreport())
    assert trace.critical_time is None
    assert [(ph.end, ph.event) for ph in trace.phases] == [
        (Fraction(1, 3), EXHAUSTION),
        (Fraction(1), EXHAUSTION),
    ]
    assert trace.phases[0].closed == (1,)
    assert trace.phases[1].closed == (2,)


def test_active_set_around_shift():
    m = market_lower_quotas()
    # all active at t = 0
    assert _active_set(Fraction(0), [Fraction(0)] * 3, m) == frozenset({0, 1, 2})
    # just below the shift everyone can still eat a
    t = Fraction(499, 1000)
    rows = mat(*[f"{t} 0 0", f"{t} 0 0", f"0 {t} 0", f"0 {t} 0"])
    assert _active_set(t, column_sums(rows), m) == frozenset({0, 1, 2})
    # at the shift time a drops out
    t = Fraction(1, 2)
    rows = mat("1/2 0 0", "1/2 0 0", "0 1/2 0", "0 1/2 0")
    assert _active_set(t, column_sums(rows), m) == frozenset({1, 2})


def test_first_phase_five_students():
    _, trace = run_pslq_traced(market_five())
    first = trace.phases[0]
    assert first.end == Fraction(3, 4)
    assert first.event == CRITICAL_SHIFT
    assert first.closed == (0, 1)


def test_opposed_tops_exhaust_at_one():
    m = Market(["a", "b"], [0, 0], [1, 1], [["a", "b"], ["b", "a"]])
    _, trace = run_pslq_traced(m)
    assert len(trace.phases) == 1
    only = trace.phases[0]
    assert only.end == 1
    assert only.event == EXHAUSTION
    assert only.closed == (0, 1)


def test_trace_replay_and_reserve():
    for m in [
        market_five(),
        market_lower_quotas(),
        market_lower_quotas_misreport(),
        market_thirds(),
        market_thirds_misreport(),
    ]:
        assignment, trace = run_pslq_traced(m)
        assert trace.phases[-1].end == 1
        omega = [Fraction(0)] * m.k
        t = Fraction(0)
        seen_critical = False
        for phase in trace.phases:
            assert phase.start == t
            assert phase.end >= phase.start
            # replay: phase length times eater count, per project
            length = phase.end - phase.start
            for p in phase.pattern:
                assert p in phase.active
                omega[p] += length
            t = phase.end
            reserve = m.n * (1 - t) - sum(
                max(m.lower[p] - omega[p], 0) for p in range(m.k)
            )
            assert reserve >= 0
            if seen_critical:
                assert reserve == 0
            if phase.event == CRITICAL_SHIFT:
                seen_critical = True
                # projects closed after the first critical time end exactly
                # at their lower quota
                if phase.end != trace.critical_time:
                    for p in phase.closed:
                        assert omega[p] == m.lower[p]
        assert tuple(omega) == column_sums(assignment)
        if trace.critical_time is not None:
            # the reserve is strictly positive before the critical time
            for phase in trace.phases:
                if phase.end < trace.critical_time:
                    reserve_at = m.n * (1 - phase.end)
                    assert reserve_at > 0


def test_projects_closing_after_critical_end_at_lower_quota():
    m = market_lower_quotas()
    assignment, trace = run_pslq_traced(m)
    cols = column_sums(assignment)
    # b closes at 5/6 > t_c = 1/2 with exactly its quota of 2; c ends at 1
    assert cols == (Fraction(1), Fraction(2), Fraction(1))


def test_tight_lower_quotas_from_the_start():
    # sum of lower quotas equals n: eating is restricted immediately
    m = Market(["a", "b"], [1, 1], [1, 1], [["a", "b"], ["a", "b"]])
    assignment, trace = run_pslq_traced(m)
    assert assignment == mat("1/2 1/2", "1/2 1/2")
    assert is_feasible(assignment, m)


def test_zero_capacity_project_never_eaten():
    m = Market(["a", "b"], [0, 0], [0, None], [["a", "b"], ["a", "b"]])
    assignment = run_pslq(m)
    assert assignment == mat("0 1", "0 1")


def test_classical_regression_small():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        k = rng.randint(1, 4)
        prefs = []
        for _ in range(n):
            r = list(range(k))
            rng.shuffle(r)
            prefs.append(r)
        while True:
            upper = [rng.randint(0, n) for _ in range(k)]
            if sum(upper) >= n:
                break
        m = Market([f"p{j}" for j in range(k)], [0] * k, upper, prefs)
        assert run_pslq(m) == classical_ps(m)


def test_feasible_on_random_quota_markets():
    rng = random.Random(11)
    for _ in range(60):
        m = random_market(rng)
        assignment, trace = run_pslq_traced(m)
        assert is_feasible(assignment, m), feasibility_report_for(m, assignment)
        assert trace.phases[-1].end == 1


def feasibility_report_for(market, assignment):
    from quotassign.model import feasibility_violations

    return "; ".join(feasibility_violations(assignment, market))
