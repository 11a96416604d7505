import itertools
import math
from fractions import Fraction

import pytest

from quotassign.axioms import sd_dominates
from quotassign.eating import run_pslq
from quotassign.model import Market, assigned_project
from quotassign.priority import run_priolq, run_rplq_exact
from quotassign.strategy import (
    INCOMPARABLE_CHANGE,
    NO_CHANGE,
    STRICT_GAIN,
    impossibility_scenario,
    misreport_outcomes,
    search_manipulation,
    verify_weak_sp,
)

from conftest import random_market
from goldens import (
    market_lower_quotas,
    market_thirds,
    mat,
)


def test_incomparable_change_under_lower_quotas():
    report = search_manipulation("pslq", market_lower_quotas(), 2)
    assert report.relation == INCOMPARABLE_CHANGE
    assert report.truthful_row == mat("0 5/6 1/6")[0]
    assert report.misreport == (0, 1, 2)
    assert report.misreport_row == mat("1/3 5/9 1/9")[0]
    # neither row dominates the other under the truthful ranking b > a > c
    ranking = market_lower_quotas().prefs[2]
    assert not sd_dominates(report.misreport_row, report.truthful_row, ranking)
    assert not sd_dominates(report.truthful_row, report.misreport_row, ranking)


def test_strict_gain_under_fractional_quotas():
    report = search_manipulation("pslq", market_thirds(), 0)
    assert report.relation == STRICT_GAIN
    assert report.truthful_row == mat("2/3 0 1/3")[0]
    assert report.misreport == (1, 0, 2)  # b > a > c
    assert report.misreport_row == mat("2/3 1/3 0")[0]
    assert sd_dominates(
        report.misreport_row, report.truthful_row, market_thirds().prefs[0], strict=True
    )


def test_random_priority_is_strategy_proof(rng):
    markets = [market_lower_quotas()]
    for _ in range(6):
        markets.append(random_market(rng, n=rng.randint(1, 4), k=rng.randint(1, 3)))
    for m in markets:
        for student in range(m.n):
            report = search_manipulation("rplq-exact", m, student)
            assert report.relation != STRICT_GAIN
            for _, row in misreport_outcomes("rplq-exact", m, student):
                assert sd_dominates(report.truthful_row, row, m.prefs[student])


def test_strong_sp_verification_of_random_priority():
    assert verify_weak_sp("rplq-exact", market_lower_quotas(), strong=True) == (True, None)


def test_eating_fails_strong_sp_but_not_weak():
    m = market_lower_quotas()
    assert verify_weak_sp("pslq", m) == (True, None)
    ok, witness = verify_weak_sp("pslq", m, strong=True)
    assert not ok
    assert witness.relation == INCOMPARABLE_CHANGE
    assert witness.misreport_row != witness.truthful_row
    assert not sd_dominates(
        witness.truthful_row, witness.misreport_row, m.prefs[witness.student]
    )


def test_eating_weak_sp_on_random_integer_markets(rng):
    for _ in range(30):
        m = random_market(rng, n=rng.randint(1, 4), k=rng.randint(1, 3))
        ok, witness = verify_weak_sp("pslq", m)
        assert ok, (m.projects, m.lower, m.upper, m.prefs, witness)


def test_eating_not_weak_sp_under_fractional_quotas():
    ok, witness = verify_weak_sp("pslq", market_thirds())
    assert not ok
    assert witness.student == 0
    assert witness.relation == STRICT_GAIN
    assert witness.misreport == (1, 0, 2)


def test_single_project_market_is_trivially_sp():
    m = Market(["a"], [0], [None], [["a"], ["a"]])
    assert verify_weak_sp("pslq", m, strong=True) == (True, None)
    report = search_manipulation("pslq", m, 0)
    assert report.relation == NO_CHANGE
    assert report.misreport is None and report.misreport_row is None


def test_mechanism_resolution():
    by_name = search_manipulation("pslq", market_lower_quotas(), 0)
    by_callable = search_manipulation(run_pslq, market_lower_quotas(), 0)
    assert by_name == by_callable
    with pytest.raises(ValueError, match="unknown mechanism"):
        search_manipulation("serial", market_lower_quotas(), 0)


def test_misreport_project_guard():
    names = [f"p{j}" for j in range(8)]
    m = Market(names, [0] * 8, [None] * 8, [names])
    with pytest.raises(ValueError, match="at most 7"):
        search_manipulation("pslq", m, 0)


def test_pair_coalitions_cannot_jointly_game_priority(rng):
    # fixed-order priority runs: no two students can jointly misreport so
    # that both end weakly better off and one strictly
    markets = [market_lower_quotas()]
    for _ in range(3):
        markets.append(random_market(rng, n=3, k=3))
    for m in markets:
        order = list(range(m.n))
        honest = run_priolq(m, order)
        honest_picks = [assigned_project(row) for row in honest]
        rankings = list(itertools.permutations(range(m.k)))
        for i, j in itertools.combinations(range(m.n), 2):
            for ri, rj in itertools.product(rankings, rankings):
                if ri == m.prefs[i] and rj == m.prefs[j]:
                    continue
                prefs = [list(r) for r in m.prefs]
                prefs[i], prefs[j] = list(ri), list(rj)
                deviated = Market(
                    list(m.projects), list(m.lower), list(m.upper), prefs
                )
                picks = [assigned_project(row) for row in run_priolq(deviated, order)]
                gain_i = m.prefs[i].index(picks[i]) - m.prefs[i].index(honest_picks[i])
                gain_j = m.prefs[j].index(picks[j]) - m.prefs[j].index(honest_picks[j])
                assert not (gain_i <= 0 and gain_j <= 0 and gain_i + gain_j < 0)


def test_impossibility_scenario_certificate():
    report = impossibility_scenario()
    assert report.market == market_thirds()
    assert report.family_parameters == tuple(Fraction(j, 12) for j in range(5))
    assert report.first_misreport == (1, 0, 2)
    assert report.unique_after_first == mat("2/3 1/3 0", "0 1/3 2/3")
    assert report.second_misreport == (1, 0, 2)
    assert report.unique_after_second == mat("2/3 0 1/3", "0 2/3 1/3")
    assert report.parameter_forced_by_first == Fraction(1, 3)
    assert report.parameter_forced_by_second == 0
    assert report.contradiction
    text = "\n".join(report.lines())
    assert "t = 1/3" in text and "t = 0" in text and "contradiction" in text


def test_impossibility_family_matches_eating_output():
    # the eating algorithm's truthful output on this market is the t = 0
    # member of the family
    report = impossibility_scenario()
    t0 = report.family_parameters[0]
    assert t0 == 0
    assert run_pslq(report.market) == mat("2/3 0 1/3", "0 2/3 1/3")


def test_strong_verification_runs_each_misreport_once():
    m = market_lower_quotas()
    calls = []

    def counting(market):
        calls.append(market)
        return run_rplq_exact(market).assignment

    assert verify_weak_sp(counting, m, strong=True) == (True, None)
    # one truthful run, then k! - 1 misreports per student
    assert len(calls) == m.n * (math.factorial(m.k) - 1) + 1


def test_strong_verification_reports_first_undominated_row():
    # the same report as a full scan that takes the first misreport row the
    # truthful row fails to weakly dominate
    m = market_lower_quotas()
    ok, witness = verify_weak_sp("pslq", m, strong=True)
    assert not ok
    student = witness.student
    ranking = m.prefs[student]
    for misreport, row in misreport_outcomes("pslq", m, student):
        if not sd_dominates(witness.truthful_row, row, ranking):
            assert (misreport, row) == (witness.misreport, witness.misreport_row)
            break
    for earlier in range(student):
        report = search_manipulation("pslq", m, earlier)
        assert all(
            sd_dominates(report.truthful_row, row, m.prefs[earlier])
            for _, row in misreport_outcomes("pslq", m, earlier)
        )
