"""The polynomial `pareto` check (the ordinal-efficiency audit on the
inward-rounded market) against the k**n enumerator in tests/oracles.py."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from quotassign.axioms import is_mqc_efficient
from quotassign.model import is_feasible, is_integral

from oracles import pareto_by_enumeration
from test_eating_oracle import capacity_and_fraction_markets
from test_priority_oracles import priority_markets

# tight, loose, zero-lower and uncapped integer quotas, zero-capacity
# projects and fractional quotas
pareto_markets = st.one_of(priority_markets(), capacity_and_fraction_markets(max_n=6, max_k=4))


def _feasible_assignments(market):
    """Every feasible 0/1 assignment, as the projects the students get."""
    for picks in itertools.product(range(market.k), repeat=market.n):
        counts = [picks.count(p) for p in range(market.k)]
        if all(market.lower[p] <= counts[p] <= market.upper[p] for p in range(market.k)):
            yield picks


@settings(max_examples=200, deadline=None)
@given(data=st.data(), market=pareto_markets)
def test_pareto_verdict_equals_enumeration(data, market):
    feasible = list(_feasible_assignments(market))
    assume(feasible)
    picks = data.draw(st.sampled_from(feasible))
    mu = tuple(tuple(int(p == j) for j in range(market.k)) for p in picks)
    ok, dominating = is_mqc_efficient(mu, market)
    assert ok == pareto_by_enumeration(mu, market)[0]
    if not ok:
        assert is_integral(dominating) and is_feasible(dominating, market)
        before = [market.prefs[i].index(p) for i, p in enumerate(picks)]
        after = [market.prefs[i].index(row.index(1)) for i, row in enumerate(dominating)]
        assert all(a <= b for a, b in zip(after, before)) and after != before
