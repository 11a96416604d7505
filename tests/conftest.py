import random
import signal
from fractions import Fraction

import pytest

from quotassign.model import Market


def random_market(rng, n=None, k=None, integer_quotas=True, max_denominator=4):
    """Draw a random feasible market; shared by property and campaign tests."""
    n = n or rng.randint(1, 6)
    k = k or rng.randint(1, 4)
    projects = [f"p{j}" for j in range(k)]
    prefs = []
    for _ in range(n):
        ranking = list(range(k))
        rng.shuffle(ranking)
        prefs.append(ranking)
    while True:
        if integer_quotas:
            upper = [rng.randint(0, n) for _ in range(k)]
            lower = [rng.randint(0, u) for u in upper]
        else:
            d = max_denominator
            upper = [Fraction(rng.randint(0, n * d), d) for _ in range(k)]
            lower = [Fraction(rng.randint(0, int(u * d)), d) if u > 0 else Fraction(0) for u in upper]
        if sum(lower) <= n <= sum(upper):
            return Market(projects, lower, upper, prefs)


@pytest.fixture
def rng():
    return random.Random(20260816)


@pytest.fixture
def time_bound():
    """Fail a test that runs past 60 s, where SIGALRM exists: a flow that
    loses track of its capacities can augment for ever."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60-s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
