"""Checks of quotassign's outputs, computed apart from the package.

Nothing here imports quotassign: markets and outputs are read back from the
JSON files the CLI reads and writes, and every reference result is computed
from the definitions. Each check returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MarketSpec:
    """The benchmark's own reading of a market file."""

    names: tuple
    lower: tuple  # Fractions
    upper: tuple  # Fractions, or None for "no cap"
    prefs: tuple  # per student, project indices best first

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def k(self) -> int:
        return len(self.names)


def read_market(doc: dict) -> MarketSpec:
    names = tuple(entry["name"] for entry in doc["projects"])
    index = {name: p for p, name in enumerate(names)}
    return MarketSpec(
        names=names,
        lower=tuple(Fraction(entry.get("lower", 0)) for entry in doc["projects"]),
        upper=tuple(
            None if entry.get("upper") is None else Fraction(entry["upper"])
            for entry in doc["projects"]
        ),
        prefs=tuple(tuple(index[name] for name in ranking) for ranking in doc["preferences"]),
    )


def read_matrix(rows) -> list:
    return [[Fraction(value) for value in row] for row in rows]


def _below_cap(mass, cap) -> bool:
    return cap is None or mass < cap


def _best(ranking, menu) -> int:
    for p in ranking:
        if p in menu:
            return p
    raise ValueError("empty menu")


def feasibility(matrix, market: MarketSpec, row_total=1) -> list:
    """Shape, entries, row sums and column sums within the quotas."""
    if len(matrix) != market.n or any(len(row) != market.k for row in matrix):
        return [f"matrix is not {market.n}x{market.k}"]
    problems = []
    for i, row in enumerate(matrix):
        if any(x < 0 or x > row_total for x in row):
            problems.append(f"row {i + 1} has an entry outside [0, {row_total}]")
        if sum(row) != row_total:
            problems.append(f"row {i + 1} sums to {sum(row)}, not {row_total}")
    for p in range(market.k):
        mass = sum(row[p] for row in matrix)
        cap = market.upper[p]
        if mass < market.lower[p] or (cap is not None and mass > cap):
            problems.append(f"column {market.names[p]} sums to {mass}, outside its quotas")
    return problems


def replay_trace(matrix, trace: dict, market: MarketSpec) -> list:
    """Rebuild a PSLQ matrix from its eating trace.

    Phases must tile [0, 1]; at each phase start the active set must be the
    one the definition gives for the mass eaten so far (quota-deficient
    projects, plus projects under their cap while the reserve
    n(1 - t) - sum max(l - omega, 0) is positive); every student must eat
    their best active project; and duration times pattern, summed over the
    phases, must equal the matrix exactly.
    """
    n, k = market.n, market.k
    rows = [[Fraction(0)] * k for _ in range(n)]
    omega = [Fraction(0)] * k
    clock = Fraction(0)
    index = {name: p for p, name in enumerate(market.names)}
    for number, phase in enumerate(trace["phases"], 1):
        start, end = Fraction(phase["start"]), Fraction(phase["end"])
        if start != clock or end <= start:
            return [f"phase {number} spans [{start}, {end}] after time {clock}"]
        deficit = sum(max(market.lower[p] - omega[p], 0) for p in range(k))
        reserve_open = n * (1 - start) > deficit
        expected = {
            p
            for p in range(k)
            if omega[p] < market.lower[p]
            or (reserve_open and _below_cap(omega[p], market.upper[p]))
        }
        active = {index[name] for name in phase["active"]}
        if active != expected:
            return [f"phase {number} has active set {sorted(active)}, want {sorted(expected)}"]
        pattern = [index[name] for name in phase["pattern"]]
        for i, p in enumerate(pattern):
            if p != _best(market.prefs[i], active):
                return [f"phase {number}: student {i + 1} does not eat their best active project"]
        duration = end - start
        for i, p in enumerate(pattern):
            rows[i][p] += duration
            omega[p] += duration
        clock = end
    if clock != 1:
        return [f"trace stops at time {clock}"]
    if rows != matrix:
        return ["trace does not rebuild the assignment"]
    return []


def classical_eating(market: MarketSpec) -> list:
    """Simultaneous eating with upper quotas only, for markets whose lower
    quotas are all zero: everyone eats their best project with mass left,
    and a project closes when its cap is eaten."""
    n, k = market.n, market.k
    rows = [[Fraction(0)] * k for _ in range(n)]
    eaten = [Fraction(0)] * k
    open_projects = {p for p in range(k) if _below_cap(Fraction(0), market.upper[p])}
    clock = Fraction(0)
    while clock < 1:
        eating = [_best(ranking, open_projects) for ranking in market.prefs]
        eaters = [0] * k
        for p in eating:
            eaters[p] += 1
        step = 1 - clock
        for p in open_projects:
            if eaters[p] and market.upper[p] is not None:
                step = min(step, (market.upper[p] - eaten[p]) / eaters[p])
        for i, p in enumerate(eating):
            rows[i][p] += step
        for p in range(k):
            eaten[p] += eaters[p] * step
        clock += step
        open_projects = {p for p in open_projects if _below_cap(eaten[p], market.upper[p])}
    return rows


def brute_force_rplq(market: MarketSpec) -> list:
    """Serial dictatorship with the lower-quota menu rule, averaged over
    all n! priority orders. Once the students left are exactly as many as
    the seats lower quotas still need, menus shrink to deficient projects."""
    n, k = market.n, market.k
    totals = [[0] * k for _ in range(n)]
    for order in itertools.permutations(range(n)):
        seats = [0] * k
        for step, student in enumerate(order):
            needed = sum(max(market.lower[p] - seats[p], 0) for p in range(k))
            if needed < n - step:
                menu = {p for p in range(k) if _below_cap(seats[p], market.upper[p])}
            else:
                menu = {p for p in range(k) if seats[p] < market.lower[p]}
            pick = _best(market.prefs[student], menu)
            seats[pick] += 1
            totals[student][pick] += 1
    orders = math.factorial(n)
    return [[Fraction(count, orders) for count in row] for row in totals]


def sampled_rplq(matrix, samples: int) -> list:
    """A Monte Carlo average of `samples` deterministic outcomes."""
    problems = []
    for i, row in enumerate(matrix):
        if any(samples % x.denominator for x in row):
            problems.append(f"row {i + 1} has a denominator not dividing {samples}")
    return problems


def lottery(doc: dict, matrix, market: MarketSpec) -> list:
    """A decomposition of `matrix` into feasible deterministic assignments."""
    problems = []
    if doc.get("verified") is not True:
        problems.append("decompose did not report the lottery as verified")
    weights = [Fraction(term["weight"]) for term in doc["terms"]]
    if any(w <= 0 for w in weights) or sum(weights) != 1:
        problems.append("weights are not positive with sum 1")
    total = [[Fraction(0)] * market.k for _ in range(market.n)]
    for number, (weight, term) in enumerate(zip(weights, doc["terms"]), 1):
        # a deterministic term: one "1" per row, "0" elsewhere
        rows = term["assignment"]
        picks = [row.index("1") if row.count("1") == 1 else None for row in rows]
        if len(rows) != market.n or None in picks or any(
            len(row) != market.k or row.count("0") != market.k - 1 for row in rows
        ):
            problems.append(f"term {number} is not a deterministic assignment")
            continue
        seats = [0] * market.k
        for i, p in enumerate(picks):
            seats[p] += 1
            total[i][p] += weight
        for p in range(market.k):
            cap = market.upper[p]
            if seats[p] < market.lower[p] or (cap is not None and seats[p] > cap):
                problems.append(f"term {number}: {market.names[p]} gets {seats[p]} seats")
    if total != matrix:
        problems.append("the weighted terms do not rebuild the assignment")
    fractional = sum(1 for row in matrix for x in row if x.denominator != 1)
    fractional += sum(
        1 for p in range(market.k) if sum(row[p] for row in matrix).denominator != 1
    )
    if len(weights) > fractional + 1:
        problems.append(f"{len(weights)} terms exceed the bound {fractional + 1}")
    return problems


def first_choices(matrix, market: MarketSpec, q: int) -> list:
    """Multi-unit demand with no caps and no lower quotas: every student
    gets all q units of their first choice."""
    want = [[q if p == ranking[0] else 0 for p in range(market.k)] for ranking in market.prefs]
    if matrix != want:
        return [f"rows are {[[str(x) for x in row] for row in matrix]}, want {want}"]
    return []
