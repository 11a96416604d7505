"""Lottery decomposition of random assignments.

Under integer quotas every feasible random assignment is a convex
combination of feasible deterministic assignments. `decompose` builds one
such lottery constructively: extract an extreme point of the feasible
polytope, peel off the largest step that keeps the renormalized remainder
feasible, repeat until the remainder is itself deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import InternalError, Market, Matrix, column_sums, feasibility_violations


@dataclass(frozen=True)
class Lottery:
    """Convex combination ((weight, assignment), ...) with weights summing to 1."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("lottery needs at least one term")
        if any(weight <= 0 for weight, _ in self.terms):
            raise ValueError("lottery weights must be positive")
        if sum(weight for weight, _ in self.terms) != 1:
            raise ValueError("lottery weights must sum to exactly 1")

    def __len__(self) -> int:
        return len(self.terms)

    def expectation(self) -> Matrix:
        """Weighted sum of the term matrices, exact."""
        rows = len(self.terms[0][1])
        cols = len(self.terms[0][1][0])
        total = [[Fraction(0)] * cols for _ in range(rows)]
        for weight, assignment in self.terms:
            for i in range(rows):
                for p in range(cols):
                    total[i][p] += weight * assignment[i][p]
        return tuple(tuple(row) for row in total)


class _FlowNetwork:
    """Max flow by shortest augmenting paths over integer capacities.

    Arc order is insertion order, so identical inputs augment identically.
    """

    def __init__(self, size: int):
        self.adj = [[] for _ in range(size)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])
        return len(self.adj[u]) - 1

    def max_flow(self, source: int, sink: int) -> int:
        total = 0
        while True:
            parent = {source: None}
            queue = [source]
            head = 0
            while head < len(queue) and sink not in parent:
                node = queue[head]
                head += 1
                for index, (to, cap, _) in enumerate(self.adj[node]):
                    if cap > 0 and to not in parent:
                        parent[to] = (node, index)
                        queue.append(to)
            if sink not in parent:
                return total
            bottleneck = None
            node = sink
            while parent[node] is not None:
                prev, index = parent[node]
                cap = self.adj[prev][index][1]
                bottleneck = cap if bottleneck is None else min(bottleneck, cap)
                node = prev
            node = sink
            while parent[node] is not None:
                prev, index = parent[node]
                edge = self.adj[prev][index]
                edge[1] -= bottleneck
                self.adj[edge[0]][edge[2]][1] += bottleneck
                node = prev
            total += bottleneck


def _reject_bad_input(assignment: Matrix, market: Market) -> None:
    if not market.has_integer_quotas():
        raise ValueError("decomposition requires integer quotas")
    violations = feasibility_violations(assignment, market)
    if violations:
        raise ValueError("assignment is infeasible: " + "; ".join(violations))


def extract_extreme_point(assignment: Matrix, market: Market) -> Matrix:
    """One deterministic assignment agreeing with the integral entries of
    `assignment` whose column sums sit inside the floor/ceiling window of
    `assignment`'s column sums.

    Found as an integral flow: each student pushes one unit through the
    projects they hold a positive share of; the per-column window [floor,
    ceil] is an arc with a lower bound, reduced to plain capacities via the
    usual excess arcs to a super source/sink. Entries equal to 1 need no
    special handling: such a row has a single arc, so the unit is forced
    through it.
    """
    _reject_bad_input(assignment, market)
    n, k = market.n, market.k
    sums = column_sums(assignment)
    floors = [math.floor(s) for s in sums]
    ceilings = [math.ceil(s) for s in sums]
    # nodes: students 0..n-1, projects n..n+k-1, then collector / super
    # source / super sink
    collector = n + k
    source = n + k + 1
    sink = n + k + 2
    net = _FlowNetwork(n + k + 3)
    for i in range(n):
        net.add_edge(source, i, 1)
    if sum(floors) > 0:
        net.add_edge(source, collector, sum(floors))
    share_arcs = {}
    for i in range(n):
        for p in range(k):
            if assignment[i][p] > 0:
                share_arcs[i, p] = net.add_edge(i, n + p, 1)
    for p in range(k):
        if ceilings[p] > floors[p]:
            net.add_edge(n + p, collector, ceilings[p] - floors[p])
        if floors[p] > 0:
            net.add_edge(n + p, sink, floors[p])
    net.add_edge(collector, sink, n)
    required = n + sum(floors)
    flowed = net.max_flow(source, sink)
    if flowed != required:
        raise InternalError("no integral point in a nonempty window")
    extracted = [[Fraction(0)] * k for _ in range(n)]
    for (i, p), index in share_arcs.items():
        if net.adj[i][index][1] == 0:
            extracted[i][p] = Fraction(1)
    return tuple(tuple(row) for row in extracted)


def _step_size(assignment: Matrix, extracted: Matrix) -> Fraction:
    """Largest step keeping (assignment - step*extracted)/(1 - step) inside
    [0, 1] entrywise and every column sum inside its floor/ceiling window."""
    ratios = []
    for current_row, extracted_row in zip(assignment, extracted):
        for r, x in zip(current_row, extracted_row):
            if x == 1:
                if r != 1:
                    ratios.append(r)  # entry falls to 0 at step == r
            elif r > 0:
                ratios.append(1 - r)  # entry climbs to 1 at step == 1 - r
    for s, c in zip(column_sums(assignment), column_sums(extracted)):
        lo = math.floor(s)
        hi = math.ceil(s)
        if c > lo:
            ratios.append((s - lo) / (c - lo))  # column falls to its floor
        if c < hi:
            ratios.append((hi - s) / (hi - c))  # column climbs to its ceiling
    return min(ratios, default=Fraction(1))


def decompose(assignment: Matrix, market: Market) -> Lottery:
    """Write `assignment` as a lottery over feasible deterministic
    assignments, reconstructing it exactly.

    Each peel turns a fractional entry or a fractional column sum integral
    and nothing integral ever turns fractional again, so the lottery has at
    most (fractional entries) + (fractional column sums) + 1 terms.
    """
    _reject_bad_input(assignment, market)
    terms = []
    weight = Fraction(1)
    current = assignment
    while True:
        extracted = extract_extreme_point(current, market)
        step = _step_size(current, extracted)
        if step == 1:
            if current != extracted:
                raise InternalError("full step left a remainder unlike its extreme point")
            terms.append((weight, extracted))
            break
        terms.append((weight * step, extracted))
        scale = 1 - step
        current = tuple(
            tuple((r - step * x) / scale for r, x in zip(current_row, extracted_row))
            for current_row, extracted_row in zip(current, extracted)
        )
        weight *= scale
    return Lottery(tuple(terms))
