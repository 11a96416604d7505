"""Lottery decomposition of random assignments.

Under integer quotas every feasible random assignment is a convex
combination of feasible deterministic assignments. `decompose` builds one
such lottery constructively. It keeps `rest`, what the terms so far leave of
the input, and `mass`, 1 minus their weights, and never normalises: each peel
takes the largest weight of a deterministic assignment on the support of rest
inside the column floor/ceiling windows of rest/mass, until no mass is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

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
        shapes = {(len(matrix), *map(len, matrix)) for _, matrix in self.terms}
        if len(shapes) != 1:
            raise ValueError("lottery terms must all have the same shape")

    def __len__(self) -> int:
        return len(self.terms)

    def expectation(self) -> Matrix:
        """Weighted sum of the term matrices, exact.

        Only nonzero entries are visited. Every product weight × entry is an
        int over one common denominator (the lcm of the weights' times the
        lcm of the entries'), so the sums are ints until the end.
        """
        rows = len(self.terms[0][1])
        cols = len(self.terms[0][1][0])
        weight_scale = math.lcm(*{weight.denominator for weight, _ in self.terms})
        nonzero = (v for _, matrix in self.terms for row in matrix for v in compress(row, row))
        entry_scale = math.lcm(*{v.denominator for v in nonzero})
        total = [[0] * cols for _ in range(rows)]
        for weight, matrix in self.terms:
            w = weight.numerator * (weight_scale // weight.denominator)
            for out, row in zip(total, matrix):
                for p in compress(range(cols), row):
                    v = row[p]
                    out[p] += w * v.numerator * (entry_scale // v.denominator)
        scale = weight_scale * entry_scale
        return tuple(tuple(Fraction(x, scale) for x in row) for row in total)


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
    `assignment`'s column sums."""
    _reject_bad_input(assignment, market)
    sums = column_sums(assignment)
    return _extreme_point(assignment, [math.floor(s) for s in sums], [math.ceil(s) for s in sums])


def _extreme_point(support: Matrix, floors: list, ceilings: list) -> Matrix:
    """A 0/1 matrix, 1 only where `support` is positive, with one 1 per row
    and between floors[p] and ceilings[p] in each column p, found as an
    integral flow: each student pushes one unit through the projects they
    hold a positive share of; the per-column window [floor, ceil] is an arc
    with a lower bound, reduced to plain capacities via the usual excess arcs
    to a super source/sink. A row whose only positive entry is its 1 has a
    single arc, so the unit is forced through it.
    """
    n, k = len(support), len(floors)
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
            if support[i][p]:  # entries are nonnegative
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


def _peel_weight(rest, mass: Fraction, x: Matrix, sums, floors, ceilings) -> Fraction:
    """Largest w keeping rest - w*x inside [0, mass - w] entrywise and every
    column sum inside (mass - w) times its floor/ceiling window.

    Every row of rest sums to mass, so while a row's held entry (where x
    is 1) stays nonnegative its other entries stay at most mass - w: of the
    entries, only the held ones bound w.
    """
    ratios = [row[x_row.index(1)] for row, x_row in zip(rest, x)]  # held entry falls to 0
    for s, c, lo, hi in zip(sums, column_sums(x), floors, ceilings):
        if c > lo:
            ratios.append((s - mass * lo) / (c - lo))  # column falls to its floor
        if c < hi:
            ratios.append((mass * hi - s) / (hi - c))  # column climbs to its ceiling
    return min(ratios)


def decompose(assignment: Matrix, market: Market) -> Lottery:
    """Write `assignment` as a lottery over feasible deterministic
    assignments, reconstructing it exactly.

    Each peel makes a fractional entry or column sum of rest/mass integral,
    and nothing integral ever turns fractional again, so the lottery has at
    most (fractional entries) + (fractional column sums) + 1 terms.
    """
    _reject_bad_input(assignment, market)
    rest = [list(row) for row in assignment]
    sums = list(column_sums(assignment))
    mass = Fraction(1)
    terms = []
    while mass > 0:
        floors = [math.floor(s / mass) for s in sums]
        ceilings = [math.ceil(s / mass) for s in sums]
        x = _extreme_point(rest, floors, ceilings)
        weight = _peel_weight(rest, mass, x, sums, floors, ceilings)
        for row, x_row in zip(rest, x):
            p = x_row.index(1)
            row[p] -= weight
            sums[p] -= weight
        mass -= weight
        terms.append((weight, x))
    if any(any(row) for row in rest):
        raise InternalError("the peeled terms do not add up to the assignment")
    return Lottery(tuple(terms))
