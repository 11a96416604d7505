"""Lottery decomposition of random assignments.

Under integer quotas every feasible random assignment is a convex
combination of feasible deterministic assignments. `decompose` builds one
such lottery constructively. It keeps `rest`, what the terms so far leave of
the input, and `mass`, 1 minus their weights, and never normalises: each peel
takes the largest weight of a deterministic assignment on the support of rest
inside the column floor/ceiling windows of rest/mass, until no mass is left.

The loop runs in ints over one denominator `scale`, the lcm of the input's
denominators: `rest`, its column sums and `mass` count units of 1/scale.
Every weight is a whole number of units (see `_peel_weight`), so `scale`
never changes, and a term's weight is its units over `scale`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import InternalError, Market, Matrix, feasibility_violations


@dataclass(frozen=True)
class Lottery:
    """Convex combination ((weight, picks), ...) with weights summing to 1:
    each term gives student i project picks[i], one of range(k)."""

    k: int
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("lottery needs at least one term")
        for weight, _ in self.terms:
            if isinstance(weight, bool) or not isinstance(weight, (int, Fraction)):
                raise ValueError("lottery weights must be ints or Fractions")
            if weight <= 0:
                raise ValueError("lottery weights must be positive")
        if sum(weight for weight, _ in self.terms) != 1:
            raise ValueError("lottery weights must sum to exactly 1")
        if len({len(picks) for _, picks in self.terms}) != 1:
            raise ValueError("lottery terms must all have the same number of students")
        for _, picks in self.terms:
            for p in picks:
                if isinstance(p, bool) or not isinstance(p, int) or not 0 <= p < self.k:
                    raise ValueError(f"lottery picks must be ints in range({self.k})")

    def __len__(self) -> int:
        return len(self.terms)

    def expectation(self) -> Matrix:
        """Weighted sum of the terms' 0/1 matrices, exact: each weight is an
        int over the lcm of the weights' denominators, so the sums are ints
        until the end."""
        scale = math.lcm(*{weight.denominator for weight, _ in self.terms})
        total = [[0] * self.k for _ in self.terms[0][1]]
        for weight, picks in self.terms:
            w = weight.numerator * (scale // weight.denominator)
            for out, p in zip(total, picks):
                out[p] += w
        return tuple(tuple(Fraction(x, scale) for x in row) for row in total)


def _extreme_point(holdings: list, floors: list, ceilings: list) -> list:
    """One project per student, taken from holdings[i], with between
    floors[p] and ceilings[p] students on each project p, found as an
    integral flow: each student pushes one unit through the projects they
    hold; the per-column window [floor, ceil] is an arc with a lower bound,
    reduced to plain capacities via the usual excess arcs to a super
    source/sink. A student holding one project has a single arc, so the
    unit is forced through it.

    The flow is Edmonds & Karp's: each augmenting path is the one that a
    breadth-first search over the arcs, in insertion order, finds. Most of
    those paths are known without the search. Once the source's arc to the
    collector is full (or absent), the search reaches every student with no
    unit yet, then the projects they hold in order of (first such holder,
    project), and stops at the first of those whose floor is unmet. While
    such a project exists, the path source -> holder -> project -> sink is
    taken directly. A heap holds those projects keyed by (first holder with
    no unit, project), each with that holder's place in the project's
    holders. Floor arcs only lose capacity and no path takes a student's
    unit back, so a key only grows: a stale one is mended when it reaches
    the top. The search finds the other paths. It stops once it reaches the
    sink, and skips a student once it has reached every project, as a
    student's arcs lead only to the source and to projects; neither changes
    the path it finds.
    """
    n, k = len(holdings), len(floors)
    # nodes: students 0..n-1, projects n..n+k-1, then collector / super
    # source / super sink; arc a runs heads[a ^ 1] -> heads[a] and arc a ^ 1
    # is its residual twin, arcs[v] lists v's arcs in insertion order
    collector, source, sink = n + k, n + k + 1, n + k + 2
    heads, caps, arcs = [], [], [[] for _ in range(n + k + 3)]

    def add_arc(u: int, v: int, cap: int) -> int:
        arcs[u].append(len(heads))
        arcs[v].append(len(heads) + 1)
        heads.extend((v, u))
        caps.extend((cap, 0))
        return len(heads) - 2

    for i in range(n):
        add_arc(source, i, 1)  # arc 2 * i
    floor_total = sum(floors)
    to_collector = add_arc(source, collector, floor_total) if floor_total > 0 else None
    holders = [[] for _ in range(k)]  # (student, arc) per project, students in order
    for i, held in enumerate(holdings):
        for p in held:
            holders[p].append((i, add_arc(i, n + p, 1)))
    floor_arcs = [None] * k
    for p in range(k):
        if ceilings[p] > floors[p]:
            add_arc(n + p, collector, ceilings[p] - floors[p])
        if floors[p] > 0:
            floor_arcs[p] = add_arc(n + p, sink, floors[p])
    add_arc(collector, sink, n)

    flowed = 0
    heap = None  # built once the arc to the collector is full
    while True:
        if heap is None and (to_collector is None or caps[to_collector] == 0):
            heap = [(line[0][0], p, 0) for p, line in enumerate(holders)
                    if line and floor_arcs[p] is not None]
            heapq.heapify(heap)
        if heap:
            i, p, j = heap[0]
            line = holders[p]
            if caps[floor_arcs[p]] == 0:
                heapq.heappop(heap)
            elif caps[2 * i] == 0:  # stale: i has a unit now
                j += 1
                while j < len(line) and caps[2 * line[j][0]] == 0:
                    j += 1
                if j < len(line):
                    heapq.heapreplace(heap, (line[j][0], p, j))
                else:
                    heapq.heappop(heap)
            else:
                for a in (2 * i, line[j][1], floor_arcs[p]):
                    caps[a] -= 1
                    caps[a ^ 1] += 1
                flowed += 1
            continue

        via = [-1] * (n + k + 3)  # the arc each node was reached by
        via[source] = len(heads)  # reached, by no arc
        queue = [source]
        unseen = k  # projects not reached yet; at 0 a student reaches nothing new
        for node in queue:
            if node < n and unseen == 0:
                continue
            for a in arcs[node]:
                to = heads[a]
                if caps[a] and via[to] < 0:
                    via[to] = a
                    queue.append(to)
                    if n <= to < collector:
                        unseen -= 1
                    elif to == sink:
                        break
            if via[sink] >= 0:
                break
        else:
            break
        path = []
        node = sink
        while node != source:
            path.append(via[node])
            node = heads[via[node] ^ 1]
        bottleneck = min(caps[a] for a in path)
        for a in path:
            caps[a] -= bottleneck
            caps[a ^ 1] += bottleneck
        flowed += bottleneck

    if flowed != n + floor_total:
        raise InternalError("no integral point in a nonempty window")
    picks = [None] * n
    for p, line in enumerate(holders):
        for i, share in line:
            if caps[share] == 0:
                picks[i] = p
    return picks


def _peel_weight(rest, mass: int, picks: list, counts: list, sums, floors, ceilings) -> int:
    """Largest w keeping rest - w*x inside [0, mass - w] entrywise and every
    column sum inside (mass - w) times its floor/ceiling window, where x
    gives student i project picks[i] and counts[p] students to project p.
    rest, mass, the sums and w are ints, in units of 1/scale.

    Every row of rest sums to mass, so while a row's held entry (where x
    is 1) stays nonnegative its other entries stay at most mass - w: of the
    entries, only the held ones bound w. A window is at most one wide and
    the picks meet it, so a column bounds w only with c = lo + 1 or
    c = hi - 1, where its ratio has denominator 1: w is a whole number of
    units.
    """
    bounds = [row[p] for row, p in zip(rest, picks)]  # held entry falls to 0
    for s, c, lo, hi in zip(sums, counts, floors, ceilings):
        if c > lo:
            bounds.append(s - mass * lo)  # column falls to its floor
        if c < hi:
            bounds.append(mass * hi - s)  # column climbs to its ceiling
    return min(bounds)


def decompose(assignment: Matrix, market: Market) -> Lottery:
    """Write `assignment` as a lottery over feasible deterministic
    assignments, reconstructing it exactly.

    Each peel makes a fractional entry or column sum of rest/mass integral,
    and nothing integral ever turns fractional again, so the lottery has at
    most (fractional entries) + (fractional column sums) + 1 terms.
    """
    if not market.has_integer_quotas():
        raise ValueError("decomposition requires integer quotas")
    violations = feasibility_violations(assignment, market)
    if violations:
        raise ValueError("assignment is infeasible: " + "; ".join(violations))
    scale = math.lcm(*{v.denominator for row in assignment for v in row if v})
    rest = [[v.numerator * (scale // v.denominator) for v in row] for row in assignment]
    # per student, the projects they hold a positive share of, in order
    holdings = [[p for p, v in enumerate(row) if v] for row in rest]
    sums = [sum(column) for column in zip(*rest)]
    mass = scale
    terms = []
    while mass > 0:
        floors = [s // mass for s in sums]
        ceilings = [-(-s // mass) for s in sums]
        picks = _extreme_point(holdings, floors, ceilings)
        counts = [0] * market.k
        for p in picks:
            counts[p] += 1
        weight = _peel_weight(rest, mass, picks, counts, sums, floors, ceilings)
        for row, held, p in zip(rest, holdings, picks):
            row[p] -= weight
            if not row[p]:
                held.remove(p)
        for p, c in enumerate(counts):
            if c:
                sums[p] -= c * weight
        mass -= weight
        terms.append((Fraction(weight, scale), tuple(picks)))
    if any(any(row) for row in rest):
        raise InternalError("the peeled terms do not add up to the assignment")
    return Lottery(market.k, tuple(terms))
