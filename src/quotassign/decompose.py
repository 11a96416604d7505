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


class _Network:
    """The flow network of one `decompose` call, built once. Student i
    pushes one unit through the projects they hold; project p's window
    [floor, ceil] is an arc with a lower bound, reduced to plain capacities
    via the usual excess arcs to a super source/sink. A student holding one
    project has a single arc, so the unit is forced through it.

    Every arc any peel can use is built here, in the order a fresh build
    for one peel would add it. The arcs that depend on the windows (project
    -> collector, project -> sink) are always there; one that a fresh build
    would leave out has capacity 0, and the search skips it as it would skip
    a full arc. `drop` unlinks the arc of an entry that fell to 0. So each
    peel's search sees the arcs, in the order, that a fresh build would
    hold, but for source -> collector: the first path fills it, and the
    search never takes a full arc or its twin, which leads back to the
    source.
    """

    def __init__(self, holdings: list, k: int):
        n = len(holdings)
        self.n, self.k = n, k
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
            add_arc(source, i, 1)  # arc 2 * i; its twin leads arcs[i]
        for i, held in enumerate(holdings):
            for p in held:
                add_arc(i, n + p, 1)
        self.spills, self.floor_arcs = [], []  # per project, its arcs to the collector and to the sink
        for p in range(k):
            self.spills.append(add_arc(n + p, collector, 0))
            self.floor_arcs.append(add_arc(n + p, sink, 0))
        self.to_sink = add_arc(collector, sink, n)
        self.heads, self.base, self.arcs = heads, caps, arcs

    def drop(self, i: int, p: int) -> None:
        """Unlink student i's arc to project p."""
        a = next(a for a in self.arcs[i] if self.heads[a] == self.n + p)
        self.arcs[i].remove(a)
        self.arcs[self.n + p].remove(a ^ 1)

    def extreme_point(self, floors: list, ceilings: list) -> list:
        """One project per student, from the projects they hold, with
        between floors[p] and ceilings[p] students on each project p.

        The flow is Edmonds & Karp's: each augmenting path is the one that a
        breadth-first search over the arcs, in insertion order, finds. Three
        kinds of path are known without the search:
        - The first. The search reaches the collector before any project,
          so it finds source -> collector -> sink, whose bottleneck is the
          floor total: a floor total above n leaves no point in the window,
          and no flow is needed to tell.
        - Floor paths. With the source's arc to the collector full, the
          search reaches every student with no unit yet, in order, then the
          projects each holds in the order of their arcs, and stops at the
          first of those projects whose floor is unmet: the path source ->
          student -> project -> sink, through the first student with no unit
          who holds such a project.
        - Collector paths. Once no student with no unit holds such a
          project, the projects they hold reach only students who hold a
          unit and the collector. The collector is reached first through the
          first of those projects whose arc to the collector has capacity
          and, while its arc to the sink has capacity, it ends the search:
          source -> student -> project -> collector -> sink.
        Each kind after the first is taken in one pass over the students. A
        student passed over never needs a second look: no path takes a
        student's unit back, floor arcs only lose capacity, and while
        collector -> sink has capacity no augmenting path runs through the
        collector, so arcs into it only lose capacity too. For the same
        reason no search makes a direct path possible again, so the searches
        come after the direct paths. A search stops once it reaches the
        sink, and skips a student once it has reached every project, as a
        student's arcs lead only to the source and to projects; neither
        changes the path it finds. The loop stops at the flow n + floor
        total, where the next search would fail.
        """
        n, k = self.n, self.k
        collector, source, sink = n + k, n + k + 1, n + k + 2
        heads, arcs = self.heads, self.arcs
        to_sink = self.to_sink
        floor_total = sum(floors)
        if floor_total > n:  # the floors need more students than there are
            raise InternalError("no integral point in a nonempty window")
        caps = self.base.copy()
        for spill, floor_arc, lo, hi in zip(self.spills, self.floor_arcs, floors, ceilings):
            caps[spill] = hi - lo
            caps[floor_arc] = lo
        flowed = floor_total  # the first path, source -> collector -> sink
        caps[to_sink] = n - floor_total

        def direct(exits: list, tail: tuple, limit: int) -> int:
            """Take up to limit paths source -> i -> p -> exits[p] -> *tail,
            each through the first student i with no unit who holds a
            project whose exit has capacity, and the first such p in i's
            arcs; the number taken."""
            taken = 0
            for i in range(n):
                if taken == limit:
                    break
                if caps[2 * i]:
                    for a in arcs[i]:  # the first, back to the source, is empty
                        if caps[a] and caps[out := exits[heads[a] - n]]:
                            for b in (2 * i, a, out, *tail):
                                caps[b] -= 1
                                caps[b ^ 1] += 1
                            taken += 1
                            break
            return taken

        flowed += direct(self.floor_arcs, (), n)
        flowed += direct(self.spills, (to_sink,), caps[to_sink])
        while flowed < n + floor_total:
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
                raise InternalError("no integral point in a nonempty window")
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

        picks = [None] * n
        for p in range(k):
            for a in arcs[n + p]:
                if caps[a] and heads[a] < n:  # the twin of an arc that took a unit
                    picks[heads[a]] = p
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
    network = _Network([[p for p, v in enumerate(row) if v] for row in rest], market.k)
    sums = [sum(column) for column in zip(*rest)]
    mass = scale
    terms = []
    while mass > 0:
        floors = [s // mass for s in sums]
        ceilings = [-(-s // mass) for s in sums]
        picks = network.extreme_point(floors, ceilings)
        counts = [0] * market.k
        for p in picks:
            counts[p] += 1
        weight = _peel_weight(rest, mass, picks, counts, sums, floors, ceilings)
        for i, (row, p) in enumerate(zip(rest, picks)):
            row[p] -= weight
            if not row[p]:
                network.drop(i, p)
        for p, c in enumerate(counts):
            if c:
                sums[p] -= c * weight
        mass -= weight
        terms.append((Fraction(weight, scale), tuple(picks)))
    if any(any(row) for row in rest):
        raise InternalError("the peeled terms do not add up to the assignment")
    return Lottery(market.k, tuple(terms))
