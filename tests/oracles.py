"""Independent oracle implementations used to cross-check the mechanisms.

Deliberately written from the definitions, sharing no code with the package
internals beyond the Market container and rational formatting, so that
agreement is evidence rather than tautology. `choice`, a student's best
project within a menu, and `extreme_point_by_bfs`, the earlier flow that ran
one breadth-first search per augmenting path, are the oracles' own.

`feasibility_by_entries` and `column_sums_by_entries` are the earlier
feasibility check and column sums: one Fraction test and one or two Fraction
additions per entry. The oracles below that need feasibility or column sums
use them, not the package's distinct-entry kernel.

`decompose_by_fractions` is the earlier peel loop of `decompose`, in
`Fraction`s, on the earlier flow `extreme_point_by_scan`, which scans every
floor arc for each direct path. `extreme_point_by_rebuild` is the flow
that followed it: a fresh network per peel, with the direct paths to the
sink taken from a heap.

`rplq_by_bitmask_dp` is the earlier exact-RPLQ dynamic program, verbatim:
it adds each pick straight into the student's totals and keeps no arrival
table. It shares the package's integer PrioLQ step `_pick`, which the
per-order runs still use and `priolq_from_definition` checks.

`pslq_by_full_matrix` is the earlier full-matrix eating loop on the earlier
phase-event rule: the active set as a two-clause union
(`active_set_by_clauses`), the critical time by re-summing the reserve's
slope on every segment (`critical_event_by_segments`), and a closing rule
per event kind (`end_phase_by_segments`).

The envy audits, `tau_graph`, `Lottery.expectation` and the tau-cycle search
are checked against their earlier loops: every row pair in Fractions, every
(student, held project, other project) triple, a dense multiply-add per term
over the terms expanded to 0/1 matrices, and a recursive depth-first search.
"""

import heapq
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from quotassign.eating import CRITICAL_SHIFT, EPOCH_END, EXHAUSTION, EatingPhase, EatingTrace
from quotassign.model import InternalError, Market, as_rational, format_rational
from quotassign.priority import EXACT_ENUMERATION_LIMIT, RplqResult, _integer_quotas, _pick


def choice(prefs, student: int, menu) -> int:
    """The student's most preferred project within a nonempty menu."""
    menu = set(menu)
    if not menu:
        raise ValueError("empty menu")
    for p in prefs[student]:
        if p in menu:
            return p
    raise ValueError("menu contains no known project")


def column_sums_by_entries(mat) -> tuple:
    """The column sums of a matrix, as Fractions; zero entries are skipped."""
    if not mat:
        return ()
    sums = [Fraction(0)] * len(mat[0])
    for row in mat:
        for j, x in enumerate(row):
            if x:
                sums[j] += x
    return tuple(sums)


def feasibility_by_entries(mat, market: Market) -> list:
    """All feasibility constraints violated by an assignment matrix.

    Returns a list of human-readable violation strings; empty iff the
    matrix is a feasible (deterministic or random) assignment for the
    market: entries within [0, 1], each row summing to exactly 1, and
    each column sum within the project's quota interval.

    Raises
    ------
    ValueError
        If the matrix dimensions do not match the market, or an entry is
        not an int or a Fraction (a float or a bool is no exact entry).
    """
    if len(mat) != market.n or any(len(row) != market.k for row in mat):
        raise ValueError(
            f"matrix dimensions do not match market (want {market.n}x{market.k})"
        )
    # one set of entry types first: the per-entry walk only names the culprit
    if not {type(x) for row in mat for x in row} <= {int, Fraction}:
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if type(x) not in (int, Fraction):
                    raise ValueError(
                        f"entry for student {i + 1}, project {market.projects[j]}"
                        f" is {x!r}, not an int or a Fraction"
                    )
    violations = []
    # one pass: row totals and column sums together, zero entries skipped
    columns = [Fraction(0)] * market.k
    for i, row in enumerate(mat):
        total = 0
        for j, x in enumerate(row):
            if x:
                if x < 0 or x > 1:
                    violations.append(
                        f"entry for student {i + 1}, project {market.projects[j]}"
                        f" is {format_rational(as_rational(x))}, outside [0, 1]"
                    )
                total += x
                columns[j] += x
        if total != 1:
            violations.append(
                f"row of student {i + 1} sums to {format_rational(as_rational(total))}, not 1"
            )
    for j, total in enumerate(columns):
        name = market.projects[j]
        if total < market.lower[j]:
            violations.append(
                f"column {name} sum {format_rational(as_rational(total))}"
                f" < l({name})={format_rational(market.lower[j])}"
            )
        elif total > market.upper[j]:
            violations.append(
                f"column {name} sum {format_rational(as_rational(total))}"
                f" > u({name})={format_rational(market.upper[j])}"
            )
    return violations


def classical_ps(market: Market):
    """Plain simultaneous eating with upper quotas only (lower quotas ignored).

    Every student eats their best non-exhausted project at unit speed; a
    project leaves the menu when its consumed mass reaches the upper quota.
    Valid comparison target for markets with all lower quotas zero.
    """
    n, k = market.n, market.k
    rows = [[Fraction(0)] * k for _ in range(n)]
    t = Fraction(0)
    while t < 1:
        omega = [sum(rows[i][p] for i in range(n)) for p in range(k)]
        menu = {p for p in range(k) if omega[p] < market.upper[p]}
        eating = [choice(market.prefs, i, menu) for i in range(n)]
        counts = [eating.count(p) for p in range(k)]
        dt = 1 - t
        for p in menu:
            if counts[p]:
                dt = min(dt, (market.upper[p] - omega[p]) / counts[p])
        for i in range(n):
            rows[i][eating[i]] += dt
        t += dt
    return tuple(tuple(row) for row in rows)


def priolq_from_definition(market: Market, order):
    """Serial priority with the lower-quota menu rule, in Fractions.

    Before each pick, recount the seats every lower quota still needs; if
    they are as many as the students left, the menu is the projects below
    their lower quota, otherwise every project below its upper quota.
    Returns the 0/1 assignment matrix.
    """
    n, k = market.n, market.k
    seats = [Fraction(0)] * k
    rows = [[0] * k for _ in range(n)]
    for step, student in enumerate(order):
        needed = sum(max(market.lower[p] - seats[p], 0) for p in range(k))
        if needed < n - step:
            menu = {p for p in range(k) if seats[p] < market.upper[p]}
        else:
            menu = {p for p in range(k) if seats[p] < market.lower[p]}
        pick = choice(market.prefs, student, menu)
        seats[pick] += 1
        rows[student][pick] = 1
    return tuple(tuple(row) for row in rows)


def rplq_by_enumeration(market: Market):
    """Random priority by brute force: the average of
    priolq_from_definition over all n! priority orders."""
    n, k = market.n, market.k
    totals = [[0] * k for _ in range(n)]
    for order in itertools.permutations(range(n)):
        outcome = priolq_from_definition(market, order)
        for i in range(n):
            for p in range(k):
                totals[i][p] += outcome[i][p]
    weight = Fraction(1, math.factorial(n))
    return tuple(tuple(weight * t for t in row) for row in totals)


def rplq_by_bitmask_dp(market: Market):
    """Average run_priolq over all n! priority orders, exactly.

    A forward dynamic program over the states the orders pass through: a
    state is the set of students placed so far together with the seats
    filled per project, and it carries the number of orders of those
    students that reach it. From each state every unplaced student takes
    their PrioLQ pick, which the state alone decides; that pick is theirs
    in every completion of those orders, (students left - 1)! of them.

    Every entry of the result is a Fraction with denominator dividing n!,
    equal to the plain average over the n! orders. Markets with n >
    EXACT_ENUMERATION_LIMIT are rejected; use run_rplq_sampled for those.
    """
    if market.n > EXACT_ENUMERATION_LIMIT:
        raise ValueError(
            f"n={market.n} exceeds the exact-enumeration limit {EXACT_ENUMERATION_LIMIT};"
            " pass --samples on the command line, or call run_rplq_sampled"
        )
    lower, upper = _integer_quotas(market)
    n, prefs = market.n, market.prefs
    totals = [[0] * market.k for _ in range(n)]
    layer = {(0, (0,) * market.k): 1}
    for placed in range(n):
        remaining = n - placed
        completions = math.factorial(remaining - 1)
        following = {}
        for (mask, counts), ways in layer.items():
            unfilled = sum(max(lo - c, 0) for lo, c in zip(lower, counts))
            for i in range(n):
                if mask >> i & 1:
                    continue
                p = _pick(prefs[i], counts, lower, upper, unfilled, remaining)
                totals[i][p] += ways * completions
                state = (mask | 1 << i, counts[:p] + (counts[p] + 1,) + counts[p + 1 :])
                following[state] = following.get(state, 0) + ways
        layer = following
    weight = Fraction(1, math.factorial(n))
    assignment = tuple(tuple(weight * t for t in row) for row in totals)
    return RplqResult(assignment=assignment, mode="exact")


def pareto_by_enumeration(mu, market: Market):
    """Pareto efficiency of a feasible 0/1 assignment among all feasible 0/1
    assignments, by trying every one of the k**n ways to seat the students.

    Returns (True, None) or (False, dominating) with the lexicographically
    first dominating assignment.
    """
    n, k = market.n, market.k
    current = [row.index(1) for row in mu]
    ranks = [
        {p: pos for pos, p in enumerate(ranking)} for ranking in market.prefs
    ]
    for candidate in itertools.product(range(k), repeat=n):
        counts = [0] * k
        for p in candidate:
            counts[p] += 1
        if any(
            counts[p] < market.lower[p] or counts[p] > market.upper[p]
            for p in range(k)
        ):
            continue
        weakly_better = all(
            ranks[i][candidate[i]] <= ranks[i][current[i]] for i in range(n)
        )
        if weakly_better and any(
            ranks[i][candidate[i]] < ranks[i][current[i]] for i in range(n)
        ):
            dominating = tuple(
                tuple(1 if j == candidate[i] else 0 for j in range(k))
                for i in range(n)
            )
            return False, dominating
    return True, None


def residuals_by_definition(omega: Sequence[Fraction], market: Market) -> list:
    return [max(market.lower[p] - omega[p], Fraction(0)) for p in range(market.k)]


def active_set_by_clauses(t: Fraction, omega: Sequence[Fraction], market: Market) -> frozenset:
    reserve_open = market.n * (1 - t) > sum(residuals_by_definition(omega, market))
    active = set()
    for p in range(market.k):
        if omega[p] < market.lower[p]:
            active.add(p)
        elif omega[p] < market.upper[p] and reserve_open:
            active.add(p)
    return frozenset(active)


def critical_event_by_segments(
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
    residuals = residuals_by_definition(omega, market)
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
        if g < 0 or slope > 0:
            raise InternalError(f"eating reserve at t={t + start} is {g} with slope {slope}")
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


def end_phase_by_segments(
    t: Fraction, omega: list, counts: Sequence[int], active: frozenset, market: Market
) -> tuple:
    """When and how the phase starting at t ends, given the eaten masses
    omega and the number of students eating each project; advances omega
    in place to t_next.

    Returns (t_next, kind, closing): the exact event time, its kind
    (EXHAUSTION, CRITICAL_SHIFT, or EPOCH_END when the run simply reaches
    t = 1), and the frozenset of projects leaving the active set. At an
    exhaustion time equal to the critical time, the critical shift takes
    precedence; its closing rule removes exhausted projects as well.
    """
    exhaust_t = None
    for p in active:
        if counts[p] > 0:
            hit = t + (market.upper[p] - omega[p]) / counts[p]
            if hit <= 1 and (exhaust_t is None or hit < exhaust_t):
                exhaust_t = hit
    critical_t = critical_event_by_segments(t, omega, counts, market)

    if critical_t is not None and (exhaust_t is None or critical_t <= exhaust_t):
        t_next = critical_t
        kind = CRITICAL_SHIFT
    elif exhaust_t is not None:
        t_next = exhaust_t
        kind = EXHAUSTION
    else:
        t_next = Fraction(1)
        kind = EPOCH_END

    duration = t_next - t
    for p, count in enumerate(counts):
        if count:
            omega[p] += count * duration
    if kind == CRITICAL_SHIFT:
        closing = frozenset(p for p in active if omega[p] >= market.lower[p])
    elif kind == EXHAUSTION:
        closing = frozenset(p for p in active if omega[p] == market.upper[p])
    else:
        closing = frozenset(active)
    return t_next, kind, closing


def pslq_by_full_matrix(market: Market):
    """PSLQ with the whole n x k consumption matrix as its state.

    Every phase sums the matrix's columns and counts each project's eaters
    for the event (`end_phase_by_segments`, whose closing rule per event
    kind names the trace's closed projects), adds the phase to every row,
    recomputes the active set from the matrix's column sums
    (`active_set_by_clauses`) and lets every student choose again. It
    shares no event code with the package, so agreement with
    `run_pslq_traced` checks both the package's event rule and its k-vector
    bookkeeping (eaten masses, per-student start times, only the eaters of
    closed projects moving). The package is also checked against
    `discrete_eating` and `classical_ps`. Returns (assignment, trace).
    """
    n, k = market.n, market.k
    rows = [[Fraction(0)] * k for _ in range(n)]
    t = Fraction(0)
    active = active_set_by_clauses(t, [Fraction(0)] * k, market)
    phases = []
    critical_time = None
    while t < 1:
        pattern = tuple(choice(market.prefs, i, active) for i in range(n))
        counts = [pattern.count(p) for p in range(k)]
        t_next, kind, closing = end_phase_by_segments(
            t, list(column_sums_by_entries(rows)), counts, active, market
        )
        for i, p in enumerate(pattern):
            rows[i][p] += t_next - t
        phases.append(
            EatingPhase(
                start=t,
                end=t_next,
                active=tuple(sorted(active)),
                pattern=pattern,
                event=kind,
                closed=tuple(sorted(closing)),
            )
        )
        if kind == CRITICAL_SHIFT and critical_time is None:
            critical_time = t_next
        if t_next == 1:
            break
        still_active = active_set_by_clauses(t_next, column_sums_by_entries(rows), market)
        if not still_active < active:
            raise InternalError(f"eating event at t={t_next} closed no project")
        active = still_active
        t = t_next
    assignment = tuple(tuple(row) for row in rows)
    return assignment, EatingTrace(phases=tuple(phases), critical_time=critical_time)


def discrete_eating(market: Market, steps: int = 1000):
    """Fixed-step simulation of quota-constrained eating.

    Re-evaluates the active-project definition on a grid of `steps` equal
    time slices and advances each student by one slice on their best active
    project. Returns (assignment, pattern_change_times); the change times
    bracket the exact event times to within one step.
    """
    n, k = market.n, market.k
    rows = [[Fraction(0)] * k for _ in range(n)]
    step = Fraction(1, steps)
    changes = []
    previous = None
    for j in range(steps):
        t = Fraction(j, steps)
        omega = [sum(rows[i][p] for i in range(n)) for p in range(k)]
        slack = n * (1 - t) - sum(
            max(market.lower[p] - omega[p], 0) for p in range(k)
        )
        active = set()
        for p in range(k):
            if omega[p] < market.lower[p]:
                active.add(p)
            elif omega[p] < market.upper[p] and slack > 0:
                active.add(p)
        eating = tuple(choice(market.prefs, i, active) for i in range(n))
        if previous is not None and eating != previous:
            changes.append(t)
        previous = eating
        for i in range(n):
            rows[i][eating[i]] += step
    return tuple(tuple(row) for row in rows), changes


def improve_until_efficient(matrix, market: Market, find_improvement):
    """Brute-force ordinal-efficiency oracle: apply improvements to fixpoint.

    `find_improvement(matrix, market)` must return an improved matrix or
    None. The input was ordinally efficient iff the fixpoint equals it.
    """
    current = matrix
    for _ in range(1000):
        improved = find_improvement(current, market)
        if improved is None:
            return current
        current = improved
    raise AssertionError("improvement iteration did not terminate")


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def exists_dominating(R, market: Market, denominator: int):
    """Exhaustive search for a feasible matrix sd-dominating R row by row.

    Enumerates every matrix whose entries are multiples of 1/denominator.
    Complete whenever R's entries and the quotas are such multiples: the
    cycle/chain improvement shifts only move amounts derived from R's
    entries and quota slacks, so an improving matrix exists at this
    resolution iff one exists at all. Returns the first dominator or None.
    """
    from quotassign.axioms import sd_dominates

    n, k = market.n, market.k
    row_candidates = []
    for i in range(n):
        options = []
        for comp in _compositions(denominator, k):
            row = tuple(Fraction(c, denominator) for c in comp)
            if sd_dominates(row, R[i], market.prefs[i]):
                options.append(row)
        row_candidates.append(options)
    for rows in itertools.product(*row_candidates):
        if rows == tuple(tuple(r) for r in R):
            continue
        cols = [sum(rows[i][p] for i in range(n)) for p in range(k)]
        if all(
            market.lower[p] <= cols[p] <= market.upper[p] for p in range(k)
        ):
            return rows
    return None


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


def extreme_point_by_bfs(support, floors: list, ceilings: list):
    """A 0/1 matrix, 1 only where `support` is positive, with one 1 per row
    and between floors[p] and ceilings[p] in each column p, found as an
    integral flow: each student pushes one unit through the projects they
    hold a positive share of; the per-column window [floor, ceil] is an arc
    with a lower bound, reduced to plain capacities via the usual excess arcs
    to a super source/sink. A row whose only positive entry is its 1 has a
    single arc, so the unit is forced through it.

    The earlier flow of `decompose`: a fresh `_FlowNetwork` and one full
    breadth-first search per unit augmented.
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


def _step_size(assignment, extracted):
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
    for s, c in zip(column_sums_by_entries(assignment), column_sums_by_entries(extracted)):
        lo = math.floor(s)
        hi = math.ceil(s)
        if c > lo:
            ratios.append((s - lo) / (c - lo))  # column falls to its floor
        if c < hi:
            ratios.append((hi - s) / (hi - c))  # column climbs to its ceiling
    return min(ratios, default=Fraction(1))


def decompose_by_renormalising(assignment, market: Market):
    """The earlier `decompose` loop: after each peel, divide the remainder by
    1 - step so that it is again a random assignment, and keep a running
    product of the scales as the next term's weight. Returns the terms as
    ((weight, 0/1 matrix), ...).

    It validates every renormalised remainder and takes its extreme point
    from `extreme_point_by_bfs`, so agreement with `decompose` checks the
    unnormalised peel (weights, windows and the stopping rule) and the flow.
    """
    terms = []
    weight = Fraction(1)
    current = assignment
    while True:
        violations = feasibility_by_entries(current, market)
        if violations:
            raise ValueError("remainder is infeasible: " + "; ".join(violations))
        sums = column_sums_by_entries(current)
        floors = [math.floor(s) for s in sums]
        ceilings = [math.ceil(s) for s in sums]
        extracted = extreme_point_by_bfs(current, floors, ceilings)
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
    return tuple(terms)


def extreme_point_by_scan(holdings: list, floors: list, ceilings: list) -> list:
    """The earlier flow of `decompose`, which scans every floor arc for each
    direct path. One project per student, taken from holdings[i], with between
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
    taken directly; `first` points each project at its first holder with no
    unit (no path takes a student's unit back). The search finds the other
    paths. It stops once it reaches the sink, and skips a student once it
    has reached every project, as a student's arcs lead only to the source
    and to projects; neither changes the path it finds.
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
    floor_arcs = []
    for p in range(k):
        if ceilings[p] > floors[p]:
            add_arc(n + p, collector, ceilings[p] - floors[p])
        if floors[p] > 0:
            floor_arcs.append((p, add_arc(n + p, sink, floors[p])))
    add_arc(collector, sink, n)

    flowed = 0
    first = [0] * k
    while True:
        if to_collector is None or caps[to_collector] == 0:
            best = None
            for p, floor_arc in floor_arcs:
                if caps[floor_arc]:
                    line, j = holders[p], first[p]
                    while j < len(line) and caps[2 * line[j][0]] == 0:
                        j += 1
                    first[p] = j
                    if j < len(line) and (best is None or line[j][0] < best[0][0]):
                        best = (line[j], floor_arc)
            if best is not None:
                (i, share), floor_arc = best
                for a in (2 * i, share, floor_arc):
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


def extreme_point_by_rebuild(holdings: list, floors: list, ceilings: list) -> list:
    """The earlier flow of `decompose`, which builds a fresh network for
    each peel and takes only the direct paths to the sink without a search.
    One project per student, taken from holdings[i], with between
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


def _peel_weight_by_fractions(rest, mass: Fraction, picks: list, counts: list, sums, floors, ceilings) -> Fraction:
    """Largest w keeping rest - w*x inside [0, mass - w] entrywise and every
    column sum inside (mass - w) times its floor/ceiling window, where x
    gives student i project picks[i] and counts[p] students to project p.

    Every row of rest sums to mass, so while a row's held entry (where x
    is 1) stays nonnegative its other entries stay at most mass - w: of the
    entries, only the held ones bound w.
    """
    ratios = [row[p] for row, p in zip(rest, picks)]  # held entry falls to 0
    for s, c, lo, hi in zip(sums, counts, floors, ceilings):
        if c > lo:
            ratios.append((s - mass * lo) / (c - lo))  # column falls to its floor
        if c < hi:
            ratios.append((mass * hi - s) / (hi - c))  # column climbs to its ceiling
    return min(ratios)


def decompose_by_fractions(assignment, market: Market) -> tuple:
    """The earlier `decompose` loop, in `Fraction`s: `rest`, the column
    sums and `mass` are Fractions, each peel subtracts the weight from every
    held entry, and the weight is a Fraction minimum. Returns the terms,
    ((weight, picks), ...), with the extreme points from
    `extreme_point_by_scan`.

    Each peel makes a fractional entry or column sum of rest/mass integral,
    and nothing integral ever turns fractional again, so the lottery has at
    most (fractional entries) + (fractional column sums) + 1 terms.
    """
    if not market.has_integer_quotas():
        raise ValueError("decomposition requires integer quotas")
    violations = feasibility_by_entries(assignment, market)
    if violations:
        raise ValueError("assignment is infeasible: " + "; ".join(violations))
    rest = [list(row) for row in assignment]
    # per student, the projects they hold a positive share of, in order
    holdings = [[p for p, v in enumerate(row) if v] for row in rest]
    sums = list(column_sums_by_entries(assignment))
    mass = Fraction(1)
    terms = []
    while mass > 0:
        shares = [s / mass for s in sums]
        floors = [math.floor(s) for s in shares]
        ceilings = [math.ceil(s) for s in shares]
        picks = extreme_point_by_scan(holdings, floors, ceilings)
        counts = [0] * market.k
        for p in picks:
            counts[p] += 1
        weight = _peel_weight_by_fractions(rest, mass, picks, counts, sums, floors, ceilings)
        for row, held, p in zip(rest, holdings, picks):
            row[p] -= weight
            if not row[p]:
                held.remove(p)
        for p, c in enumerate(counts):
            if c:
                sums[p] -= c * weight
        mass -= weight
        terms.append((weight, tuple(picks)))
    if any(any(row) for row in rest):
        raise InternalError("the peeled terms do not add up to the assignment")
    return tuple(terms)

def _sd_dominates(x, y, ranking, strict=False):
    """Every prefix sum of x in ranking order is at least y's (and, when
    strict, x != y), in Fractions."""
    total_x = total_y = Fraction(0)
    for p in ranking:
        total_x += x[p]
        total_y += y[p]
        if total_x < total_y:
            return False
    return tuple(x) != tuple(y) if strict else True


def envy_free_by_pairs(R, prefs):
    """The earlier `is_envy_free`: every ordered pair of students."""
    for i, ranking in enumerate(prefs):
        for j in range(len(R)):
            if i != j and not _sd_dominates(R[i], R[j], ranking):
                return False, (i, j)
    return True, None


def weakly_envy_free_by_pairs(R, prefs):
    """The earlier `is_weakly_envy_free`: every ordered pair of students."""
    for i, ranking in enumerate(prefs):
        for j in range(len(R)):
            if i != j and _sd_dominates(R[j], R[i], ranking, strict=True):
                return False, (i, j)
    return True, None


def tau_graph_by_triples(R, prefs):
    """The earlier `tau_graph`: one dict test per (student, held project,
    other project) triple, the first student to certify an edge its witness."""
    k = len(R[0]) if R else 0
    edges = {}
    for i, ranking in enumerate(prefs):
        position = {p: pos for pos, p in enumerate(ranking)}
        for q in range(k):
            if R[i][q] > 0:
                for p in range(k):
                    if p != q and position[p] < position[q] and (p, q) not in edges:
                        edges[(p, q)] = i
    return edges


def picks_to_matrix(picks, k: int):
    """The 0/1 Fraction matrix giving student i project picks[i]."""
    return tuple(tuple(Fraction(int(p == q)) for q in range(k)) for p in picks)


def expanded_terms(lottery):
    """A lottery's terms with their picks expanded to 0/1 matrices."""
    return tuple((weight, picks_to_matrix(picks, lottery.k)) for weight, picks in lottery.terms)


def expectation_by_dense_sum(lottery):
    """The earlier `Lottery.expectation`: a dense n x k multiply-add in
    Fractions per term, over the terms expanded to 0/1 matrices."""
    rows = len(lottery.terms[0][1])
    cols = lottery.k
    total = [[Fraction(0)] * cols for _ in range(rows)]
    for weight, assignment in expanded_terms(lottery):
        for i in range(rows):
            for p in range(cols):
                total[i][p] += weight * assignment[i][p]
    return tuple(tuple(row) for row in total)


def cycle_by_recursion(edges: dict, successors: list):
    """The earlier `axioms._cycle`: a recursive depth-first search, which
    exceeds the recursion limit on a path longer than about 1,000 nodes."""
    k = len(successors)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * k
    stack = []

    def visit(node):
        color[node] = GRAY
        stack.append(node)
        for succ in successors[node]:
            if color[succ] == GRAY:
                cycle = stack[stack.index(succ):]
                return cycle
            if color[succ] == WHITE:
                found = visit(succ)
                if found is not None:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for start in range(k):
        if color[start] == WHITE:
            cycle = visit(start)
            if cycle is not None:
                witnesses = tuple(
                    edges[(cycle[j], cycle[(j + 1) % len(cycle)])]
                    for j in range(len(cycle))
                )
                return tuple(cycle), witnesses
    return None
