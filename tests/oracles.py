"""Independent oracle implementations used to cross-check the mechanisms.

Deliberately written from the definitions, sharing no code with the package
internals beyond the Market container, so that agreement is evidence rather
than tautology. The two exceptions are `pslq_by_full_matrix`, the earlier
full-matrix eating loop, which reuses the package's private active-set and
phase-event rule (`_active_set`, `_end_phase`), and
`decompose_by_renormalising`, the earlier peel loop, which reuses the
package's public `extract_extreme_point` (see their docstrings). `choice`,
a student's best project within a menu, is the oracles' own.

The envy audits, `tau_graph` and `Lottery.expectation` are checked against
their earlier loops: every row pair in Fractions, every (student, held
project, other project) triple, and a dense multiply-add per term.
"""

import itertools
import math
from fractions import Fraction

from quotassign.eating import CRITICAL_SHIFT, EatingPhase, EatingTrace, _active_set, _end_phase
from quotassign.decompose import Lottery, extract_extreme_point
from quotassign.model import InternalError, Market, column_sums


def choice(prefs, student: int, menu) -> int:
    """The student's most preferred project within a nonempty menu."""
    menu = set(menu)
    if not menu:
        raise ValueError("empty menu")
    for p in prefs[student]:
        if p in menu:
            return p
    raise ValueError("menu contains no known project")


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


def pslq_by_full_matrix(market: Market):
    """PSLQ with the whole n x k consumption matrix as its state.

    Every phase sums the matrix's columns and counts each project's eaters
    for the event (the package's private `_end_phase`), adds the phase to
    every row, recomputes the active set from the matrix's column sums
    (`_active_set`) and lets every student choose again. It shares the
    phase-event rule with the package on purpose: agreement with
    `run_pslq_traced` checks the k-vector bookkeeping (eaten masses,
    per-student start times, only the eaters of closed projects moving).
    The rule itself is checked against `discrete_eating` and
    `classical_ps`. Returns (assignment, trace).
    """
    n, k = market.n, market.k
    rows = [[Fraction(0)] * k for _ in range(n)]
    t = Fraction(0)
    active = _active_set(t, [Fraction(0)] * k, market)
    phases = []
    critical_time = None
    while t < 1:
        pattern = tuple(choice(market.prefs, i, active) for i in range(n))
        counts = [pattern.count(p) for p in range(k)]
        t_next, kind, closing = _end_phase(t, list(column_sums(rows)), counts, active, market)
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
        still_active = _active_set(t_next, column_sums(rows), market)
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
    for s, c in zip(column_sums(assignment), column_sums(extracted)):
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
    product of the scales as the next term's weight.

    It calls the package's `extract_extreme_point` on every renormalised
    remainder (which validates it each time), so agreement with `decompose`
    checks the unnormalised peel (weights, windows and the stopping rule),
    not the flow network.
    """
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


def expectation_by_dense_sum(lottery):
    """The earlier `Lottery.expectation`: a dense n x k multiply-add in
    Fractions per term."""
    rows = len(lottery.terms[0][1])
    cols = len(lottery.terms[0][1][0])
    total = [[Fraction(0)] * cols for _ in range(rows)]
    for weight, assignment in lottery.terms:
        for i in range(rows):
            for p in range(cols):
                total[i][p] += weight * assignment[i][p]
    return tuple(tuple(row) for row in total)
