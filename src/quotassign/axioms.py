"""Exact checkers for fairness and efficiency axioms.

All comparisons are stochastic-dominance (sd) comparisons of lottery rows:
x sd-dominates y under a ranking iff every prefix sum of x, taken in ranking
order, is at least the corresponding prefix sum of y.

Ordinal efficiency of a random assignment under quotas is characterized by
two graph conditions on the "tau" relation (p tau q iff some student prefers
p to q yet holds positive probability of q): the relation must be acyclic,
and there must be no chain of tau edges from a project with slack upper
quota to a project strictly above its lower quota. Both failures are
constructive: a cycle or chain yields an explicit probability shift that
every touched student strictly prefers, returned as an ImprovementWitness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import (
    InternalError,
    Market,
    Matrix,
    assigned_project,
    column_sums,
    feasibility_violations,
)

TAU_CYCLE = "tau-cycle"
WASTEFUL_CHAIN = "wasteful-chain"

#: is_mqc_efficient enumerates k**n candidate assignments, at most this many
ENUMERATION_GUARD = 10**6


def sd_dominates(x: Sequence, y: Sequence, pref: Sequence[int], strict: bool = False) -> bool:
    """Does lottery row x stochastically dominate row y under `pref`?

    Weak mode: every prefix sum of x in preference order is >= that of y.
    Strict mode additionally requires x != y.

    Raises
    ------
    ValueError
        If x, y and pref differ in length.
    """
    if not len(x) == len(y) == len(pref):
        raise ValueError(
            f"rows of length {len(x)} and {len(y)} under a ranking of {len(pref)} projects"
        )
    total_x = Fraction(0)
    total_y = Fraction(0)
    for p in pref:
        total_x += x[p]
        total_y += y[p]
        if total_x < total_y:
            return False
    if strict:
        return tuple(x) != tuple(y)
    return True


def is_envy_free(R: Matrix, prefs: Sequence[Sequence[int]]) -> tuple:
    """Every student's row sd-dominates every other row under her own ranking.

    Returns (True, None) or (False, (i, j)) for the first pair where student
    i's row fails to dominate student j's.
    """
    for i, ranking in enumerate(prefs):
        for j in range(len(R)):
            if i != j and not sd_dominates(R[i], R[j], ranking):
                return False, (i, j)
    return True, None


def is_weakly_envy_free(R: Matrix, prefs: Sequence[Sequence[int]]) -> tuple:
    """No student's row is strictly sd-dominated by another's under her ranking.

    Returns (True, None) or (False, (i, j)) where row j strictly dominates
    row i under student i's ranking.
    """
    for i, ranking in enumerate(prefs):
        for j in range(len(R)):
            if i != j and sd_dominates(R[j], R[i], ranking, strict=True):
                return False, (i, j)
    return True, None


def tau_graph(R: Matrix, prefs: Sequence[Sequence[int]]) -> dict:
    """Directed edges {(p, q): witness student} with p preferred to q by the
    witness while the witness holds positive probability of q."""
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


def _tau(R: Matrix, prefs: Sequence[Sequence[int]]) -> tuple:
    """The tau graph of R, as its edge dict and as sorted successor lists."""
    edges = tau_graph(R, prefs)
    successors = [[] for _ in range(len(R[0]) if R else 0)]
    for (p, q) in sorted(edges):
        successors[p].append(q)
    return edges, successors


def find_tau_cycle(R: Matrix, prefs: Sequence[Sequence[int]]) -> Optional[tuple]:
    """A directed cycle in the tau graph, or None.

    Returns (projects, witnesses): projects[j] tau projects[j+1] (cyclically)
    with witnesses[j] the student certifying that edge.
    """
    return _cycle(*_tau(R, prefs))


def _cycle(edges: dict, successors: list) -> Optional[tuple]:
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


def find_wasteful_chain(
    R: Matrix, prefs: Sequence[Sequence[int]], market: Market
) -> Optional[tuple]:
    """A shortest tau path from slack upper capacity to slack lower quota.

    Searches for projects p_1, ..., p_{l+1} (l >= 1) with p_1 below its upper
    quota, p_{l+1} strictly above its lower quota, and consecutive tau edges.
    Returns (students, projects) with students[j] witnessing the j-th edge,
    or None. Chains that revisit a project only exist alongside a tau cycle,
    so checking find_tau_cycle first makes this search complete.
    """
    return _chain(*_tau(R, prefs), column_sums(R), market)


def _chain(edges: dict, successors: list, cols: Sequence, market: Market) -> Optional[tuple]:
    sources = [p for p in range(market.k) if cols[p] < market.upper[p]]
    sinks = {q for q in range(market.k) if cols[q] > market.lower[q]}
    if not sources or not sinks:
        return None
    parent = {p: None for p in sources}

    def path_to(node):
        path = [node]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return list(reversed(path))

    frontier = list(sources)
    while frontier:
        nxt = []
        for node in frontier:
            for succ in successors[node]:
                if succ in sinks:
                    # test on expansion: a sink that doubles as a source is
                    # still a valid chain end (even closing back on its own
                    # start), only a repeat strictly inside the path is not
                    projects = path_to(node) + [succ]
                    if succ not in projects[1:-1]:
                        students = tuple(
                            edges[(projects[j], projects[j + 1])]
                            for j in range(len(projects) - 1)
                        )
                        return students, tuple(projects)
                if succ not in parent:
                    parent[succ] = node
                    nxt.append(succ)
        frontier = nxt
    return None


@dataclass(frozen=True)
class ImprovementWitness:
    """A feasible probability shift strictly improving every touched student.

    `kind` is "tau-cycle" or "wasteful-chain". `projects` lists the cycle
    nodes (closing edge implied) or the chain nodes; `students` the witness
    per edge. `improved` = R + `shift` sd-dominates R row by row, strictly
    for every witness, and `delta` is the exact amount shifted per edge.
    """

    kind: str
    projects: tuple
    students: tuple
    delta: Fraction
    shift: Matrix
    improved: Matrix


def _witness(kind: str, R: Matrix, projects, students, slack=()) -> ImprovementWitness:
    """Shift delta along a tau path: students[j] gives up delta of the
    project after projects[j] for projects[j], which they prefer. On a cycle
    (one student per project) the project after the last is the first.
    delta is the least probability given up, and at most each quota slack
    in `slack`."""
    after = [projects[(j + 1) % len(projects)] for j in range(len(students))]
    delta = min([R[i][q] for i, q in zip(students, after)] + list(slack))
    n, k = len(R), len(R[0])
    shift = [[Fraction(0)] * k for _ in range(n)]
    for i, p, q in zip(students, projects, after):
        shift[i][q] -= delta
        shift[i][p] += delta
    improved = tuple(
        tuple(R[i][j] + shift[i][j] for j in range(k)) for i in range(n)
    )
    return ImprovementWitness(
        kind=kind,
        projects=tuple(projects),
        students=tuple(students),
        delta=delta,
        shift=tuple(tuple(row) for row in shift),
        improved=improved,
    )


def _verify_witness(witness: ImprovementWitness, R: Matrix, prefs, market) -> None:
    """Raise InternalError unless the witness is a feasible improvement of R
    that every touched student strictly prefers."""
    if witness.delta <= 0:
        raise InternalError(f"{witness.kind} witness shifts a nonpositive amount")
    if feasibility_violations(witness.improved, market) or witness.improved == R:
        raise InternalError(f"{witness.kind} witness is not a feasible change of R")
    touched = set(witness.students)
    for i, ranking in enumerate(prefs):
        if not sd_dominates(witness.improved[i], R[i], ranking, strict=i in touched):
            raise InternalError(
                f"{witness.kind} witness does not improve student {i + 1}"
            )


def is_ordinally_efficient(R: Matrix, market: Market) -> tuple:
    """Decide ordinal efficiency: R is efficient iff the tau graph is
    acyclic and no wasteful chain exists.

    Returns (True, None), or (False, ImprovementWitness) with a verified
    feasible assignment that sd-dominates R for everyone and strictly
    improves the witness students.

    Raises
    ------
    ValueError
        If R is not feasible for the market.
    """
    violations = feasibility_violations(R, market)
    if violations:
        raise ValueError("assignment is infeasible: " + "; ".join(violations))
    edges, successors = _tau(R, market.prefs)
    cycle = _cycle(edges, successors)
    if cycle is not None:
        witness = _witness(TAU_CYCLE, R, *cycle)
    else:
        cols = column_sums(R)
        chain = _chain(edges, successors, cols, market)
        if chain is None:
            return True, None
        students, projects = chain
        head, tail = projects[0], projects[-1]
        slack = (market.upper[head] - cols[head], cols[tail] - market.lower[tail])
        witness = _witness(WASTEFUL_CHAIN, R, projects, students, slack)
    _verify_witness(witness, R, market.prefs, market)
    return False, witness


def is_ml_fair(mu: Matrix, prefs: Sequence[Sequence[int]], master_list: Sequence[int]) -> tuple:
    """No student prefers the project of a student placed later in the list.

    `master_list` orders students from highest to lowest priority. Returns
    (True, None) or (False, (i, j)) where i precedes j yet prefers j's
    project to her own.
    """
    position = {student: pos for pos, student in enumerate(master_list)}
    assigned = [assigned_project(row) for row in mu]
    for i, ranking in enumerate(prefs):
        rank = {p: pos for pos, p in enumerate(ranking)}
        for j in range(len(mu)):
            if j != i and rank[assigned[j]] < rank[assigned[i]] and position[j] > position[i]:
                return False, (i, j)
    return True, None


def is_mqc_efficient(mu: Matrix, market: Market) -> tuple:
    """Is the deterministic assignment Pareto-undominated among all feasible
    deterministic assignments?

    Exhaustive: enumerates every way to give each student one project and
    filters by quotas, so it requires k**n <= ENUMERATION_GUARD. Returns
    (True, None) or (False, dominating_matrix).
    """
    n, k = market.n, market.k
    if k**n > ENUMERATION_GUARD:
        raise ValueError(
            f"{k}**{n} candidate assignments exceed the enumeration guard;"
            " check a sample of assignments instead"
        )
    violations = feasibility_violations(mu, market)
    if violations:
        raise ValueError("assignment is infeasible: " + "; ".join(violations))
    current = [assigned_project(row) for row in mu]
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
