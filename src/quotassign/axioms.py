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

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from typing import Optional, Sequence

from .model import (
    InternalError,
    Market,
    Matrix,
    assigned_project,
    column_sums,
    feasibility_violations,
    is_integral,
    validate_permutation,
)

TAU_CYCLE = "tau-cycle"
WASTEFUL_CHAIN = "wasteful-chain"


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


def _first_envy(R: Matrix, prefs: Sequence[Sequence[int]], envies) -> tuple:
    """The first student i, and the smallest j, with envies(own, other) on the
    prefix sums of i's row and j's under i's ranking; or (True, None).

    Each distinct row of R is kept once, with the first student holding it,
    in first-index order, and scaled to ints over the rows' common
    denominator. Every student is compared against those rows only, so the
    first row that fails names the smallest j; `own` is the very object
    among the prefix-sum lists when the rows are equal.
    """
    if not R:
        return True, None
    index, firsts, held = {}, [], []
    for i, row in enumerate(R):
        key = tuple(row)
        if key not in index:
            index[key] = len(firsts)
            firsts.append(i)
        held.append(index[key])
    common = math.lcm(*{v.denominator for row in index for v in row})
    scaled = [[v.numerator * (common // v.denominator) for v in row] for row in index]
    lengths = sorted({len(row) for row in scaled})
    for i, ranking in enumerate(prefs):
        if lengths != [len(ranking)]:
            raise ValueError(
                f"rows of length {lengths} under a ranking of {len(ranking)} projects"
            )
        prefixes = [list(accumulate(map(row.__getitem__, ranking))) for row in scaled]
        own = prefixes[held[i]]
        for j, other in zip(firsts, prefixes):
            if envies(own, other):
                return False, (i, j)
    return True, None


def _falls_short(own: list, other: list) -> bool:
    return any(map(operator.lt, own, other))


def _strictly_dominated(own: list, other: list) -> bool:
    return other is not own and not any(map(operator.lt, other, own))


def is_envy_free(R: Matrix, prefs: Sequence[Sequence[int]]) -> tuple:
    """Every student's row sd-dominates every other row under her own ranking.

    Returns (True, None) or (False, (i, j)) for the first pair where student
    i's row fails to dominate student j's.
    """
    return _first_envy(R, prefs, _falls_short)


def is_weakly_envy_free(R: Matrix, prefs: Sequence[Sequence[int]]) -> tuple:
    """No student's row is strictly sd-dominated by another's under her ranking.

    Returns (True, None) or (False, (i, j)) where row j strictly dominates
    row i under student i's ranking.
    """
    return _first_envy(R, prefs, _strictly_dominated)


def tau_graph(R: Matrix, prefs: Sequence[Sequence[int]]) -> dict:
    """Directed edges {(p, q): witness student} with p preferred to q by the
    witness while the witness holds positive probability of q.

    Each project keeps its tau predecessors as a bitmask, so a student adds
    every new edge into a held project in one step, walking their ranking
    only down to their last held project; the first student to add an edge
    is its witness.
    """
    columns = range(len(R[0]) if R else 0)
    pred = [0] * len(columns)
    edges = {}
    for i, ranking in enumerate(prefs):
        row = R[i]
        held = {q for q in compress(columns, row) if row[q] > 0}
        above = 0
        for q in ranking:
            if q in held:
                new = above & ~pred[q]
                pred[q] |= new
                while new:
                    low = new & -new
                    edges[(low.bit_length() - 1, q)] = i
                    new ^= low
                held.discard(q)
                if not held:
                    break
            above |= 1 << q
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
    """The first cycle a depth-first search meets, starting from each
    unvisited node in order and taking successors in list order. The search
    keeps its own stack of successor iterators, so a deep graph cannot
    exhaust the interpreter's recursion limit."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(successors)
    for start in range(len(successors)):
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        stack = [start]  # the gray nodes, in the order they were entered
        pending = [iter(successors[start])]
        while pending:
            for succ in pending[-1]:
                if color[succ] == GRAY:
                    cycle = stack[stack.index(succ):]
                    witnesses = tuple(
                        edges[(cycle[j], cycle[(j + 1) % len(cycle)])]
                        for j in range(len(cycle))
                    )
                    return tuple(cycle), witnesses
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    stack.append(succ)
                    pending.append(iter(successors[succ]))
                    break
            else:
                color[stack.pop()] = BLACK
                pending.pop()
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
    per edge. `improved`, R with `delta` moved along every edge,
    sd-dominates R row by row, strictly for every witness.
    """

    kind: str
    projects: tuple
    students: tuple
    delta: Fraction
    improved: Matrix


def _witness(kind: str, R: Matrix, projects, students, slack=()) -> ImprovementWitness:
    """Shift delta along a tau path: students[j] gives up delta of the
    project after projects[j] for projects[j], which they prefer. On a cycle
    (one student per project) the project after the last is the first.
    delta is the least probability given up, and at most each quota slack
    in `slack`."""
    after = [projects[(j + 1) % len(projects)] for j in range(len(students))]
    delta = min([R[i][q] for i, q in zip(students, after)] + list(slack))
    improved = list(R)  # only the witness students' rows are replaced
    for i, p, q in zip(students, projects, after):
        row = list(improved[i])
        row[q] -= delta
        row[p] += delta
        improved[i] = tuple(row)
    return ImprovementWitness(
        kind=kind,
        projects=tuple(projects),
        students=tuple(students),
        delta=delta,
        improved=tuple(improved),
    )


def _verify_witness(witness: ImprovementWitness, R: Matrix, prefs, market) -> None:
    """Raise InternalError unless the witness is a feasible improvement of R
    that every touched student strictly prefers. Every other row must be
    R's own row object, so only the touched rows need comparing."""
    if witness.delta <= 0:
        raise InternalError(f"{witness.kind} witness shifts a nonpositive amount")
    touched = set(witness.students)
    if len(witness.improved) != len(R) or any(
        row is not R[i] for i, row in enumerate(witness.improved) if i not in touched
    ):
        raise InternalError(f"{witness.kind} witness changes a student it does not name")
    if feasibility_violations(witness.improved, market) or witness.improved == R:
        raise InternalError(f"{witness.kind} witness is not a feasible change of R")
    for i in sorted(touched):
        if not sd_dominates(witness.improved[i], R[i], prefs[i], strict=True):
            raise InternalError(
                f"{witness.kind} witness does not improve student {i + 1}"
            )


def _require_feasible(R: Matrix, market: Market) -> None:
    violations = feasibility_violations(R, market)
    if violations:
        raise ValueError("assignment is infeasible: " + "; ".join(violations))


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
    _require_feasible(R, market)
    return _audit(R, market)


def _audit(R: Matrix, market: Market) -> tuple:
    """is_ordinally_efficient on an R already known to be feasible."""
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
    project to their own. Raises ValueError unless prefs has one ranking per
    row of mu and master_list is a permutation of the students.
    """
    if len(prefs) != len(mu):
        raise ValueError(f"{len(prefs)} rankings for {len(mu)} students")
    position = {s: pos for pos, s in enumerate(validate_permutation(master_list, len(mu)))}
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

    A 0/1 matrix meets the quotas [l, u] exactly when it meets the integer
    window [ceil(l), floor(u)]. With integer quotas the constraints form a
    bihierarchy (Budish, Che, Kojima & Milgrom 2013), so on a 0/1 matrix
    every improvement the ordinal-efficiency audit finds moves whole seats:
    mu is Pareto-efficient iff it is ordinally efficient in the rounded
    market. Polynomial, with no size cap. Returns (True, None) or (False,
    dominating), a feasible 0/1 assignment that every student weakly
    prefers and the audit's witness students strictly prefer.

    Raises
    ------
    ValueError
        If mu is infeasible for the market or not a 0/1 assignment.
    """
    _require_feasible(mu, market)
    if not is_integral(mu):
        raise ValueError("assignment is not deterministic: entries must be 0 or 1")
    upper = [q if q is None else math.floor(q) for q in market.declared_upper()]
    rounded = Market(market.projects, [math.ceil(q) for q in market.lower], upper, market.prefs)
    ok, witness = _audit(mu, rounded)
    if ok:
        return True, None
    if witness.delta != 1:
        raise InternalError(f"{witness.kind} witness on a 0/1 assignment shifts {witness.delta}")
    return False, witness.improved
