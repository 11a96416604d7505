"""Misreport search and strategy-proofness verification.

A mechanism here is any callable Market -> assignment matrix (or one of the
names in MECHANISMS). Misreports are full strict orderings: the model has
no truncation or outside option, so a student's deviation space is the
k! - 1 other rankings.

Also houses the built-in impossibility scenario: a two-student market with
fractional quotas on which no mechanism can be ordinally efficient,
envy-free and weakly strategy-proof at once. The scenario reproduces the
argument computationally on an exact rational grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .axioms import is_envy_free, is_ordinally_efficient, sd_dominates
from .eating import run_pslq
from .model import InternalError, Market, Matrix, Row, format_rational
from .priority import run_rplq_exact

STRICT_GAIN = "strict-sd-gain"
INCOMPARABLE_CHANGE = "incomparable-change"
NO_CHANGE = "none"

MISREPORT_PROJECT_LIMIT = 7


def _rplq_assignment(market: Market) -> Matrix:
    return run_rplq_exact(market).assignment


MECHANISMS = {"pslq": run_pslq, "rplq-exact": _rplq_assignment}


def _resolve(mechanism):
    if callable(mechanism):
        return mechanism
    try:
        return MECHANISMS[mechanism]
    except KeyError:
        raise ValueError(f"unknown mechanism {mechanism!r}") from None


@dataclass(frozen=True)
class ManipulationReport:
    """Outcome of scanning every misreport of one student.

    relation is one of:
      strict-sd-gain       some misreport row strictly sd-dominates the
                           truthful row under the truthful ranking
      incomparable-change  some misreport changes the row, none gains
      none                 no misreport changes the row
    """

    student: int
    truthful_row: Row
    misreport: tuple | None
    misreport_row: Row | None
    relation: str


def _misreported_market(market: Market, student: int, ranking) -> Market:
    prefs = [list(r) for r in market.prefs]
    prefs[student] = list(ranking)
    return Market(
        list(market.projects), list(market.lower), list(market.declared_upper()), prefs
    )


def misreport_outcomes(mechanism, market: Market, student: int):
    """Yield (ranking, row of `student`) for every alternative ordering."""
    mechanism = _resolve(mechanism)
    if market.k > MISREPORT_PROJECT_LIMIT:
        raise ValueError(
            "misreport search enumerates all orderings and needs at most"
            f" {MISREPORT_PROJECT_LIMIT} projects, got {market.k}"
        )
    truthful = market.prefs[student]
    for ranking in itertools.permutations(range(market.k)):
        if ranking == truthful:
            continue
        outcome = mechanism(_misreported_market(market, student, ranking))
        yield ranking, outcome[student]


def _scan(
    mechanism, market: Market, truthful: Matrix, student: int, strong: bool
) -> ManipulationReport:
    """One pass over the misreports of `student`, given the truthful
    outcome of the market.

    Returns the first strict sd-gain at once. Otherwise reports the first
    misreport row that counts as a change: with strong=False any row that
    differs from the truthful one, with strong=True any row the truthful
    row does not weakly sd-dominate.
    """
    truthful_row = truthful[student]
    ranking = market.prefs[student]
    first_change = None
    for misreport, row in misreport_outcomes(mechanism, market, student):
        if sd_dominates(row, truthful_row, ranking, strict=True):
            return ManipulationReport(student, truthful_row, misreport, row, STRICT_GAIN)
        if first_change is None and (
            not sd_dominates(truthful_row, row, ranking) if strong else row != truthful_row
        ):
            first_change = (misreport, row)
    if first_change is not None:
        return ManipulationReport(
            student, truthful_row, first_change[0], first_change[1], INCOMPARABLE_CHANGE
        )
    return ManipulationReport(student, truthful_row, None, None, NO_CHANGE)


def search_manipulation(mechanism, market: Market, student: int) -> ManipulationReport:
    """Run the mechanism truthfully and once per misreport of `student`.

    Reports the first strict sd-gain found (in lexicographic ranking
    order), else the first misreport that changes the student's row, else
    relation "none".
    """
    mechanism = _resolve(mechanism)
    return _scan(mechanism, market, mechanism(market), student, strong=False)


def verify_weak_sp(mechanism, market: Market, strong: bool = False):
    """No student can strictly sd-gain by misreporting; (True, None) or
    (False, ManipulationReport).

    With strong=True additionally demand that the truthful row weakly
    sd-dominates every misreport row, the standard given for the priority
    mechanisms; a failure then reports the first misreport row it does not
    dominate. The truthful market and each student's misreports are run
    once either way.
    """
    mechanism = _resolve(mechanism)
    truthful = mechanism(market)
    for student in range(market.n):
        report = _scan(mechanism, market, truthful, student, strong)
        if report.relation == STRICT_GAIN or (strong and report.relation == INCOMPARABLE_CHANGE):
            return False, report
    return True, None


# the impossibility scenario: two students, project a uncapped, projects b
# and c each pinned at exactly 2/3 of a seat

_TWO_THIRDS = Fraction(2, 3)
GRID_DENOMINATOR = 12


def _scenario_market(prefs) -> Market:
    return Market(
        ["a", "b", "c"],
        [0, _TWO_THIRDS, _TWO_THIRDS],
        [None, _TWO_THIRDS, _TWO_THIRDS],
        prefs,
    )


def _grid_assignments():
    """Every feasible assignment of the scenario with entries on the
    1/GRID_DENOMINATOR grid.

    Columns b and c are pinned at 2/3 and rows sum to 1, so the whole
    feasible set is the two-parameter family below; column a then sums to
    2/3 on its own.
    """
    unit = Fraction(1, GRID_DENOMINATOR)
    for i in range(GRID_DENOMINATOR + 1):
        for j in range(GRID_DENOMINATOR + 1):
            r1a, r1b = i * unit, j * unit
            r1c = 1 - r1a - r1b
            if r1c < 0:
                continue
            r2b = _TWO_THIRDS - r1b
            r2c = _TWO_THIRDS - r1c
            r2a = 1 - r2b - r2c
            if r2a < 0 or r2b < 0 or r2c < 0:
                continue
            yield ((r1a, r1b, r1c), (r2a, r2b, r2c))


def _fair_efficient_grid(market: Market):
    found = []
    for candidate in _grid_assignments():
        if not is_envy_free(candidate, market.prefs)[0]:
            continue
        if not is_ordinally_efficient(candidate, market)[0]:
            continue
        found.append(candidate)
    return found


def _family_matrix(t: Fraction) -> Matrix:
    return (
        (_TWO_THIRDS, t, Fraction(1, 3) - t),
        (Fraction(0), _TWO_THIRDS - t, Fraction(1, 3) + t),
    )


@dataclass(frozen=True)
class ImpossibilityReport:
    """Certificate that ordinal efficiency, envy-freeness and weak
    strategy-proofness cannot coexist on the scenario market."""

    market: Market
    family_parameters: tuple
    first_misreport: tuple
    unique_after_first: Matrix
    second_misreport: tuple
    unique_after_second: Matrix
    parameter_forced_by_first: Fraction
    parameter_forced_by_second: Fraction

    @property
    def contradiction(self) -> bool:
        return self.parameter_forced_by_first != self.parameter_forced_by_second

    def lines(self) -> list[str]:
        t_lo = format_rational(self.family_parameters[0])
        t_hi = format_rational(self.family_parameters[-1])
        forced_1 = format_rational(self.parameter_forced_by_first)
        forced_2 = format_rational(self.parameter_forced_by_second)
        return [
            "market: students 1 and 2; project a uncapped, projects b and c"
            " each pinned at exactly 2/3 of a seat",
            "preferences: student 1: a > b > c, student 2: b > c > a",
            "",
            "1. every envy-free and ordinally efficient assignment has rows"
            " (2/3, t, 1/3 - t) and (0, 2/3 - t, 1/3 + t); the grid search at"
            f" denominator {GRID_DENOMINATOR} finds exactly t in"
            f" [{t_lo}, {t_hi}] and nothing else",
            "2. if student 1 reports b > a > c instead, the unique envy-free"
            " and ordinally efficient assignment gives them row (2/3, 1/3, 0),"
            " which strictly sd-dominates their truthful row whenever"
            f" t < 1/3, so weak strategy-proofness forces t = {forced_1}",
            "3. if student 2 reports b > a > c instead, the unique envy-free"
            " and ordinally efficient assignment gives them row (0, 2/3, 1/3),"
            " which strictly sd-dominates their truthful row whenever"
            f" t > 0, so weak strategy-proofness forces t = {forced_2}",
            "",
            f"contradiction: t = {forced_1} and t = {forced_2} cannot both"
            " hold; no mechanism on this market is ordinally efficient,"
            " envy-free and weakly strategy-proof at once",
        ]


def impossibility_scenario() -> ImpossibilityReport:
    """Materialize the impossibility argument on the built-in market.

    Every step is recomputed, not asserted from constants: the axiom
    checkers filter the exact rational grid at the truthful profile and at
    both misreport profiles, and the strict-dominance facts that pin t down
    come from sd_dominates. The prefix-sum differences behind those facts
    are affine in t, so the grid (which contains both interval endpoints)
    decides them for the whole interval.
    """
    truthful = _scenario_market([["a", "b", "c"], ["b", "c", "a"]])
    family = _fair_efficient_grid(truthful)
    parameters = tuple(candidate[0][1] for candidate in family)
    if not all(candidate == _family_matrix(t) for candidate, t in zip(family, parameters)):
        raise InternalError("the fair and efficient grid points leave the family")
    if not (parameters[0] == 0 and parameters[-1] == Fraction(1, 3)):
        raise InternalError("the family's parameters do not span [0, 1/3]")

    first_misreport = (1, 0, 2)  # b > a > c
    after_first = _fair_efficient_grid(
        _scenario_market([["b", "a", "c"], ["b", "c", "a"]])
    )
    if len(after_first) != 1:
        raise InternalError("the first misreport leaves no unique fair and efficient assignment")
    unique_after_first = after_first[0]

    second_misreport = (1, 0, 2)  # b > a > c
    after_second = _fair_efficient_grid(
        _scenario_market([["a", "b", "c"], ["b", "a", "c"]])
    )
    if len(after_second) != 1:
        raise InternalError("the second misreport leaves no unique fair and efficient assignment")
    unique_after_second = after_second[0]

    # weak strategy-proofness leaves only the parameters whose truthful row
    # is not strictly dominated by the misreport outcome
    prefs_1, prefs_2 = truthful.prefs
    for t in parameters:
        if not (
            sd_dominates(unique_after_first[0], _family_matrix(t)[0], prefs_1)
            and sd_dominates(unique_after_second[1], _family_matrix(t)[1], prefs_2)
        ):
            raise InternalError(f"a misreport outcome does not dominate the family at t={t}")
    allowed_by_first = [
        t
        for t in parameters
        if not sd_dominates(unique_after_first[0], _family_matrix(t)[0], prefs_1, strict=True)
    ]
    allowed_by_second = [
        t
        for t in parameters
        if not sd_dominates(unique_after_second[1], _family_matrix(t)[1], prefs_2, strict=True)
    ]
    if len(allowed_by_first) != 1 or len(allowed_by_second) != 1:
        raise InternalError("weak strategy-proofness does not pin down one parameter per misreport")

    return ImpossibilityReport(
        market=truthful,
        family_parameters=parameters,
        first_misreport=first_misreport,
        unique_after_first=unique_after_first,
        second_misreport=second_misreport,
        unique_after_second=unique_after_second,
        parameter_forced_by_first=allowed_by_first[0],
        parameter_forced_by_second=allowed_by_second[0],
    )
