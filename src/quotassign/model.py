"""Exact-rational domain types for quota-constrained assignment markets.

A market consists of n students with strict preferences over k projects,
plus per-project lower and upper quotas. Everything downstream (mechanisms,
axiom checkers, decomposition) works on two matrix shapes:

- deterministic assignments: n x k matrices with 0/1 entries, one 1 per row;
- random assignments: n x k matrices of `fractions.Fraction` entries, each
  row summing to 1.

No floating point is used anywhere in the core; all quantities are exact
rationals. Matrices are plain tuples of tuples so they hash and compare
structurally.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]

#: one assignment-matrix row
Row = tuple
#: an n x k assignment matrix (deterministic or random)
Matrix = tuple


class MarketError(ValueError):
    """Raised for structurally invalid markets or malformed quota data."""


class InternalError(RuntimeError):
    """Raised when an invariant that guards an output fails; always a bug."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" / "p" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and "e" not in value.lower():  # no exponent: Fraction builds 10**exp
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MarketError(f"not a rational number: {value!r}") from exc
    raise MarketError(f"not a rational number: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or plain "p" for integers.

    Round-trips through :func:`as_rational` exactly.
    """
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Market:
    """A quota-constrained assignment market.

    Parameters
    ----------
    projects : sequence of str
        Project names, in canonical order. Names must be unique.
    lower : sequence of int | Fraction | str
        Per-project lower quotas (minimum total assignment).
    upper : sequence of int | Fraction | str | None
        Per-project upper quotas; ``None`` means unbounded and is
        materialized as ``n`` (the number of students is an attainable
        maximum, and it keeps downstream arithmetic total). Such projects
        are flagged in ``uncapped``, so copies of the market with more
        students stay uncapped (see :meth:`declared_upper`).
    preferences : sequence of rankings
        One ranking per student, best project first; each ranking must
        cover every project exactly once. Entries may be project names
        or 0-based project indices.

    Raises
    ------
    MarketError
        If quotas are out of order (l > u somewhere), a ranking is not a
        permutation of the projects, there are no students, or no feasible
        assignment exists (sum of lower quotas > n, or n > sum of uppers).
    """

    def __init__(self, projects, lower, upper, preferences):
        # a string is iterable, but letter by letter it is no list
        for field, value in (("projects", projects), ("lower", lower), ("upper", upper)):
            if isinstance(value, (str, bytes)):
                raise MarketError(f"{field} must be a list, not {value!r}")
        self.projects: tuple = tuple(str(p) for p in projects)
        self.k = len(self.projects)
        if self.k == 0:
            raise MarketError("market has no projects")
        if len(set(self.projects)) != self.k:
            raise MarketError("duplicate project names")
        self.index = {name: j for j, name in enumerate(self.projects)}

        self.n = len(preferences)
        if self.n == 0:
            raise MarketError("no students")
        self.prefs: tuple = tuple(
            self._coerce_ranking(ranking, student) for student, ranking in enumerate(preferences)
        )

        if len(lower) != self.k or len(upper) != self.k:
            raise MarketError("quota vectors must have one entry per project")
        self.lower: tuple = tuple(as_rational(q) for q in lower)
        self.uncapped: tuple = tuple(q is None for q in upper)
        self.upper: tuple = tuple(
            Fraction(self.n) if q is None else as_rational(q) for q in upper
        )
        for name, lo, hi in zip(self.projects, self.lower, self.upper):
            if lo < 0:
                raise MarketError(f"lower quota of {name} is negative")
            if lo > hi:
                raise MarketError(
                    f"project {name}: lower quota {format_rational(lo)}"
                    f" exceeds upper quota {format_rational(hi)}"
                )
        total_lower = sum(self.lower)
        total_upper = sum(self.upper)
        if total_lower > self.n:
            raise MarketError(
                f"no feasible assignment: lower quotas sum to"
                f" {format_rational(total_lower)} > {self.n} students"
            )
        if total_upper < self.n:
            raise MarketError(
                f"no feasible assignment: upper quotas sum to"
                f" {format_rational(total_upper)} < {self.n} students"
            )

    def _coerce_ranking(self, ranking, student: int) -> tuple:
        # a string is iterable, but letter by letter it is no ranking
        if isinstance(ranking, (str, bytes)):
            raise MarketError(f"student {student + 1}: ranking must be a list, not {ranking!r}")
        try:
            entries = iter(ranking)
        except TypeError:
            raise MarketError(f"student {student + 1}: ranking must be a list, not {ranking!r}") from None
        out = []
        for entry in entries:
            if isinstance(entry, int) and not isinstance(entry, bool):
                if not 0 <= entry < self.k:
                    raise MarketError(f"student {student + 1}: project index {entry} out of range")
                out.append(entry)
            else:
                try:
                    out.append(self.index[entry])
                except (KeyError, TypeError):  # TypeError: an unhashable entry
                    raise MarketError(f"student {student + 1}: unknown project {entry!r}") from None
        if sorted(out) != list(range(self.k)):
            raise MarketError(
                f"student {student + 1}: ranking must list every project exactly once"
            )
        return tuple(out)

    def has_integer_quotas(self) -> bool:
        """True iff every lower and upper quota is an integer."""
        return all(q.denominator == 1 for q in self.lower + self.upper)

    def declared_upper(self) -> tuple:
        """The upper quotas as given: ``None`` for uncapped projects."""
        return tuple(None if free else q for free, q in zip(self.uncapped, self.upper))

    def __eq__(self, other):
        if not isinstance(other, Market):
            return NotImplemented
        return (
            self.projects == other.projects
            and self.lower == other.lower
            and self.upper == other.upper
            and self.uncapped == other.uncapped
            and self.prefs == other.prefs
        )

    def __hash__(self):
        return hash((self.projects, self.lower, self.upper, self.uncapped, self.prefs))

    def __repr__(self):
        return f"Market(n={self.n}, projects={list(self.projects)})"


def matrix(rows: Iterable[Iterable[RationalLike]]) -> Matrix:
    """Build an assignment matrix of exact Fractions from any nested iterable."""
    return tuple(tuple(as_rational(x) for x in row) for row in rows)


def column_sums(mat: Matrix) -> tuple:
    """The column sums of a matrix, as Fractions; zero entries are skipped."""
    if not mat:
        return ()
    sums = [Fraction(0)] * len(mat[0])
    for row in mat:
        for j, x in enumerate(row):
            if x:
                sums[j] += x
    return tuple(sums)


def is_integral(mat: Matrix) -> bool:
    """True iff every entry is 0 or 1."""
    return all(x == 0 or x == 1 for row in mat for x in row)


def assigned_project(row: Row) -> int:
    """Index of the single project receiving 1 in a deterministic row."""
    for j, x in enumerate(row):
        if x == 1:
            return j
    raise ValueError("row has no assigned project")


def feasibility_violations(mat: Matrix, market: Market) -> list:
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


def is_feasible(mat: Matrix, market: Market) -> bool:
    """True iff the matrix is a feasible assignment for the market."""
    return not feasibility_violations(mat, market)


def validate_permutation(order: Sequence[int], n: int) -> tuple:
    """Check that `order` is a permutation of 0..n-1 and return it as a tuple.

    Entries must be ints; a bool or a float such as 1.0 is no student index."""
    order = tuple(order)
    if any(isinstance(s, bool) or not isinstance(s, int) for s in order):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order} holds a non-int entry")
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
    return order
