"""Parsing, serialization, rendering, and random market generation.

JSON is the canonical interchange format; every rational is a "p/q" string
(integers as "p") so no float ever enters the data path. Tables and CSV are
for human consumption, and the CSV decimal columns are display-only.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .decompose import Lottery
from .eating import CRITICAL_SHIFT, EatingTrace, run_pslq_traced
from .model import Market, MarketError, Matrix, as_rational, format_rational

RENDER_FORMATS = ("table", "json", "csv")
QUOTA_STYLES = ("none", "integer-tight", "integer-loose", "fractional")
PREFERENCE_STYLES = ("uniform", "correlated")
GENERATOR_ATTEMPTS = 500
DECIMAL_DIGITS = 20


# parsing


def _load_document(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MarketError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise MarketError("malformed JSON: nested too deeply") from None


def _rational_field(value, field: str) -> Fraction:
    try:
        return as_rational(value)
    except MarketError as exc:
        raise MarketError(f"{field}: {exc}") from None


def parse_market(text: str) -> Market:
    """Read a market document: {"projects": [{"name", "lower", "upper"}],
    "preferences": [[names best first], ...]}.

    "lower" defaults to 0 and "upper" to null (no cap). Raises MarketError
    with a field path on malformed input.
    """
    doc = _load_document(text)
    if not isinstance(doc, dict):
        raise MarketError("top level must be an object")
    for key in ("projects", "preferences"):
        if key not in doc:
            raise MarketError(f"missing field {key!r}")
        if not isinstance(doc[key], list):
            raise MarketError(f"{key}: must be an array")
    names, lower, upper = [], [], []
    for idx, entry in enumerate(doc["projects"]):
        field = f"projects[{idx}]"
        if not isinstance(entry, dict):
            raise MarketError(f"{field}: must be an object")
        if not isinstance(entry.get("name"), str) or not entry.get("name"):
            raise MarketError(f"{field}.name: must be a non-empty string")
        names.append(entry["name"])
        lower.append(_rational_field(entry.get("lower", 0), f"{field}.lower"))
        cap = entry.get("upper")
        upper.append(None if cap is None else _rational_field(cap, f"{field}.upper"))
    for idx, ranking in enumerate(doc["preferences"]):
        if not isinstance(ranking, list) or not all(isinstance(name, str) for name in ranking):
            raise MarketError(f"preferences[{idx}]: must be an array of project names")
    return Market(names, lower, upper, doc["preferences"])


def parse_assignment(text: str, market: Market) -> Matrix:
    """Read an assignment matrix, {"assignment": rows} or a bare row array,
    one row per student in market order. Each distinct string entry is
    parsed once."""
    doc = _load_document(text)
    rows = doc.get("assignment") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise MarketError('expected an "assignment" array of rows')
    if len(rows) != market.n:
        raise MarketError(f"expected {market.n} rows, got {len(rows)}")
    parsed = {}
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != market.k:
            raise MarketError(f"assignment[{i}]: expected {market.k} entries")
        entries = []
        for p, value in enumerate(row):
            if not isinstance(value, str):
                entries.append(_rational_field(value, f"assignment[{i}][{p}]"))
                continue
            if value not in parsed:
                parsed[value] = _rational_field(value, f"assignment[{i}][{p}]")
            entries.append(parsed[value])
        matrix.append(tuple(entries))
    return tuple(matrix)


# serialization


def market_to_json(market: Market) -> dict:
    return {
        "projects": [
            {
                "name": market.projects[p],
                "lower": format_rational(market.lower[p]),
                "upper": None if cap is None else format_rational(cap),
            }
            for p, cap in enumerate(market.declared_upper())
        ],
        "preferences": [
            [market.projects[p] for p in ranking] for ranking in market.prefs
        ],
    }


def assignment_to_json(matrix: Matrix) -> dict:
    return {"assignment": [[format_rational(v) for v in row] for row in matrix]}


def lottery_to_json(lottery: Lottery) -> dict:
    """Each term as its weight and its 0/1 assignment matrix, one shared row
    of "0"/"1" strings per project."""
    units = [["1" if p == q else "0" for q in range(lottery.k)] for p in range(lottery.k)]
    return {
        "terms": [
            {"weight": format_rational(weight), "assignment": [units[p] for p in picks]}
            for weight, picks in lottery.terms
        ]
    }


def trace_to_json(trace: EatingTrace, market: Market) -> dict:
    names = market.projects
    return {
        "critical_time": None
        if trace.critical_time is None
        else format_rational(trace.critical_time),
        "phases": [
            {
                "start": format_rational(phase.start),
                "end": format_rational(phase.end),
                "event": phase.event,
                "active": [names[p] for p in phase.active],
                "closed": [names[p] for p in phase.closed],
                "pattern": [names[p] for p in phase.pattern],
            }
            for phase in trace.phases
        ],
    }


def serialize_market(market: Market) -> str:
    return json.dumps(market_to_json(market), indent=2)


def serialize_assignment(matrix: Matrix) -> str:
    return json.dumps(assignment_to_json(matrix), indent=2)


# rendering


def decimal_string(value: Fraction) -> str:
    """Display-only decimal with DECIMAL_DIGITS significant digits; lossy
    for most rationals by nature."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _table(matrix: Matrix, market: Market) -> str:
    header = [""] + list(market.projects)
    body = [
        [f"student {i + 1}"] + [format_rational(v) for v in row]
        for i, row in enumerate(matrix)
    ]
    widths = [
        max(len(line[col]) for line in [header] + body)
        for col in range(len(header))
    ]
    lines = []
    for line in [header] + body:
        cells = [line[0].ljust(widths[0])] + [
            cell.rjust(width) for cell, width in zip(line[1:], widths[1:])
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _csv(matrix: Matrix, market: Market) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["student"]
    for name in market.projects:
        header += [name, f"{name} (decimal)"]
    writer.writerow(header)
    for i, row in enumerate(matrix):
        record = [str(i + 1)]
        for value in row:
            record += [format_rational(value), decimal_string(value)]
        writer.writerow(record)
    return out.getvalue().rstrip("\n")


def render(matrix: Matrix, market: Market, fmt: str = "table") -> str:
    """Render an assignment matrix: exact-rational table, machine JSON, or
    CSV carrying both exact and decimal columns."""
    if fmt == "table":
        return _table(matrix, market)
    if fmt == "json":
        return serialize_assignment(matrix)
    if fmt == "csv":
        return _csv(matrix, market)
    raise ValueError(f"unknown format {fmt!r}")


# generation


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    k: int
    seed: int = 0
    quota_style: str = "none"
    denominator: int = 4  # fractional quotas only
    pref_style: str = "uniform"
    weights: tuple | None = None  # correlated preferences only


def _project_names(k: int) -> list:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if k <= len(alphabet):
        return [alphabet[j] for j in range(k)]
    return [f"p{j + 1}" for j in range(k)]


def _draw_preferences(rng: random.Random, cfg: GeneratorConfig) -> list:
    if cfg.pref_style == "uniform":
        prefs = []
        for _ in range(cfg.n):
            ranking = list(range(cfg.k))
            rng.shuffle(ranking)
            prefs.append(ranking)
        return prefs
    weights = cfg.weights
    if weights is None:
        weights = tuple(2 ** (cfg.k - 1 - j) for j in range(cfg.k))
    if len(weights) != cfg.k:
        raise MarketError("weights must list one value per project")
    if any(w <= 0 for w in weights):
        raise MarketError("weights must be positive")
    prefs = []
    for _ in range(cfg.n):
        remaining = list(range(cfg.k))
        ranking = []
        while remaining:
            pool = [weights[p] for p in remaining]
            pick = rng.choices(range(len(remaining)), weights=pool)[0]
            ranking.append(remaining.pop(pick))
        prefs.append(ranking)
    return prefs


def _draw_quotas(rng: random.Random, cfg: GeneratorConfig):
    n, k = cfg.n, cfg.k
    if cfg.quota_style == "none":
        return [0] * k, [None] * k
    if cfg.quota_style == "integer-loose":
        for _ in range(GENERATOR_ATTEMPTS):
            lower = [rng.randint(0, max(1, n // k)) for _ in range(k)]
            upper = [rng.randint(low, n) for low in lower]
            if sum(lower) <= n <= sum(upper):
                return lower, upper
    elif cfg.quota_style == "integer-tight":
        # lower quotas sum within 1 of n, starving the unconstrained pool
        target = rng.randint(max(0, n - 1), n)
        lower = [0] * k
        for _ in range(target):
            lower[rng.randrange(k)] += 1
        for _ in range(GENERATOR_ATTEMPTS):
            upper = [rng.randint(low, n) for low in lower]
            if sum(upper) >= n:
                return lower, upper
    else:
        den = cfg.denominator
        if den < 1:
            raise MarketError("denominator must be at least 1")
        for _ in range(GENERATOR_ATTEMPTS):
            numerators = [rng.randint(0, den) for _ in range(k)]
            lower = [Fraction(num, den) for num in numerators]
            upper = [
                Fraction(rng.randint(num, den * n), den) for num in numerators
            ]
            if sum(lower) <= n <= sum(upper):
                return lower, upper
    raise MarketError(
        f"could not draw feasible {cfg.quota_style} quotas for n={n}, k={k}"
        f" in {GENERATOR_ATTEMPTS} attempts"
    )


def generate_market(cfg: GeneratorConfig) -> Market:
    """Deterministic per seed. The integer-tight style redraws the whole
    market until the traced eating run contains a critical shift, so every
    generated instance actually exercises the scarce regime; styles that
    cannot produce one (tiny markets) fail after GENERATOR_ATTEMPTS."""
    if cfg.n < 1 or cfg.k < 1:
        raise MarketError("generator needs n >= 1 and k >= 1")
    if cfg.quota_style not in QUOTA_STYLES:
        raise MarketError(f"unknown quota style {cfg.quota_style!r}")
    if cfg.pref_style not in PREFERENCE_STYLES:
        raise MarketError(f"unknown preference style {cfg.pref_style!r}")
    rng = random.Random(cfg.seed)
    names = _project_names(cfg.k)
    for _ in range(GENERATOR_ATTEMPTS):
        lower, upper = _draw_quotas(rng, cfg)
        prefs = _draw_preferences(rng, cfg)
        market = Market(names, lower, upper, prefs)
        if cfg.quota_style != "integer-tight":
            return market
        _, trace = run_pslq_traced(market)
        if any(phase.event == CRITICAL_SHIFT for phase in trace.phases):
            return market
    raise MarketError(
        f"no integer-tight market with a critical shift found for n={cfg.n},"
        f" k={cfg.k} in {GENERATOR_ATTEMPTS} attempts"
    )
