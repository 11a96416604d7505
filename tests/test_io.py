import json
import time
from fractions import Fraction

import pytest

from quotassign.decompose import Lottery, decompose
from quotassign.eating import CRITICAL_SHIFT, EatingPhase, EatingTrace, run_pslq_traced
from quotassign.marketio import (
    GeneratorConfig,
    decimal_string,
    generate_market,
    lottery_to_json,
    market_to_json,
    parse_assignment,
    parse_market,
    render,
    serialize_assignment,
    serialize_market,
    trace_to_json,
)
from quotassign.model import Market, MarketError

from goldens import (
    PSLQ_FIVE,
    PSLQ_LOWER_QUOTAS,
    market_chain,
    market_five,
    market_lower_quotas,
    market_lower_quotas_misreport,
    market_no_quotas,
    market_six,
    market_thirds,
    market_thirds_misreport,
)
from oracles import expanded_terms

# the decomposition needs integer quotas, which every golden but the thirds has
INTEGER_GOLDEN_MARKETS = [
    market_no_quotas,
    market_lower_quotas,
    market_lower_quotas_misreport,
    market_five,
    market_six,
    market_chain,
]
GOLDEN_MARKETS = INTEGER_GOLDEN_MARKETS + [market_thirds, market_thirds_misreport]


def test_market_round_trip():
    for market in [market_five(), market_lower_quotas(), market_thirds()]:
        assert parse_market(serialize_market(market)) == market


def test_parse_market_document():
    text = json.dumps(
        {
            "projects": [
                {"name": "a", "lower": "1", "upper": "2"},
                {"name": "b", "lower": 1, "upper": "2"},
                {"name": "c", "lower": "2", "upper": 2},
            ],
            "preferences": [
                ["a", "b", "c"],
                ["a", "b", "c"],
                ["b", "a", "c"],
                ["b", "a", "c"],
                ["c", "a", "b"],
            ],
        }
    )
    market = parse_market(text)
    assert market == market_five()
    assert market.n == 5
    assert market.lower == (1, 1, 2)
    assert market.upper == (2, 2, 2)


def test_parse_market_defaults_and_null_upper():
    market = parse_market(
        '{"projects": [{"name": "a"}, {"name": "b", "upper": null}],'
        ' "preferences": [["a", "b"]]}'
    )
    assert market.lower == (0, 0)
    assert market.upper == (1, 1)  # null means no cap, materialized to n


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "malformed JSON at line 1"),
        ("[]", "top level"),
        ('{"projects": []}', "missing field 'preferences'"),
        ('{"projects": {}, "preferences": []}', "projects: must be an array"),
        ('{"projects": [[]], "preferences": []}', r"projects\[0\]: must be an object"),
        (
            '{"projects": [{"name": ""}], "preferences": []}',
            r"projects\[0\].name",
        ),
        (
            '{"projects": [{"name": "a", "lower": "x"}], "preferences": []}',
            r"projects\[0\].lower",
        ),
        (
            '{"projects": [{"name": "a", "lower": true}], "preferences": [["a"]]}',
            r"projects\[0\].lower: not a rational number: True",
        ),
        (
            '{"projects": [{"name": "a", "upper": "1e100000000"}], "preferences": [["a"]]}',
            r"projects\[0\].upper: not a rational number: '1e100000000'",
        ),
        (
            '{"projects": [{"name": "a"}], "preferences": [[1]]}',
            r"preferences\[0\]",
        ),
        ('{"projects": [{"name": "a"}], "preferences": []}', "no students"),
        (
            '{"projects": [{"name": "a"}], "preferences": [["a", "b"]]}',
            "unknown project",
        ),
        (
            '{"projects": [{"name": "a"}, {"name": "b"}],'
            ' "preferences": [["a"]]}',
            "every project exactly once",
        ),
        (
            '{"projects": [{"name": "a", "lower": 3}], "preferences": [["a"], ["a"]]}',
            "exceeds upper quota",
        ),
        (
            '{"projects": [{"name": "a", "lower": 3, "upper": 3}],'
            ' "preferences": [["a"], ["a"]]}',
            "lower quotas sum",
        ),
    ],
)
def test_parse_market_diagnostics(text, message):
    start = time.perf_counter()
    with pytest.raises(MarketError, match=message):
        parse_market(text)
    # an exponent such as 1e100000000 must fail before any 10**exp is built
    assert time.perf_counter() - start < 0.5


def test_assignment_round_trip():
    market = market_five()
    text = serialize_assignment(PSLQ_FIVE)
    assert parse_assignment(text, market) == PSLQ_FIVE
    # a bare row array works too
    rows = json.loads(text)["assignment"]
    assert parse_assignment(json.dumps(rows), market) == PSLQ_FIVE


def test_assignment_diagnostics():
    market = market_five()
    with pytest.raises(MarketError, match="expected 5 rows"):
        parse_assignment('[["1", "0", "0"]]', market)
    with pytest.raises(MarketError, match=r"assignment\[0\]: expected 3 entries"):
        parse_assignment(json.dumps([["1", "0"]] + [["0", "1", "0"]] * 4), market)
    bad = [["1", "0", "boom"]] + [["0", "1", "0"]] * 4
    with pytest.raises(MarketError, match=r"assignment\[0\]\[2\]"):
        parse_assignment(json.dumps(bad), market)
    flags = [[True, False, False]] + [[False, True, False]] * 4
    with pytest.raises(MarketError, match=r"assignment\[0\]\[0\]: not a rational number: True"):
        parse_assignment(json.dumps(flags), market)


# Trace and lottery documents are written only. These round trips decode
# them with plain JSON and Fraction, to check that the writers keep every
# field of the object they write.


@pytest.mark.parametrize("golden", GOLDEN_MARKETS, ids=lambda golden: golden.__name__)
def test_trace_round_trip(golden):
    market = golden()
    _, trace = run_pslq_traced(market)
    doc = json.loads(json.dumps(trace_to_json(trace, market)))
    phases = tuple(
        EatingPhase(
            start=Fraction(phase["start"]),
            end=Fraction(phase["end"]),
            event=phase["event"],
            **{
                key: tuple(market.index[name] for name in phase[key])
                for key in ("active", "closed", "pattern")
            },
        )
        for phase in doc["phases"]
    )
    critical = doc["critical_time"]
    assert EatingTrace(phases, None if critical is None else Fraction(critical)) == trace


@pytest.mark.parametrize("golden", INTEGER_GOLDEN_MARKETS, ids=lambda golden: golden.__name__)
def test_lottery_round_trip(golden):
    market = golden()
    assignment, _ = run_pslq_traced(market)
    lottery = decompose(assignment, market)
    doc = json.loads(json.dumps(lottery_to_json(lottery)))
    terms = tuple(
        (
            Fraction(term["weight"]),
            tuple(tuple(Fraction(entry) for entry in row) for row in term["assignment"]),
        )
        for term in doc["terms"]
    )
    assert terms == expanded_terms(lottery)
    read = Lottery(market.k, tuple((w, tuple(row.index(1) for row in m)) for w, m in terms))
    assert read == lottery
    assert read.expectation() == assignment


def test_render_table():
    table = render(PSLQ_FIVE, market_five(), "table")
    lines = table.splitlines()
    assert lines[0].split() == ["a", "b", "c"]
    assert lines[1].startswith("student 1")
    assert "3/4" in lines[1] and "1/4" in lines[1]
    assert lines[5].split() == ["student", "5", "0", "0", "1"]


def test_render_csv_carries_exact_and_decimal():
    text = render(PSLQ_LOWER_QUOTAS, market_lower_quotas(), "csv")
    lines = text.splitlines()
    assert lines[0] == "student,a,a (decimal),b,b (decimal),c,c (decimal)"
    assert lines[1] == "1,1/2,0.5,1/3,0.33333333333333333333,1/6,0.16666666666666666667"


def test_render_json_parses_back():
    market = market_five()
    assert parse_assignment(render(PSLQ_FIVE, market, "json"), market) == PSLQ_FIVE


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        render(PSLQ_FIVE, market_five(), "yaml")


def test_decimal_string():
    assert decimal_string(Fraction(3, 4)) == "0.75"
    assert decimal_string(Fraction(2)) == "2"
    assert decimal_string(Fraction(1, 3)) == "0.33333333333333333333"


def test_generator_is_deterministic():
    cfg = GeneratorConfig(n=5, k=3, seed=42, quota_style="integer-loose")
    assert generate_market(cfg) == generate_market(cfg)
    other = GeneratorConfig(n=5, k=3, seed=43, quota_style="integer-loose")
    assert generate_market(cfg) != generate_market(other)


def test_generator_classical_style():
    market = generate_market(GeneratorConfig(n=4, k=3, seed=1))
    assert market.lower == (0, 0, 0)
    assert market.upper == (4, 4, 4)


def test_generator_tight_style_exercises_critical_shift():
    for seed in range(3):
        market = generate_market(
            GeneratorConfig(n=6, k=4, seed=seed, quota_style="integer-tight")
        )
        assert sum(market.lower) >= market.n - 1
        _, trace = run_pslq_traced(market)
        assert any(phase.event == CRITICAL_SHIFT for phase in trace.phases)


def test_generator_fractional_style_bounds_denominators():
    market = generate_market(
        GeneratorConfig(n=3, k=3, seed=7, quota_style="fractional", denominator=4)
    )
    for quota in market.lower + market.upper:
        assert quota.denominator <= 4
    assert sum(market.lower) <= market.n <= sum(market.upper)


def test_generator_correlated_preferences_follow_weights():
    cfg = GeneratorConfig(
        n=40, k=3, seed=11, pref_style="correlated", weights=(100, 1, 1)
    )
    market = generate_market(cfg)
    top_on_a = sum(1 for ranking in market.prefs if ranking[0] == 0)
    assert top_on_a >= 30


def test_generator_rejects_bad_configs():
    with pytest.raises(MarketError, match="n >= 1"):
        generate_market(GeneratorConfig(n=0, k=2))
    with pytest.raises(MarketError, match="unknown quota style"):
        generate_market(GeneratorConfig(n=2, k=2, quota_style="bogus"))
    with pytest.raises(MarketError, match="unknown preference style"):
        generate_market(GeneratorConfig(n=2, k=2, pref_style="bogus"))
    with pytest.raises(MarketError, match="one value per project"):
        generate_market(
            GeneratorConfig(n=2, k=3, pref_style="correlated", weights=(1, 2))
        )
    with pytest.raises(MarketError, match="positive"):
        generate_market(
            GeneratorConfig(n=2, k=2, pref_style="correlated", weights=(0, 1))
        )


def test_uncapped_projects_serialize_as_null():
    market = Market(["a", "b"], [0, 1], [None, 2], [["a", "b"], ["b", "a"]])
    doc = market_to_json(market)
    assert [entry["upper"] for entry in doc["projects"]] == [None, "2"]
    assert parse_market(serialize_market(market)) == market


def test_repeated_strings_parse_to_equal_entries_and_fail_at_their_first_place():
    market = market_five()
    rows = [["1/2", "0", " 1/2 "]] * 4 + [["0", "0", "1"]]
    assert parse_assignment(json.dumps(rows), market)[3] == (Fraction(1, 2), 0, Fraction(1, 2))
    rows = [["1", "0", "0"], ["x", "0", "1"], ["x", "1", "0"]] + [["0", "0", "1"]] * 2
    with pytest.raises(MarketError, match=r"^assignment\[1\]\[0\]: not a rational"):
        parse_assignment(json.dumps(rows), market)
