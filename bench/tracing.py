"""Per-layer tracing of quotassign, done from outside the package.

`install` wraps the package's public functions at the sites where the
calling modules bind them (``quotassign.cli.run_pslq``,
``quotassign.strategy.MECHANISMS["pslq"]``, ...), so no code under ``src/``
changes. Each wrapped call records a span; a layer's self time is the time
its spans cover minus the time covered by nested wrapped spans. The root
span of every CLI call is ``cli.main`` itself, so the self times of one
session sum to its traced wall time.

Wrappers cost one flag test when the collector is inactive, and the
benchmark only activates it around traced sessions.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

#: per-layer metrics that are self times, in report order
TIME_METRICS = (
    "cli.self_s",
    "marketio.parse_s",
    "marketio.emit_s",
    "model.market_build_s",
    "model.feasibility_s",
    "eating.pslq_s",
    "priority.rplq_exact_s",
    "priority.rplq_sampled_s",
    "axioms.ef_s",
    "axioms.wef_s",
    "axioms.oe_s",
    "decompose.decompose_s",
    "decompose.expectation_s",
    "strategy.wsp_s",
    "strategy.manipulate_s",
)

#: per-layer metrics that are counts (or sizes) summed over calls
COUNT_METRICS = (
    "marketio.out_mb",
    "model.markets_built",
    "eating.pslq_calls",
    "eating.phases",
    "priority.priolq_runs",
    "axioms.sd_calls",
    "decompose.peels",
    "strategy.misreports",
)

#: per-layer metrics that are maxima over calls
MAX_METRICS = ("decompose.weight_bits_max",)


class Collector:
    """Spans and counters of the traced sessions, kept in memory."""

    def __init__(self):
        self.active = False
        self.call = None  # identifier shared by the spans of one CLI call
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(int)
        self.spans = []  # [call, name, parent index, start, end]
        self._open = []  # indices of open spans, innermost last
        self._child = []  # time covered by children of each open span

    def timed(self, metric: str, fn, count: str | None = None, after=None):
        """Wrap `fn` so that each active call is a span named `metric`.

        `count` names a counter bumped once per call; `after(collector,
        args, kwargs, result)` may record further counters from the
        arguments and the result.
        """
        collector = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not collector.active:
                return fn(*args, **kwargs)
            index = len(collector.spans)
            parent = collector._open[-1] if collector._open else -1
            span = [collector.call, metric, parent, time.perf_counter(), 0.0]
            collector.spans.append(span)
            collector._open.append(index)
            collector._child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span[4] = end
                duration = end - span[3]
                collector._open.pop()
                collector.self_s[metric] += duration - collector._child.pop()
                if collector._child:
                    collector._child[-1] += duration
            if count is not None:
                collector.counts[count] += 1
            if after is not None:
                after(collector, args, kwargs, result)
            return result

        return wrapper

    def counted(self, metric: str, fn):
        """Wrap `fn` to count active calls without opening a span; its time
        stays with the caller's span."""
        collector = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if collector.active:
                collector.counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["call", "name", "parent", "start", "end"],
                    "spans": self.spans,
                },
                handle,
            )


class _JsonShim:
    """Stands in for the ``json`` module where ``quotassign.cli`` binds it,
    so that its ``json.dumps`` calls become spans."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


def _phases(collector, args, kwargs, result):
    collector.counts["eating.phases"] += len(result[1].phases)


def _exact_orders(collector, args, kwargs, result):
    collector.counts["priority.priolq_runs"] += math.factorial(args[0].n)


def _samples(collector, args, kwargs, result):
    collector.counts["priority.priolq_runs"] += result.samples


def _lottery(collector, args, kwargs, result):
    collector.counts["decompose.peels"] += len(result.terms)
    bits = max(weight.denominator.bit_length() for weight, _ in result.terms)
    maxima = collector.maxima
    maxima["decompose.weight_bits_max"] = max(maxima["decompose.weight_bits_max"], bits)


def _written(collector, args, kwargs, result):
    collector.counts["marketio.out_mb"] += (len(args[0].encode("utf-8")) + 1) / 1e6


def install(collector: Collector):
    """Wrap every traced binding; returns a function that undoes it."""
    import importlib
    import json as json_module

    # the package re-exports functions under its modules' names
    # (quotassign.decompose is the function), so fetch the modules by path
    axioms, cli, decompose, eating, model, strategy = (
        importlib.import_module(f"quotassign.{name}")
        for name in ("axioms", "cli", "decompose", "eating", "model", "strategy")
    )

    undo = []

    def patch(owner, name, wrapper):
        if isinstance(owner, dict):
            undo.append((owner.__setitem__, name, owner[name]))
            owner[name] = wrapper
        else:
            undo.append((functools.partial(setattr, owner), name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def timed(owner, name, metric, **extra):
        original = owner[name] if isinstance(owner, dict) else getattr(owner, name)
        patch(owner, name, collector.timed(metric, original, **extra))

    # marketio: reading and parsing inputs, shaping and writing outputs
    for name in ("_read", "parse_market", "parse_assignment"):
        timed(cli, name, "marketio.parse_s")
    for name in (
        "assignment_to_json",
        "lottery_to_json",
        "trace_to_json",
        "market_to_json",
        "render",
        "serialize_market",
    ):
        timed(cli, name, "marketio.emit_s")
    timed(cli, "_emit", "marketio.emit_s", after=_written)
    patch(
        cli,
        "json",
        _JsonShim(json_module, collector.timed("marketio.emit_s", json_module.dumps)),
    )

    # model: one span per Market built, wherever it is built
    timed(model.Market, "__init__", "model.market_build_s", count="model.markets_built")
    for owner in (cli, axioms, decompose):
        timed(owner, "feasibility_violations", "model.feasibility_s")

    # eating: outer entry points count calls, the traced core counts phases
    timed(cli, "run_pslq", "eating.pslq_s", count="eating.pslq_calls")
    timed(cli, "run_pslq_traced", "eating.pslq_s", count="eating.pslq_calls", after=_phases)
    timed(strategy.MECHANISMS, "pslq", "eating.pslq_s", count="eating.pslq_calls")
    timed(eating, "run_pslq_traced", "eating.pslq_s", after=_phases)

    # priority: exact RPLQ runs n! orders, sampled RPLQ one per sample
    for owner in (cli, strategy):
        timed(owner, "run_rplq_exact", "priority.rplq_exact_s", after=_exact_orders)
    timed(cli, "run_rplq_sampled", "priority.rplq_sampled_s", after=_samples)

    # axioms
    for owner in (cli, strategy):
        timed(owner, "is_envy_free", "axioms.ef_s")
        timed(owner, "is_ordinally_efficient", "axioms.oe_s")
    timed(cli, "is_weakly_envy_free", "axioms.wef_s")
    for owner in (axioms, strategy):
        patch(owner, "sd_dominates", collector.counted("axioms.sd_calls", owner.sd_dominates))

    # decompose
    timed(cli, "decompose", "decompose.decompose_s", after=_lottery)
    timed(decompose.Lottery, "expectation", "decompose.expectation_s")

    # strategy: one misreported market per mechanism run on a misreport
    timed(cli, "verify_weak_sp", "strategy.wsp_s")
    timed(cli, "search_manipulation", "strategy.manipulate_s")
    patch(
        strategy,
        "_misreported_market",
        collector.counted("strategy.misreports", strategy._misreported_market),
    )

    def uninstall():
        for setter, name, original in reversed(undo):
            setter(name, original)

    return uninstall


def unit(name: str) -> str:
    """The unit of a per-layer metric."""
    special = {
        "marketio.out_mb": "MB",
        "decompose.weight_bits_max": "bits",
        "trace.overhead_pct": "%",
        "trace.self_share": "ratio",
    }
    if name in special:
        return special[name]
    return "s" if name.endswith("_s") else "count"


def layer_metrics(collector: Collector, markets: int) -> dict:
    """Per-market means of every self time and counter, plus the maxima."""
    out = {}
    for name in TIME_METRICS:
        out[name] = collector.self_s.get(name, 0.0) / markets
    for name in COUNT_METRICS:
        out[name] = collector.counts.get(name, 0) / markets
    for name in MAX_METRICS:
        out[name] = collector.maxima.get(name, 0)
    return out
