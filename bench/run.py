"""Benchmark of the quotassign CLI on seeded workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload campus --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Each CLI call runs in this process through ``quotassign.cli.main(argv)``, on
market files the benchmark generates from ``--seed`` and writes under
``.bench_out/``. Every output is checked apart from the program (see
oracles.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

End-to-end times are host-normalized: a probe samples the host's speed
while each timed section runs, and the section's time is scaled to a host
on which the probe takes PROBE_NOMINAL_S (see README.md for why).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from fractions import Fraction  # bound before the program is imported

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WARMUP_PASSES = 3
PROBE_TERMS = 400
PROBE_INTERVAL_S = 0.1
#: probe duration on the reference host (a 2-vCPU VM, CPython 3.11) when
#: it runs at full speed; normalized times are seconds on such a host
PROBE_NOMINAL_S = 0.001


def reference_loop(terms: int = PROBE_TERMS) -> float:
    """Seconds taken by a fixed stdlib-only Fraction loop; it moves with
    the host and with nothing in the program."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, terms):
        total += Fraction(i % 13 + 1, i % 17 + 2)
    elapsed = time.perf_counter() - start
    if total <= 0:
        raise AssertionError("reference loop went wrong")
    return elapsed


class HostProbe:
    """Runs the reference loop from a SIGALRM handler every
    PROBE_INTERVAL_S while armed, so it samples the host's speed evenly
    through the timed sections. `spent` accumulates the handler's time,
    which the timed sections leave out."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def nominal(self, section) -> float:
        """A section's seconds on the nominal host, scaled by the probe
        samples taken during it, or by the whole run's if it had none."""
        samples = section.samples or self.samples
        return section.seconds * PROBE_NOMINAL_S / statistics.mean(samples)


#: a timed section: wall seconds less the probe's time, and the probe
#: samples taken meanwhile
Timed = namedtuple("Timed", "seconds samples")


class Stopwatch:
    """Times a section; `timed` holds the result after the section."""

    def __init__(self, probe: HostProbe):
        self.probe = probe

    def __enter__(self):
        self.start = time.perf_counter()
        self.spent = self.probe.spent
        self.first = len(self.probe.samples)
        return self

    def __exit__(self, *exc):
        seconds = time.perf_counter() - self.start - (self.probe.spent - self.spent)
        self.timed = Timed(seconds, self.probe.samples[self.first:])


def invoke(main, argv: list) -> tuple:
    """One CLI call; returns (exit code, standard error)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a dead run
            code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


def read_output(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    os.remove(path)
    return text


class Run:
    """One run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: str):
        from quotassign import cli

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.out = os.path.join(work, "out")
        self.main = cli.main
        self.probe = HostProbe()
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # problems of operations that should have succeeded
        self.sessions = []  # (shape label, Timed) per market
        self.traced_s = []  # traced runs: the traced pass of each market
        self.setups = []  # Timed per round
        self.warmups = []  # Timed per warm-up pass
        self.multiunit_s = []
        self.multiunit_failed = 0
        self.collector = None
        if trace:
            import tracing

            self.collector = tracing.Collector()
            self.uninstall = tracing.install(self.collector)
            self.traced_main = self.collector.timed("cli.self_s", cli.main)

    def session(self, calls, traced: bool, index=None) -> tuple:
        """Run the calls; returns (Timed, [(code, stderr, output)]).

        Untraced sessions are timed with the probe armed; traced ones run
        without it, so that no probe time lands in a layer's span.
        """
        main = self.traced_main if traced else self.main
        results = []
        gc.collect()
        with contextlib.ExitStack() as stack:
            if traced:
                self.collector.active = True
                stack.callback(setattr, self.collector, "active", False)
            else:
                stack.enter_context(self.probe.armed())
            watch = stack.enter_context(Stopwatch(self.probe))
            for number, call in enumerate(calls):
                if traced:
                    self.collector.call = f"{index}.{number}"
                results.append(invoke(main, call.argv))
        return watch.timed, [
            (code, err, read_output(call.output)) for call, (code, err) in zip(calls, results)
        ]

    def check(self, market, calls, results) -> list:
        """Problems of each call's output, one list per call."""
        problems = []
        docs = {}
        for call, (code, err, text) in zip(calls, results):
            doc = None
            if text is None:
                found = [f"exit code {code}, no output"]
            else:
                try:
                    doc = json.loads(text)
                    found = call.check(market, code, doc, docs)
                except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                    found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if found and err:
                found.append(f"stderr: {err}")
            docs[call.label] = doc
            problems.append([f"{call.label}: {p}" for p in found])
        return problems

    def market(self, label: str, path: str, doc: dict, seed: int) -> None:
        """One market's session. A traced run adds a traced pass, before
        the untraced one on every other market; both passes must write the
        same outputs."""
        import oracles

        index = len(self.sessions)
        market = oracles.read_market(doc)
        calls = self.workload.session(path, self.out, seed, market)
        traced_first = self.trace and index % 2 == 1
        if traced_first:
            traced, again = self.session(calls, traced=True, index=index)
        timed, results = self.session(calls, traced=False)
        if self.trace and not traced_first:
            traced, again = self.session(calls, traced=True, index=index)
        if self.trace:
            self.traced_s.append(traced.seconds)
            if [r[2] for r in again] != [r[2] for r in results]:
                self.unexpected.append(f"market {index}: traced and untraced outputs differ")
        self.sessions.append((label, timed))
        for problems in self.check(market, calls, results):
            self.attempted += 1
            if problems:
                self.failed += 1
                self.unexpected += [f"market {index} {p}" for p in problems]

    def multiunit(self) -> None:
        """The multi-unit calls on uncapped markets; each fails until the
        program stops storing "no cap" as n. Timed apart from the markets."""
        import workloads

        for market, call in workloads.multiunit_calls(self.out):
            with self.probe.armed(), Stopwatch(self.probe) as watch:
                code, err = invoke(self.main, call.argv)
            self.multiunit_s.append(watch.timed.seconds)
            (problems,) = self.check(market, [call], [(code, err, read_output(call.output))])
            self.attempted += 1
            if problems:
                self.failed += 1
                self.multiunit_failed += 1

    def warmup(self) -> None:
        """Generate, write and run one small market per pass; its outputs
        are checked but not counted. The warm-up markets do not depend on
        the seed, so neither does their share of the set-up time."""
        import oracles
        import workloads

        for number in range(WARMUP_PASSES):
            seed = workloads.market_seed(self.workload.name, "warmup", number)
            path = os.path.join(self.work, f"warmup-{number}.json")
            with self.probe.armed(), Stopwatch(self.probe) as watch:
                doc = workloads.write_market(path, self.workload.warmup, seed)
            market = oracles.read_market(doc)
            calls = self.workload.session(path, self.out, seed, market)
            timed, results = self.session(calls, traced=False)
            self.warmups.append(
                Timed(watch.timed.seconds + timed.seconds, watch.timed.samples + timed.samples)
            )
            for problems in self.check(market, calls, results):
                self.unexpected += [f"warm-up {p}" for p in problems]

    def measure(self) -> None:
        """Whole rounds, cycling through the workload's round make-ups,
        until the next round would end past the run length."""
        import workloads

        os.makedirs(self.out, exist_ok=True)
        self.warmup()
        start = time.perf_counter()
        round_number = 0
        last_round = 0.0
        while round_number == 0 or time.perf_counter() - start + last_round <= self.seconds:
            begin = time.perf_counter()
            markets = []
            with self.probe.armed(), Stopwatch(self.probe) as watch:
                make_up = self.workload.rounds[round_number % len(self.workload.rounds)]
                for slot, shape in enumerate(make_up):
                    seed = workloads.market_seed(self.workload.name, self.seed, round_number, slot)
                    path = os.path.join(self.work, f"market-{slot}.json")
                    doc = workloads.write_market(path, shape, seed)
                    markets.append((shape.label, path, doc, seed))
            self.setups.append(watch.timed)
            for label, path, doc, seed in markets:
                self.market(label, path, doc, seed)
                os.remove(path)
            if self.workload.multiunit:
                self.multiunit()
            round_number += 1
            last_round = time.perf_counter() - begin
        if self.trace:
            self.uninstall()

    def metrics(self) -> dict:
        raw = [timed.seconds for _, timed in self.sessions]
        if self.trace:
            import tracing

            layers = tracing.layer_metrics(self.collector, len(raw))
            layers["host.ref_s"] = statistics.median(self.probe.samples)
            traced = sum(self.traced_s)
            layers["trace.overhead_pct"] = 100 * (traced / sum(raw) - 1)
            layers["trace.self_share"] = (
                sum(layers[name] for name in tracing.TIME_METRICS) * len(raw) / traced
            )
            return {
                name: {"value": value, "unit": tracing.unit(name)}
                for name, value in layers.items()
            }
        nominal = self.probe.nominal
        sessions = [nominal(timed) for _, timed in self.sessions]
        setup = statistics.median(map(nominal, self.setups)) + statistics.median(
            map(nominal, self.warmups)
        )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "markets_per_s": {"value": len(sessions) / sum(sessions), "unit": "1/s"},
            "market_s_p50": {"value": statistics.median(sessions), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }

    def summary(self) -> str:
        """Raw (unnormalized) figures of the run, for the record."""
        samples = self.probe.samples
        quartiles = statistics.quantiles(samples, n=4)
        raw = [timed.seconds for _, timed in self.sessions]
        lines = [
            f"workload {self.workload.name}: seed {self.seed}, {len(raw)} markets"
            f" in {len(self.setups)} rounds; raw wall seconds below",
            f"  sessions {sum(raw):.4f} s, markets/s {len(raw) / sum(raw):.5f},"
            f" session p50 {statistics.median(raw):.5f} s",
            f"  set-up per round p50 {statistics.median(t.seconds for t in self.setups):.5f} s,"
            f" warm-up pass p50 {statistics.median(t.seconds for t in self.warmups):.5f} s",
            f"  probe (host.ref_s): {len(samples)} samples, mean {statistics.mean(samples):.6f} s,"
            f" p50 {statistics.median(samples):.6f} s, quartiles {quartiles[0]:.6f} /"
            f" {quartiles[2]:.6f} s",
        ]
        labels = dict.fromkeys(label for label, _ in self.sessions)
        for label in labels:
            times = [timed.seconds for name, timed in self.sessions if name == label]
            lines.append(
                f"  {label}: {len(times)} markets, session p50 {statistics.median(times):.5f} s,"
                f" min {min(times):.5f} s, max {max(times):.5f} s"
            )
        if self.multiunit_s:
            lines.append(
                f"  multiunit: {len(self.multiunit_s)} calls, {self.multiunit_failed} failed,"
                f" call p50 {statistics.median(self.multiunit_s):.6f} s"
            )
        if self.trace:
            lines.append(f"  traced sessions {sum(self.traced_s):.4f} s, untraced {sum(raw):.4f} s")
        return "\n".join(lines)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    work = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    run = Run(workloads.WORKLOADS[name], seed, seconds, trace, work)
    try:
        run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(run.summary())
    for problem in run.unexpected:
        print(f"  problem: {problem}", file=sys.stderr)
    result = {
        "correct": not run.unexpected and run.failed == run.multiunit_failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics(),
    }
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    raw = {
        "sessions": [(label, timed.seconds) for label, timed in run.sessions],
        "setups": [timed.seconds for timed in run.setups],
        "warmups": [timed.seconds for timed in run.warmups],
        "probe": run.probe.samples,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(result, raw=raw), handle)
    if trace:
        run.collector.write(os.path.join(OUT_DIR, f"spans-{tag}.json"))
    return result


def run_all(names, args) -> dict:
    """Each workload in a process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quotassign", "cli.py")):
        print(f"error: no quotassign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if len(names) > 1:
        result = run_all(names, args)
    else:
        result = run_one(names[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
