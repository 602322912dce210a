#!/usr/bin/env python3
"""End-to-end benchmark of the restart-tree simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table4-recovery --seed 1 \\
        --seconds 20 --trace 0

One process, no worker fan-out.  The run imports ``repro`` from ``src/``
of the checkout, times set-up (import plus warming every station template
the workload restores) five times, then repeats whole rounds of the
workload's operations, all with inputs derived from ``--seed``, until
``--seconds`` are spent.  Every round must reproduce the first round's
simulated outputs exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
untraced rounds for a third of the time, then installs the per-layer
tracer, re-warms the templates and runs traced rounds; it reports the
per-layer metrics, fails when a boundary the workload must cross reads
zero calls, and fails when a traced round's simulated outputs differ from
the untraced ones (the fleet also switches its in-process shard count).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a manifest and a readable table.  The exit code is 0 when the run
is correct, 1 when a check failed and 2 on bad arguments or a checkout
without the program.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 5


def pin_environment() -> List[str]:
    """Drop every ``REPRO_*`` execution knob (fleet jobs and shards, bus
    full-parse mode, snapshot switch, schema validation, bench knobs), so
    an inherited shell variable cannot change what is timed."""
    cleared = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def purge_repro() -> None:
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def import_repro() -> None:
    package = importlib.import_module("repro")
    origin = os.path.dirname(os.path.abspath(package.__file__))
    if origin != os.path.join(SRC, "repro"):
        raise ImportError(f"repro imported from {origin}, not from {SRC}")


def set_up(workload, reps: int) -> List[float]:
    """Import the package afresh and warm every template, ``reps`` times."""
    times = []
    for _ in range(reps):
        purge_repro()
        gc.collect()
        start = time.perf_counter()
        import_repro()
        workload.warm()
        times.append(time.perf_counter() - start)
    return times


def template_count() -> int:
    return sys.modules["repro.experiments.snapshot"].template_count()


class Runner:
    """Runs rounds of one workload and keeps their outcomes and timings."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        #: Why operations failed (printed; they are counted in ``failed``).
        self.failures: List[str] = []
        #: Checks outside single operations; any of them makes the run
        #: incorrect.
        self.problems: List[str] = []
        #: Cross-operation checks not made because an operand failed.
        self.skipped: List[str] = []
        #: First outcome of every operation, the reference later rounds
        #: (and traced rounds) must reproduce.
        self.reference: Dict[str, object] = {}
        #: Seconds per unit, one list per round of the current phase.
        self.unit_s: List[List[float]] = []
        self.operations_per_round = 0
        #: Operations whose simulated outputs differed from the reference.
        self.mismatches = 0

    def run_round(self, traced: bool, after_unit=None) -> List[float]:
        from workloads import Outcome

        outcomes = []
        times = []
        for unit in self.workload.units(self.seed, traced):
            gc.collect()
            start = time.perf_counter()
            try:
                outcomes.extend(unit.run())
            except Exception as exc:  # an operation that raises has failed
                outcomes.extend(
                    Outcome(name, problems=[f"raised {type(exc).__name__}: {exc}"])
                    for name in unit.names
                )
            times.append(time.perf_counter() - start)
            if after_unit is not None:
                after_unit()
        self.operations_per_round = len(outcomes)
        for outcome in outcomes:
            reference = self.reference.setdefault(outcome.name, outcome)
            if outcome.ok and reference.ok and outcome.sim != reference.sim:
                self.mismatches += 1
                outcome.problems.append(
                    "simulated outputs differ from the first run of the same inputs"
                )
            self.attempted += 1
            if not outcome.ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures += [f"{outcome.name}: {p}" for p in outcome.problems]
        self.unit_s.append(times)
        return times

    def run_for(self, seconds: float, traced: bool, after_unit=None, before_round=None):
        """Whole rounds until the next one would overrun ``seconds``;
        yields after each round."""
        start = time.perf_counter()
        while True:
            if before_round is not None:
                before_round()
            last = sum(self.run_round(traced, after_unit))
            yield
            if time.perf_counter() - start + last > seconds:
                return

    def round_s(self) -> float:
        """A round's time: the sum over units of each unit's median time
        across the phase's rounds, which filters host noise per unit."""
        return sum(statistics.median(times) for times in zip(*self.unit_s))

    def sim_summary(self) -> Tuple[List[float], Optional[float]]:
        """Recovery samples and goodput from the first outcome of every
        operation that did not fail."""
        good = [o for o in self.reference.values() if o.ok]
        recoveries = [r for o in good for r in o.recoveries]
        ledgers = [o.effects for o in good if o.effects is not None]
        goodput = None
        if ledgers:
            elapsed = sum(ledger["elapsed_s"] for ledger in ledgers)
            goodput = sum(ledger["requests_ok"] for ledger in ledgers) / elapsed
        return recoveries, goodput

    def cross_check(self) -> None:
        """Run the workload's checks across operations on their first
        outcomes; a check comparing a failed operation is skipped and
        named, since ``failed`` already counts that operation."""
        problems, skipped = self.workload.cross_check(self.reference)
        self.problems += problems
        self.skipped += skipped


def untraced(workload, args, setup_times, runner: Runner):
    templates = template_count()
    for _ in runner.run_for(args.seconds, traced=False):
        pass
    if template_count() != templates:
        runner.problems.append("a station template was built during the measured part")
    runner.cross_check()
    recoveries, goodput = runner.sim_summary()
    if not recoveries:
        runner.problems.append("no completed recovery episode")
        recoveries = [0.0]
    extra = {
        "sim_recovery_p50_s": statistics.median(recoveries),
        "sim_episodes": len(recoveries),
    }
    if goodput is not None:
        extra["sim_goodput_rps"] = goodput
    return {
        "wall_s": runner.round_s(),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "sim_mttr_s": statistics.fmean(recoveries),
    }, extra


def traced(workload, args, runner: Runner):
    from layers import REQUIRED_BOUNDARIES, LayerProbe, layer_metrics
    from tracer import BENCH_LAYER, LAYERS, Tracer

    start = time.perf_counter()
    for _ in runner.run_for(args.seconds / 3.0, traced=False):
        pass
    untraced_s = runner.round_s()
    runner.unit_s = []

    tracer = Tracer()
    wrapped = tracer.install()
    probe = LayerProbe(tracer)
    probe.install()
    # Templates warmed before the wrappers went in hold unwrapped bound
    # methods; warm them again so restored stations call the spans.
    sys.modules["repro.experiments.snapshot"].clear_templates()
    workload.warm()

    def before_round() -> None:
        tracer.reset()
        probe.reset()

    rounds: List[Dict[str, float]] = []
    remaining = args.seconds - (time.perf_counter() - start)
    for _ in runner.run_for(
        remaining, traced=True, after_unit=probe.collect, before_round=before_round
    ):
        zero = tracer.zero_boundaries(REQUIRED_BOUNDARIES[workload.name])
        if zero:
            runner.problems.append(
                "boundaries the workload must cross read zero calls: " + ", ".join(zero)
            )
        metrics = layer_metrics(tracer, probe)
        metrics["perfbench.self_s"] = tracer.self_s[BENCH_LAYER]
        rounds.append(metrics)
    if runner.mismatches:
        runner.problems.append(
            f"{runner.mismatches} operations changed their simulated outputs "
            "between untraced and traced runs of the same inputs"
        )
    runner.cross_check()
    _, goodput = runner.sim_summary()
    traced_s = runner.round_s()
    merged = {
        name: statistics.median(metrics[name] for metrics in rounds)
        for name in rounds[0]
    }
    merged["workload.goodput_rps"] = goodput or 0.0
    merged["tracing.overhead_ratio"] = traced_s / untraced_s
    extra = {
        "references_wrapped": wrapped,
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "perfbench.self_s": merged.pop("perfbench.self_s"),
        "self_share": share(merged, LAYERS),
    }
    return merged, extra


def share(metrics: Dict[str, float], layers) -> Dict[str, float]:
    total = sum(metrics[f"{layer}.self_s"] for layer in layers)
    return {
        layer: round(metrics[f"{layer}.self_s"] / total, 4) if total else 0.0
        for layer in layers
    }


def peak_rss_mb() -> float:
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kilobytes / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    cleared = pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        workload = WORKLOADS[args.workload]()
        setup_times = set_up(workload, SETUP_REPS if not args.trace else 1)
    except (ImportError, OSError) as exc:
        print(f"cannot set up the program from {ROOT}: {exc}", file=sys.stderr)
        return 2

    runner = Runner(workload, args.seed)
    if args.trace:
        metrics, extra = traced(workload, args, runner)
        from layers import METRICS

        units = dict(METRICS)
    else:
        metrics, extra = untraced(workload, args, setup_times, runner)
        units = {
            "wall_s": "s",
            "setup_s": "s",
            "peak_rss_mb": "MB",
            "sim_mttr_s": "s",
        }
    correct = not runner.problems
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "started_utc": started,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cleared_env": cleared,
        "setup_s": [round(t, 4) for t in setup_times],
        "rounds": len(runner.unit_s),
        "round_s": [round(sum(times), 4) for times in runner.unit_s],
        "operations_per_round": runner.operations_per_round,
        "checks_skipped": len(runner.skipped),
        **extra,
    }
    print("# manifest " + json.dumps(manifest, sort_keys=True))
    for failure in runner.failures:
        print(f"# failed operation: {failure}")
    for note in runner.skipped:
        print(f"# check skipped: {note}")
    for problem in runner.problems:
        print(f"# problem: {problem}")
    for name, value in metrics.items():
        print(f"# {name:36s} {value:16.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
