"""Benchmark of record: one seeded workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload label_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with every hook off;
``--trace 1`` is the separate traced run that reports the per-layer metrics
(spans around each layer's public calls, a cProfile module split, and the
cost of the observability hooks).  The metric names, units and directions
come from ``BENCHMARK.json``; ``perfbench/README.md`` explains them.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

Progress and failure details go to standard error.  Spans from a traced run
are written to ``.bench_build/perfbench/`` under the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import resource
import statistics
import subprocess
import sys
import time

# One BLAS/OpenMP thread, set before numpy is first imported: threaded
# kernels would make host time depend on what else the host is running.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The benchmark must leave the checkout as it found it.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = Path(".bench_build") / "perfbench"

#: fresh-interpreter import of every layer the workloads use (part of set-up)
IMPORT_PROBE = (
    "import repro.core, repro.ssd, repro.workloads, repro.nn, "
    "repro.harness.experiments"
)
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: share of ``--seconds`` the traced run spends on untraced/traced rep pairs
TRACE_PAIR_SHARE = 0.5
#: rounds of the bare / attribution / trace probe on the shared runs
HOOK_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """Counts work units across every repetition of one invocation."""

    def __init__(self, case, cases, expected) -> None:
        self.case = case
        self.cases = cases
        self.expected = expected
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0

    def rep(self, inputs):
        rep = self.case.rep(inputs)
        self.record(rep)
        return rep

    def record(self, rep) -> None:
        failures = self.cases.check(rep, self.expected, self.reference)
        if self.reference is None:
            self.reference = rep.outputs
        self.tally(rep, failures)

    def tally(self, rep, failures: dict) -> None:
        self.attempted += rep.attempted
        self.failed += len(failures)
        for unit, reason in failures.items():
            print(f"FAILED {self.case.name}/{unit}: {reason}", file=sys.stderr)


def setup_once(case, seed: int):
    """One full set-up: start the program, build inputs, load artifacts."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, check=True, timeout=120
    )
    inputs = case.setup(seed)
    return time.perf_counter() - start, inputs


def untraced(run: Run, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds_taken, inputs = setup_once(run.case, seed)
        setups.append(seconds_taken)
    run.case.warm_up(inputs)
    walls, rates = [], []  # numbers only: a kept Rep would grow peak RSS
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        rep = run.rep(inputs)
        walls.append(rep.wall_s)
        rates.append(rep.units / rep.units_s)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "units_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": 1.0 - run.failed / max(run.attempted, 1),
    }


def traced(run: Run, seed: int, seconds: float, tracing) -> dict:
    _, inputs = setup_once(run.case, seed)
    run.case.warm_up(inputs)
    tracer = tracing.Tracer()
    plain_walls, traced_walls, layers = [], [], []
    first = None
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds * TRACE_PAIR_SHARE:
        rep = run.rep(inputs)
        if first is None:
            first = rep
        plain_walls.append(rep.wall_s)
        mark = len(tracer.spans)
        with tracing.instrumented(tracer):
            rep = run.rep(run.case.setup(seed))
        traced_walls.append(rep.wall_s)
        layers.append(tracer.layer_metrics(mark))
    shares = tracing.profile_shares(lambda: run.rep(inputs))
    metrics = layer_figures(layers, first)
    metrics.update({f"self_frac.{k}": v for k, v in shares.items()})
    metrics["tracing.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    )
    metrics.update(hook_costs(run, inputs))
    out = Path(SPAN_DIR) / f"{run.case.name}-seed{seed}.spans.json"
    tracer.dump(out)
    print(f"spans: {len(tracer.spans)} written to {out}", file=sys.stderr)
    return metrics


def layer_figures(layers: list[dict], rep) -> dict:
    """Per-layer metrics: span medians plus the rep's simulated figures."""
    def span(key: str) -> float:
        return statistics.median(d.get(key, 0.0) for d in layers)

    sims = rep.sims
    events = sum(r.events for r in sims)
    gc_moved = sum(r.gc_pages_moved for r in sims)
    out = {
        "workloads.s": span("workloads.s"),
        "workloads.calls": span("workloads.calls"),
        "features.s": span("features.s"),
        "features.calls": span("features.calls"),
        "strategies.s": span("strategies.s"),
        "strategies.calls": span("strategies.calls"),
        "fastmodel.s": span("fastmodel.s"),
        "fastmodel.calls": span("fastmodel.calls"),
        "fastmodel.req_per_s": (
            span("fastmodel.units") / span("fastmodel.s") if span("fastmodel.s") else 0.0
        ),
        "labeler.self_s": span("labeler.label_sample.self_s"),
        "nn.train_s": span("nn.train.s"),
        "nn.epochs": rep.extra.get("nn_epochs", 0),
        "nn.predict_s": span("nn.predict.s"),
        "nn.predict_calls": span("nn.predict.calls"),
        "allocator.s": span("allocator.s"),
        "sim.s": span("sim.s"),
        "sim.calls": span("sim.calls"),
        "keeper.self_s": span("keeper.run.self_s"),
        "sim.host_us_per_event": span("sim.s") * 1e6 / events if events else 0.0,
        "sim.requests": sum(r.requests for r in sims),
        "sim.subrequests": sum(r.subrequests for r in sims),
        "sim.events": events,
        "ftl.gc_collections": sum(r.gc_collections for r in sims),
        "ftl.gc_pages_moved": gc_moved,
        "ftl.write_amp": (
            (rep.host_page_writes + gc_moved) / rep.host_page_writes
            if rep.host_page_writes else 0.0
        ),
        "ssd.channel_wait_us": sum(r.channel_wait_us for r in sims),
        "ssd.die_wait_us": sum(r.die_wait_us for r in sims),
        "keeper_vs_shared_ratio": rep.extra.get("keeper_vs_shared_ratio", 0.0),
        "model_test_accuracy": rep.extra.get("model_test_accuracy", 0.0),
    }
    out.update(latency_figures(rep.latency_runs))
    return out


def latency_figures(runs) -> dict:
    """Simulated read/write latency percentiles pooled over ``runs``."""
    out = {}
    for kind in ("read", "write"):
        pooled = None
        for result in runs:
            stats = getattr(result, kind)
            pooled = stats if pooled is None else pooled.merged(stats)
        samples = len(pooled.samples) if pooled is not None and pooled.samples else 0
        out[f"sim_{kind}_samples"] = samples
        for q in (50, 99):
            out[f"sim_{kind}_p{q}_us"] = pooled.percentile(q) if samples else 0.0
    return out


def hook_costs(run: Run, inputs) -> dict:
    """Host-time cost of arming attribution, then tracing, on the shared runs."""
    from repro.obs import Observability
    from repro.ssd.simulator import simulate

    runs = run.case.shared_runs(inputs)
    if not runs:
        return {"obs.attribution_overhead_frac": 0.0, "obs.trace_overhead_frac": 0.0}
    arms = {
        "bare": lambda: None,
        "attribution": lambda: Observability(trace=False, attribution=True),
        "trace": lambda: Observability(trace=True, attribution=True),
    }
    seconds = {arm: [] for arm in arms}
    bare_outputs = None
    for _ in range(HOOK_ROUNDS):
        for arm, make_obs in arms.items():
            rep = run.cases.Rep()
            for i, (requests, config, channel_sets) in enumerate(runs):
                run.cases.run_sim(
                    rep, f"shared{i}", requests, simulate, requests, config,
                    channel_sets, obs=make_obs(),
                )
            # Every arm must simulate exactly what the first bare round did.
            # The trace arm schedules one extra ``gc_end`` event per
            # collection, so the event count is left out of the comparison.
            for stats in rep.outputs.values():
                del stats["events"]
            run.tally(rep, run.cases.check(rep, None, bare_outputs))
            bare_outputs = bare_outputs or rep.outputs
            seconds[arm].append(rep.wall_s)
    bare_s = statistics.median(seconds["bare"])
    return {
        "obs.attribution_overhead_frac": statistics.median(seconds["attribution"]) / bare_s - 1.0,
        "obs.trace_overhead_frac": statistics.median(seconds["trace"]) / bare_s - 1.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not manifest_path.is_file():
        print(
            "perfbench: run from a checkout of the repository (needs src/repro "
            "and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive, --seed >= 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import cases
    import tracing

    case = cases.CASES.get(args.workload)
    if case is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(cases.CASES)}",
            file=sys.stderr,
        )
        return 2
    run = Run(case, cases, cases.load_expected(case.name, args.seed))
    if args.trace:
        values = traced(run, args.seed, args.seconds, tracing)
    else:
        values = untraced(run, args.seed, args.seconds)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    section = manifest["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
