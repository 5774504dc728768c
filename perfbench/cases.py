"""The three benchmark workloads: inputs, fixed work and output checks.

Each workload is a :class:`Case`:

* ``setup(seed)`` builds the inputs from the seed and loads committed
  artifacts (counted in ``setup_s``);
* ``rep(inputs)`` does the workload's fixed work once and returns a
  :class:`Rep` (the timed part, repeated for the run's duration);
* :func:`check` names the failed work units of a :class:`Rep`.

A work unit is one labelled mix, one training run or one simulated run.  A
unit fails if it raises, if any submitted request does not complete exactly
once, or if its output differs from the expected output.  Expected outputs
for :data:`DEFAULT_SEED` are committed under ``expected/`` and written by
``make_expected.py``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
import json
import math
from pathlib import Path
import time
import traceback
import zlib

import numpy as np

from repro.core import (
    ChannelAllocator,
    Dataset,
    PagePolicy,
    SSDKeeper,
    StrategyLearner,
    StrategySpace,
    features,
    labeler,
)
from repro.core.labeler import pick_label, random_specs
from repro.harness.experiments import (
    MIX_COMPOSITIONS,
    MIX_LEVEL_TARGETS,
    OPTIMIZER_VARIANTS,
    labeler_config,
)
from repro.ssd import simulator
from repro.ssd.config import SSDConfig
from repro.ssd.metrics import OpStats, SimulationResult
from repro.workloads import mixer, msr, synthetic
from repro.workloads.spec import WorkloadSpec

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
DATASET = HERE / "data" / "dataset.npz"

#: the seed whose outputs are committed under ``expected/``
DEFAULT_SEED = 1
#: relative tolerance for committed floating-point outputs: a change that
#: only reorders float arithmetic may move the last digits, nothing more
FLOAT_RTOL = 1e-9


@dataclass
class Rep:
    """Outcome of one repetition of a workload's fixed work."""

    #: host seconds spent in the work calls (checks excluded)
    wall_s: float = 0.0
    #: work units the throughput metric counts, and the host seconds they took
    units: int = 0
    units_s: float = 0.0
    #: unit name -> JSON-able output compared against the expected outputs
    outputs: dict = field(default_factory=dict)
    #: unit name -> failure reason
    failures: dict = field(default_factory=dict)
    #: event-simulated results this rep's metrics read
    sims: list[SimulationResult] = field(default_factory=list)
    #: runs whose latency samples feed the simulated percentiles
    latency_runs: list[SimulationResult] = field(default_factory=list)
    #: host page writes of ``sims`` (the write-amplification base)
    host_page_writes: int = 0
    #: workload-specific simulated figures (keeper ratio, test accuracy)
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(set(self.outputs) | set(self.failures))


class Case:
    """One workload; subclasses define the three steps."""

    name = ""

    def setup(self, seed: int):
        raise NotImplementedError

    def warm_up(self, inputs) -> None:
        """Run each code path once on a tiny input (lazy imports, caches)."""
        raise NotImplementedError

    def rep(self, inputs) -> Rep:
        raise NotImplementedError

    def shared_runs(self, inputs) -> list:
        """``(requests, config, channel_sets)`` runs for the hook-cost probe."""
        return []


# ----------------------------------------------------------------------
# helpers shared by the cases
# ----------------------------------------------------------------------
def _timed(out: Rep, unit: str, fn, *args, **kwargs):
    """Call ``fn``, adding its host time to ``out.wall_s``; a raise fails ``unit``."""
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs), time.perf_counter() - start
    except Exception:  # a failing unit is counted, not fatal
        out.failures[unit] = "raised: " + traceback.format_exc(limit=3)
        return None, time.perf_counter() - start
    finally:
        out.wall_s += time.perf_counter() - start


def reset_requests(requests) -> None:
    for req in requests:
        req.complete_us = -1.0


def completion_problem(requests, result: SimulationResult) -> str | None:
    """Why ``result`` does not show every request completing exactly once.

    The simulator stamps ``complete_us`` on a request when its last page
    finishes and counts each completion once.  ``n`` completions counted,
    all ``n`` distinct requests stamped, means each completed exactly once.
    """
    n = len(requests)
    stamped = sum(1 for r in requests if r.complete_us >= r.arrival_us)
    served = result.read.count + result.write.count + result.failed_reads
    if result.requests != n or served != n or stamped != n:
        return (
            f"{n} submitted, {result.requests} completed, {served} counted, "
            f"{stamped} stamped"
        )
    return None


def _op(stats: OpStats) -> dict:
    return {
        "count": stats.count,
        "total_us": stats.total_us,
        "min_us": stats.min_us if stats.count else 0.0,
        "max_us": stats.max_us,
    }


def sim_stats(result: SimulationResult) -> dict:
    """The modelled-design statistics a host-only change must not move."""
    return {
        "requests": result.requests,
        "subrequests": result.subrequests,
        "events": result.events,
        "gc_collections": result.gc_collections,
        "gc_pages_moved": result.gc_pages_moved,
        "failed_reads": result.failed_reads,
        "makespan_us": result.makespan_us,
        "die_wait_us": result.die_wait_us,
        "channel_wait_us": result.channel_wait_us,
        "read": _op(result.read),
        "write": _op(result.write),
    }


def run_sim(out: Rep, unit: str, requests, call, *args, **kwargs):
    """One simulated run: reset, time, check completion, record its stats."""
    reset_requests(requests)
    value, seconds = _timed(out, unit, call, *args, **kwargs)
    if value is None:
        return None
    result = getattr(value, "result", value)  # a KeeperRun wraps its result
    problem = completion_problem(requests, result)
    if problem is not None:
        out.failures[unit] = problem
    out.units += len(requests)
    out.units_s += seconds
    out.sims.append(result)
    out.host_page_writes += sum(r.length for r in requests if not r.is_read)
    out.outputs[unit] = sim_stats(result)
    return value


def same_output(got, want, path: str = "") -> str | None:
    """First difference between two JSON-able outputs, or ``None``.

    Integers, strings and booleans must match exactly; floats to
    :data:`FLOAT_RTOL`.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for key in want:
            diff = same_output(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = same_output(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=1e-12):
            return None
        return f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def expected_path(case_name: str) -> Path:
    return EXPECTED_DIR / f"{case_name}.json"


def load_expected(case_name: str, seed: int) -> dict | None:
    """Committed per-unit outputs, or ``None`` for a seed without them."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(expected_path(case_name).read_text(encoding="utf-8"))


def check(rep: Rep, expected: dict | None, reference: dict | None) -> dict:
    """Unit name -> failure reason for every failed unit of ``rep``.

    ``expected`` holds the committed outputs (default seed only);
    ``reference`` the outputs of this run's first repetition, so a run whose
    repetitions disagree fails too.
    """
    failures = dict(rep.failures)
    for unit, got in rep.outputs.items():
        if unit in failures:
            continue
        for label, want_all in (("expected", expected), ("first rep", reference)):
            if want_all is None:
                continue
            if unit not in want_all:
                failures[unit] = f"no {label} output"
                break
            diff = same_output(got, want_all[unit], unit)
            if diff:
                failures[unit] = f"differs from {label}: {diff}"
                break
    return failures


# ----------------------------------------------------------------------
# label_sweep — Algorithm 1 on the fast model
# ----------------------------------------------------------------------
#: Mix families labelled per repetition: (intensity level, request shares
#: of the write-only tenants, request shares of the read-only tenants).
#: Labelling cost grows with the level and with the read share (reads
#: fragment the fast model's resource timelines) and depends on how the
#: shares split, so random families make the work, and the throughput,
#: swing by tens of percent from seed to seed.  Fixing the families keeps
#: the work steady; the seed still picks which tenant plays which role and
#: every trace realisation.
LABEL_STRATA = (
    (5, (0.25,), (0.2, 0.25, 0.3)),
    (5, (0.2, 0.25, 0.4), (0.15,)),
    (13, (0.25,), (0.2, 0.25, 0.3)),
    (13, (0.2, 0.25, 0.4), (0.15,)),
)


def _share_pattern(specs: list[WorkloadSpec]) -> tuple[tuple, tuple]:
    """Sorted request shares of the write-only and of the read-only tenants."""
    rate = sum(s.rate_rps for s in specs)
    shares = [(s.write_ratio > 0.5, round(s.rate_rps / rate, 2)) for s in specs]
    return (
        tuple(sorted(share for writes, share in shares if writes)),
        tuple(sorted(share for writes, share in shares if not writes)),
    )


class LabelSweep(Case):
    """Label one mix of each family in :data:`LABEL_STRATA` (Algorithm 1)."""

    name = "label_sweep"

    def setup(self, seed: int):
        config = labeler_config()
        space = StrategySpace(config.ssd.channels, config.n_tenants)
        rng = np.random.default_rng(seed)
        draws = []
        for level, writers, readers in LABEL_STRATA:
            # Rejection-sample the family: ``label_sample`` draws its specs
            # first, so a copy of the generator taken before a matching
            # ``random_specs`` draw makes it label exactly that mix.
            while True:
                state = copy.deepcopy(rng)
                specs, _ = random_specs(config, rng, intensity_level=level)
                if _share_pattern(specs) == (writers, readers):
                    draws.append((level, state))
                    break
        return config, space, draws

    def warm_up(self, inputs) -> None:
        config, space, _ = inputs
        labeler.label_sample(
            config, np.random.default_rng(0), space, intensity_level=0
        )

    def rep(self, inputs) -> Rep:
        config, space, draws = inputs
        out = Rep()
        for i, (level, state) in enumerate(draws):
            unit = f"mix{i}"
            sample, seconds = _timed(
                out, unit, labeler.label_sample,
                config, copy.deepcopy(state), space, intensity_level=level,
            )
            if sample is None:
                continue
            out.units += 1
            out.units_s += seconds
            totals = [float(t) for t in sample.total_latencies_us]
            out.outputs[unit] = {
                "features": sample.features.to_array().tolist(),
                "label": sample.label,
                "totals_us": totals,
            }
            if len(totals) != len(space) or not all(
                math.isfinite(t) and t > 0 for t in totals
            ):
                out.failures[unit] = "non-positive or missing strategy totals"
            elif sample.label != pick_label(totals, config.tie_epsilon):
                out.failures[unit] = "label is not pick_label of its totals"
            elif sample.features.intensity_level != level:
                out.failures[unit] = "features report another intensity level"
        return out


# ----------------------------------------------------------------------
# keeper_eval — Table III training, then Figure 5 on the event engine
# ----------------------------------------------------------------------
#: requests per evaluated mix (half the ``default`` scale's trace, so a run
#: fits several repetitions)
KEEPER_MIX_REQUESTS = 4000
#: training iterations per Table III variant (the paper's 200)
TRAIN_ITERATIONS = 200
#: the variant SSDKeeper deploys (the paper's pick)
DEPLOYED_VARIANT = "Adam-logistic"


def keeper_mixes(seed: int, n_requests: int) -> dict[str, mixer.MixedWorkload]:
    """Table IV's Mix1-Mix4, built as ``build_mixes`` does from seeded streams."""
    config = labeler_config()
    out = {}
    for mix_name, names in MIX_COMPOSITIONS.items():
        natural_rate = sum(msr.spec(n).rate_rps for n in names)
        level = MIX_LEVEL_TARGETS[mix_name]
        target_rate = config.intensity_quantum * (level + 0.5) / config.window_s
        specs = [
            msr.spec(
                n,
                rate_scale=target_rate / natural_rate,
                footprint_pages=config.footprint_pages,
            )
            for n in names
        ]
        total_rate = sum(s.rate_rps for s in specs)
        streams = [
            synthetic.generate(
                spec,
                max(1, int(round(n_requests * spec.rate_rps / total_rate * 1.2))),
                workload_id=wid,
                seed=zlib.crc32(f"{mix_name}|{wid}|{seed}".encode()),
            )
            for wid, spec in enumerate(specs)
        ]
        out[mix_name] = mixer.mix(streams, specs, limit=n_requests, name=mix_name)
    return out


class KeeperEval(Case):
    """Train the four Table III variants; run Mix1-Mix4 three ways."""

    name = "keeper_eval"

    def setup(self, seed: int):
        config = labeler_config()
        dataset = Dataset.load(DATASET)
        mixes = keeper_mixes(seed, KEEPER_MIX_REQUESTS)
        space = StrategySpace(config.ssd.channels, config.n_tenants)
        runs = []
        for mix_name, mixed in mixes.items():
            vector = features.features_of_mix(
                mixed, intensity_quantum=config.intensity_quantum
            )
            dominated = vector.write_dominated()
            runs.append((
                mix_name,
                mixed.requests,
                space.shared.channel_sets(config.ssd.channels, dominated),
                space.isolated.channel_sets(config.ssd.channels, dominated),
            ))
        return config, dataset, runs, seed

    def warm_up(self, inputs) -> None:
        config, dataset, runs, seed = inputs
        learner = StrategyLearner(StrategySpace(), seed=seed)
        learner.train(dataset, iterations=1, seed=seed)
        _, requests, shared, _ = runs[0]
        simulator.simulate(requests[:200], config.ssd, shared)
        SSDKeeper(
            ChannelAllocator(learner), config.ssd,
            collect_window_us=1000.0, intensity_quantum=config.intensity_quantum,
        ).run(requests[:200])

    def shared_runs(self, inputs) -> list:
        config, _, runs, _ = inputs
        return [(requests, config.ssd, shared) for _, requests, shared, _ in runs]

    def rep(self, inputs) -> Rep:
        config, dataset, runs, seed = inputs
        out = Rep()
        deployed = None
        for variant, spec in OPTIMIZER_VARIANTS.items():
            unit = f"train.{variant}"
            learner = StrategyLearner(
                StrategySpace(), activation=spec["activation"], seed=seed
            )
            kwargs = {
                k: v for k, v in spec.items() if k not in ("optimizer", "activation")
            }
            history, _ = _timed(
                out, unit, learner.train, dataset,
                optimizer=spec["optimizer"], iterations=TRAIN_ITERATIONS,
                seed=seed, **kwargs,
            )
            if history is None:
                continue
            out.outputs[unit] = {
                "final_loss": history.final_loss,
                "final_accuracy": history.final_accuracy,
            }
            if not (
                history.iterations == TRAIN_ITERATIONS
                and math.isfinite(history.final_loss)
                and 0.0 <= history.final_accuracy <= 1.0
            ):
                out.failures[unit] = "training diverged or stopped early"
            out.extra["nn_epochs"] = out.extra.get("nn_epochs", 0) + history.iterations
            if variant == DEPLOYED_VARIANT:
                deployed = learner
                out.extra["model_test_accuracy"] = history.final_accuracy
        ratios = []
        for mix_name, requests, shared, isolated in runs:
            base = run_sim(
                out, f"{mix_name}.Shared", requests,
                simulator.simulate, requests, config.ssd, shared,
            )
            run_sim(
                out, f"{mix_name}.Isolated", requests,
                simulator.simulate, requests, config.ssd, isolated,
            )
            unit = f"{mix_name}.SSDKeeper+hybrid"
            if deployed is None:
                out.failures[unit] = "no deployed model to run"
                continue
            keeper = SSDKeeper(
                ChannelAllocator(deployed),
                config.ssd,
                collect_window_us=config.window_s * 1e6,
                intensity_quantum=config.intensity_quantum,
                page_policy=PagePolicy.HYBRID,
                record_latencies=True,
            )
            run = run_sim(out, unit, requests, keeper.run, requests)
            if run is None:
                continue
            out.outputs[unit]["strategy"] = (
                run.strategy.label if run.strategy is not None else "Shared"
            )
            out.latency_runs.append(run.result)
            if base is not None:
                ratios.append(_mean_sum(run.result) / _mean_sum(base))
        if ratios:
            out.extra["keeper_vs_shared_ratio"] = math.exp(
                sum(math.log(r) for r in ratios) / len(ratios)
            )
        return out


def _mean_sum(result: SimulationResult) -> float:
    """Figure 5's per-mix figure: mean write + mean read latency."""
    return result.write.mean_us + result.read.mean_us


# ----------------------------------------------------------------------
# gc_overwrite — writers overwriting their footprints on a small-block device
# ----------------------------------------------------------------------
#: tiny blocks so a modest trace overwrites each channel many times
GC_DEVICE = SSDConfig(blocks_per_plane=4, pages_per_block=16)
#: one 512-page channel per writer; 190-page footprints overwritten on
#: 4-block planes keep GC collecting (about 1,800 collections per 10k requests)
GC_CHANNEL_SETS = {0: [0], 1: [1]}
GC_FOOTPRINT_PAGES = 190
#: per-writer arrival rate: low enough that the simulated backlog does not
#: grow (mean latency at 10k and 20k requests agrees); ~2x higher does
GC_WRITER_RPS = 1500.0
GC_REQUESTS = 30_000


class GcOverwrite(Case):
    """One long write-heavy run with garbage collection in steady state."""

    name = "gc_overwrite"

    def setup(self, seed: int):
        specs = [
            WorkloadSpec(
                name=name, write_ratio=write_ratio, rate_rps=GC_WRITER_RPS,
                mean_request_pages=2.0, sequential_fraction=0.3, skew=0.5,
                footprint_pages=GC_FOOTPRINT_PAGES,
            )
            for name, write_ratio in (("writer-a", 0.95), ("writer-b", 0.85))
        ]
        mixed = mixer.synthesize_mix(specs, total_requests=GC_REQUESTS, seed=seed)
        return mixed.requests

    def warm_up(self, inputs) -> None:
        simulator.simulate(inputs[:500], GC_DEVICE, GC_CHANNEL_SETS)

    def shared_runs(self, inputs) -> list:
        return [(inputs, GC_DEVICE, GC_CHANNEL_SETS)]

    def rep(self, inputs) -> Rep:
        out = Rep()
        result = run_sim(
            out, "run", inputs, simulator.simulate, inputs, GC_DEVICE,
            GC_CHANNEL_SETS, record_latencies=True,
        )
        if result is not None:
            out.latency_runs.append(result)
            if result.gc_collections == 0:
                out.failures["run"] = "garbage collection never ran"
        return out


CASES: dict[str, Case] = {
    case.name: case for case in (LabelSweep(), KeeperEval(), GcOverwrite())
}
