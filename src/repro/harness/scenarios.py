"""Seeded simulation scenarios shared by ``explain`` and ``diff``.

Each scenario is a fixed, fully seeded input to one simulation run —
tenant mixes on the event-driven simulator, a GC-heavy device, a
fault-injected run, the vectorised fast model, and three adversarial
traffic shapes.  Two builds of the same scenario at the same size are
identical, so every command that runs one reports the same simulated
metrics.

:func:`load_scenario` is the single lookup the CLI front-ends use; it
builds a scenario at full (3,000 requests) or quick (600) size and
rejects unknown names and, where the caller needs the event engine,
fast-model scenarios.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["SCENARIOS", "FULL_REQUESTS", "QUICK_REQUESTS", "load_scenario"]

#: request counts per scenario (full / quick)
FULL_REQUESTS = 3000
QUICK_REQUESTS = 600


def _mix(specs, total_requests: int, seed: int):
    from ..workloads.mixer import synthesize_mix

    return synthesize_mix(specs, total_requests=total_requests, seed=seed).requests


def _spec(name: str, write_ratio: float, rate_rps: float, footprint_pages: int):
    from ..workloads.spec import WorkloadSpec

    return WorkloadSpec(
        name=name,
        write_ratio=write_ratio,
        rate_rps=rate_rps,
        mean_request_pages=2.0,
        sequential_fraction=0.3,
        skew=0.5,
        footprint_pages=footprint_pages,
    )


# ----------------------------------------------------------------------
# Scenario definitions.  Each builder takes the request count and returns
# (kind, requests, cfg, sets, faults); kind is "simulator" (event engine)
# or "fastmodel" (vectorised latency model).
# ----------------------------------------------------------------------
def _scenario_mix2(total: int):
    from ..ssd.config import SSDConfig

    cfg = SSDConfig.small()
    requests = _mix(
        [
            _spec("writer", 0.9, 8000.0, 4096),
            _spec("reader", 0.1, 6000.0, 4096),
        ],
        total,
        seed=101,
    )
    sets = {0: list(range(cfg.channels)), 1: list(range(cfg.channels))}
    return "simulator", requests, cfg, sets, None


def _scenario_mix4(total: int):
    from ..ssd.config import SSDConfig

    cfg = SSDConfig.small()
    requests = _mix(
        [
            _spec("writer-a", 0.9, 4000.0, 2048),
            _spec("writer-b", 0.8, 4000.0, 2048),
            _spec("reader-a", 0.1, 3000.0, 2048),
            _spec("reader-b", 0.05, 3000.0, 2048),
        ],
        total,
        seed=202,
    )
    half = cfg.channels // 2
    sets = {
        0: list(range(half)),
        1: list(range(half)),
        2: list(range(half, cfg.channels)),
        3: list(range(half, cfg.channels)),
    }
    return "simulator", requests, cfg, sets, None


def _scenario_gc_heavy(total: int):
    from ..ssd.config import SSDConfig

    # Tiny blocks, one channel per writer, footprints near capacity: the
    # trace overwrites each channel several times, keeping GC busy.
    cfg = SSDConfig(blocks_per_plane=4, pages_per_block=16)
    requests = _mix(
        [
            _spec("writer-a", 0.95, 4000.0, 190),
            _spec("writer-b", 0.85, 3000.0, 190),
        ],
        total,
        seed=303,
    )
    sets = {0: [0], 1: [1]}
    return "simulator", requests, cfg, sets, None


def _scenario_faulted(total: int):
    from ..ssd.config import SSDConfig
    from ..ssd.faults import FaultConfig

    cfg = SSDConfig(blocks_per_plane=24, pages_per_block=16)
    requests = _mix(
        [
            _spec("writer", 0.9, 6000.0, 4000),
            _spec("reader", 0.1, 5000.0, 4000),
        ],
        total,
        seed=404,
    )
    sets = {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
    faults = FaultConfig(
        seed=17, read_ber=0.05, program_fail_rate=0.002, erase_fail_rate=0.01
    )
    return "simulator", requests, cfg, sets, faults


def _scenario_fastmodel(total: int):
    _, requests, cfg, sets, faults = _scenario_mix4(total)
    return "fastmodel", requests, cfg, sets, faults


def _adversarial(builder_name: str, total: int, seed: int, **kwargs):
    """Shared plumbing of the adversarial scenarios: build, truncate, share.

    The generators size the trace from rates and phase durations, so the
    chronological truncation to ``total`` mirrors the paper's "mix then
    take the first N" recipe; channel sets stay fully shared — these
    scenarios exercise the simulator under hostile traffic, not the keeper.
    """
    from ..ssd.config import SSDConfig
    from ..workloads.adversarial import build_scenario

    cfg = SSDConfig.small()
    workload = build_scenario(builder_name, seed=seed, **kwargs)
    requests = workload.requests[:total]
    sets = {
        wid: list(range(cfg.channels)) for wid in range(workload.n_tenants)
    }
    return "simulator", requests, cfg, sets, None


def _scenario_drift_hotspot(total: int):
    return _adversarial(
        "migrating_hotspot", total, seed=505,
        base_rate_rps=3000.0, hot_rate_factor=6.0,
    )


def _scenario_phase_change(total: int):
    return _adversarial(
        "phase_change", total, seed=606,
        base_rate_rps=3000.0, changer_rate_rps=9000.0,
    )


def _scenario_noisy_neighbor(total: int):
    return _adversarial(
        "noisy_neighbor", total, seed=707,
        base_rate_rps=3000.0, noise_factor=8.0,
    )


#: scenario name -> builder(total_requests); insertion order is listing order
SCENARIOS: dict[str, Callable] = {
    "mix2_shared": _scenario_mix2,
    "mix4_split": _scenario_mix4,
    "gc_heavy": _scenario_gc_heavy,
    "faulted": _scenario_faulted,
    "fastmodel": _scenario_fastmodel,
    "drift_hotspot": _scenario_drift_hotspot,
    "phase_change": _scenario_phase_change,
    "noisy_neighbor": _scenario_noisy_neighbor,
}


def load_scenario(name: str, *, quick: bool = False, event_driven: bool = False):
    """Build scenario ``name``; returns ``(kind, requests, cfg, sets, faults)``.

    ``quick`` selects the small trace.  Raises ``ValueError`` for an
    unknown name, and — when ``event_driven`` is set — for a scenario
    that runs the fast model, which records no events or spans.
    """
    builder = SCENARIOS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        )
    built = builder(QUICK_REQUESTS if quick else FULL_REQUESTS)
    kind = built[0]
    if event_driven and kind != "simulator":
        raise ValueError(
            f"scenario {name!r} runs the {kind} backend, which records no "
            "events or spans; this command needs an event-driven scenario"
        )
    return built
