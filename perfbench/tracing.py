"""Spans around the public calls into each layer, and a module profile.

The traced run wraps the layer entry points below for its duration only:
each call records a span (name, start, end, parent) in memory, and the
spans are written out when the run ends.  A layer's ``.s`` is the time its
outermost spans cover, ``.calls`` its span count, and ``.self_s`` its span
time minus the time covered by its direct child spans.

Layers entered once per simulated event (engine, controller, FTL) would be
swamped by a Python span per call; their host-time shares come from one
``cProfile`` pass aggregated by module instead.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import json
from pathlib import Path
import pstats
import time

#: span name -> (module, attribute path) of each wrapped entry point.  A
#: function is wrapped in every module namespace that looks it up, so calls
#: from inside the program are seen as well as the benchmark's own.
ENTRY_POINTS: dict[str, list[tuple[str, str]]] = {
    "workloads.synthesize_mix": [
        ("repro.workloads.mixer", "synthesize_mix"),
        ("repro.core.labeler", "synthesize_mix"),
    ],
    "workloads.generate": [
        ("repro.workloads.synthetic", "generate"),
        ("repro.workloads.mixer", "generate"),
    ],
    "workloads.mix": [("repro.workloads.mixer", "mix")],
    "features.features_of_mix": [
        ("repro.core.features", "features_of_mix"),
        ("repro.core.labeler", "features_of_mix"),
    ],
    "features.collect": [("repro.core.features", "FeaturesCollector.collect")],
    "strategies.channel_sets": [("repro.core.strategies", "Strategy.channel_sets")],
    "labeler.label_sample": [("repro.core.labeler", "label_sample")],
    "fastmodel.run": [("repro.ssd.fastmodel", "FastLatencyModel.run")],
    "nn.train": [("repro.core.learner", "StrategyLearner.train")],
    "nn.predict": [("repro.core.learner", "StrategyLearner.predict")],
    "allocator.allocate": [("repro.core.allocator", "ChannelAllocator.allocate")],
    "sim.run": [("repro.ssd.simulator", "SSDSimulator.run")],
    "keeper.run": [("repro.core.keeper", "SSDKeeper.run")],
}

#: spans that record the number of requests they simulated (``run(self, requests)``)
COUNTS_REQUESTS = frozenset({"fastmodel.run", "sim.run"})

#: profile module key -> path fragments of the files it aggregates
PROFILE_MODULES: dict[str, tuple[str, ...]] = {
    "ssd.engine": ("/repro/ssd/engine.py",),
    "ssd.simulator": ("/repro/ssd/simulator.py",),
    "ssd.controller": ("/repro/ssd/controller.py",),
    "ssd.ftl.mapping": ("/repro/ssd/ftl/mapping.py",),
    "ssd.ftl.page_alloc": ("/repro/ssd/ftl/page_alloc.py",),
    "ssd.ftl.gc": ("/repro/ssd/ftl/gc.py",),
    "ssd.fastmodel": ("/repro/ssd/fastmodel.py",),
    "nn": ("/repro/nn/",),
    "numpy": ("/numpy/", "numpy."),
}
#: the event engine's priority queue is the C ``_heapq`` module; its time
#: counts as the engine's when the engine is the caller
HEAPQ = "_heapq"


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: [name, start_s, end_s, parent index or -1, units]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, 0]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if name in COUNTS_REQUESTS:
                span[4] = len(args[1])

    def layer_metrics(self, first: int = 0) -> dict[str, float]:
        """Per-layer time, call and self-time figures for spans ``first:``."""
        spans = self.spans[first:]
        child_s = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - first
            if parent >= 0:
                child_s[parent] += span[2] - span[1]
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        for i, (name, start, end, parent, units) in enumerate(spans):
            layer = name.split(".", 1)[0]
            add(f"{layer}.calls", 1)
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            if parent_name.split(".", 1)[0] != layer:
                add(f"{layer}.s", end - start)
            add(f"{name}.self_s", end - start - child_s[i])
            add(f"{name}.s", end - start)
            add(f"{name}.calls", 1)
            add(f"{layer}.units", units)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({
                "fields": ["name", "start_s", "end_s", "parent", "requests"],
                "spans": self.spans,
            }),
            encoding="utf-8",
        )


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every entry point in :data:`ENTRY_POINTS`; restore on exit."""
    saved = []
    try:
        for name, sites in ENTRY_POINTS.items():
            for module_name, attr_path in sites:
                owner, attr = _resolve(module_name, attr_path)
                original = owner.__dict__[attr]

                def wrapper(*args, _fn=original, _name=name, **kwargs):
                    return tracer.call(_name, _fn, args, kwargs)

                functools.update_wrapper(wrapper, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def profile_shares(fn) -> dict[str, float]:
    """Run ``fn`` under ``cProfile``; self-time share of each profile module."""
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    stats = pstats.Stats(profiler).stats
    total = 0.0
    shares = dict.fromkeys(PROFILE_MODULES, 0.0)
    for (filename, _, funcname), (_, _, self_s, _, callers) in stats.items():
        total += self_s
        if HEAPQ in funcname:
            shares["ssd.engine"] += sum(
                caller_stats[2]
                for caller, caller_stats in callers.items()
                if _module_of(caller[0]) == "ssd.engine"
            )
            continue
        key = _module_of(filename if filename != "~" else funcname)
        if key is not None:
            shares[key] += self_s
    return {key: value / total for key, value in shares.items()} if total else shares


def _module_of(where: str) -> str | None:
    for key, fragments in PROFILE_MODULES.items():
        if any(fragment in where for fragment in fragments):
            return key
    return None
