"""``repro.obs`` — zero-dependency observability subsystem.

Three pillars, bundled by the :class:`Observability` facade:

* **metrics registry** (:mod:`repro.obs.registry`) — counters, gauges,
  fixed-bucket latency histograms (p50/p95/p99), and series that the
  simulator, FTL, GC, buffer, fast model, keeper, and training loop
  publish into;
* **structured tracing** (:mod:`repro.obs.trace`,
  :mod:`repro.obs.chrometrace`) — ring-buffered event records with JSONL
  and ``chrome://tracing`` exporters;
* **utilization profiling** (:mod:`repro.obs.profiler`) — per-channel /
  per-die busy-fraction and queue-depth time series on a configurable
  simulated-time interval;
* **latency attribution** (:mod:`repro.obs.attribution`) — exact-sum
  decomposition of every completed request's latency into named phases
  (queue waits, bus transfer, die busy, GC stall, ECC retries, buffer
  hits) with per-tenant/per-channel aggregation and Perfetto spans;
* **causal explanation** (:mod:`repro.obs.critpath`,
  :mod:`repro.obs.whatif`) — run-level critical-path extraction (which
  resource bounds the makespan, exact-sum validated) and counterfactual
  what-if profiling by exact re-simulation with scaled config knobs,
  surfaced as ``repro explain``.

Everything is opt-in.  :class:`Observability` is a device
:class:`~repro.ssd.probe.Probe`: the simulator takes it (alone, or
composed with other subscribers through :func:`~repro.ssd.probe.probes`)
as its one ``obs=`` argument, and each component arms only the hook sites
the bundle needs — a disarmed site costs one ``is not None`` branch.
Enable with::

    from repro.obs import Observability
    obs = Observability(utilization_interval_us=500.0)
    sim = SSDSimulator(config, channel_sets, obs=obs)
    result = sim.run(trace)
    obs.trace.write_jsonl("run.jsonl")
    obs.write_chrome_trace("run.chrome.json")
    print(obs.registry.to_json(indent=2))
"""

from __future__ import annotations

from ..ssd.ftl.gc import GCWorkItem
from ..ssd.probe import Probe
from .attribution import (
    DRAM_CHANNEL,
    PHASE_NAMES,
    AttributionCollector,
    AttributionError,
    LatencyBreakdown,
    RequestAttribution,
    SubrequestSpan,
)
from .chrometrace import to_chrome_trace, write_chrome_trace
from .critpath import (
    BottleneckReport,
    CritPathError,
    extract_critical_path,
)
from .diff import (
    DiffError,
    build_diff_report,
    diff_critpath_docs,
    diff_fleet_devices,
    diff_run,
    diff_traces,
    load_diff,
)
from .fleet import (
    FleetObserver,
    FleetRegistry,
    FleetSloAlert,
    FleetSloRollup,
    build_fleet_report,
    device_health,
    load_fleet,
    merge_histograms,
)
from .flightrecorder import FlightRecorder
from .profiler import UtilizationProfiler
from .registry import DEFAULT_LATENCY_BUCKETS_US, Counter, Gauge, Histogram, MetricsRegistry, Series
from .slo import SloAlert, SloSpec, SloSpecError, SloWatchdog
from .telemetry import TelemetrySink
from .trace import EVENT_NAMES, NULL_RECORDER, NullRecorder, TraceEvent, TraceRecorder, match_pairs
from .whatif import (
    DEFAULT_COUNTERFACTUALS,
    Counterfactual,
    WhatIfReport,
    WhatIfRow,
    explain_decisions,
    run_whatif,
)

__all__ = [
    "Observability",
    "TelemetrySink",
    "SloSpec",
    "SloSpecError",
    "SloAlert",
    "SloWatchdog",
    "FlightRecorder",
    "FleetObserver",
    "FleetRegistry",
    "FleetSloAlert",
    "FleetSloRollup",
    "build_fleet_report",
    "device_health",
    "load_fleet",
    "merge_histograms",
    "AttributionCollector",
    "AttributionError",
    "LatencyBreakdown",
    "RequestAttribution",
    "SubrequestSpan",
    "PHASE_NAMES",
    "DRAM_CHANNEL",
    "BottleneckReport",
    "CritPathError",
    "extract_critical_path",
    "Counterfactual",
    "DEFAULT_COUNTERFACTUALS",
    "WhatIfReport",
    "WhatIfRow",
    "run_whatif",
    "explain_decisions",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "DEFAULT_LATENCY_BUCKETS_US",
    "TraceRecorder",
    "TraceEvent",
    "NullRecorder",
    "NULL_RECORDER",
    "EVENT_NAMES",
    "match_pairs",
    "UtilizationProfiler",
    "to_chrome_trace",
    "write_chrome_trace",
    "DiffError",
    "build_diff_report",
    "diff_critpath_docs",
    "diff_fleet_devices",
    "diff_run",
    "diff_traces",
    "load_diff",
]


#: hooks whose only work is a trace event: disarmed when tracing is off
_TRACE_HOOKS = frozenset({
    "on_grant", "on_release", "on_submit", "on_dispatch", "on_gc_start",
})


class Observability(Probe):
    """Bundle of registry + trace recorder + profiling config; a device
    probe (see the module docstring and :meth:`hook`).

    Parameters
    ----------
    registry:
        Existing registry to publish into (default: a fresh one).
    trace:
        ``True`` (default) records events into a ring buffer; ``False``
        installs the no-op recorder (metrics only); or pass a
        pre-configured :class:`TraceRecorder`.
    trace_capacity / trace_sample_every:
        Ring-buffer size and 1-in-N sampling for the default recorder.
    utilization_interval_us:
        When set, the arm hook attaches a :class:`UtilizationProfiler`
        sampling every that many simulated microseconds (found afterwards
        on :attr:`profiler`).
    attribution:
        ``True`` attaches an :class:`AttributionCollector` (found on
        :attr:`attribution`): every completed request's latency is
        decomposed into named phases — queue waits, bus transfer, die
        busy, GC stall, ECC retries, buffer hits — with exact-sum
        validation; or pass a pre-configured collector.  ``False`` (the
        default) costs nothing.
    telemetry:
        A sampling interval in simulated microseconds (or a
        pre-configured :class:`TelemetrySink`): the arm hook starts the
        sink to emit delta-encoded windows over the registry on weak
        loop events (never perturbing the run).  ``None`` (default)
        costs nothing.
    slo:
        An :class:`SloSpec` (or pre-built :class:`SloWatchdog`): each
        telemetry window is evaluated for burn-rate alerting.  Implies
        telemetry — when no sink/interval is given, one is created with
        the spec's ``window_us``.
    flight_recorder:
        An output directory path (or pre-built :class:`FlightRecorder`):
        sanitizer traps, page-severity SLO alerts, and unrecoverable
        reads dump reproducible debug bundles there.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        trace: "bool | TraceRecorder" = True,
        trace_capacity: int = 65_536,
        trace_sample_every: int = 1,
        utilization_interval_us: float | None = None,
        attribution: "bool | AttributionCollector" = False,
        telemetry: "float | TelemetrySink | None" = None,
        slo: "SloSpec | SloWatchdog | None" = None,
        flight_recorder: "str | FlightRecorder | None" = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        if isinstance(trace, (TraceRecorder, NullRecorder)):
            self.trace = trace
        elif trace:
            self.trace = TraceRecorder(
                capacity=trace_capacity, sample_every=trace_sample_every
            )
        else:
            self.trace = NULL_RECORDER
        if utilization_interval_us is not None and utilization_interval_us <= 0:
            raise ValueError("utilization_interval_us must be positive")
        self.utilization_interval_us = utilization_interval_us
        #: attached by the arm hook when profiling is enabled
        self.profiler: UtilizationProfiler | None = None
        #: keeper decision records (:class:`repro.core.keeper.KeeperDecision`)
        self.decisions: list = []
        #: optional per-request latency attribution sink
        if isinstance(attribution, AttributionCollector):
            self.attribution: AttributionCollector | None = attribution
        elif attribution:
            self.attribution = AttributionCollector(trace=self.trace)
        else:
            self.attribution = None
        #: optional SLO watchdog fed by the telemetry sink
        if isinstance(slo, SloWatchdog):
            self.slo: SloWatchdog | None = slo
        elif isinstance(slo, SloSpec):
            self.slo = SloWatchdog(slo)
        elif slo is None:
            self.slo = None
        else:
            raise TypeError("slo must be an SloSpec or SloWatchdog")
        #: optional windowed telemetry sink (started by the arm hook)
        if isinstance(telemetry, TelemetrySink):
            self.telemetry: TelemetrySink | None = telemetry
        elif telemetry is not None:
            self.telemetry = TelemetrySink(float(telemetry))
        elif self.slo is not None:
            # an SLO without an explicit sink still needs windows to
            # evaluate: derive one from the spec's window length
            self.telemetry = TelemetrySink(self.slo.spec.window_us)
        else:
            self.telemetry = None
        if self.slo is not None:
            self.telemetry.watchdog = self.slo
        #: optional failure flight recorder
        if isinstance(flight_recorder, FlightRecorder):
            self.flight_recorder: FlightRecorder | None = flight_recorder
        elif flight_recorder is not None:
            self.flight_recorder = FlightRecorder(flight_recorder)
        else:
            self.flight_recorder = None
        if self.flight_recorder is not None:
            self.flight_recorder.obs = self
        if self.slo is not None:
            self.slo.bind(
                registry=self.registry,
                trace=self.trace if self.trace.enabled else None,
                flight_recorder=self.flight_recorder,
            )

    # ------------------------------------------------------------------
    # Probe hooks: what the device reports, and where each lands
    # ------------------------------------------------------------------
    def hook(self, name: str):
        """Arm ``name`` only when this bundle has work for it.

        Arming a site also registers the metrics that site publishes, so a
        run in which it never fires still reports them as zero.
        """
        if name in _TRACE_HOOKS and not self.trace.enabled:
            return None
        if name in ("span", "on_gc_charge"):
            attribution = self.attribution
            if attribution is None:
                return None
            return attribution.span if name == "span" else attribution.note_gc_trigger
        if name == "on_trap" and self.flight_recorder is None:
            return None
        reg = self.registry
        if name == "on_complete":
            self._read_hist = reg.histogram("sim.read_latency_us")
            self._write_hist = reg.histogram("sim.write_latency_us")
            #: per-tenant latency histograms, kept only for telemetry
            self._tenant_hist: dict = {}
        elif name == "after_gc":
            self._gc_collections = reg.counter("ftl.gc.collections")
            self._gc_pages_moved = reg.counter("ftl.gc.pages_moved")
        return super().hook(name)

    def joined(self, peers: tuple) -> None:
        """Route attribution's exact-sum check and flight bundles through
        a sanitizer composed alongside this bundle."""
        from ..analysis.sanitizer import Sanitizer

        for peer in peers:
            if isinstance(peer, Sanitizer):
                if self.attribution is not None:
                    self.attribution.sanitizer = peer
                if self.flight_recorder is not None:
                    self.flight_recorder.sanitizer = peer

    def on_grant(self, resource, start_us, duration_us, wait_us=0.0) -> None:
        self.trace.emit(
            start_us, f"{resource.kind}_acquire", resource.name, "resource",
            dur_us=duration_us, args={"wait_us": wait_us},
        )

    def on_release(self, resource, now_us) -> None:
        self.trace.emit(now_us, f"{resource.kind}_release", resource.name, "resource")

    def after_gc(self, state, plane, moves=0, retired=False) -> None:
        if not retired:
            self._gc_collections.inc()
        self._gc_pages_moved.inc(moves)
        if self.attribution is not None:
            cfg = state.config
            channel = plane.plane_index // (cfg.planes // cfg.channels)
            self.attribution.note_gc_reclaim(channel, moves, retired)

    def on_gc_start(self, die, item, start_us, duration_us) -> None:
        tr = self.trace
        args = {"plane": item.plane_index, "block": item.block, "moves": item.moves}
        is_gc = isinstance(item, GCWorkItem)
        if is_gc:
            tr.emit(start_us, "gc_start", die.name, "gc", args=args)
            loop = die.loop
            loop.schedule(
                start_us + duration_us,
                lambda: tr.emit(loop.now, "gc_end", die.name, "gc"),
            )
        if not is_gc or item.retired:
            tr.emit(start_us, "block_retired", die.name, "faults", args=args)

    def on_submit(self, req, now_us) -> None:
        self.trace.emit(
            now_us, "request_submit", f"w{req.workload_id}", "host",
            args={"op": req.op.name, "lpn": req.lpn, "len": req.length},
        )

    def on_dispatch(self, now_us, wid, lpn, ppn, op, die, bus, retry=None) -> None:
        self.trace.emit(
            now_us, "subrequest_dispatch", bus.name, "sim",
            args={"wid": wid, "lpn": lpn, "ppn": ppn, "op": op, "die": die.name},
        )
        if retry is not None and retry.retries:
            self.trace.emit(
                now_us, "read_retry", die.name, "faults",
                args={"ppn": ppn, "retries": retry.retries,
                      "unrecoverable": retry.unrecoverable},
            )

    def on_complete(self, req, now_us, failed, span) -> None:
        reg = self.registry
        if failed:
            reg.counter("sim.failed_reads").inc()
            if self.flight_recorder is not None:
                self.flight_recorder.dump_once(
                    "unrecoverable-read",
                    detail=f"wid={req.workload_id} lpn={req.lpn} len={req.length}",
                    time_us=now_us,
                )
        else:
            latency_us = req.latency_us
            (self._read_hist if req.is_read else self._write_hist).observe(latency_us)
            if self.telemetry is not None:
                hist = self._tenant_hist.get((req.workload_id, req.op))
                if hist is None:
                    kind = "read" if req.is_read else "write"
                    hist = reg.histogram(
                        f"sim.tenant.{req.workload_id}.{kind}_latency_us"
                    )
                    self._tenant_hist[(req.workload_id, req.op)] = hist
                hist.observe(latency_us)
            if self.attribution is not None and span is not None:
                self.attribution.record(req, span)
        reg.counter("sim.requests").inc()

    def arm(self, sim) -> None:
        if self.utilization_interval_us is not None:
            self.profiler = UtilizationProfiler(self.utilization_interval_us)
            self.profiler.attach(sim.loop, sim.channels, sim.dies)
        if self.telemetry is not None:
            self.telemetry.attach(
                sim.loop, self.registry, channels=sim.channels, dies=sim.dies,
            )

    def collect(self, sim, result) -> None:
        """Flush the samplers, complete ``result`` and publish the run."""
        if self.profiler is not None:
            # flush the final partial window so the series covers the run
            self.profiler.flush()
        if self.telemetry is not None:
            self.telemetry.flush()
        if self.attribution is not None:
            result.breakdown = self.attribution.breakdown()
        if self.slo is not None:
            result.alerts = [a.to_dict() for a in self.slo.alerts]
        reg = self.registry
        reg.counter("sim.requests").value = sim.requests_done
        reg.counter("sim.subrequests").value = sim.subrequests_done
        reg.counter("sim.events").value = sim.loop.events_processed
        reg.counter("ftl.seeded_pages").value = sim.controller.seeded_pages
        reg.gauge("sim.makespan_us").set(result.makespan_us)
        reg.gauge("sim.total_latency_us").set(result.total_latency_us)
        reg.gauge("sim.channel_wait_us").set(result.channel_wait_us)
        reg.gauge("sim.die_wait_us").set(result.die_wait_us)
        for res in (*sim.channels, *sim.dies):
            reg.gauge(f"util.{res.name}.busy_fraction").set(
                res.utilization(result.makespan_us)
            )
        if sim.buffer is not None:
            sim.buffer.stats.publish(reg)
        if sim.faults is not None:
            sim.faults.publish(reg)
        if self.profiler is not None:
            self.profiler.publish(reg)
        if result.breakdown is not None:
            reg.counter("attr.requests").value = result.breakdown.requests
            for phase, total_us in result.breakdown.phase_totals_us.items():
                reg.gauge(f"attr.{phase}").set(total_us)

    def on_trap(self, exc, now_us) -> None:
        trigger = (
            "sanitizer-invariant" if getattr(exc, "invariant", None)
            else "exception"
        )
        self.flight_recorder.dump_once(trigger, detail=str(exc), time_us=now_us)

    # ------------------------------------------------------------------
    def write_chrome_trace(self, path) -> int:
        """Export recorded events in Chrome trace format; returns count."""
        return write_chrome_trace(self.trace.events(), path)

    def export(self) -> dict:
        """Registry snapshot plus utilization, attribution, fault and
        keeper summaries (each section present only when populated)."""
        out = self.registry.snapshot()
        if self.profiler is not None:
            out["utilization"] = self.profiler.to_dict()
        if self.decisions:
            out["keeper_decisions"] = [d.to_dict() for d in self.decisions]
        if self.attribution is not None:
            out["attribution"] = self.attribution.breakdown().to_dict()
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.header()
        if self.slo is not None:
            out["slo"] = self.slo.summary()
        if self.flight_recorder is not None and self.flight_recorder.bundles:
            out["flight_bundles"] = [
                str(p) for p in self.flight_recorder.bundles
            ]
        faults = {
            name: value
            for section in ("counters", "gauges")
            for name, value in out.get(section, {}).items()
            if name.startswith("faults.")
        }
        if faults:
            out["faults"] = faults
        fallbacks = self.registry.get("keeper.fallbacks")
        if fallbacks is not None or self.decisions:
            out["keeper"] = {
                "fallbacks": fallbacks.value if fallbacks is not None else 0,
                "prediction_health": [
                    {
                        "time_us": d.time_us,
                        "healthy": d.fallback_reason is None,
                        "reason": d.fallback_reason,
                    }
                    for d in self.decisions
                ],
            }
        adaptation = self._adaptation_summary(out.get("counters", {}))
        if adaptation is not None:
            out["adaptation"] = adaptation
        return out

    def _adaptation_summary(self, counters: dict) -> dict | None:
        """Roll the adaptive keeper's drift/retrain counters into one
        section (``None`` when no adaptive run published anything)."""
        names = {
            "windows": "drift.windows",
            "detections": "drift.detections",
            "residual_alarms": "drift.residual_alarms",
            "feature_alarms": "drift.feature_alarms",
            "retrains": "keeper.retrains",
            "promotions": "keeper.promotions",
            "rollbacks": "keeper.rollbacks",
            "suppressed_switches": "keeper.suppressed_switches",
            "degradations": "keeper.degradations",
        }
        if not any(counter in counters for counter in names.values()):
            return None
        return {key: counters.get(counter, 0) for key, counter in names.items()}
