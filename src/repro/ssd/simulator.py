"""Event-driven, trace-driven SSD simulator.

This is the reproduction of the paper's modified SSDSim: requests arrive at
their trace timestamps, split into per-page sub-requests, and contend for two
resource classes — the **channel bus** (page transfers serialise per channel)
and the **die** (flash array operations serialise per die).  Host operations
are serviced FIFO per resource, as SSDSim does — the paper's remark that
reads "have priority to respond because of the lower flash chip accessing
time" is the tR << tPROG service-time asymmetry, which this model captures
directly.  (``read_priority=True`` switches to a preemptive-queue discipline
where reads overtake queued writes, for the scheduling ablation.)  Garbage
collection runs as internal die jobs that jump ahead of queued host writes.

A read occupies its die for ``tR`` then the channel for the transfer out;
a write occupies the channel for the transfer in then its die for ``tPROG``.
The request completes when its slowest sub-request completes.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Mapping, Sequence

from .buffer import BufferConfig, WriteBuffer
from .config import SSDConfig
from .controller import FTLController
from .engine import PRIO_GC, PRIO_READ, PRIO_WRITE, EventLoop, Resource
from .faults import FaultConfig, FaultInjector
from .ftl.page_alloc import PageAllocMode
from .metrics import LatencyAccumulator, SimulationResult, build_result
from .probe import hook
from .request import IORequest, OpType
from .timing import ServiceTimes

__all__ = ["SSDSimulator", "simulate"]


class _InFlight:
    """Book-keeping for one host request while its pages are in service."""

    __slots__ = ("request", "remaining", "last_end_us", "failed", "span")

    def __init__(self, request: IORequest) -> None:
        self.request = request
        self.remaining = request.length
        self.last_end_us = request.arrival_us
        self.failed = False
        #: critical-path attribution span (only when attribution is on):
        #: the timeline of the page that completed last
        self.span = None


class SSDSimulator:
    """One simulated device plus its FTL, ready to run one trace.

    Parameters
    ----------
    config:
        Device geometry and timing.
    channel_sets:
        workload id -> channels that workload may occupy.
    page_modes:
        workload id -> page allocation mode (default STATIC for all).
    record_latencies:
        keep raw per-request latency samples (enables percentiles).
    obs:
        the device's observer: any :class:`~repro.ssd.probe.Probe` — an
        :class:`repro.obs.Observability` bundle, a
        :class:`repro.analysis.Sanitizer`, or several composed with
        :func:`~repro.ssd.probe.probes`.  Every component arms only the
        hook sites some subscriber implements; ``None`` (the default)
        leaves them all disarmed at one pointer test each.  Observers add
        no randomness, so an observed run's latencies are identical to an
        unobserved one.
    faults:
        optional seeded NAND fault model.  Unlike ``obs`` it changes the
        simulated outcome.
    """

    def __init__(
        self,
        config: SSDConfig,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
        *,
        record_latencies: bool = False,
        read_priority: bool = False,
        buffer: "BufferConfig | None" = None,
        loop: "EventLoop | None" = None,
        obs=None,
        faults: "FaultConfig | FaultInjector | None" = None,
    ) -> None:
        self.config = config
        #: queue discipline: FIFO (SSDSim-faithful) unless reads may overtake
        self._read_prio = PRIO_READ if read_priority else PRIO_WRITE
        self.times = ServiceTimes.from_config(config)
        #: the device's own clock.  A caller may pass a pre-built loop so a
        #: :class:`~repro.ssd.engine.ComposedLoop` can interleave several
        #: devices; behaviour is identical to the self-owned default.
        self.loop = loop if loop is not None else EventLoop()
        self.channels = [
            Resource(self.loop, name=f"ch{c}", kind="channel")
            for c in range(config.channels)
        ]
        self.dies = [
            Resource(self.loop, name=f"die{d}", kind="die")
            for d in range(config.dies)
        ]
        self._planes_per_die = config.planes_per_die
        #: pages per die and per channel: ``ppn // stride`` is the flat die
        #: (channel) index, the PPN layout being channel|chip|die|plane|...
        self._die_stride = config.pages_per_plane * config.planes_per_die
        self._dies_per_channel = config.dies // config.channels
        self._channel_stride = config.pages_per_channel
        #: optional fault injector (seeded NAND error model); ``None`` costs
        #: one ``is not None`` branch per operation
        if faults is None or isinstance(faults, FaultInjector):
            self.faults = faults
        else:
            self.faults = FaultInjector(faults)
        self.controller = FTLController(
            config,
            channel_sets,
            page_modes,
            die_load=self._die_load,
            faults=self.faults,
        )
        #: optional DRAM write-back buffer in front of the FTL
        self.buffer = WriteBuffer(buffer) if buffer is not None else None
        self.acc = LatencyAccumulator(record_latencies=record_latencies)
        self._inflight: dict[int, _InFlight] = {}
        self._next_req_key = 0
        self.requests_done = 0
        self.subrequests_done = 0
        self.failed_reads = 0
        self.attach(obs)

    def attach(self, probe) -> None:
        """Make ``probe`` the device's observer and re-arm every hook site.

        A fleet calls this to compose its completion counter after the
        device's own observer: ``sim.attach(probes(sim.probe, counter))``.
        """
        #: the device's observer (see :mod:`repro.ssd.probe`)
        self.probe = probe
        self.loop.attach(probe)
        for res in (*self.channels, *self.dies):
            res.attach(probe)
        self.controller.attach(probe)
        self._on_submit = hook(probe, "on_submit")
        self._on_dispatch = hook(probe, "on_dispatch")
        self._span = hook(probe, "span")
        self._on_gc_charge = hook(probe, "on_gc_charge")
        self._on_gc_start = hook(probe, "on_gc_start")
        self._on_complete = hook(probe, "on_complete")

    # ------------------------------------------------------------------
    def _die_load(self, die_index: int) -> tuple:
        """Dynamic-placement load key: combined die+bus queue, then free time.

        A write occupies the channel bus before the die, so an idle die
        behind a congested bus is not actually a good target — both
        resources count.
        """
        die = self.dies[die_index]
        chan = self.channels[die_index // self._dies_per_channel]
        pending = (
            die.queue_depth
            + (1 if die.busy else 0)
            + chan.queue_depth
            + (1 if chan.busy else 0)
        )
        return (pending, max(die.free_at, chan.free_at))

    def utilization_report(self) -> dict:
        """Per-resource busy fractions over the simulated makespan.

        Meaningful after :meth:`run`; the report is what the examples print
        to show where an allocation is bottlenecked.
        """
        elapsed_us = self.loop.now
        return {
            "makespan_us": elapsed_us,
            "channels": [c.utilization(elapsed_us) for c in self.channels],
            "dies": [d.utilization(elapsed_us) for d in self.dies],
            "channel_wait_us": sum(c.wait_time_us for c in self.channels),
            "die_wait_us": sum(d.wait_time_us for d in self.dies),
            "gc_busy_us": sum(d.gc_busy_time_us for d in self.dies),
        }

    # ------------------------------------------------------------------
    def submit(self, req: IORequest) -> None:
        """Submit one request at the loop's *current* time.

        The caller is responsible for having advanced ``self.loop`` to the
        request's arrival time (a fleet does this by bouncing arrivals
        through a device-loop event); trace-driven solo runs should use
        :meth:`run`, which schedules arrivals itself.
        """
        if self._on_submit is not None:
            self._on_submit(req, self.loop.now)
        key = self._next_req_key
        self._next_req_key += 1
        self._inflight[key] = _InFlight(req)
        issue = self._issue_read if req.op is OpType.READ else self._issue_write
        wid = req.workload_id
        for lpn in req.lpns():
            if self.buffer is not None and self._via_buffer(key, req, lpn):
                continue
            issue(key, wid, lpn)

    def arm_observers(self) -> None:
        """Fire the observer's arm hook (samplers attach to the loop).

        Called by :meth:`prepare` for solo runs; a fleet calls it directly
        because fleet arrivals reach the device after preparation.  All
        samplers ride weak loop events, so arming never perturbs the run.
        """
        arm = hook(self.probe, "arm")
        if arm is not None:
            arm(self)

    def prepare(self, requests: Iterable[IORequest]) -> int:
        """Schedule ``requests`` at their arrival times; arm the samplers.

        Returns the number of requests scheduled.  Together with
        :meth:`collect` this is the decomposed form of :meth:`run` used by
        fleet composition.
        """
        ordered = sorted(requests, key=lambda r: r.arrival_us)
        for req in ordered:
            # trace arrival timestamps are absolute simulated times
            self.loop.schedule(req.arrival_us, partial(self.submit, req))  # repro-lint: disable=R004 (trace arrivals are absolute times)
        if ordered:
            self.arm_observers()
        return len(ordered)

    def run(self, requests: Iterable[IORequest]) -> SimulationResult:
        """Simulate ``requests`` (any order; sorted internally) to completion."""
        self.prepare(requests)
        try:
            self.loop.run()
        except Exception as exc:
            on_trap = hook(self.probe, "on_trap")
            if on_trap is not None:
                on_trap(exc, self.loop.now)
            raise
        return self.collect()

    def collect(self) -> SimulationResult:
        """Assemble the :class:`SimulationResult`; fire the collect hook.

        Requires the device's loop to have drained (every in-flight
        request completed); fleet composition calls this once the composed
        loop reaches global quiescence.
        """
        if self._inflight:  # pragma: no cover - engine invariant
            raise RuntimeError(f"{len(self._inflight)} requests never completed")
        result = build_result(
            self.acc,
            makespan_us=self.loop.now,
            requests=self.requests_done,
            subrequests=self.subrequests_done,
            gc_collections=self.controller.gc.collections,
            gc_pages_moved=self.controller.gc.pages_moved,
            failed_reads=self.failed_reads,
            die_wait_us=sum(d.wait_time_us for d in self.dies),
            channel_wait_us=sum(c.wait_time_us for c in self.channels),
            events=self.loop.events_processed,
            extras={
                "seeded_pages": self.controller.seeded_pages,
                "mapped_pages": self.controller.mapped_pages(),
                **(
                    {"faults": self.faults.summary()}
                    if self.faults is not None
                    else {}
                ),
                **(
                    {
                        "buffer_read_hit_rate": self.buffer.stats.read_hit_rate,
                        "buffer_write_absorb_rate": self.buffer.stats.write_absorb_rate,
                        "buffer_dirty_evictions": self.buffer.stats.dirty_evictions,
                    }
                    if self.buffer is not None
                    else {}
                ),
            },
        )
        collect = hook(self.probe, "collect")
        if collect is not None:
            collect(self, result)
        return result

    # ------------------------------------------------------------------
    def _via_buffer(self, key: int, req: IORequest, lpn: int) -> bool:
        """Route one page through the DRAM buffer.

        Returns True when the page was fully served by DRAM (completion
        scheduled); False when the page still needs the flash read path.
        Dirty evictions always spawn background flash writes.
        """
        assert self.buffer is not None
        glpn = self.controller.global_lpn(req.workload_id, lpn)
        if req.op is OpType.WRITE:
            outcome = self.buffer.write(glpn)
        else:
            outcome = self.buffer.read(glpn)
        for victim in outcome.flash_writes:
            wid = victim // self.controller.tenant_lpn_space
            victim_lpn = victim % self.controller.tenant_lpn_space
            self._issue_background_write(wid, victim_lpn)
        if req.op is OpType.WRITE or outcome.hit:
            # Absorbed write or DRAM read hit: completes at DRAM latency.
            dram_us = self.buffer.config.dram_latency_us
            done = self.loop.now + dram_us
            span = self._span(-1, -1) if self._span is not None else None
            if span is not None:
                span.buffer_us = dram_us
            self.loop.schedule(done, partial(self._complete_page, key, span))
            return True
        return False

    def _issue_background_write(self, wid: int, lpn: int) -> None:
        """Program an evicted dirty page; no host request completion."""
        ppn, gc_items = self.controller.place_write(wid, lpn)
        if gc_items:
            self._charge_gc(wid, gc_items)
        t = self.times
        self.channels[ppn // self._channel_stride].acquire(
            (PRIO_WRITE, self.loop.now),
            t.write_bus_us,
            partial(
                self._chain, self.dies[ppn // self._die_stride], PRIO_WRITE,
                t.write_bus_us, t.write_die_us, _ignore_grant,
            ),
        )

    # Untraced pages run on these two grant callbacks, bound with
    # ``partial``: no per-page closures or cells while a page waits.
    def _chain(
        self, resource: Resource, prio_class: int, phase_us: float,
        next_us: float, on_grant, start: float,
    ) -> None:
        """A page's first phase began: queue its second one when it ends.

        The second resource is requested by a direct ``acquire`` event at
        the first phase's end (``loop.now`` there is exactly ``at``).
        """
        at = start + phase_us
        self.loop.schedule(at, partial(resource.acquire, (prio_class, at), next_us, on_grant))

    def _last_phase(self, key: int, phase_us: float, start: float) -> None:
        """A page's last phase began: it completes ``phase_us`` later."""
        self.loop.schedule(start + phase_us, partial(self._complete_page, key))

    def _issue_read(self, key: int, wid: int, lpn: int) -> None:
        ppn = self.controller.resolve_read(wid, lpn)
        die = self.dies[ppn // self._die_stride]
        bus = self.channels[ppn // self._channel_stride]
        loop = self.loop
        t = self.times
        prio = self._read_prio
        die_us = t.read_die_us
        bus_us = t.read_bus_us
        span = self._page_span(ppn) if self._span is not None else None
        unrecoverable = False
        outcome = None
        if self.faults is not None:
            geom = self.controller.geometry
            plane = self.controller.state.planes[geom.plane_index(ppn)]
            block = plane.block_of(ppn)
            outcome = self.faults.read_outcome(
                geom.channel_of(ppn), plane.erase_count[block]
            )
            if outcome.retries:
                # Each ECC retry re-senses the array: the die stays busy for
                # one extra command+tR round per retry.
                die_us = t.read_die_with_retries_us(outcome.retries)
            unrecoverable = outcome.unrecoverable
        if self._on_dispatch is not None:
            self._on_dispatch(loop.now, wid, lpn, ppn, "read", die, bus, outcome)
        if span is None and not unrecoverable:
            last = partial(self._last_phase, key, bus_us)
            die.acquire(
                (prio, loop.now), die_us,
                partial(self._chain, bus, prio, die_us, bus_us, last),
            )
            return

        def bus_granted(start: float) -> None:
            if span is not None:
                span.bus_granted(start)
                span.bus_us = bus_us
            loop.schedule(start + bus_us, partial(self._complete_page, key, span))

        def die_granted(start: float) -> None:
            done = start + die_us
            if span is not None:
                span.die_granted(start, die)
                span.die_us = t.read_die_us
                span.ecc_retry_us = die_us - t.read_die_us
            if unrecoverable:
                # ECC exhausted: the die time was spent but no data moves
                # over the bus — the request surfaces as a failed read.
                loop.schedule(done, partial(self._complete_page, key, None, True))
                return

            def to_bus() -> None:
                span.bus_enqueued(loop.now)
                bus.acquire((prio, loop.now), bus_us, bus_granted)

            loop.schedule(done, to_bus)

        if span is not None:
            span.die_enqueued(loop.now, die)
        die.acquire((prio, loop.now), die_us, die_granted)

    def _issue_write(self, key: int, wid: int, lpn: int) -> None:
        ppn, gc_items = self.controller.place_write(wid, lpn)
        die = self.dies[ppn // self._die_stride]
        bus = self.channels[ppn // self._channel_stride]
        loop = self.loop
        if self._on_dispatch is not None:
            self._on_dispatch(loop.now, wid, lpn, ppn, "write", die, bus)
        if gc_items:
            self._charge_gc(wid, gc_items)
        span = self._page_span(ppn) if self._span is not None else None
        bus_us = self.times.write_bus_us
        die_us = self.times.write_die_us
        if span is None:
            last = partial(self._last_phase, key, die_us)
            bus.acquire(
                (PRIO_WRITE, loop.now), bus_us,
                partial(self._chain, die, PRIO_WRITE, bus_us, die_us, last),
            )
            return

        def bus_granted(start: float) -> None:
            span.bus_granted(start)
            span.bus_us = bus_us

            def to_die() -> None:
                span.die_enqueued(loop.now, die)
                die.acquire((PRIO_WRITE, loop.now), die_us, die_granted)

            loop.schedule(start + bus_us, to_die)

        def die_granted(start: float) -> None:
            span.die_granted(start, die)
            span.die_us = die_us
            loop.schedule(start + die_us, partial(self._complete_page, key, span))

        span.bus_enqueued(loop.now)
        bus.acquire((PRIO_WRITE, loop.now), bus_us, bus_granted)

    def _page_span(self, ppn: int):
        """Attribution timeline for one page at ``ppn`` (span hook armed)."""
        return self._span(ppn // self._channel_stride, ppn // self._die_stride)

    def _charge_gc(self, wid: int, items: list) -> None:
        """Charge die time for FTL background work done on behalf of a write.

        ``items`` mixes :class:`~repro.ssd.ftl.gc.GCWorkItem` (copyback +
        erase of a reclaimed block) and
        :class:`~repro.ssd.faults.FaultWorkItem` (relocation out of a block
        being retired); both expose ``die_us(times)``.
        """
        if self._on_gc_charge is not None:
            self._on_gc_charge(wid, len(items))
        t = self.times
        on_gc_start = self._on_gc_start
        for item in items:
            die = self.dies[item.plane_index // self._planes_per_die]
            duration_us = item.die_us(t)

            def book(start, die=die, item=item, duration_us=duration_us):
                # booked at grant time so waiting host jobs can sample
                # the overlap (see Resource.gc_busy_time_us)
                die.gc_busy_time_us += duration_us
                if on_gc_start is not None:
                    on_gc_start(die, item, start, duration_us)

            die.acquire((PRIO_GC, self.loop.now), duration_us, book)

    def _complete_page(self, key: int, span=None, failed: bool = False) -> None:
        flight = self._inflight[key]
        flight.remaining -= 1
        self.subrequests_done += 1
        if failed:
            flight.failed = True
        if flight.last_end_us <= self.loop.now:
            flight.last_end_us = self.loop.now
            if span is not None:
                # this page (co-)defines the critical path: any page ending
                # at the request's completion time telescopes, phase by
                # phase, back to its arrival — keep its span
                span.end_us = self.loop.now
                flight.span = span
        if flight.remaining == 0:
            req = flight.request
            req.complete_us = flight.last_end_us
            if flight.failed:
                # Unrecoverable read: the request surfaces as failed, and its
                # latency is excluded from the success statistics.
                self.failed_reads += 1
            else:
                self.acc.add(req.workload_id, req.op, req.latency_us)
            del self._inflight[key]
            self.requests_done += 1
            if self._on_complete is not None:
                self._on_complete(req, self.loop.now, flight.failed, flight.span)


def _ignore_grant(_start_us: float) -> None:
    """Grant callback of a background write (no request to complete)."""


def simulate(
    requests: Iterable[IORequest],
    config: SSDConfig,
    channel_sets: Mapping[int, Sequence[int]],
    page_modes: Mapping[int, PageAllocMode] | None = None,
    *,
    record_latencies: bool = False,
    obs=None,
    faults: "FaultConfig | FaultInjector | None" = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`SSDSimulator`."""
    sim = SSDSimulator(
        config, channel_sets, page_modes, record_latencies=record_latencies,
        obs=obs, faults=faults,
    )
    return sim.run(requests)
