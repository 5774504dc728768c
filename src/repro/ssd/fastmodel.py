"""Vectorised timeline model for bulk strategy sweeps.

Label generation (Algorithm 1) simulates every mixed workload under **all 42
channel-allocation strategies**.  The event-driven simulator is exact but
slow for that purpose, so this module provides a fast approximation that
keeps the mechanics that decide *which strategy wins*:

* per-die serialisation of flash operations (tR / tPROG);
* per-channel serialisation of page transfers;
* read = die-then-bus, write = bus-then-die phase order;
* tenant channel sets and page-allocation striping.

Deliberate simplifications (documented in DESIGN.md and validated for
strategy-*ranking* agreement against the DES in
``tests/integration/test_fastmodel_fidelity.py``):

* FIFO service per resource instead of read-priority preemption of queued
  writes;
* no garbage collection (the label-generation windows are far too short to
  trigger it on a Table-I-sized device);
* dynamic page allocation approximated by write-sequence striping over the
  tenant's planes (captures the load spreading, not the instantaneous-load
  adaptivity).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import SSDConfig
from .faults import FaultConfig, FaultExpectation
from .ftl.page_alloc import PageAllocMode
from .geometry import Geometry
from .metrics import LatencyAccumulator, OpStats, SimulationResult, build_result
from .request import IORequest, OpType
from .timing import ServiceTimes

__all__ = ["FastLatencyModel", "fast_simulate", "fast_sweep"]


class FastLatencyModel:
    """Approximate trace simulation with numpy-prepared timelines.

    Every die and every channel bus has its own :class:`_GapTimeline`, and a
    sub-request books only the die and the bus of the plane it lands on, a
    plane inside its tenant's channel set.  No state crosses channels, so
    tenants on disjoint channel sets never touch a common timeline:
    :func:`fast_sweep` relies on this to compose a strategy's result from
    separate runs of its channel groups.
    """

    def __init__(
        self,
        config: SSDConfig,
        channel_sets: Mapping[int, Sequence[int]],
        page_modes: Mapping[int, PageAllocMode] | None = None,
        *,
        record_latencies: bool = False,
        obs=None,
        faults: FaultConfig | None = None,
    ) -> None:
        self.config = config
        #: optional :class:`repro.obs.Observability`; the fast model has no
        #: event stream to trace, but it publishes request counts and
        #: latency histograms into the registry after each run
        self.obs = obs
        self.geometry = Geometry(config)
        self.times = ServiceTimes.from_config(config)
        self.channel_sets = {wid: sorted(set(chs)) for wid, chs in channel_sets.items()}
        modes = dict(page_modes or {})
        self.page_modes = {
            wid: modes.get(wid, PageAllocMode.STATIC) for wid in self.channel_sets
        }
        self.record_latencies = record_latencies
        #: expected-value service-time derating under fault injection (the
        #: fast model has no per-block state to sample against; see
        #: :class:`~repro.ssd.faults.FaultExpectation`)
        self.fault_expectation = (
            FaultExpectation.from_config(faults) if faults is not None else None
        )
        c = config
        self._dies_per_channel = c.chips_per_channel * c.dies_per_chip
        self._planes_per_channel = self._dies_per_channel * c.planes_per_die

    # ------------------------------------------------------------------
    def _static_planes(self, lpns: np.ndarray, channels: list[int]) -> np.ndarray:
        """Vectorised static striping: LPN -> flat plane index."""
        chans = np.asarray(channels, dtype=np.int64)
        n = len(chans)
        c = self.config
        channel = chans[lpns % n]
        rest = lpns // n
        chip = rest % c.chips_per_channel
        rest = rest // c.chips_per_channel
        die = rest % c.dies_per_chip
        rest = rest // c.dies_per_chip
        plane = rest % c.planes_per_die
        return (
            channel * self._planes_per_channel
            + chip * (c.dies_per_chip * c.planes_per_die)
            + die * c.planes_per_die
            + plane
        )

    def _sequence_planes(self, count: int, channels: list[int]) -> np.ndarray:
        """Write-sequence striping over a tenant's planes (dynamic stand-in).

        Planes are interleaved channel-first so consecutive writes hit
        different channel buses (mirrors the DES placer's tie-breaking).
        """
        per_channel = np.asarray(
            [self.geometry.planes_in_channels([ch]) for ch in sorted(set(channels))],
            dtype=np.int64,
        )
        planes = per_channel.T.ravel()
        return planes[np.arange(count, dtype=np.int64) % len(planes)]

    # ------------------------------------------------------------------
    def run(self, requests: Iterable[IORequest]) -> SimulationResult:
        """Approximately simulate ``requests``; same result type as the DES."""
        ordered = sorted(requests, key=lambda r: r.arrival_us)
        n_req = len(ordered)
        if n_req == 0:
            return build_result(
                LatencyAccumulator(self.record_latencies),
                makespan_us=0.0,
                requests=0,
                subrequests=0,
            )

        lengths = np.array([r.length for r in ordered], dtype=np.int64)
        req_arrival_us = np.array([r.arrival_us for r in ordered])
        req_op = np.array([int(r.op) for r in ordered], dtype=np.int8)
        req_wid = np.array([r.workload_id for r in ordered], dtype=np.int64)
        req_lpn = np.array([r.lpn for r in ordered], dtype=np.int64)

        # Expand to sub-requests.
        total = int(lengths.sum())
        req_index = np.repeat(np.arange(n_req), lengths)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        sub_lpn = req_lpn[req_index] + offsets
        sub_arrival_us = req_arrival_us[req_index]
        sub_op = req_op[req_index]
        sub_wid = req_wid[req_index]

        # Placement: plane index per sub-request.
        plane_idx = np.empty(total, dtype=np.int64)
        for wid, channels in self.channel_sets.items():
            mask = sub_wid == wid
            if not mask.any():
                continue
            is_write = mask & (sub_op == int(OpType.WRITE))
            is_read = mask & (sub_op == int(OpType.READ))
            if is_read.any():
                plane_idx[is_read] = self._static_planes(sub_lpn[is_read], channels)
            if is_write.any():
                if self.page_modes[wid] is PageAllocMode.STATIC:
                    plane_idx[is_write] = self._static_planes(
                        sub_lpn[is_write], channels
                    )
                else:
                    plane_idx[is_write] = self._sequence_planes(
                        int(is_write.sum()), channels
                    )
        unknown = set(np.unique(sub_wid)) - set(self.channel_sets)
        if unknown:
            raise KeyError(f"unknown workload ids in trace: {sorted(unknown)}")

        die_idx = plane_idx // self.config.planes_per_die
        chan_idx = plane_idx // self._planes_per_channel

        ends_us = self._timeline_us(sub_arrival_us, sub_op, die_idx, chan_idx)

        # Request latency = slowest page.
        starts = np.cumsum(lengths) - lengths
        req_end_us = np.maximum.reduceat(ends_us, starts)
        latencies_us = req_end_us - req_arrival_us

        acc = LatencyAccumulator(record_latencies=self.record_latencies)
        for wid in sorted(self.channel_sets):
            for op in (OpType.READ, OpType.WRITE):
                mask = (req_wid == wid) & (req_op == int(op))
                if not mask.any():
                    continue
                acc.set_stats(wid, op, _bulk_stats(latencies_us[mask], self.record_latencies))

        result = build_result(
            acc,
            makespan_us=float(req_end_us.max()),
            requests=n_req,
            subrequests=total,
        )
        if self.obs is not None:
            reg = self.obs.registry
            reg.counter("fastmodel.requests").inc(n_req)
            reg.counter("fastmodel.subrequests").inc(total)
            reg.gauge("fastmodel.makespan_us").set(result.makespan_us)
            for op, name in (
                (OpType.READ, "fastmodel.read_latency_us"),
                (OpType.WRITE, "fastmodel.write_latency_us"),
            ):
                mask = req_op == int(op)
                if mask.any():
                    reg.histogram(name).observe_many(latencies_us[mask].tolist())
        return result

    # ------------------------------------------------------------------
    def _timeline_us(
        self,
        arrival: np.ndarray,
        op: np.ndarray,
        die_idx: np.ndarray,
        chan_idx: np.ndarray,
    ) -> np.ndarray:
        """Sequential resource-timeline pass; returns per-sub-request end.

        Resources are *gap-aware* timelines (:class:`_GapTimeline`): when an
        operation's resource-request time lands inside an idle window left
        behind by an earlier out-of-order grant (a read's bus request fires
        at its die-end, after later-arriving writes already claimed the
        tail), it backfills that window — matching the work-conserving
        behaviour of the event-driven engine instead of cascading phantom
        queueing.
        """
        t = self.times
        read_die = t.read_die_us
        read_bus = t.read_bus_us
        write_bus = t.write_bus_us
        write_die = t.write_die_us
        if self.fault_expectation is not None:
            read_die *= self.fault_expectation.read_die_multiplier
            write_die *= self.fault_expectation.write_die_multiplier
        dies = [_GapTimeline() for _ in range(self.config.dies)]
        chans = [_GapTimeline() for _ in range(self.config.channels)]
        ends_us = np.empty(len(arrival))
        arrival_l = arrival.tolist()
        op_l = op.tolist()
        die_l = die_idx.tolist()
        chan_l = chan_idx.tolist()
        write_code = int(OpType.WRITE)
        for i in range(len(arrival_l)):
            a = arrival_l[i]
            die = dies[die_l[i]]
            chan = chans[chan_l[i]]
            if op_l[i] == write_code:
                be = chan.place(a, write_bus)
                e = die.place(be, write_die)
            else:
                de = die.place(a, read_die)
                e = chan.place(de, read_bus)
            ends_us[i] = e
        return ends_us


class _GapTimeline:
    """Single-server busy timeline with idle-gap backfilling.

    ``place(rt, dur)`` books ``dur`` units of service requested at time
    ``rt``: into the earliest remembered idle gap that fits (work
    conservation), else at the tail.  Gaps that end before the request time
    of every future job are pruned lazily — request times never decrease by
    more than the die/bus phase offsets, so a small horizon suffices.

    The state (tail, gaps, pruning) depends only on the sequence of
    ``place`` calls made on this one timeline, so a run restricted to the
    tenants that reach it books it identically.
    """

    __slots__ = ("tail", "gaps")

    #: gaps ending this far before a new request are dropped (us); phase
    #: offsets (tR, tPROG) are far below this.
    _PRUNE_HORIZON = 5_000.0

    def __init__(self) -> None:
        self.tail = 0.0
        self.gaps: list[list[float]] = []

    def place(self, rt: float, dur: float) -> float:
        """Book service requested at ``rt`` for ``dur``; return its end."""
        gaps = self.gaps
        if gaps:
            prune_before = rt - self._PRUNE_HORIZON
            while gaps and gaps[0][1] <= prune_before:
                gaps.pop(0)
            for gi in range(len(gaps)):
                gap = gaps[gi]
                gap_start = gap[0]
                start = rt if rt > gap_start else gap_start
                if gap[1] - start >= dur:
                    end = start + dur
                    if start - gap_start > 1e-9:
                        # keep the head of the gap; tail shrinks/splits
                        old_end = gap[1]
                        gap[1] = start
                        if old_end - end > 1e-9:
                            gaps.insert(gi + 1, [end, old_end])
                    else:
                        gap[0] = end
                        if gap[1] - end <= 1e-9:
                            del gaps[gi]
                    return end
        tail = self.tail
        if rt > tail:
            if rt - tail > 1e-9:
                gaps.append([tail, rt])
                if len(gaps) > 32:
                    gaps.pop(0)  # bound the memory; oldest gaps matter least
            end = rt + dur
        else:
            end = tail + dur
        self.tail = end
        return end


def _bulk_stats(latencies_us: np.ndarray, record: bool) -> OpStats:
    """Build an OpStats from an array in one shot."""
    stats = OpStats(
        count=int(latencies_us.size),
        total_us=float(latencies_us.sum()),
        max_us=float(latencies_us.max()),
        min_us=float(latencies_us.min()),
    )
    if record:
        stats.samples = latencies_us.tolist()
    return stats


def fast_simulate(
    requests: Iterable[IORequest],
    config: SSDConfig,
    channel_sets: Mapping[int, Sequence[int]],
    page_modes: Mapping[int, PageAllocMode] | None = None,
    *,
    record_latencies: bool = False,
    obs=None,
    faults: FaultConfig | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`FastLatencyModel`."""
    model = FastLatencyModel(
        config, channel_sets, page_modes, record_latencies=record_latencies,
        obs=obs, faults=faults,
    )
    return model.run(requests)


def fast_sweep(
    requests: Iterable[IORequest],
    config: SSDConfig,
    channel_sets_per_strategy: Sequence[Mapping[int, Sequence[int]]],
    page_modes: Mapping[int, PageAllocMode] | None = None,
) -> list[SimulationResult]:
    """Fast-model results of one trace under many channel assignments.

    ``results[i]`` equals ``fast_simulate(requests, config,
    channel_sets_per_strategy[i], page_modes)`` field for field, but the
    work is shared.  The fast model keeps no state across channels, so a
    strategy's tenants split into groups with disjoint channels (connected
    components of overlapping channel sets) that never interact.  Channels
    are interchangeable, so a group's timeline is fixed by its tenants and
    their channel sets renumbered densely from 0: the same tenant on a
    one-channel slice is one group wherever the slice sits.  Each distinct
    group runs once, on its own tenants' requests, and each strategy is
    assembled from its groups.
    """
    ordered = sorted(requests, key=lambda r: r.arrival_us)
    present = {r.workload_id for r in ordered}
    subrequests = sum(r.length for r in ordered)
    runs: dict[tuple, SimulationResult] = {}
    results = []
    for channel_sets in channel_sets_per_strategy:
        unknown = present - set(channel_sets)
        if unknown:
            raise KeyError(f"unknown workload ids in trace: {sorted(unknown)}")
        group_of: dict[int, SimulationResult] = {}
        for tenants, channels in _channel_groups(channel_sets):
            # Renumbering would hide a channel the device does not have.
            if not channels <= set(range(config.channels)):
                raise ValueError(f"channels out of range: {sorted(channels)}")
            dense = {ch: i for i, ch in enumerate(sorted(channels))}
            sets = {
                wid: sorted({dense[ch] for ch in channel_sets[wid]}) for wid in tenants
            }
            key = tuple((wid, tuple(sets[wid])) for wid in tenants)
            run = runs.get(key)
            if run is None:
                group = set(tenants)
                run = runs[key] = FastLatencyModel(config, sets, page_modes).run(
                    [r for r in ordered if r.workload_id in group]
                )
            group_of.update(dict.fromkeys(tenants, run))
        # Same (sorted tenant, READ then WRITE) insertion order as ``run``,
        # so the merged read/write totals add up in the same order.
        acc = LatencyAccumulator()
        for wid in sorted(channel_sets):
            pair = group_of[wid].per_workload.get(wid)
            if pair is None:
                continue
            for op, stats in zip((OpType.READ, OpType.WRITE), pair):
                if stats.count:  # copied: results share no mutable stats
                    acc.set_stats(wid, op, dataclasses.replace(stats))
        results.append(
            build_result(
                acc,
                makespan_us=max(
                    (run.makespan_us for run in group_of.values()), default=0.0
                ),
                requests=len(ordered),
                subrequests=subrequests,
            )
        )
    return results


def _channel_groups(
    channel_sets: Mapping[int, Sequence[int]],
) -> list[tuple[list[int], set[int]]]:
    """Tenants grouped by overlapping channel sets: (sorted tenants, channels)."""
    groups: list[tuple[list[int], set[int]]] = []
    for wid in sorted(channel_sets):
        tenants, channels = [wid], set(channel_sets[wid])
        apart = []
        for other_tenants, other_channels in groups:
            if other_channels & channels:
                tenants += other_tenants
                channels |= other_channels
            else:
                apart.append((other_tenants, other_channels))
        groups = apart + [(sorted(tenants), channels)]
    return groups
