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

Every die and channel bus is a :class:`_GapTimeline`.  A run books them by
one of three routes, each bit-identical to one ``place`` call per phase in
sub-request order (see ``FastLatencyModel._timeline_us``): a tail recursion
where ``place`` provably never backfills (a resource whose request times
never decrease; the bus stage of a read-only run while a transfer outlasts
a sense), per-resource gap timelines for any other stage of a run of one op
type, and an interleaved loop for runs mixing reads and writes.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
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
        faults: FaultConfig | None = None,
    ) -> None:
        self.config = config
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
    def run(self, requests: Iterable[IORequest] | np.ndarray) -> SimulationResult:
        """Approximately simulate ``requests`` (or :func:`_trace` rows); same
        result type as the DES."""
        trace = _trace(requests)
        n_req = len(trace)
        req_arrival_us, req_op, req_wid, req_lpn, lengths = (trace[f] for f in _TRACE.names)
        unknown = set(req_wid.tolist()) - set(self.channel_sets)
        if unknown:
            raise KeyError(f"unknown workload ids in trace: {sorted(unknown)}")

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
            plane_idx[mask] = self._static_planes(sub_lpn[mask], channels)
            if self.page_modes[wid] is not PageAllocMode.STATIC:
                writes = mask & (sub_op == int(OpType.WRITE))
                plane_idx[writes] = self._sequence_planes(int(writes.sum()), channels)
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

        return build_result(
            acc,
            makespan_us=float(req_end_us.max(initial=0.0)),
            requests=n_req,
            subrequests=total,
        )

    # ------------------------------------------------------------------
    def _timeline_us(
        self,
        arrival: np.ndarray,
        op: np.ndarray,
        die_idx: np.ndarray,
        chan_idx: np.ndarray,
    ) -> np.ndarray:
        """Resource-timeline pass; returns per-sub-request end.

        Resources are *gap-aware* timelines (:class:`_GapTimeline`): when an
        operation's resource-request time lands inside an idle window left
        behind by an earlier out-of-order grant (a read's bus request fires
        at its die-end, after later-arriving writes already claimed the
        tail), it backfills that window — matching the work-conserving
        behaviour of the event-driven engine instead of cascading phantom
        queueing.

        The result is one ``place`` call per phase in sub-request order
        (``arrival`` is sorted), computed exactly by three routes.  A run of
        one op type books its two stages on disjoint resources, so
        :func:`_stage_us` runs them in turn, taking the tail recursion
        where ``place`` provably never backfills and a gap timeline
        elsewhere.  Write-only runs recurse on both stages (buses see sorted
        arrivals, each die its channel's rising bus ends), read-only runs on
        the die stage, and on the bus stage too while a transfer outlasts a
        sense (``read_bus >= read_die``).  Then a bus gap opens only at a
        read whose die was idle: it asks for the bus at ``arrival +
        read_die``, and no later read asks earlier.  A read whose die
        queued asks ``read_die`` after the previous read on that die did,
        while the bus is still busy with that one.  A run mixing reads and
        writes books each resource in both phases, so it interleaves the
        ``place`` calls.
        """
        t = self.times
        read_die = t.read_die_us
        read_bus = t.read_bus_us
        write_bus = t.write_bus_us
        write_die = t.write_die_us
        if self.fault_expectation is not None:
            read_die *= self.fault_expectation.read_die_multiplier
            write_die *= self.fault_expectation.write_die_multiplier
        writes = op == int(OpType.WRITE)
        if writes.all():
            return _stage_us(_stage_us(arrival, chan_idx, write_bus), die_idx, write_die)
        if not writes.any():
            die_end_us = _stage_us(arrival, die_idx, read_die)
            return _stage_us(die_end_us, chan_idx, read_bus, tail_only=read_bus >= read_die)
        dies = [_GapTimeline() for _ in range(self.config.dies)]
        chans = [_GapTimeline() for _ in range(self.config.channels)]
        ends_us = []
        for a, w, d, c in zip(
            arrival.tolist(), writes.tolist(), die_idx.tolist(), chan_idx.tolist()
        ):
            if w:
                ends_us.append(dies[d].place(chans[c].place(a, write_bus), write_die))
            else:
                ends_us.append(chans[c].place(dies[d].place(a, read_die), read_bus))
        return np.array(ends_us)


def _stage_us(
    request_us: np.ndarray, resource: np.ndarray, dur: float, *, tail_only: bool = False
) -> np.ndarray:
    """End times of one stage, each resource booking its requests in index
    order as a fresh :class:`_GapTimeline` would.

    Where ``place`` never backfills, each end is ``max(rt, tail) + dur``:
    its tail branch, same float operations.  That holds on a resource whose
    request times never decrease (every gap ends at or before the next
    request, and no job with ``dur > 0`` fits), and wherever the caller
    proved it (``tail_only``).
    """
    order = np.argsort(resource, kind="stable")
    cuts = np.flatnonzero(np.diff(resource[order])) + 1
    booked: list[float] = []
    for rts in np.split(request_us[order], cuts):
        rts = rts.tolist()
        if tail_only or rts == sorted(rts):
            tail = 0.0
            booked += [tail := (rt if rt > tail else tail) + dur for rt in rts]
        else:
            place = _GapTimeline().place
            booked += [place(rt, dur) for rt in rts]
    ends_us = np.empty(len(order))
    ends_us[order] = booked
    return ends_us


class _GapTimeline:
    """Single-server busy timeline with idle-gap backfilling.

    ``place(rt, dur)`` books ``dur`` units of service requested at time
    ``rt``: into the earliest remembered idle gap that fits (work
    conservation), else at the tail.  Gaps that end before the request time
    of every future job are pruned lazily — request times never decrease by
    more than the die/bus phase offsets, so a small horizon suffices.

    The gaps are disjoint, longer than 1e-9 and in time order, stored as
    the increasing lists ``starts`` and ``ends``.  None ends after the tail,
    and one ending before ``rt`` cannot hold ``dur >= 0``, so the first-fit
    scan starts at ``bisect_left(ends, rt)``, and only if ``rt < tail``.

    The state (tail, gaps, pruning) depends only on the sequence of
    ``place`` calls made on this one timeline, so a run restricted to the
    tenants that reach it books it identically.
    """

    __slots__ = ("tail", "starts", "ends")

    #: gaps ending this far before a new request are dropped (us); phase
    #: offsets (tR, tPROG) are far below this.
    _PRUNE_HORIZON = 5_000.0

    def __init__(self) -> None:
        self.tail = 0.0
        self.starts: list[float] = []
        self.ends: list[float] = []

    @property
    def gaps(self) -> list[list[float]]:
        """The remembered idle gaps as ``[start, end]`` pairs, oldest first."""
        return [[s, e] for s, e in zip(self.starts, self.ends)]

    def place(self, rt: float, dur: float) -> float:
        """Book service requested at ``rt`` for ``dur``; return its end."""
        starts = self.starts
        ends = self.ends
        tail = self.tail
        if ends:
            prune_before = rt - self._PRUNE_HORIZON
            if ends[0] <= prune_before:
                k = bisect_right(ends, prune_before)
                del starts[:k], ends[:k]
            if rt < tail:
                for gi in range(bisect_left(ends, rt), len(ends)):
                    gap_start = starts[gi]
                    gap_end = ends[gi]
                    start = rt if rt > gap_start else gap_start
                    if gap_end - start >= dur:
                        end = start + dur
                        if start - gap_start > 1e-9:
                            # keep the head of the gap; tail shrinks/splits
                            ends[gi] = start
                            if gap_end - end > 1e-9:
                                starts.insert(gi + 1, end)
                                ends.insert(gi + 1, gap_end)
                        else:
                            starts[gi] = end
                            if gap_end - end <= 1e-9:
                                del starts[gi], ends[gi]
                        return end
        if rt > tail:
            if rt - tail > 1e-9:
                starts.append(tail)
                ends.append(rt)
                if len(ends) > 32:
                    del starts[0], ends[0]  # bound the memory; oldest gaps matter least
            end = rt + dur
        else:
            end = tail + dur
        self.tail = end
        return end


#: the fast model's trace: one row per request
_TRACE = np.dtype([("arrival_us", np.float64), ("op", np.int8), ("wid", np.int64),
                   ("lpn", np.int64), ("length", np.int64)])


def _trace(requests: Iterable[IORequest] | np.ndarray) -> np.ndarray:
    """Requests as :data:`_TRACE` rows, stably sorted by arrival; rows that
    already are (a slice of) such a trace are returned as they are."""
    if isinstance(requests, np.ndarray) and requests.dtype == _TRACE:
        return requests
    rows = np.array([(r.arrival_us, int(r.op), r.workload_id, r.lpn, r.length)
                     for r in requests], dtype=_TRACE)
    return rows[np.argsort(rows["arrival_us"], kind="stable")]


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
    faults: FaultConfig | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`FastLatencyModel`."""
    model = FastLatencyModel(
        config, channel_sets, page_modes, record_latencies=record_latencies,
        faults=faults,
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
    group runs once, on its own tenants' rows of the trace (converted and
    sorted once), and each strategy is assembled from its groups.
    """
    trace = _trace(requests)
    present = set(trace["wid"].tolist())
    subrequests = int(trace["length"].sum())
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
                run = runs[key] = FastLatencyModel(config, sets, page_modes).run(
                    trace[np.logical_or.reduce([trace["wid"] == w for w in tenants])]
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
                requests=len(trace),
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
