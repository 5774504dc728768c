"""Metamorphic properties of the event engine over generated traces.

Scaling time: multiply every arrival and every flash/command latency by 2
and halve the bus bandwidth (which doubles the page transfer).  Doubling is
exact in binary floating point, so every sum, max and difference the
engine forms doubles bit for bit, and every comparison it makes comes out
the same: the scaled run is the original run with its clock doubled.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Sanitizer
from repro.ssd import IORequest, OpType, PageAllocMode, SSDConfig, simulate
from repro.workloads.mixer import synthesize_mix
from repro.workloads.spec import WorkloadSpec

#: two 2-plane channels of 4 x 4-page blocks, so a short overwrite trace
#: collects garbage
DEVICE = SSDConfig(
    channels=2, chips_per_channel=1, planes_per_die=2,
    blocks_per_plane=4, pages_per_block=4,
)
#: distinct pages per tenant: half a plane, so GC always has a victim
FOOTPRINT = 8


def _doubled(config: SSDConfig) -> SSDConfig:
    return replace(
        config,
        read_latency_us=2 * config.read_latency_us,
        write_latency_us=2 * config.write_latency_us,
        erase_latency_us=2 * config.erase_latency_us,
        command_overhead_us=2 * config.command_overhead_us,
        channel_bandwidth_mbps=config.channel_bandwidth_mbps / 2,
    )


_request = st.tuples(
    st.floats(0.0, 20_000.0, allow_nan=False),
    st.integers(0, 1),
    st.sampled_from([OpType.READ, OpType.WRITE, OpType.WRITE]),
    st.integers(0, FOOTPRINT - 4),
    st.integers(1, 4),
)


def _trace(rows, scale=1.0):
    return [
        IORequest(arrival_us=scale * t, workload_id=wid, op=op, lpn=lpn, length=n)
        for t, wid, op, lpn, n in rows
    ]


def _run(rows, config, sets, modes, scale):
    sanitizer = Sanitizer()
    result = simulate(_trace(rows, scale), config, sets, modes, obs=sanitizer)
    assert sanitizer.events_checked == result.events
    return result


def _op_stats(result):
    """Aggregate read and write stats, then each tenant's (read, write)."""
    stats = [result.read, result.write]
    for wid in sorted(result.per_workload):
        stats.extend(result.per_workload[wid])
    return stats


def _timings(result):
    per_op = [
        (s.total_us, s.min_us, s.max_us) for s in _op_stats(result) if s.count
    ]
    return (
        result.makespan_us, result.die_wait_us, result.channel_wait_us,
        *(x for op in per_op for x in op),
    )


def _counts(result):
    return (
        result.events, result.requests, result.subrequests,
        result.gc_collections, result.gc_pages_moved,
        *(s.count for s in _op_stats(result)),
    )


class TestTimeScaling:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(_request, min_size=30, max_size=160),
        sets=st.sampled_from([{0: [0], 1: [1]}, {0: [0, 1], 1: [1]}]),
        mode=st.sampled_from(list(PageAllocMode)),
    )
    def test_doubling_every_time_doubles_every_timing(self, rows, sets, mode):
        modes = {0: mode, 1: PageAllocMode.DYNAMIC}
        base = _run(rows, DEVICE, sets, modes, 1.0)
        scaled = _run(rows, _doubled(DEVICE), sets, modes, 2.0)
        assert _counts(scaled) == _counts(base)
        assert _timings(scaled) == tuple(2 * x for x in _timings(base))

    def test_doubling_holds_under_steady_garbage_collection(self):
        """4,000 requests of two writers overwriting 190-page footprints."""
        device = SSDConfig(blocks_per_plane=4, pages_per_block=16)
        specs = [
            WorkloadSpec(
                name=name, write_ratio=share, rate_rps=1500.0,
                mean_request_pages=2.0, sequential_fraction=0.3, skew=0.5,
                footprint_pages=190,
            )
            for name, share in (("writer-a", 0.95), ("writer-b", 0.85))
        ]
        requests = synthesize_mix(specs, total_requests=4000, seed=1).requests
        rows = [
            (r.arrival_us, r.workload_id, r.op, r.lpn, r.length) for r in requests
        ]
        sets = {0: [0], 1: [1]}
        modes = {0: PageAllocMode.STATIC, 1: PageAllocMode.DYNAMIC}
        base = _run(rows, device, sets, modes, 1.0)
        scaled = _run(rows, _doubled(device), sets, modes, 2.0)
        assert base.gc_collections > 0
        assert _counts(scaled) == _counts(base)
        assert _timings(scaled) == tuple(2 * x for x in _timings(base))
