"""Fast timeline model: exactness on simple cases, DES agreement."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.hybrid import PagePolicy, page_modes_for
from repro.core.strategies import StrategySpace
from repro.ssd import (
    FastLatencyModel,
    FaultConfig,
    IORequest,
    OpType,
    PageAllocMode,
    ServiceTimes,
    SSDConfig,
    fast_simulate,
    fast_sweep,
    simulate,
)


def shared_sets(n=1, channels=8):
    return {w: list(range(channels)) for w in range(n)}


def read(t, lpn, wid=0, length=1):
    return IORequest(arrival_us=t, workload_id=wid, op=OpType.READ, lpn=lpn, length=length)


def write(t, lpn, wid=0, length=1):
    return IORequest(arrival_us=t, workload_id=wid, op=OpType.WRITE, lpn=lpn, length=length)


class TestExactCases:
    def test_single_read(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = fast_simulate([read(0.0, 0)], small_config, shared_sets())
        assert result.read.mean_us == pytest.approx(t.read_service_us)

    def test_single_write(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = fast_simulate([write(0.0, 0)], small_config, shared_sets())
        assert result.write.mean_us == pytest.approx(t.write_service_us)

    def test_same_die_serialisation(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = fast_simulate([read(0.0, 0), read(0.0, 0)], small_config, shared_sets())
        assert result.read.max_us > t.read_service_us

    def test_empty_trace(self, small_config):
        result = fast_simulate([], small_config, shared_sets())
        assert result.requests == 0
        assert result.total_latency_us == 0.0

    def test_unknown_workload_rejected(self, small_config):
        with pytest.raises(KeyError):
            fast_simulate([read(0.0, 0, wid=5)], small_config, shared_sets(1))


class TestDESAgreement:
    """The fast model must track the exact engine closely on light loads
    and preserve ordering on heavy loads (its job is ranking strategies)."""

    def _trace(self, rng, n=400, wids=2):
        return [
            IORequest(
                arrival_us=float(rng.uniform(0, 20_000)),
                workload_id=int(rng.integers(0, wids)),
                op=OpType(int(rng.integers(0, 2))),
                lpn=int(rng.integers(0, 2048)),
                length=int(rng.integers(1, 4)),
            )
            for _ in range(n)
        ]

    def test_total_latency_exact_on_light_load(self, small_config, rng):
        # Light load: queueing reorders nothing, the models should coincide.
        reqs = [
            IORequest(
                arrival_us=float(i) * 2_000,
                workload_id=int(rng.integers(0, 2)),
                op=OpType(int(rng.integers(0, 2))),
                lpn=int(rng.integers(0, 2048)),
                length=int(rng.integers(1, 4)),
            )
            for i in range(100)
        ]
        exact = simulate(list(reqs), small_config, shared_sets(2))
        approx = fast_simulate(list(reqs), small_config, shared_sets(2))
        assert approx.total_latency_us == pytest.approx(
            exact.total_latency_us, rel=0.01
        )

    def test_total_latency_close_on_moderate_load(self, small_config, rng):
        # Under queueing the disciplines differ (arrival-order timeline vs
        # phase-order grants), so only coarse agreement is required here;
        # ranking fidelity is covered below and by the fidelity ablation.
        reqs = self._trace(rng)
        exact = simulate(list(reqs), small_config, shared_sets(2))
        approx = fast_simulate(list(reqs), small_config, shared_sets(2))
        assert approx.total_latency_us == pytest.approx(
            exact.total_latency_us, rel=0.5
        )
        assert approx.requests == exact.requests
        assert approx.subrequests == exact.subrequests

    def test_preserves_allocation_ordering(self, small_config, rng):
        """If the DES says isolation beats sharing for a mix, so must the
        fast model (and vice versa)."""
        # Write-heavy tenant 0 + read-only tenant 1, strongly interfering.
        reqs = [write(float(i) * 12, i % 256, wid=0) for i in range(600)] + [
            read(float(i) * 35, i % 1024, wid=1) for i in range(200)
        ]
        shared = shared_sets(2)
        isolated = {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
        exact_gap = (
            simulate(list(reqs), small_config, shared).total_latency_us
            - simulate(list(reqs), small_config, isolated).total_latency_us
        )
        fast_gap = (
            fast_simulate(list(reqs), small_config, shared).total_latency_us
            - fast_simulate(list(reqs), small_config, isolated).total_latency_us
        )
        assert (exact_gap > 0) == (fast_gap > 0)


class TestPlacementModes:
    def test_reads_follow_static_stripes(self, small_config):
        # Consecutive-page read parallelises exactly like the DES.
        t = ServiceTimes.from_config(small_config)
        result = fast_simulate([read(0.0, 0, length=4)], small_config, shared_sets())
        assert result.read.mean_us == pytest.approx(t.read_service_us)

    def test_dynamic_mode_spreads_colocated_writes(self, small_config):
        from repro.ssd import PageAllocMode

        reqs = lambda: [write(float(i) * 0.1, 0) for i in range(32)]
        static = fast_simulate(
            reqs(), small_config, shared_sets(), {0: PageAllocMode.STATIC}
        )
        dynamic = fast_simulate(
            reqs(), small_config, shared_sets(), {0: PageAllocMode.DYNAMIC}
        )
        assert dynamic.write.mean_us < static.write.mean_us

    def test_channel_restriction_respected(self, small_config):
        # A one-channel tenant serialises on that channel's dies.
        t = ServiceTimes.from_config(small_config)
        sets = {0: [3]}
        result = fast_simulate(
            [write(0.0, i) for i in range(8)], small_config, sets
        )
        assert result.write.max_us > t.write_service_us


class TestFastSweep:
    """``fast_sweep`` equals one ``fast_simulate`` per strategy, bit for bit."""

    SPACE = StrategySpace(8, 4)

    @staticmethod
    def mix(seed, writers, counts):
        """Per-tenant streams on a 10 us arrival grid (so arrivals tie)."""
        rng = np.random.default_rng(seed)
        reqs = []
        for wid, (writer, count) in enumerate(zip(writers, counts)):
            for _ in range(count):
                is_write = rng.random() < (0.9 if writer else 0.1)
                reqs.append(
                    IORequest(
                        arrival_us=float(rng.integers(0, 300)) * 10.0,
                        workload_id=wid,
                        op=OpType.WRITE if is_write else OpType.READ,
                        lpn=int(rng.integers(0, 4096)),
                        length=int(rng.integers(1, 5)),
                    )
                )
        return reqs

    def assert_matches_per_strategy(self, config, reqs, writers):
        sets = [s.channel_sets(8, writers) for s in self.SPACE]
        characteristics = [0 if w else 1 for w in writers]
        for policy in PagePolicy:
            modes = page_modes_for(policy, characteristics)
            swept = fast_sweep(reqs, config, sets, modes)
            assert len(swept) == len(sets)
            for strategy, channel_sets, got in zip(self.SPACE, sets, swept):
                want = fast_simulate(reqs, config, channel_sets, modes)
                assert got == want, (policy, strategy.label)

    @given(
        seed=st.integers(0, 2**16),
        writers=st.lists(st.booleans(), min_size=4, max_size=4),
        counts=st.lists(st.integers(0, 50), min_size=4, max_size=4),
    )
    @settings(max_examples=20, derandomize=True)
    def test_equals_fast_simulate_per_strategy(self, seed, writers, counts):
        reqs = self.mix(seed, writers, counts)
        self.assert_matches_per_strategy(SSDConfig.small(), reqs, writers)

    def test_all_read_dominated(self, small_config):
        # The two-part splits put every tenant in the read group.
        writers = [False] * 4
        reqs = self.mix(7, writers, [40, 30, 20, 10])
        self.assert_matches_per_strategy(small_config, reqs, writers)

    def test_tenant_without_requests(self, small_config):
        writers = [True, False, True, False]
        reqs = self.mix(11, writers, [40, 0, 30, 20])
        self.assert_matches_per_strategy(small_config, reqs, writers)

    def test_empty_trace(self, small_config):
        self.assert_matches_per_strategy(small_config, [], [True, False, True, False])

    def test_unknown_workload_rejected(self, small_config):
        sets = [s.channel_sets(8, [True, False, True, False]) for s in self.SPACE]
        with pytest.raises(KeyError):
            fast_sweep([read(0.0, 0, wid=5)], small_config, sets)

    def test_out_of_range_channel_rejected(self, small_config):
        with pytest.raises(ValueError):
            fast_sweep([read(0.0, 0)], small_config, [{0: [8]}])

    def test_runs_each_distinct_channel_group_once(self, small_config, monkeypatch):
        runs = []
        original = FastLatencyModel.run

        def counting_run(model, requests):
            runs.append(dict(model.channel_sets))
            return original(model, requests)

        monkeypatch.setattr(FastLatencyModel, "run", counting_run)
        writers = [True, False, True, False]
        sets = [s.channel_sets(8, writers) for s in self.SPACE]
        fast_sweep(self.mix(3, writers, [20, 20, 20, 20]), small_config, sets)
        # Shared (1) + each tenant alone on 1..5 channels (20, Isolated's
        # 2-channel slices among them) + the writer pair and the reader
        # pair on each two-part split's 6 widths (12).
        assert len(runs) == 33
        assert all(
            min(chs) == 0 for sets in runs for chs in sets.values() if len(sets) == 1
        )


class TestPinnedResults:
    """Exact results on fixed traces; any change to the timeline's float
    arithmetic, however small, shows here."""

    SETS = {0: [0, 1, 2, 3, 4], 1: [3, 4, 5, 6, 7]}
    #: (read total, read max, write total, write max, makespan) in us
    PINNED = {
        ("write", "static", "clean"): (
            0.0, 0.0, 829698.3216595706,
            5084.573864986814, 35006.18625961637,
        ),
        ("write", "dynamic", "clean"): (
            0.0, 0.0, 468197.20375075086,
            2975.6633765034385, 32878.43546956959,
        ),
        ("write", "static", "faults"): (
            0.0, 0.0, 873239.7722313199,
            5286.573864986814, 35210.18625961637,
        ),
        ("read", "static", "clean"): (
            46202.48546194534, 199.45916784211295, 0.0,
            0.0, 30057.382528007463,
        ),
        ("read", "dynamic", "clean"): (
            46202.48546194534, 199.45916784211295, 0.0,
            0.0, 30057.382528007463,
        ),
        ("read", "static", "faults"): (
            46840.30046194514, 200.52219284211242, 0.0,
            0.0, 30058.445553007463,
        ),
        ("mixed", "static", "clean"): (
            62259.272705337615, 950.2826265208023, 122931.22002142842,
            1087.9155976283218, 30990.68769069447,
        ),
        ("mixed", "dynamic", "clean"): (
            50931.41385838005, 1031.2727341255195, 109690.52788189006,
            1036.193697582199, 31000.125790648348,
        ),
        ("mixed", "static", "faults"): (
            63422.58413458144, 982.6607765207991, 124778.57507231111,
            1118.3594279809658, 31016.68769069447,
        ),
        ("mixed", "dynamic", "faults"): (
            51774.17364521545, 940.2862575952895, 110067.7918500962,
            944.1441960519696, 30909.139314118118,
        ),
    }

    @staticmethod
    def trace(kind):
        """600 requests of two tenants in 30 ms: reads, writes or both."""
        rng = np.random.default_rng(20200525)
        ops = {"write": (OpType.WRITE,) * 2, "read": (OpType.READ,) * 2,
               "mixed": (OpType.WRITE, OpType.READ)}[kind]
        return [
            IORequest(
                arrival_us=float(rng.uniform(0, 30_000)),
                workload_id=wid,
                op=ops[wid],
                lpn=int(rng.integers(0, 8192)),
                length=int(rng.integers(1, 5)),
            )
            for wid in (0, 1)
            for _ in range(300)
        ]

    @pytest.mark.parametrize("case", list(PINNED), ids="-".join)
    def test_fast_simulate_is_pinned(self, case):
        kind, mode, faults = case
        modes = dict.fromkeys(self.SETS, PageAllocMode[mode.upper()])
        faults = FaultConfig(read_ber=0.05, program_fail_rate=0.01) if faults == "faults" else None
        result = fast_simulate(self.trace(kind), SSDConfig.small(), self.SETS, modes,
                               faults=faults)
        got = (result.read.total_us, result.read.max_us, result.write.total_us,
               result.write.max_us, result.makespan_us)
        assert got == self.PINNED[case]
