"""Event-driven simulator: exact latencies, conflicts, GC, disciplines."""

import pytest

from repro.ssd import IORequest, OpType, Probe, ServiceTimes, SSDSimulator, simulate


def shared_sets(n_tenants=1, channels=8):
    return {w: list(range(channels)) for w in range(n_tenants)}


def read(t, lpn, wid=0, length=1):
    return IORequest(arrival_us=t, workload_id=wid, op=OpType.READ, lpn=lpn, length=length)


def write(t, lpn, wid=0, length=1):
    return IORequest(arrival_us=t, workload_id=wid, op=OpType.WRITE, lpn=lpn, length=length)


class TestSingleOperations:
    def test_single_read_latency_is_unloaded_service_time(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = simulate([read(0.0, 0)], small_config, shared_sets())
        assert result.read.mean_us == pytest.approx(t.read_service_us)
        assert result.requests == 1
        assert result.subrequests == 1

    def test_single_write_latency_is_unloaded_service_time(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = simulate([write(0.0, 0)], small_config, shared_sets())
        assert result.write.mean_us == pytest.approx(t.write_service_us)

    def test_multi_page_read_on_idle_device_parallelises(self, small_config):
        t = ServiceTimes.from_config(small_config)
        # 4 consecutive pages stripe to 4 channels: same latency as 1 page.
        result = simulate([read(0.0, 0, length=4)], small_config, shared_sets())
        assert result.read.mean_us == pytest.approx(t.read_service_us)
        assert result.subrequests == 4

    def test_request_completion_time_recorded(self, small_config):
        req = read(10.0, 0)
        simulate([req], small_config, shared_sets())
        assert req.complete_us > 10.0
        assert req.latency_us > 0


class TestConflicts:
    def test_same_die_reads_serialise(self, small_config):
        t = ServiceTimes.from_config(small_config)
        # Same LPN -> same die; second read waits for the first die phase.
        result = simulate(
            [read(0.0, 0), read(0.0, 0)], small_config, shared_sets(),
        )
        assert result.read.max_us > t.read_service_us
        assert result.die_wait_us > 0 or result.channel_wait_us > 0

    def test_different_channels_do_not_conflict(self, small_config):
        t = ServiceTimes.from_config(small_config)
        # LPN 0 and 1 stripe to different channels.
        result = simulate(
            [read(0.0, 0), read(0.0, 1)], small_config, shared_sets(),
        )
        assert result.read.max_us == pytest.approx(t.read_service_us)

    def test_read_behind_write_fifo_waits_for_program(self, small_config):
        t = ServiceTimes.from_config(small_config)
        result = simulate(
            [write(0.0, 0), read(1.0, 0)], small_config, shared_sets(),
        )
        # The read targets the same die mid-program: it waits.
        assert result.read.mean_us > t.read_service_us

    def test_isolated_tenants_do_not_interfere(self, small_config):
        t = ServiceTimes.from_config(small_config)
        sets = {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
        # Tenant 0 hammers its channels; tenant 1's single read stays clean.
        reqs = [write(0.0, i, wid=0) for i in range(16)] + [read(0.5, 0, wid=1)]
        result = simulate(reqs, small_config, sets)
        assert result.per_workload[1][0].mean_us == pytest.approx(t.read_service_us)

    def test_shared_tenants_do_interfere(self, small_config):
        t = ServiceTimes.from_config(small_config)
        reqs = [write(0.0, i, wid=0) for i in range(64)] + [read(0.5, 0, wid=1)]
        result = simulate(reqs, small_config, shared_sets(2))
        assert result.per_workload[1][0].mean_us > t.read_service_us


class TestDisciplines:
    def test_read_priority_improves_reads_under_write_load(self, small_config):
        reqs = lambda: [write(0.0, i, wid=0) for i in range(64)] + [
            read(10.0, i, wid=1) for i in range(16)
        ]
        fifo = SSDSimulator(small_config, shared_sets(2)).run(reqs())
        prio = SSDSimulator(small_config, shared_sets(2), read_priority=True).run(reqs())
        assert prio.read.mean_us < fifo.read.mean_us

    def test_dynamic_mode_avoids_busy_dies(self, small_config):
        from repro.ssd import PageAllocMode

        # All writes to the same LPN region: static hits one die repeatedly,
        # dynamic spreads to idle dies.
        reqs = lambda: [write(float(i) * 0.1, 0, wid=0) for i in range(32)]
        static = simulate(
            reqs(), small_config, shared_sets(), {0: PageAllocMode.STATIC}
        )
        dynamic = simulate(
            reqs(), small_config, shared_sets(), {0: PageAllocMode.DYNAMIC}
        )
        assert dynamic.write.mean_us < static.write.mean_us


class TestGarbageCollection:
    def test_gc_triggers_under_overwrite_pressure(self, tiny_config):
        # Tiny planes: sustained overwrites of a small working set force GC.
        reqs = [write(float(i), i % 64, wid=0) for i in range(2000)]
        result = simulate(reqs, tiny_config, shared_sets(channels=8))
        assert result.gc_collections > 0
        assert result.requests == 2000

    def test_gc_work_charged_to_latency(self, tiny_config):
        light = simulate(
            [write(float(i) * 1000, i % 64) for i in range(100)],
            tiny_config,
            shared_sets(),
        )
        assert light.gc_collections == 0


class TestResultIntegrity:
    def test_all_requests_complete(self, small_config, rng):
        reqs = [
            IORequest(
                arrival_us=float(rng.integers(0, 1000)),
                workload_id=int(rng.integers(0, 2)),
                op=OpType(int(rng.integers(0, 2))),
                lpn=int(rng.integers(0, 512)),
                length=int(rng.integers(1, 5)),
            )
            for _ in range(300)
        ]
        result = simulate(reqs, small_config, shared_sets(2))
        assert result.requests == 300
        assert result.read.count + result.write.count == 300
        assert result.subrequests == sum(r.length for r in reqs)
        assert result.makespan_us >= max(r.arrival_us for r in reqs)

    def test_unsorted_input_accepted(self, small_config):
        reqs = [read(5.0, 0), read(1.0, 1), read(3.0, 2)]
        result = simulate(reqs, small_config, shared_sets())
        assert result.requests == 3

    def test_on_submit_hook_sees_every_request(self, small_config):
        seen = []

        class Submits(Probe):
            def on_submit(self, req, now_us):
                seen.append(req)

        sim = SSDSimulator(small_config, shared_sets(), obs=Submits())
        reqs = [read(float(i), i) for i in range(10)]
        sim.run(reqs)
        assert len(seen) == 10
        assert [r.arrival_us for r in seen] == sorted(r.arrival_us for r in reqs)

    def test_latency_recording(self, small_config):
        result = simulate(
            [read(0.0, i) for i in range(10)],
            small_config,
            shared_sets(),
            record_latencies=True,
        )
        assert result.read.samples is not None
        assert len(result.read.samples) == 10
        assert result.read.percentile(50) > 0
