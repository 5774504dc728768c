"""Fault model: config validation, injector determinism, block retirement."""

import pytest

from repro.ssd import SSDConfig
from repro.ssd.faults import FaultConfig, FaultExpectation, FaultInjector, FaultWorkItem
from repro.ssd.ftl.gc import GarbageCollector, GCWorkItem
from repro.ssd.ftl.mapping import FlashArrayState
from repro.ssd.timing import ServiceTimes


def make_state(blocks=8, pages=4) -> FlashArrayState:
    return FlashArrayState(
        SSDConfig(
            channels=2,
            chips_per_channel=1,
            dies_per_chip=1,
            planes_per_die=1,
            blocks_per_plane=blocks,
            pages_per_block=pages,
            gc_threshold=0.25,
            gc_restore=0.4,
        )
    )


class TestFaultConfig:
    def test_defaults_are_disabled(self):
        cfg = FaultConfig()
        assert not cfg.any_enabled

    def test_any_enabled(self):
        assert FaultConfig(read_ber=0.1).any_enabled
        assert FaultConfig(program_fail_rate=0.1).any_enabled
        assert FaultConfig(erase_fail_rate=0.1).any_enabled

    @pytest.mark.parametrize(
        "field", ["read_ber", "program_fail_rate", "erase_fail_rate"]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rejects_bad_probabilities(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: value})

    def test_rejects_negative_retries_and_coupling(self):
        with pytest.raises(ValueError):
            FaultConfig(max_read_retries=-1)
        with pytest.raises(ValueError):
            FaultConfig(wear_coupling=-0.5)

    def test_expected_read_retries_geometric_sum(self):
        cfg = FaultConfig(read_ber=0.5, max_read_retries=3)
        assert cfg.expected_read_retries() == pytest.approx(0.5 + 0.25 + 0.125)
        assert FaultConfig(read_ber=0.0).expected_read_retries() == 0.0


class TestFaultInjector:
    def test_same_seed_same_draw_sequence(self):
        a = FaultInjector(FaultConfig(seed=7, read_ber=0.3, program_fail_rate=0.2))
        b = FaultInjector(FaultConfig(seed=7, read_ber=0.3, program_fail_rate=0.2))
        seq_a = [
            (a.read_outcome(0, i), a.program_fails(1, i)) for i in range(200)
        ]
        seq_b = [
            (b.read_outcome(0, i), b.program_fails(1, i)) for i in range(200)
        ]
        assert seq_a == seq_b
        assert a.summary() == b.summary()

    def test_different_seed_diverges(self):
        a = FaultInjector(FaultConfig(seed=1, read_ber=0.3))
        b = FaultInjector(FaultConfig(seed=2, read_ber=0.3))
        seq_a = [a.read_outcome(0, 0) for _ in range(200)]
        seq_b = [b.read_outcome(0, 0) for _ in range(200)]
        assert seq_a != seq_b

    def test_zero_rates_never_fail(self):
        inj = FaultInjector(FaultConfig())
        for i in range(50):
            out = inj.read_outcome(0, i)
            assert out.retries == 0 and not out.unrecoverable
            assert not inj.program_fails(0, i)
            assert not inj.erase_fails(0, i)
        assert inj.read_errors == inj.program_failures == inj.erase_failures == 0

    def test_wear_escalation_is_monotonic_and_clamped(self):
        inj = FaultInjector(FaultConfig(read_ber=0.01, wear_coupling=0.5))
        rates = [inj.effective_rate(0.01, n) for n in (0, 1, 10, 100, 10**6)]
        assert rates == sorted(rates)
        assert rates[0] == pytest.approx(0.01)
        assert rates[-1] < 1.0  # clamped below certainty

    def test_certain_error_exhausts_retries_unrecoverably(self):
        inj = FaultInjector(FaultConfig(read_ber=1.0, max_read_retries=3))
        out = inj.read_outcome(0, 0)
        assert out.retries == 3
        assert out.unrecoverable
        assert inj.unrecoverable_reads == 1
        assert inj.read_retries == 3

    def test_channel_health_tracks_errors(self):
        inj = FaultInjector(FaultConfig(program_fail_rate=1.0))
        assert inj.program_fails(3, 0)
        assert not FaultInjector(FaultConfig()).program_fails(3, 0)
        assert inj.channel_error_rate(3) == 1.0
        assert inj.channel_error_rate(0) == 0.0
        assert inj.worst_channel() == (3, 1.0)

    def test_summary_and_publish_mirror_counters(self):
        from repro.obs import MetricsRegistry

        inj = FaultInjector(FaultConfig(read_ber=1.0, max_read_retries=1))
        inj.read_outcome(0, 0)
        inj.note_retirement(64)
        summary = inj.summary()
        assert summary["retired_blocks"] == 1
        assert summary["lost_pages"] == 64
        reg = MetricsRegistry()
        inj.publish(reg)
        counters = reg.snapshot()["counters"]
        for key, value in summary.items():
            assert counters[f"faults.{key}"] == value


class TestRetirementAccounting:
    def test_retire_free_block_removes_capacity(self):
        state = make_state()
        plane = state.planes[0]
        before = plane.usable_pages
        free_before = plane.free_blocks
        plane.retire_free_block(2)  # fresh plane: blocks 1..7 are free
        assert plane.usable_pages == before - plane.pages_per_block
        assert plane.free_blocks == free_before - 1
        assert 2 in plane.bad_blocks
        with pytest.raises(ValueError):
            plane.retire_free_block(plane.active_block)  # not in the pool
        plane.check_invariants()

    def test_begin_retire_active_then_retire_block(self):
        state = make_state()
        plane = state.planes[0]
        state.write(0, plane)
        state.write(1, plane)
        failed = plane.active_block
        programmed = plane.next_page
        assert programmed == 2
        pulled = plane.begin_retire_active()
        assert pulled == failed
        assert plane.active_block != failed
        # Relocate the two valid pages, then retire.
        for ppn in plane.pages_in_block(failed):
            lpn = state.mapping.reverse(ppn)
            if lpn is None:
                continue
            state.mapping.unbind_ppn(ppn)
            plane.invalidate(ppn)
            state.mapping.bind(lpn, plane.allocate_page())
        plane.retire_block(failed, programmed_pages=programmed)
        # The whole block's capacity is gone, data survived elsewhere.
        assert plane.retired_pages == plane.pages_per_block
        assert state.mapping.lookup(0) is not None
        assert state.mapping.lookup(1) is not None
        plane.check_invariants()

    def test_retire_block_rejects_active_and_valid_blocks(self):
        state = make_state()
        plane = state.planes[0]
        with pytest.raises(ValueError, match="active"):
            plane.retire_block(plane.active_block)
        state.write(0, plane)
        failed = plane.begin_retire_active()
        with pytest.raises(ValueError, match="valid"):
            plane.retire_block(failed)

    def test_begin_retire_active_requires_a_spare(self):
        state = make_state(blocks=2)
        plane = state.planes[0]
        plane.begin_retire_active()  # consumes the only spare
        with pytest.raises(RuntimeError, match="spare"):
            plane.begin_retire_active()

    def test_device_wide_counters(self):
        state = make_state()
        plane = state.planes[0]
        total = state.usable_pages()
        plane.retire_free_block(3)
        assert state.retired_blocks() == 1
        assert state.usable_pages() == total - plane.pages_per_block


class TestEraseFailureRetirement:
    def _gc_pressure(self, state, plane):
        """Overwrite a working set until GC must run."""
        for lpn in range(12):
            state.write(lpn, plane)
        for lpn in range(12):
            state.write(lpn, plane)

    def test_failed_erase_retires_instead_of_freeing(self):
        state = make_state()
        plane = state.planes[0]
        inj = FaultInjector(FaultConfig(erase_fail_rate=1.0))
        gc = GarbageCollector(state, faults=inj)
        self._gc_pressure(state, plane)
        items = gc.collect(plane)
        assert items and all(item.retired for item in items)
        assert gc.collections == 0  # no successful erases
        assert plane.bad_blocks == {item.block for item in items}
        assert inj.retired_blocks == len(items)
        assert inj.lost_pages == len(items) * plane.pages_per_block
        plane.check_invariants()
        # Logical data survived the moves.
        for lpn in range(12):
            assert state.mapping.lookup(lpn) is not None

    def test_successful_erase_unchanged_under_zero_rate(self):
        state = make_state()
        plane = state.planes[0]
        gc = GarbageCollector(state, faults=FaultInjector(FaultConfig()))
        self._gc_pressure(state, plane)
        items = gc.collect(plane)
        assert items and not any(item.retired for item in items)
        assert gc.collections == len(items)
        assert not plane.bad_blocks

    def test_retired_victim_never_reselected(self):
        state = make_state()
        plane = state.planes[0]
        inj = FaultInjector(FaultConfig(erase_fail_rate=1.0))
        gc = GarbageCollector(state, faults=inj)
        self._gc_pressure(state, plane)
        retired = {item.block for item in gc.collect(plane)}
        assert retired
        victim = gc.pick_victim(plane)
        assert victim not in retired
        assert not (retired & plane.sealed_blocks())


class TestShrunkPlaneGC:
    def test_collect_stops_when_victim_does_not_fit(self):
        """Copying a victim with more valid pages than the plane has free
        would run out of room midway: GC leaves the plane untouched."""
        state = make_state(blocks=4, pages=4)
        plane = state.planes[0]
        for lpn in (*range(12), 0, 12, 13):  # one overwrite, two new pages
            state.write(lpn, plane)
        gc = GarbageCollector(state)
        victim = gc.pick_victim(plane)
        assert plane.valid_count[victim] == 3 > plane.free_pages == 1
        assert gc.collect(plane) == []
        assert plane.free_pages == 1 and gc.pages_moved == 0
        plane.check_invariants()


class TestWorkItemTiming:
    def test_die_us_duck_typing(self, small_config):
        t = ServiceTimes.from_config(small_config)
        gc_item = GCWorkItem(plane_index=0, block=1, moves=3)
        fw_item = FaultWorkItem(plane_index=0, block=1, moves=3)
        assert gc_item.die_us(t) == pytest.approx(3 * t.move_die_us + t.erase_us)
        assert fw_item.die_us(t) == pytest.approx(3 * t.move_die_us + t.write_die_us)

    def test_read_die_with_retries_us(self, small_config):
        t = ServiceTimes.from_config(small_config)
        assert t.read_die_with_retries_us(0) == t.read_die_us
        assert t.read_die_with_retries_us(2) == pytest.approx(3 * t.read_die_us)
        with pytest.raises(ValueError):
            t.read_die_with_retries_us(-1)


class TestFaultExpectation:
    def test_from_config_multipliers(self):
        cfg = FaultConfig(read_ber=0.5, program_fail_rate=0.1, max_read_retries=2)
        exp = FaultExpectation.from_config(cfg)
        assert exp.read_die_multiplier == pytest.approx(1.0 + 0.5 + 0.25)
        assert exp.write_die_multiplier == pytest.approx(1.1)

    def test_disabled_config_is_identity(self):
        exp = FaultExpectation.from_config(FaultConfig())
        assert exp.read_die_multiplier == 1.0
        assert exp.write_die_multiplier == 1.0
