"""End-to-end latency attribution on seeded GC-heavy, fault-injected runs.

The acceptance contract for the attribution subsystem:

* **exact sum** — on a seeded two-tenant run with GC pressure and fault
  injection, every recorded request's phases sum to its recorded latency
  within 1e-6 us;
* **zero perturbation** — the attribution-enabled run's latency summary
  is byte-identical to a disabled run's (the collector schedules no
  events and draws no randomness);
* the same identity holds when validated through the runtime sanitizer.
"""

import pytest

from repro.analysis import Sanitizer
from repro.obs import DRAM_CHANNEL, PHASE_NAMES, Observability
from repro.ssd import FaultConfig, SSDConfig, probes, simulate
from repro.ssd.buffer import BufferConfig
from repro.ssd.simulator import SSDSimulator
from repro.workloads import WorkloadSpec, synthesize_mix

TOLERANCE_US = 1e-6


def gc_fault_scenario():
    """Tiny device + near-capacity footprints: GC and ECC retries fire."""
    config = SSDConfig(blocks_per_plane=6, pages_per_block=16)
    specs = [
        WorkloadSpec(name="writer", write_ratio=0.9, rate_rps=4000.0,
                     footprint_pages=220),
        WorkloadSpec(name="reader", write_ratio=0.2, rate_rps=3000.0,
                     footprint_pages=220),
    ]
    requests = synthesize_mix(specs, total_requests=1200, seed=7).requests
    sets = {0: [0], 1: [1]}
    faults = FaultConfig(seed=5, read_ber=0.08, program_fail_rate=0.001,
                         erase_fail_rate=0.005)
    return requests, config, sets, faults


@pytest.fixture(scope="module")
def attributed_run():
    requests, config, sets, faults = gc_fault_scenario()
    obs = Observability(attribution=True)
    result = simulate(requests, config, sets, record_latencies=True,
                      obs=obs, faults=faults)
    return requests, config, sets, faults, obs, result


class TestExactSum:
    def test_every_request_sums_to_its_latency(self, attributed_run):
        *_, obs, result = attributed_run
        records = obs.attribution.records
        assert len(records) == result.requests
        worst = max(
            abs(rec.phase_sum_us() - rec.latency_us) for rec in records
        )
        assert worst <= TOLERANCE_US

    def test_gc_stall_and_ecc_retry_phases_fire(self, attributed_run):
        *_, result = attributed_run
        totals = result.breakdown.phase_totals_us
        assert totals["gc_stall_us"] > 0.0
        assert totals["ecc_retry_us"] > 0.0
        assert totals["die_us"] > 0.0
        assert totals["bus_us"] > 0.0

    def test_breakdown_totals_match_recorded_latency(self, attributed_run):
        *_, obs, result = attributed_run
        b = result.breakdown
        assert b.total_latency_us == pytest.approx(
            sum(r.latency_us for r in obs.attribution.records)
        )
        assert sum(b.phase_totals_us.values()) == pytest.approx(
            b.total_latency_us, abs=len(obs.attribution.records) * TOLERANCE_US
        )

    def test_gc_cause_side_is_populated(self, attributed_run):
        *_, result = attributed_run
        b = result.breakdown
        assert b.gc_triggers, "no tenant was charged for GC work"
        assert b.gc_reclaims, "no channel reclaimed a block"
        assert sum(r["moves"] for r in b.gc_reclaims.values()) > 0

    def test_per_tenant_rows_cover_all_requests(self, attributed_run):
        *_, result = attributed_run
        b = result.breakdown
        assert set(b.per_tenant) == {0, 1}
        assert sum(r["requests"] for r in b.per_tenant.values()) == b.requests
        assert sum(r["requests"] for r in b.per_channel.values()) == b.requests


class TestZeroPerturbation:
    def test_summary_byte_identical_with_attribution_on(self, attributed_run):
        requests, config, sets, faults, _, attributed = attributed_run
        plain = simulate(requests, config, sets, record_latencies=True,
                         faults=faults)
        assert attributed.summary() == plain.summary()
        assert attributed.makespan_us == plain.makespan_us


class TestSanitizerIntegration:
    def test_exact_sum_checked_through_sanitizer(self):
        requests, config, sets, faults = gc_fault_scenario()
        obs = Observability(attribution=True)
        sanitizer = Sanitizer()
        result = simulate(requests, config, sets, record_latencies=True,
                          obs=probes(obs, sanitizer), faults=faults)
        stats = sanitizer.stats()
        assert stats["attribution_checks"] == result.requests
        assert all(v > 0 for v in stats.values()), stats


class TestBufferHits:
    def test_buffer_served_requests_attribute_to_dram(self):
        config = SSDConfig.small()
        specs = [
            WorkloadSpec(name="hot", write_ratio=0.5, rate_rps=4000.0,
                         footprint_pages=64),
        ]
        requests = synthesize_mix(
            specs, total_requests=400, seed=13
        ).requests
        obs = Observability(attribution=True)
        sim = SSDSimulator(
            config, {0: list(range(config.channels))},
            record_latencies=True,
            buffer=BufferConfig(capacity_pages=128),
            obs=obs,
        )
        result = sim.run(requests)
        b = result.breakdown
        assert b.phase_totals_us["buffer_us"] > 0.0
        dram = b.per_channel.get(DRAM_CHANNEL)
        assert dram is not None and dram["requests"] > 0
        # flash phases stay zero on the DRAM "channel" row
        for name in PHASE_NAMES:
            if name != "buffer_us":
                assert dram[name] == 0.0
        worst = max(
            abs(rec.phase_sum_us() - rec.latency_us)
            for rec in obs.attribution.records
        )
        assert worst <= TOLERANCE_US
