"""Seeded scenarios: registry, lookup errors, golden metrics, behaviour."""

import json

import pytest

from repro.harness.scenarios import (
    FULL_REQUESTS,
    QUICK_REQUESTS,
    SCENARIOS,
    load_scenario,
)
from repro.obs import FlightRecorder, Observability, SloSpec
from repro.ssd.fastmodel import fast_simulate
from repro.ssd.simulator import simulate

#: (mean_read_us, mean_write_us, total_latency_us) of every scenario at
#: quick size; any drift means the simulator's behaviour changed
GOLDEN = {
    "mix2_shared": (103.52961146940466, 277.97544455851994, 121429.350131942),
    "mix4_split": (80.16478726861075, 286.00316896047894, 104910.26570812207),
    "gc_heavy": (12048.312522177543, 16180.632392868116, 9423249.36464322),
    "faulted": (78.27611732381773, 281.14597407889994, 113101.24369644745),
    "fastmodel": (80.2009066654906, 287.629471785283, 105370.82797235704),
    "drift_hotspot": (165.60492028124764, 336.894628811677, 160342.08840558142),
    "phase_change": (73.50728604498032, 248.19593265275356, 57904.774709002275),
    "noisy_neighbor": (100.30221740248989, 436.6292645785118, 128119.39397105036),
}


def run(name, *, obs=None):
    kind, requests, cfg, sets, faults = load_scenario(name, quick=True)
    if kind == "fastmodel":
        return fast_simulate(requests, cfg, sets)
    return simulate(requests, cfg, sets, record_latencies=True, obs=obs,
                    faults=faults)


def attributed(name):
    return run(name, obs=Observability(trace=False, attribution=True))


class TestLookup:
    def test_registry(self):
        assert set(SCENARIOS) == set(GOLDEN)

    def test_sizes(self):
        assert len(load_scenario("mix2_shared", quick=True)[1]) == QUICK_REQUESTS
        assert len(load_scenario("mix2_shared")[1]) == FULL_REQUESTS

    def test_unknown_scenario_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            load_scenario("nope")

    def test_fastmodel_is_not_event_driven(self):
        assert load_scenario("fastmodel", quick=True)[0] == "fastmodel"
        with pytest.raises(ValueError, match="fastmodel backend"):
            load_scenario("fastmodel", quick=True, event_driven=True)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_metrics(name):
    result = run(name)
    got = (result.mean_read_us, result.mean_write_us, result.total_latency_us)
    assert got == pytest.approx(GOLDEN[name], rel=1e-9)


class TestBehaviour:
    def test_event_driven_scenario_records_attribution(self):
        breakdown = attributed("mix2_shared").breakdown
        assert breakdown.requests == QUICK_REQUESTS
        assert sum(breakdown.phase_fractions().values()) == pytest.approx(1.0)

    def test_simulated_metrics_are_deterministic(self):
        a, b = run("mix2_shared"), attributed("mix2_shared")
        for metric in ("mean_read_us", "mean_write_us", "total_latency_us"):
            assert getattr(a, metric) == getattr(b, metric)

    def test_gc_heavy_scenario_stalls_on_gc(self):
        totals = attributed("gc_heavy").breakdown.phase_totals_us
        assert totals["gc_stall_us"] > 0

    def test_faulted_scenario_pays_ecc_retries(self):
        totals = attributed("faulted").breakdown.phase_totals_us
        assert totals["ecc_retry_us"] > 0


class TestTightSlo:
    """A tight SLO pages deterministically on gc_heavy and dumps a bundle."""

    TIGHT_SPEC = {
        "window_us": 500.0,
        "tenants": {"0": {"write_p95_us": 200.0}},
        "gc_stall_fraction": 0.05,
        "burn": {
            "fast": {"windows": 2, "warn_burn": 1.5, "page_burn": 3.0},
            "slow": {"windows": 6, "warn_burn": 1.0, "page_burn": 2.0},
        },
    }

    @pytest.fixture
    def armed(self, tmp_path):
        _, _, _, sets, _ = load_scenario("gc_heavy", quick=True)
        obs = Observability(
            slo=SloSpec.from_dict(self.TIGHT_SPEC, known_tenants=set(sets)),
            flight_recorder=FlightRecorder(tmp_path),
        )
        return obs, run("gc_heavy", obs=obs)

    def test_pages_and_dumps_bundle(self, armed):
        obs, _ = armed
        assert obs.slo.summary()["page_alerts"] >= 1
        bundles = obs.flight_recorder.bundles
        assert bundles
        manifest = json.loads((bundles[0] / "manifest.json").read_text())
        assert {"schema_version", "trigger", "detail", "time_us", "context",
                "replay", "bundle_files"} <= set(manifest)
        assert manifest["trigger"] == "slo-page"

    def test_metrics_unchanged_by_slo_arming(self, armed):
        _, result = armed
        assert result.total_latency_us == GOLDEN["gc_heavy"][2]
