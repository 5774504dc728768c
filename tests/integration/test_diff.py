"""End-to-end differential forensics on seeded scenarios.

The acceptance contract for the diff subsystem:

* **self-diff is provably empty** — re-simulating a seeded scenario
  against itself yields zero divergences across the metric, trace, and
  critical-path sections (the determinism assertion CI leans on);
* **localization agrees with the what-if sweep** — scaling the
  ``bus_bandwidth`` knob down must shift on-critical-path time onto a
  channel resource, the same bottleneck family the what-if engine's
  ``bus_2x`` counterfactual identifies as dominant on the same trace;
* **byte determinism** — repeated invocations over the same inputs
  produce byte-identical report documents.
"""

import json

import pytest

from repro.harness.scenarios import SCENARIOS
from repro.obs.diff import diff_run, load_diff
from repro.schema import write_json
from repro.obs.whatif import run_whatif

REQUESTS = 300


@pytest.fixture(scope="module")
def scenario():
    kind, requests, cfg, sets, faults = SCENARIOS["mix2_shared"](REQUESTS)
    assert kind == "simulator"
    return requests, cfg, sets, faults


@pytest.fixture(scope="module")
def scaled_report(scenario):
    requests, cfg, sets, faults = scenario
    cfg_b = cfg.scale_knob("bus_bandwidth", 0.25)
    return diff_run(requests, cfg, sets, cfg_b, faults=faults,
                    label_a="base", label_b="bus-quarter")


class TestSelfDiffIsEmpty:
    def test_every_section_reports_identical(self, scenario):
        requests, cfg, sets, faults = scenario
        report = diff_run(requests, cfg, sets, faults=faults)
        assert report["identical"] is True
        assert report["divergences"] == 0
        assert report["regressions"] == 0
        for name, section in report["sections"].items():
            assert section["identical"] is True, name
        assert report["sections"]["trace"]["first_divergence"] is None

    def test_self_diff_leaves_requests_reusable(self, scenario):
        # diff_run resets completion stamps; a second self-diff over the
        # same request objects must still come back empty
        requests, cfg, sets, faults = scenario
        first = diff_run(requests, cfg, sets, faults=faults)
        second = diff_run(requests, cfg, sets, faults=faults)
        assert first == second
        assert second["identical"] is True


class TestKnobLocalization:
    def test_slower_bus_forks_history_on_a_channel_event(self, scaled_report):
        first = scaled_report["sections"]["trace"]["first_divergence"]
        assert first is not None
        assert first["channel"] is not None

    def test_critpath_shift_names_a_channel_resource(self, scaled_report):
        critpath = scaled_report["sections"]["critpath"]
        assert critpath["top_resource_shift"] is not None
        assert critpath["top_resource_shift"].startswith("ch")
        assert critpath["makespan"]["classification"] == "regressed"

    def test_whatif_sweep_predicts_the_same_bottleneck(self, scenario,
                                                       scaled_report):
        # the what-if engine answers prospectively ("which knob would
        # help most"), the diff answers retrospectively ("which resource
        # absorbed the slowdown") — on the same trace the two must agree
        # on the bus/channel family
        requests, cfg, sets, faults = scenario
        whatif = run_whatif(requests, cfg, sets, faults=faults, verify=False)
        speedups = {row.name: row.speedup for row in whatif.ranked()}
        assert speedups["bus_2x"] > 1.0  # the bus is on the critical path
        assert scaled_report["sections"]["critpath"][
            "top_resource_shift"
        ].startswith("ch")

    def test_latency_metrics_regress(self, scaled_report):
        cells = scaled_report["sections"]["metrics"]["metrics"]
        assert cells["total_latency_us"]["classification"] == "regressed"
        assert cells["makespan_us"]["classification"] == "regressed"


class TestByteDeterminism:
    def test_reports_are_byte_identical_across_invocations(self, scenario,
                                                           tmp_path):
        requests, cfg, sets, faults = scenario
        cfg_b = cfg.scale_knob("bus_bandwidth", 0.25)
        paths = []
        for name in ("one.json", "two.json"):
            report = diff_run(requests, cfg, sets, cfg_b, faults=faults,
                              label_a="base", label_b="bus-quarter")
            paths.append(write_json(load_diff(report), tmp_path / name))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        load_diff(json.loads(paths[0].read_text()))

    def test_serialised_report_has_no_wall_clock_stamps(self, scaled_report,
                                                        tmp_path):
        path = write_json(load_diff(scaled_report), tmp_path / "report.json")
        text = path.read_text()
        assert "created" not in text
        assert "timestamp" not in text
