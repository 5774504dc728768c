"""The drift lab: adaptive-vs-one-shot reports and the ``repro drift`` CLI."""

import json

import pytest

from repro.harness.cli import main
from repro.harness.driftlab import run_driftlab


@pytest.fixture(scope="module")
def report():
    return run_driftlab("migrating_hotspot", quick=True, sanitize=True)


class TestRunDriftlab:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_driftlab("nope")

    def test_report_shape(self, report):
        assert report["scenario"] == "migrating_hotspot"
        assert report["quick"] is True
        adaptive = report["adaptive"]
        assert adaptive["decisions"]
        assert len(adaptive["realised_us"]) == len(adaptive["decisions"])
        assert report["oneshot"]["strategy"] is not None

    def test_adaptive_detects_drift_and_retrains(self, report):
        adaptive = report["adaptive"]
        assert adaptive["drift_events"]
        assert adaptive["retrains"] >= 1
        assert adaptive["promotions"] + adaptive["rollbacks"] == (
            adaptive["retrains"]
        )
        assert report["counters"]["drift.detections"] >= 1
        assert report["counters"]["keeper.retrains"] == adaptive["retrains"]

    def test_adaptive_beats_oneshot_under_drift(self, report):
        assert (
            report["adaptive"]["mean_read_us"]
            <= report["oneshot"]["mean_read_us"]
        )

    def test_sanitizer_sections_are_per_run(self, report):
        assert set(report["sanitizer"]) == {"adaptive", "oneshot"}
        assert report["sanitizer"]["adaptive"]

    def test_deterministic_report(self, report):
        again = run_driftlab("migrating_hotspot", quick=True, sanitize=True)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_poisoned_candidates_all_roll_back(self):
        poisoned = run_driftlab("migrating_hotspot", quick=True, poison=True)
        adaptive = poisoned["adaptive"]
        assert adaptive["rollbacks"] >= 1
        assert adaptive["promotions"] == 0
        for event in adaptive["retrain_events"]:
            assert event["outcome"] == "rolled-back"


class TestDriftCli:
    def test_human_readable_output(self, capsys):
        assert main(["drift", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "one-shot" in out
        assert "adaptive" in out
        assert "retrain:" in out

    def test_json_and_out_round_trip(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main([
            "drift", "--quick", "--json", "--out", str(path),
        ]) == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(path.read_text())
        assert printed == on_disk
        assert printed["scenario"] == "migrating_hotspot"

    def test_unknown_scenario_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["drift", "--scenario", "nope"])

    def test_unwritable_out_path(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        target = blocker / "report.json"
        assert main(["drift", "--quick", "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err
