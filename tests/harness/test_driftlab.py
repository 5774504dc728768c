"""The drift lab: adaptive-vs-one-shot reports and the ``repro drift`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.harness.driftlab import run_driftlab

REPO = Path(__file__).resolve().parents[2]


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

    def test_sanitizer_checks_ran_on_each_device_run(self, report):
        # A tripped invariant raises, so completion means zero trips; the
        # event and grant checks must also have run on both device runs
        # (conservation checks only tick when GC fires, which the quick
        # trace avoids).
        for run, stats in report["sanitizer"].items():
            assert stats["events_checked"] > 0, (run, stats)
            assert stats["grants_checked"] > 0, (run, stats)

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

    def test_report_file_is_byte_identical_across_hash_seeds(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        reports = []
        for hash_seed in ("1", "2"):
            path = tmp_path / f"drift-{hash_seed}.json"
            subprocess.run(
                [sys.executable, "-m", "repro", "drift", "--quick",
                 "--sanitize", "--out", str(path)],
                check=True, capture_output=True, cwd=tmp_path,
                env={**env, "PYTHONHASHSEED": hash_seed},
            )
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_unknown_scenario_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["drift", "--scenario", "nope"])

    def test_unwritable_out_path(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        target = blocker / "report.json"
        assert main(["drift", "--quick", "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err
