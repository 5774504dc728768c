"""v2 reporting surface: SARIF, baseline workflow, --changed, parse cache,
waiver grammar regression, byte-identical determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.baseline import (
    BASELINE_SCHEMA,
    apply_baseline,
    load_baseline,
    stale_entries,
    write_baseline,
)
from repro.analysis.engine import ModuleSource, _parse_waivers
from repro.analysis.reporting import sarif_report

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]


def _cli(*args, cwd=REPO, cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if cache_dir is not None:
        env["REPRO_LINT_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


class TestWaiverGrammar:
    """Regression: reasons containing parens must survive intact."""

    def test_parenthesised_reason_not_truncated(self):
        waivers = _parse_waivers(
            "x = 1  # repro-lint: disable=R001 "
            "(1/rps is seconds (SI), so the product is unitless)\n"
        )
        (waiver,) = waivers.values()
        assert waiver.reason == "1/rps is seconds (SI), so the product is unitless"
        assert waiver.justified

    def test_nested_parens_and_trailing_text(self):
        waivers = _parse_waivers(
            "y = 2  # repro-lint: disable=R004 (t0 (epoch) plus dt (us))\n"
        )
        (waiver,) = waivers.values()
        assert waiver.reason == "t0 (epoch) plus dt (us)"

    def test_multiple_codes_with_parens_in_reason(self):
        waivers = _parse_waivers(
            "z = 3  # repro-lint: disable=R001,R004 (a (b) c)\n"
        )
        (waiver,) = waivers.values()
        assert waiver.codes == frozenset({"R001", "R004"})
        assert waiver.reason == "a (b) c"

    def test_missing_reason_is_unjustified(self):
        waivers = _parse_waivers("w = 4  # repro-lint: disable=R001\n")
        (waiver,) = waivers.values()
        assert not waiver.justified

    def test_waiver_with_paren_reason_end_to_end(self, tmp_path):
        path = tmp_path / "sample.py"
        path.write_text(
            "def f(rps):\n"
            "    wait_us = 1e6 / rps  # repro-lint: disable=R001 "
            "(1/rps is seconds (SI), scaled by 1e6 to us)\n"
        )
        report = lint_paths([path])
        assert report.ok
        if report.waived:  # only if R001 actually fired on this shape
            assert "(SI)" in report.waived[0].waiver_reason


class TestSarif:
    def test_sarif_document_shape(self):
        report = lint_paths([FIXTURES / "r001_units.py"])
        doc = json.loads(sarif_report(report))
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-analysis"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007",
        }
        (result,) = run["results"]
        assert result["ruleId"] == "R001"
        assert result["partialFingerprints"]["reproAnalysis/v1"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1

    def test_waived_violation_exported_as_suppressed(self):
        report = lint_paths([FIXTURES / "waived_ok.py"])
        doc = json.loads(sarif_report(report))
        (result,) = doc["runs"][0]["results"]
        (suppression,) = result["suppressions"]
        assert suppression["kind"] == "inSource"
        assert "microseconds" in suppression["justification"]

    def test_cli_sarif_flag(self):
        proc = _cli("--sarif", str(FIXTURES / "r004_scheduling.py"))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["runs"][0]["results"][0]["ruleId"] == "R004"

    def test_json_and_sarif_mutually_exclusive(self):
        proc = _cli("--json", "--sarif", str(FIXTURES / "r001_units.py"))
        assert proc.returncode == 2


class TestBaseline:
    def test_round_trip_suppresses_known_findings(self, tmp_path):
        report = lint_paths([FIXTURES / "r001_units.py"])
        assert not report.ok
        target = tmp_path / "baseline.json"
        count = write_baseline(report, target)
        assert count == 1
        doc = load_baseline(target)
        assert doc["schema_version"] == BASELINE_SCHEMA.version
        suppressed = apply_baseline(report, doc)
        assert suppressed.ok
        assert len(suppressed.baselined) == 1
        assert stale_entries(report, doc) == []

    def test_stale_entry_detected(self, tmp_path):
        report = lint_paths([FIXTURES / "r001_units.py"])
        target = tmp_path / "baseline.json"
        write_baseline(report, target)
        clean = lint_paths([FIXTURES / "waived_ok.py"])
        stale = stale_entries(clean, load_baseline(target))
        assert len(stale) == 1
        assert stale[0]["rule"] == "R001"

    def test_reader_rejects_bad_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "entries": []}))
        with pytest.raises(ValueError, match="schema_version"):
            load_baseline(bad)
        bad.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(ValueError, match="missing fields"):
            load_baseline(bad)

    def test_cli_baseline_flow(self, tmp_path):
        target = tmp_path / "baseline.json"
        fixture = str(FIXTURES / "r001_units.py")
        # no baseline: fails
        assert _cli(fixture).returncode == 1
        # write, then re-run with it: passes, finding reported as baselined
        assert _cli(fixture, "--write-baseline", str(target)).returncode == 0
        proc = _cli(fixture, "--baseline", str(target), "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["suppressed"] == 1
        assert payload["violations"][0]["suppressed"] is True

    def test_cli_stale_baseline_exits_2(self, tmp_path):
        target = tmp_path / "baseline.json"
        fixture = str(FIXTURES / "r001_units.py")
        assert _cli(fixture, "--write-baseline", str(target)).returncode == 0
        # lint a clean file against that baseline: every entry is stale
        proc = _cli(
            str(FIXTURES / "waived_ok.py"),
            "--baseline", str(target), "--check-baseline",
        )
        assert proc.returncode == 2
        assert "stale baseline entry" in proc.stderr

    def test_committed_baseline_is_empty_and_in_sync(self):
        # the repo gate: src is fully clean, so the committed baseline
        # must hold zero entries (it may only ever shrink)
        doc = load_baseline(REPO / "analysis-baseline.json")
        assert doc["entries"] == []
        report = lint_paths([REPO / "src"])
        assert stale_entries(report, doc) == []


class TestDeterminism:
    def test_json_report_byte_identical_across_invocations(self, tmp_path):
        cache = tmp_path / "cache"
        args = ("--json", "tests/analysis/fixtures")
        first = _cli(*args, cache_dir=cache)
        second = _cli(*args, cache_dir=cache)
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()

    def test_sarif_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        args = ("--sarif", "tests/analysis/fixtures")
        assert (
            _cli(*args, cache_dir=cache).stdout
            == _cli(*args, cache_dir=cache).stdout
        )


class TestParseCache:
    def test_disk_cache_written_and_reused(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_LINT_CACHE_DIR", str(cache))
        sample = tmp_path / "sample.py"
        sample.write_text("def f():\n    return 1\n")
        first = ModuleSource.load(sample)
        entries = list(cache.glob("*.pkl"))
        assert len(entries) == 1
        # a fresh process (simulated by clearing the in-memory cache)
        # must hit the disk entry, not re-parse
        from repro.analysis import engine as engine_mod

        engine_mod._MEM_CACHE.clear()
        again = ModuleSource.load(sample)
        assert again.text == first.text
        assert again.module == first.module

    def test_stale_entry_invalidated_on_change(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE_DIR", str(tmp_path / "cache"))
        sample = tmp_path / "sample.py"
        sample.write_text("A = 1\n")
        assert "A = 1" in ModuleSource.load(sample).text
        os.utime(sample, ns=(1, 1))  # force distinct mtime either side
        sample.write_text("B = 2\n")
        assert "B = 2" in ModuleSource.load(sample).text

    def test_cross_process_reuse(self, tmp_path):
        # two real processes, one cache dir: the second run parses nothing
        # new (same bytes out either way — this asserts correctness, the
        # cache itself is validated by the single-process test above)
        cache = tmp_path / "cache"
        out1 = _cli("--json", "tests/analysis/fixtures", cache_dir=cache)
        assert list(cache.glob("*.pkl")), "disk cache must be populated"
        out2 = _cli("--json", "tests/analysis/fixtures", cache_dir=cache)
        assert out1.stdout == out2.stdout


class TestChanged:
    def _init_repo(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )
        git("init", "-q")
        return git

    def test_changed_reports_only_touched_files(self, tmp_path):
        git = self._init_repo(tmp_path)
        bad = "def f(delay_ms):\n    delay_us = delay_ms\n"
        (tmp_path / "one.py").write_text(bad)
        (tmp_path / "two.py").write_text(bad)
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        # untouched tree: nothing changed, exit 0 despite violations
        proc = _cli(".", "--changed", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "no python files changed" in proc.stdout
        # touch one file: only its violation is reported
        (tmp_path / "one.py").write_text(bad + "\n# touched\n")
        proc = _cli(".", "--changed", "--json", cwd=tmp_path)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        paths = {v["path"] for v in payload["violations"]}
        assert all("one.py" in p for p in paths), paths

    def test_untracked_files_are_included(self, tmp_path):
        git = self._init_repo(tmp_path)
        (tmp_path / "clean.py").write_text("X = 1\n")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        (tmp_path / "fresh.py").write_text(
            "def f(delay_ms):\n    delay_us = delay_ms\n"
        )
        proc = _cli(".", "--changed", cwd=tmp_path)
        assert proc.returncode == 1
        assert "fresh.py" in proc.stdout

    def test_outside_git_exits_2(self, tmp_path):
        # tmp_path lives outside any repository: --changed must fail loudly
        (tmp_path / "a.py").write_text("X = 1\n")
        proc = _cli(".", "--changed", cwd=tmp_path)
        assert proc.returncode == 2
        assert "git" in proc.stderr
