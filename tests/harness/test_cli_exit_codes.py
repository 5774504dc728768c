"""CLI exit-code contract: 0 success, 1 regression/alert, 2 usage error.

Every ``python -m repro`` subcommand shares the same three-way contract;
CI scripts and the flight recorder's replay commands depend on it, so it
is pinned here across the whole surface in one parametrized sweep.
"""

import json

import pytest

from repro.harness.cli import main as repro_main


def run_cli(argv):
    """Invoke the CLI, normalising argparse's SystemExit into a code."""
    try:
        return repro_main(argv)
    except SystemExit as exc:
        return exc.code


# ----------------------------------------------------------------------
# Usage errors: every subcommand must exit 2, never raise through
# ----------------------------------------------------------------------
USAGE_ERRORS = {
    "unknown-command": ["nonsense"],
    "explain-top-zero": ["explain", "--top", "0"],
    "explain-unknown-scenario": ["explain", "--scenario", "nope", "--quick"],
    "profile-top-zero": ["profile", "--top", "0"],
    "profile-unknown-scenario": ["profile", "--scenario", "nope", "--quick"],
    "drift-unknown-scenario": ["drift", "--scenario", "nope"],
    "fleet-devices-zero": ["fleet", "--devices", "0"],
    "fleet-tenants-zero": ["fleet", "--tenants", "0"],
    "diff-no-mode": ["diff"],
    "diff-bad-scale": ["diff", "run", "--quick", "--scale", "bus_bandwidth"],
    "diff-unknown-knob": ["diff", "run", "--quick",
                          "--scale", "warp_drive=2"],
    "diff-unknown-scenario": ["diff", "run", "--scenario", "nope"],
    "diff-fastmodel-run": ["diff", "run", "--scenario", "fastmodel"],
    "removed-bench": ["bench", "--quick"],
    "removed-diff-bench": ["diff", "bench", "a.json", "b.json"],
}


@pytest.mark.parametrize(
    "argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys()
)
def test_usage_errors_exit_two(argv):
    assert run_cli(argv) == 2


def test_missing_input_file_exits_two(tmp_path):
    gone = str(tmp_path / "missing.json")
    assert run_cli(["diff", "critpath", gone, gone]) == 2


# ----------------------------------------------------------------------
# Successes: cheap invocations of each surface must exit 0
# ----------------------------------------------------------------------
def test_info_exits_zero(capsys):
    assert run_cli(["info"]) == 0
    capsys.readouterr()


def test_identical_diff_exits_zero(tmp_path, capsys):
    from tests.harness.test_difflab import make_critpath

    path = tmp_path / "crit.json"
    path.write_text(json.dumps(make_critpath()))
    assert run_cli(["diff", "critpath", str(path), str(path)]) == 0
    capsys.readouterr()


def test_clean_lint_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    assert run_cli(["lint", str(clean)]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# Regressions/alerts: detected problems must exit 1, not 0 and not 2
# ----------------------------------------------------------------------
def test_lint_violation_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text('latency_us = "fast"\n')  # R001: string at a _us sink
    assert run_cli(["lint", str(bad)]) == 1
    capsys.readouterr()


def test_diff_critpath_regression_exits_one(tmp_path, capsys):
    from tests.harness.test_difflab import make_critpath

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(make_critpath(30.0, makespan_us=100.0)))
    b.write_text(json.dumps(make_critpath(90.0, makespan_us=160.0)))
    assert run_cli(["diff", "critpath", str(a), str(b)]) == 1
    capsys.readouterr()


def test_diff_trace_divergence_exits_one(tmp_path, capsys):
    from tests.harness.test_difflab import EVENTS, write_trace

    moved = [dict(e) for e in EVENTS]
    moved[-1]["ts_us"] += 1.0
    a = write_trace(tmp_path / "a.jsonl", EVENTS)
    b = write_trace(tmp_path / "b.jsonl", moved)
    assert run_cli(["diff", "trace", a, b]) == 1
    capsys.readouterr()

