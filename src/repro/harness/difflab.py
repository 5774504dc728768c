"""``repro diff`` — differential forensics over recorded artifacts.

Front-end for :mod:`repro.obs.diff`: every mode compares two artifacts
of the same kind and emits one schema-versioned, byte-deterministic
``diff_report.json`` (plus a human summary).  Modes:

* ``repro diff run --scenario NAME [--scale KNOB=FACTOR ...]`` —
  re-simulate one seeded scenario, side B under scaled knobs, and
  localize the first divergent trace event; no ``--scale`` is the
  self-diff that must come back empty (the determinism assertion CI
  leans on);
* ``repro diff trace A.jsonl B.jsonl`` — first-divergence alignment of
  two recorded JSONL trace streams;
* ``repro diff critpath A.json B.json`` — resource-bucket shifts
  between two bottleneck reports (accepts raw critpath documents or
  ``repro explain --out`` documents);
* ``repro diff fleet FLEET.json DEV_A DEV_B`` — device-vs-device drift
  inside one fleet report.

Exit codes follow the harness contract: **0** clean (identical, or no
regressions for the artifact kinds where benign deltas are expected),
**1** localized divergence/regression, **2** usage error.  ``run`` and
``trace`` diffs are determinism assertions, so *any* divergence exits 1;
``critpath`` / ``fleet`` diffs exit 1 only on regressions.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]


def _load_json(path: str, *, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _parse_scale(spec: str) -> tuple[str, float]:
    knob, sep, factor = spec.partition("=")
    if not sep or not knob:
        raise ValueError(
            f"--scale expects KNOB=FACTOR, got {spec!r}"
        )
    try:
        value = float(factor)
    except ValueError:
        raise ValueError(
            f"--scale factor must be a number, got {factor!r}"
        ) from None
    return knob, value


def _critpath_doc(doc: dict, path: str) -> dict:
    """Accept a raw critpath report or an explain document wrapping one."""
    if "critpath" in doc and "schema_version" in doc:
        from .explain import EXPLAIN_SCHEMA

        return EXPLAIN_SCHEMA.load(doc)["critpath"]
    return doc


def _exit_code(report: dict) -> int:
    # run/trace diffs assert determinism: any divergence is a failure;
    # the artifact diffs tolerate benign movement and fail on regressions
    if report["kind"] in ("run", "trace"):
        return 0 if report["identical"] else 1
    return 1 if report["regressions"] else 0


# ----------------------------------------------------------------------
# Human rendering
# ----------------------------------------------------------------------
def _format_metric_cells(cells: dict, *, indent: str = "  ") -> list[str]:
    lines = []
    for metric, cell in cells.items():
        if cell["classification"] == "neutral":
            continue
        pct = (
            f" ({cell['delta_pct']:+.1f}%)"
            if cell["delta_pct"] is not None else ""
        )
        lines.append(
            f"{indent}{metric}: {cell['a']:g} -> {cell['b']:g}"
            f"{pct} [{cell['classification']}]"
        )
    return lines


def _render(report: dict) -> str:
    head = (
        f"diff[{report['kind']}] {report['label_a']} vs {report['label_b']}: "
    )
    if report["identical"]:
        head += "identical"
    else:
        head += (
            f"{report['divergences']} divergences, "
            f"{report['regressions']} regressions"
        )
    lines = [head]
    sections = report["sections"]
    metrics = sections.get("metrics")
    if metrics is not None:
        lines.extend(_format_metric_cells(metrics["metrics"]))
    trace = sections.get("trace")
    if trace is not None:
        first = trace["first_divergence"]
        if first is None:
            lines.append(
                f"  trace: {trace['events_a']} events, streams identical"
            )
        else:
            where = ", ".join(
                f"{key} {first[key]}"
                for key in ("tenant", "channel", "die")
                if first[key] is not None
            )
            ts = first["time_us_a"]
            if ts is None:
                ts = first["time_us_b"]
            lines.append(
                f"  trace: first divergence at event #{first['index']} "
                f"(t={ts:.2f}us, {first['kind']}"
                + (f", {where}" if where else "")
                + f"); {trace['divergent_events']} divergent downstream"
            )
    critpath = sections.get("critpath")
    if critpath is not None:
        if critpath["top_shift"] is None:
            lines.append("  critpath: no resource shifted")
        else:
            top = critpath["shifts"][0]
            line = (
                f"  critpath: {critpath['top_shift']} moved "
                f"{top['delta_us']:+.1f}us on-path "
                f"(bottleneck {critpath['bottleneck_a']} -> "
                f"{critpath['bottleneck_b']})"
            )
            device = critpath["top_resource_shift"]
            if device is not None and device != critpath["top_shift"]:
                line += f"; top device resource: {device}"
            lines.append(line)
    fleet = sections.get("fleet")
    if fleet is not None:
        lines.extend(_format_metric_cells(fleet["metrics"]))
        if fleet["health"] is not None:
            lines.append(
                f"  health: {fleet['health']['a']:.3f} -> "
                f"{fleet['health']['b']:.3f}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Mode runners (each returns the full diff report document)
# ----------------------------------------------------------------------
def _run_run(args) -> dict:
    from ..obs.diff import diff_run
    from .scenarios import load_scenario

    _, requests, cfg, sets, faults = load_scenario(
        args.scenario, quick=args.quick, event_driven=True
    )
    cfg_b = cfg
    label_b = args.scenario
    for spec in args.scale:
        knob, factor = _parse_scale(spec)
        try:
            cfg_b = cfg_b.scale_knob(knob, factor)
        except KeyError:
            from ..ssd.config import KNOBS

            raise ValueError(
                f"unknown knob {knob!r}; available: {', '.join(KNOBS)}"
            ) from None
        label_b += f"+{knob}x{factor:g}"
    return diff_run(
        requests, cfg, sets, cfg_b,
        faults=faults,
        label_a=args.scenario,
        label_b=label_b,
        keep_events=bool(args.chrome_trace),
    )


def _run_trace(args) -> dict:
    from ..obs.diff import build_diff_report, diff_traces
    from ..obs.trace import TraceRecorder

    streams = []
    for path in (args.a, args.b):
        try:
            streams.append(TraceRecorder.read_jsonl(path))
        except OSError as exc:
            raise ValueError(f"cannot read trace {path!r}: {exc}") from exc
        except (json.JSONDecodeError, KeyError) as exc:
            raise ValueError(
                f"trace {path!r} is not a JSONL trace export: {exc}"
            ) from exc
    section = diff_traces(*streams)
    return build_diff_report("trace", args.a, args.b, {"trace": section})


def _run_critpath(args) -> dict:
    from ..obs.diff import build_diff_report, diff_critpath_docs

    doc_a = _critpath_doc(_load_json(args.a, what="critpath document"), args.a)
    doc_b = _critpath_doc(_load_json(args.b, what="critpath document"), args.b)
    section = diff_critpath_docs(doc_a, doc_b)
    return build_diff_report(
        "critpath", args.a, args.b, {"critpath": section}
    )


def _run_fleet(args) -> dict:
    from ..obs.diff import build_diff_report, diff_fleet_devices

    doc = _load_json(args.fleet, what="fleet report")
    section = diff_fleet_devices(doc, args.device_a, args.device_b)
    return build_diff_report(
        "fleet",
        f"{args.fleet}#device{args.device_a}",
        f"{args.fleet}#device{args.device_b}",
        {"fleet": section},
    )


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """``repro diff`` entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description="Compare two runs, traces, critical paths, or fleet "
        "devices; localize what diverged first.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        help="print the full diff report to stdout as JSON",
    )
    common.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the diff report to FILE as JSON",
    )
    modes = parser.add_subparsers(dest="mode", metavar="MODE")

    p_run = modes.add_parser(
        "run", parents=[common],
        help="re-simulate a seeded scenario under two configs and "
        "localize the first divergent event",
    )
    p_run.add_argument(
        "--scenario",
        default="mix2_shared",
        metavar="NAME",
        help="scenario to re-simulate (default mix2_shared); "
        "event-driven scenarios only",
    )
    p_run.add_argument(
        "--quick",
        action="store_true",
        help="small trace (CI smoke size)",
    )
    p_run.add_argument(
        "--scale",
        action="append",
        default=[],
        metavar="KNOB=FACTOR",
        help="scale a config knob on side B (repeatable); no --scale "
        "diffs the run against itself (must be empty)",
    )
    p_run.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help="write a side-by-side Chrome trace with divergence markers",
    )

    p_trace = modes.add_parser(
        "trace", parents=[common],
        help="diff two recorded JSONL trace streams",
    )
    p_trace.add_argument("a", help="baseline trace JSONL")
    p_trace.add_argument("b", help="candidate trace JSONL")

    p_crit = modes.add_parser(
        "critpath", parents=[common],
        help="diff two bottleneck reports (critpath or explain documents)",
    )
    p_crit.add_argument("a", help="baseline critpath/explain JSON")
    p_crit.add_argument("b", help="candidate critpath/explain JSON")

    p_fleet = modes.add_parser(
        "fleet", parents=[common],
        help="diff two devices of one fleet report",
    )
    p_fleet.add_argument("fleet", help="fleet report JSON")
    p_fleet.add_argument("device_a", type=int, help="baseline device id")
    p_fleet.add_argument("device_b", type=int, help="candidate device id")

    args = parser.parse_args(argv)
    if args.mode is None:
        parser.error("a mode is required (run, trace, critpath, fleet)")

    runners = {
        "run": _run_run,
        "trace": _run_trace,
        "critpath": _run_critpath,
        "fleet": _run_fleet,
    }
    try:
        report = runners[args.mode](args)
    except (ValueError, KeyError) as exc:
        print(f"repro diff: {exc}", file=sys.stderr)
        return 2

    events_a = report.pop("_events_a", None)
    events_b = report.pop("_events_b", None)
    if getattr(args, "chrome_trace", None):
        from ..obs.chrometrace import write_diff_chrome_trace

        first = report["sections"]["trace"]["first_divergence"]
        write_diff_chrome_trace(
            events_a, events_b, args.chrome_trace, first_divergence=first,
        )
        print(f"wrote {args.chrome_trace}", file=sys.stderr)

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render(report))
    if args.out:
        from ..obs.diff import load_diff
        from ..schema import write_json

        try:
            write_json(load_diff(report), args.out)
        except OSError as exc:
            print(f"repro diff: cannot write {args.out}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.out}", file=sys.stderr)
    return _exit_code(report)


if __name__ == "__main__":  # pragma: no cover - exercised via the repro CLI
    sys.exit(main())
