"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro info
    python -m repro fig2 --scale smoke
    python -m repro tab3
    python -m repro fig5 --scale default
    python -m repro all --scale smoke
    python -m repro stats --trace run.jsonl --chrome-trace run.chrome.json
    python -m repro stats --json --metrics-out metrics.json
    python -m repro stats --sanitize
    python -m repro stats --telemetry-out run.telemetry.jsonl --slo examples/slo.json
    python -m repro stats --openmetrics metrics.om --flight-dir flight/
    python -m repro faults --read-ber 0.02 --program-fail-rate 0.001
    python -m repro lint src/repro/ssd --select R001,R004 --json
    python -m repro explain --scenario gc_heavy --sanitize
    python -m repro drift --scenario migrating_hotspot --sanitize
    python -m repro drift --scenario phase_change --poison --json
    python -m repro fleet --devices 3 --tenants 6 --seed 7
    python -m repro fleet --quick --slo-tight --out fleet_report.json
    python -m repro diff run --scenario gc_heavy --scale bus_bandwidth=0.5
    python -m repro diff critpath explain_a.json explain_b.json --out d.json

Each experiment prints its regenerated table; expensive artifacts are
cached under ``.repro-cache`` exactly as in the benches.  ``stats`` runs
one fully-instrumented event-driven simulation and pretty-prints the
metrics registry (or dumps it as JSON); ``--trace`` / ``--chrome-trace``
export the structured event trace as JSONL and in Chrome trace format
(loadable in ``chrome://tracing`` or Perfetto).  ``faults`` is the same
instrumented run with the seeded NAND fault model switched on
(``--read-ber`` / ``--program-fail-rate`` / ``--erase-fail-rate`` / ...);
the report includes the ``faults.*`` counters.  ``--sanitize`` attaches
the runtime :class:`~repro.analysis.Sanitizer` to the ``stats`` /
``faults`` run (invariant checks on every event, grant, mapping op and GC
pass).  ``lint`` runs the repro domain lints — per-file R001-R004 and R007
(schema stamps) plus the whole-program rules R005-R006 (seed provenance,
pool safety) — and forwards its arguments to ``python -m repro.analysis``
(``--json`` / ``--sarif`` / ``--changed`` / ``--baseline`` included).
``explain`` reconstructs the run-level critical path of a seeded
scenario (:mod:`repro.harness.scenarios`) and sweeps exact
counterfactuals (:mod:`repro.harness.explain`).  ``drift`` plays an
adversarial tenant scenario through the hardened adaptive keeper and the
one-shot paper keeper side by side (:mod:`repro.harness.driftlab`): drift
detections, guarded retrains with promote-or-rollback outcomes, and the
latency comparison, all seeded and byte-identical across invocations.
``fleet`` runs a seeded N-device, M-tenant scenario under the fleet
observability plane (:mod:`repro.harness.fleetlab`): federated metric
rollups, ``tenant_migration`` trace spans, fleet-level SLO burn-rate
alerting, and a deterministic schema-versioned ``fleet_report.json``.
``diff`` is the differential forensics layer over all of the above
(:mod:`repro.harness.difflab`): re-simulate a scenario under two
configs to localize the first divergent trace event, or rank the
critical-path resource shifts between two runs.  The host-speed
benchmark of record is ``python3 perfbench/run.py`` (see
``perfbench/README.md``), not a subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

import numpy as np

from ..core.strategies import StrategySpace
from ..ssd.config import SSDConfig
from ..ssd.probe import probes
from .ablations import (
    ablation_fastmodel,
    ablation_features,
    ablation_hybrid,
    ablation_model_size,
    ablation_scheduling,
)
from .experiments import (
    MIX_COMPOSITIONS,
    fig2_motivation,
    fig5_performance,
    fig6_strategy_map,
    labeler_config,
    tab2_workloads,
    tab5_allocations,
    train_all,
    trained_learner,
)
from .reporting import banner, format_metrics, format_series, format_table
from .scale import Scale

__all__ = ["main"]


def _cmd_info(scale: Scale) -> str:
    config = SSDConfig.paper()
    space = StrategySpace(8, 4)
    lines = [
        banner("SSDKeeper reproduction"),
        config.describe(),
        space.describe(),
        f"scale: {scale.name} (dataset {scale.dataset_samples} mixes, "
        f"{scale.train_iterations} iterations, fig2 {scale.fig2_requests} "
        f"requests/point, mixes {scale.mix_requests} requests)",
        "mix compositions: "
        + "; ".join(f"{k}={'+'.join(v)}" for k, v in MIX_COMPOSITIONS.items()),
    ]
    return "\n".join(lines)


def _cmd_fig2(scale: Scale) -> str:
    data = fig2_motivation(scale)
    parts = []
    for key, title in (
        ("write_latency_us", "Figure 2(a): mean write latency (us)"),
        ("read_latency_us", "Figure 2(b): mean read latency (us)"),
        ("total_latency_us", "Figure 2(c): total (write+read) latency (us)"),
    ):
        parts.append(
            format_series(
                "write_prop",
                data["write_proportions"],
                {s: data[key][s] for s in data["strategies"]},
                title=title,
            )
        )
    return "\n\n".join(parts)


def _cmd_fig4(scale: Scale) -> str:
    data = train_all(scale)
    idx = np.linspace(
        0, scale.train_iterations - 1, min(12, scale.train_iterations)
    ).astype(int)
    loss = {
        name: [row["loss_curve"][i] for i in idx]
        for name, row in data["variants"].items()
    }
    acc = {
        name: [row["accuracy_curve"][i] for i in idx]
        for name, row in data["variants"].items()
    }
    return "\n\n".join(
        [
            format_series("iter", idx.tolist(), loss,
                          title="Figure 4(a): training loss"),
            format_series("iter", idx.tolist(), acc,
                          title="Figure 4(b): test accuracy"),
        ]
    )


def _cmd_tab3(scale: Scale) -> str:
    data = train_all(scale)
    return format_table(
        ["optimizer", "loss", "accuracy", "time (ms)"],
        [
            [n, f"{r['final_loss']:.2f}", f"{r['final_accuracy']:.1%}",
             f"{r['training_time_ms']:.0f}"]
            for n, r in data["variants"].items()
        ],
        title="Table III",
    )


def _cmd_tab2(scale: Scale) -> str:
    rows = tab2_workloads()
    return format_table(
        ["workload", "write ratio (paper)", "write ratio (measured)", "#requests (paper)"],
        [
            [n, f"{r['paper_write_ratio']:.0%}", f"{r['measured_write_ratio']:.1%}",
             f"{r['paper_request_count']:,}"]
            for n, r in sorted(rows.items())
        ],
        title="Table II",
    )


def _cmd_fig5(scale: Scale) -> str:
    data = fig5_performance(scale)
    rows = []
    for mix_name, entry in data["mixes"].items():
        for tag, vals in entry["rows"].items():
            rows.append([mix_name, tag, f"{vals['mean_write_us']:.0f}",
                         f"{vals['mean_read_us']:.0f}",
                         f"{vals['total_latency_s']:.3f}"])
    return format_table(
        ["mix", "allocation", "write us", "read us", "total (s)"],
        rows,
        title="Figure 5",
    )


def _cmd_tab5(scale: Scale) -> str:
    data = tab5_allocations(scale)
    return format_table(
        ["mix", "features", "allocation"],
        [[n, e["features"], e["strategy"]] for n, e in data.items()],
        title="Table V",
    )


def _cmd_fig6(scale: Scale) -> str:
    data = fig6_strategy_map(scale)
    from collections import Counter

    histogram = Counter(p["simplified"] for p in data["points"])
    rows = [[name, count] for name, count in histogram.most_common()]
    return format_table(
        ["strategy (simplified)", "decisions"],
        rows,
        title=f"Figure 6: {len(data['points'])} decisions",
    )


def _cmd_quality(scale: Scale) -> str:
    """Held-out regret evaluation of the deployed model."""
    from ..core.evaluation import evaluate_learner, holdout_samples
    from ..core.strategies import StrategySpace

    cfg = labeler_config()
    learner = trained_learner(scale)
    samples = holdout_samples(cfg, StrategySpace(), max(30, scale.fig6_samples // 4))
    return format_table(
        ["metric", "value"],
        evaluate_learner(learner, samples).rows(),
        title=f"model quality on {len(samples)} held-out mixes",
    )


def _cmd_ablations(scale: Scale) -> str:
    parts = [banner("ablations")]
    hybrid = ablation_hybrid(scale)
    parts.append(
        f"hybrid vs all-static mean gain: "
        f"{hybrid['hybrid_vs_static_mean_gain']:+.1%} (paper: +2.1%)"
    )
    fidelity = ablation_fastmodel(scale)
    parts.append(
        f"fast-model fidelity: spearman {fidelity['mean_spearman']:.3f}, "
        f"winner agreement {fidelity['winner_agreement']:.0%}, "
        f"cross regret {fidelity['mean_cross_regret']:.3f}"
    )
    widths = ablation_model_size(scale)
    parts.append(format_table(
        ["hidden", "accuracy"],
        [[w, f"{r['final_accuracy']:.1%}"] for w, r in sorted(widths.items(), key=lambda kv: int(kv[0]))],
        title="hidden-width ablation",
    ))
    feats = ablation_features(scale)
    parts.append(format_table(
        ["features", "accuracy"],
        [[n, f"{r['final_accuracy']:.1%}"] for n, r in feats.items()],
        title="feature-group ablation",
    ))
    sched = ablation_scheduling(scale)
    parts.append(
        f"read-priority scheduling: reads {sched['mean_read_speedup']:.2f}x "
        f"faster, writes {sched['mean_write_slowdown']:.2f}x slower vs FIFO"
    )
    return "\n\n".join(parts)


#: tenant ids the ``stats``/``faults`` run actually has (see
#: :func:`repro.harness.experiments.stats_run` — a fixed 4-workload mix)
_STATS_TENANTS = range(4)


def _cmd_stats(scale: Scale, args: argparse.Namespace, faults=None,
               argv: list[str] | None = None) -> str:
    """Run one instrumented simulation and report/export its observability."""
    from ..obs import Observability, SloSpec, SloSpecError
    from .experiments import stats_run

    interval_us = args.utilization_interval  # repro-lint: disable=R001 (--utilization-interval is documented as microseconds)
    slo_spec = None
    if args.slo:
        try:
            slo_spec = SloSpec.load(args.slo, known_tenants=_STATS_TENANTS)
        except (OSError, SloSpecError) as exc:
            raise SystemExit(f"repro stats: cannot load SLO spec: {exc}")
    telemetry = args.telemetry_interval  # repro-lint: disable=R001 (--telemetry-interval is documented as microseconds)
    if telemetry is None and (args.telemetry_out or args.openmetrics):
        # an export was requested without an explicit interval: sample at
        # the SLO window (when given) or the utilization interval
        telemetry = slo_spec.window_us if slo_spec is not None else 500.0
    flight = None
    if args.flight_dir:
        from ..obs import FlightRecorder

        flight = FlightRecorder(
            args.flight_dir,
            context={"command": "faults" if faults is not None else "stats",
                     "scale": scale.name},
            replay_argv=(
                ["python", "-m", "repro", *argv] if argv is not None else None
            ),
        )
    obs = Observability(
        utilization_interval_us=interval_us if interval_us > 0 else None,
        attribution=True,
        telemetry=telemetry,
        slo=slo_spec,
        flight_recorder=flight,
    )
    sanitizer = None
    if args.sanitize:
        from ..analysis import Sanitizer

        sanitizer = Sanitizer()
    result = stats_run(scale, obs=probes(obs, sanitizer), faults=faults)
    notes: list[str] = []
    if sanitizer is not None:
        checks = ", ".join(f"{k} {v}" for k, v in sanitizer.stats().items())
        notes.append(f"sanitizer: all invariants held ({checks})")
    if args.trace:
        written = obs.trace.write_jsonl(args.trace)
        notes.append(f"wrote {written} trace events to {args.trace}")
    if args.chrome_trace:
        written = obs.write_chrome_trace(args.chrome_trace)
        notes.append(f"wrote chrome trace ({written} records) to {args.chrome_trace}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(obs.export(), fh, indent=2)
        notes.append(f"wrote metrics to {args.metrics_out}")
    if args.telemetry_out:
        windows = obs.telemetry.write_jsonl(args.telemetry_out)
        notes.append(
            f"wrote {windows} telemetry windows to {args.telemetry_out}"
        )
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(obs.registry.to_openmetrics())
        notes.append(f"wrote OpenMetrics exposition to {args.openmetrics}")
    if obs.slo is not None:
        rollup = obs.slo.summary()
        notes.append(
            f"slo: {rollup['windows']} windows evaluated, "
            f"{rollup['warn_alerts']} warn / {rollup['page_alerts']} page "
            f"alerts"
        )
    if obs.flight_recorder is not None and obs.flight_recorder.bundles:
        for bundle in obs.flight_recorder.bundles:
            notes.append(f"flight-recorder bundle: {bundle}")
    if args.json:
        payload = obs.export()
        if result.alerts is not None:
            payload["alerts"] = result.alerts
        body = json.dumps(payload, indent=2)
    else:
        body = result.summary() + "\n\n" + format_metrics(obs.registry.snapshot())
        if result.breakdown is not None:
            body += "\n\n" + result.breakdown.format()
    return "\n".join([*notes, "", body]) if notes else body


def _cmd_faults(scale: Scale, args: argparse.Namespace,
                argv: list[str] | None = None) -> str:
    """The ``stats`` run with the seeded NAND fault model switched on."""
    from ..ssd.faults import FaultConfig

    try:
        faults = FaultConfig(
            seed=args.fault_seed,
            read_ber=args.read_ber,
            program_fail_rate=args.program_fail_rate,
            erase_fail_rate=args.erase_fail_rate,
            max_read_retries=args.max_read_retries,
            wear_coupling=args.wear_coupling,
        )
    except ValueError as exc:
        raise SystemExit(f"repro faults: {exc}")
    return _cmd_stats(scale, args, faults=faults, argv=argv)


_COMMANDS: dict[str, Callable[[Scale], str]] = {
    "info": _cmd_info,
    "fig2": _cmd_fig2,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "tab2": _cmd_tab2,
    "tab3": _cmd_tab3,
    "tab5": _cmd_tab5,
    "quality": _cmd_quality,
    "ablations": _cmd_ablations,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro``; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # the lint subcommand has its own argument surface; delegate
        from ..analysis.__main__ import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "explain":
        from .explain import main as explain_main

        return explain_main(argv[1:])
    if argv and argv[0] == "drift":
        from .driftlab import main as drift_main

        return drift_main(argv[1:])
    if argv and argv[0] == "fleet":
        from .fleetlab import main as fleet_main

        return fleet_main(argv[1:])
    if argv and argv[0] == "diff":
        from .difflab import main as diff_main

        return diff_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate SSDKeeper paper tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*_COMMANDS, "stats", "faults", "all"],
        help="which table/figure to regenerate ('all' runs everything; "
        "'stats' runs one instrumented simulation and reports its metrics; "
        "'faults' is the same run under the seeded NAND fault model; "
        "'repro lint [paths]' runs the domain lints R001-R007; "
        "'repro explain' reconstructs a scenario's critical path and sweeps "
        "exact counterfactuals; "
        "'repro drift' runs the adaptive keeper against adversarial tenant "
        "scenarios; 'repro fleet' runs a seeded multi-device scenario with "
        "fleet-level observability rollups; 'repro diff' compares two "
        "runs or reports and localizes the first divergence)",
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["smoke", "default", "paper"],
        help="experiment scale (default: $REPRO_SCALE or 'default')",
    )
    obs_group = parser.add_argument_group("observability (stats command)")
    obs_group.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="export the structured event trace as JSONL",
    )
    obs_group.add_argument(
        "--chrome-trace",
        metavar="PATH",
        default=None,
        help="export the trace in Chrome trace format (chrome://tracing)",
    )
    obs_group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the full metrics/utilization export as JSON",
    )
    obs_group.add_argument(
        "--utilization-interval",
        metavar="US",
        type=float,
        default=500.0,
        help="per-channel/die utilization sampling interval in simulated "
        "microseconds (0 disables; default 500)",
    )
    obs_group.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help="stream delta-encoded telemetry windows to PATH as "
        "schema-versioned JSONL (enables telemetry sampling)",
    )
    obs_group.add_argument(
        "--telemetry-interval",
        metavar="US",
        type=float,
        default=None,
        help="telemetry window length in simulated microseconds (default: "
        "the SLO spec's window_us, else 500)",
    )
    obs_group.add_argument(
        "--slo",
        metavar="PATH",
        default=None,
        help="arm the SLO watchdog with a JSON spec (see examples/slo.json); "
        "burn-rate alerts surface as slo.* counters, slo_alert trace "
        "events, and an alerts section in --json output",
    )
    obs_group.add_argument(
        "--openmetrics",
        metavar="PATH",
        default=None,
        help="write the final registry as OpenMetrics text exposition",
    )
    obs_group.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="arm the flight recorder: sanitizer traps, page-severity SLO "
        "alerts and unrecoverable reads dump reproducible debug bundles "
        "under DIR",
    )
    obs_group.add_argument(
        "--json",
        action="store_true",
        help="dump the metrics export as JSON to stdout instead of tables",
    )
    obs_group.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime sanitizer: assert event-time monotonicity, "
        "resource mutual exclusion, mapping bijectivity and capacity "
        "conservation throughout the run (stats/faults commands)",
    )
    fault_group = parser.add_argument_group("fault injection (faults command)")
    fault_group.add_argument(
        "--fault-seed",
        type=int,
        default=1234,
        metavar="N",
        help="fault-model RNG seed; same seed + trace => identical run "
        "(default 1234)",
    )
    fault_group.add_argument(
        "--read-ber",
        type=float,
        default=0.01,
        metavar="P",
        help="probability a read attempt needs an ECC retry (default 0.01)",
    )
    fault_group.add_argument(
        "--program-fail-rate",
        type=float,
        default=0.0005,
        metavar="P",
        help="probability one page program fails and retires its block "
        "(default 0.0005)",
    )
    fault_group.add_argument(
        "--erase-fail-rate",
        type=float,
        default=0.0005,
        metavar="P",
        help="probability one block erase fails and retires the block "
        "(default 0.0005)",
    )
    fault_group.add_argument(
        "--max-read-retries",
        type=int,
        default=3,
        metavar="N",
        help="ECC retries before a read is declared unrecoverable (default 3)",
    )
    fault_group.add_argument(
        "--wear-coupling",
        type=float,
        default=0.0,
        metavar="K",
        help="linear wear escalation: rate *= 1 + K * block erase count "
        "(default 0)",
    )
    args = parser.parse_args(argv)
    if args.utilization_interval < 0:
        parser.error("--utilization-interval must be >= 0 (0 disables)")
    if args.telemetry_interval is not None and args.telemetry_interval <= 0:
        parser.error("--telemetry-interval must be > 0")
    # Fail fast on unwritable export paths: the simulation itself can take
    # minutes at larger scales, so probe before running (append mode leaves
    # any existing export intact if a later step dies).
    for path in (args.trace, args.chrome_trace, args.metrics_out,
                 args.telemetry_out, args.openmetrics):
        if path:
            try:
                with open(path, "a"):
                    pass
            except OSError as exc:
                parser.error(f"cannot write {path}: {exc}")
    scale = Scale.from_name(args.scale) if args.scale else Scale.from_env("default")

    names = list(_COMMANDS) if args.experiment == "all" else [args.experiment]
    if args.experiment == "stats":
        print(banner("stats"))
        print(_cmd_stats(scale, args, argv=list(argv)))
        print()
        return 0
    if args.experiment == "faults":
        print(banner("faults"))
        print(_cmd_faults(scale, args, argv=list(argv)))
        print()
        return 0
    for name in names:
        print(banner(name))
        print(_COMMANDS[name](scale))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
