"""``repro explain`` — causal bottleneck explanation for one scenario.

Runs one seeded scenario (:mod:`repro.harness.scenarios`) with latency
attribution armed, then answers the two questions the raw
metrics cannot:

* **which resource bounds the run** — the critical-path extractor
  (:mod:`repro.obs.critpath`) walks the attribution records backwards
  from the makespan and charges every microsecond of the run to the
  channel bus, die, DRAM buffer, host idle gap or internal tail that
  spent it, validated by the ``critpath-exact-sum`` invariant;
* **what a change would buy** — the what-if engine
  (:mod:`repro.obs.whatif`) re-simulates the identical trace with each
  config knob scaled and ranks the exact virtual speedups, re-verifying
  the winner by a second identical run.

The baseline simulation is observed, never perturbed: its summary is
byte-identical to an unexplained run of the same scenario (the golden
integration test asserts this).  Exit codes: 0 = explained, 2 = usage
error (unknown scenario, unattributable fast-model scenario, bad path).
"""

from __future__ import annotations

import argparse
import json
import sys

from ..schema import Schema, write_json

__all__ = [
    "EXPLAIN_SCHEMA",
    "explain_scenario",
    "main",
]

#: the explain document ("whatif"/"sanitizer" are present only when
#: those passes ran)
EXPLAIN_SCHEMA = Schema(
    "explain document",
    2,
    required=(
        "scenario", "quick", "requests", "makespan_us", "total_latency_us",
        "summary", "critpath",
    ),
    optional=("whatif", "sanitizer"),
)


def explain_scenario(
    name: str,
    *,
    quick: bool = False,
    sanitize: bool = False,
    whatif: bool = True,
    tolerance_us: float = 1e-6,
    log=None,
) -> dict:
    """Run + explain one seeded scenario; returns the report document.

    Raises ``ValueError`` for an unknown scenario and for one that cannot
    be attributed (the vectorised fast model records no spans).
    ``sanitize=True`` routes the exact-sum invariants through a runtime
    :class:`~repro.analysis.Sanitizer` so the report carries its check
    counters.
    """
    from ..obs import Observability
    from ..obs.critpath import extract_critical_path
    from ..obs.whatif import run_whatif
    from ..ssd.probe import probes
    from ..ssd.simulator import simulate
    from .scenarios import load_scenario

    _, requests, cfg, sets, faults = load_scenario(
        name, quick=quick, event_driven=True
    )
    sanitizer = None
    if sanitize:
        from ..analysis import Sanitizer

        sanitizer = Sanitizer()
    obs = Observability(trace=False, attribution=True)
    result = simulate(
        requests, cfg, sets, record_latencies=True,
        obs=probes(obs, sanitizer), faults=faults,
    )
    if log is not None:
        log(f"{name}: {result.summary()}")

    report = extract_critical_path(
        obs.attribution.records,
        result.makespan_us,
        tolerance_us=tolerance_us,
        sanitizer=sanitizer,
    )
    fields: dict = {
        "scenario": name,
        "quick": quick,
        "requests": len(requests),
        "makespan_us": result.makespan_us,
        "total_latency_us": result.total_latency_us,
        "summary": result.summary(),
        "critpath": report.to_dict(),
    }
    if whatif:
        wreport = run_whatif(
            requests, cfg, sets, faults=faults, baseline=result, log=log,
        )
        fields["whatif"] = wreport.to_dict()
        fields["_whatif_report"] = wreport
    if sanitizer is not None:
        fields["sanitizer"] = sanitizer.stats()
    fields["_critpath_report"] = report
    return EXPLAIN_SCHEMA.stamp(**fields)


def _render(doc: dict, top: int) -> str:
    lines = [doc["summary"], ""]
    lines.append(doc.pop("_critpath_report").format(top=top))
    wreport = doc.pop("_whatif_report", None)
    if wreport is not None:
        lines.append("")
        lines.append(wreport.format())
    sanitizer = doc.get("sanitizer")
    if sanitizer is not None:
        checks = ", ".join(f"{k} {v}" for k, v in sanitizer.items())
        lines.append("")
        lines.append(f"sanitizer: all invariants held ({checks})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``repro explain`` entry point; returns a process exit code."""
    from .scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Explain which resource bounds a seeded scenario and "
        "what a config change would buy (exact counterfactuals).",
    )
    parser.add_argument(
        "--scenario",
        default="gc_heavy",
        metavar="NAME",
        help=f"scenario to explain (default gc_heavy); event-driven "
        f"scenarios only; available: {', '.join(SCENARIOS)}",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small trace (CI smoke size)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=8,
        metavar="N",
        help="rows in the bottleneck table (default 8)",
    )
    parser.add_argument(
        "--no-whatif",
        action="store_true",
        help="skip the counterfactual sweep (critical path only)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="route the exact-sum invariants through the runtime sanitizer "
        "and report its check counters",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full report document to stdout as JSON",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the report document to FILE as JSON",
    )
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be >= 1")

    try:
        doc = explain_scenario(
            args.scenario,
            quick=args.quick,
            sanitize=args.sanitize,
            whatif=not args.no_whatif,
            log=None if args.json else print,
        )
    except ValueError as exc:
        print(f"repro explain: {exc}", file=sys.stderr)
        return 2

    text = _render(doc, args.top)  # pops the report objects from doc
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)
    if args.out:
        try:
            write_json(doc, args.out)
        except OSError as exc:
            print(f"repro explain: cannot write {args.out}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the repro CLI
    sys.exit(main())
