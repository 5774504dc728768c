"""Human- and machine-readable output for lint reports.

Three formats, all deterministic (byte-identical across invocations over
the same tree):

* plain text — one line per violation plus a summary line;
* JSON — the schema-version-2 document (:func:`report_json`), declared
  and read back by :data:`repro.analysis.engine.REPORT_SCHEMA`;
* SARIF 2.1.0 (:func:`sarif_report`) — for code-scanning UIs; waived and
  baselined violations are emitted as suppressed results so the full
  audit trail survives the export.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import Report, Violation

__all__ = ["format_report", "report_json", "sarif_report"]

_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def format_report(report: Report, *, show_waived: bool = False) -> str:
    """Plain-text report: one line per violation plus a summary line."""
    lines = [v.format() for v in report.active]
    if show_waived:
        lines.extend(v.format() for v in report.waived)
    counts = report.counts()
    suffix = f"; {len(report.waived)} waived"
    if report.baselined:
        suffix += f", {len(report.baselined)} baselined"
    if counts:
        per_rule = ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))
        lines.append(
            f"{len(report.active)} violation(s) in {report.files} file(s) "
            f"({per_rule}){suffix}"
        )
    else:
        lines.append(
            f"clean: {report.files} file(s), 0 violations{suffix}"
        )
    return "\n".join(lines)


def report_json(report: Report) -> str:
    """Stable JSON document (schema version 2) for CI consumers."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=False)


# ----------------------------------------------------------------------
# SARIF export
# ----------------------------------------------------------------------
def _sarif_result(violation: Violation) -> dict:
    suppressions = []
    if violation.waived:
        suppressions.append({
            "kind": "inSource",
            "justification": violation.waiver_reason or "",
        })
    if violation.suppressed:
        suppressions.append({
            "kind": "external",
            "justification": "committed suppression baseline",
        })
    result = {
        "ruleId": violation.rule,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": Path(violation.path).as_posix(),
                },
                "region": {
                    "startLine": max(1, violation.line),
                    "startColumn": violation.col + 1,
                },
            },
        }],
        "partialFingerprints": {
            "reproAnalysis/v1": violation.fingerprint,
        },
    }
    if suppressions:
        result["suppressions"] = suppressions
    return result


def sarif_report(report: Report) -> str:
    """The report as a SARIF 2.1.0 log (one run, one driver)."""
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-analysis",
                    "informationUri": (
                        "https://github.com/ssdkeeper/repro"
                    ),
                    "rules": [
                        {
                            "id": code,
                            "shortDescription": {"text": summary},
                        }
                        for code, summary in report.rules
                    ],
                },
            },
            "results": [_sarif_result(v) for v in report.violations],
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=False)
