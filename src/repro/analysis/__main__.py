"""``python -m repro.analysis [paths] [--json|--sarif] [--select ...]``.

Exit status 0 when no *active* (unwaived, unbaselined) violations remain,
1 otherwise, 2 on usage errors or a stale suppression baseline.

Diff-aware mode: ``--changed`` lints only files that differ from
``--diff-base`` (default ``HEAD``) plus untracked python files.  The whole
tree is still parsed — the interprocedural rules (R005–R006) need the
full call graph — but only violations landing in changed files are
reported.

Baseline workflow: ``--baseline FILE`` suppresses findings whose
fingerprint is listed in the committed baseline; ``--check-baseline``
additionally fails (exit 2) if the baseline holds entries for findings
that no longer exist, so the file can only shrink.  ``--write-baseline``
regenerates it from the current active findings.
"""

from __future__ import annotations

import argparse
from pathlib import Path
import sys
from typing import Sequence

from .baseline import (
    apply_baseline,
    load_baseline,
    stale_entries,
    write_baseline,
)
from .engine import lint_paths
from .gitdiff import GitError, changed_python_files
from .reporting import format_report, report_json, sarif_report

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Run the repro domain lints (R001-R007, including the "
            "interprocedural seed-provenance and pool-safety rules and "
            "the schema-stamp rule) over files or trees."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (schema version 2)",
    )
    parser.add_argument(
        "--sarif",
        action="store_true",
        help="emit the report as SARIF 2.1.0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (e.g. R001,R005)",
    )
    parser.add_argument(
        "--show-waived",
        action="store_true",
        help="also print waived violations in text output",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "only report violations in files changed vs --diff-base "
            "(plus untracked files); the whole tree is still parsed so "
            "interprocedural rules see the full program"
        ),
    )
    parser.add_argument(
        "--diff-base",
        default="HEAD",
        metavar="REV",
        help="git revision --changed diffs against (default: HEAD)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress findings fingerprinted in this committed baseline",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write current active findings as a new baseline and exit 0",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="with --baseline: exit 2 if the baseline has stale entries",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.json and args.sarif:
        print("error: --json and --sarif are mutually exclusive", file=sys.stderr)
        return 2
    if args.check_baseline and not args.baseline:
        print("error: --check-baseline requires --baseline", file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = [code for code in args.select.split(",") if code.strip()]

    only = None
    if args.changed:
        try:
            only = changed_python_files(base=args.diff_base)
        except GitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not only:
            print("clean: no python files changed")
            return 0

    try:
        report = lint_paths(args.paths, select=select, only=only)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(report, args.write_baseline)
        print(f"wrote {count} entr{'y' if count == 1 else 'ies'} to "
              f"{Path(args.write_baseline).as_posix()}")
        return 0

    stale: list[dict] = []
    if args.baseline:
        try:
            doc = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stale = stale_entries(report, doc)
        report = apply_baseline(report, doc)

    if args.json:
        print(report_json(report))
    elif args.sarif:
        print(sarif_report(report))
    else:
        print(format_report(report, show_waived=args.show_waived))

    if args.check_baseline and stale:
        for entry in stale:
            print(
                f"stale baseline entry: {entry['rule']} {entry['path']} "
                f"({entry['fingerprint']}) — finding no longer exists; "
                f"delete it from the baseline",
                file=sys.stderr,
            )
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
