"""Rewrite the committed expected outputs of every workload.

Run from the repository root after a change that is *meant* to alter what
the program computes (never to make a failing check pass)::

    python3 perfbench/make_expected.py

Each ``expected/<workload>.json`` holds the per-unit outputs of one
repetition at ``cases.DEFAULT_SEED``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cases  # noqa: E402


def main() -> None:
    cases.EXPECTED_DIR.mkdir(exist_ok=True)
    for case in cases.CASES.values():
        rep = case.rep(case.setup(cases.DEFAULT_SEED))
        if rep.failures:
            raise SystemExit(f"{case.name}: failed units {rep.failures}")
        path = cases.expected_path(case.name)
        path.write_text(json.dumps(rep.outputs, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}: {len(rep.outputs)} units")


if __name__ == "__main__":
    main()
