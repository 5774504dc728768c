"""Regenerate the labelled dataset that the ``keeper_eval`` workload trains on.

The dataset is Algorithm 1's output: ``generate_dataset`` over random mixes
with the experiments' default labeller configuration (fast engine, 3
replications x 42 strategies).  It is committed so that ``keeper_eval``
measures training and the online keeper, not labelling.

Run from the repository root::

    python3 perfbench/make_dataset.py

It takes about 10 minutes on one core and rewrites
``perfbench/data/dataset.npz`` byte-for-byte (the output depends only on
the sample count and seed below).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core import generate_dataset  # noqa: E402
from repro.harness.experiments import labeler_config  # noqa: E402

#: mixes labelled for the committed training set
SAMPLES = 300
#: generation seed (the experiments' dataset seed)
SEED = 20200525
DATASET = HERE / "data" / "dataset.npz"


def main() -> None:
    def progress(done: int, total: int) -> None:
        if done % 25 == 0 or done == total:
            print(f"labelled {done}/{total}", file=sys.stderr, flush=True)

    dataset = generate_dataset(SAMPLES, labeler_config(), seed=SEED, progress=progress)
    dataset.save(DATASET)
    print(f"wrote {DATASET.relative_to(HERE.parent)}: {len(dataset)} mixes")


if __name__ == "__main__":
    main()
