"""Benchmark inputs: the acceptance-experiment CSVs, written by ``kellyfe generate``.

The acceptance config is 2000 train rows and 2000 validation rows, K=3,
class split 90/9/1, cluster separation 3 and prior noise 0.1.  The
flipped training set has the same rows with 20% of the reference labels
moved to another class.  The validation set uses ``seed + 5000``, as the
acceptance tests do.

Run as a script (``python3 inputs.py <checkout> <out_dir> <seed> <names...>``)
it times one set-up, the import of kellyfe included, and prints the
seconds; ``run.py`` starts it several times to measure ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

CSV_FLAGS = [
    "--classes", "3", "--features", "2", "--samples", "2000",
    "--frequencies", "0.90,0.09,0.01", "--separation", "3", "--prior-noise", "0.1",
]
LABEL_FLIP = 0.2
VAL_SEED_OFFSET = 5000


def generate_args(name: str, out_dir: Path, seed: int) -> list[str]:
    """``kellyfe generate`` arguments for the input file ``name``."""
    extra = {
        "train_clean": ["--seed", str(seed)],
        "train_flip": ["--seed", str(seed), "--label-flip", str(LABEL_FLIP)],
        "val": ["--seed", str(seed + VAL_SEED_OFFSET)],
    }[name]
    return ["generate", *CSV_FLAGS, *extra, "--out", str(out_dir / f"{name}.csv"), "--no-timestamp"]


def make_inputs(cli, names, out_dir: Path, seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(generate_args(name, out_dir, seed))
        if code != 0:
            raise RuntimeError(f"kellyfe generate {name} exited with {code}")


def main(argv) -> int:
    checkout, out_dir, seed, *names = argv
    start = time.perf_counter()
    sys.path.insert(0, str(Path(checkout) / "src"))
    from kellyfe import cli

    make_inputs(cli, names, Path(out_dir), int(seed))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
