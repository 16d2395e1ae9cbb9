"""Marginal cost of one training iteration: wall time and minor page faults.

    python3 tools/iteration_cost.py --loss efe --mode grpr [--src PATH]

Writes the acceptance-config inputs with ``kellyfe generate`` (3 classes,
2000 train and 2000 validation rows, class split 90/9/1, separation 3,
prior noise 0.1; train rows from seed 1, validation rows from seed 2)
into a temporary directory.  Then, in this one process, it calls
``kellyfe.cli.main`` for ``kellyfe train --loss L --mode M --seed 0``
capped at 400 iterations and at 1, five times each after one warm-up
pair, and prints the marginal cost of an iteration, (capped - one) /
(iterations - 1), in milliseconds of wall time and in minor page faults
(``ru_minflt`` of this process), as the median over the repeats.  The
patience equals the cap, so early stopping does not end the capped run.
BLAS runs on one thread.  The package comes from ``--src`` (default:
this checkout's ``src``), so the same script measures two trees.  Uses
only the standard library and kellyfe.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = 400
REPEATS = 5
SEED = 0
GENERATE = [
    "--classes", "3", "--samples", "2000", "--frequencies", "0.9,0.09,0.01",
    "--separation", "3", "--prior-noise", "0.1", "--no-timestamp",
]


def run(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"kellyfe {' '.join(argv)} exited with {code}")


def train(cli, work: Path, loss: str, mode: str, cap: int) -> tuple[float, int, int]:
    """One ``kellyfe train`` call: (seconds, minor faults, iterations run)."""
    out = work / f"out-{cap}"
    argv = [
        "train", "--loss", loss, "--mode", mode, "--seed", str(SEED),
        "--train", str(work / "train.csv"), "--val", str(work / "val.csv"), "--out-dir", str(out),
        "--max-iterations", str(cap), "--patience", str(CAP), "--no-timestamp",
    ]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    run(cli, argv)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    iterations = len((out / "history.csv").read_text(encoding="utf-8").splitlines()) - 1
    return seconds, faults, iterations


def measure(cli, work: Path, loss: str, mode: str) -> tuple[float, float, int]:
    run(cli, ["generate", *GENERATE, "--seed", "1", "--out", str(work / "train.csv")])
    run(cli, ["generate", *GENERATE, "--seed", "2", "--out", str(work / "val.csv")])
    ms, faults = [], []
    for i in range(REPEATS + 1):
        one = train(cli, work, loss, mode, 1)
        capped = train(cli, work, loss, mode, CAP)
        if i == 0:
            continue  # warm-up: imports, caches and the heap's first growth
        steps = capped[2] - one[2]
        ms.append(1e3 * (capped[0] - one[0]) / steps)
        faults.append((capped[1] - one[1]) / steps)
    return statistics.median(ms), statistics.median(faults), capped[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loss", required=True)
    parser.add_argument("--mode", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the kellyfe package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "kellyfe" / "__init__.py").is_file():
        parser.error(f"{src} holds no kellyfe package")
    # one BLAS thread, set before kellyfe imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    from kellyfe import cli

    with tempfile.TemporaryDirectory() as tmp:
        ms, faults, iterations = measure(cli, Path(tmp), args.loss, args.mode)
    print(
        f"{args.loss}/{args.mode}: {ms:.3f} ms and {faults:.1f} minor page faults per iteration"
        f" (median of {REPEATS}, {iterations} iterations against 1)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
