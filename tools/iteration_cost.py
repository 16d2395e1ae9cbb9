"""Marginal cost of one training iteration: wall time and minor page faults.

    python3 tools/iteration_cost.py --loss efe --mode grpr [--src PATH]
    python3 tools/iteration_cost.py --loss ce --mode grnp --src A --src B

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
this checkout's ``src``).

Given two ``--src`` trees, it measures them as ten alternating pairs
(PAIRS) instead, each measurement in a fresh interpreter (odd pairs run
A first, even pairs B first), and prints per tree the median and
quartiles of the milliseconds, the median faults per iteration, and in
how many pairs the tree was faster.  A single measurement swings by tens of percent
on a shared host, so compare two trees only this way.  Uses only the
standard library and kellyfe.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP = 400
REPEATS = 5
PAIRS = 10
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


LINE = re.compile(r": ([0-9.]+) ms and (-?[0-9.]+) minor page faults per iteration")


def one_interpreter(src: Path, loss: str, mode: str) -> tuple[float, float]:
    """(ms, faults) per iteration of ``src``, measured by this script in a fresh interpreter."""
    argv = [sys.executable, __file__, "--loss", loss, "--mode", mode, "--src", str(src)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    ms, faults = LINE.search(out).groups()
    return float(ms), float(faults)


def paired(srcs: list[Path], loss: str, mode: str) -> None:
    """Alternating pairs of two trees; prints one summary line per tree."""
    ms = ([], [])
    faults = ([], [])
    for pair in range(1, PAIRS + 1):
        for side in (0, 1) if pair % 2 else (1, 0):
            m, f = one_interpreter(srcs[side], loss, mode)
            ms[side].append(m)
            faults[side].append(f)
    for side in (0, 1):
        q1, median, q3 = statistics.quantiles(ms[side], n=4)
        wins = sum(m < o for m, o in zip(ms[side], ms[1 - side]))
        print(
            f"{srcs[side]}: {loss}/{mode} {median:.3f} ms per iteration (quartiles {q1:.3f}-{q3:.3f}),"
            f" {statistics.median(faults[side]):.1f} minor page faults, faster in {wins} of {PAIRS} pairs"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loss", required=True)
    parser.add_argument("--mode", required=True)
    parser.add_argument(
        "--src", type=Path, action="append", help="directory holding the kellyfe package (default: this checkout's src)"
    )
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    for src in srcs:
        if not (src / "kellyfe" / "__init__.py").is_file():
            parser.error(f"{src} holds no kellyfe package")
    if len(srcs) > 2:
        parser.error("give one --src, or two")
    if len(srcs) == 2:
        paired(srcs, args.loss, args.mode)
        return 0
    src = srcs[0]
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
