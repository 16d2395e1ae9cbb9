"""sha256 of the train outputs for the acceptance-config determinism table.

    python3 tools/output_digests.py [--src PATH] [--work DIR]

Writes the acceptance-config inputs with ``kellyfe generate`` (3 classes,
2000 rows, class split 90/9/1, separation 3, prior noise 0.1; train rows
from seed 1, clean and with 20% flipped reference labels, validation rows
from seed 2), runs ``kellyfe train --seed 5 --max-iterations 250`` for
each of the 22 configurations below and prints one markdown row per
configuration with the sha256 of ``history.csv``, ``model.json`` and
``metrics.json``.  Every call runs ``python -m kellyfe.cli`` in a fresh
interpreter on the package under ``--src`` (default: this checkout's
``src``).  A change that claims byte-identical outputs prints the same
table as its parent: run the script on both trees and diff the output.
Uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATE = [
    "--classes", "3", "--samples", "2000", "--frequencies", "0.9,0.09,0.01",
    "--separation", "3", "--prior-noise", "0.1", "--no-timestamp",
]
INPUTS = {
    "clean": ["--seed", "1"],
    "flip20": ["--seed", "1", "--label-flip", "0.2"],
    "val": ["--seed", "2"],
}
# (loss label, extra train flags, mode), run on both clean and flip20
RUNS = [
    ("efe", ["--loss", "efe"], "grpr"),
    ("ce", ["--loss", "ce"], "grpr"),
    ("wce", ["--loss", "wce"], "grpr"),
    ("focal", ["--loss", "focal"], "grpr"),
    ("wfocal", ["--loss", "wfocal"], "grpr"),
    ("dice", ["--loss", "dice"], "grpr"),
    ("lovasz", ["--loss", "lovasz"], "grpr"),
    ("efe", ["--loss", "efe"], "grnp"),
    ("efe", ["--loss", "efe"], "ngpr"),
    ("efe", ["--loss", "efe"], "ngnp"),
    ("focal --gamma 0", ["--loss", "focal", "--gamma", "0"], "grnp"),
]
TRAIN = ["--seed", "5", "--max-iterations", "250", "--no-timestamp"]
OUTPUTS = ("history.csv", "model.json", "metrics.json")


def kellyfe(src: Path, argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "kellyfe.cli", *argv], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"kellyfe {' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")


def digest_table(src: Path, work: Path) -> list[str]:
    for name, flags in INPUTS.items():
        kellyfe(src, ["generate", *GENERATE, *flags, "--out", str(work / f"{name}.csv")])
    rows = [
        "| data | loss | mode | " + " | ".join(OUTPUTS) + " |",
        "|---|---|---|" + "---|" * len(OUTPUTS),
    ]
    for data in ("clean", "flip20"):
        for i, (label, loss_flags, mode) in enumerate(RUNS):
            out = work / f"{data}-{i}"
            kellyfe(src, [
                "train", *loss_flags, "--mode", mode, *TRAIN,
                "--train", str(work / f"{data}.csv"), "--val", str(work / "val.csv"),
                "--out-dir", str(out),
            ])
            digests = [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS]
            rows.append(f"| {data} | {label} | {mode} | " + " | ".join(digests) + " |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the kellyfe package")
    parser.add_argument("--work", type=Path, help="directory for inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "kellyfe" / "__init__.py").is_file():
        parser.error(f"{src} holds no kellyfe package")
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        rows = digest_table(src, args.work)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            rows = digest_table(src, Path(tmp))
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
