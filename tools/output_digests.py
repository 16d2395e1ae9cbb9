"""sha256 of the generated inputs, train outputs and verify stdout for the determinism tables.

    python3 tools/output_digests.py [--src PATH] [--work DIR]
    python3 tools/output_digests.py --src A --src B [--work DIR]

Writes the acceptance-config inputs with ``kellyfe generate`` (3 classes,
2000 rows, class split 90/9/1, separation 3, prior noise 0.1; train rows
from seed 1, clean and with 20% flipped reference labels, validation rows
from seed 2), a 20-class set of the same size (one class at 43%, the
others at 3% each), ``tie92`` (92 rows split 0.7/0.2/0.1, seed 1,
whose class counts rest on a largest-remainder tie that the rounding of
the frequencies' division by their sum decides) and ``wide`` (7 classes,
5 features, 4097 rows, seed 3: more features than the other inputs, and
one row past every power-of-two block of rows up to 4096, so a CSV
writer that works in blocks is checked past a block's edge).  ``val1`` is
``val``'s header and first data row: a one-row validation set, which
``generate`` cannot make, as it writes one sample per class at least.  It
prints one markdown row per input with the sha256 of its CSV and of the
stdout of ``generate`` (with the output path replaced by the input's
name; ``val1`` names its source instead), runs ``kellyfe train --seed 5 --max-iterations 250``
for each of the 37 configurations below and prints one markdown row per
configuration with the sha256 of ``history.csv``, ``model.json`` and
``metrics.json``.  Two of the configurations come from a ``--config``
file that sets two hidden layers and dropout.  The five 20-class runs
(efe, ce, wfocal, lovasz and efe in ngpr mode) take the sweep, the softmax and the losses to a
class count where a candidate set and its rest can each hold many outcomes;
wfocal counts its 20 class weights on every step and validation pass,
lovasz sorts and sums 20 classes at once, and efe ngpr takes the ng*
fallback, the argmax posterior of the rows that admit nothing.  Four runs
(efe in grpr, ngpr and ngnp mode, and ce) validate on ``val1``, the
smallest validation state a run holds.  Two more
(efe and ce on the clean rows) validate on ``val300``, 300 rows of the
validation recipe (seed 2): at that batch size a BLAS matrix product may
take another kernel than at 2000, so a change of layout can move their
bits where the 2000-row runs keep them.  The last two set the batch
size: efe at 40, so that every epoch of 2000 rows ends on a full batch
(the default 32 leaves a 16-row tail), and wce at 1, whose one-row
batches count their class weights from one label.  A third table gives
the exit code and the sha256 of the stdout of seven ``kellyfe verify``
runs: one per suite, the kelly suite again at 300 trials and seed 7919,
whose 3- and 4-class pairs take the grid oracle through ~200 more rows,
at 2 trials and seed 3, which draws no 4-class pair, and at 1 trial and
seed 7919, whose one 2-class pair is the smallest stack of rows the suite
makes, and the lovasz suite at 3 trials and seed 7919, which draws no
convexity pair of 4-8 samples.
Every call runs ``python -m kellyfe.cli`` in a fresh interpreter on the
package under ``--src`` (default: this checkout's ``src``).  A change that
claims byte-identical outputs prints the same tables as its parent.  Given
two ``--src`` trees, the script makes both tables and prints only the rows
that differ, the first tree's prefixed ``-`` and the second's ``+``.
Under each differing train row it prints the largest relative difference
(relative to the first tree) between the numbers of the two runs' first
50 ``history.csv`` rows, the check that a declared numbers change keeps
its runs within rounding of its parent's.  It exits 1 if any row differs
and 0, printing nothing, if none does.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATE = ["--samples", "2000", "--separation", "3", "--prior-noise", "0.1", "--no-timestamp"]
K3 = ["--classes", "3", "--frequencies", "0.9,0.09,0.01"]
K20 = ["--classes", "20", "--frequencies", ",".join(["0.43"] + ["0.03"] * 19)]
INPUTS = {
    "clean": [*K3, "--seed", "1"],
    "flip20": [*K3, "--seed", "1", "--label-flip", "0.2"],
    "val": [*K3, "--seed", "2"],
    "k20": [*K20, "--seed", "1"],
    "k20-val": [*K20, "--seed", "2"],
    "val300": [*K3, "--seed", "2", "--samples", "300"],
    "tie92": ["--classes", "3", "--frequencies", "0.7,0.2,0.1", "--seed", "1", "--samples", "92"],
    "wide": [
        "--classes", "7", "--features", "5", "--frequencies", "0.4,0.2,0.1,0.1,0.1,0.05,0.05", "--seed", "3",
        "--samples", "4097",
    ],
}
# (loss label, extra train flags, mode)
K3_RUNS = [
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
    ("efe, --config hidden [8, 8] dropout 0.8", ["--config", "{config}"], "grpr"),
]
EFE_CE_RUNS = [
    ("efe", ["--loss", "efe"], "grpr"),
    ("ce", ["--loss", "ce"], "grpr"),
]
K20_RUNS = [
    *EFE_CE_RUNS, ("wfocal", ["--loss", "wfocal"], "grpr"), ("lovasz", ["--loss", "lovasz"], "grpr"),
    ("efe", ["--loss", "efe"], "ngpr"),
]
# a one-row validation pass, with and without candidate sets
VAL1_RUNS = [*(("efe", ["--loss", "efe"], mode) for mode in ("grpr", "ngpr", "ngnp")), ("ce", ["--loss", "ce"], "grpr")]
# an epoch of 2000 rows that ends on a full batch, and one-row batches whose weights count one label
BATCH_SIZE_RUNS = [
    ("efe --batch-size 40", ["--loss", "efe", "--batch-size", "40"], "grpr"),
    ("wce --batch-size 1", ["--loss", "wce", "--batch-size", "1"], "grpr"),
]
# (train input, validation input, runs)
TABLE = [
    ("clean", "val", K3_RUNS), ("flip20", "val", K3_RUNS), ("k20", "k20-val", K20_RUNS),
    ("clean", "val300", EFE_CE_RUNS), ("clean", "val", BATCH_SIZE_RUNS), ("clean", "val1", VAL1_RUNS),
]
CONFIG = {"loss": "efe", "hidden_widths": [8, 8], "dropout_retention": 0.8}
VERIFY = [
    ["--suite", "gradients", "--trials", "30", "--seed", "0"],
    ["--suite", "kelly", "--trials", "100", "--seed", "0"],
    ["--suite", "kelly", "--trials", "300", "--seed", "7919"],
    ["--suite", "kelly", "--trials", "2", "--seed", "3"],
    ["--suite", "kelly", "--trials", "1", "--seed", "7919"],
    ["--suite", "lovasz", "--seed", "0"],
    ["--suite", "lovasz", "--trials", "3", "--seed", "7919"],
]
TRAIN = ["--seed", "5", "--max-iterations", "250", "--no-timestamp"]
OUTPUTS = ("history.csv", "model.json", "metrics.json")
HISTORY_ROWS = 50


def kellyfe(src: Path, argv: list[str], allowed=(0,)) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "kellyfe.cli", *argv], env=env, capture_output=True
    )
    if proc.returncode not in allowed:
        raise SystemExit(
            f"kellyfe {' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr.decode()}"
        )
    return proc


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def history_difference(first: Path, second: Path) -> float:
    """Largest difference, relative to ``first``, between the numbers of the first HISTORY_ROWS rows of two history.csv files."""
    rows = [path.read_text(encoding="utf-8").splitlines()[1 : HISTORY_ROWS + 1] for path in (first, second)]
    worst = 0.0
    for row_a, row_b in zip(*rows):
        for a, b in zip(row_a.split(","), row_b.split(",")):
            if a != b:
                a, b = float(a), float(b)
                worst = max(worst, abs(a - b) / abs(a) if a else float("inf"))
    return worst


def digest_table(src: Path, work: Path) -> tuple[list[str], dict[int, Path]]:
    """The table rows, and the history.csv of each train row by its index in them."""
    histories = {}
    rows = ["| input | csv | stdout |", "|---|---|---|"]
    for name, flags in INPUTS.items():
        path = work / f"{name}.csv"
        proc = kellyfe(src, ["generate", *GENERATE, *flags, "--out", str(path)])
        # stdout names the output path, which differs between the two trees' work directories
        stdout = proc.stdout.replace(str(path).encode(), name.encode())
        rows.append(f"| {name} | {sha256(path.read_bytes())} | {sha256(stdout)} |")
    val1 = work / "val1.csv"
    val1.write_bytes(b"".join((work / "val.csv").read_bytes().splitlines(keepends=True)[:2]))
    rows.append(f"| val1 | {sha256(val1.read_bytes())} | (val's first 2 lines) |")
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    rows += [
        "",
        "| data | loss | mode | " + " | ".join(OUTPUTS) + " |",
        "|---|---|---|" + "---|" * len(OUTPUTS),
    ]
    for data, val, runs in TABLE:
        for label, loss_flags, mode in runs:
            out = work / f"train-{len(rows)}"
            kellyfe(src, [
                "train", *(f.format(config=config) for f in loss_flags), "--mode", mode, *TRAIN,
                "--train", str(work / f"{data}.csv"), "--val", str(work / f"{val}.csv"),
                "--out-dir", str(out),
            ])
            digests = [sha256((out / name).read_bytes()) for name in OUTPUTS]
            histories[len(rows)] = out / "history.csv"
            shown = data if val.endswith("val") else f"{data}/{val}"
            rows.append(f"| {shown} | {label} | {mode} | " + " | ".join(digests) + " |")
    rows += ["", "| verify | exit | stdout |", "|---|---|---|"]
    for flags in VERIFY:
        # a failed property exits 1 and is part of what must not change
        proc = kellyfe(src, ["verify", *flags, "--no-timestamp"], allowed=(0, 1))
        rows.append(f"| {' '.join(flags)} | {proc.returncode} | {sha256(proc.stdout)} |")
    return rows, histories


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, action="append",
        help="directory holding the kellyfe package (default: this checkout's src); give two to compare them",
    )
    parser.add_argument("--work", type=Path, help="directory for inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.src or [ROOT / "src"]]
    if len(srcs) > 2:
        parser.error("give one --src, or two")
    for src in srcs:
        if not (src / "kellyfe" / "__init__.py").is_file():
            parser.error(f"{src} holds no kellyfe package")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        tables = []
        for i, src in enumerate(srcs):
            tree_work = work / str(i) if len(srcs) == 2 else work
            tree_work.mkdir(parents=True, exist_ok=True)
            tables.append(digest_table(src, tree_work))
        if len(tables) == 1:
            print("\n".join(tables[0][0]))
            return 0
        (rows_a, histories_a), (rows_b, histories_b) = tables
        differ = [i for i, (a, b) in enumerate(zip(rows_a, rows_b)) if a != b]
        for i in differ:
            print(f"-{rows_a[i]}\n+{rows_b[i]}")
            if i in histories_a:
                difference = history_difference(histories_a[i], histories_b[i])
                print(f"  history.csv rows 1-{HISTORY_ROWS}: largest relative difference {difference:.2g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
