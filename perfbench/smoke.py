"""Smoke check of the benchmark: every workload once, at reduced length.

    python3 perfbench/smoke.py

Runs ``run.py --quick`` for each workload with ``--trace 0`` and
``--trace 1`` and asserts that the result line has the contract's keys,
that every metric BENCHMARK.json names is emitted with its unit, that no
operation failed, and that the report gives every end-to-end figure with
its unit.  On train-efe it also checks the span dump: the child spans of each
``trainer.train`` span lie inside it without overlapping, so they and
``trainer.train.self_share`` account for all of its time.  It then checks
that ``Tracer.uninstall`` restores every binding, and that the benchmark
fails without a result in a directory holding only BENCHMARK.json and
the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

REPORTED = ["setup_s", "wall_s", "ms_per_unit", "peak_rss_mb", "failed_share"]
REPORTED_TRAIN = ["train_iters_per_s", "val_macro_f1", "val_minority_recall", "f1_drop_under_flips"]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        argv.append("--quick")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], (m, entry)
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), (m, entry)
    if not trace:
        report = [line.split() for line in lines if line.startswith(f"# {workload} ")]
        named = {parts[2] for parts in report if len(parts) == 6}
        expected = REPORTED + (REPORTED_TRAIN if workload.startswith("train-") else [])
        assert set(expected) <= named, set(expected) - named
    if trace and workload == "train-efe":
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        assert metrics["kelly.clamp_probability_rows.calls_per_iter"] == 8.0
        check_train_children(OUT / workload / "spans.csv")
    print(f"ok {workload} trace={trace}: {len(result['metrics'])} metrics, {result['attempted']} operations")


def check_train_children(path: Path) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        spans = list(csv.DictReader(fh))
    children: dict[int, list[tuple[int, int]]] = {}
    for row in spans:
        children.setdefault(int(row["parent"]), []).append((int(row["start_ns"]), int(row["end_ns"])))
    trains = [i for i, row in enumerate(spans) if row["name"] == "trainer.train"]
    assert trains
    for i in trains:
        start, end = int(spans[i]["start_ns"]), int(spans[i]["end_ns"])
        previous_end = start
        for child_start, child_end in sorted(children.get(i, [])):
            assert previous_end <= child_start <= child_end <= end
            previous_end = child_end


def check_uninstall() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import kellyfe.cli  # noqa: F401  (loads every layer)

    modules = [sys.modules[f"kellyfe.{layer}"] for layer in LAYERS]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install()
    assert any(vars(m) != b for m, b in zip(modules, before))
    tracer.uninstall()
    assert all(vars(m) == b for m, b in zip(modules, before))
    print("ok uninstall restores every binding")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok bare directory exits", proc.returncode)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace)
    check_uninstall()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
