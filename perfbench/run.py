"""End-to-end and per-layer benchmark of the kellyfe CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process and one thread of load drive ``kellyfe.cli.main`` in-process as
a closed loop with one client: each CLI call waits for the previous one.
For the train workloads the seed makes the input CSVs (see ``inputs.py``)
and is the ``kellyfe train --seed``; verify-oracles hands it to
``kellyfe verify --seed``.  Workloads:

    train-efe         kellyfe train --loss efe --mode grpr, clean and 20% flipped labels
    train-supervised  ce/grnp clean, wfocal/grnp clean and 20% flipped
    verify-oracles    kellyfe verify --suite kelly, then --suite lovasz, --seed <n>

verify-oracles leaves out ``--suite gradients``: on about one seed in
eight its ``gradient-efe`` property reports FAIL (the analytic EFE
gradient is chained through the 1e-8 probability clamp at saturated
logits), and a workload must be one on which no operation fails.

The host's speed drifts by tens of percent within seconds and over
minutes, so ``--trace 0`` times many short calls, puts each at nominal
host speed with a probe timed during it (``HostSpeed``) and reports
medians.  A train workload first runs each of its operations once
in full (up to 3000 iterations, for ``wall_s`` and the quality figures);
a pass then runs each operation stopped after one and after
TRAIN_UNIT_ITERATIONS iterations, a prefix of the same deterministic run,
to measure the marginal cost of an iteration.  A verify-oracles pass runs
the kelly suite at VERIFY_TRIALS trials and the lovasz suite.  Passes
repeat until the next one would end after ``--seconds`` (at least two, so
each call's outputs can be compared byte for byte).  With ``--trace 0``
the last line holds the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` each full operation runs untraced and then traced, and the
last line holds the per-layer metrics (``spans.py``).
Earlier lines give host metadata and the full report, with units; the
metrics and the workload reasons are described in ``layer_map.json``.
Every operation is checked: ``train`` exits 0, writes only finite
history values and writes byte-identical ``history.csv``, ``model.json``
and ``metrics.json`` on every pass; ``verify`` passes every property of
its suite and prints the same lines on every pass.  A failed check counts the
operation as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# One BLAS thread keeps the load at one thread and the timings steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

MAX_ITERATIONS = 3000
PATIENCE = 100
# iterations of the capped train calls that ms_per_unit times: about a
# second each, so a run takes the median over several passes
TRAIN_UNIT_ITERATIONS = 400
QUICK_MAX_ITERATIONS = 40
QUICK_TRIALS = 3
# kelly-suite trials per verify call: about 1.5 s, so a run takes the
# median over many passes
VERIFY_TRIALS = {"kelly": 100}
# properties that `kellyfe verify --suite <name>` checks, per suite
VERIFY_SUITES = {"kelly": 7, "lovasz": 4}
# set-ups timed before and after the passes: the median then spans the
# whole run, not its first seconds, on a host whose speed drifts
SETUP_REPEATS = (5, 6)
MIN_PASSES = 2
# seconds of one host-speed probe at nominal speed (about its time on a
# 2-core x86_64 host); it sets only the scale of the normalized timings
PROBE_S = 0.002
PROBE_INTERVAL_S = 0.05
MIN_PROBES = 8

# (loss, mode, training input) per `kellyfe train` operation
TRAIN_OPS = {
    "train-efe": [("efe", "grpr", "train_clean"), ("efe", "grpr", "train_flip")],
    "train-supervised": [
        ("ce", "grnp", "train_clean"),
        ("wfocal", "grnp", "train_clean"),
        ("wfocal", "grnp", "train_flip"),
    ],
}
WORKLOADS = (*TRAIN_OPS, "verify-oracles")

# units of the report lines that BENCHMARK.json does not list
REPORT_UNITS = {
    "wall_s": "s",
    "train_iters_per_s": "1/s",
    "train_call_fixed_ms": "ms",
    "val_macro_f1": "share",
    "val_minority_recall": "share",
    "f1_drop_under_flips": "share",
    "failed_share": "share",
    "passes": "count",
    "host_speed": "x",
}


def unit_of(name: str, listed: dict[str, str]) -> str:
    """Unit of a report line: as BENCHMARK.json lists it, else by the metric naming scheme."""
    if name in listed:
        return listed[name]
    if name in REPORT_UNITS:
        return REPORT_UNITS[name]
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(".s"):
        return "s"
    return "share" if name.endswith("share") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="reduced length, for smoke.py")
    return parser.parse_args(argv)


class HostSpeed:
    """How fast the host runs, from a fixed probe timed during each call.

    A shared host's speed drifts by tens of percent within seconds and over
    minutes with the load of its other tenants.  The probe does a fixed mix
    of interpreter work, numpy reductions on 200-element arrays and small
    numpy calls that no kellyfe change can move, so its time drifts with
    the host.  ``timed`` runs a call with a SIGALRM timer that runs the
    probe every PROBE_INTERVAL_S of wall time; the call's seconds, minus the
    probes', times PROBE_S over the probes' mean seconds read as if the host
    ran at nominal speed.  ``samples`` keeps that scale per timed call (1 at
    nominal speed, below 1 when the host is slow).
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.v = np.random.default_rng(0).random(200)
        self.samples: list[float] = []
        self._probes: list[float] = []
        self._probing = False
        self._probe()  # warm-up

    def _probe(self) -> None:
        if self._probing:  # a timer signal that arrives during a probe
            return
        self._probing = True
        np, v = self.np, self.v
        start = time.perf_counter()
        try:
            acc = 0
            for i in range(2000):
                acc = (acc + i * 7) % 1000003
            for i in range(0, 200, 10):
                acc += float((v[:, None] + v[None, : i + 1]).max(axis=1).sum())
            for j in range(200):
                acc += float(np.log(v[j % 100 : j % 100 + 8] + 1.0).sum())
        finally:
            self._probes.append(time.perf_counter() - start)
            self._probing = False

    def _scale(self) -> float:
        while len(self._probes) < MIN_PROBES:  # a call shorter than a few probe intervals
            self._probe()
        scale = PROBE_S / statistics.fmean(self._probes)
        self.samples.append(scale)
        return scale

    def timed(self, func):
        """Run ``func()``; returns (its seconds at nominal host speed, its result)."""
        self._probes = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._probe())
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = func()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start - sum(self._probes)
        return elapsed * self._scale(), result

    def beside(self, func) -> float:
        """Run ``func()``, which returns seconds measured in a child process,
        and put them at nominal speed with probes run just before and after."""
        self._probes = []
        for _ in range(MIN_PROBES):
            self._probe()
        seconds = func()
        for _ in range(MIN_PROBES):
            self._probe()
        return seconds * self._scale()


class Workload:
    """The operations of one workload and the checks on their outputs."""

    def __init__(self, cli, name: str, seed: int, quick: bool, inputs: Path, speed: HostSpeed | None):
        self.cli = cli
        self.speed = speed
        self.name = name
        self.seed = seed
        self.quick = quick
        self.max_iterations = QUICK_MAX_ITERATIONS if quick else MAX_ITERATIONS
        self.unit_iterations = min(TRAIN_UNIT_ITERATIONS, self.max_iterations)
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.first_outputs: dict[str, object] = {}
        self.quality: dict[tuple[str, str, str], tuple[float, float]] = {}

    def call(self, argv) -> tuple[float, int | None, str]:
        """Run one CLI call; returns (seconds, exit code or None, stdout).

        The seconds are at nominal host speed when the workload has a ``HostSpeed``.
        """
        buf = io.StringIO()

        def run():
            try:
                with contextlib.redirect_stdout(buf):
                    return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an operation that raises counts as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                return None

        if self.speed is None:
            start = time.perf_counter()
            code = run()
            return time.perf_counter() - start, code, buf.getvalue()
        elapsed, code = self.speed.timed(run)
        return elapsed, code, buf.getvalue()

    def run_pass(self) -> list[tuple[float, int, float]]:
        """One pass over the operations.

        Returns, per call, (seconds in the CLI, iterations, seconds of the
        same train call stopped after one iteration).  A train call is
        capped at ``unit_iterations``; the one-iteration call measures the
        cost every call pays once (CSV load, evaluation, output writes), so
        that ``ms_per_unit`` can leave it out.
        """
        if self.name == "verify-oracles":
            return [(self._verify(suite), 0, 0.0) for suite in VERIFY_SUITES]
        timings = []
        for op in TRAIN_OPS[self.name]:
            one, _ = self._train(op, 1)
            capped, iterations = self._train(op, self.unit_iterations)
            timings.append((capped, iterations, one))
        return timings

    def full_runs(self) -> list[tuple[float, int]]:
        """Each train operation once at full length: (seconds, iterations) per operation."""
        return [self._train(op, self.max_iterations) for op in TRAIN_OPS.get(self.name, [])]

    def operations(self) -> list:
        """One callable per operation, each running it once and returning its seconds."""
        if self.name == "verify-oracles":
            return [lambda suite=suite: self._verify(suite) for suite in VERIFY_SUITES]
        return [lambda op=op: self._train(op, self.max_iterations)[0] for op in TRAIN_OPS[self.name]]

    def _train(self, op: tuple[str, str, str], max_iterations: int) -> tuple[float, int]:
        loss, mode, train_input = op
        out = OUT / self.name / f"{loss}-{mode}-{train_input}-{max_iterations}"
        argv = [
            "train", "--loss", loss, "--mode", mode,
            "--train", str(self.inputs / f"{train_input}.csv"),
            "--val", str(self.inputs / "val.csv"),
            "--out-dir", str(out),
            "--max-iterations", str(max_iterations),
            "--patience", str(PATIENCE), "--seed", str(self.seed), "--no-timestamp",
        ]
        elapsed, code, _ = self.call(argv)
        self.attempted += 1
        problem, iterations, digest = self._check_train_outputs(code, out)
        if problem is None and digest != self.first_outputs.setdefault(out.name, digest):
            problem = "outputs differ from the first pass"
        if problem is not None:
            self.failed += 1
            print(f"FAILED train {loss}/{mode} on {train_input}: {problem}", file=sys.stderr)
        elif max_iterations == self.max_iterations:
            metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
            self.quality.setdefault(op, (metrics["macro_f1"], metrics["recall"][-1]))
        return elapsed, iterations

    @staticmethod
    def _check_train_outputs(code, out: Path):
        if code != 0:
            return f"exit code {code}", 0, None
        try:
            files = [(out / name).read_bytes() for name in ("history.csv", "model.json", "metrics.json")]
        except OSError as exc:
            return f"missing output: {exc}", 0, None
        rows = files[0].decode("utf-8").splitlines()[1:]
        for row in rows:
            if not all(math.isfinite(float(cell)) for cell in row.split(",") if cell):
                return "non-finite value in history.csv", 0, None
        return None, len(rows), [hashlib.sha256(blob).hexdigest() for blob in files]

    def _verify(self, suite: str) -> float:
        argv = ["verify", "--suite", suite, "--seed", str(self.seed), "--no-timestamp"]
        if self.quick:
            argv += ["--trials", str(QUICK_TRIALS)]
        elif suite in VERIFY_TRIALS:
            argv += ["--trials", str(VERIFY_TRIALS[suite])]
        elapsed, code, text = self.call(argv)
        lines = [line for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
        first = self.first_outputs.setdefault(f"verify-{suite}", lines)
        passed = sum(1 for line, ref in zip(lines, first) if line == ref and line.startswith("PASS "))
        expected = VERIFY_SUITES[suite]
        self.attempted += expected
        # a suite that prints more properties than listed has changed: count that too
        self.failed += max(expected - passed, int(passed > expected))
        if passed != expected:
            print(f"FAILED verify {suite}: exit code {code}, {passed}/{expected} passed as before\n{text}", file=sys.stderr)
        return elapsed

    def quality_report(self) -> dict[str, float]:
        ops = TRAIN_OPS.get(self.name, [])
        if not ops or len(self.quality) != len(ops):
            return {}
        flipped = next(op for op in ops if op[2] == "train_flip")
        clean = (*flipped[:2], "train_clean")
        return {
            "val_macro_f1": statistics.fmean(self.quality[op][0] for op in ops),
            "val_minority_recall": statistics.fmean(self.quality[op][1] for op in ops),
            "f1_drop_under_flips": self.quality[clean][0] - self.quality[flipped][0],
        }


def input_names(workload: str) -> list[str]:
    """The training CSVs of a workload's calls plus the validation CSV; none for verify-oracles."""
    ops = TRAIN_OPS.get(workload, [])
    return sorted({op[2] for op in ops} | {"val"}) if ops else []


def time_setups(workload: str, seed: int, reps: range, speed: HostSpeed) -> list[float]:
    """Seconds to import kellyfe and write the inputs, once per repeat in a fresh interpreter.

    The seconds are at nominal host speed (see ``HostSpeed``).

    Repeat ``rep`` writes to ``inputs-<rep>``; every repeat must write
    byte-identical CSVs to those of repeat 0, which the workload reads.
    """
    names = input_names(workload)

    def digest(target: Path) -> list[str]:
        return [hashlib.sha256((target / f"{n}.csv").read_bytes()).hexdigest() for n in names]

    times = []
    for rep in reps:
        target = OUT / workload / f"inputs-{rep}"
        shutil.rmtree(target, ignore_errors=True)

        def child() -> float:
            result = subprocess.run(
                [sys.executable, str(HERE / "inputs.py"), str(ROOT), str(target), str(seed), *names],
                capture_output=True, text=True, check=True, timeout=120,
            )
            return float(result.stdout.strip().splitlines()[-1])

        times.append(speed.beside(child))
        if digest(target) != digest(OUT / workload / "inputs-0"):
            raise RuntimeError("set-up wrote different inputs for one seed")
    return times


def timed_passes(run_one, seconds: float, min_passes: int) -> None:
    """Call run_one() until another call would end after ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    passes = 0
    while True:
        began = time.perf_counter()
        run_one()
        passes += 1
        longest = max(longest, time.perf_counter() - began)
        if passes >= min_passes and time.perf_counter() - start + longest > seconds:
            return


def blas_info() -> dict:
    """BLAS library and its thread count, asked of the OpenBLAS that numpy ships.

    Either reads ``None`` where this numpy cannot tell it.
    """
    import ctypes
    import glob

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        name = None
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            cdll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get_threads = getattr(cdll, symbol, None)
            if get_threads is not None:
                threads = get_threads()
                break
    return {"blas": name, "blas_threads": threads}


def host_metadata() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "machine": platform.machine(),
        "processes": 1,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kellyfe" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/kellyfe package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)

    from inputs import make_inputs
    from kellyfe import cli

    if args.trace:
        inputs_dir = OUT / args.workload / "inputs-0"
        make_inputs(cli, input_names(args.workload), inputs_dir, args.seed)
        workload = Workload(cli, args.workload, args.seed, args.quick, inputs_dir, None)
        report, metric_specs = trace_run(workload, args), spec["per_layer"]
    else:
        before, after = (1, 1) if args.quick else SETUP_REPEATS
        speed = HostSpeed()
        setup_times = time_setups(args.workload, args.seed, range(before), speed)
        workload = Workload(cli, args.workload, args.seed, args.quick, OUT / args.workload / "inputs-0", speed)
        report, metric_specs = plain_run(workload, args), spec["end_to_end"]
        setup_times += time_setups(args.workload, args.seed, range(before, before + after), speed)
        report["setup_s"] = statistics.median(setup_times)
        report["host_speed"] = statistics.median(speed.samples)

    report["failed_share"] = workload.failed / workload.attempted
    host = host_metadata()
    print(f"# host {json.dumps(host)}")
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in report.items():
        print(f"# {args.workload} {name} = {value!r} {unit_of(name, listed)}")
    # a per-layer metric reads 0 on a workload that never reaches that layer
    metrics = {
        m["name"]: {"value": report.get(m["name"], 0.0) if args.trace else report[m["name"]], "unit": m["unit"]}
        for m in metric_specs
    }
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    (OUT / args.workload / f"result-trace{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "host": host, "report": report, **result}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


def plain_run(workload: Workload, args) -> dict[str, float]:
    start = time.perf_counter()
    full = workload.full_runs()
    passes: list[list[tuple[float, int, float]]] = []
    remaining = args.seconds - (time.perf_counter() - start)
    timed_passes(lambda: passes.append(workload.run_pass()), remaining, MIN_PASSES)
    pass_ms = statistics.median(1e3 * sum(op[0] for op in p) for p in passes)
    if full:
        report = {
            "wall_s": sum(seconds for seconds, _ in full),
            "train_iters_per_s": sum(n for _, n in full) / sum(seconds for seconds, _ in full),
            **train_rates(passes),
        }
    else:
        report = {"wall_s": pass_ms / 1e3, "ms_per_unit": pass_ms}
    report.update(workload.quality_report())
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["passes"] = len(passes)
    return report


def train_rates(passes) -> dict[str, float]:
    """Per-iteration and per-call costs of the capped train calls.

    ``ms_per_unit`` is the marginal cost of one training iteration: per
    operation (capped seconds - one-iteration seconds) / (iterations - 1),
    the geometric mean over the operations and the median over passes.
    Taking out the per-call cost and weighting every operation alike keeps
    it from depending on where early stopping ends a run, which the seed
    decides.
    """
    n_ops = len(passes[0])
    fixed = [statistics.median(p[i][2] for p in passes) for i in range(n_ops)]
    marginal = []
    for p in passes:
        per_op = [(p[i][0] - fixed[i]) / (p[i][1] - 1) for i in range(n_ops) if p[i][1] > 1]
        if per_op:
            marginal.append(statistics.geometric_mean(per_op))
    if not marginal:
        raise RuntimeError("no train operation ran more than one iteration")
    return {
        "ms_per_unit": 1e3 * statistics.median(marginal),
        "train_call_fixed_ms": 1e3 * statistics.fmean(fixed),
    }


def trace_run(workload: Workload, args) -> dict[str, float]:
    """Run every operation untraced and then traced, back to back, until time is up."""
    from spans import Tracer

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []

    def traced_pass():
        for run_op in workload.operations():
            untraced.append(run_op())
            tracer.install()
            try:
                traced.append(run_op())
            finally:
                tracer.uninstall()
        tracer.run_id += 1

    timed_passes(traced_pass, args.seconds, 1)
    report = tracer.metrics(tracer.run_id)
    report["tracing_overhead_share"] = sum(traced) / sum(untraced) - 1.0
    report["passes"] = tracer.run_id
    tracer.dump(OUT / args.workload / "spans.csv")
    return report


if __name__ == "__main__":
    sys.exit(main())
