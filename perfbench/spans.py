"""Span tracing for the benchmark, installed from outside the library.

``Tracer.install`` replaces every public kellyfe function with a timing
wrapper at each place a kellyfe module binds it (``kellyfe.trainer.forward``,
``kellyfe.verify.forward`` and ``kellyfe.network.forward`` are three
bindings of one function), so no file of the library changes.
``Tracer.uninstall`` puts the originals back; untraced runs never call
``install``.

A span has a name (``<module>.<function>``), a phase, a start, an end, a
parent and a run id (the index of the traced workload pass).  Spans are
kept in memory in flat arrays and written out by ``dump``.  The phase is
``step`` for a training batch, ``val`` for the validation pass inside
``trainer.train`` (the first 2-d array argument has as many rows as the
validation set), ``eval`` inside ``trainer.evaluate`` and ``fd`` inside
``verify``; children inherit their parent's phase.  A span's self time is
its duration minus the durations of its child spans, which never overlap
because the library is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "data", "trainer", "network", "losses", "kelly", "optimizer", "verify")
PHASES = ("", "step", "val", "eval", "fd")
_STEP, _VAL, _EVAL, _FD = 1, 2, 3, 4


class Tracer:
    """Spans and counters of the kellyfe calls made while the wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.phase = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.iterations = 0
        self.swept_rows = 0
        self.swept_candidates = 0
        self.fallback_rows = 0
        self._stack: list[int] = []
        self._val_rows: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap each public kellyfe function at every module that binds it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"kellyfe.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("kellyfe."):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, func):
        name = f"{func.__module__.removeprefix('kellyfe.')}.{func.__name__}"
        nid = self._id(name)
        own_phase = _EVAL if name == "trainer.evaluate" else _FD if name.startswith("verify.") else 0
        is_train = name == "trainer.train"
        is_sweep = name == "kelly.candidate_labels_batch"
        train_id = self._id("trainer.train")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            phase = own_phase
            if parent >= 0:
                if self.phase[parent]:
                    phase = self.phase[parent]
                elif self.name_id[parent] == train_id:
                    phase = _VAL if self._first_rows(args) == self._val_rows else _STEP
            if is_train:
                self._val_rows = len(args[2])
            idx = len(self.start)
            self.name_id.append(nid)
            self.phase.append(phase)
            self.parent.append(parent)
            self.run.append(self.run_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(time.perf_counter_ns())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                stack.pop()
            if is_train:
                self.iterations += len(result[1])
            elif is_sweep and phase in (_STEP, _VAL):
                mask, fractions, _ = result
                self.swept_rows += mask.shape[0]
                self.swept_candidates += int(mask.sum())
                self.fallback_rows += int((~fractions.any(axis=1)).sum())
            return result

        return wrapper

    @staticmethod
    def _first_rows(args) -> int | None:
        for arg in args:
            if isinstance(arg, np.ndarray) and arg.ndim == 2:
                return arg.shape[0]
        return None

    # -- results -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as CSV: name, phase, start/end ns, parent index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,phase,start_ns,end_ns,parent,run\n")
            for row in zip(self.name_id, self.phase, self.start, self.end, self.parent, self.run):
                fh.write(f"{self.names[row[0]]},{PHASES[row[1]]},{row[2]},{row[3]},{row[4]},{row[5]}\n")

    def metrics(self, traced_passes: int) -> dict[str, float]:
        """Per-layer figures from the recorded spans.

        ``<name>[.<phase>].us_per_call`` is the mean inclusive duration,
        ``<layer>.self_share`` the layer's self time over the time spent
        inside root spans, and ``trainer.iterations`` and ``verify.<suite>.s``
        are per traced pass.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        phase = np.frombuffer(self.phase, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        dur = dur.astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        root_total = dur[~has_parent].sum()

        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            of_name = name_id == nid
            if not of_name.any():
                continue
            out[f"{name}.us_per_call"] = dur[of_name].mean() / 1e3
            for pid in range(1, len(PHASES)):
                sel = of_name & (phase == pid)
                if sel.any():
                    out[f"{name}.{PHASES[pid]}.us_per_call"] = dur[sel].mean() / 1e3
        for layer in LAYERS:
            ids = [nid for nid, name in enumerate(self.names) if name.split(".")[0] == layer]
            in_layer = np.isin(name_id, ids)
            out[f"{layer}.self_share"] = self_time[in_layer].sum() / root_total if root_total else 0.0

        train = name_id == self._name_ids.get("trainer.train", -1)
        train_total = dur[train].sum()
        if train_total:
            train_idx = np.flatnonzero(train)
            under_train = np.isin(parent, train_idx)
            out["trainer.train.self_share"] = self_time[train].sum() / train_total
            out["trainer.val_pass_share"] = dur[under_train & (phase == _VAL)].sum() / train_total
        out["trainer.iterations"] = self.iterations / traced_passes
        if self.iterations:
            clamp = self._name_ids.get("kelly.clamp_probability_rows", -1)
            in_train = (name_id == clamp) & ((phase == _STEP) | (phase == _VAL))
            out["kelly.clamp_probability_rows.calls_per_iter"] = in_train.sum() / self.iterations
        if self.swept_rows:
            out["kelly.mean_candidates"] = self.swept_candidates / self.swept_rows
            out["kelly.fallback_row_share"] = self.fallback_rows / self.swept_rows
        for suite in ("kelly_suite", "lovasz_suite"):
            sel = name_id == self._name_ids.get(f"verify.{suite}", -1)
            if sel.any():
                out[f"verify.{suite}.s"] = dur[sel].sum() / 1e9 / traced_passes
        return {name: float(value) for name, value in out.items()}
