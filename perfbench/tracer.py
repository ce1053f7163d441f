"""Spans and counters recorded around calls into bohmsim's public functions.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each traced function with a wrapper in every ``bohmsim`` namespace that
bound it: the modules import with ``from .x import y``, so wrapping only the
defining module would miss, for example, ``trajectories.velocity_field`` or
``cli.evolve``.  Wrappers pass arguments and results through untouched.

Each call becomes a span ``(name, start, end, parent)``; spans stay in
memory and are written out once, by ``Tracer.dump``.  Counters are updated
at the same boundaries, from the arguments and results of the call.
Snapshots are identified by ``id()`` only while their evolution record is
alive, so an address reused after the record is freed is never miscounted.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
import weakref

import numpy as np

# Functions wrapped, per bohmsim module.  Names a metric reports are listed
# in BENCHMARK.json's per_layer; the others are wrapped so their time is not
# charged to the caller's self time.
TARGETS = {
    "propagator": ("evolve", "continuity_residual"),
    "wavefield": ("velocity_field",),
    "quantum_potential": ("compute_qfields",),
    "_interp": ("interpolate", "stencil_valid"),
    "trajectories": (
        "integrate_guidance_batch",
        "integrate_newton_batch",
        "integrate_guidance",
        "integrate_newton",
        "crosscheck",
    ),
    "ensemble": ("evolve_ensemble", "sample_equilibrium", "equivariance_distance"),
    "manybody": ("run_cm_experiment", "run_bec_experiment", "no_tunneling_check", "build_symmetrized"),
    "cli": ("run", "_write_csv", "parse_config"),
}

COUNTERS = (
    "split_steps",
    "snapshots",
    "snapshot_bytes",
    "snapshots_read",
    "field_evaluations",
    "field_pairs",
    "particle_steps",
    "aborts",
    "resamples",
    "csv_bytes",
    "interpolate_points",
    "stencil_valid_points",
)


class Tracer:
    """Records spans and counters for one pass of a workload."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._live: dict[int, int] = {}  # id(snapshot) -> serial, while its record lives
        self._serials = 0
        self._read: set[int] = set()
        self._pairs: set[tuple[int, str]] = set()
        self._aborts: list[BaseException] = []  # kept alive so ids stay unique

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"bohmsim.{name}") for name in TARGETS}
        self._abort_type = modules["trajectories"].TrajectoryAbort
        namespaces = [m for name, m in sys.modules.items() if name == "bohmsim" or name.startswith("bohmsim.")]
        for module_name, functions in TARGETS.items():
            module = modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self._abort_type as exc:
                if not any(exc is seen for seen in self._aborts):
                    self._aborts.append(exc)
                    self.counts["aborts"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _after_propagator_evolve(self, record, *args, **kwargs) -> None:
        points = math.prod(record.grid.shape)
        self.counts["split_steps"] += len(record.norm_drift)
        self.counts["snapshots"] += len(record)
        self.counts["snapshot_bytes"] += len(record) * points * 16
        ids = []
        for snap in record.snapshots:
            self._serials += 1
            self._live[id(snap)] = self._serials
            ids.append(id(snap))
        weakref.finalize(record, self._forget, ids)

    def _forget(self, ids) -> None:
        for key in ids:
            self._live.pop(key, None)

    def _field_read(self, wf, kind: str) -> None:
        serial = self._live.get(id(wf))
        if serial is None:
            return
        self.counts["field_evaluations"] += 1
        if serial not in self._read:
            self._read.add(serial)
            self.counts["snapshots_read"] += 1
        if (serial, kind) not in self._pairs:
            self._pairs.add((serial, kind))
            self.counts["field_pairs"] += 1

    def _before_wavefield_velocity_field(self, wf, *args, **kwargs) -> None:
        self._field_read(wf, "velocity")

    def _before_quantum_potential_compute_qfields(self, wf, *args, **kwargs) -> None:
        self._field_read(wf, "qforce")

    def _before__interp_interpolate(self, values, grid, x) -> None:
        self.counts["interpolate_points"] += _point_count(x)

    def _before__interp_stencil_valid(self, valid, grid, x) -> None:
        self.counts["stencil_valid_points"] += _point_count(x)

    def _after_trajectories_integrate_guidance_batch(self, result, *args, **kwargs) -> None:
        times, positions = result
        self.counts["particle_steps"] += (len(times) - 1) * positions.shape[1]

    def _after_trajectories_integrate_newton_batch(self, result, *args, **kwargs) -> None:
        times, positions, _ = result
        self.counts["particle_steps"] += (len(times) - 1) * positions.shape[1]

    def _after_manybody_run_cm_experiment(self, result, *args, **kwargs) -> None:
        self.counts["resamples"] += result.resample_count

    def _after_manybody_run_bec_experiment(self, result, *args, **kwargs) -> None:
        self.counts["resamples"] += result.resample_count

    def _after_cli__write_csv(self, result, path, *args, **kwargs) -> None:
        self.counts["csv_bytes"] += os.path.getsize(path)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"pass_id": self.pass_id, "names": self.names, "spans": self.spans, "counts": self.counts},
                fh,
            )


def _point_count(x) -> int:
    """Points in a query the way ``_interp`` reads it: (M, dims), else one."""
    shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


def summarize(trace: dict) -> dict[str, dict[str, float]]:
    """Per-function ``calls``, ``total_s`` and ``self_s`` from a dumped trace.

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for index, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for slot, (index, start, end, parent) in enumerate(spans):
        entry = out[names[index]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[slot]
    return out
