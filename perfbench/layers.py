"""Per-layer metrics of the traced run and what each one should move.

``BENCHMARK.json`` lists the per-layer metrics with their units and
directions; ``SHOULD_MOVE`` records for each, before any change is
measured, the end-to-end metrics it should move and the workloads it shows
on, so that an issue can cite the pair by name.  The ``_interp`` module is
reported as the ``interp`` layer because a metric name starts with a letter.

Times are medians over the traced passes of one run; counts repeat exactly
from pass to pass for one seed.
"""

from __future__ import annotations

import json
import os
import statistics

from worker import ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    METRICS = json.load(_fh)["per_layer"]

_CROSS, _EQUIV, _SHORT = "crosscheck-m1", "equivariance-m1e4", "short-configs"
_ALL = (_CROSS, _EQUIV, _SHORT)

# Per-layer metric: (end-to-end metrics it should move, workloads it shows on).
SHOULD_MOVE = {
    "propagator.evolve.self_s": (("wall_s", "peak_rss_mb"), (_CROSS, _SHORT)),
    "propagator.split_steps": (("wall_s",), (_CROSS, _SHORT)),
    "propagator.snapshots": (("wall_s", "peak_rss_mb"), (_CROSS, _SHORT)),
    "propagator.snapshot_mb": (("peak_rss_mb",), (_CROSS, _SHORT)),
    "propagator.snapshots_read_ratio": (("wall_s", "peak_rss_mb"), (_CROSS, _SHORT)),
    "propagator.continuity_residual.self_s": (("wall_s",), (_SHORT,)),
    "wavefield.velocity_field.calls": (("wall_s",), (_CROSS, _SHORT)),
    "wavefield.velocity_field.self_s": (("wall_s",), (_CROSS, _SHORT)),
    "quantum_potential.compute_qfields.calls": (("wall_s",), (_CROSS,)),
    "quantum_potential.compute_qfields.self_s": (("wall_s",), (_CROSS,)),
    "interp.interpolate.calls": (("wall_s",), (_CROSS,)),
    "interp.interpolate.points": (("wall_s",), (_EQUIV, _CROSS)),
    "interp.interpolate.self_s": (("wall_s",), (_EQUIV, _CROSS)),
    "interp.interpolate.ns_per_point": (("wall_s",), (_EQUIV,)),
    "interp.stencil_valid.calls": (("wall_s",), (_CROSS,)),
    "interp.stencil_valid.points": (("wall_s",), (_EQUIV, _CROSS)),
    "interp.stencil_valid.self_s": (("wall_s",), (_EQUIV, _CROSS)),
    "trajectories.integrate_guidance_batch.self_s": (("wall_s",), (_CROSS, _EQUIV)),
    "trajectories.integrate_newton_batch.self_s": (("wall_s",), (_CROSS,)),
    "trajectories.integrate_guidance.self_s": (("wall_s",), (_CROSS,)),
    "trajectories.particle_steps": (("wall_s",), (_CROSS, _EQUIV)),
    "trajectories.field_recompute_ratio": (("wall_s",), (_CROSS,)),
    "trajectories.aborts": (("wall_s",), _ALL),
    "ensemble.evolve_ensemble.self_s": (("wall_s",), (_EQUIV,)),
    "ensemble.sample_equilibrium.self_s": (("wall_s",), (_EQUIV,)),
    "ensemble.equivariance_distance.self_s": (("wall_s",), (_EQUIV,)),
    "manybody.run_cm_experiment.self_s": (("wall_s",), (_SHORT,)),
    "manybody.no_tunneling_check.self_s": (("wall_s",), (_SHORT,)),
    "manybody.resamples": (("wall_s",), (_SHORT,)),
    "cli.run.self_s": (("wall_s",), (_SHORT,)),
    "cli._write_csv.self_s": (("wall_s",), (_SHORT,)),
    "cli.csv_bytes": (("wall_s",), (_SHORT,)),
    "cli.parse_config.self_s": (("setup_s",), (_SHORT,)),
    "process.cpu_s": (("wall_s",), _ALL),
    "trace.overhead_ratio": ((), _ALL),
}

# Units of values that must repeat exactly across traced passes.
COUNT_UNITS = ("count", "bytes", "MB")


def pass_values(functions: dict[str, dict[str, float]], counts: dict[str, int]) -> dict[str, float]:
    """Metric values of one traced pass, from ``tracer.summarize`` and its counters."""
    values: dict[str, float] = {}
    for fn, stats in functions.items():
        name = fn.lstrip("_")
        values[f"{name}.self_s"] = stats["self_s"]
        values[f"{name}.calls"] = stats["calls"]
    values["propagator.split_steps"] = counts["split_steps"]
    values["propagator.snapshots"] = counts["snapshots"]
    values["propagator.snapshot_mb"] = counts["snapshot_bytes"] / 1e6
    values["propagator.snapshots_read_ratio"] = _ratio(counts["snapshots_read"], counts["snapshots"])
    values["interp.interpolate.points"] = counts["interpolate_points"]
    values["interp.interpolate.ns_per_point"] = 1e9 * _ratio(
        values["interp.interpolate.self_s"], counts["interpolate_points"]
    )
    values["interp.stencil_valid.points"] = counts["stencil_valid_points"]
    values["trajectories.particle_steps"] = counts["particle_steps"]
    values["trajectories.field_recompute_ratio"] = _ratio(counts["field_evaluations"], counts["field_pairs"])
    values["trajectories.aborts"] = counts["aborts"]
    values["manybody.resamples"] = counts["resamples"]
    values["cli.csv_bytes"] = counts["csv_bytes"]
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def combine(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each traced metric over passes, and the counts that did not repeat."""
    out, unstable = {}, []
    for metric in METRICS:
        name = metric["name"]
        if name not in passes[0]:
            continue
        samples = [p[name] for p in passes]
        if metric["unit"] in COUNT_UNITS:
            out[name] = samples[0]
            if len(set(samples)) > 1:
                unstable.append(f"{name} varied across traced passes: {samples}")
        else:
            out[name] = statistics.median(samples)
    return out, unstable
