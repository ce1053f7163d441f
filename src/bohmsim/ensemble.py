"""Quantum-equilibrium ensembles: sampling, transport, and statistics.

Sampling is inverse-CDF on the grid cells with uniform placement inside a
cell, driven by the counter-based Philox4x64-10 generator so runs are
reproducible from a single integer seed.  Statistical reductions use
compensated (exact) summation so results do not depend on summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _interp
from .propagator import EvolutionRecord
from .quantum_potential import QFields, compute_qfields
from .trajectories import integrate_guidance_batch
from .wavefield import Grid, Wavefunction, probability_density

HISTOGRAM_BINS = 64


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass(frozen=True)
class EnsembleSpec:
    """A |psi|^2-distributed ensemble request.

    Statistical contracts assume at least 100 members, so smaller counts
    are rejected outright.
    """

    count: int
    seed: int
    wavefunction: Wavefunction

    def __post_init__(self):
        if self.count < 100:
            raise ValueError(f"ensemble needs at least 100 members, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def sample_density(rho: np.ndarray, grid: Grid, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` positions from a gridded density, shape (count, dims)."""
    weights = rho.reshape(-1).astype(float)
    cum = np.cumsum(weights)
    total = cum[-1]
    picks = np.searchsorted(cum, rng.random(count) * total, side="right")
    picks = np.minimum(picks, weights.size - 1)
    cells = np.unravel_index(picks, grid.shape)
    out = np.empty((count, grid.dims))
    for d in range(grid.dims):
        lo, _ = grid.extents[d]
        # each grid point carries the mass of the cell centred on it
        out[:, d] = lo + (cells[d] + rng.random(count) - 0.5) * grid.dx[d]
    return out


def sample_equilibrium(spec: EnsembleSpec) -> np.ndarray:
    """Positions distributed as |psi|^2, shape (count, dims)."""
    rho = probability_density(spec.wavefunction).values
    return sample_density(rho, spec.wavefunction.grid, spec.count, _rng(spec.seed))


def _fsum_mean(values: np.ndarray) -> float:
    return math.fsum(values) / len(values)


def _grid_cdf(wf: Wavefunction) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear CDF nodes matching the cell-based sampler (1D)."""
    rho = probability_density(wf).values
    lo, hi = wf.grid.extents[0]
    nodes = lo + (np.arange(wf.grid.points[0] + 1) - 0.5) * wf.grid.dx[0]
    cdf = np.concatenate([[0.0], np.cumsum(rho)])
    return nodes, cdf / cdf[-1]


def equivariance_distance(positions: np.ndarray, wf: Wavefunction) -> float:
    """Kolmogorov-Smirnov distance between samples and |psi|^2 (1D only)."""
    if wf.grid.dims != 1:
        raise ValueError("the Kolmogorov-Smirnov distance is implemented for 1D grids")
    x = np.sort(np.asarray(positions, dtype=float).reshape(-1))
    m = len(x)
    nodes, cdf = _grid_cdf(wf)
    model = np.interp(x, nodes, cdf)
    upper = np.arange(1, m + 1) / m - model
    lower = model - np.arange(m) / m
    return float(max(upper.max(), lower.max()))


def mean_quantum_force(positions: np.ndarray, qfields: QFields) -> np.ndarray:
    """Ensemble mean of F_Q at the given positions, shape (dims,).

    Raises ``ValueError`` if any position's interpolation stencil touches
    the node region.
    """
    grid = qfields.q.grid
    x = np.atleast_2d(np.asarray(positions, dtype=float))
    stencil = _interp.Stencil(grid, x)
    if not stencil.valid(qfields.valid).all():
        raise ValueError("some positions lie in a node region")
    out = np.empty(grid.dims)
    for d in range(grid.dims):
        out[d] = _fsum_mean(stencil.sample(qfields.force[d].values))
    return out


@dataclass(frozen=True)
class EnsembleTrajectory:
    """Transported ensemble with per-snapshot summaries."""

    times: np.ndarray  # (S,)
    positions: np.ndarray  # (S, M, dims)
    mean_position: np.ndarray  # (S, dims)
    mean_force: np.ndarray  # (S, dims) ensemble mean of F_Q
    histograms: tuple[tuple[np.ndarray, np.ndarray], ...]  # (counts, edges) per snapshot
    snapshot_indices: np.ndarray  # (S,) record snapshot index of each row


def evolve_ensemble(spec: EnsembleSpec, record: EvolutionRecord, dt: float) -> EnsembleTrajectory:
    """Sample at the first snapshot and transport along the guidance flow.

    Positions and summaries are reported at the record's snapshot times.
    """
    x0 = sample_equilibrium(spec)
    times, positions = integrate_guidance_batch(record, x0, dt)
    # Report at snapshot times that also fall on the integration grid.
    rel = (np.asarray(record.times) - float(record.times[0])) / dt
    keep_snap = np.flatnonzero(np.abs(rel - np.round(rel)) < 1e-9)
    if len(keep_snap) < 2:
        raise ValueError("snapshot times and trajectory steps share too few common times")
    traj_rows = np.round(rel[keep_snap]).astype(int)
    grid = record.grid
    lo, hi = grid.extents[0]
    mean_pos = np.empty((len(keep_snap), grid.dims))
    mean_force = np.empty((len(keep_snap), grid.dims))
    histograms = []
    for row, (snap_idx, traj_idx) in enumerate(zip(keep_snap, traj_rows)):
        snap = record.snapshots[snap_idx]
        pos = positions[traj_idx]
        qf = compute_qfields(snap)
        mean_force[row] = mean_quantum_force(pos, qf)
        for d in range(grid.dims):
            mean_pos[row, d] = _fsum_mean(pos[:, d])
        counts, edges = np.histogram(pos[:, 0], bins=HISTOGRAM_BINS, range=(lo, hi))
        histograms.append((counts, edges))
    return EnsembleTrajectory(
        times=times[traj_rows],
        positions=positions[traj_rows],
        mean_position=mean_pos,
        mean_force=mean_force,
        histograms=tuple(histograms),
        snapshot_indices=keep_snap,
    )
