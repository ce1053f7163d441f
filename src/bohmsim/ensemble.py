"""Quantum-equilibrium ensembles: sampling, transport, and statistics.

Sampling is inverse-CDF on the grid cells with uniform placement inside a cell, driven by
the counter-based Philox4x64-10 generator so runs are reproducible from a single integer
seed.  Particles read the velocity and the quantum force through ``trajectories._read``, as on
the Newton route.  Means are exactly rounded, so no order sets the bits: ``_fsum`` sums by
error-free extraction, whose level sums are exact in numpy, with ``math.fsum``'s bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagator import EvolutionRecord, _whole_steps
from .trajectories import _FieldCache, _guidance_rk4, _read, _snapshot_fields, _step_times
from .wavefield import Grid, Wavefunction


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
    rho = np.abs(spec.wavefunction.amplitudes) ** 2
    return sample_density(rho, spec.wavefunction.grid, spec.count, _rng(spec.seed))


def _fsum(values: np.ndarray) -> float:
    """The exactly rounded sum of a 1D float array in any order, ``math.fsum(values.tolist())``'s bits
    wherever that returns a value, by error-free extraction.

    With sigma = 2**(e + ceil(log2(M + 2))) and every |r| <= 2**e, q = (sigma + r) - sigma
    splits each r into q + (r - q) exactly and rounds q to a multiple of eps * sigma,
    so ``q.sum()`` is exact in any order (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
    31, 189 (2008)).  Two levels leave a few nonzero residuals, and ``math.fsum`` of the
    level sums and those residuals rounds the same exact sum once, as of the values.
    Input above 2**900, where ``math.fsum``'s intermediate overflow depends on the order, is
    summed in fractions, which round once or raise ``OverflowError``.  Non-finite input sums
    its non-finite values alone; all-zero input and no input go to ``math.fsum`` itself.
    """
    big = np.abs(values).max(initial=0.0)  # NaN when a value is NaN
    if not math.isfinite(big):
        return math.fsum(values[~np.isfinite(values)].tolist())  # no finite value changes an inf or a NaN
    if big > 2.0**900:
        from fractions import Fraction  # imported only for this rare range
        return float(sum(map(Fraction, values.tolist())))
    if big == 0.0:
        return math.fsum(values.tolist())
    r = values.copy()
    headroom = (len(values) + 1).bit_length()  # ceil(log2(M + 2))
    sums = []
    for _ in range(2):
        sigma = math.ldexp(1.0, math.frexp(big)[1] + headroom)
        q = r + sigma
        q -= sigma
        r -= q
        sums.append(q.sum())
        big = np.abs(r).max()
    return math.fsum(sums + r[r != 0.0].tolist())


def _fsum_mean(values: np.ndarray) -> float:
    return _fsum(values) / len(values)  # the exactly rounded sum, then one division


def _grid_cdf(wf: Wavefunction) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear CDF nodes matching the cell-based sampler (1D)."""
    rho = np.abs(wf.amplitudes) ** 2
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


@dataclass(frozen=True)
class EnsembleTrajectory:
    """Transported ensemble with per-snapshot summaries."""

    times: np.ndarray  # (S,)
    positions: np.ndarray  # (S, M, dims)
    mean_position: np.ndarray  # (S, dims)
    mean_force: np.ndarray  # (S, dims) ensemble mean of F_Q
    snapshot_indices: np.ndarray  # (S,) record snapshot index of each row


def evolve_ensemble(spec: EnsembleSpec, record: EvolutionRecord, dt: float) -> EnsembleTrajectory:
    """Sample at the first snapshot and transport along the guidance flow.

    Positions and summaries are reported, and positions kept, only at the record's snapshot
    times that fall on a trajectory step.  Each row reads its snapshot's ``"qforce"`` fields
    (``trajectories._snapshot_fields``) with ``trajectories._read``: positions off the grid or
    in a node region raise ``TrajectoryAbort``.
    """
    t0 = record.times[0]
    steps = [0] + [_whole_steps(float(t - t0), dt, required=False) for t in record.times[1:]]
    keep_snap = np.r_[0, np.flatnonzero(steps[1:]) + 1]
    if len(keep_snap) < 2:
        raise ValueError("snapshot times and trajectory steps share too few common times")
    traj_rows = np.array(steps)[keep_snap]
    row_of = {step: row for row, step in enumerate(traj_rows.tolist())}
    times = _step_times(record, dt)
    x0 = sample_equilibrium(spec)
    positions = np.empty((len(keep_snap),) + x0.shape)
    for step, x, _ in _guidance_rk4(_FieldCache(record, "velocity", 0.5 * dt), x0, times, dt):
        if step in row_of:
            positions[row_of[step]] = x
    grid = record.grid
    mean_pos = np.empty((len(keep_snap), grid.dims))
    mean_force = np.empty((len(keep_snap), grid.dims))
    for row, (snap_idx, pos) in enumerate(zip(keep_snap, positions)):
        # one snapshot at a time: a field cache's batch of them would grow the heap past transport's peak
        force, eroded = _snapshot_fields(record, "qforce", record.rows(slice(snap_idx, snap_idx + 1)))
        forces = _read(grid, float(times[traj_rows[row]]), pos, force[0], eroded[0])
        for d in range(grid.dims):
            mean_force[row, d] = _fsum_mean(forces[:, d])
            mean_pos[row, d] = _fsum_mean(pos[:, d])
    return EnsembleTrajectory(
        times=times[traj_rows],
        positions=positions,
        mean_position=mean_pos,
        mean_force=mean_force,
        snapshot_indices=keep_snap,
    )
