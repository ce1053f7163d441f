"""Bohmian trajectories from evolution records.

Two routes to the same path:

* ``integrate_guidance``: first-order guidance law dx/dt = v(x, t) with
  classic RK4 on the recorded velocity fields.
* ``integrate_newton``: second-order form m dv/dt = -grad(V + Q) with
  kick-drift-kick leapfrog, seeded with p0 = m v(x0, t0).

Fields are interpolated cubically in space and linearly in time between
snapshots.  RK4 needs field values at half-step times, so the trajectory
step must be commensurate with the snapshot spacing; when the spacing is
half the step, every RK4 stage lands exactly on a snapshot and temporal
interpolation drops out of the error budget entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _interp
from .propagator import EvolutionRecord, PotentialSpec
from .quantum_potential import qfields_batch
from .wavefield import FIELD_BATCH_POINTS, Grid, velocity_batch, velocity_field


class TrajectoryAbort(RuntimeError):
    """Raised when a trajectory leaves the grid or enters a node region.

    Carries the last valid time and positions as ``time`` and ``positions``.
    """

    def __init__(self, message: str, time: float, positions: np.ndarray):
        super().__init__(message)
        self.time = time
        self.positions = positions


@dataclass(frozen=True)
class BohmianState:
    """Position (and momentum, when tracked) of one particle at one time."""

    position: np.ndarray
    time: float
    momentum: np.ndarray | None = None


@dataclass(frozen=True)
class Trajectory:
    """Time series of one integrated configuration-space path."""

    times: np.ndarray
    positions: np.ndarray  # (n_times, dims)
    mode: str  # "guidance" or "newton"
    dt: float
    momenta: np.ndarray | None = None  # (n_times, dims)

    def states(self) -> list[BohmianState]:
        return [
            BohmianState(
                position=self.positions[i],
                time=float(self.times[i]),
                momentum=None if self.momenta is None else self.momenta[i],
            )
            for i in range(len(self.times))
        ]

    @property
    def final(self) -> BohmianState:
        return BohmianState(
            position=self.positions[-1],
            time=float(self.times[-1]),
            momentum=None if self.momenta is None else self.momenta[-1],
        )


class _FieldCache:
    """Per-snapshot fields, computed in batches ahead of the integration front.

    ``interval`` is the time between the field reads of the integrator (half
    a step for RK4, a whole step for leapfrog).  When it spans a whole number
    of snapshot spacings, only every such snapshot is read, so a batch holds
    the next snapshots at that stride; otherwise the stride is one.  Entries
    behind the previous read snapshot are evicted.
    """

    def __init__(self, record: EvolutionRecord, kind: str, interval: float):
        self.record = record
        self.kind = kind  # "velocity" or "qforce"
        ratio = interval / record.snapshot_spacing
        whole = round(ratio)
        self.stride = whole if whole >= 1 and abs(ratio - whole) <= 1e-9 * ratio else 1
        self.batch = max(1, FIELD_BATCH_POINTS // math.prod(record.grid.shape))
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def fields(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Fields of snapshot i, shape (dims, *grid.shape), and its validity mask."""
        if i not in self._cache:
            record = self.record
            indices = range(i, min(i + self.stride * self.batch, len(record)), self.stride)
            amplitudes = np.stack([record.snapshots[k].amplitudes for k in indices])
            if self.kind == "velocity":
                values, valid = velocity_batch(amplitudes, record.grid, record.params)
            else:
                _, values, valid, _ = qfields_batch(amplitudes, record.grid, record.params)
            for stale in [k for k in self._cache if k < i - self.stride]:
                del self._cache[stale]
            for j, k in enumerate(indices):
                self._cache[k] = (values[j], valid[j])
        return self._cache[i]


def _bracket(record: EvolutionRecord, t: float) -> tuple[int, float]:
    """Snapshot index i and fraction theta with t = t_i + theta * spacing."""
    spacing = record.snapshot_spacing
    pos = (t - float(record.times[0])) / spacing
    i = int(np.floor(pos + 1e-9))
    i = min(max(i, 0), len(record) - 2)
    theta = pos - i
    if abs(theta) < 1e-9:
        theta = 0.0
    elif abs(theta - 1.0) < 1e-9:
        theta = 1.0
    return i, theta


def _stencil_on_grid(grid: Grid, t: float, x: np.ndarray) -> _interp.Stencil:
    """Interpolation stencil of positions x (M, dims); raises ``TrajectoryAbort`` off the grid."""
    inside = grid.contains(x)
    if not inside.all():
        bad = np.flatnonzero(~inside)
        raise TrajectoryAbort(
            f"{bad.size} trajectory position(s) left the grid at t={t:.6g}", t, x
        )
    return _interp.Stencil(grid, x)


def _node_abort(t: float, x: np.ndarray) -> TrajectoryAbort:
    return TrajectoryAbort(f"trajectory entered a node region at t={t:.6g}", t, x)


def _sample(stencil: _interp.Stencil, values) -> np.ndarray:
    """Each field component at the stencil's points, shape (M, dims)."""
    return np.stack([stencil.sample(v) for v in values], axis=-1)


def _fields_at(cache: _FieldCache, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cached fields at positions x (M, dims), time t, and per-point validity.

    ``ok[m]`` is False when point m's interpolation stencil touches a node
    region of either bracketing snapshot; its values are then meaningless.
    Raises ``TrajectoryAbort`` for positions off the grid.  One stencil
    serves the validity check, every component and both bracket sides.
    """
    record = cache.record
    stencil = _stencil_on_grid(record.grid, t, x)
    i, theta = _bracket(record, t)
    if theta == 0.0 or theta == 1.0:
        values, valid = cache.fields(i + int(theta))
        return _sample(stencil, values), stencil.valid(valid)
    va, valid_a = cache.fields(i)
    vb, valid_b = cache.fields(i + 1)
    out = (1.0 - theta) * _sample(stencil, va) + theta * _sample(stencil, vb)
    return out, stencil.valid(valid_a & valid_b)


def _eval_fields(cache: _FieldCache, t: float, x: np.ndarray) -> np.ndarray:
    """Interpolate the cached fields at positions x (M, dims), time t.

    Raises ``TrajectoryAbort`` when a point is off the grid or its stencil
    touches a node region.
    """
    out, ok = _fields_at(cache, t, x)
    if not ok.all():
        raise _node_abort(t, x)
    return out


def _check_commensurate(record: EvolutionRecord, dt: float) -> None:
    spacing = record.snapshot_spacing
    ratio = spacing / dt if spacing >= dt else dt / spacing
    if abs(ratio - round(ratio)) > 1e-9 * ratio:
        raise ValueError(
            f"trajectory dt={dt} is not commensurate with the snapshot spacing {spacing}"
        )


def _step_count(record: EvolutionRecord, dt: float) -> int:
    span = float(record.times[-1] - record.times[0])
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > 1e-9 * span:
        raise ValueError(f"record span {span} is not an integer number of steps of dt={dt}")
    return n


def _guidance_rk4(
    record: EvolutionRecord, x0: np.ndarray, dt: float, keep_velocities: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """RK4 guidance integration; with ``keep_velocities`` also v(x, t) at every time.

    The velocities are the stage-one values RK4 evaluates anyway, plus one
    evaluation at the final time.
    """
    _check_commensurate(record, dt)
    n = _step_count(record, dt)
    x = np.array(np.atleast_2d(x0), dtype=float)
    cache = _FieldCache(record, "velocity", 0.5 * dt)
    t0 = float(record.times[0])
    times = t0 + dt * np.arange(n + 1)
    positions = np.empty((n + 1,) + x.shape)
    positions[0] = x
    velocities = np.empty_like(positions) if keep_velocities else None
    for step_index in range(n):
        t = float(times[step_index])
        k1 = _eval_fields(cache, t, x)
        if velocities is not None:
            velocities[step_index] = k1
        k2 = _eval_fields(cache, t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = _eval_fields(cache, t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = _eval_fields(cache, t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        positions[step_index + 1] = x
    if velocities is not None:
        velocities[n] = _eval_fields(cache, float(times[n]), x)
    return times, positions, velocities


def integrate_guidance_batch(
    record: EvolutionRecord, x0: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 guidance integration of many particles at once.

    Parameters
    ----------
    record : EvolutionRecord
        Snapshots covering the integration window.
    x0 : ndarray, shape (M, dims)
        Initial positions.
    dt : float
        Step, commensurate with the snapshot spacing.

    Returns
    -------
    times : ndarray, shape (n+1,)
    positions : ndarray, shape (n+1, M, dims)
    """
    times, positions, _ = _guidance_rk4(record, x0, dt, keep_velocities=False)
    return times, positions


def integrate_guidance(record: EvolutionRecord, x0, dt: float) -> Trajectory:
    """Integrate the guidance equation for a single initial position."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times, positions, velocities = _guidance_rk4(record, x0[None, :], dt, keep_velocities=True)
    masses = np.asarray(record.params.masses_for(record.grid.dims))
    momenta = masses * velocities[:, 0, :]
    return Trajectory(times=times, positions=positions[:, 0, :], mode="guidance", dt=dt, momenta=momenta)


def integrate_newton_batch(
    record: EvolutionRecord, x0: np.ndarray, potential: PotentialSpec, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leapfrog integration of m dv/dt = F_classical + F_Q for many particles.

    The classical force comes from the potential spec analytically; the
    quantum force is interpolated from the record snapshots.  Initial
    momenta follow the guidance value p0 = m v(x0, t0).

    Returns ``(times, positions, momenta)``.
    """
    _check_commensurate(record, dt)
    n = _step_count(record, dt)
    x = np.array(np.atleast_2d(x0), dtype=float)
    params = record.params
    masses = np.asarray(params.masses_for(record.grid.dims))
    t0 = float(record.times[0])
    times = t0 + dt * np.arange(n + 1)
    stencil = _stencil_on_grid(record.grid, t0, x)
    velocity = velocity_field(record.snapshots[0])
    if not stencil.valid(velocity[0].valid_mask).all():
        raise _node_abort(t0, x)
    p = masses * _sample(stencil, [f.values for f in velocity])
    force_cache = _FieldCache(record, "qforce", dt)

    def total_force(t: float, pos: np.ndarray) -> np.ndarray:
        return potential.force_at(pos, params) + _eval_fields(force_cache, t, pos)

    positions = np.empty((n + 1,) + x.shape)
    momenta = np.empty_like(positions)
    positions[0] = x
    momenta[0] = p
    # kick-drift-kick: the closing kick's force opens the next step
    force = total_force(t0, x)
    for step_index in range(n):
        p = p + 0.5 * dt * force
        x = x + dt * p / masses
        force = total_force(float(times[step_index + 1]), x)
        p = p + 0.5 * dt * force
        positions[step_index + 1] = x
        momenta[step_index + 1] = p
    return times, positions, momenta


def integrate_newton(record: EvolutionRecord, x0, potential: PotentialSpec, dt: float) -> Trajectory:
    """Integrate the Newton form for a single initial position."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times, positions, momenta = integrate_newton_batch(record, x0[None, :], potential, dt)
    return Trajectory(
        times=times,
        positions=positions[:, 0, :],
        mode="newton",
        dt=dt,
        momenta=momenta[:, 0, :],
    )


def crosscheck(record: EvolutionRecord, x0, potential: PotentialSpec, dt: float) -> float:
    """Largest position gap between the guidance and Newton routes."""
    guided = integrate_guidance(record, x0, dt)
    newton = integrate_newton(record, x0, potential, dt)
    gap = np.linalg.norm(guided.positions - newton.positions, axis=-1)
    return float(gap.max())
