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

The RK4 loop ``_guidance_rk4`` yields each step's state, and its callers
keep only what they read: ``ensemble.evolve_ensemble`` the reported rows.

Every field read at particle positions, from the cache, at the Newton start, at
an ensemble row or at a many-body row, goes through ``_read``: a batch builds
one ``_interp.Stencil`` per read, and an abort names the rows that stopped it.
``_snapshot_fields`` is the one place that computes a field kind of snapshot rows.
In 1D a batch read from the cache evaluates the fields through the read
time's coefficient table (``_FieldCache.table``), built once per time, so
RK4's k2 and k3 share one, as do k4 and the next k1, both read at the next
entry of the step grid; a batch on the grid whose bases span no hole in the
mask is checked from that span alone.
One particle in one dimension runs through the same loops as a Python
float and reads each field with ``_interp.sample_point``, which evaluates
its cell's cubic with the batch's coefficients and Horner order, so its
path and its aborts are bit-identical to a row of a batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _interp
from .propagator import EvolutionRecord, PotentialSpec, _check_positive_finite, _whole_steps, _whole_steps_unchecked
from .quantum_potential import qforce_batch
from .wavefield import FIELD_BATCH_POINTS, velocity_batch


class TrajectoryAbort(RuntimeError):
    """Raised when a trajectory leaves the grid or enters a node region.

    Carries the last valid time and positions as ``time`` and ``positions``,
    the rows of ``positions`` that stopped the read as the int array
    ``indices``, and ``left_grid``: True when they left the grid, False when
    they touched a node region.
    """

    def __init__(self, message: str, time: float, positions: np.ndarray, indices=(), left_grid: bool = False):
        super().__init__(message)
        self.time = time
        self.positions = positions
        self.indices = np.asarray(indices, dtype=np.intp)
        self.left_grid = left_grid


@dataclass(frozen=True)
class Trajectory:
    """Time series of one integrated configuration-space path."""

    times: np.ndarray
    positions: np.ndarray  # (n_times, dims)
    momenta: np.ndarray | None = None  # (n_times, dims)


class _FieldCache:
    """Per-snapshot fields, computed in batches ahead of the integration front.

    ``interval`` is the time between the field reads of the integrator (half
    a step for RK4, a whole step for leapfrog).  When it spans a whole number
    of snapshot spacings, only every such snapshot is read, so a batch holds
    the next snapshots at that stride; otherwise the stride is one.  A batch
    takes its rows from ``rows``, ``record.rows`` or a ``_SharedRows``
    window, so only one batch's rows are held.  Node masks are stored eroded
    (``_interp.erode``).  Before the next batch is computed, entries behind
    the previous read snapshot are evicted, the rest copied and the last
    time's fields dropped, so no view keeps the last batch in its transient
    peak.  A ``"qforce"`` cache holds ``qforce_batch``'s force.

    The last time read keeps its blended fields, their mask and, once a 1D
    batch reads them, their ``_interp.cubic_table``; a one-particle float
    read never builds a table.
    """

    def __init__(self, record: EvolutionRecord, kind: str, interval: float):
        self.record, self.rows = record, record.rows
        self.kind = kind  # "velocity" or "qforce"
        self.stride = _whole_steps(interval, record.snapshot_spacing, required=False) or 1
        self.batch = max(1, FIELD_BATCH_POINTS // math.prod(record.grid.shape))
        self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._at: list = [None, None, None, None]  # the last time read, its fields, mask and table

    def fields(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Fields of snapshot i, shape (dims, *grid.shape), and its eroded node mask."""
        if i not in self._cache:
            self._cache = {k: (v.copy(), m.copy()) for k, (v, m) in self._cache.items() if k >= i - self.stride}
            self._at = [None, None, None, None]
            stop = min(i + self.stride * self.batch, len(self.record))
            values, eroded = _snapshot_fields(self.record, self.kind, self.rows(slice(i, stop, self.stride)))
            for j, k in enumerate(range(i, stop, self.stride)):
                self._cache[k] = (values[j], eroded[j])
        return self._cache[i]

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Fields at time t, linear between snapshots, and both sides' eroded mask; once per distinct t."""
        if self._at[0] != t:
            i, theta = _bracket(self.record, t)
            values, eroded = self.fields(i)
            if theta != 0.0:
                vb, eroded_b = self.fields(i + 1)
                # erosion distributes over &: the eroded mask of both sides' nodes
                values, eroded = (1.0 - theta) * values + theta * vb, eroded & eroded_b
            self._at = [t, values, eroded, None]
        return self._at[1], self._at[2]

    def table(self, t: float) -> tuple[np.ndarray, ...] | None:
        """``_interp.cubic_table`` of the fields at time t, built on the first call at t;
        None on a 2D grid, whose stencils weigh the samples themselves."""
        self.at(t)
        if self._at[3] is None and self.record.grid.dims == 1:
            self._at[3] = _interp.cubic_table(self._at[1])
        return self._at[3]


def _bracket(record: EvolutionRecord, t: float) -> tuple[int, float]:
    """Snapshot index i and fraction theta with t = t_i + theta * spacing, for a finite t;
    theta is 0 exactly when t lies on a snapshot by ``_whole_steps``' rule."""
    spacing = record.snapshot_spacing  # positive: record times strictly increase
    span = t - float(record.times[0])
    last = len(record) - 1
    n = _whole_steps_unchecked(span, spacing) if span > 0.0 else 0
    if span == 0.0 or 0 < n <= last:
        return n, 0.0
    i = min(max(math.floor(span / spacing), 0), last - 1)
    return i, span / spacing - i


def _snapshot_fields(record: EvolutionRecord, kind: str, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``kind`` fields of the record's snapshot rows ``amplitudes``, (S, dims, *grid.shape), and their
    eroded node masks: ``"velocity"`` or ``"qforce"``, ``qforce_batch``'s force without its Q."""
    if kind == "velocity":
        values, valid = velocity_batch(amplitudes, record.grid, record.params)
    else:
        values, valid, _, _ = qforce_batch(amplitudes, record.grid, record.params)
    return values, _interp.erode(valid, record.grid.dims)


def _abort(t: float, x: np.ndarray, indices, left_grid: bool) -> TrajectoryAbort:
    """The abort of a read at time t of positions x whose rows ``indices`` left the grid or touched a node region."""
    what = f"{len(indices)} trajectory position(s) left the grid" if left_grid else "trajectory entered a node region"
    return TrajectoryAbort(f"{what} at t={t:.6g}", t, x, indices, left_grid)


def _read(
    grid, t: float, x: np.ndarray | float, block: np.ndarray, eroded: np.ndarray, table=None
) -> np.ndarray | float:
    """Fields of a (C, *grid.shape) ``block`` at positions x (M, dims), read at time t, (M, C);
    ``table`` as in ``_interp.Stencil.sample``.  Raises ``TrajectoryAbort`` naming the rows off
    the grid (NaN included), or else the rows whose stencil touches the node region of the mask
    ``eroded`` came from; either set is found only while raising.  At one 1D position given as a
    Python float, the one field value as a float, by ``_interp.sample_point``, with the same
    aborts naming row 0."""
    if type(x) is float:
        found = _interp.sample_point(grid, x, block, eroded)
        if found is None or not found[1]:
            raise _abort(t, np.array([[x]]), [0], found is None)
        return found[0]
    stencil = _interp.Stencil(grid, x)
    if stencil.off_grid:
        raise _abort(t, x, np.flatnonzero(~stencil.on_grid), True)
    if not stencil.all_valid(eroded):
        raise _abort(t, x, np.flatnonzero(~stencil.valid(eroded)), False)
    return stencil.sample(block, table)


def _eval_fields(cache: _FieldCache, t: float, x: np.ndarray | float) -> np.ndarray | float:
    """``_read`` of the cached fields at time t; a batch reads through the time's kept table,
    one float position from the block itself."""
    return _read(cache.record.grid, t, x, *cache.at(t), None if type(x) is float else cache.table(t))


def _step_times(record: EvolutionRecord, dt: float) -> np.ndarray:
    """Times of the whole steps of ``dt`` across the record, checked commensurate with its spacing."""
    _check_positive_finite("dt", dt)
    spacing = record.snapshot_spacing
    if not _whole_steps(max(spacing, dt), min(spacing, dt), required=False):
        raise ValueError(f"trajectory dt={dt} is not commensurate with the snapshot spacing {spacing}")
    n = _whole_steps(float(record.times[-1] - record.times[0]), dt, "record span")
    return float(record.times[0]) + dt * np.arange(n + 1)


def _rk4_step(cache: _FieldCache, t: float, t_next: float, x: np.ndarray | float, dt: float, k1: np.ndarray | float):
    """One classic RK4 step of dx/dt = v from positions x at time t, given the stage-one velocity k1;
    k4 reads at ``t_next``, the step grid's next time, where the next step's k1 reads."""
    k2 = _eval_fields(cache, t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = _eval_fields(cache, t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = _eval_fields(cache, t_next, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _guidance_rk4(cache: _FieldCache, x0: np.ndarray, times: np.ndarray, dt: float):
    """RK4 guidance integration from positions x0 (M, dims) across ``times``, one step at a time.

    Yields ``(step, x, k1)`` at every time but the last, k1 being the
    stage-one velocity v(x, t) that RK4 evaluates anyway, and ``(n, x,
    None)`` at the last, where nothing is read; the caller keeps what it
    reads.  One particle in one dimension is carried as a Python float,
    whose arithmetic rounds as the array's.
    """
    x = x0.item() if x0.shape == (1, 1) and cache.record.grid.dims == 1 else x0
    for step_index, (t, t_next) in enumerate(itertools.pairwise(times.tolist())):
        k1 = _eval_fields(cache, t, x)
        yield step_index, x, k1
        x = _rk4_step(cache, t, t_next, x, dt, k1)
    yield len(times) - 1, x, None


def integrate_guidance_batch(
    record: EvolutionRecord, x0: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 guidance integration of many particles at once, keeping every step.

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
    times = _step_times(record, dt)
    x0 = np.array(np.atleast_2d(x0), dtype=float)
    positions = np.empty((len(times),) + x0.shape)
    for step_index, x, _ in _guidance_rk4(_FieldCache(record, "velocity", 0.5 * dt), x0, times, dt):
        positions[step_index] = x
    return times, positions


def integrate_guidance(record: EvolutionRecord, x0, dt: float) -> Trajectory:
    """Integrate the guidance equation for a single initial position; the momenta
    are m times RK4's stage-one velocities and the one read at the final time."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times = _step_times(record, dt)
    cache = _FieldCache(record, "velocity", 0.5 * dt)
    positions = np.empty((len(times), len(x0)))
    velocities = np.empty_like(positions)
    for step_index, x, k1 in _guidance_rk4(cache, x0[None, :], times, dt):
        positions[step_index] = x
        velocities[step_index] = _eval_fields(cache, float(times[step_index]), x) if k1 is None else k1
    return Trajectory(times=times, positions=positions, momenta=record.params.mass * velocities)


def _leapfrog(force_cache: _FieldCache, x: np.ndarray, potential: PotentialSpec, dt: float, times: np.ndarray):
    """``integrate_newton_batch`` from positions x (M, dims), yielding the positions and momenta at each of ``times``."""
    record = force_cache.record
    grid, params = record.grid, record.params
    mass = params.mass
    t0 = float(record.times[0])
    velocity, eroded = _snapshot_fields(record, "velocity", force_cache.rows(slice(0, 1)))
    point = x.shape == (1, 1) and grid.dims == 1
    if point:
        x = x.item()
    p = mass * _read(grid, t0, x, velocity[0], eroded[0])

    def total_force(t: float, pos: np.ndarray | float) -> np.ndarray | float:
        classical = potential.force_at(np.reshape(pos, (-1, grid.dims)), params)
        return (classical.item() if point else classical) + _eval_fields(force_cache, t, pos)

    yield x, p
    # kick-drift-kick: the closing kick's force opens the next step
    force = total_force(t0, x)
    for t_next in times[1:].tolist():
        p = p + 0.5 * dt * force
        x = x + dt * p / mass
        force = total_force(t_next, x)
        p = p + 0.5 * dt * force
        yield x, p


def integrate_newton_batch(
    record: EvolutionRecord, x0: np.ndarray, potential: PotentialSpec, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leapfrog integration of m dv/dt = F_classical + F_Q for many particles.

    The classical force comes from the potential spec analytically; the
    quantum force is interpolated from the record snapshots.  Initial
    momenta follow the guidance value p0 = m v(x0, t0).

    Returns ``(times, positions, momenta)``.  One particle in one dimension
    is carried as a Python float, whose arithmetic rounds as the array's.
    """
    times = _step_times(record, dt)
    x0 = np.array(np.atleast_2d(x0), dtype=float)
    positions = np.empty((len(times),) + x0.shape)
    momenta = np.empty_like(positions)
    for step_index, (x, p) in enumerate(_leapfrog(_FieldCache(record, "qforce", dt), x0, potential, dt, times)):
        positions[step_index], momenta[step_index] = x, p
    return times, positions, momenta


def integrate_newton(record: EvolutionRecord, x0, potential: PotentialSpec, dt: float) -> Trajectory:
    """Integrate the Newton form for a single initial position."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    times, positions, momenta = integrate_newton_batch(record, x0[None, :], potential, dt)
    return Trajectory(times=times, positions=positions[:, 0, :], momenta=momenta[:, 0, :])


class _SharedRows:
    """A record's ``rows``, which serves each read that lies in the last window of rows it computed, so two
    field caches read side by side compute each row once.  A window starts at the first row read outside
    the last one and spans ``span`` rows, the widest read of the caches it serves, or the read if wider."""

    def __init__(self, record: EvolutionRecord, span: int):
        self.record, self._span, self._window = record, span, (0, 0, None)

    def rows(self, index: slice) -> np.ndarray:
        start, stop, step = index.indices(len(self.record))
        lo, hi = self._window[:2]
        if not lo <= start <= stop <= hi:
            self._window = 0, 0, None  # freed before the next window is computed
            lo, hi = start, max(stop, min(start + self._span, len(self.record)))
            self._window = lo, hi, self.record.rows(slice(lo, hi))
        return self._window[2][start - lo:stop - lo:step]


def _shared_caches(record: EvolutionRecord, dt: float) -> tuple[_FieldCache, _FieldCache]:
    """The velocity cache of RK4 steps of ``dt`` and the force cache of leapfrog steps, reading one
    ``_SharedRows`` whose first window spans the wider cache's batch, so each row is computed once."""
    caches = _FieldCache(record, "velocity", 0.5 * dt), _FieldCache(record, "qforce", dt)
    caches[0].rows = caches[1].rows = _SharedRows(record, max(cache.stride * cache.batch for cache in caches)).rows
    return caches


def crosscheck(record: EvolutionRecord, x0, potential: PotentialSpec, dt: float) -> float:
    """Largest position gap between the guidance and Newton routes, stepped side by side over
    ``_shared_caches`` so that the record computes each row once, in order; an abort raises at its step."""
    times = _step_times(record, dt)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))[None, :]
    velocity, force = _shared_caches(record, dt)
    routes = zip(_guidance_rk4(velocity, x0, times, dt), _leapfrog(force, x0, potential, dt, times))
    gaps = np.empty((len(times), x0.shape[1]))
    for (step_index, guided, k1), (newton, _) in routes:
        if k1 is None:  # integrate_guidance reads the final velocity too
            _eval_fields(velocity, float(times[-1]), guided)
        gaps[step_index] = guided - newton
    return float(np.linalg.norm(gaps, axis=-1).max())
