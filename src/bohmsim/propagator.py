"""Split-step spectral propagation of wavefunctions in static potentials.

A single step applies the second-order Strang factorization

    exp(-i V dt / 2 hbar) . exp(-i T dt / hbar) . exp(-i V dt / 2 hbar)

with the kinetic factor diagonal in Fourier space.  Both factors are unitary,
so the norm is conserved to rounding and the map is exactly time-reversible
under complex conjugation.  ``evolve`` takes no step: its record computes
each row where it is read, in closed form without a potential, where the
splitting is exact, and else by stepping forward from psi0 (``_StrangRecord``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .wavefield import (
    FIELD_BATCH_POINTS,
    Grid,
    PhysicalParams,
    Wavefunction,
    _as_tuple,
    _axis_currents,
    _fft,
    spectral_derivative,
)


class AccuracyWarning(UserWarning):
    """Emitted when a time step exceeds the documented accuracy guidance."""


# --------------------------------------------------------------------------
# potential specifications
# --------------------------------------------------------------------------

class PotentialSpec:
    """Base class for static potential specifications.

    Each spec evaluates itself at points of shape (..., dims): ``value_at``
    returns V with shape (...), ``force_at`` returns -grad V with shape
    (..., dims).
    """

    def value_at(self, x: np.ndarray, params: PhysicalParams) -> np.ndarray:
        raise TypeError(f"unknown potential spec {self!r}")

    def force_at(self, x: np.ndarray, params: PhysicalParams) -> np.ndarray:
        raise TypeError(f"unknown potential spec {self!r}")


@dataclass(frozen=True)
class Free(PotentialSpec):
    """V = 0."""

    def value_at(self, x, params):
        return np.zeros(np.shape(x)[:-1])

    def force_at(self, x, params):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Harmonic(PotentialSpec):
    """V = sum_d (1/2) m omega_d^2 (x_d - center_d)^2."""

    omega: float | tuple[float, ...]
    center: float | tuple[float, ...] = 0.0

    def _terms(self, x):
        x = np.asarray(x, dtype=float)
        dims = x.shape[-1]
        return x, _as_tuple(self.omega, dims, "omega"), _as_tuple(self.center, dims, "center")

    def value_at(self, x, params):
        x, omegas, centers = self._terms(x)
        return sum(0.5 * params.mass * omegas[d] ** 2 * (x[..., d] - centers[d]) ** 2 for d in range(x.shape[-1]))

    def force_at(self, x, params):
        x, omegas, centers = self._terms(x)
        out = np.zeros_like(x)
        for d in range(x.shape[-1]):
            out[..., d] = -params.mass * omegas[d] ** 2 * (x[..., d] - centers[d])
        return out


@dataclass(frozen=True)
class Linear(PotentialSpec):
    """V = -sum_d force_d x_d, i.e. a uniform force ``force`` per dimension."""

    force: float | tuple[float, ...]

    def value_at(self, x, params):
        x = np.asarray(x, dtype=float)
        forces = _as_tuple(self.force, x.shape[-1], "force")
        return -sum(forces[d] * x[..., d] for d in range(x.shape[-1]))

    def force_at(self, x, params):
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[...] = _as_tuple(self.force, out.shape[-1], "force")
        return out


@dataclass(frozen=True)
class PairwiseHarmonic(PotentialSpec):
    """Two-coordinate spring V = (1/2) coupling (x_0 - x_1 - rest_length)^2.

    Only meaningful on two-dimensional configuration grids, where the two
    axes are the coordinates of two one-dimensional particles.  The implied
    forces are equal and opposite by construction.
    """

    coupling: float
    rest_length: float = 0.0

    def _stretch(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 2:
            raise ValueError("PairwiseHarmonic needs a 2-dimensional configuration grid")
        return x, x[..., 0] - x[..., 1] - self.rest_length

    def value_at(self, x, params):
        _, stretch = self._stretch(x)
        return 0.5 * self.coupling * stretch**2

    def force_at(self, x, params):
        x, stretch = self._stretch(x)
        out = np.zeros_like(x)
        out[..., 0] = -self.coupling * stretch
        out[..., 1] = self.coupling * stretch
        return out


@dataclass(frozen=True)
class SumPotential(PotentialSpec):
    """Pointwise sum of several potential specifications."""

    terms: tuple[PotentialSpec, ...]

    def value_at(self, x, params):
        return sum(t.value_at(x, params) for t in self.terms)

    def force_at(self, x, params):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for t in self.terms:
            out += t.force_at(x, params)
        return out


def evaluate_potential(pot: PotentialSpec, grid: Grid, params: PhysicalParams) -> np.ndarray:
    """Evaluate V on all grid points."""
    return pot.value_at(np.stack(grid.meshes(), axis=-1), params)


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------

def accuracy_dt_bound(grid: Grid, params: PhysicalParams) -> float:
    """Guidance (not a hard limit): dt <= 0.2 min_d(m dx_d^2) / (2 pi hbar)."""
    scale = min(params.mass * step**2 for step in grid.dx)
    return 0.2 * scale / (2.0 * np.pi * params.hbar)


def _warn_if_step_coarse(grid: Grid, params: PhysicalParams, pot: PotentialSpec, dt: float) -> None:
    # splitting error comes from the kinetic/potential commutator, so free
    # evolution is exact for any dt and the guidance does not apply
    if isinstance(pot, Free):
        return
    bound = accuracy_dt_bound(grid, params)
    if dt > bound:
        warnings.warn(
            f"dt={dt} exceeds the accuracy guidance {bound:.3e}; results may be degraded",
            AccuracyWarning,
            stacklevel=3,
        )


def _kinetic_rate(grid: Grid, params: PhysicalParams) -> np.ndarray:
    """Phase rate hbar k^2 / 2m of each Fourier mode, summed over dimensions.

    A free state's mode k evolves as exp(-i rate t); the Strang kernel and
    the closed-form free evolution both take their kinetic phase from here.
    """
    ks = grid.wavenumbers()
    rate = np.zeros(grid.shape)
    for d in range(grid.dims):
        shape = [1] * grid.dims
        shape[d] = len(ks[d])
        rate = rate + params.hbar * ks[d].reshape(shape) ** 2 / (2.0 * params.mass)
    return rate


class _SplitStepKernel:
    """Precomputed phase factors for repeated Strang steps."""

    def __init__(self, grid: Grid, params: PhysicalParams, pot: PotentialSpec, dt: float):
        v = evaluate_potential(pot, grid, params)
        self.half_potential = np.exp(-0.5j * v * dt / params.hbar)
        self.kinetic = np.exp(-1j * _kinetic_rate(grid, params) * dt)
        self.axes = tuple(reversed(range(grid.dims)))  # last axis first, as fftn

    def apply(self, amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One step of ``amps``, into ``out`` (another array) when given.

        The transforms run in place one axis at a time, last axis first, as
        ``fftn`` does, through ``_fft``.
        """
        out = np.multiply(self.half_potential, amps, out=out)
        for axis in self.axes:
            _fft(out, axis, out=out)
        np.multiply(self.kinetic, out, out=out)  # kinetic first: order sets the bits
        for axis in self.axes:
            _fft(out, axis, out=out, inverse=True)
        return np.multiply(self.half_potential, out, out=out)


def _check_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _whole_steps(span: float, dt: float, span_name="t_final", required=True) -> int:
    """The n >= 1 with span = n dt to 1e-9 relative to the span: the one whole-step rule.

    Raises ``ValueError`` naming a span or dt that is not positive and
    finite, and one that holds no whole number of steps (as under half a
    step) if ``required``; returns 0 for it otherwise.
    """
    _check_positive_finite(span_name, span)
    _check_positive_finite("dt", dt)
    n = _whole_steps_unchecked(span, dt)
    if n or not required:
        return n
    raise ValueError(f"{span_name}={span} is not an integer number of steps of dt={dt}")


def _whole_steps_unchecked(span: float, dt: float) -> int:
    """``_whole_steps``' rule for a span and dt already known positive and finite; 0 for none."""
    ratio = span / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    return n if n >= 1 and abs(n * dt - span) <= 1e-9 * span else 0


def step(wf: Wavefunction, potential: PotentialSpec, dt: float) -> Wavefunction:
    """One Strang split step of size ``dt``.

    Warns with ``AccuracyWarning`` when ``dt`` exceeds the accuracy guidance
    and raises ``FloatingPointError`` on numerical blow-up (non-finite
    amplitudes).
    """
    _check_positive_finite("dt", dt)
    _warn_if_step_coarse(wf.grid, wf.params, potential, dt)
    kernel = _SplitStepKernel(wf.grid, wf.params, potential, dt)
    amps = kernel.apply(wf.amplitudes)
    if not np.all(np.isfinite(amps.view(float))):
        raise FloatingPointError("numerical blow-up: non-finite amplitudes after step")
    return Wavefunction(wf.grid, wf.params, amps, wf.time + dt)


@dataclass(frozen=True, repr=False, eq=False)
class EvolutionRecord:
    """Snapshots of an evolution, with norm drift bookkeeping.

    ``rows`` reads snapshot i, at ``times[i]``, from the block ``amplitudes``
    (S, *grid.shape), or computes it (``_compute``, in the records ``evolve``
    returns) until that is read.  ``times`` strictly increase from t0 to the end.
    ``norm_drift`` holds |norm_after - norm_before| for every step taken,
    except for free records, which hold one entry per snapshot interval.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    grid: Grid
    params: PhysicalParams
    norm_drift: np.ndarray
    potential: PotentialSpec

    def __len__(self) -> int:
        return len(self.times)

    @property
    def snapshot_spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    def rows(self, index: int | slice) -> np.ndarray:
        """Snapshot ``index`` (*grid.shape), or the rows of a slice (B, *grid.shape)."""
        return self.amplitudes[index] if "amplitudes" in vars(self) else self._compute(index)

    @cached_property
    def snapshots(self) -> tuple[Wavefunction, ...]:
        """Row views of ``amplitudes`` as wavefunctions, built once per record."""
        return tuple(
            Wavefunction(self.grid, self.params, amps, float(t))
            for amps, t in zip(self.amplitudes, self.times)
        )


class _RowsOnRead(EvolutionRecord):
    """A record at ``steps`` of dt that keeps a copy of psi0 and computes rows where they are read until
    ``amplitudes``, all the rows, is read and kept.  Fields skip the frozen ``__setattr__`` here only."""

    def __init__(self, wf: Wavefunction, steps: np.ndarray, potential: PotentialSpec, dt: float, **state):
        elapsed = steps * dt
        self.__dict__.update(times=wf.time + elapsed, grid=wf.grid, params=wf.params, potential=potential,
                             _elapsed=elapsed, _psi0=wf.amplitudes.copy(), **state)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        return self._compute(slice(None))


class _FreeRecord(_RowsOnRead):
    """A free record, which keeps psi0 and its spectrum and computes each row where it is read.

    Strang splitting is exact without a potential, so the row at elapsed time t is
    ifftn(exp(-i rate t) fftn psi0), with the bits of ``np.fft``: ``_fft`` one axis at a time, last
    axis first.  ``fftfreq`` makes mode n - j's rate bits those of mode j, so the exponentials are
    taken over the modes j <= n/2 of each axis and gathered back with the index min(j, n - j).
    Row 0 is psi0's own bits, not transformed.  ``norm_drift`` is computed when read.
    """

    def __init__(self, wf: Wavefunction, steps: np.ndarray, potential: PotentialSpec, dt: float):
        spectrum, shape = wf.amplitudes, wf.grid.shape
        for axis in reversed(range(wf.grid.dims)):
            spectrum = _fft(spectrum, axis)
        super().__init__(
            wf, steps, potential, dt, _spectrum=spectrum, _chunk=max(1, FIELD_BATCH_POINTS // wf.amplitudes.size),
            _folded=_kinetic_rate(wf.grid, wf.params)[tuple(slice(n // 2 + 1) for n in shape)],
            _unfold=(slice(None),) + np.ix_(*(np.minimum(np.arange(n), n - np.arange(n)) for n in shape)),
        )

    def _compute(self, index: int | slice) -> np.ndarray:
        """The rows of ``index``, computed ``_chunk`` at a time (at most ``FIELD_BATCH_POINTS`` grid points)."""
        elapsed = np.atleast_1d(self._elapsed[index])
        block = np.empty(elapsed.shape + self.grid.shape, dtype=complex)
        psi0 = elapsed == 0.0  # only row 0 has no elapsed time, and it ends any slice's rows
        block[psi0] = self._psi0
        lo, hi = (int(psi0[0]), len(block) - int(psi0[-1])) if len(block) else (0, 0)
        for start in range(lo, hi, self._chunk):
            part = block[start:min(start + self._chunk, hi)]
            phase = np.multiply.outer(elapsed[start:start + len(part)], self._folded) * -1j
            np.multiply(np.exp(phase, out=phase)[self._unfold], self._spectrum, out=part)
            for axis in reversed(range(1, self.grid.dims + 1)):
                _fft(part, axis, out=part, inverse=True)
        return block.reshape(np.shape(self._elapsed[index]) + self.grid.shape)  # an int index reads one row

    @cached_property
    def norm_drift(self) -> np.ndarray:
        norms = [_norm(self._psi0, self.grid.cell_volume)]
        for start in range(1, len(self), self._chunk):
            flat = self.rows(slice(start, start + self._chunk)).reshape(-1, self._psi0.size).view(float)
            norms.extend(np.sqrt(np.einsum("ij,ij->i", flat, flat) * self.grid.cell_volume))
        return np.abs(np.diff(norms))


class _StrangRecord(_RowsOnRead):
    """A record in a potential, which keeps psi0, its ``_SplitStepKernel`` and a cursor: the state at step
    ``_cursor[0]``, stepped in place, and that step's norm.  A read steps the cursor through its rows from the
    first to the last in one loop, from psi0 if it starts behind the cursor.  Each step's norm drift is kept
    (8 B a step); a non-finite norm raises at the read that reaches its step."""

    def __init__(self, wf: Wavefunction, steps: np.ndarray, potential: PotentialSpec, dt: float):
        super().__init__(wf, steps, potential, dt, _kernel=_SplitStepKernel(wf.grid, wf.params, potential, dt),
                         _stride=int(steps[1]), _drift=np.empty(int(steps[-1])), _state=np.empty_like(wf.amplitudes),
                         _cursor=[math.inf, 0.0])  # no state yet: the first read starts from psi0

    def _compute(self, index: int | slice) -> np.ndarray:
        rows = range(len(self))[index]
        if isinstance(rows, int):
            return self._compute(slice(rows, rows + 1))[0]
        if not rows:
            return np.empty((0,) + self.grid.shape, dtype=complex)
        (first, last), stride, cursor, state = sorted((rows[0], rows[-1])), self._stride, self._cursor, self._state
        cell = self.grid.cell_volume  # a product each time it is read: kept out of the loop
        if cursor[0] > first * stride:
            np.copyto(state, self._psi0)
            cursor[:] = [0, _norm(state, cell)]
        window = np.empty((last - first + 1,) + state.shape, dtype=complex)
        i, previous = cursor
        if i == first * stride:
            window[0] = state
        for i in range(i + 1, last * stride + 1):
            self._kernel.apply(state, out=state)
            current = _norm(state, cell)
            self._drift[i - 1] = abs(current - previous)
            previous = current
            if not math.isfinite(current):
                cursor[0] = math.inf  # the next read starts from psi0 again
                raise FloatingPointError(f"numerical blow-up at step {i}: non-finite norm")
            if i % stride == 0 and i >= first * stride:
                window[i // stride - first] = state
        cursor[:] = [i, previous]
        return window[::rows.step]

    @property
    def norm_drift(self) -> np.ndarray:
        self._compute(-1)  # steps to the end, keeping the last row only
        return self._drift


def _norm(amps: np.ndarray, cell: float) -> float:
    return float(np.sqrt(np.vdot(amps, amps).real * cell))


def evolve(
    wf: Wavefunction,
    potential: PotentialSpec,
    t_final: float,
    dt: float,
    snapshot_stride: int = 1,
) -> EvolutionRecord:
    """Propagate to ``t_final`` in steps of ``dt``, recording every
    ``snapshot_stride``-th state (the initial and final states always).

    ``t_final`` must be a whole number of steps of ``dt`` (1e-9 relative).
    The record computes each row where it is read: for ``Free``, in closed
    form, equal to the split steps up to rounding, with one ``norm_drift``
    entry per snapshot interval; else Strang-stepped from psi0 to the rows a
    read asks for (``_StrangRecord``), where ``amplitudes`` steps once and is
    kept and ``norm_drift`` steps to the end and keeps no rows.  Raises
    ``FloatingPointError`` here on a non-finite psi0 norm, and on a later
    step's at the read that reaches it.
    """
    n_steps = _whole_steps(t_final, dt)
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    if n_steps % snapshot_stride != 0:
        raise ValueError("snapshot_stride must divide the number of steps")
    steps = np.arange(0, n_steps + 1, snapshot_stride)
    _warn_if_step_coarse(wf.grid, wf.params, potential, dt)
    if not math.isfinite(_norm(wf.amplitudes, wf.grid.cell_volume)):
        raise FloatingPointError("numerical blow-up at step 0: non-finite norm")
    return (_FreeRecord if isinstance(potential, Free) else _StrangRecord)(wf, steps, potential, dt)


def _currents(amplitudes: np.ndarray, grid: Grid, params: PhysicalParams) -> np.ndarray:
    """Probability currents of a stack of snapshots (B, *grid.shape), shape (B, dims, *grid.shape)."""
    out = np.empty((len(amplitudes), grid.dims) + grid.shape)
    for d, current in enumerate(_axis_currents(amplitudes, grid)):
        np.multiply(params.hbar / params.mass, current, out=out[:, d])
    return out


def probability_current(wf: Wavefunction) -> np.ndarray:
    """j_d = (hbar/m) Im(psi* d_d psi), shape (dims, *grid.shape); finite everywhere, no mask needed."""
    return _currents(wf.amplitudes[None], wf.grid, wf.params)[0]


def continuity_residual(record: EvolutionRecord) -> np.ndarray:
    """Residual of d_t rho + div(rho v) for each adjacent snapshot pair, shape (S - 1, *grid.shape).

    The time derivative is the centered difference across the pair and the
    flux divergence is spectral, evaluated on the average of the two
    snapshot currents (so the estimate is second order in the snapshot
    spacing).  The current form rho*v = (hbar/m) Im(psi* grad psi) avoids
    dividing by rho, so no node mask is needed.  All pairs are computed at
    once, over the record's whole amplitude block.
    """
    if len(record) < 2:
        raise ValueError("need at least two snapshots")
    grid = record.grid
    currents = _currents(record.amplitudes, grid, record.params)
    rho = np.abs(record.amplitudes) ** 2
    spacing = np.diff(record.times).reshape((-1,) + (1,) * grid.dims)
    divergence = np.zeros((len(record) - 1,) + grid.shape)
    for d in range(grid.dims):
        divergence += spectral_derivative(0.5 * (currents[:-1, d] + currents[1:, d]), grid, axis=d)
    return (rho[1:] - rho[:-1]) / spacing + divergence
