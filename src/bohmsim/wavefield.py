"""Wavefunctions and derived fields on periodic grids.

Everything downstream (propagation, quantum potential, trajectories) works
with the types defined here: a rectangular periodic ``Grid`` in one or two
dimensions, ``PhysicalParams`` carrying hbar and the one mass of every
configuration-space coordinate, and an immutable ``Wavefunction``
snapshot.  Derived fields are plain arrays: one component per dimension
along a leading axis, shape (dims, *grid.shape), with node-region points
masked by ``node_mask`` and holding 0.0.

Derivatives are spectral (FFT) throughout, which is why grids are periodic
and localized states must keep a margin away from the boundary.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative |psi|^2 threshold below which a grid point counts as a node.
NODE_THRESHOLD = 1e-12

# Localized states must sit at least this many widths from the boundary.
BOUNDARY_MARGIN_SIGMAS = 5.0

# ... and be resolved by at least this many grid spacings per width.
MIN_POINTS_PER_SIGMA = 3.0

# Grid points per batch of snapshots that the propagator evolves or the
# trajectory layer computes fields for at once: 21 snapshots of a 384-point
# line, one snapshot of a 128 x 128 plane.  Keeps the batch temporaries,
# and so the peak memory, flat in the record length.
FIELD_BATCH_POINTS = 8192


def _as_tuple(value, dims: int, name: str) -> tuple[float, ...]:
    """Broadcast a scalar (or validate a sequence) to one value per dimension."""
    if np.isscalar(value):
        return (float(value),) * dims
    out = tuple(float(v) for v in value)
    if len(out) != dims:
        raise ValueError(f"{name} must be a scalar or length-{dims} sequence, got {value!r}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid over a rectangular extent.

    Parameters
    ----------
    dims : int
        Number of configuration-space dimensions (1 or 2).
    extents : tuple of (float, float)
        Per-dimension ``(x_min, x_max)``; ``x_max`` is identified with
        ``x_min`` under periodic wrap-around.
    points : tuple of int
        Per-dimension point count.
    """

    dims: int
    extents: tuple[tuple[float, float], ...]
    points: tuple[int, ...]

    @cached_property
    def dx(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.extents, self.points))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinate array along each dimension (excludes the wrapped endpoint)."""
        return tuple(
            lo + step * np.arange(n)
            for (lo, hi), step, n in zip(self.extents, self.dx, self.points)
        )

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Full coordinate meshes with matrix ('ij') indexing."""
        if self.dims == 1:
            return self.axes()
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumber array along each dimension (FFT ordering), read-only."""
        return self._wavenumbers

    @cached_property
    def _wavenumbers(self) -> tuple[np.ndarray, ...]:
        out = tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=step)
            for n, step in zip(self.points, self.dx)
        )
        for k in out:
            k.setflags(write=False)
        return out


def make_grid(dims: int, x_min, x_max, points) -> Grid:
    """Build a periodic grid; scalars broadcast across dimensions.

    Raises
    ------
    ValueError
        If ``dims`` is not 1 or 2, any extent is degenerate, or any
        dimension has a fractional point count or fewer than 16 points.
    """
    if dims not in (1, 2):
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    lows = _as_tuple(x_min, dims, "x_min")
    highs = _as_tuple(x_max, dims, "x_max")
    given = (points,) * dims if np.isscalar(points) else tuple(points)
    try:
        counts = tuple(int(p) for p in given)
    except (ValueError, OverflowError):  # a NaN or infinite count
        counts = ()
    if len(counts) != dims or counts != given:
        raise ValueError(f"points must be one whole number or a length-{dims} sequence of them, got {points}")
    for lo, hi in zip(lows, highs):
        if not hi > lo:
            raise ValueError(f"degenerate extent: x_min={lo} must be < x_max={hi}")
    for n in counts:
        if n < 16:
            raise ValueError(f"need at least 16 points per dimension, got {n}")
    return Grid(dims=dims, extents=tuple(zip(lows, highs)), points=counts)


@dataclass(frozen=True)
class PhysicalParams:
    """hbar and the one mass m that every configuration-space coordinate carries."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            value = float(getattr(self, name))
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Wavefunction:
    """Immutable snapshot of a complex wavefunction on a grid."""

    grid: Grid
    params: PhysicalParams
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != self.grid.shape:
            raise ValueError(f"amplitudes shape {amps.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "amplitudes", amps)


# numpy's pocketfft gufuncs (fft, ifft), or () when that private module is
# missing; looked up on the first transform, so importing bohmsim loads no FFT code
_pocketfft = None
# the gufuncs' ``axes`` argument for a transform along each axis a batch of grids has, built once
_GUFUNC_AXES = [[(axis,), (), (axis,)] for axis in range(3)]


def _scratch(work: dict | None, slot, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An uninitialised array of ``shape``: the head of the flat buffer that ``work`` keeps for ``slot`` and
    ``dtype``, made (or grown) by the first call that needs it; without ``work``, a fresh one.  A batch
    numbers its complex and its real arrays from 0, so batches that do not overlap share buffers."""
    work, key, size = {} if work is None else work, (slot, np.dtype(dtype).char), math.prod(shape)
    if key not in work or work[key].size < size:
        work[key] = np.empty(size, dtype)
    return work[key][:size].reshape(shape)


def _fft(values: np.ndarray, axis: int, out: np.ndarray | None = None, inverse: bool = False) -> np.ndarray:
    """``np.fft.fft(values, axis=axis, out=out)``, or ``np.fft.ifft`` when ``inverse``, bit for bit.

    Calls the gufunc that ``np.fft`` calls, with the same scale factor (1
    forward, 1/n inverse), without ``np.fft``'s per-call argument handling;
    falls back to ``np.fft`` when numpy lacks the private module.  ``axis``
    is 0, 1 or 2, as on a batch of 2D grids; ``out``, complex and of
    ``values``' shape, may be ``values`` itself; real ``values`` are cast
    into it, where the gufunc would cast them into a copy.
    """
    global _pocketfft
    if _pocketfft is None:
        try:
            module = importlib.import_module("numpy.fft._pocketfft_umath")
            _pocketfft = (module.fft, module.ifft)
        except (ImportError, AttributeError):
            _pocketfft = ()
    if _pocketfft:
        if out is None:
            out = np.empty_like(values, dtype=complex)
        if values.dtype.kind == "f":
            np.copyto(out, values)
            values = out
        scale = 1 / values.shape[axis] if inverse else 1
        return _pocketfft[inverse](values, scale, axes=_GUFUNC_AXES[axis], out=out)
    return (np.fft.ifft if inverse else np.fft.fft)(values, axis=axis, out=out)


def spectral_derivative(values: np.ndarray, grid: Grid, axis: int, order: int = 1) -> np.ndarray:
    """Differentiate a periodic grid function by FFT along grid axis ``axis``.

    ``values`` has the grid shape, optionally after leading batch axes;
    every batch entry is differentiated alike.  Returns a real array for
    real input, complex for complex input.
    """
    return _spectral_derivatives(values, grid, axis, (order,))[0]


def _spectral_derivatives(
    values: np.ndarray, grid: Grid, axis: int, orders: tuple[int, ...], out: tuple[np.ndarray, ...] | None = None
) -> list[np.ndarray]:
    """``spectral_derivative`` of ``values`` for each order in ``orders``, the same bits,
    from one forward transform.  Order i is computed in ``out[i]`` (complex, of ``values``'
    shape) when ``out`` is given, and the last in place in the spectrum's buffer.
    """
    k = grid.wavenumbers()[axis]
    batch_axis = axis + values.ndim - grid.dims
    shape = [1] * values.ndim
    shape[batch_axis] = len(k)
    ik = 1j * k.reshape(shape)
    out = out or (None,) * len(orders)
    spectrum = _fft(values, batch_axis, out=out[-1])
    derivatives = []
    for i, order in enumerate(orders):
        derivative = np.multiply(ik**order, spectrum, out=spectrum if i == len(orders) - 1 else out[i])
        _fft(derivative, batch_axis, out=derivative, inverse=True)
        derivatives.append(derivative.real if np.isrealobj(values) else derivative)
    return derivatives


def norm(wf: Wavefunction) -> float:
    """L2 norm of the wavefunction under the grid quadrature."""
    return float(np.sqrt(np.sum(np.abs(wf.amplitudes) ** 2) * wf.grid.cell_volume))


def normalize(wf: Wavefunction) -> Wavefunction:
    """Return the unit-norm rescaling of ``wf``."""
    n = norm(wf)
    if n == 0.0:
        raise ValueError("cannot normalize the zero wavefunction")
    return Wavefunction(wf.grid, wf.params, wf.amplitudes / n, wf.time)


def init_gaussian(grid: Grid, params: PhysicalParams, center, sigma, wavenumber=0.0) -> Wavefunction:
    """Normalized Gaussian packet exp(-(x-x0)^2 /4 sigma^2 + i k0 x).

    ``sigma`` is the position standard deviation of |psi|^2.  Scalars
    broadcast across dimensions.

    Raises
    ------
    ValueError
        If any width is under-resolved (sigma <= 3 dx) or the packet sits
        closer than 5 sigma to the periodic boundary.
    """
    centers = _as_tuple(center, grid.dims, "center")
    sigmas = _as_tuple(sigma, grid.dims, "sigma")
    k0s = _as_tuple(wavenumber, grid.dims, "wavenumber")
    for d, (c, s) in enumerate(zip(centers, sigmas)):
        step = grid.dx[d]
        lo, hi = grid.extents[d]
        if s <= MIN_POINTS_PER_SIGMA * step:
            raise ValueError(
                f"under-resolved width along dimension {d}: sigma={s} needs more than "
                f"{MIN_POINTS_PER_SIGMA} grid spacings (dx={step})"
            )
        if c - BOUNDARY_MARGIN_SIGMAS * s < lo or c + BOUNDARY_MARGIN_SIGMAS * s > hi:
            raise ValueError(
                f"packet too close to periodic boundary along dimension {d}: need "
                f"{BOUNDARY_MARGIN_SIGMAS} sigma of margin"
            )
    phase = np.zeros(grid.shape, dtype=complex)
    envelope = np.zeros(grid.shape, dtype=float)
    for d, mesh in enumerate(grid.meshes()):
        envelope = envelope - (mesh - centers[d]) ** 2 / (4.0 * sigmas[d] ** 2)
        phase = phase + 1j * k0s[d] * mesh
    wf = Wavefunction(grid, params, np.exp(envelope + phase), time=0.0)
    return normalize(wf)


def init_plane_wave(grid: Grid, params: PhysicalParams, wavenumber) -> Wavefunction:
    """Box-normalized plane wave; wavenumbers snap to the periodic lattice."""
    k0s = _as_tuple(wavenumber, grid.dims, "wavenumber")
    snapped = []
    for d, k in enumerate(k0s):
        lo, hi = grid.extents[d]
        base = 2.0 * np.pi / (hi - lo)
        snapped.append(base * round(k / base))
    phase = np.zeros(grid.shape, dtype=complex)
    for d, mesh in enumerate(grid.meshes()):
        phase = phase + 1j * snapped[d] * mesh
    return normalize(Wavefunction(grid, params, np.exp(phase), time=0.0))


def density_mask(rho: np.ndarray, dims: int) -> np.ndarray:
    """True where the density rho = |psi|^2 is above the relative node threshold.

    The threshold is relative to the maximum over the trailing ``dims``
    (grid) axes, so each entry of a leading batch axis of snapshots is
    judged against its own peak.
    """
    grid_axes = tuple(range(rho.ndim - dims, rho.ndim))
    return rho >= NODE_THRESHOLD * rho.max(axis=grid_axes, keepdims=True)


def node_mask(wf: Wavefunction) -> np.ndarray:
    """True where |psi|^2 is above the relative node threshold."""
    return density_mask(np.abs(wf.amplitudes) ** 2, wf.grid.dims)


def _axis_currents(amplitudes: np.ndarray, grid: Grid, work: dict | None = None):
    """Yield Im(psi* d_d psi) of a stack of snapshots (B, *grid.shape) for each axis d in
    turn: the probability current along d without its hbar/m factor.

    The conjugate and one complex transform workspace are ``work``'s complex
    arrays 0 and 1 (``_scratch``).  The workspace holds each axis's transform,
    derivative and product in place, and each yielded current is a view of it
    that the next axis overwrites.  The product keeps the order
    conj(psi) * d_d psi, which sets the bits.
    """
    conj = np.conjugate(amplitudes, out=_scratch(work, 0, amplitudes.shape, complex))
    workspace = _scratch(work, 1, amplitudes.shape, complex)
    for d in range(grid.dims):
        derivative, = _spectral_derivatives(amplitudes, grid, d, (1,), out=(workspace,))
        yield np.multiply(conj, derivative, out=derivative).imag


def velocity_batch(
    amplitudes: np.ndarray, grid: Grid, params: PhysicalParams, work: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Guidance velocities of a stack of snapshots.

    ``amplitudes`` has shape (B, *grid.shape).  Returns the velocities,
    shape (B, dims, *grid.shape), and the node-threshold masks, shape
    (B, *grid.shape), each snapshot thresholded against its own peak.
    Masked points hold 0.0.  Each velocity is the current of
    ``_axis_currents``, divided by |psi|^2 on valid points straight into
    the output and scaled there by hbar/m.  |psi|^2 is ``work``'s real array
    0 (``_scratch``), so the outputs are a batch's only fresh arrays.
    """
    rho = np.abs(amplitudes, out=_scratch(work, 0, amplitudes.shape))
    np.square(rho, out=rho)
    valid = density_mask(rho, grid.dims)
    out = np.zeros((len(amplitudes), grid.dims) + grid.shape)
    for d, current in enumerate(_axis_currents(amplitudes, grid, work)):
        v = out[:, d]
        np.divide(current, rho, out=v, where=valid)
        v *= params.hbar / params.mass
    return out, valid


def velocity_field(wf: Wavefunction) -> np.ndarray:
    """Guidance velocity v_d = (hbar/m) Im(psi* d_d psi) / |psi|^2, shape (dims, *grid.shape).

    The ratio form is gauge-safe (no phase unwrapping).  Points outside
    ``node_mask(wf)`` hold 0.0.
    """
    return velocity_batch(wf.amplitudes[None], wf.grid, wf.params)[0][0]


def position_moments(wf: Wavefunction) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of position under |psi|^2, per dimension."""
    rho = np.abs(wf.amplitudes) ** 2
    weight = rho.sum()
    means = np.empty(wf.grid.dims)
    variances = np.empty(wf.grid.dims)
    for d, mesh in enumerate(wf.grid.meshes()):
        m = float((rho * mesh).sum() / weight)
        means[d] = m
        variances[d] = float((rho * (mesh - m) ** 2).sum() / weight)
    return means, variances
