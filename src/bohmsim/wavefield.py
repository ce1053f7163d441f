"""Wavefunctions and derived fields on periodic grids.

Everything downstream (propagation, quantum potential, trajectories) works
with the types defined here: a rectangular periodic ``Grid`` in one or two
dimensions, ``PhysicalParams`` carrying hbar and per-dimension masses, and
an immutable ``Wavefunction`` snapshot.  Derived fields are plain arrays:
one component per dimension along a leading axis, shape (dims, *grid.shape),
with node-region points masked by ``node_mask`` and holding 0.0.

Derivatives are spectral (FFT) throughout, which is why grids are periodic
and localized states must keep a margin away from the boundary.
"""

from __future__ import annotations

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
        dimension has fewer than 16 points.
    """
    if dims not in (1, 2):
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    lows = _as_tuple(x_min, dims, "x_min")
    highs = _as_tuple(x_max, dims, "x_max")
    if np.isscalar(points):
        counts = (int(points),) * dims
    else:
        counts = tuple(int(p) for p in points)
        if len(counts) != dims:
            raise ValueError(f"points must be a scalar or length-{dims} sequence")
    for lo, hi in zip(lows, highs):
        if not hi > lo:
            raise ValueError(f"degenerate extent: x_min={lo} must be < x_max={hi}")
    for n in counts:
        if n < 16:
            raise ValueError(f"need at least 16 points per dimension, got {n}")
    return Grid(dims=dims, extents=tuple(zip(lows, highs)), points=counts)


@dataclass(frozen=True)
class PhysicalParams:
    """hbar and per-dimension masses (a single mass broadcasts)."""

    hbar: float = 1.0
    masses: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if np.isscalar(self.masses):
            object.__setattr__(self, "masses", (float(self.masses),))
        else:
            object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if any(m <= 0 for m in self.masses):
            raise ValueError(f"masses must be positive, got {self.masses}")

    def masses_for(self, dims: int) -> tuple[float, ...]:
        if len(self.masses) == dims:
            return self.masses
        if len(self.masses) == 1:
            return self.masses * dims
        raise ValueError(f"have {len(self.masses)} masses for {dims} dimensions")


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


def spectral_derivative(values: np.ndarray, grid: Grid, axis: int, order: int = 1) -> np.ndarray:
    """Differentiate a periodic grid function by FFT along grid axis ``axis``.

    ``values`` has the grid shape, optionally after leading batch axes;
    every batch entry is differentiated alike.  Returns a real array for
    real input, complex for complex input.
    """
    k = grid.wavenumbers()[axis]
    axis += values.ndim - grid.dims
    shape = [1] * values.ndim
    shape[axis] = len(k)
    factor = (1j * k.reshape(shape)) ** order
    out = np.fft.ifft(factor * np.fft.fft(values, axis=axis), axis=axis)
    if np.isrealobj(values):
        return out.real
    return out


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
    params.masses_for(grid.dims)  # fail early on a mass/dims mismatch
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


def _current(amplitudes: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Im(psi* d_axis psi) of a snapshot or a stack of snapshots: the probability
    current along ``axis`` without its hbar/m factor."""
    return np.imag(np.conj(amplitudes) * spectral_derivative(amplitudes, grid, axis=axis))


def velocity_batch(
    amplitudes: np.ndarray, grid: Grid, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """Guidance velocities of a stack of snapshots.

    ``amplitudes`` has shape (B, *grid.shape).  Returns the velocities,
    shape (B, dims, *grid.shape), and the node-threshold masks, shape
    (B, *grid.shape), each snapshot thresholded against its own peak.
    Masked points hold 0.0.
    """
    rho = np.abs(amplitudes) ** 2
    valid = density_mask(rho, grid.dims)
    masses = params.masses_for(grid.dims)
    out = np.zeros((len(amplitudes), grid.dims) + grid.shape)
    for d in range(grid.dims):
        v = out[:, d]
        np.divide(_current(amplitudes, grid, d), rho, out=v, where=valid)
        v *= params.hbar / masses[d]
        v[~valid] = 0.0
    return out, valid


def velocity_field(wf: Wavefunction) -> np.ndarray:
    """Guidance velocity v_d = (hbar/m_d) Im(psi* d_d psi) / |psi|^2, shape (dims, *grid.shape).

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
