"""Quantum potential, quantum force, and related pointwise diagnostics.

For psi = R exp(iS/hbar) the quantum potential is

    Q = - sum_d (hbar^2 / 2 m) (d_d^2 R) / R

and the quantum force is F_Q = -grad Q.  Derivatives of R are spectral.
F_Q is assembled with the quotient rule on derivatives of R,

    -d_e Q = sum_d c (d_e d_d^2 R * R - d_d^2 R * d_e R) / R^2,  c = hbar^2 / 2 m,

so the only division happens pointwise at the end; differentiating the
masked Q field directly would smear node-region garbage across the grid.
Both fields are masked where |psi|^2 falls below the node threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _interp
from .propagator import PotentialSpec
from .wavefield import (
    Grid,
    PhysicalParams,
    Wavefunction,
    _spectral_derivatives,
    density_mask,
    spectral_derivative,
    velocity_field,
)


@dataclass(frozen=True)
class QFields:
    """Quantum potential Q, shape grid.shape, force F_Q, shape (dims, *grid.shape),
    and their validity mask; masked points hold 0.0."""

    grid: Grid
    q: np.ndarray
    force: np.ndarray
    valid: np.ndarray
    f_q_max: float


def qforce_batch(
    amplitudes: np.ndarray, grid: Grid, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """``qfields_batch``'s force and mask, and the R = |psi| and d_d^2 R per axis d
    that Q is built from.  R's first and second derivatives along each axis
    share one forward transform, with the bits of two ``spectral_derivative`` calls.
    """
    dims = grid.dims
    r = np.abs(amplitudes)
    rho = r * r
    valid = density_mask(rho, dims)
    coeff = params.hbar**2 / (2.0 * params.mass)

    first, second = zip(*(_spectral_derivatives(r, grid, d, (1, 2)) for d in range(dims)))

    force = np.zeros((len(r), dims) + grid.shape)
    for e in range(dims):
        numerator = np.zeros(r.shape)  # 0.0 + term: a -0.0 term comes out as +0.0
        for d in range(dims):
            mixed = spectral_derivative(second[d], grid, axis=e)
            numerator += coeff * (mixed * r - second[d] * first[e])
        f = force[:, e]
        np.divide(numerator, rho, out=f, where=valid)
    return force, valid, r, second


def qfields_batch(
    amplitudes: np.ndarray, grid: Grid, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantum potential and force of a stack of snapshots.

    ``amplitudes`` has shape (B, *grid.shape).  Returns ``(q, force, valid,
    f_q_max)`` with shapes (B, *grid.shape), (B, dims, *grid.shape),
    (B, *grid.shape) and (B,); each snapshot is thresholded against its own
    peak density.  Q and ``f_q_max``, the largest force magnitude over valid
    points, are built on ``qforce_batch``.
    """
    force, valid, r, second = qforce_batch(amplitudes, grid, params)
    coeff = params.hbar**2 / (2.0 * params.mass)
    q = np.zeros(r.shape)
    for d in range(grid.dims):
        term = np.zeros(r.shape)
        np.divide(second[d], r, out=term, where=valid)
        q -= coeff * term

    magnitude = np.zeros(r.shape)
    for e in range(grid.dims):
        magnitude += force[:, e] ** 2
    # magnitudes are >= 0, so masking with 0 keeps the valid maximum and gives 0 when none is valid
    f_q_max = np.sqrt(np.where(valid, magnitude, 0.0).max(axis=tuple(range(1, r.ndim))))
    return q, force, valid, f_q_max


def compute_qfields(wf: Wavefunction) -> QFields:
    """Quantum potential and force of a wavefunction snapshot.

    ``f_q_max`` is the largest force magnitude over valid points, the scale
    against which the averaging identity is judged.
    """
    q, force, valid, f_q_max = qfields_batch(wf.amplitudes[None], wf.grid, wf.params)
    return QFields(wf.grid, q[0], force[0], valid[0], float(f_q_max[0]))


def averaged_quantum_force(wf: Wavefunction) -> np.ndarray:
    """Quadrature of integral |psi|^2 d_d Q dx per dimension, shape (dims,).

    For localized states with the boundary margin this vanishes (two partial
    integrations move both derivatives onto R, leaving an exact derivative).
    A warning is issued when the state touches the periodic boundary, in
    which case the identity legitimately fails.
    """
    qf = compute_qfields(wf)
    rho = np.abs(wf.amplitudes) ** 2
    _warn_if_boundary_touched(rho)
    cell = wf.grid.cell_volume
    out = np.empty(wf.grid.dims)
    for d in range(wf.grid.dims):
        integrand = -rho * qf.force[d]  # rho * d_d Q on the valid mask
        out[d] = float(integrand[qf.valid].sum() * cell)
    return out


def _warn_if_boundary_touched(rho: np.ndarray) -> None:
    edge = np.ones(rho.shape, dtype=bool)  # first or last index along some axis
    edge[(slice(1, -1),) * rho.ndim] = False
    if density_mask(rho, rho.ndim)[edge].any():
        warnings.warn(
            "state touches the periodic boundary; the quantum-force averaging "
            "identity may fail",
            stacklevel=3,
        )


def hamilton_jacobi_energy(wf: Wavefunction, potential: PotentialSpec, x) -> float:
    """Pointwise energy E = sum_d (1/2) m v_d^2 + V + Q at position ``x``.

    ``x`` is interpolated between grid points (cubic).  Raises ``ValueError``
    when ``x`` lies off the grid or its interpolation stencil touches the
    node region.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape != (1, wf.grid.dims):
        raise ValueError(f"x must be a single point with {wf.grid.dims} coordinates")
    qf = compute_qfields(wf)
    stencil = _interp.checked_stencil(wf.grid, x, qf.valid)
    *velocity, q = stencil.sample(np.concatenate([velocity_field(wf), qf.q[None]]))[0].tolist()
    kinetic = 0.0
    for v in velocity:
        kinetic += 0.5 * wf.params.mass * v * v
    v_cl = float(potential.value_at(x[0], wf.params))
    return kinetic + v_cl + q
