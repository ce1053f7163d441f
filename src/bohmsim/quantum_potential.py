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
    _scratch,
    _spectral_derivatives,
    density_mask,
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
    amplitudes: np.ndarray, grid: Grid, params: PhysicalParams, work: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Quantum force (B, dims, *grid.shape) and node mask of a stack of snapshots (B, *grid.shape), each
    thresholded against its own peak density, and the R = |psi| and d_d^2 R per axis d that ``compute_qfields``
    builds Q from.  Both derivatives of R per axis come from one forward transform, bit for bit as ``spectral_derivative``.

    |psi|^2, R and a term are ``work``'s real arrays 0 to 2 (``wavefield._scratch``), the spectra of the mixed
    derivative, d_d R and d_d^2 R its complex arrays 0, 1 + 2d and 2 + 2d, so the force and mask are its only
    fresh arrays (R and d_d^2 R are then the workspace's).  Each numerator sums in its force row.
    """
    dims, shape = grid.dims, amplitudes.shape
    rho, r, term = (_scratch(work, i, shape) for i in range(3))
    np.multiply(np.abs(amplitudes, out=r), r, out=rho)
    valid = density_mask(rho, dims)
    coeff = params.hbar**2 / (2.0 * params.mass)

    spectra = [tuple(_scratch(work, k + 2 * d, shape, complex) for k in (1, 2)) for d in range(dims)]
    first, second = zip(*(_spectral_derivatives(r, grid, d, (1, 2), out=spectra[d]) for d in range(dims)))

    force = np.zeros((len(r), dims) + grid.shape)
    spectrum = (_scratch(work, 0, shape, complex),)
    for e in range(dims):
        numerator = force[:, e]  # 0.0 + term: a -0.0 term comes out as +0.0
        for d in range(dims):
            mixed, = _spectral_derivatives(second[d], grid, e, (1,), out=spectrum)
            # coeff * (mixed * r - second[d] * first[e]), the product written over mixed once it is read
            np.subtract(np.multiply(mixed, r, out=term), np.multiply(second[d], first[e], out=mixed), out=term)
            numerator += np.multiply(coeff, term, out=term)
        np.divide(numerator, rho, out=numerator, where=valid)
        numerator[~valid] = 0.0
    return force, valid, r, second


def compute_qfields(wf: Wavefunction) -> QFields:
    """Quantum potential and force of a wavefunction snapshot, on ``qforce_batch``.

    ``f_q_max`` is the largest force magnitude over valid points, 0.0 when
    none is valid: the scale against which the averaging identity is judged.
    """
    force, valid, r, second = qforce_batch(wf.amplitudes[None], wf.grid, wf.params)
    coeff = wf.params.hbar**2 / (2.0 * wf.params.mass)
    q = np.zeros(r.shape)
    for d in range(wf.grid.dims):
        term = np.zeros(r.shape)
        np.divide(second[d], r, out=term, where=valid)
        q -= coeff * term

    magnitude = np.zeros(r.shape)
    for e in range(wf.grid.dims):
        magnitude += force[:, e] ** 2
    # magnitudes are >= 0, so masking with 0 keeps the valid maximum and gives 0 when none is valid
    f_q_max = np.sqrt(np.where(valid, magnitude, 0.0).max())
    return QFields(wf.grid, q[0], force[0], valid[0], float(f_q_max))


def averaged_quantum_force(wf: Wavefunction) -> np.ndarray:
    """Quadrature of integral |psi|^2 d_d Q dx per dimension, shape (dims,).

    For localized states with the boundary margin this vanishes (two partial
    integrations move both derivatives onto R, leaving an exact derivative).
    A warning is issued when the state touches the periodic boundary, in
    which case the identity legitimately fails.
    """
    return _averaged_force(wf, compute_qfields(wf))


def _averaged_force(wf: Wavefunction, qf: QFields) -> np.ndarray:
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
            stacklevel=4,  # the caller of averaged_quantum_force
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
