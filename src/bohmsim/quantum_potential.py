"""Quantum potential, quantum force, and related pointwise diagnostics.

For psi = R exp(iS/hbar) the quantum potential is

    Q = - sum_d (hbar^2 / 2 m_d) (d_d^2 R) / R

and the quantum force is F_Q = -grad Q.  Derivatives of R are spectral.
F_Q is assembled with the quotient rule on derivatives of R,

    -d_e Q = sum_d c_d (d_e d_d^2 R * R - d_d^2 R * d_e R) / R^2,

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
    ScalarField,
    Wavefunction,
    density_mask,
    spectral_derivative,
    velocity_field,
)


@dataclass(frozen=True)
class QFields:
    """Quantum potential Q, force components F_Q, and their validity mask."""

    q: ScalarField
    force: tuple[ScalarField, ...]
    valid: np.ndarray
    f_q_max: float


def qfields_batch(
    amplitudes: np.ndarray, grid: Grid, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantum potential and force of a stack of snapshots.

    ``amplitudes`` has shape (B, *grid.shape).  Returns ``(q, force, valid,
    f_q_max)`` with shapes (B, *grid.shape), (B, dims, *grid.shape),
    (B, *grid.shape) and (B,); each snapshot is thresholded against its own
    peak density.  ``f_q_max`` is the largest force magnitude over valid
    points, the scale against which the averaging identity is judged.
    """
    dims = grid.dims
    r = np.abs(amplitudes)
    rho = r * r
    valid = density_mask(rho, dims)
    coeffs = [params.hbar**2 / (2.0 * m) for m in params.masses_for(dims)]

    first = [spectral_derivative(r, grid, axis=d) for d in range(dims)]
    second = [spectral_derivative(r, grid, axis=d, order=2) for d in range(dims)]

    q = np.zeros(r.shape)
    for d in range(dims):
        term = np.zeros(r.shape)
        np.divide(second[d], r, out=term, where=valid)
        q -= coeffs[d] * term
    q[~valid] = 0.0

    force = np.zeros((len(r), dims) + grid.shape)
    for e in range(dims):
        numerator = np.zeros(r.shape)
        for d in range(dims):
            mixed = spectral_derivative(second[d], grid, axis=e)
            numerator += coeffs[d] * (mixed * r - second[d] * first[e])
        f = force[:, e]
        np.divide(numerator, rho, out=f, where=valid)
        f[~valid] = 0.0

    magnitude = np.zeros(r.shape)
    for e in range(dims):
        magnitude += force[:, e] ** 2
    f_q_max = np.zeros(len(r))
    for b in range(len(r)):
        if valid[b].any():
            f_q_max[b] = np.sqrt(magnitude[b][valid[b]].max())
    return q, force, valid, f_q_max


def compute_qfields(wf: Wavefunction) -> QFields:
    """Quantum potential and force of a wavefunction snapshot.

    ``f_q_max`` is the largest force magnitude over valid points, the scale
    against which the averaging identity is judged.
    """
    grid = wf.grid
    q, force, valid, f_q_max = qfields_batch(wf.amplitudes[None], grid, wf.params)
    valid = valid[0]
    return QFields(
        q=ScalarField(grid, q[0], label="quantum-potential", valid=valid),
        force=tuple(
            ScalarField(grid, force[0, e], label=f"quantum-force[{e}]", valid=valid)
            for e in range(grid.dims)
        ),
        valid=valid,
        f_q_max=float(f_q_max[0]),
    )


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
        integrand = -rho * qf.force[d].values  # rho * d_d Q on the valid mask
        out[d] = float(integrand[qf.valid].sum() * cell)
    return out


def _warn_if_boundary_touched(rho: np.ndarray) -> None:
    edge = np.zeros(rho.shape, dtype=bool)
    for d in range(rho.ndim):
        sl = [slice(None)] * rho.ndim
        sl[d] = 0
        edge[tuple(sl)] = True
        sl[d] = -1
        edge[tuple(sl)] = True
    if density_mask(rho, rho.ndim)[edge].any():
        warnings.warn(
            "state touches the periodic boundary; the quantum-force averaging "
            "identity may fail",
            stacklevel=3,
        )


def hamilton_jacobi_energy(wf: Wavefunction, potential: PotentialSpec, x) -> float:
    """Pointwise energy E = sum_d (1/2) m_d v_d^2 + V + Q at position ``x``.

    ``x`` is interpolated off-grid (cubic).  Raises ``ValueError`` when the
    interpolation stencil touches the node region.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape != (1, wf.grid.dims):
        raise ValueError(f"x must be a single point with {wf.grid.dims} coordinates")
    qf = compute_qfields(wf)
    stencil = _interp.Stencil(wf.grid, x)
    if not bool(stencil.valid(qf.valid)[0]):
        raise ValueError(f"position {x[0]} lies in a node region")
    masses = wf.params.masses_for(wf.grid.dims)
    vel = velocity_field(wf)
    kinetic = 0.0
    for d in range(wf.grid.dims):
        v = float(stencil.sample(vel[d].values)[0])
        kinetic += 0.5 * masses[d] * v * v
    q = float(stencil.sample(qf.q.values)[0])
    v_cl = float(potential.value_at(x[0], wf.params))
    return kinetic + v_cl + q
