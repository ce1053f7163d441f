"""Closed-form references used across the test suite.

Everything here is derived independently of the library: free-packet
spreading, the displaced ground state of a unit harmonic well, and the
Gaussian quantum potential / force. Tests compare simulator output against
these, never against values produced by the code under test.  The one
exception is ``continuity_residual_pairs``: the per-pair loop, one snapshot
at a time, that the batched ``continuity_residual`` must reproduce bit for
bit; it uses the library's spectral derivative on single snapshots only.
"""

from __future__ import annotations

import numpy as np


def spread_sigma(t, sigma0, hbar=1.0, mass=1.0):
    """Width of a freely spreading Gaussian at time t."""
    return sigma0 * np.sqrt(1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def spread_position(t, x0, sigma0, center=0.0, hbar=1.0, mass=1.0):
    """Trajectory of a particle riding a freely spreading Gaussian."""
    return center + (x0 - center) * spread_sigma(t, sigma0, hbar, mass) / sigma0


def spread_velocity(x, t, sigma0, center=0.0, hbar=1.0, mass=1.0):
    """Velocity field of the freely spreading Gaussian."""
    rate = (hbar**2 * t / (4.0 * mass**2 * sigma0**4))
    return (x - center) * rate / (1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def gaussian_quantum_potential(x, sigma, center=0.0, hbar=1.0, mass=1.0):
    """Q for a Gaussian modulus exp(-(x-c)^2 / 4 sigma^2)."""
    return (hbar**2 / (2.0 * mass)) * (
        1.0 / (2.0 * sigma**2) - (x - center) ** 2 / (4.0 * sigma**4)
    )


def gaussian_quantum_force(x, sigma, center=0.0, hbar=1.0, mass=1.0):
    """-dQ/dx for the same Gaussian modulus."""
    return hbar**2 * (x - center) / (4.0 * mass * sigma**4)


def ground_sigma(omega, hbar=1.0, mass=1.0):
    """Width of the harmonic-oscillator ground state."""
    return np.sqrt(hbar / (2.0 * mass * omega))


def coherent_state(x, t, a):
    """Displaced ground state of a unit harmonic well (hbar = m = omega = 1).

    Center oscillates as a*cos(t); the phase follows from the classical
    action. Cross-checked against fine-step numerical evolution before the
    convergence tests froze it as the reference.
    """
    xc = a * np.cos(t)
    phase = -a * np.sin(t) * x + (a * a / 4.0) * np.sin(2.0 * t) - 0.5 * t
    return np.pi**-0.25 * np.exp(-0.5 * (x - xc) ** 2 + 1j * phase)


def gaussian_term_overlap(separation, sigma):
    """|<psi_a|psi_b>|^2 for equal-width Gaussians a distance d apart."""
    return float(np.exp(-(separation**2) / (4.0 * sigma**2)))


def continuity_residual_pairs(record):
    """d_t rho + div j for each adjacent snapshot pair, one pair at a time, (S - 1, *grid.shape)."""
    from bohmsim import spectral_derivative

    grid = record.grid
    masses = record.params.masses_for(grid.dims)
    currents = []
    for psi in record.amplitudes:
        currents.append([
            record.params.hbar / masses[d] * np.imag(np.conj(psi) * spectral_derivative(psi, grid, axis=d))
            for d in range(grid.dims)
        ])
    rho = np.abs(record.amplitudes) ** 2
    out = []
    for i in range(len(record) - 1):
        drho_dt = (rho[i + 1] - rho[i]) / float(record.times[i + 1] - record.times[i])
        divergence = np.zeros(grid.shape)
        for d in range(grid.dims):
            mean_current = 0.5 * (currents[i][d] + currents[i + 1][d])
            divergence += spectral_derivative(mean_current, grid, axis=d)
        out.append(drho_dt + divergence)
    return np.array(out)
