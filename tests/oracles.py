"""Closed-form references used across the test suite.

Everything here is derived independently of the library: free-packet
spreading, the displaced ground state of a unit harmonic well, and the
Gaussian quantum potential / force. Tests compare simulator output against
these, never against values produced by the code under test.  The
exceptions are former library forms that the current code must reproduce
bit for bit: ``continuity_residual_pairs``, the per-pair loop, one snapshot
at a time, behind the batched ``continuity_residual`` (it uses the library's
spectral derivative on single snapshots only); ``einsum_sample``, the einsum
that ``Stencil.sample`` replaced, now the accuracy reference of the 1D power form
and the bit-for-bit reference in 2D; and ``chain_forces``, the spring
law written out that ``manybody._chain_forces`` replaced.  ``power_sample`` is
the 1D power form of ``Stencil.sample`` written out one point at a time, the
bit-for-bit reference of the 1D array and one-point paths.
``catmull_rom_weights`` is the weight polynomials written out, the former
library form and now the accuracy reference of a 2D stencil's weights.
``fft_derivative`` and ``free_record`` are the spectral derivative and the
closed-form free evolution written with ``np.fft``, one derivative per
forward transform and one unfolded phase per mode: the bit-for-bit
references of the field functions and of free records.  ``strang_loop`` is
the stored Strang loop that streamed records replaced, written with the
library's one-step ``step``: the bit-for-bit reference of their rows and
norm drift.  ``per_row_ensemble`` is the ensemble transport whose report rows
each computed their own snapshot's force, the reference of the one that reads
the shared field caches.
"""

from __future__ import annotations

import math

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
    currents = []
    for psi in record.amplitudes:
        currents.append([
            record.params.hbar / record.params.mass * np.imag(np.conj(psi) * spectral_derivative(psi, grid, axis=d))
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


def einsum_sample(block, index, weights):
    """Fields of a (C, *grid) block at stencil points, (M, C): gathered at the flat
    ``index`` (M, 4) or (M, 4, 4) into a C-contiguous array and contracted with the
    per-axis ``weights`` (dims, M, 4) by one C-ordered einsum.  The layout matters:
    einsum's summation order follows the strides of its operands."""
    gathered = np.take(block.reshape(len(block), -1), index, axis=1)
    subscripts = "cma,ma->mc" if index.ndim == 2 else "cmab,ma,mb->mc"
    return np.einsum(subscripts, gathered, *weights, order="C")


def catmull_rom_weights(s):
    """Catmull-Rom weights of the samples at offsets -1, 0, 1, 2 for fractions s, (..., 4):
    the basis polynomials written out, 0.5 (-s3 + 2 s2 - s), 0.5 (3 s3 - 5 s2 + 2),
    0.5 (-3 s3 + 4 s2 + s) and 0.5 (s3 - s2)."""
    s2 = s * s
    s3 = s2 * s
    return np.stack(
        [
            0.5 * (-s3 + 2.0 * s2 - s),
            0.5 * (3.0 * s3 - 5.0 * s2 + 2.0),
            0.5 * (-3.0 * s3 + 4.0 * s2 + s),
            0.5 * (s3 - s2),
        ],
        axis=-1,
    )


def power_sample(block, grid, x):
    """Fields of a (C, n) block at 1D points x (M, 1), (M, C), one point and field at a time
    in Python floats: the cell j = floor(u) mod n and fraction s = u - floor(u) of
    u = (x - lo) / dx, the power-form coefficients of the Catmull-Rom cubic through the
    wrapped samples f(j - 1), f(j), f(j + 1), f(j + 2), and Horner's rule in s.  For finite
    x with |u| < 2**63."""
    (lo, _), = grid.extents
    n, = grid.points
    rows = block.tolist()
    out = np.empty((len(x), len(block)))
    for m, c in enumerate(x[:, 0].tolist()):
        u = (c - lo) / grid.dx[0]
        j = math.floor(u)
        s = u - j
        for k, row in enumerate(rows):
            fm, f0, f1, f2 = (row[(j + offset) % n] for offset in (-1, 0, 1, 2))
            c1 = 0.5 * (f1 - fm)
            c2 = fm - 2.5 * f0 + 2.0 * f1 - 0.5 * f2
            c3 = 0.5 * (f2 - fm) + 1.5 * (f0 - f1)
            out[m, k] = ((c3 * s + c2) * s + c1) * s + f0
    return out


def chain_forces(coupling, x):
    """Nearest-neighbour spring forces of a chain x (n,): each stretch k (x[i+1] - x[i] - rest)
    pulls x[i] forward and x[i+1] back, added in that order."""
    stretch = coupling.coupling * (x[1:] - x[:-1] - coupling.rest_length)
    forces = np.zeros_like(x)
    forces[:-1] += stretch
    forces[1:] -= stretch
    return forces


def fft_derivative(values, grid, axis, order=1):
    """d^order/dx^order of a grid function (optionally after leading batch axes) along grid
    axis ``axis``: ifft((i k)^order fft(values)) with ``np.fft``, real for real input."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.points[axis], d=grid.dx[axis])
    axis += values.ndim - grid.dims
    shape = [1] * values.ndim
    shape[axis] = len(k)
    out = np.fft.ifft((1j * k.reshape(shape)) ** order * np.fft.fft(values, axis=axis), axis=axis)
    return out.real if np.isrealobj(values) else out


def free_record(psi0, grid, hbar, mass, times):
    """Free evolution of the grid function psi0 to each of ``times``, (S, *grid.shape): each row
    ifftn(exp(-i t rate) fftn psi0) with ``np.fft``, rate = sum_d hbar k_d^2 / 2 m."""
    rate = 0.0
    for d, n in enumerate(grid.points):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx[d])
        shape = [1] * grid.dims
        shape[d] = n
        rate = rate + hbar * k.reshape(shape) ** 2 / (2.0 * mass)
    spectrum = np.fft.fftn(psi0)
    return np.array([np.fft.ifftn(np.exp(-1j * t * rate) * spectrum) for t in times])


def free_rows(wf, times):
    """The rows a free record of ``wf`` holds at the elapsed ``times``: ``free_record``'s, but
    psi0's own bits at elapsed time 0, where the record keeps psi0 rather than ifftn(fftn psi0)."""
    rows = free_record(wf.amplitudes, wf.grid, wf.params.hbar, wf.params.mass, times)
    rows[np.asarray(times) == 0.0] = wf.amplitudes
    return rows


def strang_loop(wf, potential, dt, n_steps, stride):
    """``n_steps`` Strang steps of ``dt`` from ``wf``, one ``step`` at a time: every ``stride``-th
    state, (n_steps / stride + 1, *grid.shape), and each step's |norm_after - norm_before|."""
    from bohmsim import step

    cell = wf.grid.cell_volume
    rows, norms = [wf.amplitudes], [float(np.sqrt(np.vdot(wf.amplitudes, wf.amplitudes).real * cell))]
    for i in range(1, n_steps + 1):
        wf = step(wf, potential, dt)
        norms.append(float(np.sqrt(np.vdot(wf.amplitudes, wf.amplitudes).real * cell)))
        if i % stride == 0:
            rows.append(wf.amplitudes)
    return np.array(rows), np.abs(np.diff(norms))


def per_row_ensemble(spec, record, dt):
    """The rows ``evolve_ensemble`` yielded when each report row read its own one-row stack: the step's
    time, the snapshot's row, the positions, and the quantum force ``_read`` without a table from
    ``_snapshot_fields`` of that stack."""
    from bohmsim import sample_equilibrium, trajectories

    times = trajectories._step_times(record, dt)
    cache = trajectories._FieldCache(record, "velocity", 0.5 * dt)
    cache.work = None
    every = cache.q // math.gcd(2 * cache.p, cache.q)  # step k reads at snapshot 2 k p / q
    for step, x, _ in trajectories._guidance_rk4(cache, sample_equilibrium(spec), len(times) - 1, dt):
        if step % every == 0:
            snap = step * 2 * cache.p // cache.q
            amplitudes = record.rows(slice(snap, snap + 1))
            force, eroded = trajectories._snapshot_fields(record, "qforce", amplitudes)
            t = float(times[step])
            yield t, amplitudes[0], x, trajectories._read(record.grid, t, x, force[0], eroded[0])
