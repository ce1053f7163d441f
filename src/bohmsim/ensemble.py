"""Quantum-equilibrium ensembles: sampling, transport, and statistics.

Sampling is inverse-CDF on the grid cells with uniform placement inside a cell, driven by
the counter-based Philox4x64-10 generator so runs are reproducible from a single whole-number
seed; ``_Philox`` draws numpy's Philox stream bit for bit in plain array arithmetic, with no
random-number module loaded.  ``evolve_ensemble`` streams the transported ensemble one report
row at a time, so its caller reduces each row as it arrives and no positions are kept.
Particles read the velocity and the quantum force from ``trajectories._shared_caches``, as
crosscheck's two routes do.  Means are exactly rounded, so no order sets the bits: ``_fsum``
sums by error-free extraction, whose level sums are exact in numpy, with ``math.fsum``'s bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .propagator import EvolutionRecord
from .trajectories import _eval_fields, _guidance_rk4, _shared_caches, _step_times
from .wavefield import Grid, Wavefunction


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, the high word from 32-bit halves."""
    m_lo, m_hi, x_lo, x_hi = m & 0xFFFFFFFF, m >> 32, x & 0xFFFFFFFF, x >> 32
    cross = (x_lo * m_lo >> 32) + (x_hi * m_lo & 0xFFFFFFFF) + x_lo * m_hi
    return x_hi * m_hi + (x_hi * m_lo >> 32) + (cross >> 32), x * m


def _whole(name: str, value) -> int:
    """The int a whole ``value`` equals (``1000.0`` and ``np.uint64(3)`` included); ``ValueError`` naming
    ``name`` for a fractional, NaN or infinite one."""
    try:
        whole = int(value)
    except (ValueError, OverflowError):  # NaN or infinite
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be one whole number, got {value}")
    return whole


class _Philox:
    """numpy's ``Generator(Philox(key=seed)).random`` stream, bit for bit: block n = 1, 2, ... is
    Philox4x64-10 of the counter (n, 0, 0, 0) under the key (seed mod 2**64, seed >> 64)
    (Salmon, Moraes, Dror and Shaw, SC'11), and its words x0..x3 give ``(word >> 11) * 2**-53`` in
    turn; the words a call leaves unused open the next call, as numpy's four-word buffer does."""

    def __init__(self, seed: int):
        seed = _whole("seed", seed)
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
        self._key = (seed % 2**64, seed >> 64)
        self._blocks, self._left = 0, np.empty(0)  # the last block's counter and its words not yet returned

    def random(self, count: int) -> np.ndarray:
        """The next ``count`` doubles of the stream, uniform on [0, 1)."""
        new = max(0, -((len(self._left) - count) // 4))  # blocks this call needs
        x0 = np.arange(self._blocks + 1, self._blocks + new + 1, dtype=np.uint64)
        x1 = x2 = x3 = np.zeros(new, dtype=np.uint64)
        self._blocks += new
        k0, k1 = self._key  # Python ints: numpy's uint64 scalars warn on wraparound
        for _ in range(10):
            hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, x0)
            hi1, lo1 = _mulhilo(0xCA5A826395121157, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) % 2**64, (k1 + 0xBB67AE8584CAA73B) % 2**64
        stream = np.concatenate([self._left, (np.stack([x0, x1, x2, x3], axis=1).ravel() >> 11) * 2.0**-53])
        self._left = stream[count:].copy()
        return stream[:count]


@dataclass(frozen=True)
class EnsembleSpec:
    """A |psi|^2-distributed ensemble request.

    Statistical contracts assume at least 100 members, so smaller counts
    are rejected outright, as are fractional, NaN and infinite ones; the seed
    is checked by ``_Philox`` when the sample is drawn.
    """

    count: int
    seed: int
    wavefunction: Wavefunction

    def __post_init__(self):
        if _whole("count", self.count) < 100:
            raise ValueError(f"ensemble needs at least 100 members, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def sample_density(rho: np.ndarray, grid: Grid, count: int, rng: _Philox) -> np.ndarray:
    """Draw ``count`` positions from a gridded density, shape (count, dims)."""
    weights = rho.reshape(-1).astype(float)
    cum = np.cumsum(weights)
    total = cum[-1]
    picks = np.searchsorted(cum, rng.random(count) * total, side="right")
    picks = np.minimum(picks, weights.size - 1)
    cells = np.unravel_index(picks, grid.shape)
    out = np.empty((count, grid.dims))
    for d in range(grid.dims):
        lo, _ = grid.extents[d]
        # each grid point carries the mass of the cell centred on it
        out[:, d] = lo + (cells[d] + rng.random(count) - 0.5) * grid.dx[d]
    return out


def sample_equilibrium(spec: EnsembleSpec) -> np.ndarray:
    """Positions distributed as |psi|^2, shape (count, dims)."""
    rho = np.abs(spec.wavefunction.amplitudes) ** 2
    return sample_density(rho, spec.wavefunction.grid, int(spec.count), _Philox(spec.seed))


def _fsum(values: np.ndarray) -> float:
    """The exactly rounded sum of a 1D float array in any order, ``math.fsum(values.tolist())``'s bits
    wherever that returns a value, by error-free extraction.

    With sigma = 2**(e + ceil(log2(M + 2))) and every |r| <= 2**e, q = (sigma + r) - sigma
    splits each r into q + (r - q) exactly and rounds q to a multiple of eps * sigma,
    so ``q.sum()`` is exact in any order (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
    31, 189 (2008)).  Two levels leave a few nonzero residuals, and ``math.fsum`` of the level sums and
    those residuals rounds the same exact sum once, as of the values.  Input above 2**900, where
    ``math.fsum``'s intermediate overflow depends on the order, is summed in fractions, which round once
    or raise ``OverflowError``.  Non-finite input sums its non-finite values alone (with several NaN
    payloads the order decides which one is returned); all-zero input and no input go to ``math.fsum``.
    """
    big = np.abs(values).max(initial=0.0)  # NaN when a value is NaN
    if not math.isfinite(big):
        return math.fsum(values[~np.isfinite(values)].tolist())  # no finite value changes an inf or a NaN
    if big > 2.0**900:
        from fractions import Fraction  # imported only for this rare range
        return float(sum(map(Fraction, values.tolist())))
    if big == 0.0:
        return math.fsum(values.tolist())
    r = values.copy()
    headroom = (len(values) + 1).bit_length()  # ceil(log2(M + 2))
    sums = []
    for _ in range(2):
        sigma = math.ldexp(1.0, math.frexp(big)[1] + headroom)
        q = r + sigma
        q -= sigma
        r -= q
        sums.append(q.sum())
        big = np.abs(r).max()
    return math.fsum(sums + r[r != 0.0].tolist())


def _fsum_mean(values: np.ndarray) -> float:
    return _fsum(values) / len(values)  # the exactly rounded sum, then one division


def _grid_cdf(wf: Wavefunction) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear CDF nodes matching the cell-based sampler (1D)."""
    rho = np.abs(wf.amplitudes) ** 2
    lo, hi = wf.grid.extents[0]
    nodes = lo + (np.arange(wf.grid.points[0] + 1) - 0.5) * wf.grid.dx[0]
    cdf = np.concatenate([[0.0], np.cumsum(rho)])
    return nodes, cdf / cdf[-1]


def equivariance_distance(positions: np.ndarray, wf: Wavefunction) -> float:
    """Kolmogorov-Smirnov distance between samples and |psi|^2 (1D only)."""
    if wf.grid.dims != 1:
        raise ValueError("the Kolmogorov-Smirnov distance is implemented for 1D grids")
    x = np.sort(np.asarray(positions, dtype=float).reshape(-1))
    m = len(x)
    nodes, cdf = _grid_cdf(wf)
    model = np.interp(x, nodes, cdf)
    upper = np.arange(1, m + 1) / m - model
    lower = model - np.arange(m) / m
    return float(max(upper.max(), lower.max()))


def evolve_ensemble(spec: EnsembleSpec, record: EvolutionRecord, dt: float) -> Iterator[tuple]:
    """Sample at the first snapshot and transport along the guidance flow, keeping no row.

    ``dt`` is checked, and the field caches and the sample built, at the call.  The iterator
    returned yields ``(t, amplitudes, positions, force)`` at each step whose force read lands on a
    snapshot (``_FieldCache.snapshot``): the step's time, the snapshot's row, a view of the record's
    window whose rows the force cache reads, the positions (M, dims), and the quantum force (M, dims).
    The two caches read side by side over ``_shared_caches``' window, so each row is computed once;
    positions off the grid or in a node region raise ``TrajectoryAbort`` at their row.
    """
    times = _step_times(record, dt)
    velocity, force = _shared_caches(record, dt)
    velocity.work = force.work = None  # the sample's steps between batches outweigh a kept workspace
    steps = _guidance_rk4(velocity, sample_equilibrium(spec), len(times) - 1, dt)
    return (
        (float(times[step]), record.rows(force.snapshot(step)), x, _eval_fields(force, step, x))
        for step, x, _ in steps if force.snapshot(step) is not None
    )
