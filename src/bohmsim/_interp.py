"""Catmull-Rom interpolation of grid fields at arbitrary points.

The spline is the cardinal cubic with centered-difference slopes; it
reproduces quadratics exactly and wraps periodically, matching the grids.
All routines are vectorized over a batch of query points.
"""

from __future__ import annotations

import numpy as np

from .wavefield import Grid

_OFFSETS = np.array([-1, 0, 1, 2])


def _weights(s: np.ndarray) -> np.ndarray:
    """Catmull-Rom basis weights for fractional offsets s in [0, 1); (..., 4)."""
    s2 = s * s
    s3 = s2 * s
    w = np.empty(s.shape + (4,))
    w[..., 0] = 0.5 * (-s3 + 2.0 * s2 - s)
    w[..., 1] = 0.5 * (3.0 * s3 - 5.0 * s2 + 2.0)
    w[..., 2] = 0.5 * (-3.0 * s3 + 4.0 * s2 + s)
    w[..., 3] = 0.5 * (s3 - s2)
    return w


def _stencil(grid: Grid, x: np.ndarray):
    """Per-dimension wrap-around stencil indices (M, 4) and weights (M, 4)."""
    indices = []
    weights = []
    for d in range(grid.dims):
        lo, _ = grid.extents[d]
        u = (x[:, d] - lo) / grid.dx[d]
        base = np.floor(u).astype(np.int64)
        s = u - base
        indices.append((base[:, None] + _OFFSETS[None, :]) % grid.points[d])
        weights.append(_weights(s))
    return indices, weights


def interpolate(values: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """Interpolate a real grid field at points ``x`` of shape (M, dims)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    idx, w = _stencil(grid, x)
    if grid.dims == 1:
        gathered = values[idx[0]]  # (M, 4)
        return np.einsum("ma,ma->m", gathered, w[0])
    gathered = values[idx[0][:, :, None], idx[1][:, None, :]]  # (M, 4, 4)
    return np.einsum("mab,ma,mb->m", gathered, w[0], w[1])


def stencil_valid(valid: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """True for points whose full interpolation stencil is inside the mask."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    idx, _ = _stencil(grid, x)
    if grid.dims == 1:
        return valid[idx[0]].all(axis=1)
    return valid[idx[0][:, :, None], idx[1][:, None, :]].all(axis=(1, 2))
