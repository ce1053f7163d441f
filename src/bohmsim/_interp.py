"""Catmull-Rom interpolation of grid fields at arbitrary points.

The spline is the cardinal cubic with centered-difference slopes; it
reproduces quadratics exactly and wraps periodically, matching the grids.
All routines are vectorized over a batch of query points.  A ``Stencil``
holds the wrap-around indices and weights of one query set, so a validity
check and any number of fields (both sides of a time bracket included)
share them.
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


class Stencil:
    """Wrap-around interpolation stencil of query points ``x`` (M, dims).

    ``index`` holds flat grid indices, shape (M, 4) in 1D and (M, 4, 4) in
    2D; ``weights`` holds the per-dimension weights, each (M, 4).
    """

    def __init__(self, grid: Grid, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self.weights = []
        index = None
        for d in range(grid.dims):
            lo, _ = grid.extents[d]
            u = (x[:, d] - lo) / grid.dx[d]
            base = np.floor(u).astype(np.int64)
            idx = (base[:, None] + _OFFSETS[None, :]) % grid.points[d]
            self.weights.append(_weights(u - base))
            index = idx if index is None else index[:, :, None] * grid.points[d] + idx[:, None, :]
        self.index = index

    def sample(self, values: np.ndarray) -> np.ndarray:
        """Interpolated values of a real grid field at the query points, (M,)."""
        gathered = values.reshape(-1)[self.index]
        if len(self.weights) == 1:
            return np.einsum("ma,ma->m", gathered, self.weights[0])
        return np.einsum("mab,ma,mb->m", gathered, self.weights[0], self.weights[1])

    def valid(self, mask: np.ndarray) -> np.ndarray:
        """True for points whose full stencil is inside the boolean mask, (M,)."""
        return mask.reshape(-1)[self.index].all(axis=tuple(range(1, self.index.ndim)))


def interpolate(values: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """Interpolate a real grid field at points ``x`` of shape (M, dims)."""
    return Stencil(grid, x).sample(values)


def stencil_valid(valid: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """True for points whose full interpolation stencil is inside the mask."""
    return Stencil(grid, x).valid(valid)
