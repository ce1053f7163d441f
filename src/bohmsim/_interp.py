"""Catmull-Rom interpolation of grid fields at arbitrary points.

The spline is the cardinal cubic with centered-difference slopes; it
reproduces quadratics exactly and wraps periodically, matching the grids.
One ``Stencil`` per query set serves its on-grid flag, its validity check
(one read per point of a mask that ``erode`` shrank by the footprint) and
every field, both sides of a time bracket included.  ``interpolate`` and
``stencil_valid`` stay public: ``perfbench/tracer.py`` wraps both by name.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .wavefield import Grid

_OFFSETS = np.array([-1, 0, 1, 2])
_SUBSCRIPTS = {2: "ma,ma->m", 3: "mab,ma,mb->m"}  # by index.ndim: 1D and 2D


def _weights(s: np.ndarray) -> np.ndarray:
    """Catmull-Rom basis weights for fractional offsets s in [0, 1); (..., 4)."""
    s2 = s * s
    s3 = s2 * s
    w = np.empty(s.shape + (4,))
    np.multiply(0.5, -s3 + 2.0 * s2 - s, out=w[..., 0])
    np.multiply(0.5, 3.0 * s3 - 5.0 * s2 + 2.0, out=w[..., 1])
    np.multiply(0.5, -3.0 * s3 + 4.0 * s2 + s, out=w[..., 2])
    np.multiply(0.5, s3 - s2, out=w[..., 3])
    return w


def erode(mask: np.ndarray, dims: int) -> np.ndarray:
    """True at base indices whose whole footprint (offsets -1..2 per axis,
    wrapped) lies in ``mask``, over its trailing ``dims`` axes.  Erosion
    distributes over ``&``: ``erode(a & b) == erode(a) & erode(b)``."""
    for axis in range(mask.ndim - dims, mask.ndim):
        mask = np.logical_and.reduce([np.roll(mask, -k, axis) for k in _OFFSETS])
    return mask


class Stencil:
    """Wrap-around interpolation stencil of query points ``x`` (M, dims).

    ``on_grid`` flags the points with lo <= x < hi on every axis and
    ``off_grid`` counts the others, which wrap.  ``index`` holds flat grid
    indices, (M, 4) in 1D and (M, 4, 4) in 2D, ``base`` those of offset 0,
    and ``weights`` the per-axis weights, (dims, M, 4).
    """

    def __init__(self, grid: Grid, x: np.ndarray):
        lo, hi, dx, n, tables = grid._stencil_tables
        x = np.atleast_2d(np.asarray(x, dtype=float)).T
        inside = (lo <= x) & (x < hi)
        self.on_grid = inside[0] if grid.dims == 1 else inside.all(axis=0)
        self.off_grid = len(self.on_grid) - np.count_nonzero(self.on_grid)
        # NaN, infinite or huge positions get a meaningless stencil, quietly
        with np.errstate(invalid="ignore") if self.off_grid else nullcontext():
            u = (x - lo) / dx
            base = np.floor(u)
            self.weights = _weights(u - base)
            wrapped = base.astype(np.int64) % n
        self.index = np.take(tables[0], wrapped[0], axis=0)
        self.base = wrapped[0]
        if grid.dims == 2:
            self.index = self.index[:, :, None] + np.take(tables[1], wrapped[1], axis=0)[:, None, :]
            self.base = self.index[:, 1, 1]

    def sample(self, block: np.ndarray) -> np.ndarray:
        """Each real field of a (C, *grid.shape) block at the query points, (M, C)."""
        out = np.empty((len(self.base), len(block)))
        for c, values in enumerate(block.reshape(len(block), -1)):
            out[:, c] = np.einsum(_SUBSCRIPTS[self.index.ndim], values[self.index], *self.weights)
        return out

    def valid(self, eroded: np.ndarray) -> np.ndarray:
        """True for points whose whole stencil lies in the mask ``eroded`` came from, (M,)."""
        return eroded.reshape(-1)[self.base]


def interpolate(values: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """Interpolate a real grid field at points ``x`` of shape (M, dims)."""
    return Stencil(grid, x).sample(np.asarray(values)[None])[:, 0]


def stencil_valid(valid: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """True for points whose full interpolation stencil is inside the mask."""
    return Stencil(grid, x).valid(erode(valid, grid.dims))
