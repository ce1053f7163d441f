"""Catmull-Rom interpolation of grid fields at arbitrary points.

The spline is the cardinal cubic with centered-difference slopes; it
reproduces quadratics exactly and wraps periodically, matching the grids.
One ``Stencil`` per query set serves its on-grid flag, its validity check (one read
per point of a mask that ``erode`` shrank by the footprint) and every field, and
``locate`` refills it in place for the next set of as many points.  A stencil of
one point locates an on-grid position in Python floats (``_point_weights``), which
round as numpy does and skip some thirty ufunc calls on one-element arrays; other
positions take the array path.  ``sample`` gathers every field at once and sums
them with one ``einsum``.  ``interpolate`` and ``stencil_valid`` stay public:
``perfbench/tracer.py`` wraps both by name.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from .wavefield import Grid

_OFFSETS = np.array([-1, 0, 1, 2])
_SUBSCRIPTS = {2: "cma,ma->mc", 3: "cmab,ma,mb->mc"}  # by index.ndim: 1D and 2D
_HALF, _TWO, _THREE, _FOUR, _FIVE = map(np.array, (0.5, 2.0, 3.0, 4.0, 5.0))  # a ufunc converts a float per call


def _weights(s: np.ndarray, out: np.ndarray | None = None, work=None) -> np.ndarray:
    """Catmull-Rom basis weights for fractional offsets s in [0, 1); (..., 4), into ``out`` if given.

    ``work`` holds five arrays shaped like ``s``.  The rounding is that of 0.5 (-s3 + 2 s2 - s),
    0.5 (3 s3 - 5 s2 + 2), 0.5 (-3 s3 + 4 s2 + s) and 0.5 (s3 - s2), as -x + y rounds as y - x.
    """
    out = np.empty(s.shape + (4,)) if out is None else out
    s2, s3, a, b, c = np.empty((5,) + s.shape) if work is None else work
    np.multiply(s, s, s2)
    np.multiply(s2, s, s3)
    np.multiply(_HALF, np.subtract(np.subtract(np.multiply(_TWO, s2, a), s3, b), s, a), out[..., 0])
    three_s3 = np.multiply(_THREE, s3, a)
    np.multiply(_HALF, np.add(np.subtract(three_s3, np.multiply(_FIVE, s2, b), c), _TWO, b), out[..., 1])
    np.multiply(_HALF, np.add(np.subtract(np.multiply(_FOUR, s2, b), three_s3, c), s, b), out[..., 2])
    np.multiply(_HALF, np.subtract(s3, s2, a), out[..., 3])
    return out


def _point_weights(s: float) -> tuple[float, float, float, float]:
    """``_weights`` of one fraction in Python floats, bit for bit: each + - * / rounds
    as the ufunc it replaces, and the order of the operations is the same."""
    s2 = s * s
    s3 = s2 * s
    three_s3 = 3.0 * s3
    return (
        0.5 * (2.0 * s2 - s3 - s),
        0.5 * (three_s3 - 5.0 * s2 + 2.0),
        0.5 * (4.0 * s2 - three_s3 + s),
        0.5 * (s3 - s2),
    )


def erode(mask: np.ndarray, dims: int) -> np.ndarray:
    """True at base indices whose whole footprint (offsets -1..2 per axis,
    wrapped) lies in ``mask``, over its trailing ``dims`` axes.  Erosion
    distributes over ``&``: ``erode(a & b) == erode(a) & erode(b)``."""
    for axis in range(mask.ndim - dims, mask.ndim):
        mask = np.logical_and.reduce([np.roll(mask, -k, axis) for k in _OFFSETS])
    return mask


class Stencil:
    """Wrap-around interpolation stencil of query points ``x`` (M, dims).

    ``on_grid`` flags the points with lo <= x < hi on every axis and ``off_grid``
    counts the others, which wrap.  ``index`` holds flat grid indices, (M, 4) in 1D
    and (M, 4, 4) in 2D, ``base`` those of offset 0, and ``weights`` the per-axis
    weights, (dims, M, 4).  All are allocated once; ``locate`` refills them, and
    raises ``ValueError`` for positions of another shape.
    """

    def __init__(self, grid: Grid, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._tables, rows = grid._stencil_tables, (grid.dims, len(x))
        self._shape = (len(x), grid.dims)
        self.weights = np.empty(rows + (4,))
        # lo <= x, x < hi, both; x - lo, u, floor, fraction and two more for _weights
        self._flags, self._rows = tuple(np.empty((3,) + rows, dtype=bool)), tuple(np.empty((6,) + rows))
        self._truncated, self._wrapped = np.empty((2,) + rows, dtype=np.int64)
        self._taken = np.empty(rows + (4,), dtype=np.int64)  # per-axis footprints
        self._per_axis = tuple(zip(self._tables[-1], self._wrapped, self._taken))
        two = grid.dims == 2
        self.on_grid = np.empty(len(x), dtype=bool) if two else self._flags[2][0]
        self.index = np.empty((len(x), 4, 4), dtype=np.int64) if two else self._taken[0]
        self.base = self.index[:, 1, 1] if two else self._wrapped[0]
        self._gather = np.empty((0,) + self.index.shape)  # (C, *index.shape), reallocated when C changes
        self._axes = None
        if len(x) == 1:  # the one-point form: lo, hi, dx, n and row-major stride per axis as Python numbers
            strides = grid.points[1:] + (1,)
            self._axes = tuple(zip(*zip(*grid.extents), grid.dx, grid.points, strides))
            self._scalars = tuple(memoryview(a.reshape(-1)) for a in (self.weights, self.index, self._wrapped))
        self.locate(x)

    def locate(self, x: np.ndarray) -> Stencil:
        """Refill this stencil in place for positions x of the same shape (M, dims).

        One on-grid point takes ``_locate_point``, the same arithmetic in Python floats.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            m, dims = self._shape
            raise ValueError(f"x has shape {x.shape}; this stencil locates {m} point(s) of {dims} coordinate(s)")
        if self._axes is not None and self._locate_point(x.tolist()[0]):
            return self
        lo, hi, dx, n, _ = self._tables
        x = x.T
        above, below, inside = self._flags
        np.logical_and(np.less_equal(lo, x, above), np.less(x, hi, below), inside)
        if len(inside) == 2:
            np.logical_and(inside[0], inside[1], self.on_grid)
        self.off_grid = len(self.on_grid) - np.count_nonzero(self.on_grid)
        shifted, u, base, fraction, spare, other = self._rows
        # NaN, infinite or huge positions get a meaningless stencil, quietly
        with np.errstate(invalid="ignore") if self.off_grid else nullcontext():
            np.divide(np.subtract(x, lo, shifted), dx, u)
            np.subtract(u, np.floor(u, base), fraction)
            np.copyto(self._truncated, base, casting="unsafe")
            _weights(fraction, self.weights, (shifted, u, base, spare, other))
        np.remainder(self._truncated, n, self._wrapped)
        # every index is in range after the wrap; "clip" only skips the check
        for table, wrapped, taken in self._per_axis:
            table.take(wrapped, axis=0, out=taken, mode="clip")
        if len(self._taken) == 2:
            np.add(self._taken[0][:, :, None], self._taken[1][:, None, :], self.index)
        return self

    def _locate_point(self, point: list[float]) -> bool:
        """``locate`` of one point in Python floats; False, having written nothing, off the grid."""
        weights, footprints, wrapped = [], [], []
        for c, (lo, hi, dx, n, stride) in zip(point, self._axes):
            if not lo <= c < hi:
                return False
            u = (c - lo) / dx
            base = math.floor(u)
            weights += _point_weights(u - base)
            j = base % n
            wrapped.append(j)
            footprints.append(((j - 1) % n * stride, j * stride, (j + 1) % n * stride, (j + 2) % n * stride))
        index = footprints[0] if len(footprints) == 1 else [i + j for i in footprints[0] for j in footprints[1]]
        for view, values in zip(self._scalars, (weights, index, wrapped)):
            for k, value in enumerate(values):
                view[k] = value
        self.on_grid[0] = True
        self.off_grid = 0
        return True

    def sample(self, block: np.ndarray) -> np.ndarray:
        """Each real field of a (C, *grid.shape) block at the query points, (M, C)."""
        if len(self._gather) != len(block):
            self._gather = np.empty((len(block),) + self.index.shape)
        block.reshape(len(block), -1).take(self.index, axis=1, out=self._gather, mode="clip")
        return np.einsum(_SUBSCRIPTS[self.index.ndim], self._gather, *self.weights, order="C")

    def valid(self, eroded: np.ndarray) -> np.ndarray:
        """True for points whose whole stencil lies in the mask ``eroded`` came from, (M,)."""
        return eroded.reshape(-1)[self.base]


def checked_stencil(grid: Grid, x: np.ndarray, valid: np.ndarray) -> Stencil:
    """Stencil of points x (M, dims) for a pointwise diagnostic; ``ValueError``
    naming the points off the grid (NaN included), which would otherwise wrap,
    or in the node region of the mask ``valid``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    stencil = Stencil(grid, x)
    if stencil.off_grid:
        raise ValueError(f"position(s) {x[~stencil.on_grid].tolist()} lie off the grid {grid.extents}")
    ok = stencil.valid(erode(valid, grid.dims))
    if not ok.all():
        raise ValueError(f"position(s) {x[~ok].tolist()} lie in a node region")
    return stencil


def interpolate(values: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """Interpolate a real grid field at points ``x`` of shape (M, dims)."""
    return Stencil(grid, x).sample(np.asarray(values)[None])[:, 0]


def stencil_valid(valid: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """True for points whose full interpolation stencil is inside the mask."""
    return Stencil(grid, x).valid(erode(valid, grid.dims))
