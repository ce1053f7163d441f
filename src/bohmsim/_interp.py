"""Catmull-Rom interpolation of grid fields at arbitrary points.

The spline is the cardinal cubic with centered-difference slopes; it
reproduces quadratics exactly and wraps periodically, matching the grids.
One ``Stencil`` per query set serves its on-grid flag, its validity check (one read
per point of a mask that ``erode`` shrank by the footprint) and every field, and
``locate`` refills it in place for the next set of as many points.  In 1D a cell's
cubic depends only on its four samples: ``sample`` tabulates the power-form
coefficients of every cell (``_cubic``) and evaluates each point's cell by Horner's
rule, and ``sample_point`` does the same for one position in Python floats, bit for
bit.  In 2D ``locate`` also fills per-axis weights and footprints for one ``einsum``.
``interpolate`` and ``stencil_valid`` stay public: ``perfbench/tracer.py`` wraps both.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from .wavefield import Grid

_OFFSETS = np.array([-1, 0, 1, 2])
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


def _cubic(before, here, after, beyond):
    """Power-form coefficients c0..c3 of the Catmull-Rom cubic through samples f(-1), f(0), f(1), f(2) on
    the cell [0, 1]; floats and arrays round alike, as each expression is evaluated left to right."""
    c2 = before - 2.5 * here + 2.0 * after - 0.5 * beyond
    return here, 0.5 * (after - before), c2, 0.5 * (beyond - before) + 1.5 * (here - after)


def _shifts(a: np.ndarray, axis: int) -> list[np.ndarray]:
    """Four views of ``a`` wrapped along ``axis`` whose entry j holds a[j + k], for k = -1, 0, 1, 2."""
    n = a.shape[axis]
    pad = np.take(a, np.arange(-1, n + 2), axis=axis, mode="wrap")
    tail = (slice(None),) * (a.ndim - 1 - axis % a.ndim)
    return [pad[(..., slice(k, k + n)) + tail] for k in range(4)]


def erode(mask: np.ndarray, dims: int) -> np.ndarray:
    """True at base indices whose whole footprint (offsets -1..2 per axis,
    wrapped) lies in ``mask``, over its trailing ``dims`` axes.  Erosion
    distributes over ``&``: ``erode(a & b) == erode(a) & erode(b)``."""
    for axis in range(mask.ndim - dims, mask.ndim):
        before, here, after, beyond = _shifts(mask, axis)
        mask = before & here & after & beyond
    return mask


class Stencil:
    """Wrap-around interpolation stencil of query points ``x`` (M, dims).

    ``on_grid`` flags the points with lo <= x < hi on every axis and ``off_grid``
    counts the others, which wrap.  ``base`` holds the flat grid index of each point's
    cell and ``fraction`` the point's place in it per axis, (dims, M).  In 2D ``index``
    holds the flat footprint indices, (M, 4, 4), and ``weights`` the per-axis weights,
    (2, M, 4).  All are allocated once; ``locate`` refills them, and raises
    ``ValueError`` for positions of another shape.
    """

    def __init__(self, grid: Grid, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._tables, rows = grid._stencil_tables, (grid.dims, len(x))
        self._shape = (len(x), grid.dims)
        two = grid.dims == 2
        # lo <= x, x < hi, both; x - lo, u, floor, fraction and, in 2D, two more for _weights
        self._flags, self._rows = tuple(np.empty((3,) + rows, dtype=bool)), tuple(np.empty((4 + 2 * two,) + rows))
        self._truncated, self._wrapped = np.empty((2,) + rows, dtype=np.int64)
        self.fraction = self._rows[3]
        if two:
            self.weights = np.empty(rows + (4,))
            self._taken = np.empty(rows + (4,), dtype=np.int64)  # per-axis footprints
            self._per_axis = tuple(zip(self._tables[-1], self._wrapped, self._taken))
            self.on_grid = np.empty(len(x), dtype=bool)
            self.index = np.empty((len(x), 4, 4), dtype=np.int64)
            self.base = self.index[:, 1, 1]
        else:
            self.on_grid, self.base = self._flags[2][0], self._wrapped[0]
        self._gather = np.empty((0,))  # gathered fields, reallocated when their count changes
        self.locate(x)

    def locate(self, x: np.ndarray) -> Stencil:
        """Refill this stencil in place for positions x of the same shape (M, dims)."""
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            m, dims = self._shape
            raise ValueError(f"x has shape {x.shape}; this stencil locates {m} point(s) of {dims} coordinate(s)")
        lo, hi, dx, n, _ = self._tables
        x = x.T
        above, below, inside = self._flags
        np.logical_and(np.less_equal(lo, x, above), np.less(x, hi, below), inside)
        two = len(inside) == 2
        if two:
            np.logical_and(inside[0], inside[1], self.on_grid)
        self.off_grid = len(self.on_grid) - np.count_nonzero(self.on_grid)
        shifted, u, base, fraction, *spare = self._rows
        # NaN, infinite or huge positions get a meaningless stencil, quietly
        with np.errstate(invalid="ignore") if self.off_grid else nullcontext():
            np.divide(np.subtract(x, lo, shifted), dx, u)
            np.subtract(u, np.floor(u, base), fraction)
            np.copyto(self._truncated, base, casting="unsafe")
            if two:
                _weights(fraction, self.weights, (shifted, u, base, *spare))
        # floor mod n: t - (t // n) n takes half the time of np.remainder on int64
        t, wrapped = self._truncated, self._wrapped
        np.subtract(t, np.multiply(np.floor_divide(t, n, wrapped), n, wrapped), wrapped)
        if two:
            # every index is in range after the wrap; "clip" only skips the check
            for table, row, taken in self._per_axis:
                table.take(row, axis=0, out=taken, mode="clip")
            np.add(self._taken[0][:, :, None], self._taken[1][:, None, :], self.index)
        return self

    def sample(self, block: np.ndarray) -> np.ndarray:
        """Each real field of a (C, *grid.shape) block at the query points, (M, C)."""
        m, c = len(self.base), len(block)
        if len(self.fraction) == 2:
            if self._gather.shape != (c,) + self.index.shape:
                self._gather = np.empty((c,) + self.index.shape)
            block.reshape(c, -1).take(self.index, axis=1, out=self._gather, mode="clip")
            return np.einsum("cmab,ma,mb->mc", self._gather, *self.weights, order="C")
        if self._gather.shape != (c, m, 4):
            self._gather = np.empty((c, m, 4))
        table = np.stack(_cubic(*_shifts(block, -1)), axis=-1)  # (C, n, 4): a point's gather is one 32-byte row
        c0, c1, c2, c3 = table.take(self.base, axis=1, out=self._gather, mode="clip").transpose(2, 0, 1)
        # ((c3 s + c2) s + c1) s + c0, as sample_point evaluates: the bits depend on this order
        out = np.empty((m, c))
        h, s = out.T, self.fraction
        np.add(np.multiply(np.add(np.multiply(np.add(np.multiply(c3, s, h), c2, h), s, h), c1, h), s, h), c0, h)
        return out

    def valid(self, eroded: np.ndarray) -> np.ndarray:
        """True for points whose whole stencil lies in the mask ``eroded`` came from, (M,)."""
        return eroded.reshape(-1)[self.base]


def sample_point(grid: Grid, c: float, block: np.ndarray, eroded: np.ndarray) -> tuple[float, bool] | None:
    """One field of a (1, n) block at one position c of a 1D grid, in Python floats, and
    whether its stencil lies in the mask ``eroded`` came from; None off the grid (NaN
    included).  Equal to ``Stencil(grid, [[c]])``'s ``sample`` and ``valid`` bit for bit."""
    (lo, hi), = grid.extents
    if not lo <= c < hi:
        return None
    n, = grid.points
    u = (c - lo) / grid.dx[0]
    base = math.floor(u)
    s = u - base
    j = base % n
    a = block.item
    c0, c1, c2, c3 = _cubic(a((j - 1) % n), a(j), a((j + 1) % n), a((j + 2) % n))
    return ((c3 * s + c2) * s + c1) * s + c0, eroded.item(j)


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
