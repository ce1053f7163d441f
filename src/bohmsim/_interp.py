"""Catmull-Rom interpolation of grid fields at arbitrary points.

The spline is the cardinal cubic with centered-difference slopes; it
reproduces quadratics exactly and wraps periodically, matching the grids.
``_cubic`` is its one definition.  A ``Stencil`` is built once from its query
points and serves their on-grid flag, their validity check (one read per point of
a mask that ``erode`` shrank by the footprint) and every field.  In 1D a cell's
cubic depends only on its four samples: ``cubic_table`` tabulates the power-form
coefficients of every cell, which a caller that reads one block many times keeps,
``sample`` evaluates each point's cell by Horner's rule, and ``sample_point`` does
the same for one position in Python floats, bit for bit.  A 1D stencil is located
from its extreme positions when they show every point on the grid with no cell to
wrap, and then checks a mask over the span of its bases (``all_valid``).
In 2D a stencil holds per-axis weights, the cubics of the four unit samples
(``_BASIS``) by the same Horner rule, and footprints for one ``einsum``.
``interpolate`` and ``stencil_valid`` stay public: ``perfbench/tracer.py`` wraps both.
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext

import numpy as np

from .wavefield import Grid

_OFFSETS = np.array([-1, 0, 1, 2])


def _cubic(before, here, after, beyond):
    """Power-form coefficients c0..c3 of the Catmull-Rom cubic through samples f(-1), f(0), f(1), f(2) on
    the cell [0, 1]; floats and arrays round alike, as each expression is evaluated left to right."""
    c2 = before - 2.5 * here + 2.0 * after - 0.5 * beyond
    return here, 0.5 * (after - before), c2, 0.5 * (beyond - before) + 1.5 * (here - after)


_BASIS = np.array(_cubic(*np.eye(4)))  # row k: coefficient c_k of each offset's weight, exact


@functools.cache
def _tables(grid: Grid) -> tuple:
    """What a ``Stencil`` on ``grid`` reads: lo, hi, dx and point counts as (dims, 1)
    columns, and per axis the flat indices of each base index's wrapped footprint, (n, 4)."""
    strides = grid.points[1:] + (1,)  # row-major, dims <= 2
    footprints = [(np.arange(n)[:, None] + _OFFSETS) % n * step for n, step in zip(grid.points, strides)]
    lo, hi = zip(*grid.extents)
    return (*(np.array(v)[:, None] for v in (lo, hi, grid.dx, grid.points)), footprints)


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


def cubic_table(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Power-form coefficients c0..c3 of every cell of a 1D (C, n) block, each (C, n), cell j
    spanning nodes j..j+1 with wrapped neighbours; a read time's fields need one."""
    return _cubic(*_shifts(block, -1))


def _span(grid: Grid, x: np.ndarray) -> tuple[int, int] | None:
    """The smallest and largest base index of 1D points x (1, M) when every point is on the
    grid and no cell rounds up to n, so none wraps; else None (NaN included).  Rounding is
    monotone, so the floors at the extreme positions are the extreme floors."""
    (lo, hi), = grid.extents
    if not x.size:
        return None
    first, last = x.min(), x.max()
    if not (lo <= first and last < hi):
        return None
    dx, = grid.dx
    low, high = math.floor((first - lo) / dx), math.floor((last - lo) / dx)
    return (low, high) if high < grid.points[0] else None


class Stencil:
    """Wrap-around interpolation stencil of query points ``x`` (M, dims), built once
    from them; ``ValueError`` for positions of another shape.

    ``on_grid`` flags the points with lo <= x < hi on every axis and ``off_grid``
    counts the others, which wrap.  ``base`` holds the flat grid index of each point's
    cell and ``fraction`` the point's place in it per axis, (dims, M).  In 2D ``index``
    holds the flat footprint indices, (M, 4, 4), and ``weights`` the per-axis weights,
    (2, M, 4): ``_BASIS`` in ``sample_point``'s Horner order.

    In 1D ``span`` holds the smallest and largest base index when the extreme positions
    show every point on the grid with no cell to wrap (``_span``).  Such a stencil skips
    the per-point flags and the wrap, so it has no ``on_grid``, and lets ``all_valid``
    read the mask over the span; otherwise ``span`` is None.
    """

    def __init__(self, grid: Grid, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != grid.dims:
            raise ValueError(f"x has shape {x.shape}; a stencil locates M point(s) of {grid.dims} coordinate(s)")
        lo, hi, dx, n, footprints = _tables(grid)
        x = x.T
        self.span = _span(grid, x) if grid.dims == 1 else None
        if self.span is not None:
            u = x - lo
            u /= dx
            cell = np.floor(u)
            u -= cell
            self.fraction, self.base, self.off_grid = u, cell[0].astype(np.int64), 0
            return
        inside = (lo <= x) & (x < hi)
        self.on_grid = inside[0] if grid.dims == 1 else inside[0] & inside[1]
        self.off_grid = len(self.on_grid) - np.count_nonzero(self.on_grid)
        # NaN, infinite or huge positions get a meaningless stencil, quietly
        with np.errstate(invalid="ignore") if self.off_grid else nullcontext():
            u = (x - lo) / dx
            cell = np.floor(u)
            self.fraction = s = u - cell
            cell = cell.astype(np.int64)
            if grid.dims == 2:
                c0, c1, c2, c3 = _BASIS
                s = s[..., None]
                self.weights = ((c3 * s + c2) * s + c1) * s + c0
        # floor mod n: t - (t // n) n takes half the time of np.remainder on int64
        cell -= cell // n * n
        if grid.dims == 1:
            self.base = cell[0]
            return
        # every index is in range after the wrap; "clip" only skips the check
        rows, columns = (table.take(j, axis=0, mode="clip") for table, j in zip(footprints, cell))
        self.index = rows[:, :, None] + columns[:, None, :]
        self.base = self.index[:, 1, 1]

    def sample(self, block: np.ndarray, table: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
        """Each real field of a (C, *grid.shape) block at the query points, (M, C).  In 1D
        ``table`` is the block's ``cubic_table`` when the caller keeps it; else it is built."""
        if len(self.fraction) == 2:
            gathered = block.reshape(len(block), -1).take(self.index, axis=1, mode="clip")
            return np.einsum("cmab,ma,mb->mc", gathered, *self.weights, order="C")
        c0, c1, c2, c3 = cubic_table(block) if table is None else table
        out = np.empty((len(self.base), len(block)))
        h, s, base = out.T, self.fraction, self.base
        # ((c3 s + c2) s + c1) s + c0, as sample_point evaluates: the bits depend on this order.
        # One (C, M) gather per coefficient, into h or one scratch array: one (C, M, 4) gather
        # churns the heap when every read builds its stencil
        c3.take(base, axis=1, mode="clip", out=h)
        term = np.empty(h.shape)
        for c in (c2, c1, c0):
            h *= s
            h += c.take(base, axis=1, mode="clip", out=term)
        return out

    def valid(self, eroded: np.ndarray) -> np.ndarray:
        """True for points whose whole stencil lies in the mask ``eroded`` came from, (M,)."""
        return eroded.reshape(-1)[self.base]

    def all_valid(self, eroded: np.ndarray) -> bool:
        """Whether ``valid(eroded)`` holds at every point; with a ``span`` and no hole in
        the mask across it, from that slice alone."""
        if self.span is not None and eroded.reshape(-1)[self.span[0]:self.span[1] + 1].all():
            return True
        return bool(self.valid(eroded).all())


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
