import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bohmsim import make_grid
from bohmsim._interp import _OFFSETS, Stencil, _weights, interpolate, stencil_valid

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


class TestInterpolate:
    def test_exact_on_quadratics(self, line_grid):
        x = line_grid.axes()[0]
        values = 0.3 * x**2 - 1.1 * x + 0.7
        # keep queries away from the wrap seam, where the quadratic is
        # not periodic and the stencil mixes both ends
        queries = np.linspace(-8.0, 8.0, 113)[:, None]
        got = interpolate(values, line_grid, queries)
        want = 0.3 * queries[:, 0] ** 2 - 1.1 * queries[:, 0] + 0.7
        assert np.abs(got - want).max() < 1e-12

    def test_exact_at_grid_points(self, line_grid):
        x = line_grid.axes()[0]
        values = np.sin(x) + 0.2 * np.cos(3.0 * x)
        got = interpolate(values, line_grid, x[:, None])
        assert np.abs(got - values).max() < 1e-14

    def test_smooth_periodic_field(self, line_grid):
        # sin(k x) with k on the wavenumber lattice is periodic, so the
        # seam is harmless; cubic accuracy ~ (dx)^4 * |f''''|
        k = 2.0 * np.pi / 20.0 * 3
        x = line_grid.axes()[0]
        values = np.sin(k * x)
        queries = np.linspace(-10.0, 10.0, 1009, endpoint=False)[:, None]
        got = interpolate(values, line_grid, queries)
        assert np.abs(got - np.sin(k * queries[:, 0])).max() < 1e-5

    def test_wraps_around_boundary(self, line_grid):
        values = np.ones(line_grid.points[0])
        got = interpolate(values, line_grid, np.array([[-9.99], [9.99]]))
        assert got == pytest.approx([1.0, 1.0])

    def test_two_dimensional_bilinear_surface(self):
        grid = make_grid(2, -5.0, 5.0, 64)
        x0, x1 = np.meshgrid(*grid.axes(), indexing="ij")
        values = 2.0 * x0 - 0.5 * x1 + 0.25 * x0 * x1
        rng = np.random.default_rng(7)
        queries = rng.uniform(-4.0, 4.0, size=(200, 2))
        got = interpolate(values, grid, queries)
        want = 2.0 * queries[:, 0] - 0.5 * queries[:, 1] + 0.25 * queries[:, 0] * queries[:, 1]
        assert np.abs(got - want).max() < 1e-12


class TestStencilValid:
    def test_interior_point_with_clean_stencil(self, line_grid):
        valid = np.ones(line_grid.points[0], dtype=bool)
        assert stencil_valid(valid, line_grid, np.array([[0.03]])).all()

    def test_detects_masked_neighbour(self, line_grid):
        valid = np.ones(line_grid.points[0], dtype=bool)
        # query at x=0 sits between grid indices 127 and 128; the cubic
        # stencil spans 126..129
        valid[129] = False
        flags = stencil_valid(valid, line_grid, np.array([[0.01], [-3.0]]))
        assert not flags[0]
        assert flags[1]

    def test_two_dimensional_stencil(self):
        grid = make_grid(2, -5.0, 5.0, 64)
        valid = np.ones(grid.points, dtype=bool)
        valid[32, 32] = False
        near = np.array([[0.01, 0.01]])
        far = np.array([[-3.0, 2.0]])
        assert not stencil_valid(valid, grid, near)[0]
        assert stencil_valid(valid, grid, far)[0]


def reference_gather(values, mask, grid, x):
    """Per-axis fancy-index gather, the form the shared stencil replaces."""
    idx, w = [], []
    for d in range(grid.dims):
        lo, _ = grid.extents[d]
        u = (x[:, d] - lo) / grid.dx[d]
        base = np.floor(u).astype(np.int64)
        idx.append((base[:, None] + _OFFSETS[None, :]) % grid.points[d])
        w.append(_weights(u - base))
    if grid.dims == 1:
        return np.einsum("ma,ma->m", values[idx[0]], w[0]), mask[idx[0]].all(axis=1)
    cells = (idx[0][:, :, None], idx[1][:, None, :])
    sampled = np.einsum("mab,ma,mb->m", values[cells], w[0], w[1])
    return sampled, mask[cells].all(axis=(1, 2))


@st.composite
def grid_fields_and_points(draw):
    dims = draw(st.sampled_from([1, 2]))
    points = tuple(draw(st.integers(16, 48)) for _ in range(dims))
    lo = draw(st.floats(-20.0, 0.0))
    length = draw(st.floats(1.0, 40.0))
    grid = make_grid(dims, lo, lo + length, points)
    count = draw(st.integers(0, 12))
    coord = st.floats(lo, lo + length, exclude_max=True)
    x = draw(arrays(float, (count, dims), elements=coord))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=grid.shape)
    mask = rng.random(grid.shape) > draw(st.floats(0.0, 0.3))
    return grid, values, mask, x


class TestInterpolationProperties:
    @PROPERTY_SETTINGS
    @given(
        coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        queries=arrays(float, (9,), elements=st.floats(-8.0, 8.0)),
    )
    def test_reproduces_quadratics_away_from_seam(self, coeffs, queries):
        grid = make_grid(1, -10.0, 10.0, 256)
        a, b, c = coeffs
        x = grid.axes()[0]
        got = interpolate(a * x**2 + b * x + c, grid, queries[:, None])
        want = a * queries**2 + b * queries + c
        assert np.abs(got - want).max() <= 1e-12 * (1.0 + 100.0 * abs(a) + 10.0 * abs(b) + abs(c))

    @PROPERTY_SETTINGS
    @given(case=grid_fields_and_points(), shift=st.sampled_from([-1, 1]))
    def test_wraps_periodically(self, case, shift):
        grid, values, _, x = case
        lengths = np.array([hi - lo for lo, hi in grid.extents])
        got = interpolate(values, grid, x + shift * lengths)
        want = interpolate(values, grid, x)
        assert np.allclose(got, want, rtol=0.0, atol=1e-9)

    @PROPERTY_SETTINGS
    @given(case=grid_fields_and_points())
    def test_shared_stencil_matches_reference_gather_bit_for_bit(self, case):
        grid, values, mask, x = case
        want_values, want_valid = reference_gather(values, mask, grid, x)
        stencil = Stencil(grid, x)
        # one stencil serves several fields and a mask
        assert np.array_equal(stencil.sample(values), want_values)
        assert np.array_equal(stencil.sample(-2.0 * values), -2.0 * want_values)
        assert np.array_equal(stencil.valid(mask), want_valid)
        assert np.array_equal(interpolate(values, grid, x), want_values)
        assert np.array_equal(stencil_valid(mask, grid, x), want_valid)
