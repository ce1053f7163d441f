import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from bohmsim import make_grid
from bohmsim._interp import (
    _OFFSETS,
    Stencil,
    _cubic,
    erode,
    interpolate,
    sample_point,
    stencil_valid,
)

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


class TestOnGrid:
    def test_boundary_points(self):
        # lo <= x < hi on every axis: x_max is the periodic image of x_min
        grid = make_grid(1, -10.0, 10.0, 256)
        stencil = Stencil(grid, np.array([[0.0], [-10.0], [9.99], [10.0], [-11.0]]))
        assert stencil.on_grid.tolist() == [True, True, True, False, False]

    def test_every_axis_must_be_inside(self):
        grid = make_grid(2, (-2.0, 0.0), (2.0, 5.0), 32)
        x = np.array([[-2.0, 0.0], [1.9, 4.9], [2.0, 1.0], [0.0, 5.0], [0.0, -0.1]])
        assert Stencil(grid, x).on_grid.tolist() == [True, True, False, False, False]


class TestLocateShape:
    @pytest.mark.parametrize("dims", [1, 2])
    def test_a_stencil_of_the_wrong_dimension_is_refused(self, dims):
        grid = make_grid(dims, -5.0, 5.0, 32)
        for shape in [(2, 3 - dims), (1, 3, dims), (3 * dims,), (dims,)]:
            with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}.*{dims} coordinate"):
                Stencil(grid, np.zeros(shape))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_non_finite_or_huge_positions_are_off_the_grid_quietly(self, dims):
        # warnings are errors in this suite: a RuntimeWarning from the arithmetic fails here
        grid = make_grid(dims, -5.0, 5.0, 32)
        bad = [np.nan, np.inf, -np.inf, 1e300, -1e300]
        x = np.zeros((len(bad) + 1, dims))
        x[1:, -1] = bad
        stencil = Stencil(grid, x)
        assert stencil.on_grid.tolist() == [True] + [False] * len(bad) and stencil.off_grid == len(bad)
        assert stencil.sample(np.ones((2,) + grid.shape)).shape == (len(x), 2)


def footprint_all(mask, j):
    """Reference erosion at base index j: every wrapped footprint node is in mask."""
    return mask[np.ix_(*[(i + _OFFSETS) % n for i, n in zip(j, mask.shape)])].all()


class TestErode:
    @pytest.mark.parametrize("offset", [-1, 2])
    @pytest.mark.parametrize("j", [0, 1, 7, 30, 31])
    def test_one_false_footprint_node_clears_the_base(self, offset, j):
        mask = np.ones(32, dtype=bool)
        mask[(j + offset) % 32] = False  # across the seam for j near 0 or 31
        eroded = erode(mask, 1)
        assert not eroded[j]
        # the footprint is -1..2, no wider: only four bases see the node
        assert np.count_nonzero(~eroded) == 4

    def test_batch_axes_are_eroded_alone(self):
        masks = np.ones((3, 16, 20), dtype=bool)
        masks[1, 0, 19] = False
        eroded = erode(masks, 2)
        assert eroded[0].all() and eroded[2].all()
        assert np.count_nonzero(~eroded[1]) == 16
        assert not eroded[1, 15, 18]  # offsets (+1, +1) across both seams

    @PROPERTY_SETTINGS
    @given(
        dims=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 0.3),
    )
    def test_matches_footprint_and_distributes_over_and(self, dims, seed, density):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(16, 24, size=dims))
        a, b = (rng.random((2,) + shape) > density)
        eroded = erode(a, dims)
        for j in np.ndindex(*shape):
            assert eroded[j] == footprint_all(a, j)
        assert np.array_equal(erode(a & b, dims), eroded & erode(b, dims))


def reference_gather(values, mask, grid, x):
    """Per-axis fancy-index gather, the form the shared stencil replaces; in 1D the
    values are the power-form oracle's."""
    idx, w = [], []
    for d in range(grid.dims):
        lo, _ = grid.extents[d]
        u = (x[:, d] - lo) / grid.dx[d]
        base = np.floor(u).astype(np.int64)
        idx.append((base[:, None] + _OFFSETS[None, :]) % grid.points[d])
        c0, c1, c2, c3 = _cubic(*np.eye(4))  # each offset's weight is the cubic through its unit sample
        s = (u - base)[:, None]
        w.append(((c3 * s + c2) * s + c1) * s + c0)
    if grid.dims == 1:
        return oracles.power_sample(values[None], grid, x)[:, 0], mask[idx[0]].all(axis=1)
    cells = (idx[0][:, :, None], idx[1][:, None, :])
    sampled = np.einsum("mab,ma,mb->m", values[cells], w[0], w[1])
    return sampled, mask[cells].all(axis=(1, 2))


NON_FINITE_OR_HUGE = st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300])


@st.composite
def grid_fields_and_edge_points(draw):
    """A 1D grid, a two-field block and mask on it, points at its edges, on its lattice,
    inside, off it and non-finite, and as many points off the grid."""
    dims = 1
    points = tuple(draw(st.integers(16, 48)) for _ in range(dims))
    lo = draw(st.floats(-20.0, 0.0))
    length = draw(st.floats(1.0, 40.0))
    grid = make_grid(dims, lo, lo + length, points)

    def coordinate(axis):
        a, b = grid.extents[axis]
        lattice = st.integers(0, grid.points[axis]).map(lambda k: a + k * grid.dx[axis])
        # u = (x - a) / dx can round to n at the last float below b
        edges = st.sampled_from([a, float(np.nextafter(b, a))])
        return edges | lattice | st.floats(a, b, exclude_max=True) | st.floats(a - length, a + 2.0 * length)

    def off_coordinate(axis):
        a, b = grid.extents[axis]
        return st.floats(b, b + length) | st.floats(a - length, a, exclude_max=True)

    count = draw(st.integers(2, 10))
    x = np.array([[draw(coordinate(d) | NON_FINITE_OR_HUGE) for d in range(dims)] for _ in range(count)])
    off = np.array([[draw(off_coordinate(d) | NON_FINITE_OR_HUGE) for d in range(dims)] for _ in range(count)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.normal(size=(2,) + grid.shape)
    mask = rng.random(grid.shape) > draw(st.floats(0.0, 0.3))
    return grid, block, mask, x, off


def assert_same_row(grid, c, many, m, block, eroded):
    """``sample_point`` at the 1D position c equals row m of the stencil ``many``:
    None off the grid, else the first field bit for bit and the validity flag."""
    got = sample_point(grid, c, block[:1], eroded)
    if not many.on_grid[m]:
        assert got is None
        return
    value, ok = got
    assert type(value) is float and type(ok) is bool
    assert np.float64(value).tobytes() == many.sample(block)[m, 0].tobytes()
    assert np.float64(value).tobytes() == oracles.power_sample(block[:1], grid, np.array([[c]])).tobytes()
    assert ok == many.valid(eroded)[m]


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


# |2D stencil weight - written-out polynomial| <= (15.5, 41.5, 32, 8) u per offset -1, 0, 1, 2, with
# u = 2**-53 and a fraction s in [0, 1] (first order in u): Horner on exact coefficients adds at
# most gamma_6 (|c0|+|c1|+|c2|+|c3|) = 6u * (2, 5, 4, 1) (Higham, eq. 5.3); the written-out
# polynomials round by at most (3.5, 11.5, 8, 2) u, as derived for POWER_VS_WEIGHTS_ULPS below.
BASIS_VS_WEIGHTS_ULPS = np.array([15.5, 41.5, 32.0, 8.0])


class TestInterpolationProperties:
    def test_2d_weights_are_the_catmull_rom_polynomials(self):
        grid = make_grid(2, 0.0, 10.0, (40, 24))
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 10.0, size=(100_000, 2))
        # fraction 0; just below the upper bound; just below lo, off the grid, where u - floor(u) rounds to 1
        x[:3] = np.array([0.0, np.nextafter(10.0, 0.0), -1e-300])[:, None]
        stencil = Stencil(grid, x)
        assert stencil.fraction[:, 2].tolist() == [1.0, 1.0]
        gap = np.abs(stencil.weights - oracles.catmull_rom_weights(stencil.fraction))
        assert (gap <= BASIS_VS_WEIGHTS_ULPS * 2.0**-53).all()

    @PROPERTY_SETTINGS
    @given(
        coeffs=arrays(float, (3, 3), elements=st.floats(-2.0, 2.0)),
        queries=arrays(float, (9, 2), elements=st.floats(-3.0, 3.0)),
    )
    # subnormal coefficients: got and want differ by two subnormal steps, 1e-323 > 256 u F = 5e-324
    @example(coeffs=np.full((3, 3), 2.22507386e-311), queries=np.full((9, 2), 0.375))
    def test_reproduces_biquadratics_away_from_seam(self, coeffs, queries):
        # sum of a_ij x0^i x1^j, i, j <= 2: the tensor-product cubic reproduces it exactly
        def biquadratic(a, x0, x1):
            return np.einsum("ij,i...,j...->...", a, *[np.stack([np.ones_like(q), q, q * q]) for q in (x0, x1)])

        grid = make_grid(2, (-4.0, -5.0), (4.0, 5.0), (32, 40))
        got = interpolate(biquadratic(coeffs, *grid.meshes()), grid, queries)
        want = biquadratic(coeffs, *queries.T)
        # to rounding: F bounds |f| over each point's footprint (within 2 dx = 0.5); the weights' Horner
        # rounding (gamma_6 * 12 per axis, times sum |w| <= 1.25 on the other), the 16-term sum and the
        # field values' own rounding stay below 256 u F.  With gradual underflow each of those roundings
        # may also err by up to 2**-1075 absolute, half the least subnormal (Higham, sec. 2.1), so the
        # bound gains 256 * 2**-1075 = 2**-1067 (2**-1075 itself is no double).
        scale = biquadratic(np.abs(coeffs), *(np.abs(queries.T) + 0.5))
        assert (np.abs(got - want) <= 256 * 2.0**-53 * scale + 2.0**-1067).all()

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
        sampled = stencil.sample(np.stack([values, -2.0 * values]))
        assert sampled.shape == (len(x), 2)
        assert np.array_equal(sampled[:, 0], want_values)
        assert np.array_equal(sampled[:, 1], -2.0 * want_values)
        assert np.array_equal(stencil.valid(erode(mask, grid.dims)), want_valid)
        assert np.array_equal(interpolate(values, grid, x), want_values)
        assert np.array_equal(stencil_valid(mask, grid, x), want_valid)

    @PROPERTY_SETTINGS
    @given(case=grid_fields_and_edge_points())
    def test_one_point_stencil_is_a_row_of_a_many_point_stencil(self, case):
        grid, block, mask, x, _ = case
        many, eroded = Stencil(grid, x), erode(mask, grid.dims)
        for m in range(len(x)):
            assert_same_row(grid, float(x[m, 0]), many, m, block, eroded)

    @PROPERTY_SETTINGS
    @given(case=grid_fields_and_edge_points())
    def test_one_point_locate_alternating_on_and_off_the_grid(self, case):
        grid, block, mask, x, off = case
        eroded = erode(mask, grid.dims)
        # each point of x, then one off the grid
        points = np.stack([x, off], axis=1).reshape(-1, 1)
        many = Stencil(grid, points)
        for m, c in enumerate(points[:, 0].tolist()):
            assert_same_row(grid, c, many, m, block, eroded)
            assert_same_row(grid, c, Stencil(grid, points[m : m + 1]), 0, block, eroded)


# |power form - weight form| <= 132 u F at every point and field, with u = 2**-53 and F the
# largest |f| of the point's four samples (first order in u; derived in CHANGES.md from the
# operations of each form): Horner with computed coefficients, gamma_6 (|c0|+|c1|+|c2|+|c3|)
# <= 6u * 12F, plus the coefficients' own rounding, (0 + 1 + 17.5 + 11) uF; the weights'
# rounding, (3.5 + 11.5 + 8 + 2) uF, plus the four-term sum, gamma_4 * 1.25F.
POWER_VS_WEIGHTS_ULPS = 132


class TestSampleOrder:
    """In 1D ``Stencil.sample`` equals the power-form oracle bit for bit and the einsum it
    replaced within ``POWER_VS_WEIGHTS_ULPS``; in 2D it still makes the einsum."""

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("components", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 5, 64, 10_000])
    def test_sample_equals_the_oracle_bit_for_bit(self, dims, components, count):
        grid = make_grid(dims, -5.0, 5.0, (40, 24)[:dims])
        rng = np.random.default_rng(count * 10 + components + dims)
        # on the grid, and off it by up to a length on either side, which wraps
        x = rng.uniform(-15.0, 15.0, size=(count, dims))
        stencil = Stencil(grid, x)
        block = rng.normal(size=(components,) + grid.shape) * 10.0 ** rng.integers(-6, 7, size=grid.shape)
        got = stencil.sample(block)
        assert got.shape == (count, components) and got.flags.c_contiguous
        if dims == 2:
            assert got.tobytes() == oracles.einsum_sample(block, stencil.index, stencil.weights).tobytes()
            return
        assert got.tobytes() == oracles.power_sample(block, grid, x).tobytes()
        index = (stencil.base[:, None] + _OFFSETS) % grid.points[0]
        weights = oracles.catmull_rom_weights(stencil.fraction)
        scale = np.abs(np.take(block, index, axis=1)).max(axis=-1).T  # F, (M, C)
        gap = np.abs(got - oracles.einsum_sample(block, index, weights))
        assert (gap <= POWER_VS_WEIGHTS_ULPS * 2.0**-53 * scale).all()
