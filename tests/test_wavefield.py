import numpy as np
import pytest

import oracles
from bohmsim import (
    PhysicalParams,
    Wavefunction,
    init_gaussian,
    init_plane_wave,
    make_grid,
    modulus_field,
    node_mask,
    norm,
    normalize,
    position_moments,
    probability_density,
    spectral_derivative,
    velocity_field,
)
from bohmsim.wavefield import NODE_THRESHOLD


class TestMakeGrid:
    def test_spacing_1d(self):
        grid = make_grid(1, -10.0, 10.0, 256)
        assert grid.dx[0] == pytest.approx(0.078125, abs=0.0)
        assert grid.shape == (256,)

    def test_2d_shape(self):
        grid = make_grid(2, -8.0, 8.0, 128)
        assert grid.shape == (128, 128)
        assert grid.dims == 2
        x0, x1 = grid.meshes()
        assert x0.shape == (128, 128)

    @pytest.mark.parametrize("dims", [0, 3])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ValueError, match="dims"):
            make_grid(dims, -10.0, 10.0, 256)

    def test_rejects_degenerate_extent(self):
        with pytest.raises(ValueError, match="degenerate extent"):
            make_grid(1, 0.0, 0.0, 64)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="16"):
            make_grid(1, -10.0, 10.0, 8)

    def test_axes_exclude_right_endpoint(self):
        grid = make_grid(1, -10.0, 10.0, 256)
        x = grid.axes()[0]
        assert x[0] == -10.0
        assert x[-1] == pytest.approx(10.0 - grid.dx[0])

    def test_wavenumbers_are_cached_and_read_only(self):
        grid = make_grid(2, -3.0, 5.0, (32, 48))
        ks = grid.wavenumbers()
        assert grid.wavenumbers() is ks
        assert grid.dx is grid.dx
        for k, n, step in zip(ks, grid.points, grid.dx):
            assert np.array_equal(k, 2.0 * np.pi * np.fft.fftfreq(n, d=step))
            with pytest.raises(ValueError):
                k[0] = 1.0

    def test_contains(self):
        grid = make_grid(1, -10.0, 10.0, 256)
        inside = grid.contains(np.array([[0.0], [-10.0], [9.99], [10.0], [-11.0]]))
        assert inside.tolist() == [True, True, True, False, False]


class TestSpectralDerivative:
    def test_exact_on_lattice_mode(self):
        grid = make_grid(1, 0.0, 2.0 * np.pi, 64)
        x = grid.axes()[0]
        k = 3.0
        values = np.sin(k * x)
        d1 = spectral_derivative(values, grid, axis=0)
        d2 = spectral_derivative(values, grid, axis=0, order=2)
        assert np.abs(d1 - k * np.cos(k * x)).max() < 1e-12
        assert np.abs(d2 + k * k * np.sin(k * x)).max() < 1e-10

    def test_real_input_stays_real(self):
        grid = make_grid(1, -10.0, 10.0, 128)
        out = spectral_derivative(np.exp(-grid.axes()[0] ** 2), grid, axis=0)
        assert out.dtype.kind == "f"

    def test_batch_axis_matches_per_entry(self):
        grid = make_grid(2, 0.0, 2.0 * np.pi, 32)
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(3,) + grid.shape) + 1j * rng.normal(size=(3,) + grid.shape)
        for axis in (0, 1):
            batched = spectral_derivative(stack, grid, axis=axis, order=2)
            for b in range(3):
                assert np.array_equal(batched[b], spectral_derivative(stack[b], grid, axis=axis, order=2))

    def test_2d_axis_selection(self):
        grid = make_grid(2, 0.0, 2.0 * np.pi, 32)
        x0, x1 = grid.meshes()
        values = np.sin(2.0 * x0) * np.cos(x1)
        d_along_1 = spectral_derivative(values, grid, axis=1)
        assert np.abs(d_along_1 + np.sin(2.0 * x0) * np.sin(x1)).max() < 1e-12


class TestInitGaussian:
    def test_centered_packet_is_real_and_centered(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0)
        assert np.abs(wf.amplitudes.imag).max() == 0.0
        assert (wf.amplitudes.real > 0).all()
        means, variances = position_moments(wf)
        assert abs(means[0]) < 1e-12
        assert variances[0] == pytest.approx(1.0, rel=1e-6)

    def test_norm_is_one(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.5, 0.7, 2.0)
        assert norm(wf) == pytest.approx(1.0, abs=1e-12)

    def test_boosted_packet_velocity(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 2.0, 0.5, 3.0)
        means, _ = position_moments(wf)
        assert means[0] == pytest.approx(2.0, abs=1e-9)
        v = velocity_field(wf)[0]
        assert np.abs(v.values[v.valid_mask] - 3.0).max() < 1e-6

    def test_variance_matches_width(self, wide_grid, unit_params):
        for sigma in (0.5, 1.0, 2.0):
            wf = init_gaussian(wide_grid, unit_params, 0.0, sigma)
            _, variances = position_moments(wf)
            assert variances[0] == pytest.approx(sigma**2, rel=1e-6)

    def test_rejects_under_resolved_width(self, line_grid, unit_params):
        with pytest.raises(ValueError, match="under-resolved"):
            init_gaussian(line_grid, unit_params, 0.0, line_grid.dx[0])

    def test_rejects_packet_near_boundary(self, line_grid, unit_params):
        with pytest.raises(ValueError, match="boundary"):
            init_gaussian(line_grid, unit_params, 8.0, 1.0)


class TestModulusAndDensity:
    def test_plane_wave_modulus_constant(self, pi_grid, unit_params):
        wf = init_plane_wave(pi_grid, unit_params, 2.0)
        r = modulus_field(wf).values
        assert r.std() / r.mean() < 1e-12

    def test_gaussian_density_peak(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0)
        rho = probability_density(wf).values
        assert rho.max() == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-6)

    def test_density_integrates_to_one(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, -1.0, 0.8, 1.5)
        rho = probability_density(wf).values
        assert rho.sum() * line_grid.cell_volume == pytest.approx(1.0, abs=1e-12)

    def test_far_separated_sum_has_empty_midpoint(self, line_grid, unit_params):
        # 15 widths of separation push the midpoint density below 1e-10
        # of the peak; at 10 widths it is still ~1e-5 of the peak.
        sigma, half = 0.5, 3.75
        a = init_gaussian(line_grid, unit_params, -half, sigma)
        b = init_gaussian(line_grid, unit_params, +half, sigma)
        wf = normalize(Wavefunction(line_grid, unit_params, a.amplitudes + b.amplitudes, 0.0))
        rho = probability_density(wf).values
        mid = np.argmin(np.abs(line_grid.axes()[0]))
        assert rho[mid] < 1e-10 * rho.max()

    def test_modulus_ignores_global_phase(self, unit_gaussian):
        rotated = Wavefunction(
            unit_gaussian.grid,
            unit_gaussian.params,
            unit_gaussian.amplitudes * np.exp(1j * 0.73),
            0.0,
        )
        diff = modulus_field(rotated).values - modulus_field(unit_gaussian).values
        assert np.abs(diff).max() < 1e-15


class TestVelocityField:
    def test_plane_wave_uniform_velocity(self, pi_grid, unit_params):
        wf = init_plane_wave(pi_grid, unit_params, 2.0)
        v = velocity_field(wf)[0]
        assert np.abs(v.values - 2.0).max() < 1e-9

    def test_real_packet_at_rest(self, unit_gaussian):
        # the quotient noise/rho grows toward the mask edge, so the bound
        # there is looser than in the bulk of the packet
        v = velocity_field(unit_gaussian)[0]
        assert np.abs(v.values[v.valid_mask]).max() < 1e-6
        rho = probability_density(unit_gaussian).values
        bulk = v.valid_mask & (rho >= 1e-6 * rho.max())
        assert np.abs(v.values[bulk]).max() < 1e-9

    def test_phase_gradient_adds_linearly(self, unit_gaussian):
        grid = unit_gaussian.grid
        k = 8 * 2.0 * np.pi / (grid.extents[0][1] - grid.extents[0][0])
        boosted = Wavefunction(
            grid,
            unit_gaussian.params,
            unit_gaussian.amplitudes * np.exp(1j * k * grid.axes()[0]),
            0.0,
        )
        v0 = velocity_field(unit_gaussian)[0]
        v1 = velocity_field(boosted)[0]
        both = v0.valid_mask & v1.valid_mask
        assert np.abs(v1.values[both] - v0.values[both] - k).max() < 1e-6

    def test_mass_scales_velocity(self, pi_grid):
        heavy = PhysicalParams(1.0, (4.0,))
        wf = init_plane_wave(pi_grid, heavy, 2.0)
        v = velocity_field(wf)[0]
        assert np.abs(v.values - 0.5).max() < 1e-9


class TestNormalize:
    def test_normalize_is_idempotent(self, line_grid, unit_params):
        raw = Wavefunction(
            line_grid,
            unit_params,
            3.7 * np.exp(-line_grid.axes()[0] ** 2 + 0.4j),
            0.0,
        )
        once = normalize(raw)
        twice = normalize(once)
        assert np.abs(twice.amplitudes - once.amplitudes).max() < 1e-15
        assert norm(once) == pytest.approx(1.0, abs=1e-9)


class TestNodeMask:
    def test_threshold_relative_to_peak(self, unit_gaussian):
        mask = node_mask(unit_gaussian)
        rho = probability_density(unit_gaussian).values
        assert mask.dtype == bool
        assert np.array_equal(mask, rho >= NODE_THRESHOLD * rho.max())
        # tails of a sigma=1 packet on [-10, 10) do fall below threshold
        assert not mask.all()
        assert mask.any()


class TestPositionMoments:
    def test_2d_moments(self, unit_params):
        grid = make_grid(2, -8.0, 8.0, 128)
        params = PhysicalParams(1.0, (1.0, 1.0))
        x0, x1 = grid.meshes()
        amp = np.exp(-((x0 - 1.0) ** 2) / 4.0 - ((x1 + 2.0) ** 2) / (4.0 * 0.49))
        wf = normalize(Wavefunction(grid, params, amp.astype(complex), 0.0))
        means, variances = position_moments(wf)
        assert means[0] == pytest.approx(1.0, abs=1e-9)
        assert means[1] == pytest.approx(-2.0, abs=1e-9)
        assert variances[0] == pytest.approx(1.0, rel=1e-6)
        assert variances[1] == pytest.approx(0.49, rel=1e-6)
