import numpy as np
import pytest

import oracles
from bohmsim import (
    Free,
    Harmonic,
    PhysicalParams,
    Wavefunction,
    averaged_quantum_force,
    compute_qfields,
    hamilton_jacobi_energy,
    init_gaussian,
    init_plane_wave,
    make_grid,
    node_mask,
    normalize,
    velocity_field,
)
from bohmsim import quantum_potential
from bohmsim.quantum_potential import qfields_batch, qforce_batch
from bohmsim.wavefield import velocity_batch


def double_hump(grid, params, separation=6.0, sigma=0.8):
    x = grid.axes()[0]
    half = 0.5 * separation
    psi = np.exp(-((x - half) ** 2) / (4.0 * sigma**2)) + np.exp(
        -((x + half) ** 2) / (4.0 * sigma**2)
    )
    return normalize(Wavefunction(grid, params, psi.astype(complex), 0.0))


def antisymmetric_pair(grid, params, separation=4.0, sigma=1.0):
    """Odd two-packet state; exact node at the origin."""
    x = grid.axes()[0]
    half = 0.5 * separation
    psi = np.exp(-((x - half) ** 2) / (4.0 * sigma**2)) - np.exp(
        -((x + half) ** 2) / (4.0 * sigma**2)
    )
    return normalize(Wavefunction(grid, params, psi.astype(complex), 0.0))


class TestComputeQFields:
    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    def test_gaussian_matches_closed_form(self, line_grid, unit_params, sigma):
        wf = init_gaussian(line_grid, unit_params, 0.0, sigma)
        qf = compute_qfields(wf)
        x = line_grid.axes()[0]
        want_q = oracles.gaussian_quantum_potential(x, sigma)
        want_f = oracles.gaussian_quantum_force(x, sigma)
        rho = np.abs(wf.amplitudes) ** 2
        bulk = rho >= 1e-6 * rho.max()
        # edge of the node mask amplifies periodic-image and roundoff
        # error by 1/rho, hence the two-tier tolerance
        assert np.abs(qf.q - want_q)[qf.valid].max() < 1e-6
        assert np.abs(qf.q - want_q)[bulk].max() < 1e-9
        assert np.abs(qf.force[0] - want_f)[qf.valid].max() < 5e-3
        assert np.abs(qf.force[0] - want_f)[bulk].max() < 1e-6

    def test_boost_leaves_q_unchanged(self, line_grid, unit_params):
        still = compute_qfields(init_gaussian(line_grid, unit_params, 0.0, 1.0))
        moving = compute_qfields(init_gaussian(line_grid, unit_params, 0.0, 1.0, 3.0))
        mask = still.valid & moving.valid
        assert np.abs(still.q - moving.q)[mask].max() < 1e-7

    def test_gauge_invariance(self, unit_gaussian):
        base = compute_qfields(unit_gaussian)
        rotated = Wavefunction(
            unit_gaussian.grid,
            unit_gaussian.params,
            np.exp(1j * 0.7) * unit_gaussian.amplitudes,
            0.0,
        )
        other = compute_qfields(rotated)
        assert np.array_equal(base.valid, other.valid)
        assert np.abs(base.q - other.q)[base.valid].max() < 1e-7
        rho = np.abs(unit_gaussian.amplitudes) ** 2
        bulk = rho >= 1e-6 * rho.max()
        assert np.abs(base.q - other.q)[bulk].max() < 1e-10

    def test_ground_state_q_plus_v_constant(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        qf = compute_qfields(wf)
        x = line_grid.axes()[0]
        total = qf.q + 0.5 * x**2
        assert np.abs(total - 0.5)[qf.valid].max() < 1e-6

    def test_ground_state_force_cancels_classical(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        qf = compute_qfields(wf)
        x = line_grid.axes()[0]
        f_cl = Harmonic(omega=1.0).force_at(x[:, None], unit_params)[:, 0]
        assert np.abs(qf.force[0] + f_cl)[qf.valid].max() < 1e-6

    def test_plane_wave_q_vanishes(self, pi_grid, unit_params):
        wf = init_plane_wave(pi_grid, unit_params, 2.0)
        qf = compute_qfields(wf)
        assert qf.valid.all()
        assert np.abs(qf.q).max() < 1e-10
        assert np.abs(qf.force[0]).max() < 1e-10
        assert qf.f_q_max < 1e-10

    def test_force_matches_gradient_of_q(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0)
        qf = compute_qfields(wf)
        rho = np.abs(wf.amplitudes) ** 2
        bulk = rho >= 1e-6 * rho.max()
        # keep two cells away from the mask edge so the difference stencil
        # never reads a masked value
        bulk &= np.roll(bulk, 2) & np.roll(bulk, -2)
        fd = -np.gradient(qf.q, line_grid.dx[0])
        assert np.abs(qf.force[0] - fd)[bulk].max() < 1e-6

    def test_masked_points_are_zeroed(self):
        # +0.0 bit for bit: each field starts from zeros and is written only where valid
        for dims in (1, 2):
            grid, params, states = snapshot_stack(dims)
            amplitudes = np.stack([s.amplitudes for s in states])
            q, force, valid, _ = qfields_batch(amplitudes, grid, params)
            velocity, velocity_valid = velocity_batch(amplitudes, grid, params)
            assert not valid.all() and not velocity_valid.all()
            assert np.isfinite(q).all()
            for field, mask in ((q, valid), (force, valid[:, None]), (velocity, velocity_valid[:, None])):
                masked = field[~np.broadcast_to(mask, field.shape)]
                assert masked.size and not masked.any() and not np.signbit(masked).any()

    def test_f_q_max_is_max_over_valid(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0)
        qf = compute_qfields(wf)
        assert qf.f_q_max >= 0.0
        assert qf.f_q_max == pytest.approx(np.abs(qf.force[0][qf.valid]).max())


def snapshot_stack(dims):
    """States with and without nodes, at different scales, on one grid."""
    if dims == 1:
        grid = make_grid(1, -10.0, 10.0, 256)
        params = PhysicalParams(1.0, 2.0)
        states = [
            init_gaussian(grid, params, 0.5, 1.0, wavenumber=1.5),
            double_hump(grid, params),
            antisymmetric_pair(grid, params),
        ]
    else:
        grid = make_grid(2, -8.0, 8.0, 64)
        params = PhysicalParams(1.0, 3.0)
        x0, x1 = grid.meshes()
        hump = double_hump(make_grid(1, -8.0, 8.0, 64), params, separation=5.0).amplitudes
        odd = hump[:, None] * (x1 * np.exp(-(x1**2) / 4.0))  # node line at x1 = 0
        states = [
            init_gaussian(grid, params, (0.5, -1.0), (1.0, 1.3), wavenumber=(1.0, -0.5)),
            normalize(Wavefunction(grid, params, odd.astype(complex), 0.0)),
        ]
    # a faint copy: each snapshot's node threshold follows its own peak
    faint = states[0].amplitudes * 1e-4 * np.exp(0.3j)
    states.append(Wavefunction(grid, params, faint, 0.0))
    return grid, params, states


class TestBatchedFields:
    @pytest.mark.parametrize("dims", [1, 2])
    def test_velocity_batch_equals_per_snapshot(self, dims):
        grid, params, states = snapshot_stack(dims)
        values, valid = velocity_batch(np.stack([s.amplitudes for s in states]), grid, params)
        assert values.shape == (len(states), dims) + grid.shape
        assert not valid[1].all()  # the stack includes a state with nodes
        for b, wf in enumerate(states):
            fields = velocity_field(wf)
            assert np.array_equal(valid[b], node_mask(wf))
            for d in range(dims):
                assert np.array_equal(values[b, d], fields[d])

    @pytest.mark.parametrize("dims", [1, 2])
    def test_qfields_batch_equals_per_snapshot(self, dims):
        grid, params, states = snapshot_stack(dims)
        q, force, valid, f_q_max = qfields_batch(np.stack([s.amplitudes for s in states]), grid, params)
        assert not valid[1].all()
        for b, wf in enumerate(states):
            qf = compute_qfields(wf)
            assert np.array_equal(q[b], qf.q)
            assert np.array_equal(valid[b], qf.valid)
            assert f_q_max[b] == qf.f_q_max
            for e in range(dims):
                assert np.array_equal(force[b, e], qf.force[e])

    @pytest.mark.parametrize("dims", [1, 2])
    def test_qforce_batch_is_the_force_and_mask_of_qfields_batch(self, dims):
        grid, params, states = snapshot_stack(dims)
        amplitudes = np.stack([s.amplitudes for s in states])
        _, force, valid, _ = qfields_batch(amplitudes, grid, params)
        only_force, only_valid, _, _ = qforce_batch(amplitudes, grid, params)
        assert not valid[1].all()
        assert only_force.tobytes() == force.tobytes()
        assert np.array_equal(only_valid, valid)
        assert not np.signbit(only_force[only_force == 0.0]).any()  # masked and zero forces are +0.0

    @pytest.mark.parametrize("dims", [1, 2])
    def test_f_q_max_equals_the_per_snapshot_loop(self, dims, monkeypatch):
        grid, params, states = snapshot_stack(dims)
        real_mask = quantum_potential.density_mask

        def masking_the_last(rho, d):
            valid = real_mask(rho, d)
            valid[-1] = False
            return valid

        monkeypatch.setattr(quantum_potential, "density_mask", masking_the_last)
        _, force, valid, f_q_max = qfields_batch(np.stack([s.amplitudes for s in states]), grid, params)
        assert not valid[-1].any() and valid[0].any()
        magnitude = np.zeros(valid.shape)
        for e in range(dims):
            magnitude += force[:, e] ** 2
        want = np.zeros(len(valid))
        for b in range(len(valid)):
            if valid[b].any():
                want[b] = np.sqrt(magnitude[b][valid[b]].max())
        assert f_q_max.tobytes() == want.tobytes()
        assert f_q_max[-1] == 0.0 and f_q_max[:-1].min() > 0.0

    @pytest.mark.parametrize("dims", [1, 2])
    def test_velocity_batch_equals_the_formula(self, dims):
        # (Im(conj psi * d psi) / rho) * hbar / m on valid points, +0.0 elsewhere
        grid, params, states = snapshot_stack(dims)
        amps = np.stack([s.amplitudes for s in states])
        values, valid = velocity_batch(amps, grid, params)
        rho = np.abs(amps) ** 2
        assert not valid.all()
        for d in range(dims):
            current = np.imag(np.conj(amps) * oracles.fft_derivative(amps, grid, axis=d))
            want = current[valid] / rho[valid] * (params.hbar / params.mass)
            assert values[:, d][valid].tobytes() == want.tobytes()
            assert values[:, d][~valid].tobytes() == np.zeros(np.count_nonzero(~valid)).tobytes()

    @pytest.mark.parametrize("dims", [1, 2])
    def test_qfields_batch_equals_the_formula(self, dims):
        # R's first and second derivatives each from their own forward transform
        grid, params, states = snapshot_stack(dims)
        amps = np.stack([s.amplitudes for s in states])
        q, force, valid, _ = qfields_batch(amps, grid, params)
        r = np.abs(amps)
        rho = r * r
        coeff = params.hbar**2 / (2.0 * params.mass)
        first = [oracles.fft_derivative(r, grid, axis=d) for d in range(dims)]
        second = [oracles.fft_derivative(r, grid, axis=d, order=2) for d in range(dims)]
        want_q = np.zeros(r.shape)
        for d in range(dims):
            term = np.zeros(r.shape)
            term[valid] = second[d][valid] / r[valid]
            want_q -= coeff * term
        assert q.tobytes() == want_q.tobytes()
        for e in range(dims):
            numerator = np.zeros(r.shape)
            for d in range(dims):
                mixed = oracles.fft_derivative(second[d], grid, axis=e)
                numerator += coeff * (mixed * r - second[d] * first[e])
            assert force[:, e][valid].tobytes() == (numerator[valid] / rho[valid]).tobytes()
            assert force[:, e][~valid].tobytes() == np.zeros(np.count_nonzero(~valid)).tobytes()

    def test_threshold_is_per_snapshot(self):
        grid, params, states = snapshot_stack(1)
        _, valid = velocity_batch(np.stack([s.amplitudes for s in states]), grid, params)
        # the faint copy of state 0 keeps state 0's mask, not one set by the
        # brightest snapshot of the batch
        assert np.array_equal(valid[-1], valid[0])


class TestAveragedQuantumForce:
    @pytest.mark.parametrize(
        ("center", "sigma", "k"),
        [(0.0, 1.0, 0.0), (-2.0, 0.5, 0.0), (0.0, 1.0, 3.0), (1.0, 0.8, -1.5)],
    )
    def test_gaussian_average_vanishes(self, line_grid, unit_params, center, sigma, k):
        wf = init_gaussian(line_grid, unit_params, center, sigma, k)
        assert abs(averaged_quantum_force(wf)[0]) < 1e-10

    def test_double_hump_average_vanishes(self, line_grid, unit_params):
        wf = double_hump(line_grid, unit_params)
        assert abs(averaged_quantum_force(wf)[0]) < 1e-8

    def test_ground_state_average_vanishes(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        assert abs(averaged_quantum_force(wf)[0]) < 1e-10

    @pytest.mark.parametrize("sigma", [0.5, 0.8, 1.25])
    def test_average_small_against_force_scale(self, line_grid, unit_params, sigma):
        wf = init_gaussian(line_grid, unit_params, 0.0, sigma)
        integral = averaged_quantum_force(wf)[0]
        assert abs(integral) <= 1e-8 * compute_qfields(wf).f_q_max

    def test_two_dimensional_average(self, unit_params):
        grid = make_grid(2, -10.0, 10.0, 128)
        wf = init_gaussian(grid, unit_params, [0.5, -0.5], 1.0)
        integral = averaged_quantum_force(wf)
        assert integral.shape == (2,)
        assert np.abs(integral).max() < 1e-10

    def test_boundary_touching_state_warns(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.5, 1.6)
        with pytest.warns(UserWarning, match="periodic boundary"):
            averaged_quantum_force(wf)


class TestFactorizedAdditivity:
    def test_two_dimensional_product_state(self):
        grid = make_grid(2, -12.0, 12.0, 128)
        params = PhysicalParams()
        x0, x1 = np.meshgrid(*grid.axes(), indexing="ij")
        sa, sb = 0.9, 0.7
        ca, cb = 0.5, -1.0
        psi = np.exp(
            -((x0 - ca) ** 2) / (4.0 * sa**2) - ((x1 - cb) ** 2) / (4.0 * sb**2)
        ) * np.exp(1j * (0.8 * x0 - 0.3 * x1))
        wf = normalize(Wavefunction(grid, params, psi.astype(complex), 0.0))
        qf = compute_qfields(wf)
        want = oracles.gaussian_quantum_potential(x0, sa, ca) + oracles.gaussian_quantum_potential(
            x1, sb, cb
        )
        assert np.abs(qf.q - want)[qf.valid].max() < 1e-8


class TestHamiltonJacobiEnergy:
    @pytest.mark.parametrize("x", [0.0, 0.3, -1.2])
    def test_ground_state_energy(self, line_grid, unit_params, x):
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        energy = hamilton_jacobi_energy(wf, Harmonic(omega=1.0), [x])
        assert energy == pytest.approx(0.5, abs=1e-6)

    def test_plane_wave_energy(self, pi_grid, unit_params):
        wf = init_plane_wave(pi_grid, unit_params, 2.0)
        energy = hamilton_jacobi_energy(wf, Free(), [0.7])
        assert energy == pytest.approx(2.0, abs=1e-9)

    def test_resting_gaussian_energy_is_quantum_potential(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0)
        energy = hamilton_jacobi_energy(wf, Free(), [1.0])
        assert energy == pytest.approx(0.125, abs=1e-6)

    def test_node_region_is_rejected(self, line_grid, unit_params):
        wf = antisymmetric_pair(line_grid, unit_params)
        with pytest.raises(ValueError, match="node region"):
            hamilton_jacobi_energy(wf, Free(), [0.0])

    @pytest.mark.parametrize("x, named", [(20.5, "20.5"), (-10.5, "-10.5"), (np.nan, "nan")])
    def test_off_grid_point_is_rejected(self, line_grid, unit_params, x, named):
        # a wrapped stencil would read v and Q at x - 20 while V is read at x
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0)
        with pytest.raises(ValueError, match="off the grid") as err:
            hamilton_jacobi_energy(wf, Harmonic(omega=1.0), [x])
        assert named in str(err.value)

    @pytest.mark.parametrize("x, named", [([0.5, 12.0], "12.0"), ([np.nan, 0.0], "nan")])
    def test_off_grid_point_is_rejected_in_2d(self, unit_params, x, named):
        grid = make_grid(2, -8.0, 8.0, 64)
        wf = init_gaussian(grid, unit_params, 0.0, 1.0)
        assert np.isfinite(hamilton_jacobi_energy(wf, Harmonic(omega=1.0), [0.5, 0.5]))
        with pytest.raises(ValueError, match="off the grid") as err:
            hamilton_jacobi_energy(wf, Harmonic(omega=1.0), x)
        assert named in str(err.value)

    def test_wrong_point_shape_is_rejected(self, unit_gaussian):
        with pytest.raises(ValueError, match="single point"):
            hamilton_jacobi_energy(unit_gaussian, Free(), [[0.0], [1.0]])
