import warnings

import numpy as np
import pytest

import oracles
from bohmsim import (
    AccuracyWarning,
    Free,
    Harmonic,
    PhysicalParams,
    TrajectoryAbort,
    Wavefunction,
    crosscheck,
    evolve,
    hamilton_jacobi_energy,
    init_gaussian,
    init_plane_wave,
    integrate_guidance,
    integrate_guidance_batch,
    integrate_newton,
    make_grid,
    normalize,
)
from bohmsim import trajectories
from bohmsim.quantum_potential import compute_qfields
from bohmsim.trajectories import _eval_fields, _FieldCache
from bohmsim.wavefield import velocity_field


def evolve_quiet(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        return evolve(*args, **kwargs)


@pytest.fixture(scope="module")
def plane_record():
    grid = make_grid(1, -5.0 * np.pi, 5.0 * np.pi, 256)
    wf = init_plane_wave(grid, PhysicalParams(), 2.0)
    return evolve_quiet(wf, Free(), 1.0, 1e-3, snapshot_stride=100)


@pytest.fixture(scope="module")
def ground_record():
    # the fine step keeps the spurious velocity of the discretized
    # stationary state below the rest-drift tolerance
    grid = make_grid(1, -10.0, 10.0, 256)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, oracles.ground_sigma(1.0))
    return evolve_quiet(wf, Harmonic(omega=1.0), 1.0, 1e-4, snapshot_stride=1000)


@pytest.fixture(scope="module")
def spreading_record():
    grid = make_grid(1, -15.0, 15.0, 384)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
    return evolve_quiet(wf, Free(), 2.0, 1e-3, snapshot_stride=50)


@pytest.fixture(scope="module")
def coherent_record():
    # evolved finely so the velocity-field bias sits well below the RK4
    # errors compared in the convergence test
    grid = make_grid(1, -10.0, 10.0, 256)
    wf = init_gaussian(grid, PhysicalParams(), 1.0, oracles.ground_sigma(1.0))
    return evolve_quiet(wf, Harmonic(omega=1.0), 2.0, 1e-4, snapshot_stride=250)


class TestGuidance:
    def test_plane_wave_rides_at_constant_speed(self, plane_record):
        traj = integrate_guidance(plane_record, [0.7], 0.2)
        want = 0.7 + 2.0 * traj.times
        assert np.abs(traj.positions[:, 0] - want).max() < 1e-9
        assert np.abs(traj.momenta[:, 0] - 2.0).max() < 1e-9

    @pytest.mark.parametrize("x0", [0.5, -1.0])
    def test_ground_state_particle_is_at_rest(self, ground_record, x0):
        traj = integrate_guidance(ground_record, [x0], 0.2)
        assert np.abs(traj.positions[:, 0] - x0).max() < 1e-8

    @pytest.mark.parametrize("x0", [0.5, 1.0, -1.5])
    def test_free_gaussian_follows_spreading_law(self, spreading_record, x0):
        traj = integrate_guidance(spreading_record, [x0], 0.1)
        want = oracles.spread_position(traj.times, x0, 1.0)
        assert np.abs(traj.positions[:, 0] - want).max() < 1e-4

    def test_free_gaussian_momenta(self, spreading_record):
        traj = integrate_guidance(spreading_record, [1.0], 0.1)
        want = oracles.spread_velocity(traj.positions[:, 0], traj.times, 1.0)
        assert np.abs(traj.momenta[:, 0] - want).max() < 1e-6

    def test_trajectories_never_cross(self, spreading_record):
        starts = np.array([[-1.5], [-0.2], [-0.1], [0.4], [0.45], [2.0]])
        _, positions = integrate_guidance_batch(spreading_record, starts, 0.1)
        gaps = np.diff(positions[:, :, 0], axis=1)
        assert (gaps > 0).all()

    def test_batch_shapes(self, spreading_record):
        starts = np.zeros((5, 1))
        times, positions = integrate_guidance_batch(spreading_record, starts, 0.1)
        assert times.shape == (21,)
        assert positions.shape == (21, 5, 1)

    def test_states_and_final(self, plane_record):
        traj = integrate_guidance(plane_record, [0.0], 0.2)
        states = traj.states()
        assert len(states) == len(traj.times)
        assert traj.final.time == pytest.approx(1.0)
        assert traj.final.position[0] == pytest.approx(2.0, abs=1e-9)
        assert traj.final.momentum[0] == pytest.approx(2.0, abs=1e-9)

    def test_convergence_is_fourth_order(self, coherent_record):
        # the displaced ground state carries a spatially uniform velocity
        # field, so the particle follows x0 + a(cos t - 1) exactly
        x0 = 1.3
        want = x0 + np.cos(2.0) - 1.0
        errs = []
        for dt in (0.2, 0.1):
            traj = integrate_guidance(coherent_record, [x0], dt)
            errs.append(abs(traj.positions[-1, 0] - want))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 24.0

    def test_incommensurate_dt_rejected(self, spreading_record):
        with pytest.raises(ValueError, match="commensurate"):
            integrate_guidance(spreading_record, [0.0], 0.03)

    def test_non_integer_span_rejected(self, plane_record):
        with pytest.raises(ValueError, match="integer number of steps"):
            integrate_guidance(plane_record, [0.0], 0.3)

    def test_leaving_the_grid_aborts(self, plane_record):
        x0 = 5.0 * np.pi - 1.0
        with pytest.raises(TrajectoryAbort, match="left the grid") as exc_info:
            integrate_guidance(plane_record, [x0], 0.2)
        abort = exc_info.value
        assert 0.0 < abort.time <= 1.0
        assert abort.positions.shape == (1, 1)
        assert abort.positions[0, 0] > x0

    def test_node_region_aborts(self, line_grid, unit_params):
        x = line_grid.axes()[0]
        psi = np.exp(-((x - 2.0) ** 2) / 4.0) - np.exp(-((x + 2.0) ** 2) / 4.0)
        wf = normalize(Wavefunction(line_grid, unit_params, psi.astype(complex), 0.0))
        record = evolve_quiet(wf, Free(), 0.02, 1e-3, snapshot_stride=10)
        with pytest.raises(TrajectoryAbort, match="node region") as exc_info:
            integrate_guidance(record, [0.01], 0.02)
        assert exc_info.value.time == pytest.approx(0.0)


@pytest.fixture(scope="module")
def heavy_record():
    # mass 2 so the momenta test sees the masses; spacing dt/4 at dt = 0.1
    grid = make_grid(1, -15.0, 15.0, 384)
    wf = init_gaussian(grid, PhysicalParams(1.0, (2.0,)), 0.3, 1.0, wavenumber=0.5)
    return evolve_quiet(wf, Free(), 1.0, 1e-3, snapshot_stride=25)


def count_evaluations(monkeypatch):
    """Record the time of every ``_eval_fields`` call in the trajectories module."""
    seen = []

    def counting(cache, t, x):
        seen.append(t)
        return _eval_fields(cache, t, x)

    monkeypatch.setattr(trajectories, "_eval_fields", counting)
    return seen


class TestFieldCache:
    @pytest.mark.parametrize("kind", ["velocity", "qforce"])
    @pytest.mark.parametrize("interval, stride", [(0.05, 2), (0.025, 1), (0.03, 1)])
    def test_batch_fields_equal_per_snapshot(self, heavy_record, kind, interval, stride):
        cache = _FieldCache(heavy_record, kind, interval)
        assert cache.stride == stride
        assert cache.batch == 21  # 8,192 grid points over 384
        for i in range(0, len(heavy_record), stride):
            values, valid = cache.fields(i)
            snap = heavy_record.snapshots[i]
            if kind == "velocity":
                want = velocity_field(snap)
                want_valid = want[0].valid_mask
            else:
                qf = compute_qfields(snap)
                want, want_valid = qf.force, qf.valid
            assert np.array_equal(values[0], want[0].values)
            assert np.array_equal(valid, want_valid)
            # a batch fills only the snapshots on the stride
            assert all(k % stride == 0 for k in cache._cache)

    def test_batch_size_follows_point_budget(self):
        grid = make_grid(2, -8.0, 8.0, 128)
        wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
        record = evolve_quiet(wf, Free(), 0.01, 1e-3, snapshot_stride=5)
        assert _FieldCache(record, "velocity", 5e-3).batch == 1


class TestGuidanceMomenta:
    def test_momenta_equal_fresh_field_evaluations(self, heavy_record):
        dt = 0.1
        traj = integrate_guidance(heavy_record, [0.4], dt)
        cache = _FieldCache(heavy_record, "velocity", 0.5 * dt)
        masses = np.array([2.0])
        want = np.array(
            [masses * _eval_fields(cache, float(t), traj.positions[i : i + 1])[0] for i, t in enumerate(traj.times)]
        )
        assert np.array_equal(traj.momenta, want)

    def test_batch_does_no_final_time_evaluation(self, heavy_record, monkeypatch):
        seen = count_evaluations(monkeypatch)
        times, _ = integrate_guidance_batch(heavy_record, np.array([[0.4], [-0.7]]), 0.1)
        n = len(times) - 1
        assert len(seen) == 4 * n  # four RK4 stages per step, nothing more
        seen.clear()
        integrate_guidance(heavy_record, [0.4], 0.1)
        assert len(seen) == 4 * n + 1  # the momenta add only v at the final time
        assert seen[-1] == pytest.approx(float(times[-1]), abs=0.0)


class TestNewtonRoute:
    def test_matches_guidance_on_plane_wave(self, plane_record):
        gap = crosscheck(plane_record, [0.7], Free(), 0.2)
        assert gap < 1e-9

    def test_matches_guidance_on_free_gaussian(self, spreading_record):
        gap = crosscheck(spreading_record, [0.8], Free(), 0.1)
        assert gap < 1e-3

    def test_matches_guidance_on_ground_state(self, ground_record):
        gap = crosscheck(ground_record, [0.5], Harmonic(omega=1.0), 0.2)
        assert gap < 1e-8

    def test_momentum_seeded_from_guidance_value(self, plane_record):
        traj = integrate_newton(plane_record, [0.7], Free(), 0.2)
        assert traj.mode == "newton"
        assert np.abs(traj.momenta[:, 0] - 2.0).max() < 1e-9

    def test_initial_momentum_needs_one_velocity_field(self, heavy_record, monkeypatch):
        calls = []

        def counting(wf):
            calls.append(wf)
            return velocity_field(wf)

        monkeypatch.setattr(trajectories, "velocity_field", counting)
        newton = integrate_newton(heavy_record, [0.4], Free(), 0.1)
        assert len(calls) == 1 and calls[0] is heavy_record.snapshots[0]
        monkeypatch.undo()
        guided = integrate_guidance(heavy_record, [0.4], 0.1)
        assert np.array_equal(newton.momenta[0], guided.momenta[0])

    def test_start_off_the_grid_aborts(self, plane_record):
        with pytest.raises(TrajectoryAbort, match="left the grid") as exc_info:
            integrate_newton(plane_record, [5.0 * np.pi + 0.1], Free(), 0.2)
        assert exc_info.value.time == pytest.approx(0.0)

    def test_start_in_node_region_aborts(self, line_grid, unit_params):
        x = line_grid.axes()[0]
        psi = np.exp(-((x - 2.0) ** 2) / 4.0) - np.exp(-((x + 2.0) ** 2) / 4.0)
        wf = normalize(Wavefunction(line_grid, unit_params, psi.astype(complex), 0.0))
        record = evolve_quiet(wf, Free(), 0.02, 1e-3, snapshot_stride=10)
        with pytest.raises(TrajectoryAbort, match="node region") as exc_info:
            integrate_newton(record, [0.01], Free(), 0.02)
        assert exc_info.value.time == pytest.approx(0.0)

    def test_energy_constant_along_rest_trajectory(self, ground_record):
        traj = integrate_newton(ground_record, [0.5], Harmonic(omega=1.0), 0.2)
        for i, t in enumerate(traj.times):
            snap_index = int(round((t - traj.times[0]) / ground_record.snapshot_spacing))
            snap = ground_record.snapshots[snap_index]
            energy = hamilton_jacobi_energy(snap, Harmonic(omega=1.0), traj.positions[i])
            assert energy == pytest.approx(0.5, abs=1e-6)
