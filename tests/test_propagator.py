import tracemalloc
import warnings

import numpy as np
import pytest

import bohmsim
import oracles
from bohmsim import (
    AccuracyWarning,
    Barrier,
    Free,
    Harmonic,
    Linear,
    PairwiseHarmonic,
    PhysicalParams,
    PotentialSpec,
    SumPotential,
    Wavefunction,
    continuity_residual,
    evaluate_potential,
    evolve,
    init_gaussian,
    init_plane_wave,
    make_grid,
    position_moments,
    probability_current,
    probability_density,
    step,
    velocity_field,
)
from bohmsim.propagator import accuracy_dt_bound


def quiet_evolve(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        return evolve(*args, **kwargs)


# (spec, dims); append new cases so the ids of the existing ones stay stable
POTENTIAL_CASES = [
    (Harmonic(omega=1.3, center=0.2), 1),
    (Linear(force=0.7), 1),
    (Barrier(height=2.0, center=0.5, width=0.8), 1),
    (SumPotential((Harmonic(omega=1.0), Linear(force=0.3))), 1),
    (Free(), 1),
    (Harmonic(omega=(1.3, 0.6), center=(0.2, -0.4)), 2),
    (Barrier(height=2.0, center=(0.5, -0.3), width=0.8), 2),
    (Linear(force=(0.7, -0.2)), 2),
    (PairwiseHarmonic(coupling=0.8, rest_length=1.0), 2),
    (SumPotential((PairwiseHarmonic(coupling=0.5), Harmonic(omega=1.0))), 2),
]


class TestPotentials:
    @pytest.mark.parametrize(
        "potential, dims",
        [pytest.param(p, d, id=f"potential{i}") for i, (p, d) in enumerate(POTENTIAL_CASES)],
    )
    def test_force_is_negative_gradient(self, potential, dims, unit_params):
        x = np.array([[0.7, -0.3], [-1.2, 0.9], [0.0, 0.0]])[:, :dims]
        force = potential.force_at(x, unit_params)
        assert force.shape == x.shape
        h = 1e-6
        for d in range(dims):
            shift = np.zeros(dims)
            shift[d] = h
            up = potential.value_at(x + shift, unit_params)
            down = potential.value_at(x - shift, unit_params)
            fd = -(up - down) / (2.0 * h)
            assert np.abs(force[:, d] - fd).max() < 1e-7

    @pytest.mark.parametrize("dims", [1, 2])
    def test_grid_evaluation_matches_pointwise(self, dims, unit_params):
        grid = make_grid(dims, -4.0, 4.0, 32)
        points = np.stack(grid.meshes(), axis=-1).reshape(-1, dims)
        for potential, case_dims in POTENTIAL_CASES:
            if case_dims != dims:
                continue
            on_grid = evaluate_potential(potential, grid, unit_params)
            assert on_grid.shape == grid.shape
            pointwise = potential.value_at(points, unit_params)
            np.testing.assert_allclose(on_grid.reshape(-1), pointwise, rtol=1e-12, atol=1e-12)

    def test_base_spec_is_not_evaluable(self, unit_params):
        with pytest.raises(TypeError, match="unknown potential spec"):
            PotentialSpec().value_at(np.zeros((1, 1)), unit_params)
        with pytest.raises(TypeError, match="unknown potential spec"):
            PotentialSpec().force_at(np.zeros((1, 1)), unit_params)

    def test_every_public_name_resolves(self):
        missing = [name for name in bohmsim.__all__ if not hasattr(bohmsim, name)]
        assert missing == []

    def test_free_potential_is_zero(self, line_grid, unit_params):
        assert not evaluate_potential(Free(), line_grid, unit_params).any()

    def test_harmonic_values(self, line_grid, unit_params):
        v = evaluate_potential(Harmonic(omega=2.0), line_grid, unit_params)
        x = line_grid.axes()[0]
        assert np.abs(v - 0.5 * 4.0 * x**2).max() < 1e-12

    def test_pairwise_harmonic_obeys_action_reaction(self):
        params = PhysicalParams(1.0, (1.0, 1.0))
        potential = PairwiseHarmonic(coupling=0.8, rest_length=1.0)
        force = potential.force_at(np.array([[1.5, -0.5]]), params)
        assert force[0, 0] == pytest.approx(-0.8)
        assert force[0, 1] == pytest.approx(+0.8)
        assert force.sum() == pytest.approx(0.0, abs=1e-15)

    def test_pairwise_harmonic_needs_two_dims(self, line_grid, unit_params):
        with pytest.raises(ValueError, match="2-dimensional"):
            evaluate_potential(PairwiseHarmonic(coupling=1.0), line_grid, unit_params)


@pytest.mark.filterwarnings("ignore::bohmsim.AccuracyWarning")
class TestStep:
    def test_plane_wave_phase_advance(self, pi_grid, unit_params):
        # k = 2 lies on the wavenumber lattice of this grid, so the free
        # step multiplies by a single exact phase factor
        wf = init_plane_wave(pi_grid, unit_params, 2.0)
        out = step(wf, Free(), 0.1)
        assert np.abs(np.abs(out.amplitudes) - np.abs(wf.amplitudes)).max() < 1e-14
        phase = np.angle(out.amplitudes / wf.amplitudes)
        assert np.abs(phase - (-0.2)).max() < 1e-12
        assert out.time == pytest.approx(0.1)

    def test_ground_state_modulus_preserved(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        out = step(wf, Harmonic(omega=1.0), 1e-3)
        assert np.abs(np.abs(out.amplitudes) - np.abs(wf.amplitudes)).max() < 1e-12

    def test_ground_state_modulus_error_shrinks_fast(self, line_grid, unit_params):
        # splitting error on a stationary state falls off as dt^4 per step,
        # so "modulus preserved" only holds for small steps
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        errs = []
        for dt in (1e-2, 1e-3):
            out = step(wf, Harmonic(omega=1.0), dt)
            errs.append(np.abs(np.abs(out.amplitudes) - np.abs(wf.amplitudes)).max())
        assert errs[0] / errs[1] > 1e3

    def test_ground_state_global_phase(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        dt = 1e-3
        out = step(wf, Harmonic(omega=1.0), dt)
        rho = probability_density(wf).values
        bulk = rho > 1e-8 * rho.max()
        phase = np.angle(out.amplitudes / wf.amplitudes)[bulk]
        assert np.abs(phase - (-0.5 * dt)).max() < 1e-8

    def test_nan_input_aborts(self, unit_gaussian):
        amps = unit_gaussian.amplitudes.copy()
        amps[10] = np.nan
        bad = Wavefunction(unit_gaussian.grid, unit_gaussian.params, amps, 0.0)
        with pytest.raises(FloatingPointError, match="blow-up"):
            step(bad, Free(), 1e-3)

    def test_large_dt_warns(self, unit_gaussian):
        bound = accuracy_dt_bound(unit_gaussian.grid, unit_gaussian.params)
        with pytest.warns(AccuracyWarning):
            step(unit_gaussian, Harmonic(omega=1.0), 2.0 * bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            step(unit_gaussian, Harmonic(omega=1.0), 0.5 * bound)

    def test_free_step_never_warns(self, unit_gaussian):
        # the splitting has no error term without a potential, so no
        # accuracy guidance applies
        bound = accuracy_dt_bound(unit_gaussian.grid, unit_gaussian.params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            step(unit_gaussian, Free(), 100.0 * bound)


class TestEvolve:
    def test_rejects_non_integer_step_count(self, unit_gaussian):
        with pytest.raises(ValueError, match="integer number of steps"):
            quiet_evolve(unit_gaussian, Free(), 1.0, 0.3)

    def test_rejects_stride_not_dividing(self, unit_gaussian):
        with pytest.raises(ValueError, match="stride"):
            quiet_evolve(unit_gaussian, Free(), 1.0, 0.1, snapshot_stride=3)

    @pytest.mark.parametrize(
        "t_final, dt",
        [(np.nan, 1e-3), (np.inf, 1e-3), (1.0, np.nan), (1.0, np.inf), (-np.inf, 1e-3)],
    )
    def test_rejects_non_finite_times(self, unit_gaussian, t_final, dt):
        with pytest.raises(ValueError, match="must be positive and finite"):
            quiet_evolve(unit_gaussian, Free(), t_final, dt)

    def test_snapshots_cover_endpoints(self, unit_gaussian):
        record = quiet_evolve(unit_gaussian, Free(), 1.0, 0.1, snapshot_stride=5)
        assert record.times[0] == pytest.approx(0.0)
        assert record.times[-1] == pytest.approx(1.0)
        assert len(record) == 3
        assert (np.diff(record.times) > 0).all()
        assert record.snapshot_spacing == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "potential",
        [Free(), Harmonic(omega=1.0), Linear(force=0.5), Barrier(height=1.0, width=1.0)],
    )
    def test_unitarity(self, wide_grid, unit_params, potential):
        wf = init_gaussian(wide_grid, unit_params, 0.0, 1.0, 1.0)
        record = quiet_evolve(wf, potential, 1.0, 1e-3, snapshot_stride=1000)
        assert record.norm_drift.max() < 1e-10

    def test_free_spreading_variance(self, wide_grid, unit_params):
        wf = init_gaussian(wide_grid, unit_params, 0.0, 1.0)
        record = quiet_evolve(wf, Free(), 2.0, 1e-3, snapshot_stride=500)
        for t, snap in zip(record.times, record.snapshots):
            _, variances = position_moments(snap)
            expected = oracles.spread_sigma(t, 1.0) ** 2
            assert variances[0] == pytest.approx(expected, rel=1e-6)

    def test_convergence_is_second_order(self, unit_params):
        # free motion is reproduced exactly by the splitting, so the rate
        # is measured on a harmonic case with a closed-form solution
        grid = make_grid(1, -12.0, 12.0, 512)
        wf = init_gaussian(grid, unit_params, 1.0, oracles.ground_sigma(1.0))
        x = grid.axes()[0]
        target = oracles.coherent_state(x, 1.0, 1.0)
        errs = []
        for dt in (2e-3, 1e-3):
            record = quiet_evolve(wf, Harmonic(omega=1.0), 1.0, dt, snapshot_stride=int(round(1.0 / dt)))
            errs.append(np.abs(record.snapshots[-1].amplitudes - target).max())
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_time_reversal(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 1.0, oracles.ground_sigma(1.0))
        forward = quiet_evolve(wf, Harmonic(omega=1.0), 1.0, 1e-3, snapshot_stride=1000)
        final = forward.snapshots[-1]
        mirrored = Wavefunction(final.grid, final.params, np.conj(final.amplitudes), 0.0)
        back = quiet_evolve(mirrored, Harmonic(omega=1.0), 1.0, 1e-3, snapshot_stride=1000)
        recovered = back.snapshots[-1]
        assert np.abs(np.abs(recovered.amplitudes) - np.abs(wf.amplitudes)).max() < 1e-8


def _unequal_plane():
    """2D state on a grid with unequal extents, point counts and masses."""
    grid = make_grid(2, (-6.0, -5.0), (6.0, 5.0), (48, 40))
    params = PhysicalParams(1.0, (1.0, 2.0))
    return init_gaussian(grid, params, (0.5, -0.3), (1.0, 0.8), (1.0, -0.5))


class TestClosedFormFree:
    """Free records are evolved in closed form; the Strang loop is the reference."""

    @pytest.mark.parametrize("dims", [1, 2])
    def test_matches_repeated_steps(self, dims, wide_grid, unit_params):
        if dims == 1:
            wf = init_gaussian(wide_grid, unit_params, 0.0, 1.0, 1.0)
        else:
            wf = _unequal_plane()
        dt, n_steps, stride = 0.02, 40, 10
        record = evolve(wf, Free(), n_steps * dt, dt, snapshot_stride=stride)
        assert len(record) == n_steps // stride + 1
        state = wf
        for i in range(1, n_steps + 1):
            state = step(state, Free(), dt)
            if i % stride == 0:
                got = record.snapshots[i // stride].amplitudes
                assert np.abs(got - state.amplitudes).max() < 1e-12

    def test_first_snapshot_is_input_and_times_match_loop(self):
        wf = _unequal_plane()
        wf = Wavefunction(wf.grid, wf.params, wf.amplitudes, time=0.3)
        free = evolve(wf, Free(), 0.6, 0.01, snapshot_stride=4)
        # a zero force puts the same motion through the Strang loop
        loop = quiet_evolve(wf, Linear(force=0.0), 0.6, 0.01, snapshot_stride=4)
        assert free.snapshots[0] is wf
        assert np.array_equal(free.times, loop.times)
        assert [s.time for s in free.snapshots] == [s.time for s in loop.snapshots]
        for a, b in zip(free.snapshots, loop.snapshots):
            assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12

    def test_norm_drift_entries(self, unit_gaussian):
        free = evolve(unit_gaussian, Free(), 0.4, 0.01, snapshot_stride=8)
        assert len(free.norm_drift) == len(free) - 1 == 5
        assert free.norm_drift.max() < 1e-12
        strang = quiet_evolve(unit_gaussian, Harmonic(omega=1.0), 0.4, 0.01, snapshot_stride=8)
        assert len(strang.norm_drift) == 40

    @pytest.mark.parametrize("potential", [Free(), Harmonic(omega=1.0)])
    def test_nan_input_aborts(self, unit_gaussian, potential):
        amps = unit_gaussian.amplitudes.copy()
        amps[10] = np.nan
        bad = Wavefunction(unit_gaussian.grid, unit_gaussian.params, amps, 0.0)
        with pytest.raises(FloatingPointError, match="blow-up"):
            quiet_evolve(bad, potential, 0.05, 1e-3, snapshot_stride=5)

    def test_peak_memory_stays_near_record_size(self, unit_params):
        # the phases and transforms are chunked, so the temporaries stay a
        # small fraction of a 101-snapshot 128 x 128 record
        grid = make_grid(2, -8.0, 8.0, 128)
        wf = init_gaussian(grid, unit_params, 0.0, 0.5)
        tracemalloc.start()
        try:
            record = evolve(wf, Free(), 1.0, 0.01, snapshot_stride=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        record_bytes = sum(s.amplitudes.nbytes for s in record.snapshots)
        assert len(record) == 101
        assert peak <= 1.1 * record_bytes


class TestProbabilityCurrent:
    def test_matches_density_times_velocity(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0, 2.0)
        current = probability_current(wf)[0]
        rho = probability_density(wf).values
        v = velocity_field(wf)[0]
        mask = v.valid_mask
        assert np.abs(current[mask] - (rho * v.values)[mask]).max() < 1e-12


class TestContinuityResidual:
    def test_stationary_state(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        record = quiet_evolve(wf, Harmonic(omega=1.0), 0.1, 1e-4, snapshot_stride=100)
        worst = max(np.abs(field.values).max() for field in continuity_residual(record))
        assert worst < 1e-8

    def test_free_gaussian_regression(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0)
        record = quiet_evolve(wf, Free(), 0.05, 1e-3, snapshot_stride=1)
        worst = max(np.abs(field.values).max() for field in continuity_residual(record))
        assert worst < 1e-4
        # measured 9.24e-10 on this exact configuration; regression guard
        assert worst < 5e-9

    def test_plane_wave(self, pi_grid, unit_params):
        wf = init_plane_wave(pi_grid, unit_params, 2.0)
        record = quiet_evolve(wf, Free(), 0.05, 1e-3, snapshot_stride=1)
        worst = max(np.abs(field.values).max() for field in continuity_residual(record))
        assert worst < 1e-10
