import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohmsim
import oracles
from bohmsim import (
    AccuracyWarning,
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
    node_mask,
    norm,
    normalize,
    position_moments,
    probability_current,
    step,
    velocity_field,
)
from bohmsim.propagator import _SplitStepKernel, _whole_steps, accuracy_dt_bound
from bohmsim.wavefield import FIELD_BATCH_POINTS


def quiet_evolve(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        return evolve(*args, **kwargs)


# id number -> (spec, dims); new cases take new numbers so existing ids stay
# stable (2 and 6 were the removed Gaussian barrier)
POTENTIAL_CASES = {
    0: (Harmonic(omega=1.3, center=0.2), 1),
    1: (Linear(force=0.7), 1),
    3: (SumPotential((Harmonic(omega=1.0), Linear(force=0.3))), 1),
    4: (Free(), 1),
    5: (Harmonic(omega=(1.3, 0.6), center=(0.2, -0.4)), 2),
    7: (Linear(force=(0.7, -0.2)), 2),
    8: (PairwiseHarmonic(coupling=0.8, rest_length=1.0), 2),
    9: (SumPotential((PairwiseHarmonic(coupling=0.5), Harmonic(omega=1.0))), 2),
}


class TestPotentials:
    @pytest.mark.parametrize(
        "potential, dims",
        [pytest.param(p, d, id=f"potential{i}") for i, (p, d) in POTENTIAL_CASES.items()],
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
        for potential, case_dims in POTENTIAL_CASES.values():
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
        params = PhysicalParams()
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
        rho = np.abs(wf.amplitudes) ** 2
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

    @pytest.mark.parametrize("entry", ["step", "evolve"])
    def test_large_dt_warning_names_the_caller(self, unit_gaussian, entry):
        dt = 2.0 * accuracy_dt_bound(unit_gaussian.grid, unit_gaussian.params)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AccuracyWarning)
            if entry == "step":
                step(unit_gaussian, Harmonic(omega=1.0), dt)
            else:
                evolve(unit_gaussian, Harmonic(omega=1.0), 2.0 * dt, dt)
        assert [w.category for w in caught] == [AccuracyWarning]
        assert caught[0].filename == __file__

    def test_free_step_never_warns(self, unit_gaussian):
        # the splitting has no error term without a potential, so no
        # accuracy guidance applies
        bound = accuracy_dt_bound(unit_gaussian.grid, unit_gaussian.params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            step(unit_gaussian, Free(), 100.0 * bound)


# Over 15,000 drawn cases the largest errors were 4.4e-16 (norm) and 1.4e-15
# (reversal, relative to max |psi|).  A kernel without its closing
# half-potential factor keeps the norm but reverses with errors up to 1.9;
# one that takes the potential phase as a real decay fails both by up to 1e14.
STEP_NORM_BOUND = 1e-14
STEP_REVERSAL_BOUND = 2e-14


@st.composite
def stepper_cases(draw):
    """A random normalized state, mass, hbar, dt and SumPotential in 1D or 2D."""
    dims = draw(st.sampled_from([1, 2]))
    points = draw(st.sampled_from([16, 32, 64, 128] if dims == 1 else [16, 24, 32]))
    half = draw(st.floats(2.0, 20.0))
    params = PhysicalParams(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    terms = [
        st.builds(Harmonic, omega=st.floats(0.0, 3.0), center=st.floats(-2.0, 2.0)),
        st.builds(Linear, force=st.floats(-3.0, 3.0)),
    ]
    if dims == 2:
        terms.append(st.builds(PairwiseHarmonic, coupling=st.floats(0.0, 3.0), rest_length=st.floats(-2.0, 2.0)))
    potential = SumPotential(tuple(draw(st.lists(st.one_of(terms), min_size=1, max_size=3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = make_grid(dims, -half, half, points)
    amps = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return normalize(Wavefunction(grid, params, amps, 0.0)), potential, draw(st.floats(1e-4, 0.5))


def step_errors(wf, potential, dt):
    """Norm change of one step, and max |conj(step(conj(step(psi)))) - psi| over max |psi|."""
    forward = step(wf, potential, dt)
    mirrored = Wavefunction(wf.grid, wf.params, np.conj(forward.amplitudes), 0.0)
    back = np.conj(step(mirrored, potential, dt).amplitudes)
    reversal = np.abs(back - wf.amplitudes).max() / np.abs(wf.amplitudes).max()
    return abs(norm(forward) - norm(wf)), reversal


@pytest.mark.filterwarnings("ignore::bohmsim.AccuracyWarning")
class TestStepProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=stepper_cases())
    def test_step_keeps_the_norm(self, case):
        assert step_errors(*case)[0] <= STEP_NORM_BOUND

    @settings(max_examples=60, deadline=None)
    @given(case=stepper_cases())
    def test_conjugated_step_reverses_a_step(self, case):
        assert step_errors(*case)[1] <= STEP_REVERSAL_BOUND


class TestEvolve:
    def test_rejects_non_integer_step_count(self, unit_gaussian):
        with pytest.raises(ValueError, match="integer number of steps"):
            quiet_evolve(unit_gaussian, Free(), 1.0, 0.3)

    def test_rejects_stride_not_dividing(self, unit_gaussian):
        with pytest.raises(ValueError, match="stride"):
            quiet_evolve(unit_gaussian, Free(), 1.0, 0.1, snapshot_stride=3)

    @pytest.mark.parametrize("potential", [Free(), Harmonic(omega=1.0)])
    @pytest.mark.parametrize("stride", [2.5, 0.5, np.nan, np.inf])
    def test_rejects_a_fractional_stride(self, unit_gaussian, potential, stride):
        # 10 steps: 2.5 divides them, but a row 2.5 steps apart lies off the dt lattice
        with pytest.raises(ValueError, match="^snapshot_stride must be a whole number >= 1"):
            quiet_evolve(unit_gaussian, potential, 1.0, 0.1, snapshot_stride=stride)

    @pytest.mark.parametrize("stride", [2, 2.0, np.int64(2)])
    def test_integral_strides_are_kept(self, unit_gaussian, stride):
        record = quiet_evolve(unit_gaussian, Free(), 1.0, 0.1, snapshot_stride=stride)
        assert len(record) == 6 and record.snapshot_spacing == pytest.approx(0.2)

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
        [Free(), Harmonic(omega=1.0), Linear(force=0.5)],
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
    """2D state of mass 2 on a grid with unequal extents and point counts."""
    grid = make_grid(2, (-6.0, -5.0), (6.0, 5.0), (48, 40))
    params = PhysicalParams(1.0, 2.0)
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
        # row 0 is a copy of the input, not the input object
        assert np.array_equal(free.snapshots[0].amplitudes, wf.amplitudes)
        assert free.snapshots[0].time == wf.time
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

    @pytest.mark.parametrize(
        "points, n_steps, stride",
        [((384,), 60, 1), ((383,), 60, 1), ((32, 48), 24, 2), ((33, 20), 40, 1)],
        ids=["1d-even", "1d-odd", "2d-32x48", "2d-33x20"],
    )
    def test_equals_the_unfolded_oracle(self, points, n_steps, stride):
        # every case spans several chunks of FIELD_BATCH_POINTS grid points; odd
        # counts have no Nyquist mode
        dims = len(points)
        grid = make_grid(dims, (-6.0, -5.0)[:dims], (6.0, 5.0)[:dims], points)
        rng = np.random.default_rng(2)
        wf = Wavefunction(grid, PhysicalParams(0.7, 1.3), rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        dt = 0.013
        record = evolve(wf, Free(), n_steps * dt, dt, snapshot_stride=stride)
        rows = len(record)
        assert rows - 1 > FIELD_BATCH_POINTS // wf.amplitudes.size
        want = oracles.free_rows(wf, np.arange(0, n_steps + 1, stride) * dt)
        # rows are computed when read: by an int, a slice, a stride-2 slice and one-row batches out of order
        one_rows = [slice(i, i + 1) for i in (5, 1, 0, 4)]
        for index in [3, 0, rows - 1, slice(None), slice(2, rows - 1), slice(1, None, 2), *one_rows]:
            assert record.rows(index).tobytes() == want[index].tobytes(), index
        assert record.rows(0).tobytes() == wf.amplitudes.tobytes()  # psi0 itself, not ifftn(fftn psi0)
        # the oracle rows' norms, summed as the record sums them
        cell = grid.cell_volume
        flat = want[1:].reshape(rows - 1, -1).view(float)
        norm0 = np.sqrt(np.vdot(wf.amplitudes, wf.amplitudes).real * cell)
        norms = np.r_[norm0, np.sqrt(np.einsum("ij,ij->i", flat, flat) * cell)]
        assert record.norm_drift.tobytes() == np.abs(np.diff(norms)).tobytes()
        assert record._window[2] is None  # every read above computed its rows and freed them
        assert record.amplitudes.tobytes() == want.tobytes()

    def test_block_readers_compute_the_rows_once(self, wide_grid, unit_params, monkeypatch):
        # continuity_residual, snapshots and norm_drift, in the order the free-gaussian run reads them
        wf = init_gaussian(wide_grid, unit_params, 0.0, 1.0)
        drift = evolve(wf, Free(), 0.2, 0.01).norm_drift  # from rows computed a chunk at a time
        record = evolve(wf, Free(), 0.2, 0.01)
        computed = []
        fft = bohmsim.propagator._fft

        def counting(values, axis, out=None, inverse=False):
            computed.extend([len(values)] if inverse else [])  # a 1D row's one inverse transform
            return fft(values, axis, out, inverse)

        monkeypatch.setattr(bohmsim.propagator, "_fft", counting)
        continuity_residual(record)
        assert len(record.snapshots) == 21
        assert record.norm_drift.tobytes() == drift.tobytes()  # from the kept block, with the same bits
        assert record.rows(slice(3, 9, 2)).tobytes() == record.amplitudes[3:9:2].tobytes()
        assert computed == [20]  # every row but row 0, psi0's own bits, once, in one chunk

    def test_repr_and_equality_read_no_rows(self, wide_grid, unit_params):
        wf = init_gaussian(wide_grid, unit_params, 0.0, 1.0)
        record = evolve(wf, Free(), 0.2, 0.01)
        assert "Record" in repr(record)
        assert record == record and record != evolve(wf, Free(), 0.2, 0.01)  # identity
        assert record._window[2] is None  # no rows computed, let alone every row

    def test_peak_memory_stays_near_record_size(self, unit_params):
        # evolve and a read of every row: the phases and transforms are chunked,
        # so the temporaries stay a small fraction of a 101-snapshot 128 x 128 block
        grid = make_grid(2, -8.0, 8.0, 128)
        wf = init_gaussian(grid, unit_params, 0.0, 0.5)
        tracemalloc.start()
        try:
            record = evolve(wf, Free(), 1.0, 0.01, snapshot_stride=1)
            block = record.rows(slice(None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(record) == 101 and block.shape == (101, 128, 128)
        assert peak <= 1.1 * block.nbytes


class TestStrangRecord:
    """A record in a potential steps from psi0 to the rows where they are read; the stored loop is the reference."""

    N_STEPS, STRIDE, DT = 36, 3, 1e-4

    def record_and_loop(self, unit_gaussian):
        potential = Harmonic(omega=1.0, center=0.4)
        record = evolve(unit_gaussian, potential, self.N_STEPS * self.DT, self.DT, snapshot_stride=self.STRIDE)
        return record, oracles.strang_loop(unit_gaussian, potential, self.DT, self.N_STEPS, self.STRIDE)

    def test_reads_in_any_order_equal_the_stored_loop(self, unit_gaussian):
        record, (want, drift) = self.record_and_loop(unit_gaussian)
        assert len(record) == len(want) == 13
        # forward, behind the cursor, strided, reversed, ints and an empty slice
        reads = [slice(0, 4), slice(4, 9), slice(2, 6), 7, -1, 0, slice(1, None, 3), slice(11, 2, -4), slice(5, 5)]
        for index in reads:
            assert record.rows(index).tobytes() == want[index].tobytes(), index
            assert record.rows(index).shape == want[index].shape, index
        assert record.norm_drift.tobytes() == drift.tobytes() and len(record.norm_drift) == self.N_STEPS
        assert record._window[2] is None  # every read above stepped to its rows and freed them
        assert record.amplitudes.tobytes() == want.tobytes()

    @pytest.mark.parametrize("first", ["rows", "norm_drift", "amplitudes"])
    def test_the_first_read_sets_no_bits(self, unit_gaussian, first):
        record, (want, drift) = self.record_and_loop(unit_gaussian)
        reads = {
            "rows": lambda: record.rows(slice(3, 8)).tobytes() == want[3:8].tobytes(),
            "norm_drift": lambda: record.norm_drift.tobytes() == drift.tobytes(),
            "amplitudes": lambda: record.amplitudes.tobytes() == want.tobytes(),
        }
        assert reads.pop(first)()
        assert all(read() for read in reads.values())

    def test_reads_restart_only_when_behind_the_cursor(self, unit_gaussian, monkeypatch):
        record, _ = self.record_and_loop(unit_gaussian)
        calls, apply = [], _SplitStepKernel.apply
        monkeypatch.setattr(_SplitStepKernel, "apply", lambda self, amps, out=None: calls.append(1) or apply(self, amps, out))
        for window in (slice(0, 4), slice(4, 9), slice(8, 10)):  # forward, sharing row 8
            record.rows(window)
        assert len(calls) == 9 * self.STRIDE
        record.rows(slice(2, 5))  # behind the cursor: from psi0 again
        assert len(calls) == (9 + 4) * self.STRIDE
        record.norm_drift  # on to the end, and then no more steps
        record.norm_drift
        assert len(calls) == (9 + 12) * self.STRIDE

    # amplitudes steps from psi0 again, so the 17th step taken is its 5th
    @pytest.mark.parametrize("read, bad_step", [("rows", 17), ("norm_drift", 17), ("amplitudes", 5)])
    def test_a_non_finite_step_raises_at_the_read_that_reaches_it(self, unit_gaussian, monkeypatch, read, bad_step):
        record, (want, drift) = self.record_and_loop(unit_gaussian)
        calls, apply = [], _SplitStepKernel.apply

        def doctored(self, amps, out=None):
            out = apply(self, amps, out)
            calls.append(1)
            if len(calls) == 17:  # the 17th step taken, and no later one
                out[5] = np.nan
            return out

        monkeypatch.setattr(_SplitStepKernel, "apply", doctored)
        assert record.rows(slice(0, 5)).tobytes() == want[:5].tobytes()  # steps 1 to 12 only
        with pytest.raises(FloatingPointError, match=f"blow-up at step {bad_step}: non-finite norm"):
            {"rows": lambda: record.rows(slice(5, 7)), "norm_drift": lambda: record.norm_drift,
             "amplitudes": lambda: record.amplitudes}[read]()
        # the next read steps from psi0 again, through sound steps
        assert record.rows(slice(4, 13)).tobytes() == want[4:].tobytes()
        assert record.norm_drift.tobytes() == drift.tobytes()


class TestProbabilityCurrent:
    def test_matches_density_times_velocity(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0, 2.0)
        current = probability_current(wf)[0]
        rho = np.abs(wf.amplitudes) ** 2
        v = velocity_field(wf)[0]
        mask = node_mask(wf)
        assert np.abs(current[mask] - (rho * v)[mask]).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        width=st.floats(0.4, 3.0),
        hbar=st.floats(0.25, 4.0),
        mass=st.floats(0.25, 4.0),
    )
    def test_velocity_times_density_is_the_current(self, dims, seed, width, hbar, mass):
        # rough random states under an envelope whose tails fall below the node threshold
        grid = make_grid(dims, -6.0, 6.0, 24)
        rng = np.random.default_rng(seed)
        envelope = np.exp(-sum(mesh**2 for mesh in grid.meshes()) / (4.0 * width**2))
        amps = (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)) * envelope
        wf = Wavefunction(grid, PhysicalParams(hbar, mass), amps, 0.0)
        current = probability_current(wf)
        v = velocity_field(wf)
        assert current.shape == v.shape == (dims,) + grid.shape
        mask = node_mask(wf)
        rho = np.abs(amps) ** 2
        for d in range(dims):
            np.testing.assert_allclose((v[d] * rho)[mask], current[d][mask], rtol=1e-14, atol=0.0)
            assert not v[d][~mask].any()


class TestContinuityResidual:
    @pytest.mark.parametrize("case", ["strang-1d", "free-1d", "strang-2d"])
    def test_batch_equals_the_per_pair_loop(self, case):
        if case == "strang-2d":
            grid = make_grid(2, -8.0, 8.0, 48)
            params = PhysicalParams(0.8, 2.5)
            wf = init_gaussian(grid, params, [0.5, -0.3], [1.2, 1.1], [1.0, -0.7])
            record = quiet_evolve(wf, Harmonic(omega=0.7), 0.04, 1e-2, snapshot_stride=1)
        else:
            grid = make_grid(1, -15.0, 15.0, 384)
            params = PhysicalParams(1.3, 0.9)
            wf = init_gaussian(grid, params, 0.7, 1.0, 1.5)
            potential = Free() if case == "free-1d" else Harmonic(omega=1.0)
            record = quiet_evolve(wf, potential, 0.1, 1e-3, snapshot_stride=10)
        residual = continuity_residual(record)
        assert residual.shape == (len(record) - 1,) + grid.shape
        assert np.array_equal(residual, oracles.continuity_residual_pairs(record))

    def test_stationary_state(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, oracles.ground_sigma(1.0))
        record = quiet_evolve(wf, Harmonic(omega=1.0), 0.1, 1e-4, snapshot_stride=100)
        worst = np.abs(continuity_residual(record)).max()
        assert worst < 1e-8

    def test_free_gaussian_regression(self, line_grid, unit_params):
        wf = init_gaussian(line_grid, unit_params, 0.0, 1.0)
        record = quiet_evolve(wf, Free(), 0.05, 1e-3, snapshot_stride=1)
        worst = np.abs(continuity_residual(record)).max()
        assert worst < 1e-4
        # measured 9.24e-10 on this exact configuration; regression guard
        assert worst < 5e-9

    def test_plane_wave(self, pi_grid, unit_params):
        wf = init_plane_wave(pi_grid, unit_params, 2.0)
        record = quiet_evolve(wf, Free(), 0.05, 1e-3, snapshot_stride=1)
        worst = np.abs(continuity_residual(record)).max()
        assert worst < 1e-10


class TestRecordLayout:
    """A record's snapshots are row views of its one amplitude block, which a free record computes when first read."""

    @pytest.mark.parametrize("potential", [Free(), Harmonic(omega=1.0)])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_snapshots_are_rows_of_one_block(self, dims, potential, wide_grid, unit_params):
        wf = init_gaussian(wide_grid, unit_params, 0.0, 1.0) if dims == 1 else _unequal_plane()
        record = quiet_evolve(wf, potential, 0.06, 0.01, snapshot_stride=2)
        assert record.amplitudes.shape == (len(record.times),) + wf.grid.shape
        assert record.grid == wf.grid and record.params == wf.params
        assert record.snapshots is record.snapshots
        assert len(record.snapshots) == len(record) == 4
        rows = oracles.free_rows(wf, record.times) if isinstance(potential, Free) else None
        for i, snap in enumerate(record.snapshots):
            assert np.shares_memory(snap.amplitudes, record.amplitudes[i])
            if rows is not None:  # a free record computes its rows, with the oracle's bits
                assert snap.amplitudes.tobytes() == rows[i].tobytes()
            assert snap.time == record.times[i]
        assert np.array_equal(record.amplitudes[0], wf.amplitudes)
        assert not np.shares_memory(record.amplitudes, wf.amplitudes)

    def test_strang_rows_equal_repeated_steps(self, unit_gaussian):
        record = evolve(unit_gaussian, Harmonic(omega=1.0), 4e-4, 1e-4, snapshot_stride=2)
        state = unit_gaussian
        for i in range(1, 5):
            state = step(state, Harmonic(omega=1.0), 1e-4)
            if i % 2 == 0:
                assert np.array_equal(record.amplitudes[i // 2], state.amplitudes)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_in_place_apply_equals_the_allocating_product_order(self, dims, unit_gaussian):
        wf = unit_gaussian if dims == 1 else _unequal_plane()
        potential = Harmonic(omega=1.0) if dims == 1 else Harmonic(omega=(1.3, 0.6), center=(0.2, -0.4))
        kernel = _SplitStepKernel(wf.grid, wf.params, potential, 1e-3)
        want = np.fft.ifftn(kernel.kinetic * np.fft.fftn(kernel.half_potential * wf.amplitudes))
        want = kernel.half_potential * want
        out = np.empty_like(wf.amplitudes)
        assert kernel.apply(wf.amplitudes, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(kernel.apply(wf.amplitudes), want)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_step_equals_np_fft_per_axis(self, fft_path, dims, unit_gaussian):
        wf = unit_gaussian if dims == 1 else _unequal_plane()
        potential = Harmonic(omega=1.0) if dims == 1 else Harmonic(omega=(1.3, 0.6), center=(0.2, -0.4))
        kernel = _SplitStepKernel(wf.grid, wf.params, potential, 1e-4)
        want = kernel.half_potential * wf.amplitudes
        for axis in reversed(range(dims)):
            want = np.fft.fft(want, axis=axis)
        want = kernel.kinetic * want
        for axis in reversed(range(dims)):
            want = np.fft.ifft(want, axis=axis)
        want = kernel.half_potential * want
        got = step(wf, potential, 1e-4).amplitudes
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("points", [(256,), (64, 32)])
    def test_per_axis_transforms_equal_fftn(self, points):
        dims = len(points)
        grid = make_grid(dims, -6.0, 6.0, points)
        potential = Harmonic(omega=(1.3, 0.6)[:dims], center=(0.2, -0.4)[:dims])
        kernel = _SplitStepKernel(grid, PhysicalParams(1.0, 2.0), potential, 1e-2)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        before = amps.copy()
        want = kernel.half_potential * np.fft.ifftn(kernel.kinetic * np.fft.fftn(kernel.half_potential * amps))
        out = np.empty_like(amps)
        assert kernel.apply(amps, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(kernel.apply(amps), want)
        assert np.array_equal(amps, before)

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_in_place_strang_loop_equals_repeated_steps(self, dims, stride, unit_gaussian):
        # the loop swaps two buffers; both parities of the swap are kept rows
        wf = unit_gaussian if dims == 1 else _unequal_plane()
        potential = Harmonic(omega=1.0) if dims == 1 else Harmonic(omega=(1.3, 0.6), center=(0.2, -0.4))
        before = wf.amplitudes.copy()
        record = quiet_evolve(wf, potential, 6 * 1e-3, 1e-3, snapshot_stride=stride)
        assert np.array_equal(wf.amplitudes, before)
        state = wf
        for i in range(1, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AccuracyWarning)
                state = step(state, potential, 1e-3)
            if i % stride == 0:
                assert np.array_equal(record.amplitudes[i // stride], state.amplitudes)


class TestWholeSteps:
    """The one rule for "span is a whole number n >= 1 of steps of dt"."""

    def test_exact_multiple(self):
        assert _whole_steps(2.0, 0.25) == 8
        assert _whole_steps(0.3, 0.1) == 3  # 3 * 0.1 is not 0.3 in floats
        assert _whole_steps(0.5, 0.5) == 1

    def test_rounding_level_offset_is_accepted(self):
        assert _whole_steps(2.0 * (1.0 + 1e-12), 0.25) == 8
        assert _whole_steps(2.0 * (1.0 - 1e-12), 0.25) == 8

    @pytest.mark.parametrize(
        "span, dt",
        [
            (2.0 * (1.0 + 1e-6), 0.25),  # visibly off the lattice
            (1.0, 0.3),
            (0.1, 0.25),  # shorter than a step: no steps
            (0.2, 0.25),
            (1e300, 1e-300),  # the ratio overflows
        ],
    )
    def test_no_whole_steps(self, span, dt):
        assert _whole_steps(span, dt, required=False) == 0
        with pytest.raises(ValueError, match=r"^t_final=\S+ is not an integer number of steps of dt="):
            _whole_steps(span, dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_names_a_bad_span_or_step(self, bad):
        with pytest.raises(ValueError, match="record span must be positive and finite"):
            _whole_steps(bad, 0.1, "record span")
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            _whole_steps(1.0, bad)
