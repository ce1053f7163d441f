import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bohmsim import (
    FactorizedNBody,
    Free,
    Linear,
    PairwiseHarmonic,
    PhysicalParams,
    SymmetrizedTwoBody,
    build_symmetrized,
    evolve,
    init_gaussian,
    make_grid,
    no_tunneling_check,
    normalize,
    run_bec_experiment,
    run_cm_experiment,
)
from bohmsim import cli, manybody, propagator
from bohmsim.trajectories import TrajectoryAbort
from bohmsim.wavefield import Wavefunction


def packet_pair(grid, params, separation, sigma):
    half = 0.5 * separation
    return (
        init_gaussian(grid, params, -half, sigma),
        init_gaussian(grid, params, +half, sigma),
    )


class TestBuildSymmetrized:
    def test_ten_sigma_overlap_matches_analytic(self, line_grid, unit_params):
        psi_a, psi_b = packet_pair(line_grid, unit_params, 10.0, 1.0)
        sym = build_symmetrized(psi_a, psi_b)
        assert sym.term_overlap < 1e-10
        assert sym.term_overlap == pytest.approx(
            oracles.gaussian_term_overlap(10.0, 1.0), rel=1e-6
        )
        assert sym.separation == pytest.approx(10.0, abs=1e-5)
        assert sym.wavefunction.grid.dims == 2

    def test_close_packets_rejected(self, line_grid, unit_params):
        psi_a, psi_b = packet_pair(line_grid, unit_params, 2.0, 1.0)
        with pytest.raises(ValueError, match="locality assumption violated"):
            build_symmetrized(psi_a, psi_b)

    def test_marginal_separation_returns_its_overlap(self, line_grid, unit_params):
        # 8.4 sigma passes the separation gate while the terms overlap by more than
        # no-tunneling's 1e-8 bound: the overlap is returned for that check to gate
        psi_a, psi_b = packet_pair(line_grid, unit_params, 8.4, 1.0)
        sym = build_symmetrized(psi_a, psi_b)
        assert sym.term_overlap >= 1e-8
        assert sym.term_overlap == pytest.approx(oracles.gaussian_term_overlap(8.4, 1.0), rel=1e-6)

    def test_amplitudes_are_the_normalized_symmetric_sum(self, line_grid, unit_params):
        psi_a, psi_b = packet_pair(line_grid, unit_params, 10.0, 1.0)
        sym = build_symmetrized(psi_a, psi_b)
        a, b = psi_a.amplitudes, psi_b.amplitudes
        grid2 = make_grid(2, -10.0, 10.0, 256)
        want = normalize(Wavefunction(grid2, unit_params, (np.outer(a, b) + np.outer(b, a)) / np.sqrt(2.0), 0.0))
        assert sym.wavefunction.grid == grid2
        assert sym.wavefunction.params == unit_params
        # equal up to rounding: 2^-1/2 multiplies each term before the sum here, after it in the oracle
        assert np.allclose(sym.wavefunction.amplitudes, want.amplitudes, rtol=1e-15, atol=0.0)

    def test_mismatched_grids_rejected(self, unit_params):
        a = init_gaussian(make_grid(1, -10.0, 10.0, 256), unit_params, -5.0, 1.0)
        b = init_gaussian(make_grid(1, -10.0, 10.0, 128), unit_params, 5.0, 1.0)
        with pytest.raises(ValueError, match="same 1D grid"):
            build_symmetrized(a, b)

    def test_mismatched_params_rejected(self, line_grid, unit_params):
        a = init_gaussian(line_grid, unit_params, -5.0, 1.0)
        b = init_gaussian(line_grid, PhysicalParams(mass=2.0), 5.0, 1.0)
        with pytest.raises(ValueError, match="physical parameters"):
            build_symmetrized(a, b)

    def test_sector_labels(self, line_grid, unit_params):
        psi_a, psi_b = packet_pair(line_grid, unit_params, 10.0, 1.0)
        sym = build_symmetrized(psi_a, psi_b)
        labels = sym.sector_of([[-5.0, 5.0], [5.0, -5.0], [0.0, 0.0], [-5.0, -5.0]])
        assert labels.tolist() == [1, 2, 0, 0]
        assert sym.midpoint == pytest.approx(0.0, abs=1e-5)


@pytest.fixture(scope="module")
def separated_sym():
    grid = make_grid(1, -8.0, 8.0, 128)
    params = PhysicalParams()
    psi_a = init_gaussian(grid, params, -2.5, 0.5)
    psi_b = init_gaussian(grid, params, +2.5, 0.5)
    return build_symmetrized(psi_a, psi_b)


class TestNoTunneling:
    def test_full_residency_in_both_sectors(self, separated_sym):
        starts = [[-2.5, 2.5], [2.5, -2.5]]
        report = no_tunneling_check(separated_sym, starts, t_final=1.0, dt=0.01)
        assert report.initial_sector.tolist() == [1, 2]
        assert report.residency.tolist() == [1.0, 1.0]
        assert (report.sectors == report.initial_sector[None, :]).all()

    def test_start_outside_sectors_rejected(self, separated_sym):
        with pytest.raises(ValueError, match="inside a sector"):
            no_tunneling_check(separated_sym, [0.0, 0.0], t_final=0.5)

    def test_overlapping_packets_negative_control(self, unit_params):
        # the construction gate refuses 3 sigma separations, so build the
        # state by hand; residency may legitimately drop below 1 and is
        # reported, not asserted
        grid = make_grid(1, -8.0, 8.0, 128)
        psi_a = init_gaussian(grid, unit_params, -0.75, 0.5)
        psi_b = init_gaussian(grid, unit_params, +0.75, 0.5)
        grid2 = make_grid(2, -8.0, 8.0, 128)
        amps = np.outer(psi_a.amplitudes, psi_b.amplitudes)
        amps = amps + np.outer(psi_b.amplitudes, psi_a.amplitudes)
        wf2 = normalize(Wavefunction(grid2, unit_params, amps, 0.0))
        sym = SymmetrizedTwoBody(
            wavefunction=wf2,
            centers=(-0.75, 0.75),
            separation=1.5,
            term_overlap=oracles.gaussian_term_overlap(1.5, 0.5),
        )
        report = no_tunneling_check(sym, [-0.75, 0.75], t_final=0.5, dt=0.01)
        assert report.residency.shape == (1,)
        assert 0.0 <= report.residency[0] <= 1.0


class TestNoTunnelingMemory:
    def test_the_free_record_is_never_held_as_a_block(self):
        # no_tunneling.cfg's grid, sigma and separation over half its t_final: 101 snapshots of 128 x 128
        config = cli.parse_config_file(str(Path(__file__).resolve().parent.parent / "configs" / "no_tunneling.cfg"))
        g, p, r = config.grid, config.physics, config.run
        grid = make_grid(1, g.x_min, g.x_max, g.points)
        sym = build_symmetrized(*packet_pair(grid, PhysicalParams(p.hbar, p.mass), p.separation, p.sigma))
        t_final, half = 0.5 * r.t_final, 0.5 * p.separation
        points = g.points**2
        tracemalloc.start()
        try:
            report = no_tunneling_check(sym, [[-half, half], [half, -half]], t_final, dt=r.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.residency.tolist() == [1.0, 1.0] and len(report.times) == 51
        record = evolve(sym.wavefunction, Free(), t_final, 0.5 * r.dt)
        assert len(record) == 101
        assert peak < 0.25 * len(record) * points * 16  # a quarter of the block of every snapshot
        held = [value for value in vars(record).values() if isinstance(value, np.ndarray)]
        assert held and max(a.size for a in held) < len(record) * points
        assert record._window[2] is None  # the window, a tuple the scan above skips, holds no rows


class TestFactorizedNBodySpec:
    def test_needs_at_least_ten_subsystems(self):
        with pytest.raises(ValueError, match="at least 10"):
            FactorizedNBody.homogeneous(5)

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="share length"):
            FactorizedNBody(
                sigma=1.0,
                frame_positions=np.arange(10) * 10.0,
                frame_velocities=np.zeros(9),
            )

    def test_crowded_frames_rejected(self):
        with pytest.raises(ValueError, match="locality assumption violated"):
            FactorizedNBody(
                sigma=1.0,
                frame_positions=np.arange(10) * 5.0,
                frame_velocities=np.zeros(10),
            )

    def test_coupling_must_be_pairwise_harmonic(self):
        with pytest.raises(TypeError, match="PairwiseHarmonic"):
            FactorizedNBody(
                sigma=1.0,
                frame_positions=np.arange(10) * 10.0,
                frame_velocities=np.zeros(10),
                coupling=0.5,
            )

    def test_homogeneous_coerces_bare_coupling_constant(self):
        spec = FactorizedNBody.homogeneous(10, coupling=0.5)
        assert isinstance(spec.coupling, PairwiseHarmonic)
        assert spec.coupling.coupling == 0.5
        assert spec.coupling.rest_length == 10.0

    def test_homogeneous_lattice(self):
        spec = FactorizedNBody.homogeneous(10, sigma=1.0)
        assert spec.n_subsystems == 10
        assert spec.total_mass == 10.0
        assert spec.frame_positions.mean() == pytest.approx(0.0)
        assert np.diff(spec.frame_positions) == pytest.approx(10.0)


@pytest.fixture(scope="module")
def driven_cm_result():
    spec = FactorizedNBody.homogeneous(1000, external=Linear(force=0.5))
    return run_cm_experiment(spec, 2.0, 0.01, seed=0)


def force_bad_offsets(monkeypatch, count, read=2):
    """Make quantum-force read number ``read`` abort as if its first ``count`` offsets were in a node region.

    The only reads that can redraw are the quantum-force reads of the rows:
    read k is the force read of row k - 1 until a redraw, whose re-read is
    the next read.  Returns the list of (read index, offsets) of every such read,
    before any redraw.
    """
    real_eval_fields = manybody._eval_fields
    calls = []

    def bad_read(cache, j, x):
        values = real_eval_fields(cache, j, x)
        if cache.kind == "qforce":
            calls.append((j, x.copy()))
            if len(calls) == read:
                t = cache.t0 + j * cache.interval
                raise TrajectoryAbort(f"trajectory entered a node region at t={t:.6g}", t, x, np.arange(count), False)
        return values

    monkeypatch.setattr(manybody, "_eval_fields", bad_read)
    return calls


class TestChainForces:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(10, 300),
        spacing=st.floats(0.1, 50.0),
        coupling=st.floats(1e-3, 1e3),
        rest_length=st.floats(-50.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_written_out_spring_law_bit_for_bit(self, n, spacing, coupling, rest_length, seed):
        x = np.arange(n) * spacing + np.random.default_rng(seed).normal(scale=0.25 * spacing, size=n)
        spring = PairwiseHarmonic(coupling=coupling, rest_length=rest_length)
        assert manybody._chain_forces(spring, x).tobytes() == oracles.chain_forces(spring, x).tobytes()


class TestRunCmExperiment:
    def test_cm_obeys_newton_under_external_force(self, driven_cm_result):
        assert abs(driven_cm_result.fit_acceleration() - 0.5) < 0.03

    def test_quantum_force_is_marginal(self, driven_cm_result):
        assert driven_cm_result.contrast_ratio < 0.05

    def test_per_particle_force_is_raw_sum_over_n(self, driven_cm_result):
        assert np.array_equal(
            driven_cm_result.quantum_force_per_particle,
            driven_cm_result.quantum_force / 1000,
        )

    def test_localized_packets_never_need_resampling(self, driven_cm_result):
        assert driven_cm_result.resample_count == 0

    def test_forced_resample_reads_only_the_amplitude_row(self, monkeypatch):
        # redrawing an offset reads one density row, not every snapshot view of the record
        records = []
        real_evolve = manybody.evolve

        def recording_evolve(*args, **kwargs):
            records.append(real_evolve(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(manybody, "evolve", recording_evolve)
        force_bad_offsets(monkeypatch, 1)
        # one forced redraw is within the limit, which is never below one redraw
        res = run_cm_experiment(FactorizedNBody.homogeneous(10), 0.1, 0.01, seed=0)
        assert res.resample_count == 1
        assert records
        assert all("snapshots" not in record.__dict__ for record in records)

    def test_both_caches_share_each_computed_row(self, monkeypatch):
        # 0.5 time units at dt = 0.01: 101 snapshots of 256 points, read by the velocity cache (every
        # snapshot, batches of 32) and the force cache (every second one, batches of 32)
        computed = []
        fft = propagator._fft

        def counting(values, axis, out=None, inverse=False):
            computed.extend([len(values)] if inverse else [])  # a 1D row's one inverse transform
            return fft(values, axis, out, inverse)

        monkeypatch.setattr(propagator, "_fft", counting)
        run_cm_experiment(FactorizedNBody.homogeneous(10), 0.5, 0.01, seed=0)
        assert sum(computed) == 100  # every row but row 0, psi0's own bits

    def test_one_redraw_over_the_limit_aborts(self, monkeypatch):
        # 10 subsystems over 10 steps: the in-run limit is its floor of one redraw
        force_bad_offsets(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="too many offsets entered node regions"):
            run_cm_experiment(FactorizedNBody.homogeneous(10), 0.1, 0.01, seed=0)

    def test_redraw_at_the_force_read_starts_the_step(self, monkeypatch):
        # a redraw at row 1's force read moves the offsets that step 1's velocity read and RK4 start from
        eval_reads, starts = [], []
        real_eval_fields, real_rk4_step = manybody._eval_fields, manybody._rk4_step

        def recording_eval_fields(cache, j, x):
            eval_reads.append((cache.kind, j, x.copy()))
            return real_eval_fields(cache, j, x)

        def recording_rk4_step(cache, j, x, dt, k1):
            starts.append((j, x.copy()))
            return real_rk4_step(cache, j, x, dt, k1)

        monkeypatch.setattr(manybody, "_eval_fields", recording_eval_fields)
        monkeypatch.setattr(manybody, "_rk4_step", recording_rk4_step)
        reads = force_bad_offsets(monkeypatch, 1, read=2)
        res = run_cm_experiment(FactorizedNBody.homogeneous(10), 0.1, 0.01, seed=0)
        assert res.resample_count == 1
        j, found = reads[1]
        # one force read per row and one velocity read per step, and one force re-read after the redraw
        kinds = [kind for kind, _, _ in eval_reads]
        assert kinds == ["qforce", "velocity", "qforce", "qforce"] + ["velocity", "qforce"] * 9
        (_, _, force_x), (_, j_vel, vel_x) = eval_reads[3:5]
        assert j_vel == 2 * j == 2  # row 1: force read 1, velocity read 2, both at t = 0.01
        assert vel_x[0, 0] != found[0, 0]
        assert np.array_equal(vel_x[1:], found[1:])
        assert np.array_equal(force_x, vel_x)
        assert starts[1][0] == j_vel and np.array_equal(starts[1][1], vel_x)

    def test_an_offset_off_the_grid_at_a_row_read_aborts_without_a_redraw(self, monkeypatch):
        # row 1's force read sees offset 3 beyond the packet's grid [-10, 10): the abort propagates
        force_reads, draws = [], []
        real_eval_fields, real_sample = manybody._eval_fields, manybody._sample_from_snapshot

        def doctored(cache, j, x):
            if cache.kind == "qforce":
                force_reads.append(j)
                if len(force_reads) == 2:
                    x = x.copy()
                    x[3, 0] = 25.0
            return real_eval_fields(cache, j, x)

        def counting(*args):
            draws.append(args)
            return real_sample(*args)

        monkeypatch.setattr(manybody, "_eval_fields", doctored)
        monkeypatch.setattr(manybody, "_sample_from_snapshot", counting)
        message = r"^1 trajectory position\(s\) left the grid at t=0\.01$"
        with pytest.raises(TrajectoryAbort, match=message) as exc_info:
            run_cm_experiment(FactorizedNBody.homogeneous(10), 0.1, 0.01, seed=0)
        abort = exc_info.value
        assert abort.left_grid and abort.indices.tolist() == [3]
        assert abort.time == 0.01 and abort.positions[3, 0] == 25.0
        assert force_reads == [0, 1]  # rows 0 and 1, and no re-read
        assert len(draws) == 1  # the initial draw, and no redraw

    def test_velocity_and_force_reads_share_the_node_mask(self, monkeypatch):
        # why the row's force read is the only redraw site: at every row time the step's velocity
        # read sees the same eroded node mask, so offsets valid for the force are valid for it
        caches = []
        real_caches = manybody._shared_caches

        def recording_caches(*args):
            caches.extend(real_caches(*args))
            return caches[-2:]

        monkeypatch.setattr(manybody, "_shared_caches", recording_caches)
        masked = 0
        for sigma, hbar, mass in [(1.0, 1.0, 1.0), (0.3, 1.0, 1.0), (2.0, 1.0, 0.5), (0.5, 2.0, 1.0)]:
            spec = FactorizedNBody.homogeneous(10, sigma=sigma, mass=mass, hbar=hbar)
            res = run_cm_experiment(spec, 2.0, 0.01, seed=0)
            velocity, force = caches[-2:]
            assert (velocity.kind, force.kind) == ("velocity", "qforce")
            for row in range(len(res.times)):
                mask = velocity.at(2 * row)[1]
                assert np.array_equal(mask, force.at(row)[1]), (sigma, hbar, mass, row)
                masked += int((~mask).sum())
        assert masked > 0  # the masks have node regions to disagree on

    @pytest.mark.parametrize("mass, expected", [(2.0, 0.25), (0.5, 1.0)])
    def test_cm_acceleration_is_force_over_mass(self, mass, expected):
        # the frame kicks divide by the mass and x_cm is mass-weighted
        spec = FactorizedNBody.homogeneous(1000, mass=mass, external=Linear(force=0.5))
        res = run_cm_experiment(spec, 2.0, 0.01, seed=0)
        assert res.total_mass == 1000 * mass
        assert res.fit_acceleration() == pytest.approx(expected, rel=0.05)

    def test_spring_forces_cancel_exactly(self):
        spec = FactorizedNBody.homogeneous(100, external=Linear(force=0.5), coupling=0.5)
        res = run_cm_experiment(spec, 2.0, 0.01, seed=0)
        assert not res.cancellation_residual.any()
        assert abs(res.fit_acceleration() - 0.5) < 0.05

    def test_stratified_sum_stays_under_single_packet_scale(self):
        spec = FactorizedNBody.homogeneous(10_000)
        res = run_cm_experiment(spec, 1.0, 0.01, sampling="stratified")
        assert np.abs(res.quantum_force).max() <= res.f_q_max
        assert not res.classical_force.any()

    def test_median_cm_force_shrinks_with_n(self):
        medians = []
        for n in (10, 100, 1000):
            spec = FactorizedNBody.homogeneous(n, external=Linear(force=0.5))
            per_seed = [
                np.median(
                    np.abs(
                        run_cm_experiment(spec, 1.0, 0.01, seed=seed).quantum_force_per_particle
                    )
                )
                for seed in (0, 1, 2)
            ]
            medians.append(np.median(per_seed))
        assert medians[0] > medians[1] > medians[2]

    def test_unknown_sampling_mode_rejected(self):
        spec = FactorizedNBody.homogeneous(10)
        with pytest.raises(ValueError, match="sampling"):
            run_cm_experiment(spec, 1.0, 0.01, sampling="sobol")

    def test_non_integer_step_count_rejected(self):
        spec = FactorizedNBody.homogeneous(10)
        with pytest.raises(ValueError, match="integer number of steps"):
            run_cm_experiment(spec, 1.0, 0.3)

    @pytest.mark.parametrize("seed", [3.7, 0.5, float("nan"), float("inf")])
    def test_a_fractional_or_non_finite_seed_is_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be one whole number"):
            run_cm_experiment(FactorizedNBody.homogeneous(10), 0.1, 0.01, seed=seed)

    @pytest.mark.parametrize("seed", [3.0, np.uint64(3)])
    def test_a_whole_seed_runs_as_that_int(self, seed):
        spec = FactorizedNBody.homogeneous(10)
        want = run_cm_experiment(spec, 0.1, 0.01, seed=3).x_cm
        assert run_cm_experiment(spec, 0.1, 0.01, seed=seed).x_cm.tobytes() == want.tobytes()


class TestSampleFromSnapshot:
    def test_samples_are_redrawn_off_the_node_region(self):
        grid = make_grid(1, -10.0, 10.0, 256)
        rho = np.abs(init_gaussian(grid, PhysicalParams(), 0.0, 1.0).amplitudes) ** 2
        eroded = grid.axes()[0] > 0.0
        x, redraws = manybody._sample_from_snapshot(rho, grid, eroded, 50, manybody._Philox(0))
        assert redraws > 0 and x.shape == (50, 1)
        assert manybody._interp.Stencil(grid, x).valid(eroded).all()

    def test_samples_still_on_a_node_after_100_rounds_raise(self):
        grid = make_grid(1, -10.0, 10.0, 256)
        rho = np.abs(init_gaussian(grid, PhysicalParams(), 0.0, 1.0).amplitudes) ** 2
        message = r"^7 of 7 samples still touch a node region after 100 rounds of redraws$"
        with pytest.raises(RuntimeError, match=message):
            manybody._sample_from_snapshot(rho, grid, np.zeros(256, dtype=bool), 7, manybody._Philox(0))


@pytest.fixture(scope="module")
def bec_result():
    return run_bec_experiment(1.0, 1000, 20.0, 2.0, dt=0.01, seed=0)


class TestRunBecExperiment:
    def test_cm_moves_on_a_straight_line(self, bec_result):
        drift = bec_result.x_cm - bec_result.x_cm[0] - 1.0 * bec_result.times
        assert np.abs(drift).max() < 1e-8
        assert abs(bec_result.fit_velocity() - 1.0) < 1e-9

    def test_every_subsystem_shares_the_phase_velocity(self, bec_result):
        assert bec_result.velocity_spread < 1e-6

    def test_quantum_force_does_not_average_away(self, bec_result):
        assert bec_result.contrast_ratio == pytest.approx(1.0)
        assert not bec_result.classical_force.any()

    def test_zero_velocity_cloud_stays_put(self):
        res = run_bec_experiment(0.0, 200, 20.0, 1.0, dt=0.01, seed=1)
        assert np.abs(res.x_cm - res.x_cm[0]).max() < 1e-8

    def test_determinism_per_seed(self):
        a = run_bec_experiment(1.0, 200, 20.0, 1.0, seed=5)
        b = run_bec_experiment(1.0, 200, 20.0, 1.0, seed=5)
        c = run_bec_experiment(1.0, 200, 20.0, 1.0, seed=6)
        assert np.array_equal(a.x_cm, b.x_cm)
        assert not np.array_equal(a.x_cm, c.x_cm)

    def test_needs_at_least_ten_subsystems(self):
        with pytest.raises(ValueError, match="at least 10"):
            run_bec_experiment(1.0, 5, 20.0, 1.0)


BAD_TIMES = [np.nan, np.inf, 0.0, -0.5]


class TestBadTimeSteps:
    """Both many-body drivers name a bad t_final or dt instead of failing in arithmetic."""

    @pytest.mark.parametrize("bad", BAD_TIMES)
    @pytest.mark.parametrize("name", ["t_final", "dt"])
    def test_cm_experiment(self, name, bad):
        times = {"t_final": 1.0, "dt": 0.01, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            run_cm_experiment(FactorizedNBody.homogeneous(10), times["t_final"], times["dt"])

    @pytest.mark.parametrize("bad", BAD_TIMES)
    @pytest.mark.parametrize("name", ["t_final", "dt"])
    def test_bec_experiment(self, name, bad):
        times = {"t_final": 1.0, "dt": 0.01, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            run_bec_experiment(1.0, 10, 20.0, times["t_final"], dt=times["dt"])
