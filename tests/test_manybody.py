import numpy as np
import pytest

import oracles
from bohmsim import (
    FactorizedNBody,
    Free,
    Linear,
    PairwiseHarmonic,
    PhysicalParams,
    SubsystemType,
    SymmetrizedTwoBody,
    build_symmetrized,
    init_gaussian,
    make_grid,
    no_tunneling_check,
    normalize,
    run_bec_experiment,
    run_cm_experiment,
)
from bohmsim import manybody
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

    def test_marginal_separation_rejected_by_overlap(self, line_grid, unit_params):
        # 8.4 sigma passes the separation gate but the terms still overlap
        # by more than the bound; both preconditions bite independently
        psi_a, psi_b = packet_pair(line_grid, unit_params, 8.4, 1.0)
        with pytest.raises(ValueError, match="overlap"):
            build_symmetrized(psi_a, psi_b)

    def test_single_coefficient_gives_product_state(self, line_grid, unit_params):
        psi_a, psi_b = packet_pair(line_grid, unit_params, 10.0, 1.0)
        sym = build_symmetrized(psi_a, psi_b, coefficients=(1.0, 0.0))
        product = np.outer(psi_a.amplitudes, psi_b.amplitudes)
        assert np.abs(sym.wavefunction.amplitudes - product).max() < 1e-12

    def test_mismatched_grids_rejected(self, unit_params):
        a = init_gaussian(make_grid(1, -10.0, 10.0, 256), unit_params, -5.0, 1.0)
        b = init_gaussian(make_grid(1, -10.0, 10.0, 128), unit_params, 5.0, 1.0)
        with pytest.raises(ValueError, match="same 1D grid"):
            build_symmetrized(a, b)

    def test_mismatched_params_rejected(self, line_grid, unit_params):
        a = init_gaussian(line_grid, unit_params, -5.0, 1.0)
        b = init_gaussian(line_grid, PhysicalParams(masses=(2.0,)), 5.0, 1.0)
        with pytest.raises(ValueError, match="physical parameters"):
            build_symmetrized(a, b)

    def test_zero_coefficients_rejected(self, line_grid, unit_params):
        psi_a, psi_b = packet_pair(line_grid, unit_params, 10.0, 1.0)
        with pytest.raises(ValueError, match="nonzero"):
            build_symmetrized(psi_a, psi_b, coefficients=(0.0, 0.0))

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
        wf2 = normalize(
            Wavefunction(grid2, PhysicalParams(masses=(1.0, 1.0)), amps, 0.0)
        )
        sym = SymmetrizedTwoBody(
            psi_a=psi_a,
            psi_b=psi_b,
            coefficients=(2**-0.5, 2**-0.5),
            wavefunction=wf2,
            centers=(-0.75, 0.75),
            widths=(0.5, 0.5),
            separation=1.5,
            term_overlap=oracles.gaussian_term_overlap(1.5, 0.5),
        )
        report = no_tunneling_check(sym, [-0.75, 0.75], t_final=0.5, dt=0.01)
        assert report.residency.shape == (1,)
        assert 0.0 <= report.residency[0] <= 1.0


class TestFactorizedNBodySpec:
    def test_needs_at_least_ten_subsystems(self):
        with pytest.raises(ValueError, match="at least 10"):
            FactorizedNBody.homogeneous(5)

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="share length"):
            FactorizedNBody(
                types=(SubsystemType(sigma=1.0),),
                type_of=np.zeros(10, dtype=int),
                frame_positions=np.arange(10) * 10.0,
                frame_velocities=np.zeros(9),
            )

    def test_type_indices_must_be_valid(self):
        with pytest.raises(ValueError, match="index into types"):
            FactorizedNBody(
                types=(SubsystemType(sigma=1.0),),
                type_of=np.ones(10, dtype=int),
                frame_positions=np.arange(10) * 10.0,
                frame_velocities=np.zeros(10),
            )

    def test_crowded_frames_rejected(self):
        with pytest.raises(ValueError, match="locality assumption violated"):
            FactorizedNBody.homogeneous(10, sigma=1.0, spacing=5.0)

    def test_coupling_must_be_pairwise_harmonic(self):
        with pytest.raises(TypeError, match="PairwiseHarmonic"):
            FactorizedNBody(
                types=(SubsystemType(sigma=1.0),),
                type_of=np.zeros(10, dtype=int),
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


def force_bad_offsets(monkeypatch, count):
    """Mark the first ``count`` offsets of the third field read as in a node region."""
    real_fields_at = manybody._fields_at
    calls = []

    def bad_read(cache, t, x):
        values, ok = real_fields_at(cache, t, x)
        calls.append(t)
        if len(calls) == 3:
            ok = ok.copy()
            ok[:count] = False
        return values, ok

    monkeypatch.setattr(manybody, "_fields_at", bad_read)


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

    def test_one_redraw_over_the_limit_aborts(self, monkeypatch):
        # 10 subsystems over 10 steps: the in-run limit is its floor of one redraw
        force_bad_offsets(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="too many offsets entered node regions"):
            run_cm_experiment(FactorizedNBody.homogeneous(10), 0.1, 0.01, seed=0)

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
