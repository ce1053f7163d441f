import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from bohmsim import (
    AccuracyWarning,
    EnsembleSpec,
    Free,
    PhysicalParams,
    Wavefunction,
    compute_qfields,
    equivariance_distance,
    evolve,
    evolve_ensemble,
    init_gaussian,
    integrate_guidance_batch,
    make_grid,
    mean_quantum_force,
    normalize,
    sample_equilibrium,
)

SAMPLE_COUNT = 100_000


def evolve_quiet(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        return evolve(*args, **kwargs)


@pytest.fixture(scope="module")
def gaussian_wf():
    grid = make_grid(1, -10.0, 10.0, 256)
    return init_gaussian(grid, PhysicalParams(), 0.0, 1.0)


@pytest.fixture(scope="module")
def big_sample(gaussian_wf):
    return sample_equilibrium(EnsembleSpec(SAMPLE_COUNT, 11, gaussian_wf))


class TestEnsembleSpec:
    def test_rejects_small_count(self, gaussian_wf):
        with pytest.raises(ValueError, match="at least 100"):
            EnsembleSpec(99, 0, gaussian_wf)

    def test_rejects_negative_seed(self, gaussian_wf):
        with pytest.raises(ValueError, match="non-negative"):
            EnsembleSpec(1000, -1, gaussian_wf)


class TestSampleEquilibrium:
    def test_shape(self, big_sample):
        assert big_sample.shape == (SAMPLE_COUNT, 1)

    def test_mean_within_standard_error(self, big_sample):
        assert abs(big_sample[:, 0].mean()) < 4.0 / np.sqrt(SAMPLE_COUNT)

    def test_variance_matches_packet_width(self, big_sample):
        assert 0.99 < big_sample[:, 0].var() < 1.01

    def test_kolmogorov_distance_to_model(self, gaussian_wf, big_sample):
        # 95% critical value of the one-sample KS statistic, with slack
        bound = 1.5 * 1.63 / np.sqrt(SAMPLE_COUNT)
        assert equivariance_distance(big_sample, gaussian_wf) < bound

    def test_uniform_positions_are_rejected_by_ks(self, gaussian_wf):
        rng = np.random.default_rng(5)
        uniform = rng.uniform(-10.0, 10.0, size=(SAMPLE_COUNT, 1))
        assert equivariance_distance(uniform, gaussian_wf) > 0.1

    def test_same_seed_is_bit_identical(self, gaussian_wf):
        a = sample_equilibrium(EnsembleSpec(1000, 7, gaussian_wf))
        b = sample_equilibrium(EnsembleSpec(1000, 7, gaussian_wf))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, gaussian_wf):
        a = sample_equilibrium(EnsembleSpec(1000, 7, gaussian_wf))
        b = sample_equilibrium(EnsembleSpec(1000, 8, gaussian_wf))
        assert not np.array_equal(a, b)

    def test_two_dimensional_sampling(self):
        grid = make_grid(2, -8.0, 8.0, 96)
        wf = init_gaussian(grid, PhysicalParams(), [1.0, -0.5], 1.0)
        x = sample_equilibrium(EnsembleSpec(20_000, 3, wf))
        assert x.shape == (20_000, 2)
        assert np.abs(x.mean(axis=0) - [1.0, -0.5]).max() < 4.0 / np.sqrt(20_000)


class TestMeanQuantumForce:
    def test_gaussian_mean_within_standard_error(self, gaussian_wf):
        qf = compute_qfields(gaussian_wf)
        x = sample_equilibrium(EnsembleSpec(10_000, 2, gaussian_wf))
        # F_Q is linear in x here, so its ensemble spread is known in
        # closed form: std = sigma / (4 sigma^4)
        sigma_f = oracles.gaussian_quantum_force(1.0, 1.0)
        mean = mean_quantum_force(x, qf)
        assert abs(mean[0]) < 4.0 * sigma_f / np.sqrt(10_000)

    def test_positions_near_node_are_rejected(self, line_grid, unit_params):
        x = line_grid.axes()[0]
        psi = np.exp(-((x - 2.0) ** 2) / 4.0) - np.exp(-((x + 2.0) ** 2) / 4.0)
        wf = normalize(Wavefunction(line_grid, unit_params, psi.astype(complex), 0.0))
        qf = compute_qfields(wf)
        with pytest.raises(ValueError, match="node region"):
            mean_quantum_force(np.array([[2.0], [0.01]]), qf)

    def test_off_grid_positions_are_rejected(self, gaussian_wf):
        # wrapped, [[0.3], [20.3]] would return the mean of [[0.3], [0.3]]
        qf = compute_qfields(gaussian_wf)
        with pytest.raises(ValueError, match="off the grid") as err:
            mean_quantum_force(np.array([[0.3], [20.3], [np.nan], [-0.4]]), qf)
        assert "[[20.3], [nan]]" in str(err.value)  # the off-grid points only

    def test_off_grid_positions_are_rejected_in_2d(self):
        grid = make_grid(2, -8.0, 8.0, 64)
        qf = compute_qfields(init_gaussian(grid, PhysicalParams(), 0.0, 1.0))
        inside = np.array([[0.3, -0.2], [-0.5, 0.4]])
        assert mean_quantum_force(inside, qf).shape == (2,)
        with pytest.raises(ValueError, match="off the grid") as err:
            mean_quantum_force(np.array([[0.3, -0.2], [0.1, -9.0], [np.nan, 0.0]]), qf)
        assert "[[0.1, -9.0], [nan, 0.0]]" in str(err.value)

    def test_mean_shrinks_with_ensemble_size(self, gaussian_wf):
        # |mean F_Q| should fall roughly like 1/sqrt(M); compare the
        # medians over seeds at M = 100 and M = 10000
        qf = compute_qfields(gaussian_wf)
        small, large = [], []
        for seed in range(20):
            xs = sample_equilibrium(EnsembleSpec(100, seed, gaussian_wf))
            xl = sample_equilibrium(EnsembleSpec(10_000, seed, gaussian_wf))
            small.append(abs(mean_quantum_force(xs, qf)[0]))
            large.append(abs(mean_quantum_force(xl, qf)[0]))
        ratio = np.median(small) / np.median(large)
        assert 5.0 <= ratio <= 20.0


@pytest.fixture(scope="module")
def spreading_record():
    grid = make_grid(1, -15.0, 15.0, 384)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
    return evolve_quiet(wf, Free(), 1.0, 1e-3, snapshot_stride=50)


@pytest.fixture(scope="module")
def transported(spreading_record):
    spec = EnsembleSpec(2000, 3, spreading_record.snapshots[0])
    return evolve_ensemble(spec, spreading_record, 0.1)


class TestEvolveEnsemble:
    def test_reports_common_times_only(self, transported):
        assert np.allclose(transported.times, np.arange(11) * 0.1)
        assert transported.positions.shape == (11, 2000, 1)

    def test_equivariance_is_preserved(self, spreading_record, transported):
        distances = []
        for i, t in enumerate(transported.times):
            snap_index = int(round(t / spreading_record.snapshot_spacing))
            snap = spreading_record.snapshots[snap_index]
            distances.append(equivariance_distance(transported.positions[i], snap))
        assert max(distances) <= 2.0 * distances[0]

    def test_mean_force_stays_small(self, transported):
        assert np.abs(transported.mean_force).max() < 4.0 * 0.25 / np.sqrt(2000)

    def test_mean_position_tracks_packet_center(self, transported):
        assert np.abs(transported.mean_position).max() < 4.0 * 1.5 / np.sqrt(2000)


@pytest.fixture(scope="module")
def coarse_record():
    # snapshot spacing 0.1: at dt = 0.0125 seven of every eight steps are not reported
    grid = make_grid(1, -15.0, 15.0, 384)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
    return evolve_quiet(wf, Free(), 1.0, 1e-3, snapshot_stride=100)


class TestReportedRows:
    def test_positions_are_the_batch_rows_bit_for_bit(self, coarse_record):
        spec = EnsembleSpec(500, 7, coarse_record.snapshots[0])
        cloud = evolve_ensemble(spec, coarse_record, 0.0125)
        times, positions = integrate_guidance_batch(coarse_record, sample_equilibrium(spec), 0.0125)
        assert len(times) == 81 and cloud.positions.shape == (11, 500, 1)
        assert cloud.positions.tobytes() == positions[::8].tobytes()
        assert cloud.times.tobytes() == times[::8].tobytes()

    def test_peak_memory_follows_the_reported_rows(self, coarse_record):
        # keeping all 81 steps would take 7.4 times the 11 reported rows' bytes on their own
        evolve_ensemble(EnsembleSpec(100, 5, coarse_record.snapshots[0]), coarse_record, 0.0125)
        spec = EnsembleSpec(4000, 5, coarse_record.snapshots[0])
        tracemalloc.start()
        try:
            cloud = evolve_ensemble(spec, coarse_record, 0.0125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * cloud.positions.nbytes
