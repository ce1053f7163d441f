import math
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bohmsim import (
    AccuracyWarning,
    EnsembleSpec,
    EvolutionRecord,
    Free,
    PhysicalParams,
    TrajectoryAbort,
    Wavefunction,
    equivariance_distance,
    evolve,
    evolve_ensemble,
    init_gaussian,
    integrate_guidance_batch,
    make_grid,
    normalize,
    sample_equilibrium,
)
from bohmsim import ensemble, quantum_potential, trajectories
from bohmsim.quantum_potential import qforce_batch

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


SPECIAL_VALUES = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 2.0**900, -(2.0**900), math.nextafter(2.0**900, math.inf),
     1.7e308, 5e-324, -5e-324, 2.0**-1022]
)


@st.composite
def summands(draw):
    """A float array of any length up to 20,000: random significands, signs and exponents
    in a drawn range (from subnormals and zeros to near the largest float), optionally
    followed by the exact negation of a prefix, with a few special values placed in it."""
    n = draw(st.integers(0, 20_000) | st.sampled_from([2**k - 2 for k in range(9, 15)]))
    low = draw(st.integers(-1100, 1022))
    high = draw(st.integers(low, 1022))
    sign = draw(st.sampled_from([-1.0, 1.0, 0.0]))  # 0: mixed signs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(low, high + 1, n))
    v *= sign if sign else rng.choice([-1.0, 1.0], n)
    if draw(st.booleans()):
        v[n - n // 3 :] = -v[: n // 3]
    for where, value in draw(st.lists(st.tuples(st.floats(0.0, 1.0), SPECIAL_VALUES | st.floats()), max_size=4)):
        if n:
            v[int(where * (n - 1))] = value
    return v


def outcome(total):
    """The bits of a sum, or the type and message of what it raised."""
    try:
        return struct.pack("<d", total())
    except (ValueError, OverflowError) as error:
        return type(error), str(error)


def payload_free(result):
    """An outcome with any NaN as one: a sum of NaNs carries the first or the second operand's
    payload, so which one depends on the order."""
    if isinstance(result, bytes) and math.isnan(struct.unpack("<d", result)[0]):
        return struct.pack("<d", math.nan)
    return result


class TestExactSum:
    """``ensemble._fsum`` returns the exactly rounded sum in any order, ``math.fsum(values.tolist())``
    bit for bit wherever that returns a value."""

    @settings(max_examples=300, deadline=None)
    @given(values=summands())
    # above 2**900: math.fsum returns -3.0e307 in this order and overflows in the reverse one
    @example(values=np.array([1.7e308, -1e308, -1e308]))
    @example(values=np.array([-1e308, -1e308, 1.7e308]))
    @example(values=np.array([2.0**1000, 5e-324, -(2.0**1000)]))  # the values under 2**-800 still count
    @example(values=np.array([np.inf, 1.0, -np.inf]))  # math.fsum raises ValueError, and so must _fsum
    @example(values=np.frombuffer(bytes.fromhex("000000000000f87f010000000000f87f")))  # two NaN payloads
    # M = 2**k - 2 negative values in (-2, -1]: their level sums fill sigma's headroom, and
    # with a sigma one power of two smaller these two lose bits that show in the sum
    @example(values=-np.random.default_rng(8).uniform(1.0, 2.0, 1022))
    @example(values=-np.random.default_rng(0).uniform(1.0, 2.0, 4094))
    @example(values=np.concatenate([np.random.default_rng(2).uniform(-18.0, 18.0, 10_000), [1e-300, -1e-310]]))
    @example(values=np.array([-0.0] * 600))
    @example(values=np.array([1.0, -1.0] * 300))
    def test_equals_math_fsum_bit_for_bit(self, values):
        got = outcome(lambda: ensemble._fsum(values))
        # no order sets the bits, apart from a NaN's payload
        assert payload_free(outcome(lambda: ensemble._fsum(values[::-1].copy()))) == payload_free(got)
        fsum = outcome(lambda: math.fsum(values.tolist()))
        if isinstance(fsum, bytes):  # math.fsum returned a value: the exact sum, rounded once
            assert got == fsum
        elif np.isfinite(values).all():  # it overflowed on the way: the order-free oracle
            assert got == outcome(lambda: float(sum(map(Fraction, values.tolist()))))
        elif fsum[0] is ValueError:  # -inf + inf, which the non-finite values alone raise too
            assert got == fsum

    def test_column_views_and_the_mean(self):
        rng = np.random.default_rng(3)
        block = rng.normal(size=(5_000, 2)) * 10.0 ** rng.integers(-8, 8, size=(5_000, 2))
        for d in range(2):
            assert ensemble._fsum(block[:, d]) == math.fsum(block[:, d].tolist())
            assert ensemble._fsum_mean(block[:, d]) == math.fsum(block[:, d].tolist()) / 5_000


@st.composite
def call_sizes(draw):
    """Sizes of consecutive ``random`` calls on one stream: a 0 among them, short calls that end
    inside a block and long ones that span many."""
    sizes = draw(st.lists(st.integers(0, 9) | st.integers(10, 600), max_size=6))
    sizes.insert(draw(st.integers(0, len(sizes))), 0)
    return sizes


class TestPhilox:
    """``ensemble._Philox`` continues numpy's ``Generator(Philox(key=seed)).random`` stream bit for bit
    across calls of any size."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), sizes=call_sizes())
    @example(seed=0, sizes=[1, 3, 4, 5, 0, 1000, 7])
    @example(seed=2**64 - 1, sizes=[0, 5, 3])  # the largest low key word, high word 0
    @example(seed=2**64, sizes=[2, 0, 9])  # low word 0, high word 1
    @example(seed=2**128 - 1, sizes=[4, 0, 4])  # both words at their largest
    def test_equals_numpy_philox_byte_for_byte(self, seed, sizes):
        ours, numpys = ensemble._Philox(seed), np.random.Generator(np.random.Philox(key=seed))
        got = np.concatenate([ours.random(size) for size in sizes])
        assert got.tobytes() == np.concatenate([numpys.random(size) for size in sizes]).tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_rejects_a_seed_outside_the_key_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            ensemble._Philox(seed)


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


def still_record(wf, rows=2, spacing=0.1):
    """A record that holds ``wf`` at every one of ``rows`` snapshots, ``spacing`` apart."""
    amplitudes = np.stack([wf.amplitudes] * rows)
    times = spacing * np.arange(rows)
    return EvolutionRecord(times, amplitudes, wf.grid, wf.params, np.zeros(rows - 1))


class TestMeanQuantumForce:
    """Row 0 of ``evolve_ensemble`` reads the force of the sampled state at the sampled positions."""

    def test_gaussian_mean_within_standard_error(self, gaussian_wf):
        mean = evolve_ensemble(EnsembleSpec(10_000, 2, gaussian_wf), still_record(gaussian_wf), 0.1).mean_force[0]
        # F_Q is linear in x here, so its ensemble spread is known in
        # closed form: std = sigma / (4 sigma^4)
        sigma_f = oracles.gaussian_quantum_force(1.0, 1.0)
        assert abs(mean[0]) < 4.0 * sigma_f / np.sqrt(10_000)

    def test_positions_near_node_are_rejected(self, line_grid, unit_params):
        # a doctored record: one step of 0.2 rides at v = 1, 1, 1, -5 and ends where it began;
        # the last snapshot's node region, its packet's far tail, holds every stencil based left
        # of x = 0.078, so it spares k4's reads near x0 + 0.2 but not the final force read at x0
        x = line_grid.axes()[0]

        def packet(center, sigma, wavenumber):
            return np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * wavenumber * x)

        amplitudes = np.stack([packet(0.0, 1.0, 1.0), packet(0.0, 1.0, 1.0), packet(3.68, 0.5, -5.0)])
        record = EvolutionRecord(np.array([0.0, 0.1, 0.2]), amplitudes, line_grid, unit_params, np.zeros(2))
        start = normalize(Wavefunction(line_grid, unit_params, packet(0.0, 0.01, 0.0), 0.0))
        spec = EnsembleSpec(100, 4, start)
        _, positions = integrate_guidance_batch(record, sample_equilibrium(spec), 0.2)
        with pytest.raises(TrajectoryAbort, match="node region") as exc_info:
            evolve_ensemble(spec, record, 0.2)
        assert exc_info.value.time == 0.2
        assert exc_info.value.positions.tobytes() == positions[-1].tobytes()
        assert not exc_info.value.left_grid and exc_info.value.indices.size

    def test_mean_shrinks_with_ensemble_size(self, gaussian_wf):
        # |mean F_Q| should fall roughly like 1/sqrt(M); compare the
        # medians over seeds at M = 100 and M = 10000
        record = still_record(gaussian_wf)
        small, large = [], []
        for seed in range(20):
            small.append(abs(evolve_ensemble(EnsembleSpec(100, seed, gaussian_wf), record, 0.1).mean_force[0, 0]))
            large.append(abs(evolve_ensemble(EnsembleSpec(10_000, seed, gaussian_wf), record, 0.1).mean_force[0, 0]))
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

    def test_each_row_computes_its_own_snapshot_force(self, monkeypatch):
        # equivariance's record: 41 snapshots of 384 points; Q and f_q_max are never built
        grid = make_grid(1, -18.0, 18.0, 384)
        wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0, 1.0)
        record = evolve_quiet(wf, Free(), 2.0, 0.005, snapshot_stride=10)
        stacks = []

        def counting(amplitudes, grid, params):
            stacks.append(amplitudes)
            return qforce_batch(amplitudes, grid, params)

        def refused(wf):
            raise AssertionError("a row built a whole compute_qfields")

        monkeypatch.setattr(trajectories, "qforce_batch", counting)
        monkeypatch.setattr(quantum_potential, "compute_qfields", refused)
        monkeypatch.setattr(ensemble, "compute_qfields", refused, raising=False)
        cloud = evolve_ensemble(EnsembleSpec(100, 1, wf), record, 0.01)
        assert len(record) == len(cloud.times) == 41 and len(stacks) == 41
        want = oracles.free_rows(wf, record.times)  # the rows a free record computes when read
        for snap_index, amplitudes in zip(cloud.snapshot_indices, stacks):
            assert amplitudes.shape == (1, 384) and amplitudes.tobytes() == want[snap_index].tobytes()
        assert "snapshots" not in vars(record)  # no Wavefunction per snapshot
