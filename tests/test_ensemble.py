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


# fractional, NaN and infinite values, which int() would floor or refuse
NOT_WHOLE = [1.5, 3.7, np.float64(1000.5), -0.5, math.nan, math.inf, -math.inf]


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

    @pytest.mark.parametrize("seed", [3.0, np.float64(3.0), np.int64(3), np.uint64(3)])
    def test_a_whole_seed_draws_that_ints_stream(self, seed, gaussian_wf):
        assert ensemble._Philox(seed).random(9).tobytes() == ensemble._Philox(3).random(9).tobytes()
        want = sample_equilibrium(EnsembleSpec(1000, 3, gaussian_wf))
        assert sample_equilibrium(EnsembleSpec(1000, seed, gaussian_wf)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", NOT_WHOLE)
    def test_rejects_a_fractional_or_non_finite_seed(self, seed, gaussian_wf):
        with pytest.raises(ValueError, match="^seed must be one whole number"):
            ensemble._Philox(seed)
        if not seed < 0:  # EnsembleSpec names a negative seed itself
            with pytest.raises(ValueError, match="^seed must be one whole number"):
                sample_equilibrium(EnsembleSpec(1000, seed, gaussian_wf))


class TestEnsembleSpec:
    def test_rejects_small_count(self, gaussian_wf):
        with pytest.raises(ValueError, match="at least 100"):
            EnsembleSpec(99, 0, gaussian_wf)

    def test_rejects_negative_seed(self, gaussian_wf):
        with pytest.raises(ValueError, match="non-negative"):
            EnsembleSpec(1000, -1, gaussian_wf)

    @pytest.mark.parametrize("count", [1000.0, np.float64(1000.0), np.int64(1000), np.uint64(1000)])
    def test_a_whole_count_draws_that_ints_sample(self, count, gaussian_wf):
        want = sample_equilibrium(EnsembleSpec(1000, 7, gaussian_wf))
        assert sample_equilibrium(EnsembleSpec(count, 7, gaussian_wf)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", NOT_WHOLE)
    def test_rejects_a_fractional_or_non_finite_count(self, count, gaussian_wf):
        with pytest.raises(ValueError, match="^count must be one whole number"):
            EnsembleSpec(count, 0, gaussian_wf)


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
        _, _, _, force = next(evolve_ensemble(EnsembleSpec(10_000, 2, gaussian_wf), still_record(gaussian_wf), 0.1))
        # F_Q is linear in x here, so its ensemble spread is known in
        # closed form: std = sigma / (4 sigma^4)
        sigma_f = oracles.gaussian_quantum_force(1.0, 1.0)
        assert abs(ensemble._fsum_mean(force[:, 0])) < 4.0 * sigma_f / np.sqrt(10_000)

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
        rows = evolve_ensemble(spec, record, 0.2)
        next(rows)  # row 0's force read at t = 0 passes
        with pytest.raises(TrajectoryAbort, match="node region") as exc_info:
            next(rows)
        assert exc_info.value.time == 0.2
        assert exc_info.value.positions.tobytes() == positions[-1].tobytes()
        assert not exc_info.value.left_grid and exc_info.value.indices.size

    def test_mean_shrinks_with_ensemble_size(self, gaussian_wf):
        # |mean F_Q| should fall roughly like 1/sqrt(M); compare the
        # medians over seeds at M = 100 and M = 10000
        record = still_record(gaussian_wf)
        small, large = [], []
        for seed in range(20):
            for count, means in ((100, small), (10_000, large)):
                _, _, _, force = next(evolve_ensemble(EnsembleSpec(count, seed, gaussian_wf), record, 0.1))
                means.append(abs(ensemble._fsum_mean(force[:, 0])))
        ratio = np.median(small) / np.median(large)
        assert 5.0 <= ratio <= 20.0


@pytest.fixture(scope="module")
def spreading_record():
    grid = make_grid(1, -15.0, 15.0, 384)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
    return evolve_quiet(wf, Free(), 1.0, 1e-3, snapshot_stride=50)


@pytest.fixture(scope="module")
def transported(spreading_record):
    """Every yielded row ``(t, amplitudes, positions, force)``, kept for the tests to read."""
    spec = EnsembleSpec(2000, 3, spreading_record.snapshots[0])
    return list(evolve_ensemble(spec, spreading_record, 0.1))


class TestEvolveEnsemble:
    def test_reports_common_times_only(self, transported):
        assert np.allclose([t for t, _, _, _ in transported], np.arange(11) * 0.1)
        assert np.stack([x for _, _, x, _ in transported]).shape == (11, 2000, 1)

    def test_equivariance_is_preserved(self, spreading_record, transported):
        distances = []
        for t, amplitudes, x, _ in transported:
            snap_index = int(round(t / spreading_record.snapshot_spacing))
            snap = spreading_record.snapshots[snap_index]
            assert amplitudes.tobytes() == snap.amplitudes.tobytes()  # the row is the snapshot at t
            distances.append(equivariance_distance(x, snap))
        assert max(distances) <= 2.0 * distances[0]

    def test_mean_force_stays_small(self, transported):
        assert max(abs(ensemble._fsum_mean(force[:, 0])) for _, _, _, force in transported) < 4.0 * 0.25 / np.sqrt(2000)

    def test_mean_position_tracks_packet_center(self, transported):
        assert max(abs(ensemble._fsum_mean(x[:, 0])) for _, _, x, _ in transported) < 4.0 * 1.5 / np.sqrt(2000)


@pytest.fixture(scope="module")
def coarse_record():
    # snapshot spacing 0.1: at dt = 0.0125 seven of every eight steps are not reported
    grid = make_grid(1, -15.0, 15.0, 384)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
    return evolve_quiet(wf, Free(), 1.0, 1e-3, snapshot_stride=100)


def consumed(spec, record, dt):
    """The number of rows ``evolve_ensemble`` yields, consumed one at a time, and the traced peak of doing so."""
    tracemalloc.start()
    try:
        rows = sum(1 for _ in evolve_ensemble(spec, record, dt))
        return rows, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_force_stacks(monkeypatch) -> list:
    """The stacks ``qforce_batch`` is called with from the field caches, appended as they come; a whole
    ``compute_qfields`` raises."""
    stacks = []

    def counting(amplitudes, grid, params, work=None):
        stacks.append(amplitudes)
        return qforce_batch(amplitudes, grid, params, work)

    def refused(wf):
        raise AssertionError("a row built a whole compute_qfields")

    monkeypatch.setattr(trajectories, "qforce_batch", counting)
    monkeypatch.setattr(quantum_potential, "compute_qfields", refused)
    monkeypatch.setattr(ensemble, "compute_qfields", refused, raising=False)
    return stacks


class TestReportedRows:
    def test_positions_are_the_batch_rows_bit_for_bit(self, coarse_record):
        spec = EnsembleSpec(500, 7, coarse_record.snapshots[0])
        rows = list(evolve_ensemble(spec, coarse_record, 0.0125))
        cloud_times, cloud_positions = np.array([t for t, _, _, _ in rows]), np.stack([x for _, _, x, _ in rows])
        times, positions = integrate_guidance_batch(coarse_record, sample_equilibrium(spec), 0.0125)
        assert len(times) == 81 and cloud_positions.shape == (11, 500, 1)
        assert cloud_positions.tobytes() == positions[::8].tobytes()
        assert cloud_times.tobytes() == times[::8].tobytes()

    def test_two_dimensional_rows_are_the_batch_rows_bit_for_bit(self):
        # a product Gaussian; snapshots 0.1 apart, so every fourth step of 0.025 is reported
        wf = init_gaussian(make_grid(2, -8.0, 8.0, 64), PhysicalParams(), [0.5, -0.3], 1.0, [0.8, -0.4])
        record = evolve_quiet(wf, Free(), 0.4, 0.05, snapshot_stride=2)
        spec = EnsembleSpec(200, 9, wf)
        rows = list(evolve_ensemble(spec, record, 0.025))
        times, positions = integrate_guidance_batch(record, sample_equilibrium(spec), 0.025)
        assert len(times) == 17 and [(x.shape, force.shape) for _, _, x, force in rows] == [((200, 2), (200, 2))] * 5
        assert np.stack([x for _, _, x, _ in rows]).tobytes() == positions[::4].tobytes()
        assert np.array([t for t, _, _, _ in rows]).tobytes() == times[::4].tobytes()

    def test_peak_memory_follows_the_reported_rows(self, coarse_record):
        # keeping all 81 steps would take 7.4 times the 11 reported rows' bytes on their own
        consumed(EnsembleSpec(100, 5, coarse_record.snapshots[0]), coarse_record, 0.0125)
        rows, peak = consumed(EnsembleSpec(4000, 5, coarse_record.snapshots[0]), coarse_record, 0.0125)
        assert rows == 11 and peak < 4 * 11 * 4000 * 8

    def test_peak_memory_is_flat_in_the_reported_rows(self):
        # 61 and 121 report rows, both longer than one 21-row velocity batch: kept positions
        # would add 60 rows of M * 8 B, and the stream adds none
        wf = init_gaussian(make_grid(1, -60.0, 60.0, 384), PhysicalParams(), 0.0, 1.0)
        records = [evolve_quiet(wf, Free(), t_final, 1e-2, snapshot_stride=10) for t_final in (6.0, 12.0)]
        consumed(EnsembleSpec(100, 5, wf), records[0], 0.0125)
        (short, short_peak), (long, long_peak) = (consumed(EnsembleSpec(4000, 5, wf), r, 0.0125) for r in records)
        assert (short, long) == (61, 121)
        assert long_peak < short_peak + 4000 * 8

    def test_each_snapshot_force_is_computed_once(self, monkeypatch):
        # equivariance's record: 41 snapshots of 384 points, whose forces come in batches of 21 and 20 rows;
        # Q and f_q_max are never built
        grid = make_grid(1, -18.0, 18.0, 384)
        wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0, 1.0)
        record = evolve_quiet(wf, Free(), 2.0, 0.005, snapshot_stride=10)
        stacks = spy_force_stacks(monkeypatch)
        cloud = list(evolve_ensemble(EnsembleSpec(100, 1, wf), record, 0.01))
        assert len(record) == len(cloud) == 41 and [len(stack) for stack in stacks] == [21, 20]
        want = oracles.free_rows(wf, record.times)  # the rows a free record computes when read
        assert np.concatenate(stacks).tobytes() == want.tobytes()  # every row once, in order
        for snap_index, (t, row, _, _) in enumerate(cloud):
            assert t == record.times[snap_index]
            assert np.shares_memory(row, stacks[snap_index // 21])  # the row is in the stack its force came from
        assert "snapshots" not in vars(record)  # no Wavefunction per snapshot

    @pytest.mark.parametrize(
        "t_final, stride, reported",
        [(2.0, 10, 41), (0.5, 2, 51), (0.5, 1, 51)],
        ids=["spacing-5dt", "spacing-dt", "dt-2-spacing"],
    )
    def test_rows_are_the_per_row_reads_bit_for_bit(self, monkeypatch, t_final, stride, reported):
        # steps of 0.01 over records at 0.005 * stride: dt = 2 * spacing reads every other snapshot,
        # through a force cache of stride 2 and a window of 42 rows
        wf = init_gaussian(make_grid(1, -18.0, 18.0, 384), PhysicalParams(), 0.0, 1.0, 1.0)
        spec = EnsembleSpec(200, 4, wf)
        want = list(oracles.per_row_ensemble(spec, evolve_quiet(wf, Free(), t_final, 0.005, stride), 0.01))
        record = evolve_quiet(wf, Free(), t_final, 0.005, stride)
        stacks = spy_force_stacks(monkeypatch)
        got = list(evolve_ensemble(spec, record, 0.01))
        assert len(got) == len(want) == reported
        for row, reference in zip(got, want):
            assert row[0] == reference[0]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(row[1:], reference[1:]))
        assert sum(len(stack) for stack in stacks) == reported  # each reported snapshot's force computed once
        if stride == 1:
            assert record._span == 42
