import math
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bohmsim import (
    AccuracyWarning,
    EnsembleSpec,
    EvolutionRecord,
    Free,
    Harmonic,
    PhysicalParams,
    TrajectoryAbort,
    Wavefunction,
    crosscheck,
    evolve,
    evolve_ensemble,
    hamilton_jacobi_energy,
    init_gaussian,
    init_plane_wave,
    integrate_guidance,
    integrate_guidance_batch,
    integrate_newton,
    integrate_newton_batch,
    make_grid,
    normalize,
)
from bohmsim import _interp, propagator, trajectories
from bohmsim._interp import _OFFSETS, erode
from bohmsim.quantum_potential import compute_qfields
from bohmsim.trajectories import _eval_fields, _FieldCache, _guidance_rk4, _leapfrog, _rk4_step, _shared_caches
from bohmsim.wavefield import node_mask, velocity_batch, velocity_field


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


def two_lobe_record(line_grid, unit_params):
    """A record of two Gaussians of opposite sign, with a node region at x = 0."""
    x = line_grid.axes()[0]
    psi = np.exp(-((x - 2.0) ** 2) / 4.0) - np.exp(-((x + 2.0) ** 2) / 4.0)
    wf = normalize(Wavefunction(line_grid, unit_params, psi.astype(complex), 0.0))
    return evolve_quiet(wf, Free(), 0.02, 1e-3, snapshot_stride=10)


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

    def test_last_row_is_the_final_state(self, plane_record):
        traj = integrate_guidance(plane_record, [0.0], 0.2)
        assert len(traj.positions) == len(traj.momenta) == len(traj.times)
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.positions[-1, 0] == pytest.approx(2.0, abs=1e-9)
        assert traj.momenta[-1, 0] == pytest.approx(2.0, abs=1e-9)

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

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -1e30])
    @pytest.mark.parametrize("route", ["guidance", "newton"])
    def test_non_finite_or_huge_start_aborts_without_warnings(self, plane_record, route, x0):
        with pytest.raises(TrajectoryAbort, match="left the grid"):
            if route == "guidance":
                integrate_guidance(plane_record, [x0], 0.2)
            else:
                integrate_newton(plane_record, [x0], Free(), 0.2)

    @pytest.mark.parametrize("route", ["guidance", "newton"])
    def test_start_at_the_upper_bound_aborts(self, plane_record, route):
        # x_max is the periodic image of x_min, not a grid position
        hi = plane_record.grid.extents[0][1]
        with pytest.raises(TrajectoryAbort, match="1 trajectory position.s. left the grid") as exc_info:
            if route == "guidance":
                integrate_guidance(plane_record, [hi], 0.2)
            else:
                integrate_newton(plane_record, [hi], Free(), 0.2)
        assert exc_info.value.time == 0.0

    def test_node_region_aborts(self, line_grid, unit_params):
        record = two_lobe_record(line_grid, unit_params)
        with pytest.raises(TrajectoryAbort, match="node region") as exc_info:
            integrate_guidance(record, [0.01], 0.02)
        assert exc_info.value.time == pytest.approx(0.0)


def heavy_wf():
    # mass 2 so the momenta test sees the mass
    grid = make_grid(1, -15.0, 15.0, 384)
    return init_gaussian(grid, PhysicalParams(1.0, 2.0), 0.3, 1.0, wavenumber=0.5)


@pytest.fixture(scope="module")
def heavy_record():
    # spacing dt/4 at dt = 0.1
    return evolve_quiet(heavy_wf(), Free(), 1.0, 1e-3, snapshot_stride=25)


def count_evaluations(monkeypatch):
    """Record the read index of every ``_eval_fields`` call in the trajectories module."""
    seen = []

    def counting(cache, j, x):
        seen.append(j)
        return _eval_fields(cache, j, x)

    monkeypatch.setattr(trajectories, "_eval_fields", counting)
    return seen


class TestFieldCache:
    @pytest.mark.parametrize("kind", ["velocity", "qforce"])
    @pytest.mark.parametrize("interval, stride", [(0.05, 2), (0.025, 1), (0.0375, 1)])
    def test_batch_fields_equal_per_snapshot(self, heavy_record, kind, interval, stride):
        cache = _FieldCache(heavy_record, kind, interval)
        assert cache.stride == stride
        assert cache.batch == 21  # 8,192 grid points over 384
        for i in range(0, len(heavy_record), stride):
            values, valid = cache.fields(i)
            snap = heavy_record.snapshots[i]
            if kind == "velocity":
                want = velocity_field(snap)
            else:
                want = compute_qfields(snap).force
            assert np.array_equal(values[0], want[0])
            # the cached mask is the node mask eroded by the stencil footprint
            assert np.array_equal(valid, erode(node_mask(snap), 1))
            # a batch fills only the snapshots on the stride
            assert all(k % stride == 0 for k in cache._cache)

    @pytest.mark.parametrize("kind, name", [("velocity", "velocity_batch"), ("qforce", "qforce_batch")])
    def test_batches_are_the_record_rows(self, heavy_record, monkeypatch, kind, name):
        seen = []
        original = getattr(trajectories, name)

        def spying(amplitudes, grid, params, work=None):
            seen.append(amplitudes)
            return original(amplitudes, grid, params, work)

        monkeypatch.setattr(trajectories, name, spying)
        rows = oracles.free_rows(heavy_wf(), heavy_record.times)
        stored = EvolutionRecord(heavy_record.times, rows, heavy_record.grid, heavy_record.params, np.zeros(40))
        for record in (heavy_record, stored):
            _FieldCache(record, kind, 0.05).fields(0)  # stride 2
            _FieldCache(record, kind, 0.025).fields(21)  # stride 1
        assert [len(a) for a in seen] == [21, 20, 21, 20]
        # the free record computes its rows with the oracle's bits; a stored block hands out views
        for amplitudes, want in zip(seen, [rows[0:41:2], rows[21:]] * 2):
            assert amplitudes.tobytes() == want.tobytes()
        assert np.shares_memory(seen[2], rows) and np.shares_memory(seen[3], rows)

    def test_stale_snapshots_are_evicted_before_the_next_batch(self, heavy_record, monkeypatch):
        cache = _FieldCache(heavy_record, "velocity", 0.025)  # stride 1, batches of 21
        held = []
        original = trajectories.velocity_batch

        def spying(amplitudes, grid, params, work=None):
            held.append((sorted(cache._cache), first() is None if first else None))
            return original(amplitudes, grid, params, work)

        monkeypatch.setattr(trajectories, "velocity_batch", spying)
        first = None
        cache.fields(0)
        cache.at(20)  # the last read keeps views of snapshot 20's fields
        first = weakref.ref(cache._cache[20][0].base)
        cache.fields(21)
        # entry 20 is kept as a copy, so the first batch is freed before the second is computed
        assert held == [([], None), ([20], True)]
        assert sorted(cache._cache) == list(range(20, 41))

    @pytest.mark.parametrize("kind", ["velocity", "qforce"])
    def test_at_blends_the_bracket_once_per_time(self, heavy_record, kind):
        cache = _FieldCache(heavy_record, kind, 0.00625)  # a quarter of the spacing
        for j in (41, 42, 48, 159):  # snapshots 10.25, 10.5, 12 and 39.75
            i, theta = j // 4, j % 4 / 4
            values, eroded = cache.at(j)
            va, eroded_a = cache.fields(i)
            if theta == 0.0:
                assert values is va and eroded is eroded_a
            else:
                vb, eroded_b = cache.fields(i + 1)
                assert np.array_equal(values, (1.0 - theta) * va + theta * vb)
                assert np.array_equal(eroded, eroded_a & eroded_b)
            again = cache.at(j)
            assert again[0] is values and again[1] is eroded

    def test_batch_size_follows_point_budget(self):
        grid = make_grid(2, -8.0, 8.0, 128)
        wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
        record = evolve_quiet(wf, Free(), 0.01, 1e-3, snapshot_stride=5)
        assert _FieldCache(record, "velocity", 5e-3).batch == 1


class TestWorkspace:
    """A cache's batches work in one kept workspace; the fields, masks and rows they return are fresh."""

    @pytest.fixture(scope="class")
    def plane_rows(self):
        # no-tunneling's plane: 128 x 128 points, more than FIELD_BATCH_POINTS, so a batch is one row
        grid = make_grid(2, -8.0, 8.0, 128)
        return evolve_quiet(init_gaussian(grid, PhysicalParams(), (-1.0, 1.0), 0.5), Free(), 0.03, 5e-3)

    @pytest.mark.parametrize("kind", ["velocity", "qforce"])
    def test_later_batches_allocate_no_array_of_a_row(self, plane_rows, kind):
        cache = _FieldCache(plane_rows, kind, 5e-3)  # stride 1, one row a batch
        row = 16 * math.prod(plane_rows.grid.shape)  # bytes of one complex row, and of one row's fields
        cache.fields(0)  # the first batch makes the workspace
        tracemalloc.start()
        try:
            for i in range(1, len(plane_rows)):
                tracemalloc.reset_peak()
                cache.fields(i)
                current, peak = tracemalloc.get_traced_memory()
                # a batch frees the row it evicts and keeps the row it computes: what rises above
                # that and is freed again before it returns is smaller than any one-row array
                assert peak - current < row, i
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", ["velocity", "qforce"])
    def test_nothing_a_batch_returns_shares_the_workspace(self, plane_rows, kind):
        cache, returned = _FieldCache(plane_rows, kind, 5e-3), []
        for i in range(len(plane_rows)):
            returned += [*cache.fields(i), *cache.at(i), plane_rows.rows(i)]  # and another reader's rows
        # the row block with |psi|^2, the conjugate and the transform, or with |psi|^2, R, a term and five spectra
        assert len(cache.work) == {"velocity": 4, "qforce": 9}[kind]
        assert not any(np.shares_memory(a, b) for a in returned for b in cache.work.values())

    def test_shared_caches_work_in_one_workspace(self):
        # the crosscheck pairing on its own record: the two caches read side by side from one window
        record = evolve_quiet(heavy_wf(), Free(), 1.0, 1e-3, snapshot_stride=25)
        velocity, force = _shared_caches(record, 0.05)
        returned = []
        for j in range(0, len(record) - 1, 2):
            returned += [*velocity.at(j), *velocity.at(j + 1), *force.at(j // 2)]
        assert velocity.work is force.work
        # three complex and three real arrays serve both kinds; the window's rows are not among them
        assert sorted(a.dtype.char for a in velocity.work.values()) == ["D"] * 3 + ["d"] * 3
        assert not any(np.shares_memory(a, b) for a in returned + [record._window[2]] for b in velocity.work.values())


class TestGuidanceMomenta:
    def test_momenta_equal_fresh_field_evaluations(self, heavy_record):
        dt = 0.1
        traj = integrate_guidance(heavy_record, [0.4], dt)
        cache = _FieldCache(heavy_record, "velocity", 0.5 * dt)
        want = np.array(
            [2.0 * _eval_fields(cache, 2 * i, traj.positions[i : i + 1])[0] for i in range(len(traj.times))]
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
        assert seen[-1] == 2 * n  # the final time's half-step read

    def test_batch_ending_beside_a_node_region_returns(self, line_grid, unit_params):
        # one step of 0.2: k1 (t = 0) and k2, k3 (t = 0.1) ride at v = 1, k4 (t = 0.2) at v = -5,
        # so the step ends where it began; the last snapshot's node region, its packet's far
        # tail left of about -0.04, spares k4's read at x0 + 0.2 but not a read at the end
        x = line_grid.axes()[0]

        def packet(center, sigma, wavenumber):
            return np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * wavenumber * x)

        amplitudes = np.stack([packet(0.0, 1.0, 1.0), packet(0.0, 1.0, 1.0), packet(3.68, 0.5, -5.0)])
        record = EvolutionRecord(np.array([0.0, 0.1, 0.2]), amplitudes, line_grid, unit_params, np.zeros(2))
        times, positions = integrate_guidance_batch(record, np.array([[-0.04]]), 0.2)
        assert positions[-1, 0, 0] == pytest.approx(-0.04, abs=1e-9)
        abort = abort_of(lambda: integrate_guidance(record, [-0.04], 0.2))
        assert "node region" in str(abort) and abort.time == times[-1]


def abort_of(call):
    with pytest.raises(TrajectoryAbort) as exc_info:
        call()
    return exc_info.value


class StencilLocated(Exception):
    pass


class TestOnePointPath:
    """One particle is located in Python floats; a batch takes the array path."""

    def test_single_particle_routes_never_locate_a_stencil(self, heavy_record, monkeypatch):
        def refuse(*args, **kwargs):
            raise StencilLocated

        monkeypatch.setattr(_interp.Stencil, "__init__", refuse)
        integrate_guidance(heavy_record, [0.4], 0.1)
        integrate_newton(heavy_record, [0.4], Free(), 0.1)
        two = np.array([[0.4], [-0.7]])
        with pytest.raises(StencilLocated):
            integrate_guidance_batch(heavy_record, two, 0.1)
        with pytest.raises(StencilLocated):
            integrate_newton_batch(heavy_record, two, Free(), 0.1)

    def test_single_particle_equals_a_row_of_a_batch_bit_for_bit(self, heavy_record):
        twice = np.array([[0.4], [0.4]])
        guided = integrate_guidance(heavy_record, [0.4], 0.1)
        _, positions = integrate_guidance_batch(heavy_record, twice, 0.1)
        assert np.array_equal(guided.positions, positions[:, 1])
        newton = integrate_newton(heavy_record, [0.4], Free(), 0.1)
        _, positions, momenta = integrate_newton_batch(heavy_record, twice, Free(), 0.1)
        assert np.array_equal(newton.positions, positions[:, 1])
        assert np.array_equal(newton.momenta, momenta[:, 1])

    def test_float_steps_are_row_0_of_a_batch_bit_for_bit(self):
        # a short harmonic record: Strang rows, and a classical force beside the quantum one
        grid = make_grid(1, -10.0, 10.0, 256)
        wf = init_gaussian(grid, PhysicalParams(), 1.0, oracles.ground_sigma(1.0))
        record = evolve_quiet(wf, Harmonic(omega=1.0), 0.4, 1e-3, snapshot_stride=25)
        potential, dt, n = Harmonic(omega=1.0), 0.05, 8
        one, two = np.array([[0.4]]), np.array([[0.4], [1.3]])

        def bits(value):
            return np.float64(value).tobytes()

        guided = [list(_guidance_rk4(_FieldCache(record, "velocity", 0.5 * dt), x0, n, dt)) for x0 in (one, two)]
        assert len(guided[0]) == len(guided[1]) == n + 1
        for (step, x, k1), (_, xs, k1s) in zip(*guided):
            assert type(x) is float and bits(x) == bits(xs[0, 0]), step
            assert (k1 is k1s is None) if step == n else (type(k1) is float and bits(k1) == bits(k1s[0, 0])), step
        newton = [list(_leapfrog(_FieldCache(record, "qforce", dt), x0, potential, dt, n)) for x0 in (one, two)]
        assert len(newton[0]) == len(newton[1]) == n + 1
        for step, ((x, p), (xs, ps)) in enumerate(zip(*newton)):
            assert type(x) is float and type(p) is float, step
            assert bits(x) == bits(xs[0, 0]) and bits(p) == bits(ps[0, 0]), step

    @pytest.mark.parametrize("count", [1, 2])
    def test_one_coordinate_on_a_plane_names_the_shape(self, unit_params, count):
        # one point too: the float path is for 1D records only
        grid = make_grid(2, -8.0, 8.0, 64)
        record = evolve(init_gaussian(grid, unit_params, 0.0, 1.0), Free(), 0.2, 0.05)
        x0 = np.full((count, 1), 0.5)
        calls = [
            lambda: integrate_guidance_batch(record, x0, 0.1),
            lambda: integrate_newton_batch(record, x0, Free(), 0.1),
        ]
        if count == 1:
            calls += [lambda: integrate_guidance(record, [0.5], 0.1), lambda: integrate_newton(record, [0.5], Free(), 0.1)]
        message = rf"^x has shape \({count}, 1\); a stencil locates M point\(s\) of 2 coordinate\(s\)$"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize(
        "case, x0, dt",
        [
            ("plane", 5.0 * np.pi - 1.0, 0.2),  # rides off the top of the grid
            ("plane", np.nan, 0.2),
            ("plane", -np.inf, 0.2),
            ("plane", 1e300, 0.2),
            ("plane", 5.0 * np.pi, 0.2),  # the upper bound is the image of the lower one
            ("nodes", 0.01, 0.02),  # starts in the node region
        ],
    )
    @pytest.mark.parametrize("route", ["guidance", "newton"])
    def test_single_particle_aborts_as_a_row_of_a_batch(
        self, plane_record, line_grid, unit_params, case, x0, dt, route
    ):
        record = plane_record if case == "plane" else two_lobe_record(line_grid, unit_params)
        if route == "guidance":
            one = abort_of(lambda: integrate_guidance(record, [x0], dt))
            two = abort_of(lambda: integrate_guidance_batch(record, np.full((2, 1), x0), dt))
        else:
            one = abort_of(lambda: integrate_newton(record, [x0], Free(), dt))
            two = abort_of(lambda: integrate_newton_batch(record, np.full((2, 1), x0), Free(), dt))
        assert ("node region" in str(one)) == ("node region" in str(two)) == (case == "nodes")
        assert one.time == two.time
        assert one.positions.shape == (1, 1) and two.positions.shape == (2, 1)
        assert np.array_equal(one.positions[0], two.positions[0], equal_nan=True)
        assert np.array_equal(two.positions[0], two.positions[1], equal_nan=True)


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

    @pytest.mark.parametrize("case", ["free", "harmonic", "free-2d"])
    def test_crosscheck_is_the_gap_of_the_two_routes(self, spreading_record, ground_record, case):
        if case == "free-2d":
            wf = init_gaussian(make_grid(2, -8.0, 8.0, 64), PhysicalParams(), 0.0, 1.0, wavenumber=0.5)
            record, potential, x0, dt = evolve_quiet(wf, Free(), 0.4, 0.01, snapshot_stride=5), Free(), [0.3, -0.2], 0.1
        else:
            record, potential, x0, dt = {
                "free": (spreading_record, Free(), [0.8], 0.1),
                "harmonic": (ground_record, Harmonic(omega=1.0), [0.5], 0.2),
            }[case]
        guided = integrate_guidance(record, x0, dt).positions
        newton = integrate_newton(record, x0, potential, dt).positions
        assert crosscheck(record, x0, potential, dt) == np.linalg.norm(guided - newton, axis=-1).max()

    def test_crosscheck_computes_each_free_row_once(self, monkeypatch):
        # the crosscheck config's grid and snapshot spacing, over 0.2 time units: the guidance route
        # reads every row in batches of 21 and the Newton route every second row in batches of 21
        wf = init_gaussian(make_grid(1, -15.0, 15.0, 384), PhysicalParams(), 0.0, 1.0)
        record = evolve_quiet(wf, Free(), 0.2, 1.25e-4, snapshot_stride=4)
        computed = []
        compute = type(record)._compute

        def counting(self, rows):
            computed.extend(rows)
            return compute(self, rows)

        monkeypatch.setattr(type(record), "_compute", counting)
        crosscheck(record, [1.0], Free(), 1e-3)
        assert sorted(set(computed)) == list(range(len(record))) == list(range(401))
        # the first window already spans the Newton route's read, so no row is computed twice
        assert len(computed) == len(record)

    def test_a_lone_strided_read_transforms_only_its_rows(self, monkeypatch):
        # leapfrog steps of 0.01 over rows 0.005 apart read every second row; row 0 is psi0's own bits,
        # so the 200 even rows after it are all the record transforms, not the 391 rows their batches span
        wf = init_gaussian(make_grid(1, -15.0, 15.0, 384), PhysicalParams(), 0.0, 1.0)
        record = evolve_quiet(wf, Free(), 2.0, 0.005)
        transformed, fft = [], propagator._fft

        def counting(values, axis, out=None, inverse=False):
            transformed.append(len(values) if inverse else 0)
            return fft(values, axis, out, inverse)

        monkeypatch.setattr(propagator, "_fft", counting)
        integrate_newton(record, [1.0], Free(), 0.01)
        assert len(record) == 401 and sum(transformed) == 200

    def test_momentum_seeded_from_guidance_value(self, plane_record):
        traj = integrate_newton(plane_record, [0.7], Free(), 0.2)
        assert np.abs(traj.momenta[:, 0] - 2.0).max() < 1e-9

    def test_initial_momentum_needs_one_velocity_field(self, heavy_record, monkeypatch):
        calls = []

        def counting(amplitudes, grid, params, work=None):
            calls.append(amplitudes)
            return velocity_batch(amplitudes, grid, params, work)

        monkeypatch.setattr(trajectories, "velocity_batch", counting)
        record = evolve_quiet(heavy_wf(), Free(), 1.0, 1e-3, snapshot_stride=25)  # no snapshots built yet
        newton = integrate_newton(record, [0.4], Free(), 0.1)
        assert len(calls) == 1 and calls[0].shape == (1,) + record.grid.shape
        assert calls[0].tobytes() == oracles.free_rows(heavy_wf(), [0.0]).tobytes()  # row 0: psi0's bits
        assert "snapshots" not in vars(record)  # one row read, no Wavefunction per snapshot
        monkeypatch.undo()
        guided = integrate_guidance(heavy_record, [0.4], 0.1)
        assert np.array_equal(newton.momenta[0], guided.momenta[0])

    def test_start_off_the_grid_aborts(self, plane_record):
        with pytest.raises(TrajectoryAbort, match="left the grid") as exc_info:
            integrate_newton(plane_record, [5.0 * np.pi + 0.1], Free(), 0.2)
        assert exc_info.value.time == pytest.approx(0.0)

    def test_start_in_node_region_aborts(self, line_grid, unit_params):
        record = two_lobe_record(line_grid, unit_params)
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


def masked_cache(monkeypatch, dims, node, bad_snapshots):
    """Velocity cache of a 16-point-per-axis record whose node masks are all
    True except at ``node`` in the snapshots ``bad_snapshots``; fields are 0."""
    grid = make_grid(dims, -8.0, 8.0, 16)  # dx = 1
    wf = init_plane_wave(grid, PhysicalParams(), 0.8)
    record = evolve_quiet(wf, Free(), 4e-3, 1e-3, snapshot_stride=1)
    bad = [record.amplitudes[k] for k in bad_snapshots]

    def fake_velocity_batch(amplitudes, grid, params, work=None):
        values = np.zeros((len(amplitudes), grid.dims) + grid.shape)
        valid = np.ones((len(amplitudes),) + grid.shape, dtype=bool)
        for mask, a in zip(valid, amplitudes):
            mask[node] = not any(np.array_equal(a, b) for b in bad)
        return values, valid

    monkeypatch.setattr(trajectories, "velocity_batch", fake_velocity_batch)
    return _FieldCache(record, "velocity", 5e-4)  # read j at t = j * 5e-4


def at_base(base):
    """The query point in the middle of the cell whose first node is ``base``."""
    return np.array([[-8.0 + j + 0.5 for j in base]])


class TestErodedNodeMask:
    """A masked node anywhere in a point's footprint (offsets -1..2 per axis,
    wrapped) aborts it, through the eroded mask of ``_FieldCache``."""

    @pytest.mark.parametrize(
        "dims, base, node",
        [
            (1, (5,), (4,)),  # offset -1
            (1, (5,), (7,)),  # offset +2
            (1, (0,), (15,)),  # -1 across the seam
            (1, (15,), (1,)),  # +2 across the seam
            (1, (14,), (0,)),
            (2, (5, 7), (4, 9)),
            (2, (5, 7), (7, 6)),
            (2, (0, 15), (15, 1)),  # both axes across the seam
            (2, (15, 0), (1, 15)),
        ],
    )
    @pytest.mark.parametrize("j", [0, 1])  # on a snapshot, between two
    def test_masked_footprint_node_aborts(self, monkeypatch, dims, base, node, j):
        cache = masked_cache(monkeypatch, dims, node, range(5))
        with pytest.raises(TrajectoryAbort, match="node region"):
            _eval_fields(cache, j, at_base(base))

    @pytest.mark.parametrize(
        "dims, base, node",
        [
            (1, (5,), (3,)),  # offset -2
            (1, (5,), (8,)),  # offset +3
            (1, (0,), (14,)),
            (1, (15,), (2,)),
            (2, (5, 7), (3, 7)),
            (2, (5, 7), (5, 10)),
        ],
    )
    def test_node_beyond_the_footprint_is_harmless(self, monkeypatch, dims, base, node):
        cache = masked_cache(monkeypatch, dims, node, range(5))
        for j in (0, 1):
            assert np.array_equal(_eval_fields(cache, j, at_base(base)), np.zeros((1, dims)))

    def test_either_side_of_a_time_bracket_aborts(self, monkeypatch):
        cache = masked_cache(monkeypatch, 1, (7,), [2])
        x = at_base((5,))
        for j in (1, 2, 6, 7):  # t = 5e-4, 1e-3, 3e-3, 3.5e-3
            _eval_fields(cache, j, x)
        for j in (3, 4, 5):  # t = 1.5e-3, 2e-3, 2.5e-3
            with pytest.raises(TrajectoryAbort, match="node region"):
                _eval_fields(cache, j, x)


def per_point_abort(grid, mask, t, x):
    """The message, ``indices`` and ``left_grid`` of the abort a read of 1D positions x at t
    raises, decided point by point: the rows off the grid (NaN included), else the rows with a
    masked node in their footprint; None for a clean read."""
    (lo, hi), = grid.extents
    n, = grid.points
    c = x[:, 0]
    off = np.flatnonzero(~((lo <= c) & (c < hi)))
    if off.size:
        return f"{off.size} trajectory position(s) left the grid at t={t:.6g}", off.tolist(), True
    base = np.floor((c - lo) / grid.dx[0]).astype(np.int64) % n
    touched = np.flatnonzero(~mask[(base[:, None] + _OFFSETS) % n].all(axis=1))
    if touched.size:
        return f"trajectory entered a node region at t={t:.6g}", touched.tolist(), False
    return None


def abort_fields(abort):
    """What ``per_point_abort`` decides, as the abort reports it."""
    assert abort.indices.dtype == np.intp
    return str(abort), abort.indices.tolist(), abort.left_grid


BELOW_HI = float(np.nextafter(8.0, 0.0))  # on the grid, but (x - lo) / dx rounds to n = 16


class TestBatchReadChecks:
    """A 1D batch read is checked from its extreme positions and the mask across its
    bases' span when that settles it, and point by point otherwise; either way it
    raises what a point-by-point check raises, with the same time, positions, rows
    and kind.  Each point read alone as a float aborts as a one-row batch."""

    @pytest.mark.parametrize(
        "x, node",
        [
            ([[0.5], [BELOW_HI]], None),  # the cell rounds to n and wraps to base 0
            ([[0.5], [BELOW_HI]], (2,)),  # ... whose footprint holds node 2
            ([[0.5], [np.nan]], None),
            ([[np.inf], [0.5]], None),
            ([[-np.inf]], None),
            ([[np.nan], [np.inf], [-np.inf], [0.5]], (7,)),
            ([[1.5], [-4.5], [-1.5]], (2,)),  # bases 9, 3, 6: only the lowest base's footprint
            ([[1.5], [-4.5], [-1.5]], (1,)),
            ([[1.5], [-4.5], [-1.5]], (11,)),  # only the highest base's footprint
            ([[1.5], [-4.5], [-1.5]], (12,)),
            ([[-4.5], [4.5]], (8,)),  # bases 3 and 12 around a hole at eroded bases 5..8
            ([[-4.5], [-0.5], [4.5]], (8,)),  # ... and base 7 in it
        ],
    )
    @pytest.mark.parametrize("j", [0, 1])  # on a snapshot, between two
    def test_reads_abort_as_a_point_by_point_check(self, monkeypatch, x, node, j):
        x = np.array(x)
        cache = masked_cache(monkeypatch, 1, node or (0,), range(5) if node else [])
        t = cache.t0 + j * cache.interval
        mask = np.ones(16, dtype=bool)
        if node:
            mask[node] = False
        want = per_point_abort(cache.record.grid, mask, t, x)
        if want is None:
            assert np.array_equal(_eval_fields(cache, j, x), np.zeros((len(x), 1)))
        else:
            abort = abort_of(lambda: _eval_fields(cache, j, x))
            assert abort_fields(abort) == want
            assert abort.time == t and abort.positions is x
        for c in x[:, 0].tolist():
            want = per_point_abort(cache.record.grid, mask, t, np.array([[c]]))
            if want is None:
                assert _eval_fields(cache, j, c) == 0.0
                continue
            abort = abort_of(lambda: _eval_fields(cache, j, c))
            assert abort_fields(abort) == want and want[1] == [0]
            assert abort.time == t and np.array_equal(abort.positions, [[c]], equal_nan=True)


class TestKeptTable:
    """``_FieldCache`` keeps one ``cubic_table`` per read time for 1D batch reads."""

    def test_one_table_per_distinct_read_time_and_none_for_one_particle(self, heavy_record, monkeypatch):
        built = []
        real = _interp.cubic_table

        def counting(block):
            built.append(block)
            return real(block)

        monkeypatch.setattr(_interp, "cubic_table", counting)
        seen = count_evaluations(monkeypatch)
        dt = 0.0125  # a quarter of the spacing: half steps fall between snapshots
        times, _ = integrate_guidance_batch(heavy_record, np.array([[0.4], [-0.7]]), dt)
        n = len(times) - 1
        assert any(j % 4 != 0 for j in seen)  # reads a quarter spacing apart: three in four between snapshots
        # k1 at read 2k, k2 and k3 at 2k + 1, k4 at 2k + 2: the next k1's read
        assert len(seen) == 4 * n and len(set(seen)) == 2 * n + 1
        assert len(built) == len(set(seen))
        built.clear()
        integrate_guidance(heavy_record, [0.4], dt)
        integrate_newton(heavy_record, [0.4], Free(), dt)
        assert built == []

    def test_cached_reads_equal_a_fresh_stencil_bit_for_bit(self, heavy_record):
        cache = _FieldCache(heavy_record, "velocity", 0.00625)
        x = np.random.default_rng(7).uniform(-4.0, 4.0, size=(500, 1))
        for j in (0, 1, 48, 49, 49, 50):  # t = 0.0, 0.00625, 0.3, 0.30625, 0.30625, 0.3125
            block, eroded = cache.at(j)
            stencil = _interp.Stencil(heavy_record.grid, x)
            want = stencil.sample(block)
            assert stencil.valid(eroded).all()
            assert _eval_fields(cache, j, x).tobytes() == want.tobytes()
            # beside points in the packet's far tails, the abort names the rows the stencil finds invalid
            tails = np.vstack([x, [[-14.5], [13.9]], x[:3]])
            ok = _interp.Stencil(heavy_record.grid, tails).valid(eroded)
            assert ok[:500].all() and not ok[500:502].any()
            abort = abort_of(lambda: _eval_fields(cache, j, tails))
            assert np.array_equal(abort.indices, np.flatnonzero(~ok)) and not abort.left_grid

    def test_rk4_step_keeps_its_inputs_and_the_order_of_the_sum(self, heavy_record, monkeypatch):
        cache = _FieldCache(heavy_record, "velocity", 0.00625)
        x = np.random.default_rng(8).uniform(-4.0, 4.0, size=(300, 1))
        dt = 0.0125
        j = 2 * 3  # step 3: k1 at snapshot 1.5, k2 and k3 at 1.75, k4 at 2
        k1 = _eval_fields(cache, j, x)
        x_before, k1_before = x.copy(), k1.copy()
        seen = count_evaluations(monkeypatch)
        got = _rk4_step(cache, j, x, dt, k1)
        assert seen == [j + 1, j + 1, j + 2]
        monkeypatch.undo()
        assert np.array_equal(x, x_before) and np.array_equal(k1, k1_before)
        assert not np.shares_memory(got, x) and not np.shares_memory(got, k1)
        k2 = _eval_fields(cache, j + 1, x + 0.5 * dt * k1)
        k3 = _eval_fields(cache, j + 1, x + 0.5 * dt * k2)
        k4 = _eval_fields(cache, j + 2, x + dt * k3)
        assert got.tobytes() == (x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).tobytes()


class TestReadLattice:
    """``_FieldCache`` places read j at snapshot j p / q, p/q the read interval over the spacing in lowest terms,
    for every pair of step and spacing that ``_step_times`` admits, with RK4's and leapfrog's read intervals."""

    SNAPSHOTS = 9

    def record(self, t0, spacing):
        grid = make_grid(1, -8.0, 8.0, 16)
        rng = np.random.default_rng(5)
        amplitudes = rng.normal(size=(self.SNAPSHOTS, 16)) + 1j * rng.normal(size=(self.SNAPSHOTS, 16))
        times = t0 + spacing * np.arange(self.SNAPSHOTS)
        return EvolutionRecord(times, amplitudes, grid, PhysicalParams(), np.zeros(self.SNAPSHOTS - 1))

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 8),
        spacing_per_step=st.booleans(),
        route=st.sampled_from(["rk4", "leapfrog"]),
        dt=st.floats(1e-3, 1.0),
        t0=st.floats(-1.0, 1.0),
        kind=st.sampled_from(["velocity", "qforce"]),
    )
    def test_each_read_is_its_snapshot_or_the_blend_of_its_bracket(self, m, spacing_per_step, route, dt, t0, kind):
        spacing = m * dt if spacing_per_step else dt / m
        record = self.record(t0, spacing)
        interval = dt if route == "leapfrog" else 0.5 * dt
        ratio = (Fraction(1, m) if spacing_per_step else Fraction(m)) * (1 if route == "leapfrog" else Fraction(1, 2))
        p, q = ratio.numerator, ratio.denominator
        cache = _FieldCache(record, kind, interval)
        for j in range((self.SNAPSHOTS - 1) * q // p + 1):
            i, r = divmod(j * p, q)
            values, eroded = cache.at(j)
            va, eroded_a = cache.fields(i)
            if r == 0:  # the snapshot's own arrays
                assert values is va and eroded is eroded_a
            else:
                vb, eroded_b = cache.fields(i + 1)
                theta = r / q
                assert np.array_equal(values, (1.0 - theta) * va + theta * vb)
                assert np.array_equal(eroded, eroded_a & eroded_b)
            again = cache.at(j)  # built once
            assert again[0] is values and again[1] is eroded

    @settings(max_examples=100, deadline=None)
    @given(
        spacing=st.floats(1e-3, 1.0),
        ratio=st.sampled_from([0.4, 0.6, 2.0 / 3.0, 0.75, 1.2, 1.25, 7.0 / 3.0, 3.3]),
        kind=st.sampled_from(["velocity", "qforce"]),
    )
    def test_an_interval_off_the_lattice_is_rejected(self, spacing, ratio, kind):
        # neither m, m/2 nor 1/m spacings
        with pytest.raises(ValueError, match="read interval"):
            _FieldCache(self.record(0.0, spacing), kind, ratio * spacing)


BAD_STEPS = [np.nan, np.inf, 0.0, -0.2]


class TestBadTimeStep:
    """Every entry point that walks a record names a bad dt."""

    @pytest.mark.parametrize("dt", BAD_STEPS)
    @pytest.mark.parametrize(
        "route",
        ["guidance", "guidance_batch", "newton", "newton_batch", "crosscheck", "ensemble"],
    )
    def test_rejected_as_not_positive_and_finite(self, plane_record, route, dt):
        x0 = np.array([[0.7]])
        calls = {
            "guidance": lambda: integrate_guidance(plane_record, [0.7], dt),
            "guidance_batch": lambda: integrate_guidance_batch(plane_record, x0, dt),
            "newton": lambda: integrate_newton(plane_record, [0.7], Free(), dt),
            "newton_batch": lambda: integrate_newton_batch(plane_record, x0, Free(), dt),
            "crosscheck": lambda: crosscheck(plane_record, [0.7], Free(), dt),
            "ensemble": lambda: evolve_ensemble(
                EnsembleSpec(100, 0, plane_record.snapshots[0]), plane_record, dt
            ),
        }
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            calls[route]()


class TestRecordWindow:
    """A free record keeps computed rows only in its one window: widened for two caches read side by side,
    or holding every row once ``amplitudes`` is read; a lone batch reader's rows are freed after its batch."""

    DT = 1e-3

    def wf_and_record(self):
        # the crosscheck config's grid and snapshot spacing over 0.2 time units: 401 rows, batches of 21
        wf = init_gaussian(make_grid(1, -15.0, 15.0, 384), PhysicalParams(), 0.0, 1.0)
        return wf, evolve_quiet(wf, Free(), 0.2, 1.25e-4, snapshot_stride=4)

    @pytest.mark.parametrize("reader", ["guidance-batch", "newton-batch"])
    def test_a_lone_batch_reader_keeps_no_rows(self, reader):
        _, record = self.wf_and_record()
        if reader == "guidance-batch":
            integrate_guidance_batch(record, np.array([[-0.5], [1.0]]), self.DT)
        else:
            integrate_newton_batch(record, np.array([[-0.5], [1.0]]), Free(), self.DT)
        assert record._window[2] is None

    def test_the_ensemble_keeps_one_window_of_its_span(self):
        # its two caches read side by side, as crosscheck's do: one window of the force cache's 42 rows
        wf, record = self.wf_and_record()
        rows = evolve_ensemble(EnsembleSpec(100, 3, wf), record, self.DT)
        assert record._span == 42
        for count, _ in enumerate(rows, start=1):
            lo, hi, block = record._window
            assert hi - lo == len(block) <= record._span
        assert count == 201 and record._window[:2] == (378, len(record))

    def test_shared_caches_keep_one_window_of_their_widest_read(self):
        _, record = self.wf_and_record()
        velocity, force = trajectories._shared_caches(record, self.DT)
        span = force.stride * force.batch
        assert (velocity.stride, force.stride, span) == (1, 2, 42)
        velocity.fields(0)
        force.fields(0)
        assert record._window[:2] == (0, span) and len(record._window[2]) == span
        crosscheck(record, [1.0], Free(), self.DT)
        # the last window starts at the first row its reads found outside the one before: row 9 * 42
        assert record._window[:2] == (378, len(record)) and len(record._window[2]) == len(record) - 378

    def test_amplitudes_is_a_window_of_every_row(self, monkeypatch):
        _, record = self.wf_and_record()
        block = record.amplitudes
        assert record._window[:2] == (0, len(record)) and np.shares_memory(record._window[2], block)
        computed = []
        compute = type(record)._compute
        monkeypatch.setattr(type(record), "_compute", lambda self, lo, hi: computed.append(1) or compute(self, lo, hi))
        integrate_guidance_batch(record, np.array([[1.0]]), self.DT)  # every read a view of the window
        assert np.shares_memory(record.rows(slice(5, 40, 7)), block) and np.shares_memory(record.amplitudes, block)
        assert computed == [] and record._window[:2] == (0, len(record))
