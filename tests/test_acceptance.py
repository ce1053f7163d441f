"""Acceptance gates for the simulator, one test per shipped guarantee.

Every test measures one quantity, compares it against a pinned bound, and
emits a single pass/fail line through the ``acceptance_report`` fixture so
the run ends with a readable scorecard.  Wall-clock budgets are asserted
too; they are generous against current timings and exist to catch
algorithmic regressions, not scheduler noise.
"""

import time
import warnings

import numpy as np
import pytest

import oracles
from bohmsim import (
    AccuracyWarning,
    EnsembleSpec,
    FactorizedNBody,
    Free,
    Harmonic,
    Linear,
    PhysicalParams,
    Wavefunction,
    averaged_quantum_force,
    build_symmetrized,
    compute_qfields,
    continuity_residual,
    crosscheck,
    equivariance_distance,
    evolve,
    evolve_ensemble,
    init_gaussian,
    init_plane_wave,
    integrate_guidance,
    integrate_guidance_batch,
    make_grid,
    no_tunneling_check,
    normalize,
    run_bec_experiment,
    run_cm_experiment,
)

AVERAGING_RELATIVE_BOUND = 1e-8
ROUTE_GAP_BOUND = 1e-3  # in units of the packet width
STATICS_BOUND = 1e-6
REST_DRIFT_BOUND = 1e-8
SPREADING_RELATIVE_BOUND = 1e-4
KS_CRITICAL_95 = 1.358  # one-sample Kolmogorov-Smirnov, large-sample form
KS_SLACK = 1.5  # headroom over the critical value for a deterministic gate
SHRINKAGE_WINDOW = (5.0, 20.0)
SLOPE_BOUND = 1e-9
CONTRAST_FLOOR = 0.5
UNITARITY_BOUND = 1e-10
CONVERGENCE_WINDOW = (3.5, 4.5)


def evolve_quiet(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        return evolve(*args, **kwargs)


def test_criterion_01_averaged_quantum_force_vanishes(acceptance_report):
    started = time.perf_counter()
    params = PhysicalParams()
    grid = make_grid(1, -10.0, 10.0, 256)
    x = grid.axes()[0]
    humps = np.exp(-((x - 3.0) ** 2) / (4 * 0.8**2)) + np.exp(-((x + 3.0) ** 2) / (4 * 0.8**2))
    packets = [
        init_gaussian(grid, params, 0.0, 0.5),
        init_gaussian(grid, params, 0.5, 0.8, wavenumber=1.5),
        init_gaussian(grid, params, 0.0, 1.25, wavenumber=-2.0),
        normalize(Wavefunction(grid, params, humps.astype(complex), 0.0)),
        init_gaussian(grid, params, 0.0, oracles.ground_sigma(1.0)),
    ]
    worst = 0.0
    for wf in packets:
        t0 = time.perf_counter()
        residual = np.abs(averaged_quantum_force(wf)).max()
        scale = compute_qfields(wf).f_q_max
        worst = max(worst, residual / scale)
        assert time.perf_counter() - t0 < 1.0
    assert acceptance_report(
        "criterion 01 averaged quantum force", worst, AVERAGING_RELATIVE_BOUND, started,
        extra="worst relative residual over 5 packets",
    )


def test_criterion_02_guidance_and_newton_routes_agree(acceptance_report):
    started = time.perf_counter()
    params = PhysicalParams()
    # snapshot spacing 5e-4 keeps the 1e-3 trajectory step stage-aligned
    free_rec = evolve_quiet(
        init_gaussian(make_grid(1, -15.0, 15.0, 384), params, 0.0, 1.0),
        Free(), 2.0, 5e-4, snapshot_stride=1,
    )
    plane_rec = evolve_quiet(
        init_plane_wave(make_grid(1, -5.0 * np.pi, 5.0 * np.pi, 256), params, 2.0),
        Free(), 2.0, 5e-4, snapshot_stride=1,
    )
    ground_rec = evolve_quiet(
        init_gaussian(make_grid(1, -10.0, 10.0, 256), params, 0.0, oracles.ground_sigma(1.0)),
        Harmonic(omega=1.0), 2.0, 5e-4, snapshot_stride=1,
    )
    # the plane wave has no intrinsic width; the unit length stands in
    gaps = [
        crosscheck(free_rec, [0.8], Free(), 1e-3) / 1.0,
        crosscheck(plane_rec, [0.7], Free(), 1e-3) / 1.0,
        crosscheck(ground_rec, [0.5], Harmonic(omega=1.0), 1e-3) / oracles.ground_sigma(1.0),
    ]
    assert acceptance_report(
        "criterion 02 guidance vs newton route", max(gaps), ROUTE_GAP_BOUND, started,
        extra="largest gap in packet widths, t in [0, 2]",
    )
    assert time.perf_counter() - started < 10.0


def test_criterion_03_harmonic_ground_state_is_static(acceptance_report):
    started = time.perf_counter()
    grid = make_grid(1, -10.0, 10.0, 128)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, oracles.ground_sigma(1.0))
    qf = compute_qfields(wf)
    x = grid.axes()[0]
    statics_dev = np.abs(qf.q + 0.5 * x**2 - 0.5)[qf.valid].max()
    assert statics_dev < STATICS_BOUND
    record = evolve_quiet(wf, Harmonic(omega=1.0), 5.0, 1e-4, snapshot_stride=2500)
    drift = max(
        np.abs(integrate_guidance(record, [x0], 0.5).positions[:, 0] - x0).max()
        for x0 in (0.5, -1.0)
    )
    assert acceptance_report(
        "criterion 03 stationary ground state", drift, REST_DRIFT_BOUND, started,
        extra=f"rest drift over t=5; Q+V deviation {statics_dev:.1e}",
    )
    assert time.perf_counter() - started < 10.0


def test_criterion_04_free_packet_spreading_law(acceptance_report):
    started = time.perf_counter()
    grid = make_grid(1, -15.0, 15.0, 384)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
    record = evolve_quiet(wf, Free(), 2.0, 1e-3, snapshot_stride=50)
    starts = np.array([[0.5], [1.0], [2.0]])
    _, positions = integrate_guidance_batch(record, starts, 0.05)
    want = np.array([oracles.spread_position(2.0, x0, 1.0) for x0 in starts[:, 0]])
    relative = np.abs(positions[-1, :, 0] - want) / np.abs(want)
    assert acceptance_report(
        "criterion 04 spreading-law trajectories", relative.max(),
        SPREADING_RELATIVE_BOUND, started, extra="relative error at t=2",
    )
    assert time.perf_counter() - started < 10.0


def test_criterion_05_transported_ensemble_stays_in_equilibrium(acceptance_report):
    started = time.perf_counter()
    grid = make_grid(1, -15.0, 15.0, 384)
    wf = init_gaussian(grid, PhysicalParams(), 0.0, 1.0)
    record = evolve_quiet(wf, Free(), 2.0, 1e-3, snapshot_stride=50)
    spec = EnsembleSpec(10_000, 29, record.snapshots[0])
    distances = []
    for t, _, positions, _ in evolve_ensemble(spec, record, 0.1):
        snap = record.snapshots[int(round(t / record.snapshot_spacing))]
        distances.append(equivariance_distance(positions, snap))
    bound = KS_SLACK * KS_CRITICAL_95 / np.sqrt(10_000)
    assert acceptance_report(
        "criterion 05 equivariance", max(distances), bound, started,
        extra="max KS distance, M=10^4, t in [0, 2]",
    )
    assert time.perf_counter() - started < 60.0


def test_criterion_06_center_of_mass_obeys_newtons_law(acceptance_report):
    started = time.perf_counter()
    spec_large = FactorizedNBody.homogeneous(1000, external=Linear(force=0.5))
    accelerations = []
    medians_large = []
    for seed in range(20):
        result = run_cm_experiment(spec_large, 2.0, 0.01, seed=seed)
        accelerations.append(result.fit_acceleration())
        medians_large.append(np.median(np.abs(result.quantum_force_per_particle)))
    accelerations = np.array(accelerations)
    standard_error = accelerations.std(ddof=1) / np.sqrt(len(accelerations))

    spec_small = FactorizedNBody.homogeneous(10, external=Linear(force=0.5))
    medians_small = [
        np.median(np.abs(run_cm_experiment(spec_small, 2.0, 0.01, seed=seed).quantum_force_per_particle))
        for seed in range(20)
    ]
    shrinkage = np.median(medians_small) / np.median(medians_large)
    assert SHRINKAGE_WINDOW[0] <= shrinkage <= SHRINKAGE_WINDOW[1]
    assert acceptance_report(
        "criterion 06 CM Newton law", abs(accelerations.mean() - 0.5),
        3.0 * standard_error, started,
        extra=f"20 seeds, N=1000; per-particle force shrinkage x{shrinkage:.1f}",
    )
    assert time.perf_counter() - started < 300.0


def test_criterion_07_summed_quantum_force_stays_microscopic(acceptance_report):
    started = time.perf_counter()
    worst = 0.0
    scale = np.inf
    for n in (100, 1000, 10_000):
        spec = FactorizedNBody.homogeneous(n)
        result = run_cm_experiment(spec, 1.0, 0.01, sampling="stratified")
        worst = max(worst, np.abs(result.quantum_force).max())
        scale = min(scale, result.f_q_max)
        assert not result.classical_force.any()
    assert acceptance_report(
        "criterion 07 summed quantum force", worst, scale, started,
        extra="stratified positions, N up to 10^4, bound is one packet's force scale",
    )
    assert time.perf_counter() - started < 60.0


def test_criterion_08_symmetrized_packets_never_change_sector(acceptance_report):
    started = time.perf_counter()
    grid = make_grid(1, -8.0, 8.0, 128)
    params = PhysicalParams()
    psi_a = init_gaussian(grid, params, -2.5, 0.5)
    psi_b = init_gaussian(grid, params, +2.5, 0.5)
    sym = build_symmetrized(psi_a, psi_b)
    offsets = np.linspace(-0.6, 0.6, 10)
    starts = [[-2.5 + d, 2.5 - d] for d in offsets] + [[2.5 - d, -2.5 + d] for d in offsets]
    report = no_tunneling_check(sym, starts, t_final=1.0, dt=0.01)
    assert sorted(set(report.initial_sector.tolist())) == [1, 2]
    assert acceptance_report(
        "criterion 08 sector residency", report.residency.min(), 1.0, started,
        kind="min", extra="10 starts per sector, t in [0, 1]",
    )
    assert time.perf_counter() - started < 120.0


def test_criterion_09_coherent_condensate_cm_drifts_inertially(acceptance_report):
    started = time.perf_counter()
    result = run_bec_experiment(1.0, 1000, 20.0, 2.0, dt=0.01, seed=0)
    line_dev = np.abs(result.x_cm - result.x_cm[0] - 1.0 * result.times).max()
    assert line_dev < 1e-8
    assert result.contrast_ratio >= CONTRAST_FLOOR
    assert acceptance_report(
        "criterion 09 condensate counterexample", abs(result.fit_velocity() - 1.0),
        SLOPE_BOUND, started,
        extra=f"CM slope error; force contrast {result.contrast_ratio:.2f} stays large",
    )
    assert time.perf_counter() - started < 10.0


def test_criterion_10_solver_quality_gates(acceptance_report):
    started = time.perf_counter()
    params = PhysicalParams()
    line_grid = make_grid(1, -10.0, 10.0, 256)
    pi_grid = make_grid(1, -5.0 * np.pi, 5.0 * np.pi, 256)

    ground = init_gaussian(line_grid, params, 0.0, oracles.ground_sigma(1.0))
    free_wf = init_gaussian(line_grid, params, 0.0, 1.0)
    plane = init_plane_wave(pi_grid, params, 2.0)
    records = [
        evolve_quiet(free_wf, Free(), 1.0, 1e-3, snapshot_stride=100),
        evolve_quiet(ground, Harmonic(omega=1.0), 1.0, 1e-3, snapshot_stride=100),
        evolve_quiet(plane, Free(), 1.0, 1e-3, snapshot_stride=100),
    ]
    unitarity = max(record.norm_drift.max() for record in records)

    # free motion is exact under the splitting, so the convergence rate is
    # measured against the closed-form displaced ground state instead
    conv_grid = make_grid(1, -12.0, 12.0, 512)
    displaced = init_gaussian(conv_grid, params, 1.0, oracles.ground_sigma(1.0))
    target = oracles.coherent_state(conv_grid.axes()[0], 1.0, 1.0)
    errors = []
    for dt in (2e-3, 1e-3):
        record = evolve_quiet(displaced, Harmonic(omega=1.0), 1.0, dt, snapshot_stride=int(round(1.0 / dt)))
        errors.append(np.abs(record.snapshots[-1].amplitudes - target).max())
    ratio = errors[0] / errors[1]
    assert CONVERGENCE_WINDOW[0] <= ratio <= CONVERGENCE_WINDOW[1]

    stationary = evolve_quiet(ground, Harmonic(omega=1.0), 0.1, 1e-4, snapshot_stride=100)
    free_short = evolve_quiet(free_wf, Free(), 0.05, 1e-3, snapshot_stride=1)
    plane_short = evolve_quiet(plane, Free(), 0.05, 1e-3, snapshot_stride=1)
    residuals = {
        "stationary": (stationary, 1e-8),
        "free packet": (free_short, 5e-9),
        "plane wave": (plane_short, 1e-10),
    }
    worst_continuity = 0.0
    for record, bound in residuals.values():
        residual = np.abs(continuity_residual(record)).max()
        assert residual < bound
        worst_continuity = max(worst_continuity, residual)

    assert acceptance_report(
        "criterion 10 solver quality gates", unitarity, UNITARITY_BOUND, started,
        extra=f"norm drift; dt ratio {ratio:.3f}, continuity residual {worst_continuity:.1e}",
    )
    assert time.perf_counter() - started < 60.0
