"""Many-body pilot-wave models built from localized one-body packets.

Three experiments live here:

* ``build_symmetrized`` / ``no_tunneling_check``: a two-body wavefunction
  symmetrized over two well-separated packets splits configuration space
  into two disjoint sectors; trajectories started in one sector stay there.

* ``run_cm_experiment``: N subsystems, each carried by a localized packet
  around a classically moving frame.  Pairwise classical forces cancel in
  the center-of-mass sum exactly, and the summed quantum force shrinks as
  the per-packet samples average out, so the center of mass obeys Newton's
  law under the external force alone.

* ``run_bec_experiment``: the contrasting case of one broad modulus shared
  by all subsystems with a coherent phase.  Every subsystem moves with the
  same velocity, the center of mass is exactly linear, and the quantum
  force does not average away relative to the (vanishing) classical force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _interp
from .ensemble import _fsum, _grid_cdf, _rng, sample_density
from .propagator import Free, PairwiseHarmonic, PotentialSpec, _whole_steps, evolve
from .quantum_potential import compute_qfields
from .trajectories import (
    TrajectoryAbort, _bracket, _eval_fields, _read, _rk4_step, _shared_caches, _step_times,
    integrate_guidance_batch,
)
from .wavefield import (
    Grid,
    PhysicalParams,
    Wavefunction,
    init_gaussian,
    make_grid,
    normalize,
    position_moments,
    velocity_field,
)

# Packets must sit at least this many widths apart for the factorized /
# symmetrized constructions to make sense.
LOCALITY_SEPARATION_SIGMAS = 8.0

# Internal pairwise forces must cancel to this relative level per step.
CANCELLATION_BOUND = 1e-12

# Fraction of subsystems allowed to need resampling before aborting; at least one redraw.
RESAMPLE_ABORT_FRACTION = 1e-3


# --------------------------------------------------------------------------
# symmetrized two-body states
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetrizedTwoBody:
    """(psi_a(x1) psi_b(x2) + psi_b(x1) psi_a(x2)) / sqrt(2), normalized, on a 2D grid."""

    wavefunction: Wavefunction
    centers: tuple[float, float]
    separation: float
    term_overlap: float  # |<psi_a|psi_b>|^2, the overlap of the two terms

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.centers[0] + self.centers[1])

    def sector_of(self, position: np.ndarray) -> np.ndarray:
        """1 or 2 for points inside a sector box, 0 elsewhere; shape (...,)."""
        x = np.atleast_2d(np.asarray(position, dtype=float))
        m = self.midpoint
        side_a = np.sign(self.centers[0] - m)
        in_one = ((x[:, 0] - m) * side_a > 0) & ((x[:, 1] - m) * side_a < 0)
        in_two = ((x[:, 0] - m) * side_a < 0) & ((x[:, 1] - m) * side_a > 0)
        return np.where(in_one, 1, np.where(in_two, 2, 0))


def build_symmetrized(psi_a: Wavefunction, psi_b: Wavefunction) -> SymmetrizedTwoBody:
    """Symmetrize two separated one-dimensional packets over two bodies.

    Raises
    ------
    ValueError
        If the packets share no grid or parameters, or sit closer than 8
        widths apart ("locality assumption violated").  Their term overlap
        is returned as ``term_overlap``, for the caller to gate.
    """
    if psi_a.grid != psi_b.grid:
        raise ValueError("both packets must live on the same 1D grid")
    if psi_a.grid.dims != 1:
        raise ValueError("symmetrization takes one-dimensional packets")
    if psi_a.params != psi_b.params:
        raise ValueError("both packets must share physical parameters")

    mean_a, var_a = position_moments(psi_a)
    mean_b, var_b = position_moments(psi_b)
    widths = (float(np.sqrt(var_a[0])), float(np.sqrt(var_b[0])))
    separation = float(abs(mean_b[0] - mean_a[0]))
    if separation < LOCALITY_SEPARATION_SIGMAS * max(widths):
        raise ValueError(
            f"locality assumption violated: separation {separation:.3g} is below "
            f"{LOCALITY_SEPARATION_SIGMAS} x max width {max(widths):.3g}"
        )
    cell = psi_a.grid.cell_volume
    single_overlap = abs(np.sum(np.conj(psi_a.amplitudes) * psi_b.amplitudes) * cell)
    term_overlap = float(single_overlap**2)

    lo, hi = psi_a.grid.extents[0]
    n = psi_a.grid.points[0]
    grid2 = make_grid(2, lo, hi, n)
    c = complex(2**-0.5)
    amps = c * np.outer(psi_a.amplitudes, psi_b.amplitudes) + c * np.outer(psi_b.amplitudes, psi_a.amplitudes)
    wf2 = normalize(Wavefunction(grid2, psi_a.params, amps, time=0.0))
    return SymmetrizedTwoBody(
        wavefunction=wf2,
        centers=(float(mean_a[0]), float(mean_b[0])),
        separation=separation,
        term_overlap=term_overlap,
    )


@dataclass(frozen=True)
class SectorReport:
    """Sector residency of trajectories under a symmetrized two-body state."""

    times: np.ndarray
    positions: np.ndarray  # (n_times, n_traj, 2)
    sectors: np.ndarray  # (n_times, n_traj) of 1/2/0 labels
    initial_sector: np.ndarray  # (n_traj,)
    residency: np.ndarray  # (n_traj,) fraction of recorded times in the initial sector


def no_tunneling_check(
    sym: SymmetrizedTwoBody,
    x0,
    t_final: float,
    dt: float = 0.01,
) -> SectorReport:
    """Evolve the symmetrized state freely and report per-trajectory sector residency.

    ``x0`` is one point (2,) or a batch (k, 2); every start must lie inside
    a sector box.  Snapshots are spaced at dt/2 so all RK4 stages land on
    recorded times.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    initial = sym.sector_of(x0)
    if (initial == 0).any():
        raise ValueError("every initial condition must lie inside a sector box")
    record = evolve(sym.wavefunction, Free(), t_final, 0.5 * dt, snapshot_stride=1)
    times, positions = integrate_guidance_batch(record, x0, dt)
    sectors = np.stack([sym.sector_of(positions[i]) for i in range(len(times))])
    residency = (sectors == initial[None, :]).mean(axis=0)
    return SectorReport(
        times=times,
        positions=positions,
        sectors=sectors,
        initial_sector=initial,
        residency=residency,
    )


# --------------------------------------------------------------------------
# factorized N-body center-of-mass dynamics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizedNBody:
    """N localized packets riding classical frames, factorized modulus.

    Every subsystem is a Gaussian packet of width ``sigma`` and mass ``mass``;
    frames are classical positions/velocities advanced by the external force
    and the optional nearest-neighbour pairwise coupling.
    """

    sigma: float
    frame_positions: np.ndarray
    frame_velocities: np.ndarray
    mass: float = 1.0
    external: PotentialSpec = Free()
    coupling: PairwiseHarmonic | None = None
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "frame_positions", np.asarray(self.frame_positions, dtype=float))
        object.__setattr__(self, "frame_velocities", np.asarray(self.frame_velocities, dtype=float))
        if self.coupling is not None and not isinstance(self.coupling, PairwiseHarmonic):
            raise TypeError("coupling must be a PairwiseHarmonic (or None)")
        n = len(self.frame_positions)
        if n < 10:
            raise ValueError(f"need at least 10 subsystems, got {n}")
        if len(self.frame_velocities) != n:
            raise ValueError("frame_positions and frame_velocities must share length")
        spacing = np.diff(np.sort(self.frame_positions)).min()
        if spacing < LOCALITY_SEPARATION_SIGMAS * self.sigma:
            raise ValueError(
                f"locality assumption violated: frame spacing {spacing:.3g} is below "
                f"{LOCALITY_SEPARATION_SIGMAS} x packet width {self.sigma:.3g}"
            )

    @property
    def n_subsystems(self) -> int:
        return len(self.frame_positions)

    @property
    def total_mass(self) -> float:
        return float(self.mass * self.n_subsystems)

    @classmethod
    def homogeneous(
        cls,
        n: int,
        sigma: float = 1.0,
        mass: float = 1.0,
        external: PotentialSpec = Free(),
        coupling: float | None = None,
        hbar: float = 1.0,
    ) -> "FactorizedNBody":
        """Subsystems at rest on a centered lattice of frames 10 sigma apart.

        ``coupling``, if given, is the spring constant of nearest-neighbour
        springs whose rest length is the lattice spacing.
        """
        spacing = 10.0 * sigma
        frames = (np.arange(n) - 0.5 * (n - 1)) * spacing
        return cls(
            sigma=sigma,
            frame_positions=frames,
            frame_velocities=np.zeros(n),
            mass=mass,
            external=external,
            coupling=None if coupling is None else PairwiseHarmonic(coupling=float(coupling), rest_length=spacing),
            hbar=hbar,
        )


@dataclass(frozen=True)
class CMResult:
    """Center-of-mass time series and force bookkeeping of one run."""

    times: np.ndarray
    x_cm: np.ndarray
    classical_force: np.ndarray  # total external + pairwise force each step
    quantum_force: np.ndarray  # raw sum of per-subsystem quantum forces
    quantum_force_per_particle: np.ndarray
    f_q_max: float  # largest single quantum force available to one packet
    cancellation_residual: np.ndarray  # |sum of internal pairwise forces| each step
    resample_count: int
    total_mass: float
    contrast_ratio: float  # rms|F_Q| / (rms|F_Q| + rms|F_classical|)
    velocity_spread: float | None = None  # coherent-phase runs only

    def fit_acceleration(self) -> float:
        """Least-squares quadratic fit of x_cm(t); returns the acceleration."""
        coeffs = np.polyfit(self.times, self.x_cm, 2)
        return float(2.0 * coeffs[0])

    def fit_velocity(self) -> float:
        """Least-squares linear fit of x_cm(t); returns the slope."""
        coeffs = np.polyfit(self.times, self.x_cm, 1)
        return float(coeffs[0])


def _chain_forces(coupling: PairwiseHarmonic, x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour spring forces, the spring law of each (x[i+1], x[i]) pair."""
    pair = coupling.force_at(np.stack([x[1:], x[:-1]], axis=-1), None)  # the law reads no mass
    forces = np.zeros_like(x)
    forces[:-1] += pair[:, 1]
    forces[1:] += pair[:, 0]
    return forces


def _sample_from_snapshot(
    rho: np.ndarray, grid: Grid, eroded: np.ndarray, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Samples of the density ``rho`` whose stencils avoid the ``eroded`` node mask, and the count of
    redraws; ``RuntimeError`` naming how many still touch it after 100 rounds of redraws."""
    x = sample_density(rho, grid, count, rng)
    resamples = 0
    for rounds in range(101):
        bad = np.flatnonzero(~_interp.Stencil(grid, x).valid(eroded))
        if not bad.size:
            return x, resamples
        if rounds == 100:
            raise RuntimeError(f"{bad.size} of {count} samples still touch a node region after 100 rounds of redraws")
        resamples += bad.size
        x[bad] = sample_density(rho, grid, bad.size, rng)


def _stratified_offsets(wf: Wavefunction, count: int) -> np.ndarray:
    """Offsets at the (i - 1/2)/count quantiles of |psi|^2 (1D)."""
    nodes, cdf = _grid_cdf(wf)
    levels = (np.arange(count) + 0.5) / count
    return np.interp(levels, cdf, nodes)[:, None]


def run_cm_experiment(
    spec: FactorizedNBody,
    t_final: float,
    dt: float,
    sampling: str = "random",
    seed: int = 0,
) -> CMResult:
    """Transport a factorized N-body configuration and record the CM forces.

    Each subsystem's offset from its frame follows the guidance flow of the
    ``spec.sigma`` packet (256 points on [-10, 10], evolved freely in the
    co-moving frame, which is exact for uniform external forces); frames
    follow classical dynamics.  The recorded classical force is evaluated at
    the actual subsystem positions, and the quantum force is the raw sum over
    subsystems, also reported per particle.  Offsets in a node region at a
    row's force read, the rows its ``TrajectoryAbort`` names, are redrawn there
    and read again, before the step reads velocities; offsets off the grid abort.
    """
    if sampling not in ("random", "stratified"):
        raise ValueError(f"sampling must be 'random' or 'stratified', got {sampling!r}")
    n_steps = _whole_steps(t_final, dt)

    rng = _rng(seed)
    n = spec.n_subsystems
    mass = spec.mass
    total_mass = spec.total_mass
    params = PhysicalParams(spec.hbar, mass)

    # The packet record, snapshots at dt/2 so RK4 stages align, and the
    # initial offsets of the subsystems.
    packet = init_gaussian(make_grid(1, -10.0, 10.0, 256), params, 0.0, spec.sigma)
    record = evolve(packet, Free(), t_final, 0.5 * dt, snapshot_stride=1)
    vel_cache, force_cache = _shared_caches(record, dt)  # read side by side, so each row is computed once
    f_q_max = compute_qfields(packet).f_q_max
    resample_count = 0
    if sampling == "stratified":
        offsets = _stratified_offsets(packet, n)
    else:
        _, eroded = force_cache.fields(0)
        rho = np.abs(packet.amplitudes) ** 2
        offsets, resample_count = _sample_from_snapshot(rho, packet.grid, eroded, n, rng)
    if resample_count > max(1.0, RESAMPLE_ABORT_FRACTION * n):
        raise RuntimeError(
            f"{resample_count} of {n} offsets needed resampling; sampling is unreliable"
        )

    frames = spec.frame_positions.copy()
    frame_velocities = spec.frame_velocities.copy()

    def frame_force(positions: np.ndarray) -> np.ndarray:
        out = spec.external.force_at(positions[:, None], params)[:, 0]
        if spec.coupling is not None:
            out += _chain_forces(spec.coupling, positions)
        return out

    times = _step_times(record, dt)
    x_cm = np.empty(n_steps + 1)
    classical_force = np.empty(n_steps + 1)
    quantum_force = np.empty(n_steps + 1)
    cancellation = np.empty(n_steps + 1)
    # kick-drift-kick: the closing kick's force opens the next step
    force = frame_force(frames)

    for row in range(n_steps + 1):
        t = float(times[row])
        positions = frames + offsets[:, 0]
        external_total = _fsum(spec.external.force_at(positions[:, None], params)[:, 0])
        pairwise_total = 0.0
        if spec.coupling is not None:
            pairwise = _chain_forces(spec.coupling, positions)
            pairwise_total = _fsum(pairwise)
            limit = CANCELLATION_BOUND * n * max(np.abs(pairwise).max(), 1e-300)
            if abs(pairwise_total) > limit:
                raise RuntimeError(
                    f"internal pairwise forces failed to cancel: {pairwise_total:.3e} > {limit:.3e}"
                )
        cancellation[row] = abs(pairwise_total)
        classical_force[row] = external_total + pairwise_total
        x_cm[row] = _fsum(mass * positions) / total_mass
        # The quantum force at the offsets, redrawing those in node regions.
        try:
            q = _eval_fields(force_cache, t, offsets)
        except TrajectoryAbort as abort:
            if abort.left_grid:
                raise
            bad = abort.indices
            snap, _ = _bracket(record, t)
            rho = np.abs(record.rows(snap)) ** 2
            drawn, redraws = _sample_from_snapshot(rho, record.grid, force_cache.fields(snap)[1], bad.size, rng)
            offsets[bad] = drawn
            resample_count += bad.size + redraws
            if resample_count > max(1.0, RESAMPLE_ABORT_FRACTION * max(n, n * n_steps // 100)):
                raise RuntimeError("too many offsets entered node regions; model assumptions broken")
            q = _eval_fields(force_cache, t, offsets)
        quantum_force[row] = _fsum(q[:, 0])
        if row == n_steps:
            break
        # Offsets: RK4 along the packet's guidance flow.
        offsets = _rk4_step(vel_cache, t, float(times[row + 1]), offsets, dt, _eval_fields(vel_cache, t, offsets))
        # Frames: kick-drift-kick under the classical forces.
        half_kick = frame_velocities + 0.5 * dt * force / mass
        frames = frames + dt * half_kick
        force = frame_force(frames)
        frame_velocities = half_kick + 0.5 * dt * force / mass

    rms_q = float(np.sqrt(np.mean(quantum_force**2)))
    rms_cl = float(np.sqrt(np.mean(classical_force**2)))
    contrast = rms_q / (rms_q + rms_cl) if (rms_q + rms_cl) > 0 else float("nan")
    return CMResult(
        times=times,
        x_cm=x_cm,
        classical_force=classical_force,
        quantum_force=quantum_force,
        quantum_force_per_particle=quantum_force / n,
        f_q_max=f_q_max,
        cancellation_residual=cancellation,
        resample_count=resample_count,
        total_mass=total_mass,
        contrast_ratio=contrast,
    )


def run_bec_experiment(
    velocity: float,
    n_subsystems: int,
    packet_width: float,
    t_final: float,
    dt: float = 0.01,
    seed: int = 0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> CMResult:
    """Coherent-phase contrast run: one broad modulus, phase m v x per body.

    The phase gradient gives every subsystem exactly the velocity ``v``, so
    the center of mass moves on a straight line regardless of any quantum
    force budget.  Because all subsystems share one delocalized modulus, the
    summed quantum force does *not* average out against the classical force
    (both are essentially zero here; the contrast ratio stays of order 1),
    unlike the factorized case.
    """
    if n_subsystems < 10:
        raise ValueError(f"need at least 10 subsystems, got {n_subsystems}")
    n_steps = _whole_steps(t_final, dt)
    half = 8.0 * packet_width
    grid = make_grid(1, -half, half, 512)
    params = PhysicalParams(hbar, mass)
    wf = init_gaussian(grid, params, 0.0, packet_width, wavenumber=mass * velocity / hbar)

    rng = _rng(seed)
    qf = compute_qfields(wf)
    eroded = _interp.erode(qf.valid, 1)
    x0, resamples = _sample_from_snapshot(np.abs(wf.amplitudes) ** 2, grid, eroded, n_subsystems, rng)

    v_i, fq_i = _read(grid, 0.0, x0, np.concatenate([velocity_field(wf), qf.force]), eroded).T
    spread = float(v_i.max() - v_i.min())
    fq_total = _fsum(fq_i)

    # The common modulus co-moves with the coherent flow, so offsets from the
    # cloud are constant and each subsystem keeps its phase-gradient velocity.
    times = dt * np.arange(n_steps + 1)
    x_cm0 = _fsum(x0[:, 0]) / n_subsystems
    v_cm = _fsum(v_i) / n_subsystems
    x_cm = x_cm0 + v_cm * times
    quantum_force = np.full(n_steps + 1, fq_total)
    classical_force = np.zeros(n_steps + 1)

    rms_q = float(np.sqrt(np.mean(quantum_force**2)))
    contrast = rms_q / (rms_q + 0.0) if rms_q > 0 else float("nan")
    return CMResult(
        times=times,
        x_cm=x_cm,
        classical_force=classical_force,
        quantum_force=quantum_force,
        quantum_force_per_particle=quantum_force / n_subsystems,
        f_q_max=qf.f_q_max,
        cancellation_residual=np.zeros(n_steps + 1),
        resample_count=resamples,
        total_mass=mass * n_subsystems,
        contrast_ratio=contrast,
        velocity_spread=spread,
    )
