"""Config-driven experiment runner with a small INI-like grammar.

A config file holds an ``experiment = <name>`` line followed by optional
``[grid]``, ``[physics]``, ``[run]``, and ``[output]`` sections of
``key = value`` pairs; ``#`` starts a comment.  Unknown sections or keys are
rejected with their line number, as are out-of-range values.  Every key has
a default, so the minimal config is a single experiment line.

Each run writes ``series.csv`` (per-step quantities), ``trajectories.csv``
where paths are produced, and ``report.txt`` with one PASS/FAIL line per
contract.  Numeric CSV cells use shortest round-trip formatting (17
significant digits suffice to reparse exactly), and a fixed seed makes
outputs byte-identical across runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .ensemble import EnsembleSpec, equivariance_distance, evolve_ensemble
from .manybody import (
    FactorizedNBody,
    build_symmetrized,
    no_tunneling_check,
    run_bec_experiment,
    run_cm_experiment,
)
from .propagator import Free, Harmonic, Linear, continuity_residual, evolve
from .quantum_potential import averaged_quantum_force, compute_qfields, hamilton_jacobi_energy
from .trajectories import crosscheck, integrate_guidance
from .wavefield import (
    PhysicalParams,
    init_gaussian,
    init_plane_wave,
    make_grid,
    normalize,
    position_moments,
    velocity_batch,
    Wavefunction,
)

POTENTIALS = ("free", "harmonic", "linear", "barrier")
SAMPLING_MODES = ("random", "stratified")


class ConfigError(ValueError):
    """Config parse or validation failure, with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class GridConfig:
    dims: int = 1
    x_min: float = -10.0
    x_max: float = 10.0
    points: int = 256


@dataclass(frozen=True)
class PhysicsConfig:
    hbar: float = 1.0
    mass: float = 1.0
    potential: str = "free"
    omega: float = 1.0
    force: float = 0.5
    barrier_height: float = 1.0
    barrier_center: float = 0.0
    barrier_width: float = 1.0
    sigma: float = 1.0
    x0: float = 0.0
    k0: float = 0.0
    separation: float = 5.0
    velocity: float = 1.0
    f_ext: float = 0.5
    packet_width: float = 20.0


@dataclass(frozen=True)
class RunConfig:
    dt: float = 1e-3
    t_final: float = 2.0
    snapshot_stride: int = 10
    seed: int = 42
    m_samples: int = 10000
    n_subsystems: int = 1000
    sampling: str = "random"


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    stride: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    grid: GridConfig = field(default_factory=GridConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    run: RunConfig = field(default_factory=RunConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_SECTIONS = {
    "grid": GridConfig,
    "physics": PhysicsConfig,
    "run": RunConfig,
    "output": OutputConfig,
}

# Defaults that differ per experiment, applied before file overrides.
_EXPERIMENT_DEFAULTS: dict[str, dict[str, dict[str, object]]] = {
    "free-gaussian": {"run": {"dt": 1e-3, "t_final": 2.0, "snapshot_stride": 100}},
    "harmonic-ground": {
        "physics": {"potential": "harmonic", "omega": 1.0},
        "run": {"dt": 1e-4, "t_final": 1.0, "snapshot_stride": 500},
    },
    "equivariance": {"run": {"dt": 0.01, "t_final": 2.0, "m_samples": 10000}},
    "no-tunneling": {
        "grid": {"dims": 2, "x_min": -8.0, "x_max": 8.0, "points": 128},
        "physics": {"sigma": 0.5},
        "run": {"dt": 0.01, "t_final": 1.0},
    },
    "cm-newton": {"run": {"dt": 0.01, "t_final": 2.0, "n_subsystems": 1000}},
    "bec": {"run": {"dt": 0.01, "t_final": 2.0, "n_subsystems": 1000}},
    "crosscheck": {"run": {"dt": 1e-3, "t_final": 2.0}},
}


def _parse_value(kind: type, raw: str, line: int, key: str):
    raw = raw.strip()
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(line, f"{key} expects an integer, got {raw!r}") from None
    if kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(line, f"{key} expects a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(line, f"{key} expects a finite number, got {raw!r}")
        return value
    return raw


def _validate(section: str, key: str, value, line: int) -> None:
    def fail(message: str):
        raise ConfigError(line, f"{section}.{key}: {message}")

    if section == "grid":
        if key == "dims" and value not in (1, 2):
            fail(f"dims must be 1 or 2, got {value}")
        if key == "points" and value < 16:
            fail(f"points must be >= 16, got {value}")
    elif section == "physics":
        if key == "potential" and value not in POTENTIALS:
            fail(f"potential must be one of {POTENTIALS}, got {value!r}")
        if key in ("hbar", "mass", "sigma", "packet_width") and value <= 0:
            fail(f"must be positive, got {value}")
    elif section == "run":
        if key in ("dt", "t_final") and value <= 0:
            fail(f"must be positive, got {value}")
        if key == "snapshot_stride" and value < 1:
            fail(f"must be >= 1, got {value}")
        if key == "seed" and value < 0:
            fail(f"must be non-negative, got {value}")
        if key == "m_samples" and value < 100:
            fail(f"must be >= 100, got {value}")
        if key == "n_subsystems" and value < 10:
            fail(f"must be >= 10, got {value}")
        if key == "sampling" and value not in SAMPLING_MODES:
            fail(f"sampling must be one of {SAMPLING_MODES}, got {value!r}")
    elif section == "output":
        if key == "stride" and value < 1:
            fail(f"must be >= 1, got {value}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text; raises ``ConfigError`` with line numbers."""
    experiment: str | None = None
    experiment_line = 0
    overrides: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    override_lines: dict[str, dict[str, int]] = {name: {} for name in _SECTIONS}
    section: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(lineno, f"malformed section header {raw_line.strip()!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    lineno, f"unknown section [{name}]; expected one of {sorted(_SECTIONS)}"
                )
            section = name
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not raw_value:
            raise ConfigError(lineno, f"missing value for {key!r}")
        if section is None:
            if key != "experiment":
                raise ConfigError(lineno, f"unknown top-level key {key!r}; only 'experiment'")
            if raw_value not in EXPERIMENTS:
                raise ConfigError(
                    lineno, f"unknown experiment {raw_value!r}; see 'bohmsim list-experiments'"
                )
            experiment = raw_value
            experiment_line = lineno
            continue
        cls = _SECTIONS[section]
        known = {f.name: f.type for f in fields(cls)}
        if key not in known:
            raise ConfigError(lineno, f"unknown key {key!r} in section [{section}]")
        kind = {"int": int, "float": float, "str": str}[known[key]]
        value = _parse_value(kind, raw_value, lineno, key)
        _validate(section, key, value, lineno)
        overrides[section][key] = value
        override_lines[section][key] = lineno
    if experiment is None:
        raise ConfigError(1, "missing required top-level key 'experiment'")

    merged: dict[str, object] = {"experiment": experiment}
    per_experiment = _EXPERIMENT_DEFAULTS.get(experiment, {})
    for name, cls in _SECTIONS.items():
        values = dict(per_experiment.get(name, {}))
        values.update(overrides[name])
        merged[name] = cls(**values)
    config = ExperimentConfig(**merged)
    if config.grid.x_max <= config.grid.x_min:
        line = override_lines["grid"].get("x_max", override_lines["grid"].get("x_min", experiment_line))
        raise ConfigError(line, f"degenerate extent: x_min={config.grid.x_min} >= x_max={config.grid.x_max}")
    return config


def parse_config_file(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# --------------------------------------------------------------------------
# reports and output files
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractCheck:
    """One pass/fail contract: measured vs. bound."""

    name: str
    measured: float
    bound: float
    kind: str = "max"  # "max": measured <= bound passes; "min": measured >= bound

    @property
    def passed(self) -> bool:
        if math.isnan(self.measured):
            return False
        if self.kind == "min":
            return self.measured >= self.bound
        return self.measured <= self.bound


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    checks: tuple[ContractCheck, ...]
    outputs: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"experiment: {self.experiment}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            relation = ">=" if c.kind == "min" else "<="
            out.append(f"{status} {c.name}: measured={c.measured!r} {relation} bound={c.bound!r}")
        out.append("result: " + ("ALL PASS" if self.all_passed else "FAILED"))
        return out


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _config_echo(config: ExperimentConfig, seed: int) -> list[str]:
    lines = [f"bohmsim {__version__}", f"experiment = {config.experiment}"]
    for name in _SECTIONS:
        block = getattr(config, name)
        for f in fields(block):
            value = getattr(block, f.name)
            if name == "run" and f.name == "seed":
                value = seed
            lines.append(f"[{name}] {f.name} = {_fmt(value)}")
    return lines


def _write_csv(path: str, metadata: list[str], header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# --------------------------------------------------------------------------
# experiment implementations
# --------------------------------------------------------------------------

def _worst(values) -> float:
    """Largest of the values, NaN if any is NaN (Python's ``max`` would drop a NaN that is not first)."""
    return float(np.max(list(values)))


def _grid_params(config: ExperimentConfig):
    g = config.grid
    grid = make_grid(g.dims, g.x_min, g.x_max, g.points)
    params = PhysicalParams(config.physics.hbar, (config.physics.mass,))
    return grid, params


def _run_free_gaussian(config: ExperimentConfig, seed: int):
    grid, params = _grid_params(config)
    p, r = config.physics, config.run
    wf = init_gaussian(grid, params, p.x0, p.sigma, p.k0)
    record = evolve(wf, Free(), r.t_final, r.dt, snapshot_stride=r.snapshot_stride)
    residuals = continuity_residual(record)
    sigma0 = p.sigma
    hbar, mass = params.hbar, params.masses[0]
    rows = []
    for i, snap in enumerate(record.snapshots):
        t = float(record.times[i])
        _, var = position_moments(snap)
        expected = sigma0**2 * (1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)
        res = np.abs(residuals[i - 1]).max() if i > 0 else 0.0
        rows.append([t, var[0], expected, float(abs(var[0] - expected) / expected), res])
    checks = (
        ContractCheck("variance-law-relative-error", _worst(row[3] for row in rows), 1e-6),
        ContractCheck("norm-drift-per-step", float(record.norm_drift.max()), 1e-10),
        ContractCheck("continuity-residual-max", float(np.abs(residuals).max()), 1e-4),
    )
    header = ["time", "variance", "variance_expected", "variance_rel_error", "continuity_residual"]
    return checks, header, rows, None


def _run_harmonic_ground(config: ExperimentConfig, seed: int):
    grid, params = _grid_params(config)
    p, r = config.physics, config.run
    omega = p.omega
    sigma = float(np.sqrt(params.hbar / (2.0 * params.masses[0] * omega)))
    wf = init_gaussian(grid, params, p.x0, sigma)
    potential = Harmonic(omega=omega, center=p.x0)
    record = evolve(wf, potential, r.t_final, r.dt, snapshot_stride=r.snapshot_stride)
    probe = p.x0 + sigma
    target = 0.5 * params.hbar * omega
    rows = []
    velocities, valid = velocity_batch(record.amplitudes, grid, params)
    for i, snap in enumerate(record.snapshots):
        energy = hamilton_jacobi_energy(snap, potential, [probe])
        speed = float(np.abs(velocities[i, 0][valid[i]]).max())
        rows.append([float(record.times[i]), energy, speed])
    traj = integrate_guidance(record, [probe], dt=r.dt * r.snapshot_stride)
    drift = float(np.abs(traj.positions[:, 0] - probe).max())
    checks = (
        ContractCheck("energy-deviation-at-probe", _worst(abs(row[1] - target) for row in rows), 1e-6),
        ContractCheck("max-guidance-speed", _worst(row[2] for row in rows), 1e-6),
        ContractCheck("particle-drift", drift, 1e-8),
        ContractCheck("norm-drift-per-step", float(record.norm_drift.max()), 1e-10),
    )
    header = ["time", "energy_at_probe", "max_speed"]
    return checks, header, rows, (["time", "x"], zip(traj.times, traj.positions[:, 0]))


def _run_equivariance(config: ExperimentConfig, seed: int):
    grid, params = _grid_params(config)
    p, r = config.physics, config.run
    wf = init_gaussian(grid, params, p.x0, p.sigma, p.k0)
    record = evolve(wf, Free(), r.t_final, 0.5 * r.dt, snapshot_stride=10)
    spec = EnsembleSpec(count=r.m_samples, seed=seed, wavefunction=wf)
    ens = evolve_ensemble(spec, record, r.dt)
    ks_values = [
        equivariance_distance(ens.positions[row][:, 0], record.snapshots[snap_idx])
        for row, snap_idx in enumerate(ens.snapshot_indices)
    ]
    rows = zip(ens.times, ks_values, ens.mean_position[:, 0], ens.mean_force[:, 0])
    # 95% one-sample KS critical value 1.358/sqrt(M), with 1.5x slack
    bound = 1.5 * 1.358 / np.sqrt(r.m_samples)
    worst = _worst(ks_values)
    checks = (
        ContractCheck("ks-distance-max", worst, float(bound)),
        ContractCheck("ks-growth-ratio", worst / ks_values[0], 2.0),
    )
    header = ["time", "ks_distance", "mean_position", "mean_quantum_force"]
    return checks, header, rows, None


def _run_averaging_identity(config: ExperimentConfig, seed: int):
    grid, params = _grid_params(config)
    p = config.physics
    suite: list[tuple[str, Wavefunction]] = []
    for name, center, sigma, k0 in [
        ("gaussian-narrow", -2.0, 0.5, 0.0),
        ("gaussian-unit", 0.0, 1.0, 0.0),
        ("gaussian-wide", 0.0, 1.25, 0.0),
        ("gaussian-boosted", 0.0, 1.0, 3.0),
    ]:
        suite.append((name, init_gaussian(grid, params, center, sigma, k0)))
    a = init_gaussian(grid, params, -1.5, 0.6)
    b = init_gaussian(grid, params, 1.5, 0.6)
    hump = normalize(
        Wavefunction(grid, params, a.amplitudes + b.amplitudes, 0.0)
    )
    suite.append(("double-hump", hump))
    sigma_ground = float(np.sqrt(params.hbar / (2.0 * params.masses[0])))
    suite.append(("harmonic-ground", init_gaussian(grid, params, 0.0, sigma_ground)))
    rows = []
    for name, wf in suite:
        integral = float(averaged_quantum_force(wf)[0])
        scale = compute_qfields(wf).f_q_max
        rows.append([name, integral, scale, abs(integral) / scale])
    checks = (ContractCheck("averaging-identity-relative", _worst(row[3] for row in rows), 1e-8),)
    header = ["state", "integral", "f_q_max", "relative"]
    return checks, header, rows, None


def _run_no_tunneling(config: ExperimentConfig, seed: int):
    g, p, r = config.grid, config.physics, config.run
    grid1 = make_grid(1, g.x_min, g.x_max, g.points)
    params = PhysicalParams(p.hbar, (p.mass,))
    half = 0.5 * p.separation
    psi_a = init_gaussian(grid1, params, -half, p.sigma)
    psi_b = init_gaussian(grid1, params, +half, p.sigma)
    sym = build_symmetrized(psi_a, psi_b)
    # imported here: statistics pulls in decimal and fractions at import time
    from statistics import NormalDist

    z = np.array([NormalDist().inv_cdf((i + 0.5) / 10.0) for i in range(10)])
    starts = []
    for zi, zj in zip(z, z[::-1]):
        starts.append([-half + zi * p.sigma, half + zj * p.sigma])  # sector 1
    for zi, zj in zip(z, z[::-1]):
        starts.append([half + zi * p.sigma, -half + zj * p.sigma])  # sector 2
    report = no_tunneling_check(sym, np.asarray(starts), r.t_final, dt=r.dt)
    rows = zip(report.times, (report.sectors == 1).sum(axis=1), (report.sectors == 2).sum(axis=1))
    checks = (
        ContractCheck("min-sector-residency", float(report.residency.min()), 1.0, kind="min"),
        ContractCheck("term-overlap", sym.term_overlap, 1e-8),
    )
    header = ["time", "in_sector_1", "in_sector_2"]
    traj_header = ["time"]
    for j in range(report.positions.shape[1]):
        traj_header += [f"x1_{j}", f"x2_{j}"]
    paths = np.column_stack([report.times, report.positions.reshape(len(report.times), -1)])
    return checks, header, rows, (traj_header, paths)


def _run_cm_newton(config: ExperimentConfig, seed: int):
    p, r = config.physics, config.run
    spec = FactorizedNBody.homogeneous(
        r.n_subsystems,
        sigma=p.sigma,
        mass=p.mass,
        external=Linear(force=p.f_ext),
        hbar=p.hbar,
    )
    result = run_cm_experiment(spec, r.t_final, r.dt, sampling=r.sampling, seed=seed)
    expected = p.f_ext * r.n_subsystems / result.total_mass
    fitted = result.fit_acceleration()
    rows = zip(
        result.times,
        result.x_cm,
        result.classical_force,
        result.quantum_force,
        result.quantum_force_per_particle,
        result.cancellation_residual,
    )
    checks = (
        ContractCheck("acceleration-error", abs(fitted - expected), 0.05 * abs(expected)),
        ContractCheck(
            "quantum-vs-external-force",
            float(np.abs(result.quantum_force).max() / (p.f_ext * r.n_subsystems)),
            0.05,
        ),
        ContractCheck("contrast-ratio", result.contrast_ratio, 0.05),
        ContractCheck("resample-fraction", result.resample_count / r.n_subsystems, 1e-3),
    )
    header = ["time", "x_cm", "classical_force", "quantum_force", "quantum_force_per_particle", "cancellation_residual"]
    return checks, header, rows, None


def _run_bec(config: ExperimentConfig, seed: int):
    p, r = config.physics, config.run
    result = run_bec_experiment(
        p.velocity,
        r.n_subsystems,
        p.packet_width,
        r.t_final,
        dt=r.dt,
        seed=seed,
        hbar=p.hbar,
        mass=p.mass,
    )
    slope = result.fit_velocity()
    rows = zip(result.times, result.x_cm, result.quantum_force)
    checks = (
        ContractCheck("cm-slope-error", abs(slope - p.velocity), 1e-9),
        ContractCheck("velocity-spread", float(result.velocity_spread), 1e-6),
        ContractCheck("contrast-ratio", result.contrast_ratio, 0.5, kind="min"),
    )
    header = ["time", "x_cm", "quantum_force"]
    return checks, header, rows, None


def _run_crosscheck(config: ExperimentConfig, seed: int):
    grid, params = _grid_params(config)
    p, r = config.physics, config.run
    cases = []
    wf = init_gaussian(grid, params, 0.0, p.sigma)
    cases.append(("free-gaussian", wf, Free(), p.sigma, p.sigma))
    wf = init_plane_wave(grid, params, 2.0)
    cases.append(("plane-wave", wf, Free(), 0.5, 1.0))
    omega = p.omega
    sigma_g = float(np.sqrt(params.hbar / (2.0 * params.masses[0] * omega)))
    wf = init_gaussian(grid, params, 0.0, sigma_g)
    cases.append(("harmonic-ground", wf, Harmonic(omega=omega), sigma_g, sigma_g))
    rows = []
    for name, wf0, potential, start, width in cases:
        # the record is evolved at dt/8 so the harmonic case stays under the step-size guidance; stride 4
        # stores snapshots dt/2 apart, so every RK4 stage lands on one and none is kept unread.  No name
        # holds the record: it is freed before the next case evolves its own.
        gap = crosscheck(evolve(wf0, potential, r.t_final, 0.125 * r.dt, snapshot_stride=4), [start], potential, r.dt)
        rows.append([name, gap, width, gap / width])
    checks = (ContractCheck("max-route-gap-over-width", _worst(row[3] for row in rows), 1e-3),)
    header = ["case", "max_gap", "width_scale", "relative"]
    return checks, header, rows, None


_RUNNERS = {
    "free-gaussian": _run_free_gaussian,
    "harmonic-ground": _run_harmonic_ground,
    "equivariance": _run_equivariance,
    "averaging-identity": _run_averaging_identity,
    "no-tunneling": _run_no_tunneling,
    "cm-newton": _run_cm_newton,
    "bec": _run_bec,
    "crosscheck": _run_crosscheck,
}

EXPERIMENTS = tuple(_RUNNERS)


def run(
    config: ExperimentConfig,
    out_dir: str | None = None,
    seed: int | None = None,
    quiet: bool = False,
) -> ExperimentReport:
    """Execute an experiment and write series.csv / report.txt (and
    trajectories.csv when the experiment produces paths)."""
    effective_seed = config.run.seed if seed is None else seed
    directory = out_dir if out_dir is not None else config.output.directory
    os.makedirs(directory, exist_ok=True)
    checks, header, rows, trajectories = _RUNNERS[config.experiment](config, effective_seed)
    metadata = _config_echo(config, effective_seed)
    outputs = [os.path.join(directory, "series.csv")]
    _write_csv(outputs[0], metadata, header, list(rows)[:: config.output.stride])
    if trajectories is not None:
        traj_header, traj_rows = trajectories
        outputs.append(os.path.join(directory, "trajectories.csv"))
        _write_csv(outputs[-1], metadata, traj_header, traj_rows)
    outputs.append(os.path.join(directory, "report.txt"))
    report = ExperimentReport(config.experiment, tuple(checks), tuple(outputs))
    with open(outputs[-1], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(report.lines()) + "\n")
    if not quiet:
        for line in report.lines():
            print(line)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bohmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run an experiment from a config file")
    run_parser.add_argument("config", help="path to the config file")
    run_parser.add_argument("--out", default=None, help="output directory (overrides [output])")
    run_parser.add_argument("--seed", type=int, default=None, help="seed override")
    run_parser.add_argument("--quiet", action="store_true", help="suppress report echo")
    val_parser = sub.add_parser("validate", help="parse and validate a config file")
    val_parser.add_argument("config", help="path to the config file")
    sub.add_parser("list-experiments", help="list available experiment names")
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return 0
    try:
        config = parse_config_file(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"ok: experiment={config.experiment}")
        return 0
    if args.seed is not None and args.seed < 0:
        print("config error: --seed must be non-negative", file=sys.stderr)
        return 2
    try:
        report = run(config, out_dir=args.out, seed=args.seed, quiet=args.quiet)
    except (ValueError, RuntimeError, FloatingPointError) as err:  # RuntimeError includes TrajectoryAbort
        print(f"run error: {err}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
