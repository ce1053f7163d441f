"""Tests for the command line front end: config parsing, runs, and output files."""

import math
import re
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmsim import cli, ensemble, manybody, propagator, quantum_potential, trajectories, wavefield
from bohmsim.cli import (
    _SECTIONS,
    EXPERIMENTS,
    ConfigError,
    ContractCheck,
    ExperimentReport,
    main,
    parse_config,
    parse_config_file,
    run,
)
from bohmsim.trajectories import TrajectoryAbort
from test_manybody import force_bad_offsets

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FREE_GAUSSIAN = (CONFIGS / "free_gaussian.cfg").read_text()
CROSSCHECK = (CONFIGS / "crosscheck.cfg").read_text()
EQUIVARIANCE = (CONFIGS / "equivariance.cfg").read_text()
HARMONIC_GROUND = (CONFIGS / "harmonic_ground.cfg").read_text()
CM_NEWTON = (CONFIGS / "cm_newton.cfg").read_text()
NO_TUNNELING = (CONFIGS / "no_tunneling.cfg").read_text()
AVERAGING_IDENTITY = (CONFIGS / "averaging_identity.cfg").read_text()
BEC = (CONFIGS / "bec.cfg").read_text()

# Small enough to run in well under a second while still exercising the
# sampling, resampling, and fit machinery of the many-body driver.
FAST_CM = """\
experiment = cm-newton

[run]
t_final = 0.5
n_subsystems = 50
"""

FAST_EQUIVARIANCE = """\
experiment = equivariance

[run]
t_final = 0.2
m_samples = 500
"""

# Coarse time step on a stationary state: runs fine but blows the drift
# and guidance-speed contracts, which is exactly what we want for the
# failure-path tests.
FAILING_GROUND = """\
experiment = harmonic-ground

[run]
dt = 0.01
t_final = 1.0
snapshot_stride = 10
"""


def with_values(text, **values):
    """Config ``text`` with new values for keys it sets once each (a key set twice is an error)."""
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    return text


def data_rows(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def metadata_rows(path):
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        config = parse_config("experiment = free-gaussian")
        assert config.experiment == "free-gaussian"
        assert config.grid.dims == 1
        assert config.grid.x_min == -10.0
        assert config.grid.x_max == 10.0
        assert config.grid.points == 256
        assert config.physics.potential == "free"
        assert config.physics.sigma == 1.0
        assert config.run.dt == 1e-3
        assert config.run.t_final == 2.0
        assert config.run.snapshot_stride == 100
        assert config.run.seed == 42
        assert config.run.sampling == "random"
        assert config.output.directory == "out"
        assert config.output.stride == 1

    def test_harmonic_ground_overlay(self):
        config = parse_config("experiment = harmonic-ground")
        assert config.physics.potential == "harmonic"
        assert config.run.dt == 1e-4
        assert config.run.snapshot_stride == 500

    def test_no_tunneling_overlay(self):
        config = parse_config("experiment = no-tunneling")
        assert config.grid.dims == 2
        assert config.grid.x_min == -8.0
        assert config.grid.x_max == 8.0
        assert config.grid.points == 128
        assert config.physics.sigma == 0.5
        assert config.run.dt == 0.01
        assert config.run.t_final == 1.0

    def test_file_values_beat_experiment_defaults(self):
        config = parse_config(
            """
            experiment = harmonic-ground

            [grid]
            points = 512

            [run]
            dt = 0.0005
            """
        )
        assert config.grid.points == 512
        assert config.run.dt == 5e-4
        assert config.run.snapshot_stride == 500

    def test_comments_and_blank_lines_are_ignored(self):
        config = parse_config(
            """
            # pick the free packet run
            experiment = free-gaussian

            [grid]
            points = 128   # coarse is fine here
            """
        )
        assert config.experiment == "free-gaussian"
        assert config.grid.points == 128

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_name_parses(self, name):
        assert parse_config(f"experiment = {name}").experiment == name


class TestParseErrors:
    def check(self, text, line, pattern):
        with pytest.raises(ConfigError, match=pattern) as excinfo:
            parse_config(text)
        assert excinfo.value.line == line

    def test_missing_experiment(self):
        self.check("[grid]\npoints = 32\n", 1, "missing required top-level key 'experiment'")

    def test_malformed_section_header(self):
        self.check("experiment = bec\n[grid\npoints = 32\n", 2, r"malformed section header '\[grid'")

    def test_unknown_section(self):
        self.check("experiment = bec\n\n[foo]\nbar = 1\n", 3, r"unknown section \[foo\]")

    def test_unknown_key_in_section(self):
        self.check("experiment = bec\n[grid]\nspacing = 2\n", 3, r"unknown key 'spacing' in section \[grid\]")

    def test_unknown_top_level_key(self):
        self.check("points = 32\n", 1, "unknown top-level key 'points'; only 'experiment'")

    def test_unknown_experiment(self):
        self.check("experiment = tunneling\n", 1, "unknown experiment 'tunneling'; see 'bohmsim list-experiments'")

    def test_missing_value(self):
        self.check("experiment = bec\n[run]\ndt =\n", 3, "missing value for 'dt'")

    def test_missing_equals_sign(self):
        self.check("experiment = bec\n[grid]\npoints 32\n", 3, "expected 'key = value', got 'points 32'")

    @pytest.mark.parametrize("value", ["many", "128.5"])
    def test_integer_key_rejects_non_integers(self, value):
        self.check(f"experiment = bec\n[grid]\npoints = {value}\n", 3, "points expects an integer")

    def test_float_key_rejects_words(self):
        self.check("experiment = bec\n[run]\ndt = fast\n", 3, "dt expects a number, got 'fast'")

    def test_too_few_points_reports_the_offending_line(self):
        self.check("experiment = bec\n\n[grid]\npoints = -4\n", 4, r"grid\.points: points must be >= 16, got -4")

    def test_degenerate_extent(self):
        self.check("experiment = bec\n[grid]\nx_min = 5\nx_max = -5\n", 4, "degenerate extent: x_min=5.0 >= x_max=-5.0")

    def test_nonpositive_dt(self):
        self.check("experiment = bec\n[run]\ndt = 0\n", 3, r"run\.dt: must be positive")

    def test_unsupported_dims(self):
        self.check("experiment = bec\n[grid]\ndims = 3\n", 3, "dims must be 1 or 2, got 3")

    def test_repeated_key_names_both_lines(self):
        text = "experiment = bec\n[run]\nt_final = 1.0\ndt = 0.01\n[physics]\nmass = 2\n[run]\nt_final = 3.0\n"
        self.check(text, 8, r"^line 8: run\.t_final already set on line 3$")

    def test_second_experiment_line_names_both_lines(self):
        self.check("# demo\nexperiment = bec\nexperiment = crosscheck\n", 3, "^line 3: experiment already set on line 2$")

    @pytest.mark.parametrize("name", ["crosscheck", "equivariance", "harmonic-ground"])
    def test_two_dims_rejected_for_one_dimensional_experiments(self, name):
        text = f"experiment = {name}\n[grid]\ndims = 2\npoints = 32\n"
        self.check(text, 3, rf"^line 3: grid\.dims: {name} reads only x_min, x_max, points \[grid\] keys$")

    @pytest.mark.parametrize(
        "name, text, line, message",
        [
            ("bec", "[grid]\npoints = 16\nx_min = -1\nx_max = 1\n", 3, "grid.points: bec reads no [grid] keys"),
            ("cm-newton", "[run]\ndt = 0.02\n[grid]\nx_max = 4\n", 5, "grid.x_max: cm-newton reads no [grid] keys"),
            (
                "no-tunneling",
                "[grid]\npoints = 64\ndims = 2\n",
                4,
                "grid.dims: no-tunneling reads only x_min, x_max, points [grid] keys",
            ),
            (
                "equivariance",
                "[grid]\npoints = 64\ndims = 1\n",
                4,
                "grid.dims: equivariance reads only x_min, x_max, points [grid] keys",
            ),
        ],
        ids=["bec", "cm-newton", "no-tunneling", "equivariance-one-dim"],
    )
    def test_grid_keys_the_experiment_does_not_read(self, name, text, line, message):
        self.check(f"experiment = {name}\n{text}", line, f"^line {line}: {re.escape(message)}$")

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_grid_keys_the_experiment_reads(self, name):
        extent = {"x_min": -6.0, "x_max": 6.0, "points": 64}
        any_grid = {"dims": 1, **extent}
        keys = {"bec": {}, "cm-newton": {}, "free-gaussian": any_grid, "averaging-identity": any_grid}.get(name, extent)
        text = f"experiment = {name}\n[grid]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        grid = parse_config(text).grid
        assert {key: getattr(grid, key) for key in keys} == keys

    def test_unknown_potential(self):
        self.check("experiment = bec\n[physics]\npotential = coulomb\n", 3, "potential must be one of")

    def test_unknown_sampling_mode(self):
        self.check("experiment = cm-newton\n[run]\nsampling = sobol\n", 3, "sampling must be one of")

    def test_negative_seed(self):
        self.check("experiment = bec\n[run]\nseed = -2\n", 3, r"run\.seed: must be non-negative")

    def test_too_few_samples(self):
        self.check("experiment = equivariance\n[run]\nm_samples = 50\n", 3, "must be >= 100, got 50")

    def test_too_few_subsystems(self):
        self.check("experiment = cm-newton\n[run]\nn_subsystems = 5\n", 3, "must be >= 10, got 5")

    @pytest.mark.parametrize("section,key", [("run", "snapshot_stride"), ("output", "stride")])
    def test_strides_must_be_positive(self, section, key):
        self.check(f"experiment = bec\n[{section}]\n{key} = 0\n", 3, f"{key}: must be >= 1, got 0")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "dt", "nan"),
            ("run", "t_final", "inf"),
            ("grid", "x_min", "nan"),
            ("physics", "sigma", "nan"),
            ("physics", "hbar", "NaN"),
            ("physics", "x0", "-inf"),
            ("run", "dt", "1e309"),
        ],
    )
    def test_float_key_rejects_non_finite(self, section, key, value):
        self.check(
            f"experiment = bec\n[{section}]\n{key} = {value}\n",
            3,
            f"{key} expects a finite number, got '{value}'",
        )


# Config text built from section blocks, with keys of that section and
# junk, values that include non-finite and overflowing numbers, and stray
# lines of any text.
_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e309", "-1e309", "0", "-3", "16", "2.5", "1e-3"]),
    st.sampled_from(list(EXPERIMENTS) + ["free", "harmonic", "random", "stratified", "out"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)


def _block(name):
    keys = [f.name for f in fields(_SECTIONS[name])] + ["experiment", "bogus"]
    assignment = st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(keys), _VALUES)
    return st.lists(assignment, max_size=4).map(lambda body: [f"[{name}]"] + body)


_BLOCKS = st.one_of(
    *[_block(name) for name in _SECTIONS],
    st.lists(st.sampled_from(["[bogus]", "[grid", "", "# note", "experiment = bec"]) | st.text(max_size=12), max_size=2),
)


class TestParseConfigProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_BLOCKS, max_size=4), st.none() | st.sampled_from(EXPERIMENTS))
    def test_raises_only_config_error_and_accepts_finite_floats(self, blocks, lead):
        lines = [f"experiment = {lead}"] if lead else []
        for block in blocks:
            lines += block
        try:
            config = parse_config("\n".join(lines))
        except ConfigError:
            return
        for name in _SECTIONS:
            section = getattr(config, name)
            for f in fields(section):
                value = getattr(section, f.name)
                if isinstance(value, float):
                    assert math.isfinite(value), f"{name}.{f.name} = {value!r}"


class TestContractCheck:
    def test_upper_bound_passes_at_or_below(self):
        assert ContractCheck("x", 0.5, 1.0).passed
        assert ContractCheck("x", 1.0, 1.0).passed
        assert not ContractCheck("x", 1.5, 1.0).passed

    def test_lower_bound_kind(self):
        assert ContractCheck("x", 1.0, 1.0, kind="min").passed
        assert ContractCheck("x", 2.0, 1.0, kind="min").passed
        assert not ContractCheck("x", 0.5, 1.0, kind="min").passed

    def test_nan_never_passes(self):
        assert not ContractCheck("x", float("nan"), 1.0).passed
        assert not ContractCheck("x", float("nan"), 1.0, kind="min").passed

    def test_report_lines(self):
        report = ExperimentReport("demo", (ContractCheck("alpha", 0.25, 1.0), ContractCheck("beta", 2.0, 1.0)))
        assert not report.all_passed
        lines = report.lines()
        assert lines[0] == "experiment: demo"
        assert lines[1] == "PASS alpha: measured=0.25 <= bound=1.0"
        assert lines[2] == "FAIL beta: measured=2.0 <= bound=1.0"
        assert lines[-1] == "result: FAILED"

    def test_report_all_pass(self):
        report = ExperimentReport("demo", (ContractCheck("alpha", 0.25, 1.0),))
        assert report.all_passed
        assert report.lines()[-1] == "result: ALL PASS"

    def test_min_kind_direction_in_line(self):
        report = ExperimentReport("demo", (ContractCheck("gamma", 1.0, 0.5, kind="min"),))
        assert report.lines()[1] == "PASS gamma: measured=1.0 >= bound=0.5"


class TestRun:
    def test_writes_series_and_report(self, tmp_path):
        report = run(parse_config("experiment = averaging-identity"), out_dir=tmp_path, quiet=True)
        assert report.all_passed
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "report.txt").exists()
        text = (tmp_path / "report.txt").read_text()
        assert text.splitlines()[0] == "experiment: averaging-identity"
        assert text.splitlines()[-1] == "result: ALL PASS"

    def test_metadata_echoes_version_and_config(self, tmp_path):
        run(parse_config("experiment = averaging-identity"), out_dir=tmp_path, quiet=True)
        meta = metadata_rows(tmp_path / "series.csv")
        assert meta[0].startswith("# bohmsim ")
        assert "# experiment = averaging-identity" in meta
        assert "# [grid] points = 256" in meta
        assert "# [run] dt = 0.001" in meta

    def test_csv_floats_reparse_exactly(self, tmp_path):
        run(parse_config(FAST_CM), out_dir=tmp_path, quiet=True)
        header, *rows = data_rows(tmp_path / "series.csv")
        assert rows
        for row in rows:
            for cell in row.split(","):
                assert repr(float(cell)) == cell

    def test_rerun_is_byte_identical(self, tmp_path):
        config = parse_config(FAST_EQUIVARIANCE)
        run(config, out_dir=tmp_path / "a", quiet=True)
        run(config, out_dir=tmp_path / "b", quiet=True)
        assert (tmp_path / "a" / "series.csv").read_bytes() == (tmp_path / "b" / "series.csv").read_bytes()
        assert (tmp_path / "a" / "report.txt").read_bytes() == (tmp_path / "b" / "report.txt").read_bytes()

    def test_seed_flag_changes_sampled_output(self, tmp_path):
        config = parse_config(FAST_EQUIVARIANCE)
        run(config, out_dir=tmp_path / "a", seed=3, quiet=True)
        run(config, out_dir=tmp_path / "b", seed=9, quiet=True)
        assert data_rows(tmp_path / "a" / "series.csv") != data_rows(tmp_path / "b" / "series.csv")

    def test_stratified_sampling_ignores_the_seed(self, tmp_path):
        text = FAST_CM + "sampling = stratified\n"
        run(parse_config(text), out_dir=tmp_path / "a", seed=3, quiet=True)
        run(parse_config(text), out_dir=tmp_path / "b", seed=9, quiet=True)
        assert data_rows(tmp_path / "a" / "series.csv") == data_rows(tmp_path / "b" / "series.csv")

    def test_output_stride_thins_rows(self, tmp_path):
        full = run(parse_config(FAST_CM), out_dir=tmp_path / "full", quiet=True)
        assert full.all_passed
        thinned = parse_config(FAST_CM + "\n[output]\nstride = 5\n")
        run(thinned, out_dir=tmp_path / "thin", quiet=True)
        full_rows = data_rows(tmp_path / "full" / "series.csv")
        thin_rows = data_rows(tmp_path / "thin" / "series.csv")
        assert thin_rows[0] == full_rows[0]
        assert thin_rows[1:] == full_rows[1::5]

    def test_fast_cm_run_passes_contracts(self, tmp_path):
        report = run(parse_config(FAST_CM), out_dir=tmp_path, quiet=True)
        assert report.all_passed
        names = [check.name for check in report.checks]
        assert "acceleration-error" in names
        assert "contrast-ratio" in names

    def test_two_body_run_writes_trajectories(self, tmp_path):
        report = run(parse_config("experiment = no-tunneling"), out_dir=tmp_path, quiet=True)
        assert report.all_passed
        header, *rows = data_rows(tmp_path / "trajectories.csv")
        columns = header.split(",")
        assert columns[0] == "time"
        assert "x1_0" in columns
        assert "x2_0" in columns
        assert len(rows) == 101

    def test_harmonic_ground_computes_each_velocity_field_once(self, tmp_path, monkeypatch):
        seen = {"cli": [], "wavefield": []}
        for module, name in ((cli, "cli"), (wavefield, "wavefield")):
            original = module.velocity_batch

            def counting(amplitudes, grid, params, work=None, name=name, original=original):
                seen[name].append(amplitudes.shape)
                return original(amplitudes, grid, params, work)

            monkeypatch.setattr(module, "velocity_batch", counting)
        text = "experiment = harmonic-ground\n[run]\nt_final = 0.01\nsnapshot_stride = 20\n"
        report = run(parse_config(text), out_dir=tmp_path, quiet=True)
        assert report.all_passed
        assert len(data_rows(tmp_path / "series.csv")) == 1 + 6
        # one batch for the speeds; one field per snapshot for the energies
        assert [shape[0] for shape in seen["cli"]] == [6]
        assert [shape[0] for shape in seen["wavefield"]] == [1] * 6

    @pytest.mark.filterwarnings("ignore::bohmsim.AccuracyWarning")
    def test_failed_contract_is_reported_not_raised(self, tmp_path):
        # dt = 0.01, over 50 times the accuracy guidance, moves the ground state's particles (speed
        # 6.5e-5, drift 6.2e-6); its probe energy and norm stay within their bounds
        report = run(parse_config(FAILING_GROUND), out_dir=tmp_path, quiet=True)
        assert failed_checks(report) == ["max-guidance-speed", "particle-drift"]
        assert "result: FAILED" in (tmp_path / "report.txt").read_text()


def failed_checks(report):
    return [check.name for check in report.checks if not check.passed]


class TestFreeGaussianChecks:
    """free-gaussian's checks read the record; each must be able to fail."""

    def test_variance_check_is_a_plain_float(self, tmp_path):
        report = run(parse_config(FREE_GAUSSIAN), out_dir=tmp_path, quiet=True)
        check = next(c for c in report.checks if c.name == "variance-law-relative-error")
        assert type(check.measured) is float
        assert type(check.passed) is bool
        line = (tmp_path / "report.txt").read_text().splitlines()[1]
        assert line.startswith("PASS variance-law-relative-error: measured=")
        literal = line.split("measured=")[1].split(" <= ")[0]
        assert repr(float(literal)) == literal

    def test_coarse_snapshots_fail_only_continuity(self, tmp_path):
        # three snapshots 1.0 apart: the centred time difference is too coarse
        text = with_values(FREE_GAUSSIAN, snapshot_stride=1000)
        report = run(parse_config(text), out_dir=tmp_path / "run", quiet=True)
        assert failed_checks(report) == ["continuity-residual-max"]
        config_path = tmp_path / "coarse.cfg"
        config_path.write_text(text)
        assert main(["run", str(config_path), "--out", str(tmp_path / "main"), "--quiet"]) == 1

    def test_narrow_grid_fails_the_variance_law(self, tmp_path):
        # the spreading packet wraps around a 12-wide periodic box
        text = with_values(FREE_GAUSSIAN, x_min=-6.0, x_max=6.0)
        report = run(parse_config(text), out_dir=tmp_path / "run", quiet=True)
        assert "variance-law-relative-error" in failed_checks(report)
        config_path = tmp_path / "narrow.cfg"
        config_path.write_text(text)
        assert main(["run", str(config_path), "--out", str(tmp_path / "main"), "--quiet"]) == 1


    def test_non_unitary_phases_fail_the_norm_drift(self, tmp_path, monkeypatch):
        # a doctored kinetic rate, not a config input: its small imaginary part damps
        # every mode, so the closed-form phases exp(-i rate t) stop being unitary
        real = propagator._kinetic_rate
        monkeypatch.setattr(propagator, "_kinetic_rate", lambda grid, params: real(grid, params) * (1 - 1e-6j))
        report, code, text = run_and_main(tmp_path, FREE_GAUSSIAN)
        assert failed_checks(report) == ["norm-drift-per-step"]
        assert code == 1 and "FAIL norm-drift-per-step" in text


def run_and_main(tmp_path, text):
    """The report of ``run`` on config text, and ``main``'s exit code and report.txt on the same config."""
    report = run(parse_config(text), out_dir=tmp_path / "run", quiet=True)
    config_path = tmp_path / "case.cfg"
    config_path.write_text(text)
    code = main(["run", str(config_path), "--out", str(tmp_path / "main"), "--quiet"])
    return report, code, (tmp_path / "main" / "report.txt").read_text()


class TestNegativeControls:
    """Config inputs that drive a check to FAIL through ``run`` and ``main``."""

    @pytest.mark.filterwarnings("ignore::bohmsim.AccuracyWarning")
    def test_coarse_steps_split_the_two_routes(self, tmp_path):
        # four RK4 and leapfrog steps over the record: the routes part by 3.7e-3 widths
        report, code, text = run_and_main(tmp_path, with_values(CROSSCHECK, dt=0.5))
        assert failed_checks(report) == ["max-route-gap-over-width"]
        assert code == 1 and "FAIL max-route-gap-over-width" in text

    def test_coarse_steps_carry_the_ensemble_off_equilibrium(self, tmp_path):
        # snapshots 1.0 apart, linear in time between them, while a sigma = 0.7 packet
        # spreads on a time scale of 2 sigma^2 = 0.98: the ensemble leaves |psi|^2
        text = with_values(EQUIVARIANCE, sigma=0.7, dt=0.2)
        report, code, written = run_and_main(tmp_path, text)
        assert failed_checks(report) == ["ks-distance-max", "ks-growth-ratio"]
        assert code == 1
        assert "FAIL ks-distance-max" in written and "FAIL ks-growth-ratio" in written

    def test_weak_external_force_loses_to_the_quantum_sum(self, tmp_path):
        # f_ext = 0.01 on 1000 bodies no longer dominates the sqrt(N)-sized quantum force sum
        report, code, text = run_and_main(tmp_path, with_values(CM_NEWTON, f_ext=0.01))
        assert failed_checks(report) == ["acceleration-error", "quantum-vs-external-force", "contrast-ratio"]
        assert code == 1 and "FAIL quantum-vs-external-force" in text

    def test_marginal_separation_fails_the_term_overlap(self, tmp_path):
        # 4.2 = 8.4 sigma passes the 8-sigma locality gate, but the two terms overlap by 2.2e-8
        report, code, text = run_and_main(tmp_path, with_values(NO_TUNNELING, separation=4.2))
        assert failed_checks(report) == ["term-overlap"]
        assert code == 1 and "FAIL term-overlap: measured=2.18" in text


class TestDoctoredControls:
    """Checks that no config input drives to FAIL: a doctored internal does, through ``run`` and ``main``."""

    def test_damped_modes_fail_the_harmonic_norm_drift(self, tmp_path, monkeypatch):
        # a constant imaginary part of the kinetic rate damps every mode by the same factor
        # each step, so the ground state keeps its shape: only the norm drifts
        real = propagator._kinetic_rate
        monkeypatch.setattr(propagator, "_kinetic_rate", lambda grid, params: real(grid, params) - 2e-6j)
        report, code, text = run_and_main(tmp_path, HARMONIC_GROUND)
        assert failed_checks(report) == ["norm-drift-per-step"]
        assert code == 1 and "FAIL norm-drift-per-step" in text

    def test_two_redraws_in_a_thousand_fail_the_resample_fraction(self, tmp_path, monkeypatch):
        # the first force read finds 2 of the 1000 offsets in a node region: 0.002 > 1e-3
        force_bad_offsets(monkeypatch, 2, read=1)
        report = run(parse_config(CM_NEWTON), out_dir=tmp_path / "run", quiet=True)
        assert failed_checks(report) == ["resample-fraction"]
        force_bad_offsets(monkeypatch, 2, read=1)  # a fresh read count for the run through main
        config_path = tmp_path / "case.cfg"
        config_path.write_text(CM_NEWTON)
        assert main(["run", str(config_path), "--out", str(tmp_path / "main"), "--quiet"]) == 1
        assert "FAIL resample-fraction: measured=0.002 " in (tmp_path / "main" / "report.txt").read_text()

    def test_a_coarse_force_mask_fails_the_averaging_identity(self, tmp_path, monkeypatch):
        # on the periodic grid the sum of rho F_Q vanishes to rounding for any R, and only the
        # points the node mask leaves out move it: a force mask at 1e-4 of the peak, not 1e-12
        def coarse(rho, dims):
            return rho >= 1e-4 * rho.max(axis=tuple(range(rho.ndim - dims, rho.ndim)), keepdims=True)

        monkeypatch.setattr(quantum_potential, "density_mask", coarse)
        report, code, text = run_and_main(tmp_path, AVERAGING_IDENTITY)
        assert failed_checks(report) == ["averaging-identity-relative"]
        assert code == 1 and "FAIL averaging-identity-relative" in text

    def test_a_faster_flow_fails_the_cm_slope(self, tmp_path, monkeypatch):
        # every body reads 1.001 v, so the centre of mass moves 1e-3 faster than the configured v;
        # a uniform scale leaves the velocities' spread at its 5e-9 of rounding.  bec's third check,
        # contrast-ratio, has no control: with no classical force it measures rms|F_Q| / (rms|F_Q| + 0),
        # 1 by construction whatever the run does
        real = manybody.velocity_field
        monkeypatch.setattr(manybody, "velocity_field", lambda wf: 1.001 * real(wf))
        report, code, text = run_and_main(tmp_path, BEC)
        assert failed_checks(report) == ["cm-slope-error"]
        assert code == 1 and "FAIL cm-slope-error: measured=0.000999" in text

    def test_a_velocity_ramp_fails_the_velocity_spread(self, tmp_path, monkeypatch):
        # a ramp of 1e-7 per unit length spreads the bodies' velocities by 1.3e-5 across the cloud;
        # the cloud's mean position is not 0, so the ramp also moves the centre of mass off v
        real = manybody.velocity_field
        monkeypatch.setattr(manybody, "velocity_field", lambda wf: real(wf) + 1e-7 * wf.grid.meshes()[0])
        report, code, text = run_and_main(tmp_path, BEC)
        assert failed_checks(report) == ["cm-slope-error", "velocity-spread"]
        assert code == 1 and "FAIL velocity-spread: measured=1.2" in text

    def test_a_faster_spread_fails_the_variance_law(self, tmp_path, monkeypatch):
        # a kinetic rate 1e-5 too large spreads the packet as if hbar were 1e-5 larger: the variance
        # misses the law by 1e-5 relative, while the continuity residual, which the slightly faster
        # density change moves by less than its bound, still passes.  (A narrow grid, the config input
        # in TestFreeGaussianChecks, fails the variance law only together with the continuity residual.)
        real = propagator._kinetic_rate
        monkeypatch.setattr(propagator, "_kinetic_rate", lambda grid, params: (1.0 + 1e-5) * real(grid, params))
        report, code, text = run_and_main(tmp_path, FREE_GAUSSIAN)
        assert failed_checks(report) == ["variance-law-relative-error"]
        assert code == 1 and "FAIL variance-law-relative-error: measured=1.0000" in text

    def test_a_velocity_offset_carries_bodies_out_of_their_sector(self, tmp_path, monkeypatch):
        # no config input moves a body of the symmetrized state across the mid-line: a velocity offset
        # of 1 on body 1 does, so some sector-1 trajectories leave their sector; term-overlap reads psi0 only
        real = trajectories.velocity_batch

        def offset(amplitudes, grid, params, work=None):
            values, valid = real(amplitudes, grid, params, work)
            values[:, 0] += 1.0
            return values, valid

        monkeypatch.setattr(trajectories, "velocity_batch", offset)
        report, code, text = run_and_main(tmp_path, NO_TUNNELING)
        assert failed_checks(report) == ["min-sector-residency"]
        assert code == 1 and "FAIL min-sector-residency: measured=0.73" in text


class TestNanFailsTheContract:
    """A NaN among the values a check reduces makes it FAIL; Python's ``max`` keeps
    the running value when the new one is NaN."""

    def test_nan_probe_energies(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "hamilton_jacobi_energy", lambda *args: math.nan)
        report, code, text = run_and_main(tmp_path, HARMONIC_GROUND)
        assert failed_checks(report) == ["energy-deviation-at-probe"]
        assert code == 1 and "FAIL energy-deviation-at-probe: measured=nan" in text

    def test_nan_route_gap_after_the_first_case(self, tmp_path, monkeypatch):
        calls = []

        def gap(*args):
            calls.append(args)
            return math.nan if len(calls) % 3 == 2 else 1e-9

        monkeypatch.setattr(cli, "crosscheck", gap)
        report, code, text = run_and_main(tmp_path, with_values(CROSSCHECK, t_final=0.1))
        assert len(calls) == 6
        assert failed_checks(report) == ["max-route-gap-over-width"]
        assert code == 1 and "FAIL max-route-gap-over-width: measured=nan" in text


class TestCrosscheckMemory:
    def test_no_record_outlives_its_case(self, monkeypatch):
        sizes, real = [], cli.evolve

        def evolve(*args, **kwargs):
            record = real(*args, **kwargs)
            sizes.append(len(record) * math.prod(record.grid.shape) * 16)  # the block, not built
            return record

        monkeypatch.setattr(cli, "evolve", evolve)
        config = parse_config(with_values(CROSSCHECK, t_final=0.5))
        tracemalloc.start()
        try:
            cli._run_crosscheck(config, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sizes) == 3 and len(set(sizes)) == 1
        # no record's block is held, only a window of rows, its fields and the working set:
        # measured 0.24 of one 1,001-row block, where a held block alone is 1.0
        assert peak < 0.4 * sizes[0]


class TestEquivarianceMemory:
    def test_no_row_outlives_its_reduction(self, monkeypatch):
        # weak references to the initial sample and to each report row's positions and force: the step
        # out of a row reads them up to t + dt, and every read from t + 1.5 dt on must find them freed
        config = parse_config(EQUIVARIANCE)
        dt = config.run.dt
        watched, late = [], []  # (time, weak references), and the reads that found one alive
        sample, stream, read = ensemble.sample_equilibrium, cli.evolve_ensemble, trajectories._read

        def sampled(spec):
            x = sample(spec)
            watched.append((spec.wavefunction.time, [weakref.ref(x)]))
            return x

        def watching(row):
            t, _, x, force = row
            watched.append((t, [weakref.ref(x), weakref.ref(force)]))
            return row

        def checked(grid, t, *args):
            late.extend(t for after, refs in watched if t > after + 1.25 * dt for ref in refs if ref() is not None)
            return read(grid, t, *args)

        monkeypatch.setattr(ensemble, "sample_equilibrium", sampled)
        monkeypatch.setattr(cli, "evolve_ensemble", lambda *args: map(watching, stream(*args)))
        monkeypatch.setattr(trajectories, "_read", checked)
        cli._run_equivariance(config, 0)
        assert len(watched) == 42 and late == []


class TestStrangSteps:
    """A run takes each Strang step of its harmonic record once: no read restarts it from psi0."""

    @pytest.mark.parametrize(
        "text, steps", [(CROSSCHECK, 16_000), (HARMONIC_GROUND, 10_000)], ids=["crosscheck", "harmonic-ground"]
    )
    def test_each_step_is_taken_once(self, tmp_path, monkeypatch, text, steps):
        calls, apply = [], propagator._SplitStepKernel.apply

        def counting(self, amps, out=None):
            calls.append(1)
            return apply(self, amps, out)

        monkeypatch.setattr(propagator._SplitStepKernel, "apply", counting)
        run(parse_config(text), out_dir=tmp_path, quiet=True)
        assert len(calls) == steps


class TestMain:
    def test_run_exits_zero_and_prints_report(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("experiment = averaging-identity\n")
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "experiment: averaging-identity" in out
        assert "result: ALL PASS" in out

    @pytest.mark.filterwarnings("ignore::bohmsim.AccuracyWarning")
    def test_failed_contract_exits_one(self, tmp_path):
        config_path = tmp_path / "fail.cfg"
        config_path.write_text(FAILING_GROUND)
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 1

    def test_config_error_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("experiment = averaging-identity\n[grid]\npoints = -4\n")
        assert main(["run", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 3:")
        assert "points must be >= 16" in err

    def test_validate_rejects_repeated_keys(self, tmp_path, capsys):
        config_path = tmp_path / "twice.cfg"
        config_path.write_text("experiment = bec\n[run]\ndt = 0.01\ndt = 0.02\n")
        assert main(["validate", str(config_path)]) == 2
        assert capsys.readouterr().err == "config error: line 4: run.dt already set on line 3\n"
        config_path.write_text("experiment = bec\nexperiment = crosscheck\n")
        assert main(["validate", str(config_path)]) == 2
        assert capsys.readouterr().err == "config error: line 2: experiment already set on line 1\n"

    @pytest.mark.parametrize(
        "overlay, message",
        [
            ("[grid]\npoints = 32\n", "under-resolved width along dimension 0"),
            ("[run]\ndt = 0.5\n", "snapshot_stride must divide the number of steps"),
        ],
        ids=["under-resolved-width", "stride-does-not-divide-steps"],
    )
    def test_config_that_validates_but_cannot_run_exits_two(self, tmp_path, capsys, overlay, message):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("experiment = equivariance\n" + overlay)
        assert main(["validate", str(config_path)]) == 0
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"run error: {message}")

    @pytest.mark.parametrize(
        "error",
        [
            TrajectoryAbort("trajectory entered a node region at t=0.7", 0.7, np.zeros((1, 1))),
            FloatingPointError("numerical blow-up at step 3: non-finite norm"),
        ],
        ids=["trajectory-abort", "blow-up"],
    )
    def test_an_abort_in_a_run_exits_two(self, tmp_path, capsys, monkeypatch, error):
        def abort(config, seed):
            raise error

        entry = replace(cli._EXPERIMENTS["averaging-identity"], runner=abort)
        monkeypatch.setitem(cli._EXPERIMENTS, "averaging-identity", entry)
        config_path = tmp_path / "run.cfg"
        config_path.write_text("experiment = averaging-identity\n")
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"run error: {error}\n"

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        config_path = tmp_path / "run.cfg"
        config_path.write_text("experiment = averaging-identity\n")
        assert main(["run", str(config_path), "--out", str(blocker / "sub")]) == 2
        assert capsys.readouterr().err.startswith("cannot write output: ")

    def test_other_exceptions_in_a_run_still_raise(self, tmp_path, monkeypatch):
        def broken(config, seed):
            raise KeyError("bug")

        entry = replace(cli._EXPERIMENTS["averaging-identity"], runner=broken)
        monkeypatch.setitem(cli._EXPERIMENTS, "averaging-identity", entry)
        config_path = tmp_path / "run.cfg"
        config_path.write_text("experiment = averaging-identity\n")
        with pytest.raises(KeyError):
            main(["run", str(config_path), "--out", str(tmp_path / "out")])

    def test_a_path_that_crosses_sectors_fails_no_tunneling(self, tmp_path, monkeypatch):
        original = manybody.integrate_guidance_batch

        def crossing(record, x0, dt):
            times, positions = original(record, x0, dt)
            half = len(times) // 2
            positions[half:, 0] = positions[half:, 0, ::-1]  # path 0 swaps its bodies: the other sector
            return times, positions

        monkeypatch.setattr(manybody, "integrate_guidance_batch", crossing)
        config = parse_config("experiment = no-tunneling")
        report = run(config, out_dir=tmp_path / "run", quiet=True)
        failed = [check.name for check in report.checks if not check.passed]
        assert failed == ["min-sector-residency"]
        config_path = tmp_path / "run.cfg"
        config_path.write_text("experiment = no-tunneling\n")
        assert main(["run", str(config_path), "--out", str(tmp_path / "main"), "--quiet"]) == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert capsys.readouterr().err.startswith("cannot read config:")

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("experiment = averaging-identity\n")
        assert main(["run", str(config_path), "--seed", "-1"]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err

    def test_validate_checks_without_running(self, tmp_path, capsys):
        config_path = tmp_path / "run.cfg"
        config_path.write_text("experiment = bec\n")
        assert main(["validate", str(config_path)]) == 0
        assert capsys.readouterr().out.strip() == "ok: experiment=bec"
        assert not (tmp_path / "out").exists()

    def test_validate_rejects_grid_keys_the_run_does_not_read(self, tmp_path, capsys):
        config_path = tmp_path / "bec.cfg"
        config_path.write_text("experiment = bec\n[grid]\npoints = 16\nx_min = -1\nx_max = 1\n")
        assert main(["validate", str(config_path)]) == 2
        assert capsys.readouterr().err == "config error: line 3: grid.points: bec reads no [grid] keys\n"

    def test_validate_reports_config_errors(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("experiment = warp\n")
        assert main(["validate", str(config_path)]) == 2
        assert "unknown experiment 'warp'" in capsys.readouterr().err

    def test_validate_rejects_non_finite_numbers(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("experiment = crosscheck\n[run]\ndt = nan\n")
        assert main(["validate", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: line 3: dt expects a finite number")

    def test_shipped_configs_cover_every_experiment(self):
        assert sorted(path.stem.replace("_", "-") for path in SHIPPED_CONFIGS) == sorted(EXPERIMENTS)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
    def test_shipped_configs_validate(self, path, capsys):
        experiment = path.stem.replace("_", "-")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == f"ok: experiment={experiment}"
        assert parse_config_file(str(path)).experiment == experiment

    def test_list_experiments_prints_all(self, capsys):
        assert main(["list-experiments"]) == 0
        names = capsys.readouterr().out.split()
        assert names == list(EXPERIMENTS)
