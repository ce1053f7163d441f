"""The public API: every exported name resolves, and the README example runs."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import bohmsim
from bohmsim import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(bohmsim.__all__)) == len(bohmsim.__all__)
    missing = [name for name in bohmsim.__all__ if not hasattr(bohmsim, name)]
    assert not missing


def test_field_wrapper_types_are_gone():
    for name in ("ScalarField", "modulus_field", "probability_density", "BohmianState"):
        assert name not in bohmsim.__all__
        for module in (bohmsim, bohmsim.wavefield, bohmsim.quantum_potential, bohmsim.trajectories):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_unread_names_are_gone():
    assert "Barrier" not in bohmsim.__all__
    for module in (bohmsim, bohmsim.propagator):
        assert not hasattr(module, "Barrier"), f"{module.__name__}.Barrier"
    assert not hasattr(bohmsim.ensemble, "HISTOGRAM_BINS")
    assert "EnsembleTrajectory" not in bohmsim.__all__
    for module in (bohmsim, bohmsim.ensemble):
        assert not hasattr(module, "EnsembleTrajectory"), f"{module.__name__}.EnsembleTrajectory"
    assert "label" not in {f.name for f in fields(bohmsim.CMResult)}
    assert not {"types", "type_of"} & {f.name for f in fields(bohmsim.FactorizedNBody)}
    assert not hasattr(bohmsim.FactorizedNBody, "masses")
    assert not {"psi_a", "psi_b", "coefficients", "widths"} & {f.name for f in fields(bohmsim.SymmetrizedTwoBody)}
    assert "n_subsystems" not in {f.name for f in fields(bohmsim.CMResult)}
    assert not {"dt", "mode"} & {f.name for f in fields(bohmsim.Trajectory)}
    assert [f.name for f in fields(bohmsim.PhysicalParams)] == ["hbar", "mass"]
    assert not {"masses", "masses_for"} & set(dir(bohmsim.PhysicalParams))
    wf = bohmsim.init_gaussian(bohmsim.make_grid(1, -5.0, 5.0, 64), bohmsim.PhysicalParams(), 0.0, 1.0)
    assert not {"dt", "potential"} & set(dir(bohmsim.evolve(wf, bohmsim.Free(), 0.1, 0.01)))
    assert "potential" not in inspect.signature(bohmsim.EvolutionRecord).parameters
    assert "outputs" not in {f.name for f in fields(cli.ExperimentReport)}
    assert "SubsystemType" not in bohmsim.__all__
    for module in (bohmsim, bohmsim.manybody):
        assert not hasattr(module, "SubsystemType"), f"{module.__name__}.SubsystemType"
    assert not hasattr(bohmsim.manybody, "OVERLAP_BOUND")
    assert [f.name for f in fields(bohmsim.FactorizedNBody)] == [
        "sigma", "frame_positions", "frame_velocities", "mass", "external", "coupling", "hbar"
    ]
    unset = {
        bohmsim.no_tunneling_check: {"potential"},
        bohmsim.FactorizedNBody.homogeneous: {"points", "half_width", "spacing"},
        bohmsim.run_bec_experiment: {"points"},
        bohmsim.build_symmetrized: {"coefficients"},
    }
    for function, names in unset.items():
        assert not names & set(inspect.signature(function).parameters), function.__qualname__
    assert not hasattr(bohmsim.trajectories, "_eval_point")
    assert not hasattr(bohmsim.trajectories._FieldCache, "stencil")
    assert "mean_quantum_force" not in bohmsim.__all__
    for module in (bohmsim, bohmsim.ensemble):
        assert not hasattr(module, "mean_quantum_force"), f"{module.__name__}.mean_quantum_force"
    assert not hasattr(bohmsim.quantum_potential, "qfields_batch")


def test_every_traced_benchmark_name_resolves():
    # the benchmark's tracer wraps these functions by name; read its table without importing it
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    for module_name, names in targets.items():
        module = importlib.import_module(f"bohmsim.{module_name}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{module_name}.{name}"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    grid, record = namespace["grid"], namespace["record"]
    assert namespace["v"].shape == (1,) + grid.shape
    qf = namespace["qf"]
    assert qf.q.shape == grid.shape
    assert qf.force.shape == (1,) + grid.shape
    assert namespace["residual"].shape == (len(record) - 1,) + grid.shape
    path = namespace["path"]
    assert path.positions.shape == path.momenta.shape == (len(path.times), 1)
    assert np.isfinite(path.positions).all()


def loaded_in_a_fresh_interpreter(script: str, names: tuple[str, ...], *args: str) -> list[str]:
    """Which of ``names`` are in ``sys.modules`` after a new interpreter runs ``script`` with ``args``."""
    script += f"print(*(name for name in {names!r} if name in sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_and_parsing_load_no_fft_or_statistics():
    # set-up time: the FFT and statistics modules load on first use, not on import
    configs = sorted(str(path) for path in (ROOT / "configs").glob("*.cfg"))
    assert len(configs) == 8
    script = (
        "import sys\n"
        "import bohmsim\n"
        "from bohmsim import cli\n"
        "for path in sys.argv[1:]:\n"
        "    cli.parse_config_file(path)\n"
    )
    assert loaded_in_a_fresh_interpreter(script, ("numpy.fft", "statistics", "decimal", "fractions"), *configs) == []


def test_shipped_runs_load_no_random_number_modules(tmp_path):
    # peak memory: importing numpy's random package loads 19 modules, secrets and hashlib among them, and
    # raises peak RSS by about 6 MiB; the seeded configs (equivariance, cm-newton, bec) draw from ensemble._Philox
    configs = sorted(str(path) for path in (ROOT / "configs").glob("*.cfg"))
    assert len(configs) == 8
    script = (
        "import os, sys\n"
        "from bohmsim import cli\n"
        "for path in sys.argv[2:]:\n"
        "    out = os.path.join(sys.argv[1], os.path.basename(path))\n"
        "    cli.run(cli.parse_config_file(path), out_dir=out, quiet=True)\n"
    )
    names = ("numpy.random", "secrets", "hashlib")
    assert loaded_in_a_fresh_interpreter(script, names, str(tmp_path), *configs) == []
