"""The shipped configs against the benchmark's reference outputs.

Runs every config in ``configs/`` at the reference seed into a temporary
directory and compares what it writes with ``perfbench/reference/`` through
``perfbench/outputs.check_outputs``, the benchmark's own correctness gate:
its contract checks must pass and every file must match its reference within
the tolerance that module documents.  The module is compiled from its source,
so nothing is written beside it.  The same runs count each config's work, free
rows inverse-transformed, Strang steps, velocity and quantum-force field rows,
and interpolation reads (stencils built, the points they locate, and one-particle
point reads), against the exact counts in ``WORK``.
"""

import sys
import types
from pathlib import Path

from bohmsim import _interp, cli, propagator, quantum_potential, wavefield

ROOT = Path(__file__).resolve().parent.parent

# (free rows inverse-transformed, Strang steps, velocity field rows, quantum-force field rows,
#  stencils, stencil points, one-particle point reads) per shipped config at the reference seed
WORK = {
    "averaging_identity": (0, 0, 0, 6, 0, 0, 0),
    "bec": (0, 0, 1, 1, 2, 2_000, 0),
    "cm_newton": (400, 0, 401, 202, 1_002, 1_002_000, 0),
    "crosscheck": (8_000, 16_000, 12_003, 6_003, 0, 0, 30_009),
    "equivariance": (40, 0, 41, 41, 841, 8_410_000, 0),
    "free_gaussian": (20, 0, 0, 0, 0, 0, 0),
    "harmonic_ground": (0, 10_000, 63, 21, 21, 21, 81),
    "no_tunneling": (200, 0, 201, 0, 400, 8_000, 0),
}


def load_outputs() -> types.ModuleType:
    path = ROOT / "perfbench" / "outputs.py"
    module = types.ModuleType("perfbench_outputs")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def counting_work(monkeypatch) -> list[int]:
    """Spies on ``propagator``'s transforms and Strang steps, on the field batches under every name a
    ``bohmsim`` module binds them to (``spy_everywhere``) and on ``_interp``'s stencils and point reads;
    returns the running counts [free rows, steps, velocity rows, quantum-force rows, stencils, stencil
    points, point reads]."""
    work, fft, apply = [0] * 7, propagator._fft, propagator._SplitStepKernel.apply
    stencil, sample_point = _interp.Stencil.__init__, _interp.sample_point

    def counting_fft(values, axis, out=None, inverse=False):
        # a free record's last inverse transform runs over axis 1 of its rows (B, *grid.shape);
        # every shipped Strang record is 1D, so a step transforms axis 0 only
        work[0] += len(values) if inverse and axis == 1 else 0
        return fft(values, axis, out, inverse)

    def counting_apply(self, amps, out=None):
        work[1] += 1
        return apply(self, amps, out)

    def counting_stencil(self, grid, x):
        work[4] += 1
        work[5] += len(x)
        return stencil(self, grid, x)

    def counting_point(*args):
        work[6] += 1
        return sample_point(*args)

    def counting_rows(kind, batch):
        def counting(amplitudes, grid, params, workspace=None):
            work[kind] += len(amplitudes)
            return batch(amplitudes, grid, params, workspace)

        return counting

    monkeypatch.setattr(propagator, "_fft", counting_fft)
    monkeypatch.setattr(propagator._SplitStepKernel, "apply", counting_apply)
    monkeypatch.setattr(_interp.Stencil, "__init__", counting_stencil)
    monkeypatch.setattr(_interp, "sample_point", counting_point)
    for kind, batch in ((2, wavefield.velocity_batch), (3, quantum_potential.qforce_batch)):
        spy_everywhere(monkeypatch, batch, counting_rows(kind, batch))
    return work


def spy_everywhere(monkeypatch, original, spy) -> None:
    """Binds ``spy`` under every name that a ``bohmsim`` namespace binds ``original`` to, as
    ``perfbench/tracer.py``'s ``install`` does, so that a module importing it by name is counted too;
    fails unless ``original`` is found, in its own module among them."""
    bound = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "bohmsim" or name.startswith("bohmsim.")
        for attr, value in vars(module).items()
        if value is original
    ]
    assert original.__module__ in {module.__name__ for module, _ in bound}, f"{original.__name__} not found"
    for module, attr in bound:
        monkeypatch.setattr(module, attr, spy)


def test_shipped_configs_match_the_benchmark_references(tmp_path, monkeypatch):
    outputs = load_outputs()
    manifest = outputs.load_manifest()
    seed, configs = manifest["seed"], sorted(manifest["configs"])
    assert configs == sorted(path.stem for path in (ROOT / "configs").glob("*.cfg")) == sorted(WORK)
    work, done = counting_work(monkeypatch), {}
    for name in configs:
        config = cli.parse_config_file(str(ROOT / "configs" / f"{name}.cfg"))
        work[:] = [0] * 7
        cli.run(config, out_dir=str(tmp_path / name), seed=seed, quiet=True)
        done[name] = tuple(work)
    assert done == WORK
    attempted, failed, messages = outputs.check_outputs(str(tmp_path), configs, seed, manifest)
    assert (failed, messages) == (0, [])
    # at the reference seed every check and every file is compared
    assert attempted == sum(len(entry["checks"]) + len(entry["files"]) for entry in manifest["configs"].values())
