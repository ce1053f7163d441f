"""The shipped configs against the benchmark's reference outputs.

Runs every config in ``configs/`` at the reference seed into a temporary
directory and compares what it writes with ``perfbench/reference/`` through
``perfbench/outputs.check_outputs``, the benchmark's own correctness gate:
its contract checks must pass and every file must match its reference within
the tolerance that module documents.  The module is compiled from its source,
so nothing is written beside it.
"""

import types
from pathlib import Path

from bohmsim import cli

ROOT = Path(__file__).resolve().parent.parent


def load_outputs() -> types.ModuleType:
    path = ROOT / "perfbench" / "outputs.py"
    module = types.ModuleType("perfbench_outputs")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_shipped_configs_match_the_benchmark_references(tmp_path):
    outputs = load_outputs()
    manifest = outputs.load_manifest()
    seed, configs = manifest["seed"], sorted(manifest["configs"])
    assert configs == sorted(path.stem for path in (ROOT / "configs").glob("*.cfg"))
    for name in configs:
        config = cli.parse_config_file(str(ROOT / "configs" / f"{name}.cfg"))
        cli.run(config, out_dir=str(tmp_path / name), seed=seed, quiet=True)
    attempted, failed, messages = outputs.check_outputs(str(tmp_path), configs, seed, manifest)
    assert (failed, messages) == (0, [])
    # at the reference seed every check and every file is compared
    assert attempted == sum(len(entry["checks"]) + len(entry["files"]) for entry in manifest["configs"].values())
