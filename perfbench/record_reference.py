"""Record the reference outputs that outputs.py compares passes against.

    python3 perfbench/record_reference.py

Runs every workload once at ``SEED`` and once at ``OTHER_SEED`` in fresh
worker processes, copies the ``SEED`` outputs to ``perfbench/reference/``
and writes ``reference/manifest.json``: per config, its output files, its
contract checks, and whether its outputs depend on the seed.  Refuses to
record, and leaves the old reference in place, if a config raised or one of
its contract checks does not pass at ``SEED``.  Recording replaces the
baseline, so do it only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import sys
import tempfile

import outputs
from run import TMP_PARENT, Session
from worker import WORKLOADS

SEED = 1
OTHER_SEED = 2
_SEED_LINE = re.compile(r"^# \[run\] seed = \d+$", re.MULTILINE)


def _without_seed(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return _SEED_LINE.sub("", fh.read())


def _record(tmp: str) -> str | None:
    """Directory holding the new reference tree, or None if a run is not fit to record."""
    runs = {}
    for seed in (SEED, OTHER_SEED):
        runs[seed] = os.path.join(tmp, str(seed))
        for workload in WORKLOADS:
            _, result = Session(workload, seed, tmp, {}).child("pass", runs[seed])
            if "error" in result:
                print(f"{workload} raised at seed {seed}: {result['error']}", file=sys.stderr)
                return None
    reference = os.path.join(tmp, "reference")
    configs = {}
    for names in WORKLOADS.values():
        for config in names:
            source = os.path.join(runs[SEED], config)
            files = sorted(os.listdir(source))
            with open(os.path.join(source, "report.txt"), encoding="utf-8") as fh:
                checks = outputs.parse_report(fh.read())
            failing = [name for name, (status, _) in checks.items() if status != "PASS"]
            if failing:
                print(f"{config}: contract checks fail at seed {SEED}: {failing}", file=sys.stderr)
                return None
            configs[config] = {
                "files": files,
                "checks": list(checks),
                "seed_independent": all(
                    _without_seed(os.path.join(source, f)) == _without_seed(os.path.join(runs[OTHER_SEED], config, f))
                    for f in files
                ),
            }
            shutil.copytree(source, os.path.join(reference, config))
    with open(os.path.join(reference, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "configs": configs}, fh, indent=2)
        fh.write("\n")
    for config, entry in configs.items():
        print(f"{config}: {entry['files']} seed_independent={entry['seed_independent']}")
    return reference


def main() -> int:
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        reference = _record(tmp)
        if reference is None:
            return 1
        shutil.rmtree(outputs.REFERENCE_DIR, ignore_errors=True)
        shutil.move(reference, outputs.REFERENCE_DIR)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_PARENT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
