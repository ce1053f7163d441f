"""Correctness gate for the files one benchmark pass writes.

One *operation* is one contract check in ``report.txt`` or one comparison
of a written file against its reference.  A pass that raised wrote nothing
usable, so all of its operations count as failed.

References live in ``reference/<config>/`` and were recorded with
``record_reference.py`` at seed ``manifest.json["seed"]``.  They apply at
that seed, and at every seed for configs whose outputs do not depend on
the seed (the ``# [run] seed = N`` echo line aside).  At any other seed only
the contract checks gate.

Tolerance.  Text cells and ``#`` metadata lines must match exactly, as must
the number of rows.  A numeric cell ``a`` matches its reference ``b`` when

    |a - b| <= ATOL + RTOL * |b|,   ATOL = 1e-9, RTOL = 1e-6.

Rounding-level changes pass with a wide margin: with free states evolved in
closed form instead of by Strang steps and a one-ulp change in the harmonic
kinetic factor, the largest |a - b| / (ATOL + RTOL * |b|) over all cells
(the two below aside) was 0.0025.  Dropping work that matters shows: fewer
snapshots change the row count or the route gap, fewer particles change the
KS distances.

Two values are roundoff measurements, the largest guidance speed of the
harmonic ground state (about 2e-7 against its bound 1e-6).  The one-ulp
change moved them by 1.4e-7, so they are compared with the absolute
tolerance in ``NOISE_ATOL``, equal to their contract bound.
"""

from __future__ import annotations

import json
import math
import os
import re

ATOL = 1e-9
RTOL = 1e-6

# (config, file, column or check name) -> absolute tolerance
NOISE_ATOL = {
    ("harmonic_ground", "series.csv", "max_speed"): 1e-6,
    ("harmonic_ground", "report.txt", "max-guidance-speed"): 1e-6,
}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

_CHECK = re.compile(r"^(PASS|FAIL) (.+): measured=(.+) (<=|>=) bound=(.+)$")
_NUMPY_SCALAR = re.compile(r"^np\.\w+\((.*)\)$")
_SEED_LINE = re.compile(r"^# \[run\] seed = \d+$")


def load_manifest() -> dict:
    with open(os.path.join(REFERENCE_DIR, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _number(text: str) -> float | None:
    match = _NUMPY_SCALAR.match(text)
    if match:
        text = match.group(1)
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: float, b: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + RTOL * abs(b)


def _cells_match(config: str, filename: str, column: str, got: str, want: str) -> bool:
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    return _close(a, b, NOISE_ATOL.get((config, filename, column), ATOL))


def parse_report(text: str) -> dict[str, tuple[str, str]]:
    """Check name -> (status, measured text) for every contract line."""
    checks = {}
    for line in text.splitlines():
        match = _CHECK.match(line)
        if match:
            checks[match.group(2)] = (match.group(1), match.group(3))
    return checks


def compare_file(config: str, filename: str, got: str, want: str, same_seed: bool) -> str | None:
    """None when ``got`` matches the reference ``want``, else the first mismatch."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{config}/{filename}: {len(got_lines)} lines, reference has {len(want_lines)}"
    header: list[str] = []
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        where = f"{config}/{filename}:{lineno}"
        if w.startswith("#"):
            if g != w and not (not same_seed and _SEED_LINE.match(g) and _SEED_LINE.match(w)):
                return f"{where}: {g!r} != {w!r}"
            continue
        if filename == "report.txt":
            gm, wm = _CHECK.match(g), _CHECK.match(w)
            if gm is None or wm is None:
                if g != w:
                    return f"{where}: {g!r} != {w!r}"
                continue
            if gm.group(1, 2, 4, 5) != wm.group(1, 2, 4, 5) or not _cells_match(
                config, filename, wm.group(2), gm.group(3), wm.group(3)
            ):
                return f"{where}: {g!r} != {w!r}"
            continue
        if not header:
            if g != w:
                return f"{where}: header {g!r} != {w!r}"
            header = w.split(",")
            continue
        gc, wc = g.split(","), w.split(",")
        if len(gc) != len(wc):
            return f"{where}: {len(gc)} cells, reference has {len(wc)}"
        for column, a, b in zip(header, gc, wc):
            if not _cells_match(config, filename, column, a, b):
                return f"{where} column {column}: {a} != reference {b}"
    return None


def check_outputs(out_dir: str | None, configs: list[str], seed: int, manifest: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, messages)`` for the configs one pass wrote.

    ``out_dir`` is None for a pass that raised.
    """
    attempted = failed = 0
    messages: list[str] = []
    for config in configs:
        entry = manifest["configs"][config]
        same_seed = seed == manifest["seed"]
        compared = entry["files"] if same_seed or entry["seed_independent"] else []
        attempted += len(entry["checks"]) + len(compared)
        if out_dir is None:
            failed += len(entry["checks"]) + len(compared)
            continue
        directory = os.path.join(out_dir, config)
        try:
            with open(os.path.join(directory, "report.txt"), encoding="utf-8") as fh:
                checks = parse_report(fh.read())
        except OSError as err:
            checks = {}
            messages.append(f"{config}: {err}")
        for name in entry["checks"]:
            status = checks.get(name, ("MISSING", ""))[0]
            if status != "PASS":
                failed += 1
                messages.append(f"{config}: contract {name} is {status}")
        for filename in compared:
            try:
                with open(os.path.join(directory, filename), encoding="utf-8") as fh:
                    got = fh.read()
            except OSError as err:
                failed += 1
                messages.append(f"{config}: {err}")
                continue
            with open(os.path.join(REFERENCE_DIR, config, filename), encoding="utf-8") as fh:
                want = fh.read()
            mismatch = compare_file(config, filename, got, want, same_seed)
            if mismatch:
                failed += 1
                messages.append(mismatch)
    return attempted, failed, messages
