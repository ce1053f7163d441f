"""Paired in-process A/B of the shipped configs' wall and CPU time, page faults and traced memory: a parent revision against this tree.

    python3 tools/ab.py --parent REV [--pairs N] CONFIG...

``src/bohmsim`` at ``REV`` is extracted with ``git archive`` into a
temporary directory as the package ``bohmsim_parent`` (every import inside
bohmsim is relative, so the copy imports itself), and both trees run in
one interpreter.  Each pair times one ``cli.run`` of a config on the
parent (A) and on this tree (B), in the order A B, then B A on the next
pair, so drift over the run falls on both sides alike.  A CONFIG is a
path or a name in ``configs/``.

For each config, and for the sum over configs when there are several,
prints the median of the pairs' B/A ratios of wall time (``perf_counter``)
with a distribution-free 95% interval from order statistics, and beside it
the same for CPU time (``process_time``); an interval that contains 1 is
called unresolved.  Next come each side's median minor page faults per
run (``getrusage``'s ``ru_minflt`` around ``cli.run``): pages the run
faulted in afresh, as when the allocator hands freed memory back to the
system and the next allocation maps it again.  They depend on the heap that
earlier runs in the interpreter left, so compare the two sides of one
invocation, not counts across invocations.  After the timed pairs, each config runs once more on
each tree under ``tracemalloc``, untimed, and its line ends with both
traced peaks in MiB.  Every run of either tree must write the same bytes,
or the tool says which files differ and exits with status 1.

Both trees share one interpreter, so a module that either tree loads is
loaded for both.  A change to import time, or to the RSS of the modules a
run loads (such as no longer loading numpy's random package), does not
show here; it shows only in ``perfbench/run.py``, whose passes each start
a fresh interpreter.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import math
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def median_interval(ratios, level: float = 0.95) -> tuple[float, float, float]:
    """``(low, median, high)`` of ``ratios``: the sample median and the order-statistic
    interval [x_(k), x_(n+1-k)] that covers the population median with probability
    at least ``level`` for any continuous distribution.

    k is the largest rank whose two-sided binomial(n, 1/2) tail stays within
    1 - ``level``.  Raises ``ValueError`` when even [min, max] falls short,
    which at 95% is under six ratios.
    """
    x = sorted(ratios)
    n = len(x)
    k, tail = 0, 0.0  # tail = P(Binomial(n, 1/2) <= k - 1)
    while k < n // 2 and 2.0 * (tail + math.comb(n, k) / 2.0**n) <= 1.0 - level:
        tail += math.comb(n, k) / 2.0**n
        k += 1
    if k == 0:
        raise ValueError(f"{n} ratios give no {level:.0%} interval for the median")
    return x[k - 1], statistics.median(x), x[n - k]


def _import_parent(rev: str, into: str):
    """The ``cli`` module of ``src/bohmsim`` at ``rev``, imported as ``bohmsim_parent``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/bohmsim"], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    Path(into, "src", "bohmsim").rename(Path(into, "bohmsim_parent"))
    sys.path.insert(0, into)
    return importlib.import_module("bohmsim_parent.cli")


def _timed_run(cli, config: Path, out: Path) -> tuple[float, float, int, dict[str, str]]:
    """Wall and CPU seconds one ``cli.run`` of ``config`` takes, the minor page faults it takes,
    and the sha256 of each file it wrote."""
    parsed = cli.parse_config_file(str(config))
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start, cpu_start = time.perf_counter(), time.process_time()
    cli.run(parsed, out_dir=str(out), quiet=True)
    cpu = time.process_time() - cpu_start
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return seconds, cpu, faults, _digests(out)


def _traced_run(cli, config: Path, out: Path) -> tuple[int, dict[str, str]]:
    """The ``tracemalloc`` peak in bytes of one untimed ``cli.run`` of ``config``, and the sha256 of each file it wrote."""
    parsed = cli.parse_config_file(str(config))
    gc.collect()
    tracemalloc.start()
    try:
        cli.run(parsed, out_dir=str(out), quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, _digests(out)


def _digests(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


def _ratio(a: list[float], b: list[float]) -> str:
    """The median B/A ratio of paired times, its 95% interval and the verdict."""
    low, mid, high = median_interval([tb / ta for ta, tb in zip(a, b)])
    verdict = "unresolved" if low <= 1.0 <= high else ("faster" if high < 1.0 else "slower")
    return f"B/A median {mid:.4f}  95% [{low:.4f}, {high:.4f}]  {verdict}"


def _line(
    name: str, a: list[float], b: list[float], cpu_a: list[float], cpu_b: list[float], peaks=None, faults=None
) -> str:
    """One config's wall-time ratio and, beside it, its CPU-time ratio and, when given, the median
    minor page faults per run of A and B (``faults``, two lists) and the traced peaks in bytes of A and B."""
    line = f"{name:<20} pairs={len(a)}  A median {statistics.median(a):.4f} s  {_ratio(a, b)}  |  cpu {_ratio(cpu_a, cpu_b)}"
    if faults is not None:
        line += f"  |  minor faults A {statistics.median(faults[0]):,.0f}  B {statistics.median(faults[1]):,.0f}"
    if peaks is None:
        return line
    return line + f"  |  traced peak A {peaks[0] / 2**20:.2f} MiB  B {peaks[1] / 2**20:.2f} MiB"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against (A)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per config, at least 6 (default 10)")
    parser.add_argument("configs", nargs="+", help="config paths or names in configs/")
    args = parser.parse_args(argv)
    if args.pairs < 6:
        parser.error("--pairs must be at least 6 for a 95% interval")
    configs = [Path(c) if Path(c).is_file() else ROOT / "configs" / f"{Path(c).stem}.cfg" for c in args.configs]

    sys.path.insert(0, str(ROOT / "src"))
    from bohmsim import cli as this_cli

    with tempfile.TemporaryDirectory() as tmp:
        trees = (_import_parent(args.parent, str(Path(tmp, "parent"))), this_cli)
        times = {config.stem: ([], [], [], []) for config in configs}  # wall A, wall B, cpu A, cpu B
        faults = {config.stem: ([], []) for config in configs}
        first, differ = {}, set()

        def check(stem: str, digests: dict[str, str]) -> None:
            want = first.setdefault(stem, digests)
            differ.update(f"{stem}/{name}" for name in digests.keys() | want.keys() if digests.get(name) != want.get(name))

        for pair in range(args.pairs):
            for config in configs:
                for side in (0, 1) if pair % 2 == 0 else (1, 0):
                    out = Path(tmp, "out", f"{config.stem}-{pair}-{side}")
                    seconds, cpu, faulted, digests = _timed_run(trees[side], config, out)
                    times[config.stem][side].append(seconds)
                    times[config.stem][2 + side].append(cpu)
                    faults[config.stem][side].append(faulted)
                    check(config.stem, digests)
        peaks = {config.stem: [0, 0] for config in configs}
        for config in configs:
            for side in (0, 1):
                out = Path(tmp, "out", f"{config.stem}-traced-{side}")
                peaks[config.stem][side], digests = _traced_run(trees[side], config, out)
                check(config.stem, digests)

    for name, series in times.items():
        print(_line(name, *series, peaks[name], faults[name]))
    if len(times) > 1:
        print(_line("sum", *(list(map(sum, zip(*side))) for side in zip(*times.values())),
                    faults=[list(map(sum, zip(*side))) for side in zip(*faults.values())]))
    if differ:
        print("outputs differ: " + ", ".join(sorted(differ)))
        return 1
    print("outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
