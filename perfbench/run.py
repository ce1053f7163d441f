"""Benchmark of bohmsim's shipped experiments, end to end and per layer.

    python3 perfbench/run.py --workload crosscheck-m1 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every pass runs the workload's configs
through ``bohmsim.cli.run`` in a fresh single-process interpreter (BLAS and
OpenMP pinned to one thread) that writes into a temporary directory inside
the checkout, and every pass's outputs are checked (see outputs.py).

``--trace 0`` alternates a set-up sample (a fresh interpreter that imports
bohmsim and parses the configs) with a pass, until ``--seconds`` have gone
and at least four passes ran, and reports the medians of the end-to-end
metrics in ``BENCHMARK.json``.  On crosscheck-m1 a pass takes about 10 s,
so the four-pass minimum, not ``--seconds``, sets the length of a run.
``--trace 1`` alternates untraced passes with traced ones (tracer.py) until
``--seconds`` have gone and at least two of each ran, checks that traced
outputs are byte-identical to untraced ones and that counts repeat, and
reports the per-layer metrics of ``BENCHMARK.json`` (see layers.py).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import outputs
import tracer
from worker import ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
MIN_PASSES = 4
MIN_SETUPS = 9
MIN_TRACED = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


class Session:
    """Starts worker processes for one workload and seed, before a deadline."""

    def __init__(self, workload: str, seed: int, tmp: str, manifest: dict):
        self.workload = workload
        self.manifest = manifest
        self.seed = seed
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.update(dict.fromkeys(THREAD_VARS, "1"))
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
        # Bytecode is cached, as for an installed package, but inside the run's
        # own directory: the warm-up set-up fills it, whatever the caller's
        # PYTHONDONTWRITEBYTECODE says.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")
        self.numpy = "?"

    def child(self, mode: str, out: str | None = None, pass_id: int = 0) -> tuple[float, dict]:
        """Wall seconds of one worker process, and its JSON result."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", self.workload,
               "--seed", str(self.seed), "--pass-id", str(pass_id)]
        if out is not None:
            cmd += ["--out", out]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed(f"{mode}: deadline of {DEADLINE_S:.0f} s reached")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode}: killed at the {DEADLINE_S:.0f} s deadline") from None
        elapsed = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode}: exit {proc.returncode}\n{proc.stderr.strip()}")
        result = json.loads(lines[-1])
        self.numpy = result["numpy"]
        if "error" in result:
            sys.stderr.write(proc.stderr)
        return elapsed, result

    def run_pass(self, mode: str, pass_id: int = 0) -> tuple[str, dict | None, tuple[int, int, list[str]]]:
        """Output directory, worker result (None if the pass raised) and output checks."""
        out = tempfile.mkdtemp(prefix=f"{mode}{pass_id}-", dir=self.tmp)
        try:
            _, result = self.child(mode, out, pass_id)
        except ChildFailed as err:
            print(f"pass failed: {err}", file=sys.stderr)
            result = None
        if result is not None and "error" in result:
            print(f"pass raised: {result['error']}", file=sys.stderr)
            result = None
        configs = list(WORKLOADS[self.workload])
        checked = outputs.check_outputs(out if result else None, configs, self.seed, self.manifest)
        for message in checked[2]:
            print(f"check failed: {message}", file=sys.stderr)
        return out, result, checked


def _summary(values: list[float]) -> str:
    return f"median of n={len(values)}: " + " ".join(f"{v:.4g}" for v in values)


def _repeat(session: Session, seconds: float, minimum: int, step) -> tuple[int, int]:
    """Operations attempted and failed by ``step``, run after a warm-up set-up
    until ``seconds`` have gone and it completed ``minimum`` times.

    ``step()`` returns (attempted, failed, completed); a step that did not
    complete ends the loop.
    """
    session.child("setup")  # warm-up: compiles bytecode and fills the file cache
    start = time.monotonic()
    attempted = failed = done = 0
    while done < minimum or time.monotonic() - start < seconds:
        a, f, completed = step()
        attempted += a
        failed += f
        if not completed:
            break
        done += 1
    return attempted, failed


def measure(session: Session, seconds: float, end_to_end: list[dict]) -> tuple[int, int, dict]:
    """Untraced passes interleaved with set-up samples."""
    setups, walls, rss = [], [], []

    def step() -> tuple[int, int, bool]:
        setups.append(session.child("setup")[0])
        out, result, (a, f, _) = session.run_pass("pass")
        shutil.rmtree(out)
        if result is not None:
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
        return a, f, result is not None

    attempted, failed = _repeat(session, seconds, MIN_PASSES, step)
    while len(setups) < MIN_SETUPS:
        setups.append(session.child("setup")[0])
    if not walls:
        raise ChildFailed("no pass completed")
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    metrics = {}
    for entry in end_to_end:
        values = samples[entry["name"]]
        metrics[entry["name"]] = (statistics.median(values), entry["unit"], _summary(values))
    return attempted, failed, metrics


def _identical_outputs(a: str, b: str) -> list[str]:
    """Files that differ between two output trees, ignoring the span dump."""
    diffs = []
    for config in sorted(os.listdir(a)):
        files = sorted(os.listdir(os.path.join(a, config)))
        if sorted(os.listdir(os.path.join(b, config))) != files:
            diffs.append(f"{config}: file sets differ")
            continue
        _, mismatch, errors = filecmp.cmpfiles(os.path.join(a, config), os.path.join(b, config), files, shallow=False)
        diffs += [f"{config}/{name}" for name in mismatch + errors]
    return diffs


def measure_traced(session: Session, seconds: float) -> tuple[int, int, dict]:
    """Untraced and traced passes of the same seed, in alternation."""
    base_out = None
    passes, cpu, ratios = [], [], []

    def step() -> tuple[int, int, bool]:
        nonlocal base_out
        out, base, (attempted, failed, _) = session.run_pass("pass")
        if base is None:
            return attempted, failed, False
        if base_out is None:
            base_out = out
        else:
            shutil.rmtree(out)
        out, result, (a, f, _) = session.run_pass("trace", pass_id=len(passes) + 1)
        attempted += a + 1  # the traced pass's checks, and its byte-identity with the untraced one
        failed += f
        if result is None:
            return attempted, failed + 1, False
        diffs = _identical_outputs(base_out, out)
        if diffs:
            failed += 1
            print(f"traced outputs differ from untraced ones: {diffs}", file=sys.stderr)
        with open(os.path.join(out, "spans.json"), encoding="utf-8") as fh:
            trace = json.load(fh)
        shutil.rmtree(out)
        passes.append(layers.pass_values(tracer.summarize(trace), trace["counts"]))
        cpu.append(base["cpu_s"])
        ratios.append(result["wall_s"] / base["wall_s"])
        return attempted, failed, True

    attempted, failed = _repeat(session, seconds, MIN_TRACED, step)
    if not passes:
        raise ChildFailed("no traced pass completed")
    values, unstable = layers.combine(passes)
    attempted += 1
    if unstable:
        failed += 1
        for message in unstable:
            print(message, file=sys.stderr)
    values["process.cpu_s"] = statistics.median(cpu)
    values["trace.overhead_ratio"] = statistics.median(ratios)
    note = f"n={len(passes)} traced and untraced passes"
    metrics = {m["name"]: (values[m["name"]], m["unit"], note) for m in layers.METRICS}
    return attempted, failed, metrics


def _machine(numpy_version: str) -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"nproc={usable} cpu={cpu!r} python={platform.python_version()} numpy={numpy_version}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in ("src/bohmsim/cli.py", "configs") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a bohmsim checkout: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    session = Session(args.workload, args.seed, tmp, outputs.load_manifest())
    try:
        if args.trace:
            attempted, failed, metrics = measure_traced(session, args.seconds)
        else:
            attempted, failed, metrics = measure(session, args.seconds, end_to_end)
    except ChildFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            os.rmdir(TMP_PARENT)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {_machine(session.numpy)}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} ({note})")
    print(f"{'failed_ratio':48s} {failed / attempted:14.6g} {'ratio':6s} ({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
