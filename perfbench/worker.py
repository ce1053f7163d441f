"""One measured step of the benchmark, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py pass  --workload W --seed N --out DIR
    python3 perfbench/worker.py trace --workload W --seed N --out DIR --pass-id K

``setup`` imports bohmsim and parses and validates the workload's configs.
``pass`` also runs every config through ``bohmsim.cli.run`` into
``DIR/<config>/``; ``trace`` does the same with the tracer installed and
writes its spans to ``DIR/spans.json``.  The last line of standard output
is one JSON object.  bohmsim is imported from the checkout's ``src/``,
which run.py puts on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Config files under configs/, per workload, in the order they run.
WORKLOADS = {
    "crosscheck-m1": ("crosscheck",),
    "equivariance-m1e4": ("equivariance",),
    "short-configs": ("free_gaussian", "harmonic_ground", "averaging_identity", "no_tunneling", "cm_newton", "bec"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "pass", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args(argv)
    if args.mode != "setup" and not args.out:
        parser.error(f"{args.mode} needs --out")

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()
    import numpy
    from bohmsim import cli

    source = os.path.join(ROOT, "src", "bohmsim")
    if os.path.dirname(os.path.abspath(cli.__file__)) != source:
        print(f"bohmsim was imported from {cli.__file__}, not from {source}", file=sys.stderr)
        return 2
    names = WORKLOADS[args.workload]
    configs = [cli.parse_config_file(os.path.join(ROOT, "configs", f"{name}.cfg")) for name in names]
    result: dict[str, object] = {"numpy": numpy.__version__}
    if args.mode != "setup":
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            for name, config in zip(names, configs):
                cli.run(config, out_dir=os.path.join(args.out, name), seed=args.seed, quiet=True)
        except Exception:
            traceback.print_exc()
            result["error"] = f"{name}: {traceback.format_exc(limit=1).strip().splitlines()[-1]}"
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.dump(os.path.join(args.out, "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
