"""One benchmark command for the serve daemon, the simulator and the paper
campaign.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):
``map_unique``, ``map_simulate`` (the ``/map`` daemon driven over HTTP) and ``sim_campaign`` (the Figure 9 campaign with a
batch-32 simulation, in a fresh process).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it repeats the same
inputs untraced and traced and reports the per-layer metrics.  A table
of every metric goes to standard output, and the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("map_unique", "map_simulate", "sim_campaign")
#: the load generator never holds more connections than this
MAX_CONNECTIONS = 2


class Context:
    """Paths, environment and configuration shared by the workloads."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.bench_dir = BENCH_DIR
        self.work = os.path.join(root, ".perfbench")
        self.cc_cache = os.path.join(self.work, "cc")
        tmp = os.path.join(self.work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        with open(os.path.join(BENCH_DIR, "config.json")) as fh:
            self.cfg = json.load(fh)
        self.connections = min(MAX_CONNECTIONS, os.cpu_count() or 1)
        src = os.path.join(root, "src")
        self.env = {
            **{k: v for k, v in os.environ.items() if not k.startswith("REPRO_")},
            "PYTHONPATH": os.pathsep.join([src, BENCH_DIR]),
            "REPRO_CC_CACHE": self.cc_cache,
            "TMPDIR": tmp,
        }


def warm_build(ctx: Context) -> str:
    """Build the C solver kernels into the checkout's cache before any
    timing; returns the cache state found ("warm" or "cold")."""
    state = "warm" if glob.glob(os.path.join(ctx.cc_cache, "*.so")) else "cold"
    subprocess.run(
        [sys.executable, "-c", "from repro.core import permkernels; permkernels.warmup()"],
        cwd=ctx.root, env=ctx.env, check=True, timeout=300,
    )
    return state


def run_record(ctx: Context, cc_state: str) -> dict:
    import numpy

    from repro.core import permkernels

    return {
        "kernels": permkernels.backend_info(),
        "cc_build_cache": cc_state,
        "nproc": os.cpu_count(),
        "connections": ctx.connections,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    ctx = Context(root)
    os.environ["REPRO_CC_CACHE"] = ctx.cc_cache
    sys.path.insert(0, os.path.join(root, "src"))
    cc_state = warm_build(ctx)
    record = run_record(ctx, cc_state)
    print("run record:", json.dumps(record, sort_keys=True))

    if args.workload == "sim_campaign":
        import campaign_bench

        out = campaign_bench.run(ctx, args.seed, args.seconds, bool(args.trace))
    else:
        import serve_bench

        out = serve_bench.run(ctx, args.workload, args.seed, args.seconds, bool(args.trace))

    from stats import format_table

    metrics = {m.name: m for m in out["metrics"]}
    if sorted(metrics) != sorted(wanted):
        raise SystemExit(
            f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}"
        )
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(format_table(metrics[name] for name in wanted))
    if out.get("table"):
        print(out["table"])
    for line in out["wrong"][:20]:
        print("WRONG:", line)
    result = {
        "correct": not out["wrong"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": float(metrics[name].value), "unit": metrics[name].unit}
            for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
