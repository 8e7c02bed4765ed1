"""End-to-end regression guard: this tree against a base commit, by perfbench.

Runs this tree's ``perfbench/run.py --trace 0`` on every workload that
``BENCHMARK.json`` declares, in a git worktree of ``BASE_REF`` and in the
current tree, for three alternating pairs (seeds 1-3, ``run_seconds``
from ``BENCHMARK.json``), and reads only each run's last-line JSON.  A
workload fails when a run reports ``correct: false``, when this tree
fails a larger share of its attempted operations, or when an end-to-end
metric's median is worse than the base median by more than that metric's
``bound`` (a fraction of the base median).

This guards the default path: the serve daemon, the solvers and the
vector engine's compiled ``cc`` kernel.  ``check_regression.py`` guards
what perfbench cannot see.

Usage::

    python benchmarks/perf_guard.py BASE_REF

Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN = REPO / "perfbench" / "run.py"
SEEDS = (1, 2, 3)


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare(declared: list[dict], base: list[dict], head: list[dict]) -> list[str]:
    """Print one line per end-to-end metric; return the failures (empty = pass).

    ``declared`` is ``BENCHMARK.json``'s ``end_to_end`` list; ``base`` and
    ``head`` are perfbench's last-line records for each side.
    """
    failures = [f"{side} run {i} is not correct"
                for side, runs in (("base", base), ("head", head))
                for i, r in enumerate(runs) if not r["correct"]]
    if failed_share(head) > failed_share(base):
        failures.append(f"failed share {failed_share(head):.4f} > base {failed_share(base):.4f}")
    for metric in declared:
        name, bound = metric["name"], metric["bound"]
        old = statistics.median(r["metrics"][name]["value"] for r in base)
        new = statistics.median(r["metrics"][name]["value"] for r in head)
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * (new - old) > bound * abs(old)
        print(f"  {name:<20s} base {old:>11.4f}  head {new:>11.4f}  "
              f"bound {bound:.0%} {metric['better']}  {'WORSE' if worse else 'ok'}")
        if worse:
            failures.append(f"{name}: median {new:.4f} vs base {old:.4f} "
                            f"({metric['better']} is better, bound {bound:.0%})")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_ref", help="commit to compare this tree against")
    base_ref = ap.parse_args(argv).base_ref
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    failures = []
    with tempfile.TemporaryDirectory(prefix="perf-guard-") as tmp:
        base_root = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach",
                        str(base_root), base_ref], check=True)
        try:
            for workload in (w["name"] for w in bench["workloads"]):
                runs = {"base": [], "head": []}
                for i, seed in enumerate(SEEDS):
                    order = ("base", "head") if i % 2 == 0 else ("head", "base")
                    for side in order:
                        root = base_root if side == "base" else REPO
                        runs[side].append(perfbench(root, workload, seed, bench["run_seconds"]))
                print(f"{workload} ({base_ref} vs this tree, seeds {list(SEEDS)}):")
                failures += [f"{workload}: {f}" for f in
                             compare(bench["end_to_end"], runs["base"], runs["head"])]
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force",
                            str(base_root)], check=True)
    if failures:
        print("\nFAIL:", *failures, sep="\n  ")
        return 1
    print("every workload within its bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
