"""Regression guard for what perfbench cannot see.

``perf_guard.py`` guards the default path end to end: the daemon, the
solvers and the vector engine's compiled ``cc`` kernel, each measured by
``perfbench/run.py`` against the parent commit.  This script guards the
rest, each quantity against a limit written below:

* the C1 raw-simulator fast path (absolute seconds);
* the cost of packet tracing on the fast path, and of request-span
  tracing in the serve daemon;
* the daemon at 4x saturation: goodput and accepted p99;
* the compiled SSS sweep: ``cc`` against the per-window ``reference``
  sweep (only where the C kernels load).

Engine timings come from interleaved rounds in one process, best-of-N
per configuration, and every round asserts that the traced run stays
bit-identical to the untraced one, so a ratio can never come from
computing less.  The solver rounds assert the same of the two backends'
mappings.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py

Exits 1 if any quantity is past its limit.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

#: Guarded quantity -> (direction, limit).  "max" fails above the limit,
#: "min" below it.  Each limit is a recorded baseline x (1 +/- tolerance):
#: 30% for ratios, 60% for absolute seconds, which follow the host.
LIMITS = {
    "engine.fastpath_seconds": ("max", 1.142),  # 0.714 s x 1.6
    "obs_overhead.overhead_ratio": ("max", 1.443),  # 1.11 x 1.3
    "service.obs_overhead.overhead_ratio": ("max", 1.196),  # 0.92 x 1.3
    "service.overload.goodput_ratio": ("min", 0.932),  # 1.332 x 0.7
    "service.overload.p99_ratio": ("max", 2.262),  # 1.74 x 1.3
    "solvers.sss_compiled_speedup": ("min", 13.27),  # 18.95x x 0.7
}

ROUNDS = 3  # interleaved engine and solver rounds (best-of-N)


def _scenario():
    from repro.core.sss import sort_select_swap
    from repro.experiments.base import standard_instance
    from repro.noc.traffic import MappedWorkloadTraffic

    instance = standard_instance("C1")
    mapping = sort_select_swap(instance).mapping

    def make():
        return MappedWorkloadTraffic(instance, mapping, generate_replies=True, seed=13)

    return instance.mesh, make


def _signature(res):
    return (
        res.stats.n_packets,
        res.stats.g_apl(),
        res.counts.flit_router_traversals,
        res.power.total,
    )


def measure_engine() -> dict:
    """Fast path and packet tracing on C1, 500+4000 cycles."""
    from repro.noc.simulator import NoCSimulator
    from repro.obs import Observability, ObservabilityConfig, SamplerConfig, TraceConfig

    mesh, make = _scenario()

    def fast(obs=None):
        sim = NoCSimulator(mesh, make(), obs=obs, engine="fastpath")
        return sim.run(warmup=500, measure=4_000)

    def traced():
        config = ObservabilityConfig(trace=TraceConfig(), sample=SamplerConfig(every=200))
        return fast(Observability(config))

    fast()  # warm imports/allocator outside the timed rounds
    timed = [("fast", fast), ("trace", traced)]
    t = {key: [] for key, _ in timed}
    for _ in range(ROUNDS):
        for key, fn in timed:
            t0 = time.perf_counter()
            result = fn()
            t[key].append(time.perf_counter() - t0)
            if key == "fast":
                ref_sig = _signature(result)
            else:
                assert _signature(result) == ref_sig, f"{key} diverged from fastpath"
    best = {k: min(v) for k, v in t.items()}
    return {
        "engine.fastpath_seconds": round(best["fast"], 3),
        "obs_overhead.overhead_ratio": round(best["trace"] / best["fast"], 2),
    }


def measure_solvers() -> dict:
    """Interleaved best-of-N ``sort_select_swap`` on C1, ``cc`` vs ``reference``.

    Empty where the C kernels do not load.  Raises AssertionError if the
    ``cc`` mapping diverges from the ``reference`` sweep -- the
    bit-identity the solver goldens pin.
    """
    from repro.core import permkernels
    from repro.core.sss import sort_select_swap
    from repro.experiments.base import standard_instance

    instance = standard_instance("C1")
    if not permkernels.backend_info()["cc"]:
        return {}
    backends = ["reference", "cc"]

    def solve(backend: str):
        with permkernels.force_backend(backend):
            return sort_select_swap(instance)

    permkernels.warmup()  # build the kernels outside the timed rounds
    for backend in backends:
        solve(backend)
    times: dict[str, list[float]] = {b: [] for b in backends}
    for _ in range(ROUNDS):
        for backend in backends:
            t0 = time.perf_counter()
            perm = solve(backend).mapping.perm.tolist()
            times[backend].append(time.perf_counter() - t0)
            if backend == "reference":
                ref_perm = perm
            else:
                assert perm == ref_perm, f"{backend} backend diverged from the reference sweep"
    best = {b: min(v) for b, v in times.items()}
    return {"solvers.sss_compiled_speedup": round(best["reference"] / best["cc"], 2)}


def measure() -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_serve import measure_overload, measure_tracing_overhead

    overload = measure_overload(rounds=2)  # asserts zero 500s and Retry-After
    return {
        **measure_engine(),
        "service.obs_overhead.overhead_ratio": measure_tracing_overhead(),
        "service.overload.goodput_ratio": overload["goodput_ratio"],
        "service.overload.p99_ratio": overload["p99_ratio"],
        **measure_solvers(),
    }


def check(measured: dict) -> list[str]:
    """Print one line per guarded quantity; return the regressions (empty = pass).

    A quantity absent from ``measured`` is reported as a skip: only
    ``solvers.sss_compiled_speedup`` is, on a host without the C kernels.
    """
    failures = []
    for name, (direction, limit) in LIMITS.items():
        if name not in measured:
            print(f"  {name:<46s} ------- (not measured here) skip")
            continue
        value = measured[name]
        ok = value <= limit if direction == "max" else value >= limit
        need = "<=" if direction == "max" else ">="
        print(f"  {name:<46s} {value:>7.3f} (need {need} {limit}) {'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(f"{name}: {value} (need {need} {limit})")
    return failures


def main() -> int:
    measured = measure()
    print("benchmark-regression guard:")
    failures = check(measured)
    if failures:
        print("\nFAIL:", *failures, sep="\n  ")
        return 1
    print("all guarded quantities within their limits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
