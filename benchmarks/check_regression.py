"""Benchmark-regression guard for the committed BENCH_perf.json baselines.

Re-measures the two committed engine benchmarks -- the C1 raw-simulator
scenario (fast-path wall-clock and vector-engine speedup) and the
observability overhead ratio -- and exits non-zero if any tracked
quantity regresses more than the tolerance against ``BENCH_perf.json``.

Guarded quantities and directions:

* ``vector_engine.single_sim.speedup``   -- must not DROP >30%
* ``vector_engine.soa_batch.per_sim_speedup.batch_32``
                                         -- must not DROP >30%
* ``obs_overhead...overhead_ratio``      -- must not RISE >30%
* ``service.obs_overhead.overhead_ratio``-- must not RISE >30% (the serve
  daemon's request-span tracing, measured by bench_serve's interleaved
  on/off burst; tracing must stay close to free)
* ``service.overload.goodput_ratio``     -- must not DROP >30% (accepted
  throughput at 4x sustained saturation vs measured 1x capacity; the
  degradation ladder must keep the daemon doing useful work, not
  collapse under admission churn)
* ``service.overload.p99_ratio``         -- must not RISE >30% (accepted
  p99 at 4x saturation vs the 1x closed-loop p99; bounded queues plus
  degradation must keep accepted requests fast while shedding the rest)
* ``solvers.sss_numpy_speedup``          -- must not DROP >30% (the
  batched NumPy sweep vs the per-window reference on C1; also the guard
  behind the re-baselined ``benchmarks.test_scaling`` entry)
* ``solvers.sss_compiled_speedup``       -- must not DROP >30% (checked
  only where the self-built C kernels load; otherwise reported as a
  skip)
* ``engine...fastpath_seconds``          -- must not RISE >60% (seconds
  get a wider default tolerance than ratios: absolute wall-clock varies
  with host and machine load phase, while ratios taken from interleaved
  rounds mostly cancel that out)

All timings come from *interleaved* rounds in one process (fastpath,
vector, tracing-on, repeat) with best-of-N per configuration -- single
back-to-back timings of differently-bound engines are not comparable
across machine load phases.  Every round also asserts the engines stay
bit-identical, so a "speedup" can never come from computing less.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py [--rounds N]
        [--tolerance 0.30] [--seconds-tolerance 0.60] [--update]
        [--bench-json PATH]

``--update`` rewrites the measured baselines in BENCH_perf.json instead
of failing on drift (use after intentional engine changes).

Exit codes::

    0  every guarded quantity is within tolerance; a baseline *section*
       that is absent is reported as an explicit per-quantity skip (a
       young baseline is not a regression)
    1  at least one quantity regressed beyond tolerance
    2  the baseline file is missing, is not valid JSON, is not a JSON
       object, or contains none of the guarded sections -- the guard
       cannot make a meaningful pass/fail call, and says so instead of
       dying in a traceback

The baseline is parsed *before* the (slow) measurement rounds, so a
malformed file fails in milliseconds, not minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def _scenario():
    from repro.core.sss import sort_select_swap
    from repro.experiments.base import standard_instance
    from repro.noc.traffic import MappedWorkloadTraffic

    instance = standard_instance("C1")
    mapping = sort_select_swap(instance).mapping

    def make(seed=13):
        return MappedWorkloadTraffic(instance, mapping, generate_replies=True, seed=seed)

    return instance.mesh, make


def _signature(res):
    return (
        res.stats.n_packets,
        res.stats.g_apl(),
        res.counts.flit_router_traversals,
        res.power.total,
    )


#: Batch size of the guarded SoA throughput quantity.
BATCH = 32


def measure(rounds: int) -> dict:
    """Interleaved best-of-N timings for all guarded quantities."""
    from repro.noc.simulator import NoCSimulator
    from repro.noc.vector_engine import VectorEngine, run_batch
    from repro.obs import Observability, ObservabilityConfig, SamplerConfig, TraceConfig

    mesh, make = _scenario()

    def fast(obs=None):
        return NoCSimulator(mesh, make(), obs=obs).run(warmup=500, measure=4_000)

    def vec():
        return VectorEngine(mesh, [make()], mode="scalar").run(
            warmup=500, measure=4_000
        )[0]

    def traced():
        return fast(
            Observability(
                ObservabilityConfig(trace=TraceConfig(), sample=SamplerConfig(every=200))
            )
        )

    def batch():
        return run_batch(
            mesh,
            [make(13 + i) for i in range(BATCH)],
            warmup=500,
            measure=4_000,
        )[0]

    fast()  # warm imports/allocator outside the timed rounds
    vec()
    timed = [("fast", fast), ("vec", vec), ("trace", traced), ("batch", batch)]
    t = {key: [] for key, _ in timed}
    for _ in range(rounds):
        for key, fn in timed:
            t0 = time.perf_counter()
            result = fn()
            t[key].append(time.perf_counter() - t0)
            if key == "fast":
                ref_sig = _signature(result)
            else:
                # batch runs return their seed-13 member: every backend
                # must stay bit-identical to the fast path.
                assert _signature(result) == ref_sig, f"{key} diverged from fastpath"
    best = {k: min(v) for k, v in t.items()}
    measured = {
        "fastpath_seconds": round(best["fast"], 3),
        "vector_seconds": round(best["vec"], 3),
        "vector_speedup": round(best["fast"] / best["vec"], 2),
        "soa_batch_per_sim_seconds": round(best["batch"] / BATCH, 4),
        "soa_batch_speedup": round(best["fast"] / (best["batch"] / BATCH), 2),
        "obs_off_seconds": round(best["fast"], 3),
        "obs_tracing_seconds": round(best["trace"], 3),
        "obs_overhead_ratio": round(best["trace"] / best["fast"], 2),
    }
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_serve import measure_overload, measure_tracing_overhead
    from bench_solvers import measure_solvers

    serve_obs = measure_tracing_overhead(rounds=min(2, rounds))
    measured["serve_obs_off_seconds"] = serve_obs["off_seconds"]
    measured["serve_obs_on_seconds"] = serve_obs["tracing_on_seconds"]
    measured["serve_tracing_ratio"] = serve_obs["overhead_ratio"]
    # Overload shedding/goodput (asserts zero-500s + Retry-After itself).
    measured["serve_overload"] = measure_overload(rounds=min(2, rounds))
    # Solver-kernel speedups (asserts backend bit-identity internally).
    measured["solvers"] = measure_solvers(rounds=rounds)
    return measured


#: Top-level baseline sections the guard reads; a file with none of them
#: is treated as section-less (exit 2), not silently all-skip.
GUARDED_SECTIONS = ("engine", "vector_engine", "obs_overhead", "service", "solvers")


class BaselineError(RuntimeError):
    """BENCH_perf.json cannot support a pass/fail decision (exit 2)."""


def load_baseline(path: Path) -> dict:
    """Parse and sanity-check the baseline file, or raise BaselineError."""
    try:
        raw = path.read_text()
    except OSError as exc:
        raise BaselineError(
            f"baseline file {path} is missing or unreadable ({exc}); "
            "run with --update to record one"
        ) from exc
    try:
        baseline = json.loads(raw)
    except ValueError as exc:
        raise BaselineError(
            f"baseline file {path} is not valid JSON ({exc}); "
            "fix it or regenerate with --update"
        ) from exc
    if not isinstance(baseline, dict):
        raise BaselineError(
            f"baseline file {path} must be a JSON object, got {type(baseline).__name__}"
        )
    if not any(isinstance(baseline.get(s), dict) for s in GUARDED_SECTIONS):
        raise BaselineError(
            f"baseline file {path} has none of the guarded sections "
            f"{list(GUARDED_SECTIONS)}; nothing to check -- "
            "regenerate with --update"
        )
    return baseline


def _section(baseline: dict, *keys: str) -> dict:
    """Drill into nested baseline dicts; non-dict levels read as empty."""
    node = baseline
    for key in keys:
        node = node.get(key, {}) if isinstance(node, dict) else {}
    return node if isinstance(node, dict) else {}


def check(measured: dict, baseline: dict, tol: float, tol_seconds: float) -> list[str]:
    """Return a list of regression messages (empty = pass)."""
    failures = []

    def guard(name, new, old, *, worse_is_higher, tolerance):
        if old is None:
            print(f"  {name:<42s} {new:>7.3f} (baseline missing) skip")
            return
        if not isinstance(old, (int, float)) or isinstance(old, bool):
            failures.append(f"{name}: baseline value {old!r} is not a number")
            print(f"  {name:<42s} {new:>7.3f} (baseline {old!r}) MALFORMED")
            return
        limit = old * (1 + tolerance) if worse_is_higher else old * (1 - tolerance)
        ok = new <= limit if worse_is_higher else new >= limit
        arrow = "<=" if worse_is_higher else ">="
        status = "ok" if ok else "REGRESSION"
        print(f"  {name:<42s} {new:>7.3f} (baseline {old:.3f}, need {arrow} {limit:.3f}) {status}")
        if not ok:
            failures.append(f"{name}: {new} vs baseline {old} (tolerance {tolerance:.0%})")

    engine = _section(baseline, "engine", "raw_simulator_c1_4000_cycles")
    vector = _section(baseline, "vector_engine", "single_sim")
    soa = _section(baseline, "vector_engine", "soa_batch", "per_sim_speedup")
    obs = _section(baseline, "obs_overhead", "raw_simulator_c1_4000_cycles")
    print("benchmark-regression guard (C1 raw-sim, 500+4000 cycles):")
    guard(
        "engine.fastpath_seconds",
        measured["fastpath_seconds"],
        engine.get("fastpath_seconds"),
        worse_is_higher=True,
        tolerance=tol_seconds,
    )
    guard(
        "vector_engine.single_sim.speedup",
        measured["vector_speedup"],
        vector.get("speedup"),
        worse_is_higher=False,
        tolerance=tol,
    )
    guard(
        "vector_engine.soa_batch.speedup.batch_32",
        measured["soa_batch_speedup"],
        soa.get("batch_32"),
        worse_is_higher=False,
        tolerance=tol,
    )
    guard(
        "obs_overhead.overhead_ratio",
        measured["obs_overhead_ratio"],
        obs.get("overhead_ratio"),
        worse_is_higher=True,
        tolerance=tol,
    )
    if "serve_tracing_ratio" in measured:
        serve_obs = _section(baseline, "service", "obs_overhead")
        guard(
            "service.obs_overhead.overhead_ratio",
            measured["serve_tracing_ratio"],
            serve_obs.get("overhead_ratio"),
            worse_is_higher=True,
            tolerance=tol,
        )
    else:
        print(
            "  service.obs_overhead.overhead_ratio         ------- "
            "(serve probe not measured) skip"
        )
    if "serve_overload" in measured:
        overload = _section(baseline, "service", "overload")
        guard(
            "service.overload.goodput_ratio",
            measured["serve_overload"]["goodput_ratio"],
            overload.get("goodput_ratio"),
            worse_is_higher=False,
            tolerance=tol,
        )
        guard(
            "service.overload.p99_ratio",
            measured["serve_overload"]["p99_ratio"],
            overload.get("p99_ratio"),
            worse_is_higher=True,
            tolerance=tol,
        )
    else:
        print(
            "  service.overload.*                          ------- "
            "(overload probe not measured) skip"
        )
    solvers = _section(baseline, "solvers")
    solver_measured = measured.get("solvers", {})
    if "sss_numpy_speedup" in solver_measured:
        guard(
            "solvers.sss_numpy_speedup",
            solver_measured["sss_numpy_speedup"],
            solvers.get("sss_numpy_speedup"),
            worse_is_higher=False,
            tolerance=tol,
        )
        if "sss_compiled_speedup" in solver_measured:
            guard(
                "solvers.sss_compiled_speedup",
                solver_measured["sss_compiled_speedup"],
                solvers.get("sss_compiled_speedup"),
                worse_is_higher=False,
                tolerance=tol,
            )
        else:
            print(
                "  solvers.sss_compiled_speedup                ------- "
                "(no compiled backend; fallback is the guarded numpy sweep) skip"
            )
    else:
        print(
            "  solvers.sss_numpy_speedup                   ------- "
            "(solver probe not measured) skip"
        )
    return failures


def update(measured: dict, baseline: dict) -> dict:
    """Fold the measured values back into the BENCH_perf.json structure."""
    engine = baseline.setdefault("engine", {}).setdefault(
        "raw_simulator_c1_4000_cycles", {}
    )
    engine["fastpath_seconds"] = measured["fastpath_seconds"]
    if "seed_seconds" in engine:
        engine["speedup"] = round(engine["seed_seconds"] / engine["fastpath_seconds"], 2)
    single = baseline.setdefault("vector_engine", {}).setdefault("single_sim", {})
    single.update(
        fastpath_seconds=measured["fastpath_seconds"],
        vector_scalar_seconds=measured["vector_seconds"],
        speedup=measured["vector_speedup"],
    )
    soa = baseline.setdefault("vector_engine", {}).setdefault("soa_batch", {})
    soa["fastpath_single_seconds"] = measured["fastpath_seconds"]
    soa.setdefault("per_sim_seconds", {})["batch_32"] = measured[
        "soa_batch_per_sim_seconds"
    ]
    soa.setdefault("per_sim_speedup", {})["batch_32"] = measured["soa_batch_speedup"]
    obs = baseline.setdefault("obs_overhead", {}).setdefault(
        "raw_simulator_c1_4000_cycles", {}
    )
    obs.update(
        off_seconds=measured["obs_off_seconds"],
        tracing_on_seconds=measured["obs_tracing_seconds"],
        overhead_ratio=measured["obs_overhead_ratio"],
    )
    if "serve_tracing_ratio" in measured:
        serve_obs = baseline.setdefault("service", {}).setdefault("obs_overhead", {})
        serve_obs.update(
            off_seconds=measured["serve_obs_off_seconds"],
            tracing_on_seconds=measured["serve_obs_on_seconds"],
            overhead_ratio=measured["serve_tracing_ratio"],
        )
    if "serve_overload" in measured:
        baseline.setdefault("service", {})["overload"] = measured["serve_overload"]
    if "solvers" in measured:
        # Refresh the timing/speedup keys only: descriptions, backend
        # snapshot, and the serve_cache_miss probe stay bench_solvers.py's.
        baseline.setdefault("solvers", {}).update(measured["solvers"])
    return baseline


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3, help="interleaved rounds (best-of-N)")
    ap.add_argument("--tolerance", type=float, default=0.30, help="ratio tolerance")
    ap.add_argument(
        "--seconds-tolerance",
        type=float,
        default=0.60,
        help="tolerance for absolute wall-clock baselines",
    )
    ap.add_argument(
        "--update",
        action="store_true",
        help="rewrite the measured baselines in BENCH_perf.json",
    )
    ap.add_argument(
        "--bench-json",
        type=Path,
        default=BENCH_JSON,
        metavar="PATH",
        help=f"baseline file to check/update (default {BENCH_JSON.name})",
    )
    args = ap.parse_args(argv)

    bench_json = args.bench_json
    if args.update:
        # Updating tolerates a missing/empty baseline (that is how the
        # first one gets recorded); anything parseable is folded into.
        try:
            baseline = load_baseline(bench_json)
        except BaselineError as exc:
            print(f"note: starting a fresh baseline ({exc})")
            baseline = {}
        measured = measure(args.rounds)
        text = json.dumps(update(measured, baseline), indent=2, sort_keys=True) + "\n"
        tmp = bench_json.with_name(f".{bench_json.name}.tmp.{os.getpid()}")
        tmp.write_text(text)
        os.replace(tmp, bench_json)  # atomic: never a half-written baseline
        print(f"updated baselines in {bench_json}: {measured}")
        return 0
    # Parse the baseline *before* measuring: a malformed file should fail
    # in milliseconds, not after minutes of benchmark rounds.
    try:
        baseline = load_baseline(bench_json)
    except BaselineError as exc:
        print(f"SKIP (cannot check): {exc}")
        return 2
    measured = measure(args.rounds)
    failures = check(measured, baseline, args.tolerance, args.seconds_tolerance)
    if failures:
        print("\nFAIL:", *failures, sep="\n  ")
        return 1
    print("all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
