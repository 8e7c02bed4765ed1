"""Solver-kernel benchmark: SSS/MC/GA throughput and serve cache-miss latency.

Measures the mapping solvers on the default 8x8 four-application
instance (C1) across the kernel backends of
`repro.core.permkernels` — the untouched per-window ``reference``
path, the always-available batched ``numpy`` fallback, and the best
compiled backend (the self-compiled C kernels, where they load) — plus the
end-to-end effect on the serve daemon: cache-miss request latency and
solves/sec with every request a distinct problem.

All backend timings come from *interleaved* rounds with best-of-N per
backend, and every round asserts the backends return bit-identical
mappings, so a speedup can never come from computing something else.
Numbers feed the ``solvers`` section of ``BENCH_perf.json``; the
speedups are guarded by ``check_regression.py``.

Regenerate with::

    PYTHONPATH=src python benchmarks/bench_solvers.py --update
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core import permkernels
from repro.core.baselines import monte_carlo
from repro.core.genetic import GAConfig, genetic_algorithm
from repro.core.sss import multi_start_sss, sort_select_swap
from repro.experiments.base import standard_instance

PERF_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

MC_SAMPLES = 20_000
GA_POPULATION = 64
GA_GENERATIONS = 40
MULTI_STARTS = 8
MISS_REQUESTS = 12  # unique problems in the serve cache-miss probe


def _compiled_backend() -> str | None:
    """The compiled backend available here, or None."""
    return "cc" if permkernels.backend_info()["cc"] else None


def measure_solvers(rounds: int = 3) -> dict:
    """Interleaved best-of-N solver timings across backends.

    Also imported by ``check_regression.py`` to guard the speedups.
    Raises AssertionError if any backend's mapping diverges from the
    reference — the bit-identity contract the golden tests pin.
    """
    instance = standard_instance("C1")
    backends = ["reference", "numpy"]
    compiled = _compiled_backend()
    if compiled is not None:
        backends.append(compiled)

    def solve(backend: str):
        with permkernels.force_backend(backend):
            return sort_select_swap(instance)

    permkernels.warmup()  # compile/build outside the timed rounds
    for backend in backends:
        solve(backend)
    times: dict[str, list[float]] = {b: [] for b in backends}
    ref_perm = None
    for _ in range(max(1, rounds)):
        for backend in backends:
            t0 = time.perf_counter()
            result = solve(backend)
            times[backend].append(time.perf_counter() - t0)
            if backend == "reference":
                ref_perm = result.mapping.perm.tolist()
            else:
                assert result.mapping.perm.tolist() == ref_perm, (
                    f"{backend} backend diverged from the reference sweep"
                )
    best = {b: min(v) for b, v in times.items()}

    t0 = time.perf_counter()
    monte_carlo(instance, n_samples=MC_SAMPLES, seed=0)
    mc_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    genetic_algorithm(
        instance, GAConfig(population=GA_POPULATION, generations=GA_GENERATIONS), seed=0
    )
    ga_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    multi_start_sss(instance, n_starts=MULTI_STARTS, seed=0)
    multi_wall = time.perf_counter() - t0

    measured = {
        "sss_reference_seconds": round(best["reference"], 5),
        "sss_numpy_seconds": round(best["numpy"], 5),
        "sss_numpy_speedup": round(best["reference"] / best["numpy"], 2),
        "mc_samples_per_sec": round(MC_SAMPLES / mc_wall),
        "ga_generations_per_sec": round(GA_GENERATIONS / ga_wall, 1),
        "multi_start_wall_seconds": round(multi_wall, 4),
    }
    if compiled is not None:
        measured["compiled_backend"] = compiled
        measured["sss_compiled_seconds"] = round(best[compiled], 5)
        measured["sss_compiled_speedup"] = round(best["reference"] / best[compiled], 2)
    return measured


def measure_serve_cache_miss() -> dict:
    """Cache-miss latency/throughput of the daemon: every request unique."""
    from bench_serve import _Daemon, problem_spec

    daemon = _Daemon(workers=2)
    try:
        requests = [problem_spec(100 + i) for i in range(MISS_REQUESTS)]
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=4) as pool:
            metas = [doc["meta"]["cache"] for doc in pool.map(daemon.post, requests)]
        wall = time.perf_counter() - t0
        assert metas.count("miss") == MISS_REQUESTS, metas
        latency = daemon.service.registry.histogram("serve_request_seconds")
        return {
            "requests": MISS_REQUESTS,
            "p50": round(latency.quantile(0.5), 6),
            "p99": round(latency.quantile(0.99), 6),
            "solves_per_sec": round(MISS_REQUESTS / wall, 1),
        }
    finally:
        daemon.stop()


def run_benchmark(rounds: int = 3) -> dict:
    info = permkernels.backend_info()
    section = {
        "description": (
            "Mapping-solver kernels on the default 8x8 four-app instance "
            "(C1).  sss_* are best-of-N interleaved sort_select_swap "
            "wall-clocks per kernel backend (reference = the pre-kernel "
            "per-window sweep; every round asserts bit-identical "
            "mappings).  mc/ga/multi_start run under the default backend "
            f"({MC_SAMPLES} MC samples, GA {GA_POPULATION}x"
            f"{GA_GENERATIONS}, {MULTI_STARTS}-start SSS).  "
            "serve_cache_miss drives the daemon with all-unique problems "
            "(no cache hits).  Speedups are guarded by "
            "check_regression.py; regenerate with: PYTHONPATH=src python "
            "benchmarks/bench_solvers.py --update"
        ),
        "backend": {
            "default": info["backend"],
            "cc": info["cc"],
        },
        **measure_solvers(rounds),
        "serve_cache_miss": measure_serve_cache_miss(),
    }
    return section


def test_solver_benchmark(benchmark):
    """Pytest entry: run the benchmark and print the section."""
    from conftest import run_once

    section = run_once(benchmark, run_benchmark)
    print()
    print(json.dumps({"solvers": section}, indent=2, sort_keys=True))
    # The batched NumPy fallback alone must beat the per-window sweep.
    assert section["sss_numpy_speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rounds", type=int, default=3, help="interleaved rounds (best-of-N)"
    )
    parser.add_argument(
        "--update", action="store_true",
        help=f"write the 'solvers' section into {PERF_PATH.name}",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    section = run_benchmark(args.rounds)
    print(json.dumps({"solvers": section}, indent=2, sort_keys=True))
    if args.update:
        perf = json.loads(PERF_PATH.read_text())
        perf["solvers"] = section
        PERF_PATH.write_text(json.dumps(perf, indent=2, sort_keys=True) + "\n")
        print(f"updated {PERF_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
