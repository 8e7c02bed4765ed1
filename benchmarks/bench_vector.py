"""Vector-engine speedup benchmark (single-sim and batched throughput).

Times the committed C1 raw-simulator scenario (SSS mapping, 500 warmup +
4000 measured cycles, request/reply traffic, seed 13) on the fast path
and on the vector engine, then measures batched per-simulation
throughput at several batch sizes.  Numbers feed the ``vector_engine``
section of ``BENCH_perf.json``.

Methodology: the two engines are pure-Python-bound in different ways
(the fast path is all bytecode; the scalar vector mode mixes bytecode
with small NumPy kernels), so they respond differently to machine load
phases and single timings of each are not comparable.  Every ratio here
is therefore taken from *interleaved* rounds in one process — fastpath,
vector, fastpath, vector, ... — with best-of-N per engine, which bounds
the phase skew by the round granularity.  Equivalence is asserted on
every round: the speedup is only meaningful because the measured numbers
are bit-identical.

Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_vector.py -q -s --benchmark-disable
"""

import time
from collections import Counter

from conftest import _record_timing

from repro.core.sss import sort_select_swap
from repro.experiments.base import standard_instance
from repro.noc.simulator import NoCSimulator
from repro.noc.traffic import MappedWorkloadTraffic
from repro.noc.vector_engine import VectorEngine, run_batch

WARMUP, MEASURE = 500, 4_000
SINGLE_ROUNDS = 3
BATCH_SIZES = (8, 32)
BATCH_ROUNDS = 2


def _scenario():
    instance = standard_instance("C1")
    mapping = sort_select_swap(instance).mapping

    def make(seed=13):
        return MappedWorkloadTraffic(
            instance, mapping, generate_replies=True, seed=seed
        )

    return instance.mesh, make


def _signature(res):
    return (
        sorted(Counter(res.stats._all).items()),
        res.counts.flit_router_traversals,
        res.power.total,
        res.packets_delivered,
    )


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_vector_single_sim_speedup():
    """Interleaved best-of-N: fastpath vs vector (scalar mode), one sim."""
    mesh, make = _scenario()

    def fast():
        return NoCSimulator(mesh, make(), engine="fastpath").run(
            warmup=WARMUP, measure=MEASURE
        )

    def vec():
        return VectorEngine(mesh, [make()], mode="scalar").run(
            warmup=WARMUP, measure=MEASURE
        )[0]

    fast()  # warm imports / allocator before any timed round
    vec()
    t_fast, t_vec = [], []
    for _ in range(SINGLE_ROUNDS):
        tf, rf = _timed(fast)
        tv, rv = _timed(vec)
        assert _signature(rv) == _signature(rf)
        t_fast.append(tf)
        t_vec.append(tv)
    best_fast, best_vec = min(t_fast), min(t_vec)
    _record_timing("test_vector_single_sim", best_vec)
    print(
        f"\nsingle-sim C1/{MEASURE} cycles (best of {SINGLE_ROUNDS} "
        f"interleaved): fastpath {best_fast:.3f}s, vector-scalar "
        f"{best_vec:.3f}s ({best_fast / best_vec:.2f}x)"
    )
    assert best_fast / best_vec > 1.1


def test_vector_batch_throughput():
    """Per-simulation wall-clock of batched runs vs the fast path.

    Times the SoA batch path at every batch size, rounds interleaved
    with fastpath singles.
    """
    mesh, make = _scenario()

    def fast_one():
        return NoCSimulator(mesh, make(13), engine="fastpath").run(
            warmup=WARMUP, measure=MEASURE
        )

    def batch(n):
        return run_batch(
            mesh,
            [make(13 + i) for i in range(n)],
            warmup=WARMUP,
            measure=MEASURE,
        )

    ref = fast_one()  # warm
    batch(2)
    rows = []
    t_fast = []
    for size in BATCH_SIZES:
        tb = []
        for _ in range(BATCH_ROUNDS):
            tf, rf = _timed(fast_one)
            t_fast.append(tf)
            t, results = _timed(lambda: batch(size))
            tb.append(t / size)
            assert _signature(results[0]) == _signature(rf)
        rows.append((size, min(tb)))
    best_fast = min(t_fast)
    print(f"\nbatch throughput, per-sim seconds (fastpath single {best_fast:.3f}s):")
    for size, per_sim in rows:
        _record_timing(f"test_vector_batch_soa_{size}", per_sim)
        print(
            f"  soa  batch={size:<3d} {per_sim:.3f}s/sim "
            f"({best_fast / per_sim:.2f}x per-sim throughput)"
        )
    assert ref.packets_delivered > 0
    # Largest batch must amortize meaningfully over the fast path.
    assert best_fast / rows[-1][1] > 1.5
