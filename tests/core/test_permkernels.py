"""Property tests pinning the solver kernels to their reference paths.

Three bit-identity contracts, fuzzed with hypothesis:

* The C sweep (``_SwapState.sweep_compiled``) is the fused form of the
  per-window ``_SwapState.try_window`` sweep — same accept decisions,
  same float accumulation, same counters — on random workloads
  including zero-traffic padding apps and across the multi-pass
  ``recompute()`` float-drift cadence.
* :class:`repro.core.permkernels.PermutationBatchEvaluator` reproduces
  per-permutation :func:`repro.core.metrics.evaluate_mapping` bitwise.
* The C Hungarian returns the assignment of the pure-Python reference,
  including on heavily tied (degenerate) cost matrices.
* The compiled simulated-annealing loop returns what the Python loop
  returns and leaves the caller's generator in the same state: its
  bounded draw is ``Generator.integers(n)`` draw for draw on every
  BitGenerator, and ``n == 1`` consumes nothing.

The kernel contracts compare ``cc`` against ``reference`` and skip, with
the loader's reason, where the C kernels do not load.  Plus the
deterministic tie-break contracts of Monte Carlo and exhaustive search
that ride on the batch evaluator.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cc_solvers, hungarian, permkernels
from repro.core.baselines import _permutation_batch, monte_carlo, simulated_annealing
from repro.core.exact import branch_and_bound, exhaustive_search
from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.metrics import evaluate_many, evaluate_mapping
from repro.core.problem import OBMInstance
from repro.core.sss import _SwapState, _window_perms
from repro.core.workload import Application, Workload
from repro.utils.rng import as_rng

_INFO = permkernels.backend_info()
needs_cc = pytest.mark.skipif(
    not _INFO["cc"], reason=f"C kernels unavailable: {_INFO['cc_reason']}"
)


def fuzz_instance(seed: int, side: int, n_apps: int, idle_apps: int) -> OBMInstance:
    """Random instance; the last ``idle_apps`` applications have zero traffic."""
    rng = np.random.default_rng(seed)
    model = MeshLatencyModel(Mesh.square(side))
    n = model.n_tiles
    total_apps = min(n_apps + idle_apps, n)  # every app needs >= 1 thread
    n_apps = min(n_apps, total_apps)
    # Random composition of n threads over the apps, >= 1 thread each.
    cuts = np.sort(rng.choice(n - 1, size=total_apps - 1, replace=False)) + 1
    counts = np.diff(np.concatenate(([0], cuts, [n])))
    apps = []
    for i, k in enumerate(counts):
        idle = i >= n_apps
        apps.append(
            Application(
                f"a{i}",
                np.zeros(k) if idle else rng.uniform(0.1, 5, k),
                np.zeros(k) if idle else rng.uniform(0.0, 1, k),
            )
        )
    return OBMInstance(model, Workload(tuple(apps)))


def _reference_sweep(state: _SwapState, sorted_tiles: np.ndarray, w: int, max_step: int) -> None:
    """The pre-kernel per-window sweep, verbatim (one pass)."""
    n = sorted_tiles.size
    for step in range(1, max_step + 1):
        span = (w - 1) * step
        for start in range(n - span):
            state.try_window(sorted_tiles[start + step * np.arange(w)])


BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
]


def _plain(state):
    """A BitGenerator state with arrays as lists, so states compare with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


def _sa_outcome(backend, instance, rng, **kwargs):
    with permkernels.force_backend(backend):
        result = simulated_annealing(instance, seed=rng, **kwargs)
    return (
        result.mapping.perm.tolist(),
        float(result.extra["objective_value"]).hex(),
        result.extra["accepted_moves"],
        _plain(rng.bit_generator.state),
    )


@needs_cc
class TestAnnealKernel:
    # 3 * 2**30 + 1 rejects about a quarter of Lemire draws; 2**32 is the
    # full-range plain uint32 branch.
    @pytest.mark.parametrize("n", [2, 3, 16, 36, 49, 64, 3 * 2**30 + 1, 2**32])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_bounded_draws_match_integers(self, n, bit_generator):
        lib, _ = cc_solvers.load_library()
        ours = np.random.Generator(bit_generator(5))
        theirs = np.random.Generator(bit_generator(5))
        got = cc_solvers.cc_bounded_draws(lib, ours, n, 2_000)
        assert got.tolist() == theirs.integers(n, size=2_000).tolist()
        assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)

    def test_single_value_range_consumes_nothing(self):
        lib, _ = cc_solvers.load_library()
        rng = np.random.default_rng(3)
        rng.integers(3)  # leave a buffered half-word behind, too
        before = _plain(rng.bit_generator.state)
        assert cc_solvers.cc_bounded_draws(lib, rng, 1, 10).tolist() == [0] * 10
        assert _plain(rng.bit_generator.state) == before
        rng.integers(1, size=10)
        assert _plain(rng.bit_generator.state) == before

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_generator_state_matches_python_loop(self, bit_generator):
        instance = fuzz_instance(11, 6, 3, 1)
        outcomes = [
            _sa_outcome(
                backend, instance, np.random.Generator(bit_generator(2024)),
                n_iters=4_000, restarts=3,
            )
            for backend in ("reference", "cc")
        ]
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        side=st.integers(2, 5),
        n_apps=st.integers(1, 4),
        idle_apps=st.integers(0, 2),
        n_iters=st.integers(1, 3_000),
        restarts=st.integers(1, 4),
        initial_temperature=st.sampled_from([None, 1e-3, 0.5, 20.0]),
    )
    def test_matches_python_loop(
        self, seed, side, n_apps, idle_apps, n_iters, restarts, initial_temperature
    ):
        instance = fuzz_instance(seed, side, n_apps, idle_apps)
        kwargs = dict(
            n_iters=n_iters, restarts=restarts,
            initial_temperature=initial_temperature,
        )
        outcomes = [
            _sa_outcome(backend, instance, np.random.default_rng(seed), **kwargs)
            for backend in ("reference", "cc")
        ]
        assert outcomes[0] == outcomes[1]


class TestSweepKernel:
    @needs_cc
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        side=st.integers(3, 4),
        n_apps=st.integers(1, 3),
        idle_apps=st.integers(0, 2),
        window=st.integers(2, 4),
        passes=st.integers(1, 2),
    )
    def test_matches_per_window_reference(
        self, seed, side, n_apps, idle_apps, window, passes
    ):
        instance = fuzz_instance(seed, side, n_apps, idle_apps)
        rng = np.random.default_rng(seed + 1)
        perm0 = rng.permutation(instance.n).astype(np.int64)
        sorted_tiles = np.argsort(instance.tc, kind="stable").astype(np.int64)
        max_step = max(1, instance.n // window)

        ref = _SwapState(instance, perm0, window)
        for _ in range(passes):
            _reference_sweep(ref, sorted_tiles, window, max_step)
            ref.recompute()

        lib, _ = cc_solvers.load_library()
        state = _SwapState(instance, perm0, window)
        for _ in range(passes):
            state.sweep_compiled(lib, sorted_tiles, max_step)
            state.recompute()
        assert state.perm.tolist() == ref.perm.tolist()
        assert state.tile_thread.tolist() == ref.tile_thread.tolist()
        assert state.numerators.tobytes() == ref.numerators.tobytes()
        assert state.windows_tried == ref.windows_tried
        assert state.windows_accepted == ref.windows_accepted

    def test_window_perms_identity_first(self):
        for w in (2, 3, 4):
            perms = _window_perms(w)
            assert perms[0].tolist() == list(range(w))
            assert perms.shape == (math.factorial(w), w)


class TestBatchEvaluator:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        side=st.integers(2, 4),
        n_apps=st.integers(1, 3),
        idle_apps=st.integers(0, 2),
        k=st.integers(1, 16),
    )
    def test_evaluations_match_evaluate_mapping(self, seed, side, n_apps, idle_apps, k):
        instance = fuzz_instance(seed, side, n_apps, idle_apps)
        rng = np.random.default_rng(seed + 2)
        perms = np.stack([rng.permutation(instance.n) for _ in range(k)]).astype(np.int64)
        wl = instance.workload
        batch = evaluate_many(wl, perms, instance.tc, instance.tm)
        assert len(batch) == k
        for row, got in zip(perms, batch):
            want = evaluate_mapping(wl, row, instance.tc, instance.tm)
            assert got.apls.tobytes() == want.apls.tobytes()
            assert float(got.max_apl).hex() == float(want.max_apl).hex()
            assert float(got.dev_apl).hex() == float(want.dev_apl).hex()
            assert float(got.g_apl).hex() == float(want.g_apl).hex()
            assert float(got.min_max_ratio).hex() == float(want.min_max_ratio).hex()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        side=st.integers(2, 4),
        n_apps=st.integers(1, 4),
        k=st.integers(1, 16),
    )
    def test_metrics_match_scalar_functions(self, seed, side, n_apps, k):
        from repro.core.metrics import dev_apl, g_apl, max_apl

        instance = fuzz_instance(seed, side, n_apps, 0)
        rng = np.random.default_rng(seed + 3)
        perms = np.stack([rng.permutation(instance.n) for _ in range(k)]).astype(np.int64)
        wl = instance.workload
        max_col, dev_col, g_col = instance.batch_evaluator.metrics(perms)
        for i, row in enumerate(perms):
            assert float(max_col[i]).hex() == float(max_apl(wl, row, instance.tc, instance.tm)).hex()
            assert float(dev_col[i]).hex() == float(dev_apl(wl, row, instance.tc, instance.tm)).hex()
            assert float(g_col[i]).hex() == float(g_apl(wl, row, instance.tc, instance.tm)).hex()

    def test_one_dimensional_promotion_and_shape_check(self):
        instance = fuzz_instance(0, 2, 2, 0)
        ev = instance.batch_evaluator
        single = ev.max_apls(np.arange(instance.n, dtype=np.int64))
        assert single.shape == (1,)
        with pytest.raises(ValueError):
            ev.max_apls(np.zeros((2, instance.n + 1), dtype=np.int64))

    def test_objective_values_chunking_is_invisible(self):
        instance = fuzz_instance(5, 3, 2, 1)
        rng = np.random.default_rng(9)
        perms = np.stack([rng.permutation(instance.n) for _ in range(7)]).astype(np.int64)
        ev = instance.batch_evaluator
        whole = ev.objective_values(perms, lambda e: e.dev_apl, chunk=512)
        tiny = ev.objective_values(perms, lambda e: e.dev_apl, chunk=2)
        assert whole.tobytes() == tiny.tobytes()


class TestHungarianBackends:
    @needs_cc
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 8),
        extra_cols=st.integers(0, 3),
        levels=st.integers(1, 4),
    )
    def test_all_backends_match_reference(self, seed, n, extra_cols, levels):
        # Few distinct integer values => many exact ties: the tie-break
        # (ascending-column first minimum) must agree across backends.
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, levels, size=(n, n + extra_cols)).astype(float)
        want = hungarian._solve_reference(cost, n, n + extra_cols)
        with permkernels.force_backend("cc"):
            got = hungarian.solve_assignment(cost)
        assert got.col_of_row.tolist() == want.col_of_row.tolist()
        assert float(got.total_cost).hex() == float(want.total_cost).hex()


class TestMonteCarloTieBreak:
    def test_constant_objective_returns_first_sample(self):
        """All samples tie => the first sampled permutation wins (satellite 1)."""
        instance = fuzz_instance(3, 3, 2, 0)
        result = monte_carlo(
            instance, n_samples=64, seed=11, objective=lambda ev: 0.0, batch=16
        )
        first = _permutation_batch(as_rng(11), 16, instance.n)[0]
        assert result.mapping.perm.tolist() == first.tolist()
        assert result.extra["objective_value"] == 0.0

    @pytest.mark.parametrize("name", ["max_apl", "dev_apl", "g_apl"])
    def test_callable_equals_named_objective(self, name):
        """The chunked-callable path is bit-identical to the named fast path."""
        from repro.core.baselines import OBJECTIVES

        instance = fuzz_instance(7, 3, 3, 1)
        named = monte_carlo(instance, n_samples=300, seed=5, objective=name)
        fn = OBJECTIVES[name]
        via_callable = monte_carlo(
            instance, n_samples=300, seed=5, objective=lambda ev: fn(ev)
        )
        assert via_callable.mapping.perm.tolist() == named.mapping.perm.tolist()
        assert (
            float(via_callable.extra["objective_value"]).hex()
            == float(named.extra["objective_value"]).hex()
        )


class TestExhaustiveSearch:
    def test_matches_branch_and_bound_optimum(self):
        for seed in (0, 1, 2):
            instance = fuzz_instance(seed, 2, 2, 0)
            exact = branch_and_bound(instance)
            brute = exhaustive_search(instance)
            assert (
                float(brute.evaluation.max_apl).hex()
                == float(exact.evaluation.max_apl).hex()
            )
            assert brute.extra["proved_optimal"]
            assert brute.extra["permutations"] == 24

    def test_chunking_does_not_change_the_winner(self):
        instance = fuzz_instance(4, 2, 2, 0)
        whole = exhaustive_search(instance)
        tiny = exhaustive_search(instance, chunk=5)
        assert tiny.mapping.perm.tolist() == whole.mapping.perm.tolist()

    def test_rejects_large_instances_and_bad_chunk(self):
        big = fuzz_instance(0, 4, 2, 0)  # 16 threads > 10
        with pytest.raises(ValueError):
            exhaustive_search(big)
        small = fuzz_instance(0, 2, 2, 0)
        with pytest.raises(ValueError):
            exhaustive_search(small, chunk=0)


class TestBackendPlumbing:
    def test_force_backend_rejects_unknown(self):
        for name in ("fortran", "numpy"):
            with pytest.raises(ValueError):
                with permkernels.force_backend(name):
                    pass

    def test_resolve_backend_honours_force(self):
        with permkernels.force_backend("cc"):
            assert permkernels.resolve_backend() == "cc"
        with permkernels.force_backend("reference"):
            assert permkernels.resolve_backend() == "reference"

    def test_compiled_library_follows_the_backend(self):
        with permkernels.force_backend("reference"):
            assert permkernels.compiled_library() is None
        with permkernels.force_backend("cc"):
            assert permkernels.compiled_library() is cc_solvers.load_library()[0]

    def test_force_is_scoped_to_the_calling_thread(self):
        natural = permkernels.resolve_backend()
        seen = []
        with permkernels.force_backend("reference"):
            worker = threading.Thread(
                target=lambda: seen.append(permkernels.resolve_backend())
            )
            worker.start()
            worker.join()
            assert permkernels.resolve_backend() == "reference"
        assert seen == [natural]
        assert permkernels.resolve_backend() == natural

    def test_env_off_selects_reference(self, monkeypatch):
        """``REPRO_CC=0`` is the one switch that forces the Python loops."""
        monkeypatch.setenv("REPRO_CC", "0")
        monkeypatch.setattr(cc_solvers, "_loaded", False)
        monkeypatch.setattr(cc_solvers, "_lib", None)
        monkeypatch.setattr(cc_solvers, "_lib_error", None)
        assert permkernels.resolve_backend() == "reference"
        assert permkernels.compiled_library() is None
        assert permkernels.backend_info()["cc"] is False

    @pytest.mark.parametrize("word", ["1", "on", "TRUE", "yes"])
    def test_env_on_words_search_the_default_compilers(self, monkeypatch, word):
        """``REPRO_CC=1`` means "use a compiler", not a binary named ``1``."""
        monkeypatch.setattr(
            cc_solvers.shutil, "which",
            lambda name: f"/toolchain/bin/{name}" if name in ("gcc", "clang") else None,
        )
        monkeypatch.setenv("REPRO_CC", word)
        assert cc_solvers.compiler_path() == "/toolchain/bin/gcc"

    def test_env_naming_no_compiler_gives_a_reason_quoting_it(self, monkeypatch):
        monkeypatch.setattr(cc_solvers.shutil, "which", lambda name: None)
        monkeypatch.setenv("REPRO_CC", "no-such-cc")
        assert cc_solvers.compiler_path() is None
        monkeypatch.setattr(cc_solvers, "_loaded", False)
        monkeypatch.setattr(cc_solvers, "_lib", None)
        monkeypatch.setattr(cc_solvers, "_lib_error", None)
        lib, reason = cc_solvers.load_library()
        assert lib is None
        assert "REPRO_CC='no-such-cc'" in reason

    def test_backend_info_shape(self):
        info = permkernels.backend_info()
        assert set(info) == {"backend", "cc", "cc_compiler", "cc_reason"}
        assert info["backend"] in ("cc", "reference")

    def test_warmup_idempotent(self):
        first = permkernels.warmup()
        assert first == permkernels.warmup()
