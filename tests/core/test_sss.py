"""Tests of the sort-select-swap algorithm (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import global_mapping, random_mapping
from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.sss import (
    SSSConfig,
    _SwapState,
    select_only_mapping,
    sort_select_swap,
)
from repro.core.workload import Application, Workload


def random_instance(seed: int, n: int = 4, n_apps: int = 2) -> OBMInstance:
    rng = np.random.default_rng(seed)
    model = MeshLatencyModel(Mesh.square(n))
    per_app = model.n_tiles // n_apps
    apps = tuple(
        Application(
            f"a{i}", rng.uniform(0.1, 5, per_app), rng.uniform(0.0, 1, per_app)
        )
        for i in range(n_apps)
    )
    return OBMInstance(model, Workload(apps))


class TestSSSConfig:
    def test_defaults_are_paper(self):
        cfg = SSSConfig()
        assert cfg.window == 4
        assert cfg.final_polish
        assert cfg.select == "middle"
        assert cfg.swap_passes == 1

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SSSConfig(window=1)
        with pytest.raises(ValueError):
            SSSConfig(window=7)

    def test_invalid_select(self):
        with pytest.raises(ValueError):
            SSSConfig(select="best")

    def test_invalid_app_order(self):
        with pytest.raises(ValueError):
            SSSConfig(app_order="random")

    def test_negative_passes(self):
        with pytest.raises(ValueError):
            SSSConfig(swap_passes=-1)


class TestCorrectness:
    def test_produces_valid_permutation(self, c1_instance):
        result = sort_select_swap(c1_instance)
        perm = result.mapping.perm
        assert sorted(perm.tolist()) == list(range(c1_instance.n))

    def test_deterministic(self, c1_instance):
        r1 = sort_select_swap(c1_instance)
        r2 = sort_select_swap(c1_instance)
        assert np.array_equal(r1.mapping.perm, r2.mapping.perm)

    def test_figure5_reaches_exact_optimum(self, figure5_instance):
        """On the paper's 4x4 example SSS must find the 10.3375 optimum."""
        result = sort_select_swap(figure5_instance)
        assert result.max_apl == pytest.approx(10.3375)
        assert result.dev_apl == pytest.approx(0.0, abs=1e-9)

    def test_swap_never_worsens_select(self, c1_instance):
        result = sort_select_swap(c1_instance)
        select_eval = result.extra["select_eval"]
        swap_eval = result.extra["swap_eval"]
        assert swap_eval.max_apl <= select_eval.max_apl + 1e-9

    def test_beats_global_on_max_apl(self, c1_instance):
        sss = sort_select_swap(c1_instance)
        glob = global_mapping(c1_instance)
        assert sss.max_apl < glob.max_apl

    def test_beats_random_on_balance(self, c1_instance):
        sss = sort_select_swap(c1_instance)
        rnd = random_mapping(c1_instance, seed=0)
        assert sss.dev_apl < rnd.dev_apl
        assert sss.max_apl < rnd.max_apl

    def test_small_g_apl_overhead_vs_global(self, c1_instance):
        sss = sort_select_swap(c1_instance)
        glob = global_mapping(c1_instance)
        assert sss.g_apl <= glob.g_apl * 1.10  # paper: < 3.82% average

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=20, deadline=None)
    def test_valid_on_random_instances(self, seed):
        inst = random_instance(seed)
        result = sort_select_swap(inst)
        assert sorted(result.mapping.perm.tolist()) == list(range(inst.n))
        assert result.max_apl >= result.g_apl - 1e-9  # max >= volume-weighted mean

    def test_uneven_app_sizes(self):
        model = MeshLatencyModel(Mesh.square(4))
        rng = np.random.default_rng(0)
        apps = (
            Application("a", rng.uniform(1, 2, 3), rng.uniform(0, 1, 3)),
            Application("b", rng.uniform(1, 2, 13), rng.uniform(0, 1, 13)),
        )
        inst = OBMInstance(model, Workload(apps))
        result = sort_select_swap(inst)
        assert sorted(result.mapping.perm.tolist()) == list(range(16))

    def test_with_idle_padding(self):
        model = MeshLatencyModel(Mesh.square(4))
        apps = (Application("a", np.ones(10), np.ones(10) * 0.1),)
        inst = OBMInstance(model, Workload(apps))
        result = sort_select_swap(inst)
        assert sorted(result.mapping.perm.tolist()) == list(range(16))

    def test_single_app_equals_sam_quality(self):
        """One application owning the whole chip: SSS == plain SAM optimum."""
        from repro.core.sam import solve_sam

        model = MeshLatencyModel(Mesh.square(4))
        rng = np.random.default_rng(5)
        app = Application("only", rng.uniform(0.1, 3, 16), rng.uniform(0, 1, 16))
        inst = OBMInstance(model, Workload((app,)))
        result = sort_select_swap(inst)
        sam = solve_sam(
            app.cache_rates, app.mem_rates, np.arange(16), inst.tc, inst.tm
        )
        assert result.max_apl == pytest.approx(sam.apl)


class TestConfigVariants:
    @pytest.mark.parametrize("select", ["middle", "first", "last", "random"])
    def test_select_policies_valid(self, select, small_instance):
        cfg = SSSConfig(select=select)
        result = sort_select_swap(small_instance, cfg, seed=1)
        assert sorted(result.mapping.perm.tolist()) == list(range(16))

    @pytest.mark.parametrize("app_order", ["given", "heavy_first", "light_first"])
    def test_app_orders_valid(self, app_order, small_instance):
        cfg = SSSConfig(app_order=app_order)
        result = sort_select_swap(small_instance, cfg)
        assert sorted(result.mapping.perm.tolist()) == list(range(16))

    def test_no_swap_equals_select_only(self, small_instance):
        cfg = SSSConfig(swap_passes=0, final_polish=False)
        full = sort_select_swap(small_instance, cfg)
        sel = select_only_mapping(small_instance)
        assert np.array_equal(full.mapping.perm, sel.mapping.perm)

    def test_window3(self, small_instance):
        result = sort_select_swap(small_instance, SSSConfig(window=3))
        assert sorted(result.mapping.perm.tolist()) == list(range(16))

    def test_rebalance_extension_improves_dev(self, c1_instance):
        base = sort_select_swap(c1_instance)
        rebal = sort_select_swap(c1_instance, SSSConfig(rebalance_after_polish=True))
        assert rebal.max_apl <= base.max_apl + 1e-9
        assert sorted(rebal.mapping.perm.tolist()) == list(range(c1_instance.n))

    def test_more_passes_never_worse(self, c1_instance):
        one = sort_select_swap(c1_instance, SSSConfig(swap_passes=1, final_polish=False))
        two = sort_select_swap(c1_instance, SSSConfig(swap_passes=2, final_polish=False))
        assert two.max_apl <= one.max_apl + 1e-9


class TestSwapState:
    def test_incremental_matches_recompute(self, small_instance):
        inst = small_instance
        rng = np.random.default_rng(3)
        perm = rng.permutation(inst.n)
        state = _SwapState(inst, perm, window=4)
        sorted_tiles = np.argsort(inst.tc, kind="stable")
        for start in range(inst.n - 3):
            state.try_window(sorted_tiles[start : start + 4])
        incremental = state.numerators.copy()
        state.recompute()
        assert np.allclose(incremental, state.numerators)

    def test_max_apl_matches_evaluation(self, small_instance):
        inst = small_instance
        perm = np.random.default_rng(0).permutation(inst.n)
        state = _SwapState(inst, perm, window=4)
        from repro.core.metrics import evaluate_mapping

        ev = evaluate_mapping(inst.workload, perm, inst.tc, inst.tm)
        assert state.current_max_apl() == pytest.approx(ev.max_apl)

    def test_window_greediness_never_increases_max(self, small_instance):
        inst = small_instance
        perm = np.random.default_rng(1).permutation(inst.n)
        state = _SwapState(inst, perm, window=4)
        sorted_tiles = np.argsort(inst.tc, kind="stable")
        before = state.current_max_apl()
        for start in range(inst.n - 3):
            state.try_window(sorted_tiles[start : start + 4])
            after = state.current_max_apl()
            assert after <= before + 1e-9
            before = after
