"""Reproduction of the paper's Figures 3, 4, 5, 8, 9 and 10."""

from __future__ import annotations

import numpy as np

from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.sam import solve_sam
from repro.core.workload import Application, Workload
from repro.experiments.base import (
    ALGORITHM_ORDER,
    CONFIG_NAMES,
    ExperimentReport,
    run_algorithms,
    standard_instance,
    standard_model,
)
from repro.utils.text import format_table, grid_to_text, heatmap_to_text

__all__ = ["fig3", "fig4", "fig5", "fig8", "fig9", "fig10"]


def fig3(**_) -> ExperimentReport:
    """Figure 3: per-tile cache/memory latency heat maps on the 8x8 mesh.

    Expected shape: cache latency lowest at the centre, highest at the
    corners; memory latency the reverse (controllers sit in the corners).
    """
    model = standard_model()
    tc_grid = model.tc_grid()
    tm_grid = model.tm_grid()
    text = (
        "(a) average L2 cache access latency TC(k):\n"
        + heatmap_to_text(tc_grid)
        + "\n\n(b) average memory-controller access latency TM(k):\n"
        + heatmap_to_text(tm_grid)
        + "\n\ncorner HC = {:.0f} hops, centre HC = {:.0f} hops (paper: 7 and 4)".format(
            model.cache_hops[0], model.cache_hops[model.mesh.tile(3, 3)]
        )
    )
    return ExperimentReport(
        "fig3",
        "Packet latencies on an 8x8 mesh",
        text,
        {"tc": tc_grid, "tm": tm_grid},
    )


def fig4(*, fast: bool = False) -> ExperimentReport:
    """Figure 4: the Global mapping layout of configuration C1.

    Expected shape: the lightest-traffic application (id 1) is pushed to
    the worst (corner/perimeter) tiles so heavier apps can sit centrally.
    """
    instance = standard_instance("C1")
    result = run_algorithms(instance, fast=fast, seed_tag="C1", algorithms=("Global",))[
        "Global"
    ]
    grid = result.mapping.app_grid(instance.workload, instance.mesh)
    apls = instance.app_apls(result.mapping)
    corner_apps = [grid[0, 0], grid[0, -1], grid[-1, 0], grid[-1, -1]]
    text = (
        grid_to_text(grid)
        + "\n\nper-app APLs: "
        + ", ".join(f"app{i + 1}={a:.2f}" for i, a in enumerate(apls) if not np.isnan(a))
        + f"\ncorner tiles held by apps {sorted(set(int(c) for c in corner_apps))}"
        " (paper: the lightest app 1 owns the corners)"
    )
    return ExperimentReport(
        "fig4",
        "Global mapping of C1",
        text,
        {"grid": grid, "apls": apls, "corner_apps": corner_apps},
    )


def fig5(**_) -> ExperimentReport:
    """Figure 5: why max-APL beats deviation-style objectives (4x4 example).

    Reconstructs the paper's worked example: four 4-thread applications
    with cache rates .1/.2/.3/.4 on a 4x4 mesh with td_r=3, td_w=1, td_s=1.
    The max-APL-optimal mapping gives every application 10.3375 cycles; a
    deviation-optimal mapping exists in which every application gets an
    equally *bad* 11.5375 cycles.
    """
    model = MeshLatencyModel(Mesh.square(4), LatencyParams.paper_figure5())
    rates = [0.1, 0.2, 0.3, 0.4]
    apps = tuple(
        Application(f"app{i + 1}", rates, [0.0] * 4) for i in range(4)
    )
    instance = OBMInstance(model, Workload(apps, name="fig5"))

    # (a) the max-APL optimum: every app gets one corner, two edges, one
    # centre tile, heaviest thread on the best tile (via per-app SAM).
    order = np.argsort(model.tc, kind="stable")
    perm = np.empty(16, dtype=np.int64)
    for i in range(4):
        tiles = order[[i, 4 + i, 8 + i, 12 + i]]
        res = solve_sam(
            instance.workload.cache_rates[i * 4 : (i + 1) * 4],
            instance.workload.mem_rates[i * 4 : (i + 1) * 4],
            tiles,
            instance.tc,
            instance.tm,
        )
        perm[i * 4 : (i + 1) * 4] = res.tile_of_thread
    from repro.core.problem import Mapping

    good = instance.evaluate(Mapping(perm))

    # (b) a deviation-optimal but globally bad mapping: invert each app's
    # thread-to-tile quality order (heaviest thread on the worst tile).
    perm_bad = np.empty(16, dtype=np.int64)
    for i in range(4):
        tiles = order[[i, 4 + i, 8 + i, 12 + i]]
        # threads ascend in rate; give the heaviest the *largest* TC.
        by_tc = tiles[np.argsort(instance.tc[tiles], kind="stable")]
        perm_bad[i * 4 : (i + 1) * 4] = by_tc
    bad = instance.evaluate(Mapping(perm_bad))

    text = (
        f"(a) max-APL optimal: APLs={[round(float(a), 4) for a in good.apls]} "
        f"(paper: all 10.3375)\n"
        f"(b) deviation-optimal, equally bad: APLs={[round(float(a), 4) for a in bad.apls]} "
        f"(paper: all 11.5375)\n"
        f"both have dev-APL ~0 ({good.dev_apl:.2e} vs {bad.dev_apl:.2e}) and "
        f"min/max = 1, but (b) is {bad.g_apl - good.g_apl:.4f} cycles worse per packet"
    )
    return ExperimentReport(
        "fig5",
        "Metric comparison on the 4x4 example",
        text,
        {"good": good, "bad": bad},
    )


def fig8(*, fast: bool = False) -> ExperimentReport:
    """Figure 8: SSS mapping layout of C1 and the per-app APL comparison.

    Expected shape: app 1 no longer owns the corners; the four APLs under
    SSS are nearly equal, and the worst app improves ~10% vs Global.
    """
    instance = standard_instance("C1")
    results = run_algorithms(
        instance, fast=fast, seed_tag="C1", algorithms=("Global", "SSS")
    )
    sss, glob = results["SSS"], results["Global"]
    grid = sss.mapping.app_grid(instance.workload, instance.mesh)
    rows = []
    for i in range(instance.workload.n_apps):
        g, s = glob.evaluation.apls[i], sss.evaluation.apls[i]
        if np.isnan(g):
            continue
        rows.append([f"app {i + 1}", g, s, (g - s) / g * 100.0])
    text = (
        "(a) SSS mapping of C1:\n"
        + grid_to_text(grid)
        + "\n\n(b) per-application APLs:\n"
        + format_table(["", "Global", "SSS", "delta %"], rows)
        + f"\nworst-app improvement: {(glob.max_apl - sss.max_apl) / glob.max_apl:.2%}"
        " (paper: 10.89% for app 1)"
    )
    return ExperimentReport(
        "fig8",
        "SSS mapping and APLs of C1",
        text,
        {"grid": grid, "global": _mapping_slice(glob), "sss": _mapping_slice(sss)},
    )


def _mapping_slice(result) -> dict:
    """The deterministic part of one result (no wall-clock runtime)."""
    return {
        "perm": result.mapping.perm.tolist(),
        "apls": result.evaluation.apls,
        "max_apl": result.max_apl,
        "dev_apl": result.dev_apl,
    }


def _config_sweeps(fast: bool) -> list[dict]:
    """Max- and g-APL of the four algorithms on each of C1..C8 (fig9, fig10).

    Every stochastic algorithm is seeded via ``stable_seed(alg, config)``
    inside ``run_algorithms``, so a sweep is deterministic in its inputs.
    """
    sweeps = []
    for name in CONFIG_NAMES:
        results = run_algorithms(standard_instance(name), fast=fast, seed_tag=name)
        sweeps.append(
            {
                alg: {"max_apl": results[alg].max_apl, "g_apl": results[alg].g_apl}
                for alg in ALGORITHM_ORDER
            }
        )
    return sweeps


def fig9(*, fast: bool = False) -> ExperimentReport:
    """Figure 9: max-APL of the four algorithms across C1-C8.

    Expected shape: Global worst (highest max-APL); MC and SA better; SSS
    best or tied-best, ~10% below Global on average.
    """
    sweeps = _config_sweeps(fast)
    per_alg: dict[str, list[float]] = {a: [] for a in ALGORITHM_ORDER}
    data = {}
    for name, sweep in zip(CONFIG_NAMES, sweeps):
        for alg in ALGORITHM_ORDER:
            per_alg[alg].append(sweep[alg]["max_apl"])
        data[name] = {alg: sweep[alg]["max_apl"] for alg in ALGORITHM_ORDER}
    rows = [[alg, *vals, float(np.mean(vals))] for alg, vals in per_alg.items()]
    text = format_table(
        ["", *CONFIG_NAMES, "Avg"],
        rows,
        title="Figure 9: max-APL comparison (cycles)",
    )
    glob = np.array(per_alg["Global"])
    improvements = {
        alg: float((1 - np.array(per_alg[alg]) / glob).mean())
        for alg in ("MC", "SA", "SSS")
    }
    text += (
        f"\nmax-APL reduction vs Global: MC {improvements['MC']:.2%}, "
        f"SA {improvements['SA']:.2%}, SSS {improvements['SSS']:.2%} "
        "(paper: 8.74%, 9.44%, 10.42%)"
    )
    data["improvements"] = improvements
    return ExperimentReport("fig9", "max-APL comparison", text, data)


def fig10(*, fast: bool = False) -> ExperimentReport:
    """Figure 10: g-APL of the four algorithms, normalised to Global.

    Expected shape: Global is 1.0 by construction (it is the exact g-APL
    optimum); the three balancing algorithms pay only a few percent, SSS
    the least.
    """
    sweeps = _config_sweeps(fast)
    per_alg: dict[str, list[float]] = {a: [] for a in ALGORITHM_ORDER}
    data = {}
    for name, sweep in zip(CONFIG_NAMES, sweeps):
        base = sweep["Global"]["g_apl"]
        for alg in ALGORITHM_ORDER:
            per_alg[alg].append(sweep[alg]["g_apl"] / base)
        data[name] = {alg: sweep[alg]["g_apl"] for alg in ALGORITHM_ORDER}
    rows = [[alg, *vals, float(np.mean(vals))] for alg, vals in per_alg.items()]
    text = format_table(
        ["", *CONFIG_NAMES, "Avg"],
        rows,
        title="Figure 10: normalized g-APL (Global = 1.0)",
        float_fmt="{:.4f}",
    )
    losses = {
        alg: float(np.mean(per_alg[alg])) - 1.0 for alg in ("MC", "SA", "SSS")
    }
    text += (
        f"\ng-APL overhead vs Global: MC {losses['MC']:.2%}, SA {losses['SA']:.2%}, "
        f"SSS {losses['SSS']:.2%} (paper: 5.35%, 4.82%, <3.82%)"
    )
    data["losses"] = losses
    return ExperimentReport("fig10", "normalized g-APL", text, data)
