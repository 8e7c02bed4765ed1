"""The ``sim_campaign`` workload, driven from outside through ``campaign.py``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from layers import ADD_UP_TOLERANCE, LAYER_METRICS, LayerTable
from pace import factor
from stats import Metric, format_rows, quartiles, summary, tail

#: fresh processes per untraced run; set-up time is their median
SETUP_SPAWNS = 5


def _spawn(ctx, tag: str, seed: int, seconds: float, *flags) -> tuple[dict, float]:
    """Run ``campaign.py`` in a fresh process; returns its output and the
    set-up time from spawn until its instances and kernels were ready."""
    out_path = os.path.join(ctx.work, f"campaign-{tag}.json")
    cfg = ctx.cfg["workloads"]["sim_campaign"]
    argv = [
        sys.executable, os.path.join(ctx.bench_dir, "campaign.py"),
        "--seed", str(seed), "--seconds", str(seconds), "--out", out_path,
        "--windows", str(cfg["warmup"]), str(cfg["measure"]), *flags,
    ]
    t0 = time.perf_counter()
    with open(os.path.join(ctx.work, f"campaign-{tag}.log"), "wb") as log:
        proc = subprocess.run(argv, cwd=ctx.root, env=ctx.env, stdout=log,
                              stderr=subprocess.STDOUT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"campaign.py exited with {proc.returncode}; see {log.name}")
    with open(out_path) as fh:
        doc = json.load(fh)
    return doc, doc["setup_done"] - t0


def _outcome(ctx, doc: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, wrong)`` over the campaign's replays."""
    per_campaign = 32
    attempted = per_campaign * len(doc["campaigns"])
    wrong = list(doc["errors"])
    failed = len(wrong)
    recorded = ctx.cfg["workloads"]["sim_campaign"]["digest"]
    got = doc["campaigns"][0]["digest"]
    if got != recorded:
        wrong.append(f"campaign 0 digest {got} != recorded {recorded}")
        failed += per_campaign
    return attempted, min(failed, attempted), wrong


def run(ctx, seed: int, seconds: float, trace: bool) -> dict:
    cfg = ctx.cfg["workloads"]["sim_campaign"]
    if trace:
        plain, _ = _spawn(ctx, "plain", seed, seconds / 2)
        traced, _ = _spawn(ctx, "traced", seed, seconds / 2, "--trace")
        a1, f1, w1 = _outcome(ctx, plain)
        a2, f2, w2 = _outcome(ctx, traced)
        attempted, failed = a1 + a2, f1 + f2
        metrics, table, w3 = _per_layer(plain, traced, failed, attempted)
        return {"attempted": attempted, "failed": failed, "wrong": w1 + w2 + w3,
                "metrics": metrics, "table": table}

    nominal = ctx.cfg["pace_nominal_ms"]
    # each process reads its set-up at the pace taken right after it
    setup = []
    for k in range(SETUP_SPAWNS - 1):
        doc, setup_s = _spawn(ctx, f"setup{k}", seed, 0, "--setup-only")
        setup.append(setup_s / factor(doc["pace"][0], nominal))
    doc, setup_s = _spawn(ctx, "main", seed, seconds)
    setup.append(setup_s / factor(doc["pace"][0], nominal))
    attempted, failed, wrong = _outcome(ctx, doc)
    campaigns = doc["campaigns"]
    # each campaign is read at the pace of the loop rounds just around it
    paces = [factor(doc["pace"][k] + doc["pace"][k + 1], nominal)
             for k in range(len(campaigns))]
    instance_ms = [1000.0 * t / p for c, p in zip(campaigns, paces) for t in c["instance_s"]]
    walls = [c["wall"] / p for c, p in zip(campaigns, paces)]
    kcycles = [c["sim_cycles"] / c["sim_s"] / 1000.0 for c in campaigns]
    pct, tail_ms = tail(instance_ms)
    good = sum(1 for t in instance_ms if t <= cfg["latency_limit_ms"])
    ref = campaigns[0]
    paced = "at the nominal pace"
    metrics = [
        summary("setup_s", setup, "s",
                f"process start until instances and kernels ready, {paced}"),
        summary("latency_p50_ms", instance_ms, "ms", f"run_algorithms on one instance, {paced}"),
        Metric("latency_tail_ms", tail_ms, "ms", n=len(instance_ms), note=f"p{pct:g}, {paced}"),
        Metric("goodput_rps", good / sum(walls), "1/s", n=len(instance_ms),
               note=f"instances mapped+simulated per s, within {cfg['latency_limit_ms']} ms, "
                    f"{paced}"),
        Metric("ok_ratio", 1.0 - failed / attempted, "ratio", n=attempted,
               note="1 - error_ratio"),
        Metric("peak_rss_mb", doc["rss_mb"], "MB", note="campaign process maxrss"),
        summary("campaign_s", walls, "s", f"one Figure 9 campaign, {paced}"),
        summary("sim_kcycles_per_s", [k * p for k, p in zip(kcycles, paces)], "kcycles/s",
                f"simulate_batch at B=32, {paced}"),
        Metric("sss_gain_vs_global", ref["sss_gain"], "ratio", n=8, note="campaign 0, C1..C8"),
        Metric("apl_model_error", ref["model_error"], "ratio", n=32,
               note="campaign 0, 32 replays"),
    ]
    raw_ms = [1000.0 * t for c in campaigns for t in c["instance_s"]]
    table = (
        f"machine pace per campaign (reference loop over its nominal {nominal} ms; "
        f"see pace.py): {', '.join(f'{p:.3f}' for p in paces)}\n"
        f"as measured: latency_p50_ms {quartiles(raw_ms)[1]:.6g}, campaign_s "
        f"{quartiles(c['wall'] for c in campaigns)[1]:.6g}, sim_kcycles_per_s "
        f"{quartiles(kcycles)[1]:.6g}"
    )
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "metrics": metrics,
            "table": table}


def _per_layer(plain: dict, traced: dict, failed: int, attempted: int):
    spans = traced["spans"]
    campaigns = traced["campaigns"]
    n = len(campaigns)
    roots = [s for s in spans if s[1] == 0]
    table = LayerTable(spans, roots, n)
    wall = sum(c["wall"] for c in campaigns)
    loop_s = wall - table.root_s
    batches = sum(table.batch_sizes.values())
    run_batch_s = table.engine_s
    ref = campaigns[0]
    metrics = [Metric(name, 0.0, "ms", note="no service in this workload")
               for name in ("service.http_ms", "service.unattributed_ms")]
    for layer in LAYER_METRICS:
        metrics.append(Metric(layer, table.per_unit_ms(layer), "ms", n=n,
                              note="self, per campaign"))
    metrics += [
        Metric("service.cache_lookups", 0, "count"),
        Metric("service.cache_hit_ratio", 0.0, "ratio"),
        Metric("service.cache_evictions", 0, "count"),
        Metric("service.batch_occupancy", 0.0, "requests"),
        Metric("core.solve_calls", table.calls["core.solve"], "count"),
        Metric("core.hungarian_calls", table.calls["core.hungarian"], "count"),
        Metric("noc.batch_size",
               sum(b * c for b, c in table.batch_sizes.items()) / batches if batches else 0.0,
               "sims", n=batches),
        Metric("noc.packets_delivered", ref["delivered"], "count", note="campaign 0"),
        Metric("noc.flit_hops", ref["flit_hops"], "count", note="campaign 0"),
        Metric("noc.host_us_per_flit_hop",
               1e6 * run_batch_s / table.flit_hops if table.flit_hops else 0.0, "us"),
        Metric("loadgen.lag_ms", 0.0, "ms", note="no load generator"),
        Metric("trace.overhead_ratio",
               quartiles(c["wall"] for c in campaigns)[1]
               / quartiles(c["wall"] for c in plain["campaigns"])[1],
               "ratio", note="median traced / untraced campaign"),
        Metric("error_ratio", failed / attempted, "ratio", n=attempted),
        Metric("inputs.repeat_share", 0.0, "ratio"),
        Metric("inputs.unique_problems", 8, "count", note="instances per campaign"),
    ]
    parts = table.layered_s + table.unattributed_s + loop_s
    apart = abs(parts - wall) / wall
    wrong = []
    # each campaign calls run_algorithms once per instance, then simulate_batch
    expected_roots = n * (len(campaigns[0]["instance_s"]) + 1)
    if len(roots) != expected_roots:
        wrong.append(f"traced run: {len(roots)} top-level spans, expected {expected_roots}")
    if apart > ADD_UP_TOLERANCE:
        wrong.append(f"traced run: layers + remainder are {100 * apart:.2f}% off campaign time")
    rows = table.rows(wall, {"(benchmark loop)": (loop_s, n)})
    report = [
        format_rows(rows),
        f"campaigns {n}, top-level spans {len(roots)}; layers + remainder = "
        f"{1000 * parts:.1f} ms vs campaign time {1000 * wall:.1f} ms ({100 * apart:.2f}% apart)",
        "batch-size histogram: "
        + (", ".join(f"B={b}: {c}" for b, c in sorted(table.batch_sizes.items())) or "none"),
    ]
    return metrics, "\n".join(report), wrong
