"""The serve workloads: ``map_unique`` and ``map_simulate``.

Each run starts ``python -m repro serve --port 0`` (default two workers)
and drives it over HTTP from this process with at most ``connections``
connections: first an open loop at the workload's fixed rate (latency
taken from each request's due time), then a closed loop over a fixed
list of requests, in several passes.  An untraced run reads its times at
the nominal machine pace of a :class:`pace.Sampler` running alongside.  A
traced run repeats the same inputs against a second daemon started
through ``launcher.py``, which records layer spans.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass

from checks import check_measured, expected_solve, served_solve
from daemon import Daemon
from layers import ADD_UP_TOLERANCE, LAYER_METRICS, LayerTable
from loadgen import LoopResult, closed_loop, http_sender, open_loop, run as run_loops
from pace import Sampler, factor_between
from problems import Stream, encode
from stats import Metric, format_rows, quartiles, summary, tail

#: daemon starts per untraced run; set-up time is their median
SETUP_SPAWNS = 5
#: responses per run compared against direct library calls
CHECK_SAMPLE = 16
#: of those, simulations re-run through NoCSimulator (map_simulate)
SIM_CHECK_SAMPLE = 6
#: rounds of the eight reference simulations; sim_kcycles_per_s is the
#: median of the rounds' rates
REF_ROUNDS = 8


@dataclass
class Phase:
    """What one daemon answered to the measured request stream."""

    #: ``(body, answer)`` of every request sent before measuring
    prefill: list
    open: LoopResult
    closed: list[LoopResult]
    health0: dict
    health1: dict
    rss_mb: float

    @property
    def samples(self):
        return self.open.samples + [s for p in self.closed for s in p.samples]


def _daemon(ctx, tag: str, spans_out: str | None = None) -> Daemon:
    if spans_out is None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        argv = [sys.executable, os.path.join(ctx.bench_dir, "launcher.py"), spans_out]
    return Daemon(argv, ctx.env, ctx.root, os.path.join(ctx.work, f"daemon-{tag}.log"))


async def _loops(port, open_bodies, passes, rate, connections):
    host = "127.0.0.1"
    opened = await open_loop(
        http_sender(host, port, "/map", open_bodies), len(open_bodies), rate, connections
    )
    closed = [
        await closed_loop(http_sender(host, port, "/map", bodies), len(bodies), connections)
        for bodies in passes
    ]
    return opened, closed


def _drive(daemon: Daemon, stream: Stream, open_bodies, passes, rate, connections) -> Phase:
    prefill = []
    for body in stream.prefill():
        status, raw = daemon.request("POST", "/map", body)
        if status != 200:
            raise RuntimeError(f"prefill answered {status}")
        prefill.append((body, json.loads(raw)))
    health0 = daemon.get_json("/healthz")
    # The generator holds every request document; a cyclic-GC pass over
    # them would stall it for milliseconds in the middle of the schedule.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        opened, closed = run_loops(
            _loops(daemon.port, open_bodies, passes, rate, connections)
        )
    finally:
        gc.enable()
        gc.unfreeze()
    health1 = daemon.get_json("/healthz")
    return Phase(prefill, opened, closed, health0, health1, daemon.peak_rss_mb())


def _reference(daemon: Daemon, ref: dict, connections: int) -> dict:
    """Serve the paper's C1..C8 with Global and with simulated SSS.

    Gives the served SSS gain over Global, the analytic model's error
    against the served simulation, and the simulation throughput seen
    from outside."""
    from repro.workloads.parsec import CONFIG_NAMES

    def sim_body(config: str, seed: int) -> dict:
        return {"workload": config, "algorithm": "sss", "bounds": False, "simulate": True,
                "sim": {"warmup": ref["warmup"], "measure": ref["measure"], "seed": seed}}

    glob = [encode({"workload": c, "algorithm": "global", "bounds": False})
            for c in CONFIG_NAMES]
    # round k simulates with its own seed; round 0 gives the quality figures
    rounds = [[encode(sim_body(c, ref["seed"] + 100 * k)) for c in CONFIG_NAMES]
              for k in range(REF_ROUNDS)]
    # Solve every reference first, so each measured request is a solve
    # cache hit; the daemon's first simulation pays one-off costs, so one
    # more simulation runs unmeasured.
    warm = [{"workload": c, "algorithm": "sss", "bounds": False} for c in CONFIG_NAMES]
    for body in warm + [sim_body("C1", ref["seed"] + 1)]:
        status, _ = daemon.request("POST", "/map", body)
        if status != 200:
            raise RuntimeError(f"reference warm-up answered {status}")

    async def loops():
        g = await closed_loop(http_sender("127.0.0.1", daemon.port, "/map", glob),
                              len(glob), connections)
        # one at a time, so every reference simulation runs at batch 1
        s = [await closed_loop(http_sender("127.0.0.1", daemon.port, "/map", sss),
                               len(sss), 1)
             for sss in rounds]
        return g, s

    def results(kind: str, loop: LoopResult) -> dict:
        out = {}
        for sample in loop.samples:
            if sample.status != 200:
                raise RuntimeError(f"reference {kind} request answered {sample.status}")
            answer = json.loads(sample.body)
            if kind == "sss" and answer["meta"]["cache"] == "miss":
                raise RuntimeError("reference simulation solved its mapping again")
            out[sample.index] = answer["result"]
        return out

    g, s = run_loops(loops())
    glob_results = results("global", g)
    sss_results = [results("sss", loop) for loop in s]
    gains, errors = [], []
    for i in range(len(CONFIG_NAMES)):
        served = sss_results[0][i]
        gains.append(1.0 - served["evaluation"]["max_apl"]
                     / glob_results[i]["evaluation"]["max_apl"])
        for analytic, measured in zip(served["evaluation"]["apls"],
                                      served["measured"]["apls"]):
            if analytic is not None and measured:
                errors.append(abs(analytic - measured) / measured)
    cycles = (ref["warmup"] + ref["measure"]) * len(CONFIG_NAMES)
    return {
        "sss_gain": statistics.fmean(gains),
        "model_error": statistics.fmean(errors),
        "model_points": len(errors),
        "kcycles_per_s": [cycles / sum(x.service for x in loop.samples) / 1000.0
                          for loop in s],
        "rounds": [(loop.started, loop.finished) for loop in s],
    }


def _check(workload: str, seed: int, bodies, phase: Phase) -> tuple[int, list[str]]:
    """``(failed, wrong)``: failed requests (refused, malformed or wrong)
    and a description of every wrong answer."""
    failed, wrong = 0, []
    answers = {}
    for s in phase.samples:
        if s.status != 200:
            failed += 1
            continue
        try:
            answer = json.loads(s.body)
            result = answer["result"]
            body = bodies[s.index]
            mesh = int(body["mesh"])
            n_threads = sum(len(a["cache_rates"]) for a in body["apps"])
            perm = result["perm"]
            problems = []
            if len(perm) != n_threads or len(set(perm)) != n_threads or not all(
                0 <= t < mesh * mesh for t in perm
            ):
                problems.append("perm is not a placement of every thread")
            if "degraded" in result:
                problems.append(f"degraded answer {result['degraded']}")
            cache = answer["meta"]["cache"]
            if workload == "map_unique" and cache != "miss":
                problems.append(f"distinct problem answered from cache ({cache})")
            if workload != "map_unique" and cache == "miss":
                problems.append("catalogue problem solved again")
            if workload == "map_simulate" and not result["measured"]["packets_delivered"]:
                problems.append("simulation delivered no packets")
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable answer: {exc!r}"]
        if problems:
            failed += 1
            wrong.append(f"request {s.index}: " + "; ".join(problems))
            continue
        answers[s.index] = answer

    rng = random.Random(f"{seed}:check:{workload}")
    ok = sorted(answers)
    sample = rng.sample(ok, min(CHECK_SAMPLE, len(ok)))
    bad = set()
    # every answer that filled the cache before measuring must match the
    # library
    for body, answer in phase.prefill:
        if served_solve(answer) != expected_solve(body):
            wrong.append(f"prefill {answer['meta']['fingerprint']}: differs from the library")
    for i in sample:
        if served_solve(answers[i]) != expected_solve(bodies[i]):
            bad.add(i)
            wrong.append(f"request {i}: answer differs from the library")
    if workload == "map_simulate":
        for i in sample[:SIM_CHECK_SAMPLE]:
            mismatch = check_measured(bodies[i], answers[i])
            if mismatch:
                bad.add(i)
                wrong.append(f"request {i}: {mismatch}")
    return failed + len(bad), wrong


def _cache_delta(phase: Phase) -> dict:
    c0, c1 = phase.health0["cache"], phase.health1["cache"]
    b0, b1 = phase.health0["batcher"], phase.health1["batcher"]
    d = {k: c1[k] - c0[k] for k in ("hits", "misses", "coalesced", "evictions")}
    d["batches"] = b1["batches_run"] - b0["batches_run"]
    d["batched"] = b1["requests_batched"] - b0["requests_batched"]
    return d


def _inputs(keys) -> tuple[float, int]:
    """Share of requests whose cache key appeared earlier, and how many
    distinct problems the stream holds."""
    seen, repeats = set(), 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    problems = {k.split(":sim", 1)[0] for k in seen}
    return repeats / max(1, len(keys)), len(problems)


def run(ctx, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wcfg = ctx.cfg["workloads"][workload]
    # a traced run does the work twice, untraced and traced, each half
    share = ctx.cfg["open_share"] * (0.5 if trace else 1.0)
    n_open = max(1, round(wcfg["rate"] * seconds * share))
    n_passes = max(1, wcfg["closed_passes"] // 2) if trace else wcfg["closed_passes"]
    per_pass = wcfg["closed_requests"]
    stream = Stream(workload, seed, wcfg)
    reqs = [stream.request("open", i) for i in range(n_open)]
    for k in range(n_passes):
        reqs += [stream.request(f"closed{k}", i) for i in range(per_pass)]
    encoded = [encode(b) for b, _ in reqs]
    open_bodies = encoded[:n_open]
    passes = [encoded[n_open + k * per_pass:n_open + (k + 1) * per_pass]
              for k in range(n_passes)]
    all_bodies = [b for b, _ in reqs]
    keys = [k for _, k in reqs]

    def checked(phase: Phase) -> tuple[int, list[str]]:
        # number closed-loop samples as they sit in all_bodies
        for k, loop in enumerate(phase.closed):
            for s in loop.samples:
                s.index += n_open + k * per_pass
        return _check(workload, seed, all_bodies, phase)

    def start(d: Daemon) -> tuple[float, float]:
        """Start ``d``; returns its set-up window (spawn, ready)."""
        setup_s = d.start()
        ready = time.perf_counter()
        return ready - setup_s, ready

    setup = []
    with contextlib.ExitStack() as stack:
        if not trace:
            sampler = stack.enter_context(
                Sampler(os.path.join(ctx.work, "pace-samples.txt"), ctx.env, ctx.root))
            for k in range(SETUP_SPAWNS - 1):
                with _daemon(ctx, f"setup{k}") as d:
                    setup.append(start(d))
        with _daemon(ctx, "main") as d:
            setup.append(start(d))
            plain = _drive(d, stream, open_bodies, passes, wcfg["rate"], ctx.connections)
            ref = None if trace else _reference(d, ctx.cfg["reference"], ctx.connections)
        samples = None if trace else sampler.stop()
    failed, wrong = checked(plain)
    attempted = len(plain.samples)
    if not trace:
        metrics, table = _end_to_end(setup, plain, ref, wcfg, failed, attempted, samples,
                                     ctx.cfg["pace_nominal_ms"])
        return {"attempted": attempted, "failed": failed, "wrong": wrong,
                "metrics": metrics, "table": table}

    spans_path = os.path.join(ctx.work, "spans.json")
    with _daemon(ctx, "traced", spans_out=spans_path) as d:
        d.start()
        traced = _drive(d, stream, open_bodies, passes, wcfg["rate"], ctx.connections)
    with open(spans_path) as fh:
        spans = json.load(fh)
    f, w = checked(traced)
    failed, wrong = failed + f, wrong + w
    attempted += len(traced.samples)
    metrics, table, w = _per_layer(plain, traced, spans, keys, failed, attempted)
    return {"attempted": attempted, "failed": failed, "wrong": wrong + w,
            "metrics": metrics, "table": table}


def _end_to_end(setup, phase: Phase, ref: dict, wcfg: dict, failed: int, attempted: int,
                samples, nominal_ms: float):
    """The end-to-end metrics, each time divided by the machine pace
    during its phase (rates multiplied), and a table of those paces."""

    def pace(window) -> float:
        return factor_between(samples, *window, nominal_ms)

    open_pace = pace((phase.open.started, phase.open.finished))
    latencies = [1000.0 * s.latency / open_pace for s in phase.open.samples]
    pct, tail_ms = tail(latencies)
    limit = wcfg["latency_limit_ms"] / 1000.0
    pass_paces = [pace((p.started, p.finished)) for p in phase.closed]
    good = [sum(1 for s in p.samples if s.status == 200 and s.service / k <= limit)
            for p, k in zip(phase.closed, pass_paces)]
    walls = [p.wall / k for p, k in zip(phase.closed, pass_paces)]
    per_pass = [g / w for g, w in zip(good, walls)]
    ref_paces = [pace(w) for w in ref["rounds"]]
    setup_paces = [pace(w) for w in setup]
    paced = "at the nominal pace"
    metrics = [
        summary("setup_s", [(t1 - t0) / k for (t0, t1), k in zip(setup, setup_paces)], "s",
                f"daemon spawn until /readyz is 200, {paced}"),
        summary("latency_p50_ms", latencies, "ms", f"open loop, from due time, {paced}"),
        Metric("latency_tail_ms", tail_ms, "ms", n=len(latencies), note=f"p{pct:g}, {paced}"),
        Metric("goodput_rps", sum(good) / sum(walls), "1/s", *quartiles(per_pass)[::2],
               n=len(per_pass),
               note=f"closed-loop passes, within {wcfg['latency_limit_ms']} ms, {paced}"),
        Metric("ok_ratio", 1.0 - failed / attempted, "ratio", n=attempted,
               note="1 - error_ratio"),
        Metric("peak_rss_mb", phase.rss_mb, "MB", note="daemon VmHWM"),
        Metric("campaign_s", statistics.fmean(walls), "s", *quartiles(walls)[::2],
               n=len(walls),
               note=f"mean closed-loop pass of {wcfg['closed_requests']} requests, {paced}"),
        summary("sim_kcycles_per_s",
                [r * k for r, k in zip(ref["kcycles_per_s"], ref_paces)], "kcycles/s",
                f"rounds of eight served C1..C8 reference simulations, one at a time, {paced}"),
        Metric("sss_gain_vs_global", ref["sss_gain"], "ratio", n=8,
               note="served answers on C1..C8"),
        Metric("apl_model_error", ref["model_error"], "ratio", n=ref["model_points"],
               note="analytic vs served simulation, C1..C8 SSS"),
    ]
    raw_ms = [1000.0 * s.latency for s in phase.open.samples]

    def listed(paces) -> str:
        return ", ".join(f"{k:.3f}" for k in paces)

    table = (
        f"machine pace (sampler loop over its nominal time; see pace.py): "
        f"set-up {listed(setup_paces)}; open loop {open_pace:.3f}; "
        f"closed passes {listed(pass_paces)}; reference rounds {listed(ref_paces)}\n"
        f"as measured: latency_p50_ms {quartiles(raw_ms)[1]:.6g}, latency_tail_ms "
        f"{tail(raw_ms)[1]:.6g}, campaign_s {statistics.fmean(p.wall for p in phase.closed):.6g}, "
        f"sim_kcycles_per_s {quartiles(ref['kcycles_per_s'])[1]:.6g}"
    )
    return metrics, table


def _per_layer(plain: Phase, traced: Phase, spans, keys, failed: int, attempted: int):
    lo = traced.open.started - 0.01
    hi = traced.closed[-1].finished + 0.01
    roots = [s for s in spans if s[2] == "service.map_request" and lo <= s[3] <= hi]
    samples = traced.samples
    n = len(samples)
    table = LayerTable(spans, roots, n)
    client_s = sum(s.service for s in samples)
    http_s = client_s - table.root_s
    cache = _cache_delta(traced)
    lookups = cache["hits"] + cache["misses"] + cache["coalesced"]
    repeat_share, unique_problems = _inputs(keys)
    run_batch_s = table.engine_s
    batches = sum(table.batch_sizes.values())
    metrics = [
        Metric("service.http_ms", 1000.0 * http_s / n, "ms", n=n,
               note="client time minus map_request time"),
    ]
    for layer in LAYER_METRICS:
        metrics.append(Metric(layer, table.per_unit_ms(layer), "ms", n=n, note="self, per request"))
    metrics += [
        Metric("service.unattributed_ms", 1000.0 * table.unattributed_s / n, "ms", n=n),
        Metric("service.cache_lookups", lookups, "count"),
        Metric("service.cache_hit_ratio",
               (cache["hits"] + cache["coalesced"]) / lookups if lookups else 0.0, "ratio"),
        Metric("service.cache_evictions", cache["evictions"], "count"),
        Metric("service.batch_occupancy",
               cache["batched"] / cache["batches"] if cache["batches"] else 0.0, "requests"),
        Metric("core.solve_calls", table.calls["core.solve"], "count"),
        Metric("core.hungarian_calls", table.calls["core.hungarian"], "count"),
        Metric("noc.batch_size",
               sum(b * c for b, c in table.batch_sizes.items()) / batches if batches else 0.0,
               "sims", n=batches),
        Metric("noc.packets_delivered", table.delivered, "count"),
        Metric("noc.flit_hops", table.flit_hops, "count"),
        Metric("noc.host_us_per_flit_hop",
               1e6 * run_batch_s / table.flit_hops if table.flit_hops else 0.0, "us"),
        Metric("loadgen.lag_ms", 1000.0 * statistics.fmean(traced.open.lag), "ms",
               n=len(traced.open.lag), note="mean dispatch lateness"),
        Metric("trace.overhead_ratio",
               sum(p.wall for p in traced.closed) / sum(p.wall for p in plain.closed),
               "ratio", note="traced / untraced closed-loop passes"),
        Metric("error_ratio", failed / attempted, "ratio", n=attempted),
        Metric("inputs.repeat_share", repeat_share, "ratio", n=len(keys)),
        Metric("inputs.unique_problems", unique_problems, "count", note="LRU holds 256"),
    ]
    parts = http_s + table.layered_s + table.unattributed_s
    apart = abs(parts - client_s) / client_s
    wrong = []
    if len(roots) != n:
        wrong.append(f"traced run: {len(roots)} map_request spans for {n} requests")
    if apart > ADD_UP_TOLERANCE:
        wrong.append(f"traced run: layers + remainder are {100 * apart:.2f}% off client time")
    rows = table.rows(client_s, {"service.http": (http_s, n)})
    report = [
        format_rows(rows),
        f"requests {n}, map_request spans {len(roots)}; "
        f"layers + remainder = {1000 * parts:.1f} ms vs client time {1000 * client_s:.1f} ms "
        f"({100 * apart:.2f}% apart)",
        "batch-size histogram: "
        + (", ".join(f"B={b}: {c}" for b, c in sorted(table.batch_sizes.items())) or "none"),
        f"repeated requests {100 * repeat_share:.1f}%, distinct problems {unique_problems} "
        f"against a 256-entry LRU",
    ]
    return metrics, "\n".join(report), wrong

