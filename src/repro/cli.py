"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``map``
    Solve an OBM instance (a named paper configuration or a workload JSON
    file) with a chosen algorithm; print metrics and the tile layout, and
    optionally write the mapping/result as JSON.
``evaluate``
    Evaluate a stored mapping JSON against a workload.
``bound``
    Print the certified lower bound and the gap of each algorithm.
``simulate``
    Map a workload, then run the cycle-level NoC simulator on the result —
    optionally with fault injection (link outages, router stalls, flit
    drops), runtime invariant checking, and observability outputs
    (``--trace-out``, ``--chrome-trace``, ``--metrics-out``,
    ``--timeseries-out``).
``trace``
    Inspect a trace JSONL written by ``simulate --trace-out``: slowest
    packets with per-hop breakdowns, per-app latency percentiles, schema
    validation, Chrome/Perfetto conversion.
``serve``
    Run the mapping-as-a-service daemon: a local HTTP/JSON endpoint with
    a result cache keyed on the exact problem, request batching onto the
    vector engine, and a Prometheus ``/metrics`` exposition (GUIDE §14).
``experiments``
    Alias of ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from repro.core.bounds import max_apl_lower_bound
from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
from repro.core.problem import OBMInstance
from repro.core.registry import ALGORITHMS
from repro.io import (
    load_json,
    mapping_from_dict,
    result_to_dict,
    save_json,
    workload_from_dict,
)
from repro.obs import reqtrace
from repro.utils.text import format_table, grid_to_text
from repro.workloads.parsec import CONFIG_NAMES, parsec_config


def _build_instance(args) -> OBMInstance:
    model = MeshLatencyModel(Mesh.square(args.mesh), LatencyParams())
    if args.workload in CONFIG_NAMES or args.workload.upper() in CONFIG_NAMES:
        workload = parsec_config(
            args.workload, threads_per_app=model.n_tiles // 4
        )
    else:
        workload = workload_from_dict(load_json(args.workload))
    return OBMInstance(model, workload)


def _cmd_map(args) -> int:
    instance = _build_instance(args)
    algorithm = ALGORITHMS[args.algorithm]
    result = algorithm(instance)
    print(result)
    print()
    print(grid_to_text(result.mapping.app_grid(instance.workload, instance.mesh)))
    if args.output:
        save_json(result_to_dict(result), args.output)
        print(f"\nresult written to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    instance = _build_instance(args)
    mapping = mapping_from_dict(load_json(args.mapping))
    ev = instance.evaluate(mapping)
    print(ev)
    return 0


def _parse_link_down(spec: str):
    from repro.noc import LinkDownWindow, Port

    try:
        tile, port, start, end = spec.split(":")
        return LinkDownWindow(int(tile), Port[port.upper()], int(start), int(end))
    except (ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected TILE:PORT:START:END (e.g. 5:EAST:100:400), got {spec!r}"
        ) from exc


def _parse_stall(spec: str):
    from repro.noc import RouterStallWindow

    try:
        tile, start, end = spec.split(":")
        return RouterStallWindow(int(tile), int(start), int(end))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected TILE:START:END (e.g. 12:0:500), got {spec!r}"
        ) from exc


def _int_at_least(low: int, high: int | None = None):
    """An argparse ``type=`` for integers ``>= low`` (and ``<= high``)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"expected an integer <= {high}, got {value}")
        return value

    return parse


def _float_at_least(low: float, *, strict: bool = False):
    """An argparse ``type=`` for finite numbers ``>= low`` (``> low`` if strict)."""
    op = ">" if strict else ">="

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {op} {low}, got {text!r}"
            )
        return value

    return parse


def _parse_probability(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text!r}")
    return value


def _parse_apps(spec: str) -> frozenset[int]:
    try:
        return frozenset(int(a) for a in spec.split(",") if a.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated app ids (e.g. 0,2), got {spec!r}"
        ) from exc


def _build_observability(args):
    """Assemble an :class:`~repro.obs.Observability` from simulate flags.

    Returns ``None`` when no observability output was requested so the
    simulator keeps its hook-free default engine.
    """
    from repro.obs import Observability, ObservabilityConfig, SamplerConfig, TraceConfig

    want_trace = bool(args.trace_out or args.chrome_trace)
    want_sample = bool(args.timeseries_out)
    want_metrics = bool(args.metrics_out)
    if not (want_trace or want_sample or want_metrics):
        return None
    config = ObservabilityConfig(
        trace=TraceConfig(
            every=args.trace_every,
            apps=args.trace_apps,
            buffer=args.trace_buffer,
        )
        if want_trace
        else None,
        sample=SamplerConfig(every=args.sample_every) if want_sample else None,
    )
    return Observability(config)


def _write_obs_outputs(args, obs) -> None:
    from repro.obs.exporters import (
        write_chrome_trace,
        write_prometheus,
        write_timeseries_csv,
        write_trace_jsonl,
    )

    if args.trace_out:
        write_trace_jsonl(obs.tracer, args.trace_out)
        print(
            f"trace: {obs.tracer.events_retained} events -> {args.trace_out}"
            + (f" ({obs.tracer.events_dropped} dropped)" if obs.tracer.events_dropped else "")
        )
    if args.chrome_trace:
        header = obs.tracer.header()
        events = list(obs.tracer.events())
        write_chrome_trace(header, events, args.chrome_trace)
        print(f"chrome trace -> {args.chrome_trace}")
    if args.metrics_out:
        write_prometheus(obs.registry, args.metrics_out)
        print(f"metrics ({len(obs.registry)} series) -> {args.metrics_out}")
    if args.timeseries_out:
        write_timeseries_csv(obs.sampler, args.timeseries_out)
        print(f"time series ({obs.sampler.n_samples} samples) -> {args.timeseries_out}")


def _cmd_simulate(args) -> int:
    from repro.noc import (
        FaultConfig,
        FaultSchedule,
        MappedWorkloadTraffic,
        NoCSimulator,
    )

    instance = _build_instance(args)
    with reqtrace.span("simulate.map"):
        result = ALGORITHMS[args.algorithm](instance)
    print(f"{args.algorithm}: max-APL {result.max_apl:.3f} (modelled)")

    schedule = FaultSchedule(
        link_windows=tuple(args.link_down or ()),
        stall_windows=tuple(args.stall or ()),
        config=FaultConfig(
            drop_rate=args.drop_rate,
            max_retries=args.max_retries,
            seed=args.fault_seed,
        ),
    )
    traffic = MappedWorkloadTraffic(instance, result.mapping, seed=args.seed)
    obs = _build_observability(args)
    sim = NoCSimulator(
        instance.mesh,
        traffic,
        faults=None if schedule.is_trivial else schedule,
        invariants=args.invariants or None,
        obs=obs,
    )
    with reqtrace.span("simulate.noc"):
        measured = sim.run(warmup=args.warmup, measure=args.measure)

    print()
    print(f"engine: {measured.engine}")
    print(measured.stats.report())
    print(
        f"delivery: {measured.packets_delivered}/{measured.packets_offered} "
        f"({measured.delivery_ratio:.1%}), {measured.packets_lost} lost"
    )
    if measured.fault_stats is not None:
        print()
        print(measured.fault_stats.report())
    if args.invariants:
        print(f"invariant sweeps completed: {measured.invariant_checks}")
    if obs is not None:
        print()
        _write_obs_outputs(args, obs)
    return 0


def _cmd_serve_report(path, args) -> int:
    """Offline forensics over a saved ``GET /debug/requests`` dump."""
    import json as _json

    from repro.obs.traceio import format_span_tree
    from repro.service.flightrec import FLIGHT_SCHEMA

    with open(path) as fh:
        dump = _json.load(fh)
    if dump.get("schema") != FLIGHT_SCHEMA:
        print(
            f"{path}: schema is {dump.get('schema')!r}, expected {FLIGHT_SCHEMA!r}",
            file=sys.stderr,
        )
        return 1
    requests = dump.get("requests", [])
    print(
        f"{len(requests)} recorded requests "
        f"({dump.get('recorded', 0)} total, {dump.get('dropped', 0)} evicted, "
        f"capacity {dump.get('capacity', 0)})"
    )
    if not requests:
        return 0
    print()
    rows = [
        [
            r.get("trace_id"), r.get("status"), r.get("cache") or "-",
            r.get("algorithm") or "-", r.get("batch_occupancy") or "-",
            "-" if r.get("duration_us") is None else r["duration_us"] / 1000.0,
            r.get("error") or "-",
        ]
        for r in requests
    ]
    print(format_table(
        ["trace", "status", "cache", "algo", "batch", "ms", "error"],
        rows, float_fmt="{:.2f}",
    ))
    timed = [r for r in requests if r.get("duration_us") is not None]
    timed.sort(key=lambda r: r["duration_us"], reverse=True)
    for r in timed[: args.slowest]:
        print()
        print(
            f"trace {r.get('trace_id')}: status {r.get('status')}, "
            f"{r['duration_us'] / 1000.0:.2f} ms"
        )
        if r.get("spans"):
            print("\n".join(format_span_tree(r["spans"])))
    return 0


def _trace_spans_report(trace, args) -> int:
    """Summarize a span-kind trace file (service request flame data)."""
    from repro.obs.exporters import write_chrome_trace
    from repro.obs.traceio import format_span_tree, spans_by_trace

    groups = spans_by_trace(trace)
    header = trace.header
    unit = "us" if header.get("clock") == "wall" else ""
    print(
        f"{len(trace.events)} spans across {len(groups)} traces "
        f"(clock {header.get('clock')}, buffer {header.get('buffer')})"
    )

    def root_duration(spans) -> int:
        return max(
            (s["dur"] for s in spans if s.get("parent_span") == -1), default=0
        )

    slowest_traces = sorted(
        groups.items(), key=lambda kv: root_duration(kv[1]), reverse=True
    )
    for trace_id, spans in slowest_traces[: args.slowest]:
        print()
        print(f"trace {trace_id}: {len(spans)} spans")
        print("\n".join(format_span_tree(spans, unit=unit)))

    if args.chrome:
        write_chrome_trace(trace.header, trace.events, args.chrome)
        print(f"\nchrome trace -> {args.chrome}")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.exporters import write_chrome_trace
    from repro.obs.traceio import (
        format_packet,
        per_app_percentiles,
        read_trace,
        slowest,
        summarize,
        trace_file_kind,
        validate_trace,
    )

    if args.trace[0] == "serve-report":
        if len(args.trace) != 2:
            print(
                "usage: python -m repro trace serve-report DUMP.json",
                file=sys.stderr,
            )
            return 2
        return _cmd_serve_report(args.trace[1], args)
    if len(args.trace) != 1:
        print("trace takes one JSONL path", file=sys.stderr)
        return 2
    trace_path = args.trace[0]

    trace = read_trace(trace_path)
    if args.validate:
        errors = validate_trace(trace)
        if errors:
            for err in errors:
                print(f"invalid: {err}", file=sys.stderr)
            return 1
        print(f"{trace_path}: valid ({len(trace.events)} events)")

    if trace_file_kind(trace) == "spans":
        return _trace_spans_report(trace, args)

    packets = summarize(trace)
    if args.app is not None:
        packets = [p for p in packets if p.app == args.app]
    header = trace.header
    print(
        f"{len(packets)} traced packets "
        f"({header['n_tiles']} tiles, every {header['trace_every']} submissions)"
    )

    stats = per_app_percentiles(packets)
    if stats:
        print()
        rows = [
            [
                f"app {app}" if app >= 0 else "background",
                s["count"], s["mean"], s["p50"], s["p95"], s["p99"], s["max"],
            ]
            for app, s in sorted(stats.items())
        ]
        print(format_table(
            ["app", "pkts", "mean", "p50", "p95", "p99", "max"],
            rows, float_fmt="{:.1f}",
        ))

    for packet in slowest(packets, args.slowest):
        print()
        print(format_packet(packet))

    if args.chrome:
        write_chrome_trace(trace.header, trace.events, args.chrome)
        print(f"\nchrome trace -> {args.chrome}")
    return 0


def _cmd_bound(args) -> int:
    instance = _build_instance(args)
    lb = max_apl_lower_bound(instance)
    if args.json:
        # Canonical JSON, byte-identical to the serve daemon's degraded
        # bounds_only answers (the golden suite pins this equivalence).
        import json

        from repro.experiments.resilience import json_safe

        print(json.dumps(json_safe(lb.as_dict()), sort_keys=True, separators=(",", ":")))
        return 0
    print(
        f"max-APL lower bound: {lb.value:.4f} "
        f"(mean bound {lb.mean_bound:.4f}, per-app bound {lb.per_app_bound:.4f})"
    )
    rows = []
    for name in args.algorithms:
        result = ALGORITHMS[name](instance)
        rows.append([name, result.max_apl, lb.gap(result.max_apl) * 100])
    print()
    print(format_table(["algorithm", "max-APL", "gap %"], rows, float_fmt="{:.3f}"))
    return 0


def _cmd_serve(args) -> int:
    import logging

    from repro.service.app import run_service

    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")

    def ready(port: int) -> None:
        print(f"serving on http://{args.host}:{port}", flush=True)

    return run_service(
        args.host,
        args.port,
        ready=ready,
        trace_out=args.trace_out,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        workers=args.workers,
        task_timeout=args.task_timeout,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_deadline=args.default_deadline,
        degrade=args.degrade,
        drain_timeout=args.drain_timeout,
        flight_out=args.flight_out,
        trace=args.trace or args.trace_out is not None
        or args.flight_out is not None,
        trace_clock=args.trace_clock,
        trace_buffer=args.trace_buffer,
        flight_recorder=args.flight_recorder,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        # Side 2 is the smallest mesh with four distinct corner MC tiles.
        p.add_argument(
            "--mesh", type=_int_at_least(2), default=8,
            help="mesh side length (default 8)",
        )
        p.add_argument(
            "--workload", default="C1",
            help="paper configuration name (C1..C8) or a workload JSON path",
        )
        p.add_argument(
            "--profile", action="store_true",
            help="print per-span timings (e.g. sss.select/swap/polish, noc.measure)",
        )

    p_map = sub.add_parser("map", help="solve an OBM instance")
    add_common(p_map)
    p_map.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="sss")
    p_map.add_argument("--output", help="write the result JSON here")
    p_map.set_defaults(func=_cmd_map)

    p_eval = sub.add_parser("evaluate", help="evaluate a stored mapping")
    add_common(p_eval)
    p_eval.add_argument("mapping", help="mapping or `map --output` result JSON path")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sim = sub.add_parser(
        "simulate", help="cycle-level NoC run with optional faults/invariants"
    )
    add_common(p_sim)
    p_sim.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="sss")
    p_sim.add_argument("--warmup", type=_int_at_least(0), default=1_000)
    p_sim.add_argument("--measure", type=_int_at_least(1), default=5_000)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=0, help="traffic seed")
    p_sim.add_argument(
        "--invariants", action="store_true",
        help="enable runtime invariant checking (conservation, credits, watchdog)",
    )
    p_sim.add_argument(
        "--link-down", action="append", type=_parse_link_down, metavar="T:PORT:S:E",
        help="link outage window TILE:PORT:START:END; repeatable",
    )
    p_sim.add_argument(
        "--stall", action="append", type=_parse_stall, metavar="T:S:E",
        help="router stall window TILE:START:END; repeatable",
    )
    p_sim.add_argument(
        "--drop-rate", type=_parse_probability, default=0.0,
        help="per-link-traversal flit drop probability",
    )
    p_sim.add_argument("--max-retries", type=_int_at_least(0), default=3)
    p_sim.add_argument(
        "--fault-seed", type=_int_at_least(0), default=0, help="seed of the drop generator"
    )
    g_obs = p_sim.add_argument_group(
        "observability (off unless an output path is given)"
    )
    g_obs.add_argument(
        "--trace-out", metavar="PATH",
        help="write packet-lifecycle trace JSONL here",
    )
    g_obs.add_argument(
        "--chrome-trace", metavar="PATH",
        help="write a Chrome/Perfetto trace-event JSON here",
    )
    g_obs.add_argument(
        "--metrics-out", metavar="PATH",
        help="write Prometheus text-format metrics here",
    )
    g_obs.add_argument(
        "--timeseries-out", metavar="PATH",
        help="write a per-window time-series CSV here",
    )
    g_obs.add_argument(
        "--trace-every", type=_int_at_least(1), default=1, metavar="N",
        help="trace every Nth submitted packet (default 1 = all)",
    )
    g_obs.add_argument(
        "--trace-apps", type=_parse_apps, metavar="A,B",
        help="only trace these application ids (comma-separated)",
    )
    g_obs.add_argument(
        "--trace-buffer", type=_int_at_least(1), default=262_144, metavar="N",
        help="trace ring-buffer capacity in events (default 262144)",
    )
    g_obs.add_argument(
        "--sample-every", type=_int_at_least(1), default=200, metavar="K",
        help="time-series sampling period in cycles (default 200)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_trace = sub.add_parser(
        "trace",
        help="inspect a trace JSONL (packet or span kind), or run "
        "'trace serve-report DUMP.json' on a /debug/requests dump",
    )
    p_trace.add_argument(
        "trace", nargs="+",
        help="trace JSONL path, or 'serve-report' followed by a "
        "/debug/requests JSON dump",
    )
    p_trace.add_argument(
        "--slowest", type=int, default=5, metavar="N",
        help="print per-hop/per-span breakdowns of the N slowest "
        "packets/requests (default 5)",
    )
    p_trace.add_argument(
        "--app", type=int, help="restrict to one application id"
    )
    p_trace.add_argument(
        "--validate", action="store_true",
        help="check the file against the trace schema first",
    )
    p_trace.add_argument(
        "--chrome", metavar="PATH",
        help="also convert to Chrome/Perfetto trace-event JSON",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_bound = sub.add_parser("bound", help="lower bound + per-algorithm gaps")
    add_common(p_bound)
    p_bound.add_argument(
        "--algorithms", nargs="+", choices=sorted(ALGORITHMS),
        default=["global", "sss"],
    )
    p_bound.add_argument(
        "--json", action="store_true",
        help="print only the bound as canonical JSON (skips algorithm gaps)",
    )
    p_bound.set_defaults(func=_cmd_bound)

    p_serve = sub.add_parser(
        "serve", help="run the mapping-as-a-service HTTP daemon"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=_int_at_least(0, 65_535), default=8177)
    p_serve.add_argument(
        "--cache-size", type=_int_at_least(1), default=256,
        help="bounded LRU result-cache capacity (default 256 entries)",
    )
    p_serve.add_argument(
        "--max-batch", type=_int_at_least(1), default=32,
        help="most simulation requests per engine call (default 32)",
    )
    p_serve.add_argument(
        "--workers", type=_int_at_least(1), default=2,
        help="concurrent blocking solves/simulations (default 2)",
    )
    p_serve.add_argument(
        "--task-timeout", type=_float_at_least(0.0, strict=True), default=None,
        metavar="SECONDS",
        help="per-task timeout before a worker thread is abandoned and "
        "the request answers 504 (default: none)",
    )
    p_serve.add_argument(
        "--max-inflight", type=_int_at_least(1), default=None,
        help="admission tokens: concurrent requests past the door "
        "(default workers * 4)",
    )
    p_serve.add_argument(
        "--max-queue", type=_int_at_least(0), default=128,
        help="bounded admission queue; a full queue sheds with 429 + "
        "Retry-After (default 128)",
    )
    p_serve.add_argument(
        "--default-deadline", type=_float_at_least(0.0, strict=True), default=None,
        metavar="SECONDS",
        help="server-side deadline for requests that carry no 'timeout' "
        "field (default: none)",
    )
    p_serve.add_argument(
        "--degrade", choices=["off", "auto", "bounds_only"],
        default="auto",
        help="degradation ladder mode: 'auto' answers with the certified "
        "bound alone under admission pressure, 'off' never degrades, "
        "'bounds_only' always does "
        "(requests with \"bounds\": false or \"degrade\": false are "
        "always solved)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=_float_at_least(0.0), default=10.0, metavar="SECONDS",
        help="max wait for in-flight requests on POST /shutdown before "
        "stopping anyway (default 10)",
    )
    p_serve.add_argument(
        "--flight-out", metavar="PATH",
        help="write the deterministic final flight-recorder dump here on "
        "drain (implies --trace)",
    )
    p_serve.add_argument(
        "--trace", action="store_true",
        help="enable request-scoped span tracing and the flight recorder "
        "(off by default; the untraced daemon's responses are unchanged)",
    )
    p_serve.add_argument(
        "--trace-clock", choices=["wall", "logical"], default="wall",
        help="span timestamps: wall microseconds, or a deterministic "
        "logical tick (byte-identical output for the same request stream)",
    )
    p_serve.add_argument(
        "--trace-out", metavar="PATH",
        help="write the span trace JSONL here on shutdown (implies --trace)",
    )
    p_serve.add_argument(
        "--trace-buffer", type=_int_at_least(1), default=65_536,
        help="span ring-buffer capacity (default 65536 events)",
    )
    p_serve.add_argument(
        "--flight-recorder", type=_int_at_least(0), default=64, metavar="N",
        help="keep forensic records of the last N requests for "
        "/debug/requests (default 64)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def run_main(main, *args):
    """Return ``main(*args)``; exit quietly (status 1) on a closed stdout.

    The command-line entry point and every example's ``__main__`` block
    run through this, so ``... | head`` ends them without a
    ``BrokenPipeError`` traceback.
    """
    try:
        status = main(*args)
        # Flush here, not at interpreter exit, so a closed pipe is caught.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away: point stdout at devnull so the exit-time
        # flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1) from None
    return status


def main(argv=None) -> int:
    return run_main(_dispatch, argv)


def _dispatch(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "experiments":
        # The documented alias: defer to the experiments CLI wholesale so
        # its flags (--output-dir, --fast, --profile...) stay in one
        # place.
        from repro.experiments.__main__ import main as experiments_main

        return experiments_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    if not getattr(args, "profile", False):
        return args.func(args)
    with reqtrace.profiled(f"cli.{args.command}") as spans:
        status = args.func(args)
    print()
    print(reqtrace.format_span_summary(reqtrace.span_summary(spans)))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
