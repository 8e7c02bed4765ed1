"""The mapping-as-a-service daemon: ``python -m repro serve``.

A resident asyncio process that turns mapping problems into certified
answers over a local HTTP/JSON endpoint — no cold CLI start, no repeated
TC/TM computation, no per-request simulation runs when concurrent
requests can share a vector-engine batch.

Endpoints
---------
``POST /map``
    Body: a problem spec (see :func:`MappingService.map_request`).
    Returns the thread-to-tile permutation, the paper's evaluation
    metrics, the certified lower bound, and (optionally) cycle-measured
    APLs.  ``result`` is deterministic for a given request body;
    ``meta`` carries cache bookkeeping (``hit``/``coalesced``/``miss``).
``GET /metrics``
    Prometheus text exposition of the service registry: request latency
    percentiles, cache hit/miss counters, batch occupancy, queue depth.
``GET /healthz``
    Liveness plus the worker pool's :class:`RunReport`, cache counters,
    admission state and degrade mode.
``GET /readyz``
    Readiness: 503 until kernel warmup finishes and while draining;
    once ready it names the resolved solver backend.
    The CI smoke job polls this before sending work.
``GET /debug/requests``
    The flight recorder: the last N completed requests with their span
    trees (``enabled: false`` and empty when tracing is off).
``POST /shutdown``
    Graceful drain: stop admitting, flush in-flight work, write the
    deterministic final flight-recorder dump, then stop.

Request pipeline
----------------
:meth:`MappingService.map_request` runs each ``/map`` body through a
fixed list of stages: parse and canonicalize it into a frozen
:class:`MapRequest`, admit it, choose a ladder level, solve or look up
at that level, and respond.  Every level answers through one function,
which also writes the root-span marks the flight recorder files, so
``meta`` and the flight record cannot disagree.  The HTTP framing lives
in :mod:`repro.service.http`.

Overload behaviour
------------------
Admission control (:mod:`repro.service.admission`) bounds concurrency
and queueing; excess work is shed with 429/503 + ``Retry-After``.  Under
pressure or an infeasible deadline the degradation ladder
(:mod:`repro.service.degrade`) answers with the request's certified
bound alone instead of a solve: full → bounds-only.  Every answer is
about the request's own instance.  A wedged or failed worker task fails
only the requests waiting on it; the solver backend resolved at
start-up serves every solve.

Caching semantics
-----------------
Results are cached under the *canonical* problem fingerprint
(:mod:`repro.service.canonical`), so requests that differ only by app
order, thread labels, names, or sub-quantum rate noise share one solve.
The cached entry stores results in canonical labels and each response
translates them back into the requester's labels.  Solver tie-breaks
(and the simulated traffic realization) follow the labeling of the
request that *filled* the entry: the filling requester's response is
byte-identical to solving its instance directly, and every duplicate of
that request gets the same bytes from the cache.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import math
import time
from dataclasses import dataclass

from repro.core.bounds import max_apl_lower_bound
from repro.core import permkernels
from repro.core.problem import Mapping, OBMInstance
from repro.core.registry import ALGORITHMS
from repro.core.workload import Application, Workload
from repro.experiments.resilience import config_fingerprint, json_safe
from repro.obs import reqtrace
from repro.obs.metrics import MetricsRegistry, SECONDS_BUCKETS
from repro.obs.reqtrace import SpanTracer
from repro.service.admission import (
    AdmissionController,
    Deadline,
    DeadlineExpired,
    EwmaEstimate,
    ShedError,
    count_expired,
    deadline_scope,
    detach_deadline,
)
from repro.service.batcher import SimulationBatcher
from repro.service.cache import LRUCache, ModelMemo
from repro.service.canonical import CanonicalRequest, canonicalize
from repro.service.degrade import LEVEL_BOUNDS, LEVEL_FULL, DegradeController
from repro.service.flightrec import FlightRecorder
from repro.service.http import RequestError, read_request, response_bytes
from repro.service.workers import RunReport, WorkerPool

__all__ = ["MapRequest", "MappingService", "RequestError", "serve", "run_service"]

logger = logging.getLogger("repro.serve")

#: Simulation knobs accepted under the request's ``sim`` key.
_SIM_DEFAULTS = {
    "warmup": 1_000,
    "measure": 5_000,
    "seed": 0,
    "invariants": False,
}

#: Root-span annotations copied into every flight record.
_RECORD_ATTRS = ("fingerprint", "algorithm", "cache", "batch_occupancy", "degraded")


def _roundtrip(doc: dict) -> dict:
    """Canonical JSON round-trip: one representation for fresh and cached."""
    return json.loads(json.dumps(json_safe(doc), sort_keys=True, separators=(",", ":")))


def _bound_doc(instance: OBMInstance, achieved: float | None = None) -> dict:
    """The certified-bound document, keyed as ``repro bound --json`` prints it.

    With ``achieved`` (a solve's max-APL) it also carries the relative
    ``gap`` between that solve and the bound.
    """
    with reqtrace.span("worker.bounds"):
        lb = max_apl_lower_bound(instance)
    doc = lb.as_dict()
    if achieved is not None:
        doc["gap"] = lb.gap(achieved)
    return doc


def measured_payload(result) -> dict:
    """JSON-safe measured section of a :class:`SimulationResult`.

    Per-app containers are keyed by app index (as strings after the JSON
    round-trip); ``engine`` names the engine that ran.
    """
    stats = result.stats
    apl_by_app = stats.apl_by_app()
    return {
        "engine": result.engine,
        "cycles": result.cycles,
        "packets_offered": result.packets_offered,
        "packets_delivered": result.packets_delivered,
        "packets_lost": result.packets_lost,
        "delivery_ratio": result.delivery_ratio,
        "invariant_checks": result.invariant_checks,
        "apl_by_app": {str(a): v for a, v in apl_by_app.items()},
        # an empty measurement window (no packets delivered) is a valid
        # outcome, not a server error
        "max_apl": stats.max_apl() if apl_by_app else None,
        "dev_apl": stats.dev_apl() if apl_by_app else None,
        "percentiles_by_app": {
            str(a): p for a, p in stats.percentiles_by_app().items()
        },
    }


@dataclass(frozen=True)
class MapRequest:
    """One parsed ``POST /map`` body: everything the later stages read."""

    canon: CanonicalRequest
    apps: list  #: the request's app documents (raw rates, request order)
    app_names: list
    algorithm: str
    want_bounds: bool
    simulate: bool
    sim: dict
    budget: float | None  #: deadline seconds: the request's ``timeout`` or the default
    allow_degrade: bool

    @property
    def fingerprint(self) -> str:
        return self.canon.problem.fingerprint

    @property
    def solve_key(self) -> str:
        """Cache key of a solve entry: the canonical problem plus solve knobs."""
        return config_fingerprint(
            "serve.solve",
            problem=self.fingerprint,
            algorithm=self.algorithm,
            bounds=self.want_bounds,
        )

    @property
    def bounds_key(self) -> str:
        return config_fingerprint("serve.bounds", problem=self.fingerprint)

    @property
    def sim_key(self) -> str:
        return config_fingerprint(
            "serve.sim", problem=self.fingerprint, algorithm=self.algorithm, sim=self.sim
        )

    def result(self, entry: dict) -> dict:
        """The ``result`` document of a canonical solve entry, in request labels."""
        canon = self.canon
        return {
            "algorithm": entry["algorithm"],
            "apps": self.app_names,
            "perm": canon.perm_from_canonical(entry["perm"]),
            "evaluation": {
                "apls": canon.by_app_from_canonical(entry["apls"]),
                "max_apl": entry["max_apl"],
                "dev_apl": entry["dev_apl"],
                "g_apl": entry["g_apl"],
                "min_max_ratio": entry["min_max_ratio"],
            },
            "bounds": entry["bounds"],
        }

    def measured(self, entry: dict) -> dict:
        """The ``measured`` section of a canonical simulation entry, in request labels."""
        return {
            **entry,
            "apls": self.canon.by_app_from_canonical(entry["apls"]),
            "percentiles": self.canon.by_app_from_canonical(entry["percentiles"]),
        }


class MappingService:
    """The problem-in/result-out core, independent of the HTTP layer."""

    def __init__(
        self,
        *,
        cache_size: int = 256,
        batch_window: float = 0.005,
        max_batch: int = 32,
        workers: int = 2,
        task_timeout: float | None = None,
        batch_runner=None,
        trace: bool = False,
        trace_clock: str = "wall",
        trace_buffer: int = 65_536,
        flight_recorder: int = 64,
        max_inflight: int | None = None,
        max_queue: int = 128,
        default_deadline: float | None = None,
        degrade: str = "auto",
        drain_timeout: float = 10.0,
        flight_out: str | None = None,
    ) -> None:
        if default_deadline is not None and not 0 < default_deadline < math.inf:
            raise ValueError(
                f"default_deadline must be a positive finite number of seconds, "
                f"got {default_deadline}"
            )
        self.registry = MetricsRegistry()
        self.report = RunReport()
        # Off by default: with tracer=None every instrumentation site is a
        # single ContextVar read, so the served bytes pin bit-identical to
        # the untraced daemon.
        self.tracer = (
            SpanTracer(buffer=trace_buffer, clock=trace_clock, registry=self.registry)
            if trace
            else None
        )
        self.flightrec = FlightRecorder(flight_recorder if trace else 0)
        self.cache = LRUCache(cache_size, registry=self.registry)
        self.models = ModelMemo(registry=self.registry)
        self.pool = WorkerPool(
            workers,
            timeout=task_timeout,
            report=self.report,
            registry=self.registry,
        )
        self.batcher = SimulationBatcher(
            self.pool,
            window=batch_window,
            max_batch=max_batch,
            registry=self.registry,
            runner=batch_runner,
        )
        self._inflight: dict = {}
        self.default_deadline = default_deadline
        self.drain_timeout = drain_timeout
        self.flight_out = flight_out
        self._flight_dumped = False
        self.ready = False
        self.draining = False
        self._drain_task: asyncio.Task | None = None
        self.admission = AdmissionController(
            max_inflight=max_inflight if max_inflight is not None else workers * 4,
            max_queue=max_queue,
            registry=self.registry,
            health=self._admission_health,
        )
        self.degrade = DegradeController(degrade, registry=self.registry)
        #: EWMA of one full solve's wall cost, feeding degrade decisions.
        self.solve_cost = EwmaEstimate()
        self._m_latency = self.registry.histogram(
            "serve_request_seconds",
            "end-to-end /map request latency",
            bounds=SECONDS_BUCKETS,
        )
        self._m_requests = self.registry.counter(
            "serve_requests_total", "requests served", endpoint="map", status="200"
        )
        self._m_coalesced = self.registry.counter(
            "serve_cache_coalesced_total",
            "requests that joined an in-flight duplicate",
        )
        self._m_hit_ratio = self.registry.gauge(
            "serve_cache_hit_ratio", "lru+coalesced hits over all lookups"
        )

    # -- lifecycle ---------------------------------------------------------

    def _admission_health(self) -> tuple | None:
        """Server-side refusal reasons, checked before any queueing."""
        if self.draining:
            return "draining", 503
        return None

    def mark_ready(self) -> None:
        """Flip /readyz to 200 (called after kernel warmup completes)."""
        self.ready = True

    def readiness(self) -> tuple[int, dict]:
        """The ``GET /readyz`` answer: readiness, not liveness."""
        if self.draining:
            return 503, {"status": "draining"}
        if not self.ready:
            return 503, {"status": "starting"}
        return 200, {"status": "ready", "backend": permkernels.resolve_backend()}

    def begin_drain(self, stop: asyncio.Event) -> dict:
        """Start a graceful drain; returns the ``POST /shutdown`` document.

        New work is shed immediately (``draining``); a background task
        waits for in-flight requests to finish (up to ``drain_timeout``),
        flushes the batcher, writes the deterministic final
        flight-recorder dump, and only then stops the server.  Idempotent:
        a second POST reports progress without starting a second drain.
        """
        response = {"status": "draining", "inflight": self.admission.inflight}
        if self.draining:
            return response
        self.draining = True
        self.ready = False

        async def drain() -> None:
            clean = await self.admission.wait_idle(self.drain_timeout)
            if not clean:
                logger.warning(
                    "drain timed out after %.1fs with %d request(s) in flight",
                    self.drain_timeout,
                    self.admission.inflight,
                )
            await self.batcher.drain()
            self.final_flight_dump()
            stop.set()

        # The loop only keeps a weak reference to tasks; hold a strong
        # one so the drain cannot be garbage-collected mid-flight.
        self._drain_task = asyncio.get_running_loop().create_task(drain())
        return response

    def final_flight_dump(self) -> None:
        """Write the flight-recorder dump to ``flight_out``, exactly once.

        ``sort_keys`` canonical JSON: two drains of the same request
        stream produce identical bytes.
        """
        if self._flight_dumped or self.flight_out is None:
            return
        self._flight_dumped = True
        dump = json.dumps(json_safe(self.flightrec.dump()), sort_keys=True, indent=2)
        with open(self.flight_out, "w") as fh:
            fh.write(dump + "\n")
        logger.info("wrote final flight record to %s", self.flight_out)

    # -- stage 1: parse and canonicalize -----------------------------------

    def _parse(self, payload: dict) -> MapRequest:
        """Parse defensively: malformed shapes become 400s, never 500s."""
        try:
            return self._parse_spec(payload)
        except RequestError:
            raise
        except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
            raise RequestError(
                f"malformed request: {type(exc).__name__}: {exc}"
            ) from exc

    def _parse_spec(self, payload: dict) -> MapRequest:
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        spec = dict(payload)
        if "workload" in spec and spec["workload"] is not None:
            if spec.get("apps"):
                raise RequestError("give either 'workload' or 'apps', not both")
            from repro.workloads.parsec import CONFIG_NAMES, parsec_config

            name = str(spec["workload"]).upper()
            if name not in CONFIG_NAMES:
                raise RequestError(
                    f"unknown workload {spec['workload']!r}; expected one of {CONFIG_NAMES}"
                )
            mesh_doc = spec.get("mesh", 8)
            if isinstance(mesh_doc, dict):
                n_tiles = int(mesh_doc["rows"]) * int(mesh_doc["cols"])
            else:
                n_tiles = int(mesh_doc) ** 2
            workload = parsec_config(name, threads_per_app=n_tiles // 4)
            spec["apps"] = [
                {
                    "name": app.name,
                    "cache_rates": app.cache_rates.tolist(),
                    "mem_rates": app.mem_rates.tolist(),
                }
                for app in workload.applications
            ]

        algorithm = str(spec.get("algorithm", "sss"))
        if algorithm not in ALGORITHMS:
            raise RequestError(
                f"unknown algorithm {algorithm!r}; expected one of {sorted(ALGORITHMS)}"
            )
        sim = dict(_SIM_DEFAULTS)
        sim_doc = spec.get("sim") or {}
        unknown = set(sim_doc) - set(_SIM_DEFAULTS)
        if unknown:
            raise RequestError(f"unknown sim options: {sorted(unknown)}")
        sim.update(sim_doc)
        sim = {key: type(default)(sim[key]) for key, default in _SIM_DEFAULTS.items()}
        if sim["warmup"] < 0 or sim["measure"] <= 0:
            raise RequestError("sim.warmup must be >= 0 and sim.measure > 0")
        timeout = spec.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
            # json.loads accepts NaN and Infinity; neither is a budget.
            if not math.isfinite(timeout):
                raise RequestError("timeout must be finite")
            if timeout <= 0:
                raise RequestError("timeout must be positive")
        allow_degrade = spec.get("degrade", True)
        if not isinstance(allow_degrade, bool):
            raise RequestError("'degrade' must be a boolean")

        try:
            canon = canonicalize(spec)
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        return MapRequest(
            canon=canon,
            apps=spec["apps"],
            app_names=[str(a.get("name", f"app{i}")) for i, a in enumerate(spec["apps"])],
            algorithm=algorithm,
            want_bounds=bool(spec.get("bounds", True)),
            simulate=bool(spec.get("simulate", False)),
            sim=sim,
            budget=self.default_deadline if timeout is None else timeout,
            allow_degrade=allow_degrade,
        )

    def _request_instance(self, req: MapRequest) -> OBMInstance:
        """The instance in *request* labels, on the memoized latency model.

        Rates are used verbatim (NOT quantized): quantization exists only
        to decide cache identity.  Computation always runs on the filling
        requester's exact numbers, so its response is bit-identical to
        solving the same instance directly.
        """
        problem = req.canon.problem
        model = self.models.get(problem.rows, problem.cols, problem.params)
        apps = tuple(
            Application(f"app{i}", a["cache_rates"], a["mem_rates"])
            for i, a in enumerate(req.apps)
        )
        return OBMInstance(model, Workload(apps, name="request"))

    # -- the pipeline --------------------------------------------------------

    async def map_request(self, payload: dict) -> dict:
        """Serve one ``POST /map`` body; returns the response document.

        Stages: parse and canonicalize (:meth:`_parse`), admit, choose a
        ladder level, then solve or look up at that level (:meth:`_full`
        or :meth:`_bounds_only`), each of which answers through
        :meth:`_respond`, the one place a response is made.
        """
        t0 = time.perf_counter()
        with reqtrace.span("canonicalize"):
            req = self._parse(payload)
        reqtrace.annotate(
            fingerprint=req.fingerprint,
            algorithm=req.algorithm,
            simulate=req.simulate,
        )
        deadline = None if req.budget is None else Deadline(req.budget)
        try:
            with deadline_scope(deadline):
                # timeout=None awaits in this task, exactly like a bare await
                doc = await asyncio.wait_for(
                    self._admitted(req, deadline),
                    timeout=None if deadline is None else deadline.remaining(),
                )
        except DeadlineExpired:
            raise  # already counted at the stage that refused
        except asyncio.TimeoutError:
            if deadline is not None:
                count_expired(self.registry, "request")
            raise
        finally:
            self._m_latency.observe(time.perf_counter() - t0)
        self._m_requests.inc()
        return doc

    async def _admitted(self, req: MapRequest, deadline: Deadline | None) -> dict:
        """Admit, choose a ladder level, and answer at that level."""
        async with self.admission.admit():
            level = self.degrade.level_for(
                pressure=self.admission.pressure,
                remaining=None if deadline is None else deadline.remaining(),
                estimate=self.solve_cost.value,
                # a request that declined the bound is never answered with it
                allow=req.allow_degrade and req.want_bounds,
            )
            if level == LEVEL_BOUNDS:
                return await self._bounds_only(req)
            return await self._full(req)

    def _respond(self, req: MapRequest, level: str, result: dict, cache: str) -> dict:
        """Make the response: ``result``/``meta`` and the root-span marks.

        ``meta.cache``/``meta.degraded`` and the flight record's
        ``cache``/``degraded`` are written here from the same values, so
        they cannot disagree.
        """
        meta = {"fingerprint": req.fingerprint, "cache": cache}
        reqtrace.annotate(cache=cache)
        if level != LEVEL_FULL:
            result["degraded"] = meta["degraded"] = level
            reqtrace.annotate(degraded=level)
        self.degrade.record(level)
        return {"result": result, "meta": meta}

    # -- ladder levels -------------------------------------------------------

    async def _full(self, req: MapRequest) -> dict:
        """Full fidelity — byte-identical to the pre-ladder daemon."""
        entry, kind = await self._cached(
            req.solve_key, lambda: self.pool.run(self._solve_sync, req)
        )
        doc = self._respond(req, LEVEL_FULL, req.result(entry), kind)
        if req.simulate:
            measured, doc["meta"]["sim_cache"] = await self._cached(
                req.sim_key, lambda: self._simulate(req, entry), stage="sim"
            )
            doc["result"]["measured"] = req.measured(measured)
        return doc

    async def _bounds_only(self, req: MapRequest) -> dict:
        """The degraded level: the certified bound alone, no solve."""
        bounds, kind = await self._cached(
            req.bounds_key,
            lambda: self.pool.run(self._bounds_sync, req),
            stage="bounds",
        )
        result = {
            "algorithm": req.algorithm,
            "apps": req.app_names,
            "perm": None,
            "evaluation": None,
            "bounds": bounds,
        }
        return self._respond(req, LEVEL_BOUNDS, result, kind)

    # -- single-flight cache -----------------------------------------------

    async def _cached(self, key, compute, stage: str = "solve"):
        """In-flight coalescing, then LRU lookup, then compute-and-fill.

        The in-flight check comes first so a coalesced duplicate is
        counted as a hit, not as an LRU miss for an entry that is still
        being computed.
        """
        task = self._inflight.get(key)
        if task is not None:
            self._m_coalesced.inc()
            self._update_hit_ratio()
            with reqtrace.span("cache.coalesce", stage=stage):
                return await asyncio.shield(task), "coalesced"
        with reqtrace.span("cache.lookup", stage=stage) as lookup:
            entry = self.cache.get(key)
            lookup.set(outcome="hit" if entry is not None else "miss")
        if entry is not None:
            self._update_hit_ratio()
            return entry, "hit"

        async def fill():
            # A fill outlives its requester: it serves every later
            # duplicate, so it must not inherit the requester's deadline
            # (a timed-out unique problem is still a cache hit on retry).
            detach_deadline()
            entry = await compute()
            self.cache.put(key, entry)
            return entry

        # The fill task is created with the *request* context (create_task
        # copies it), so solver spans parent under this request's root —
        # deliberately outside any short-lived child span above.
        task = asyncio.get_running_loop().create_task(fill())
        self._inflight[key] = task

        def cleanup(t: asyncio.Task) -> None:
            self._inflight.pop(key, None)
            if not t.cancelled():
                t.exception()  # mark retrieved even if every waiter left

        task.add_done_callback(cleanup)
        self._update_hit_ratio()
        return await asyncio.shield(task), "miss"

    def _update_hit_ratio(self) -> None:
        hits = self.cache.hits + self._m_coalesced.value
        total = hits + self.cache.misses
        self._m_hit_ratio.set(hits / total if total else 0.0)

    # -- blocking work (pool threads) ----------------------------------------

    def _solve_sync(self, req: MapRequest) -> dict:
        """Blocking solve in request labels; returns the canonical entry."""
        t0 = time.perf_counter()
        with reqtrace.span("worker.solve", algorithm=req.algorithm) as solve_span:
            instance = self._request_instance(req)
            result = ALGORITHMS[req.algorithm](instance)
            solve_span.set(max_apl=result.evaluation.max_apl)
        canon, evaluation = req.canon, result.evaluation
        perm = result.mapping.perm
        apls = [
            None if v != v else float(v)  # NaN (idle app) -> None
            for v in evaluation.apls[: canon.n_apps]
        ]
        entry = {
            "algorithm": req.algorithm,
            "perm": canon.perm_to_canonical(perm),
            "pad_tiles": [int(t) for t in perm[canon.problem.n_threads:]],
            "apls": canon.by_app_to_canonical(apls),
            "max_apl": evaluation.max_apl,
            "dev_apl": evaluation.dev_apl,
            "g_apl": evaluation.g_apl,
            "min_max_ratio": evaluation.min_max_ratio,
            "bounds": None,
        }
        if req.want_bounds:
            entry["bounds"] = _bound_doc(instance, evaluation.max_apl)
            # Achieved-vs-certified gap distribution, per algorithm.
            reqtrace.observe(
                "solver_bound_gap",
                entry["bounds"]["gap"],
                bounds=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
                help="relative gap between achieved max-APL and certified lower bound",
                algorithm=req.algorithm,
            )
        self.solve_cost.observe(time.perf_counter() - t0)
        return _roundtrip(entry)

    def _bounds_sync(self, req: MapRequest) -> dict:
        """Blocking bounds-only computation (no solve, no permutation).

        The returned document is byte-identical to what
        ``python -m repro bound --json`` prints for the same problem —
        a degraded answer is still a *certified* answer.
        """
        return _roundtrip(_bound_doc(self._request_instance(req)))

    def _simulate_single_sync(self, instance, mapping, sim: dict):
        from repro.noc.simulator import NoCSimulator
        from repro.noc.traffic import MappedWorkloadTraffic

        with reqtrace.span("worker.simulate", measure=sim["measure"]):
            traffic = MappedWorkloadTraffic(instance, mapping, seed=sim["seed"])
            simulator = NoCSimulator(
                instance.mesh, traffic, invariants=sim["invariants"] or None
            )
            return simulator.run(warmup=sim["warmup"], measure=sim["measure"])

    async def _simulate(self, req: MapRequest, entry: dict) -> dict:
        """Measure a solved entry's mapping; returns the canonical sim entry."""
        from repro.noc.traffic import MappedWorkloadTraffic

        canon, sim = req.canon, req.sim
        instance = self._request_instance(req)
        mapping = Mapping(
            canon.perm_from_canonical(entry["perm"])
            + [int(t) for t in entry["pad_tiles"]]
        )
        if not sim["invariants"]:
            # The batchable common case: coalesce with whatever arrives
            # inside the micro-batch window.
            traffic = MappedWorkloadTraffic(instance, mapping, seed=sim["seed"])
            result = await self.batcher.submit(
                instance.mesh, traffic, warmup=sim["warmup"], measure=sim["measure"]
            )
        else:
            result = await self.pool.run(
                self._simulate_single_sync, instance, mapping, sim
            )
        payload = measured_payload(result)
        # Store per-app containers in canonical order so relabeled
        # duplicates translate cleanly.
        for keyed, name in (("apl_by_app", "apls"), ("percentiles_by_app", "percentiles")):
            by_app = payload.pop(keyed)
            payload[name] = canon.by_app_to_canonical(
                [by_app.get(str(i)) for i in range(canon.n_apps)]
            )
        payload.update((knob, sim[knob]) for knob in ("warmup", "measure", "seed"))
        return _roundtrip(payload)

    # -- flight recorder ---------------------------------------------------

    def finish_flight_record(self, ctx, status: int, payload) -> None:
        """File one completed request into the flight recorder.

        Called by the HTTP layer after the response status is settled;
        ``ctx`` is the request's closed :class:`TraceContext` (None when
        tracing is off).  Any 5xx also logs the full record so
        post-mortems survive ring eviction.
        """
        if ctx is None:
            return
        attrs = ctx.root_attrs
        record = {
            "trace_id": ctx.trace_id,
            "status": status,
            **{key: attrs.get(key) for key in _RECORD_ATTRS},
            "error": payload.get("error") if isinstance(payload, dict) else None,
            # the root span is the last to end; its wall clock is the
            # request's end-to-end duration
            "duration_us": next(
                (s["wall_us"] for s in reversed(ctx.spans) if s["parent_span"] == -1),
                None,
            ),
            "spans": ctx.spans,
            "spans_dropped": ctx.spans_dropped,
        }
        self.flightrec.record(record)
        if status >= 500:
            logger.error(
                "request failed [trace=%d status=%d]: %s",
                ctx.trace_id,
                status,
                json.dumps(json_safe(record), sort_keys=True),
            )

    # -- introspection -----------------------------------------------------

    async def warm_kernels(self) -> dict:
        """Pre-build the solver kernel backend on a pool thread.

        Called once at daemon startup so the first cache-miss request
        never pays the one-off C kernel build.  A failure is logged and
        swallowed — the solvers fall back to the pure-Python path on
        their own.
        """
        try:
            info = await self.pool.warm(permkernels.warmup)
        except Exception:  # noqa: BLE001 - warmup must never kill startup
            logger.exception("solver kernel warmup failed; using fallback")
            return permkernels.backend_info()
        logger.info("solver kernels ready: backend=%s", info["backend"])
        return info

    def health(self) -> dict:
        return {
            "status": "ok",
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "coalesced": int(self._m_coalesced.value),
                "evictions": self.cache.evictions,
                "hit_ratio": self.cache.hit_ratio,
            },
            "batcher": {
                "batches_run": self.batcher.batches_run,
                "requests_batched": self.batcher.requests_batched,
            },
            "solvers": permkernels.backend_info(),
            "admission": {
                "inflight": self.admission.inflight,
                "waiting": self.admission.waiting,
                "max_inflight": self.admission.max_inflight,
                "max_queue": self.admission.max_queue,
                "admitted": self.admission.admitted_total,
                "shed": self.admission.shed_total,
                "pressure": self.admission.pressure,
            },
            "degrade_mode": self.degrade.mode,
            "ready": self.ready,
            "draining": self.draining,
            "report": self.report.as_dict(),
        }


# ----------------------------------------------------------------------
# HTTP endpoint: the route table (framing lives in repro.service.http)
# ----------------------------------------------------------------------


async def serve(
    service: MappingService,
    host: str = "127.0.0.1",
    port: int = 0,
):
    """Start the HTTP endpoint; returns ``(server, bound_port, stop_event)``."""
    from repro.obs.exporters import render_prometheus

    stop = asyncio.Event()
    tracer = service.tracer

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        status, payload, ctype = 500, {"error": "internal error"}, "application/json"
        headers_out: dict = {}
        trace_ctx = None
        try:
            request = await read_request(reader)
            if request is None:
                writer.close()
                return
            method, path, _headers, body = request
            route = (method, path.split("?", 1)[0])
            if route == ("POST", "/map"):
                doc = json.loads(body.decode() or "null")
                with (
                    contextlib.nullcontext() if tracer is None
                    else tracer.trace("serve.request")
                ) as trace_ctx:
                    status, payload = 200, await service.map_request(doc)
            elif route == ("GET", "/metrics"):
                # The tracer lock serializes against worker threads that
                # record solver metrics mid-span.
                with contextlib.nullcontext() if tracer is None else tracer.lock:
                    text = render_prometheus(service.registry)
                status, payload, ctype = 200, text, "text/plain; version=0.0.4"
            elif route == ("GET", "/healthz"):
                status, payload = 200, service.health()
            elif route == ("GET", "/readyz"):
                status, payload = service.readiness()
            elif route == ("GET", "/debug/requests"):
                status, payload = 200, json_safe(service.flightrec.dump())
            elif route == ("POST", "/shutdown"):
                status, payload = 200, service.begin_drain(stop)
            else:
                status, payload = 404, {"error": f"no route {method} {path}"}
        except RequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except ShedError as exc:
            status = exc.status
            payload = {
                "error": str(exc),
                "reason": exc.reason,
                "retry_after": exc.retry_after,
            }
            headers_out["Retry-After"] = str(exc.retry_after)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            status, payload = 400, {"error": f"invalid JSON body: {exc}"}
        except asyncio.TimeoutError:
            # Includes DeadlineExpired; the hint tells clients when a
            # retry is likely to finish in time (and hit the cache the
            # timed-out fill is still warming).
            retry_after = service.admission.retry_after()
            status, payload = 504, {
                "error": "request timed out", "retry_after": retry_after,
            }
            headers_out["Retry-After"] = str(retry_after)
        except asyncio.IncompleteReadError:
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            logger.exception(
                "unhandled error serving request%s",
                "" if trace_ctx is None else f" [trace={trace_ctx.trace_id}]",
            )
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        service.finish_flight_record(trace_ctx, status, payload)
        try:
            writer.write(response_bytes(status, payload, ctype, headers_out))
            await writer.drain()
            writer.close()
        except ConnectionError:
            pass

    server = await asyncio.start_server(handle, host, port)
    bound_port = server.sockets[0].getsockname()[1]
    logger.info("serving on http://%s:%d", host, bound_port)
    return server, bound_port, stop


def run_service(
    host: str = "127.0.0.1",
    port: int = 8177,
    *,
    ready=None,
    trace_out=None,
    **config,
) -> int:
    """Blocking entry point used by ``python -m repro serve``."""
    service = MappingService(**config)

    async def serve_until_stopped() -> None:
        # The server binds *before* kernel warmup so orchestration can poll
        # GET /readyz (503 "starting") while the backend compiles; /readyz
        # flips to 200 only once the kernels and the pool are up.
        server, bound_port, stop = await serve(service, host, port)
        try:
            if ready is not None:
                ready(bound_port)
            await service.warm_kernels()
            service.mark_ready()
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()

    try:
        asyncio.run(serve_until_stopped())
    except KeyboardInterrupt:
        pass
    # SIGINT skips the drain path; the final dump is idempotent.
    service.final_flight_dump()
    if trace_out is not None and service.tracer is not None:
        from repro.obs.exporters import write_trace_jsonl

        write_trace_jsonl(service.tracer, trace_out)
        logger.info("wrote %d span events to %s",
                    service.tracer.events_retained, trace_out)
    return 0
