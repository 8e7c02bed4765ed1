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
fixed list of stages: parse and validate it into a frozen
:class:`MapRequest`, admit it, choose a ladder level, solve or look up
at that level, and respond.  Every level answers through one function,
which also writes the root-span marks the flight recorder files, so
``meta`` and the flight record cannot disagree.  The HTTP framing lives
in :mod:`repro.service.http`.

Overload behaviour
------------------
Admission control (:mod:`repro.service.admission`) bounds concurrency
and queueing; excess work is shed with 429/503 + ``Retry-After``.  Under
pressure the degradation ladder (:mod:`repro.service.degrade`) answers
with the request's certified bound alone instead of a solve: full →
bounds-only.  A request's ``timeout`` (or ``--default-deadline``) is one
``asyncio.wait_for`` around everything after parsing: when it elapses
the request answers 504, a queued admission seat is given up, and any
cache fill it started runs on (shielded) to serve the retry.  Every
answer is about the request's own instance.  A wedged or failed worker task fails
only the requests waiting on it; the solver backend resolved at
start-up serves every solve.

Caching semantics
-----------------
Results are cached under the request's exact :class:`Problem`: the mesh,
the latency parameters and every rate as a float, apps and threads in
request order.  App names are not part of it (they never reach the
math), so two requests that differ only by names share one entry; any
other difference (app or thread order, a rate changed in its last bit)
is a different problem with its own entry.  SSS depends on the order a
problem is written in, so every answer, cached or not, is byte-identical
to solving and simulating that request's instance directly.

Each fact has one entry: a solve per ``(problem, algorithm)``, a bound
per problem (shared by both ladder levels), a simulation per ``(problem,
algorithm, sim)``.  A full answer that misses both its solve and its
bound computes the two in one worker task, which fills both entries.  A
full answer's ``gap`` is computed at response time from its solve and
bound; ``meta.cache`` reports the solve (full) or the bound
(``bounds_only``), so a full ``hit`` may still have computed its bound.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.bounds import max_apl_lower_bound, relative_gap
from repro.core import permkernels
from repro.core.latency import LatencyParams
from repro.core.problem import Mapping, OBMInstance
from repro.core.registry import ALGORITHMS
from repro.core.workload import Application, Workload
from repro.experiments.resilience import config_fingerprint, json_safe
from repro.obs import reqtrace
from repro.obs.metrics import MetricsRegistry, SECONDS_BUCKETS
from repro.obs.reqtrace import SpanTracer
from repro.service.admission import AdmissionController, ShedError
from repro.service.batcher import SimulationBatcher
from repro.service.cache import LRUCache, ModelMemo
from repro.service.degrade import LEVEL_BOUNDS, LEVEL_FULL, DegradeController
from repro.service.flightrec import FlightRecorder
from repro.service.http import (
    MAX_SIM_CYCLES,
    MAX_TILES,
    RequestError,
    read_request,
    response_bytes,
)
from repro.service.workers import RunReport, WorkerPool

__all__ = [
    "MapRequest",
    "MappingService",
    "Problem",
    "RequestError",
    "canonicalize",
    "serve",
    "run_service",
]

logger = logging.getLogger("repro.serve")

#: Simulation knobs accepted under the request's ``sim`` key; a given
#: value must have its default's JSON type (integer or boolean).
_SIM_DEFAULTS = {
    "warmup": 1_000,
    "measure": 5_000,
    "seed": 0,
    "invariants": False,
}

#: Root-span annotations copied into every flight record.
_RECORD_ATTRS = ("fingerprint", "algorithm", "cache", "batch_occupancy", "degraded")

#: Latency-parameter order inside a :class:`Problem`.
_PARAM_FIELDS = ("td_r", "td_w", "td_q", "td_s")


@dataclass(frozen=True)
class Problem:
    """One OBM problem exactly as a request states it, names left out.

    ``apps[i]`` is app ``i``'s ``(cache_rates, mem_rates)``, threads in
    request order.  Equality of two problems is the cache's identity.
    """

    rows: int
    cols: int
    params: tuple[float, float, float, float]
    apps: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]

    @cached_property
    def fingerprint(self) -> str:
        """:func:`config_fingerprint` of the problem (rates as exact floats)."""
        return config_fingerprint(
            "serve.problem",
            problem={"mesh": [self.rows, self.cols], "params": self.params, "apps": self.apps},
        )

    @property
    def n_threads(self) -> int:
        return sum(len(cache) for cache, _mem in self.apps)


# JSON types are compared exactly: bool is an int subclass, and a string
# or a fraction must not be cast into a different problem.


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} is out of range") from None


def _rates(values, what: str) -> np.ndarray:
    if not isinstance(values, list) or not {type(v) for v in values} <= {int, float}:
        raise ValueError(f"{what} must be a list of JSON numbers")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None


def _mesh_shape(mesh_doc) -> tuple[int, int]:
    """``(rows, cols)`` of a request's ``mesh``: a side length or ``{rows, cols}``.

    At most :data:`MAX_TILES` tiles: the service builds ``N x N`` tables.
    """
    if isinstance(mesh_doc, dict):
        rows = _integer(mesh_doc["rows"], "mesh rows")
        cols = _integer(mesh_doc["cols"], "mesh cols")
    else:
        rows = cols = _integer(mesh_doc, "mesh")
    if rows < 1 or cols < 1:
        raise ValueError(f"mesh dimensions must be positive, got {rows}x{cols}")
    if rows * cols > MAX_TILES:
        raise ValueError(f"a {rows}x{cols} mesh exceeds the {MAX_TILES}-tile limit")
    return rows, cols


def canonicalize(spec: dict) -> Problem:
    """Validate a problem spec (:meth:`OBMInstance.spec` shape) into its :class:`Problem`.

    Raises ``ValueError`` on malformed specs (negative/non-finite rates
    or params, more threads than tiles, more than :data:`MAX_TILES`
    tiles, empty app lists) so the service can answer 400 instead of
    crashing a worker.
    """
    rows, cols = _mesh_shape(spec.get("mesh", 8))

    defaults = LatencyParams()
    params_doc = spec.get("params") or {}
    unknown = set(params_doc) - set(_PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown latency params: {sorted(unknown)}")
    params = tuple(
        _number(params_doc.get(name, getattr(defaults, name)), f"params.{name}")
        for name in _PARAM_FIELDS
    )
    if not all(math.isfinite(p) and p >= 0 for p in params):
        raise ValueError("latency params must be finite and non-negative")

    apps_doc = spec.get("apps")
    if not apps_doc:
        raise ValueError("spec needs a non-empty 'apps' list")
    apps = []
    for a in apps_doc:
        cache = _rates(a["cache_rates"], "cache_rates")
        mem = _rates(a["mem_rates"], "mem_rates")
        if cache.shape != mem.shape or cache.size == 0:
            raise ValueError("each app needs equal-length non-empty rate lists")
        if np.any(cache < 0) or np.any(mem < 0) or not (
            np.all(np.isfinite(cache)) and np.all(np.isfinite(mem))
        ):
            raise ValueError("rates must be finite and non-negative")
        apps.append((tuple(cache.tolist()), tuple(mem.tolist())))

    problem = Problem(rows=rows, cols=cols, params=params, apps=tuple(apps))
    if problem.n_threads > rows * cols:
        raise ValueError(f"{problem.n_threads} threads exceed the {rows * cols}-tile mesh")
    return problem


async def _item(task: asyncio.Future, index: int):
    """Element ``index`` of a task's (tuple) result."""
    return (await task)[index]


def _roundtrip(doc: dict) -> dict:
    """Canonical JSON round-trip: one representation for fresh and cached."""
    return json.loads(json.dumps(json_safe(doc), sort_keys=True, separators=(",", ":")))


def measured_payload(result) -> dict:
    """JSON-safe measured section of a :class:`SimulationResult`.

    Per-app containers are keyed by app index (as strings after the JSON
    round-trip); ``engine`` names the engine that ran.
    """
    stats = result.stats
    apl_by_app = stats.apl_by_app()
    apls = list(apl_by_app.values())
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
        "max_apl": max(apls) if apls else None,
        "dev_apl": float(np.std(apls)) if apls else None,
        "percentiles_by_app": {
            str(a): p for a, p in stats.percentiles_by_app().items()
        },
    }


@dataclass(frozen=True)
class MapRequest:
    """One parsed ``POST /map`` body: everything the later stages read."""

    problem: Problem
    app_names: list
    algorithm: str
    want_bounds: bool
    simulate: bool
    sim: dict
    budget: float | None  #: timeout seconds: the request's ``timeout`` or the default
    allow_degrade: bool

    @property
    def fingerprint(self) -> str:
        return self.problem.fingerprint

    @property
    def solve_key(self) -> str:
        """Cache key of a solve entry: the problem and the algorithm."""
        return config_fingerprint(
            "serve.solve", problem=self.fingerprint, algorithm=self.algorithm
        )

    @property
    def bounds_key(self) -> str:
        return config_fingerprint("serve.bounds", problem=self.fingerprint)

    @property
    def sim_key(self) -> str:
        return config_fingerprint(
            "serve.sim", problem=self.fingerprint, algorithm=self.algorithm, sim=self.sim
        )

    def result(self, entry: dict | None, bounds: dict | None) -> dict:
        """The ``result`` document of a solve entry and a bound entry.

        The bound-only level passes no solve entry, a request that declined
        the bound no bound entry.  With both, the bound gains the solve's
        ``gap``; ``perm`` drops the pad tiles.
        """
        if entry is not None and bounds is not None:
            gap = relative_gap(entry["evaluation"]["max_apl"], bounds["value"])
            bounds = {**bounds, "gap": gap}
        return {
            "algorithm": self.algorithm,
            "apps": self.app_names,
            "perm": None if entry is None else entry["perm"][: self.problem.n_threads],
            "evaluation": None if entry is None else entry["evaluation"],
            "bounds": bounds,
        }


class MappingService:
    """The problem-in/result-out core, independent of the HTTP layer."""

    def __init__(
        self,
        *,
        cache_size: int = 256,
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
        waits for in-flight requests and then for running simulation
        batches to finish (up to ``drain_timeout`` in all), writes the
        deterministic final flight-recorder dump, and only then stops the
        server.  Idempotent: a second POST reports progress without
        starting a second drain.
        """
        response = {"status": "draining", "inflight": self.admission.inflight}
        if self.draining:
            return response
        self.draining = True
        self.ready = False

        async def settle() -> None:
            await self.admission.wait_idle()
            # a fill whose request timed out may still hold a batch
            await self.batcher.drain()

        async def drain() -> None:
            try:
                await asyncio.wait_for(settle(), self.drain_timeout)
            except asyncio.TimeoutError:
                logger.warning(
                    "drain timed out after %.1fs with %d request(s) in flight",
                    self.drain_timeout,
                    self.admission.inflight,
                )
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

    # -- stage 1: parse and validate ----------------------------------------

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
            rows, cols = _mesh_shape(spec.get("mesh", 8))
            workload = parsec_config(name, threads_per_app=rows * cols // 4)
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
        flags = {"bounds": True, "simulate": False, "degrade": True}
        for key, default in flags.items():
            flags[key] = spec.get(key, default)
            if not isinstance(flags[key], bool):
                raise RequestError(f"'{key}' must be a boolean")
        sim_doc = spec.get("sim") or {}
        unknown = set(sim_doc) - set(_SIM_DEFAULTS)
        if unknown:
            raise RequestError(f"unknown sim options: {sorted(unknown)}")
        sim = {**_SIM_DEFAULTS, **sim_doc}
        for key, value in sim.items():
            # bool is an int subclass, so compare the types exactly
            if type(value) is not type(_SIM_DEFAULTS[key]):
                kind = "boolean" if key == "invariants" else "integer"
                raise RequestError(f"sim.{key} must be a JSON {kind}")
        if sim["warmup"] < 0 or sim["seed"] < 0 or sim["measure"] <= 0:
            raise RequestError("sim.warmup and sim.seed must be >= 0 and sim.measure > 0")
        if sim["warmup"] + sim["measure"] > MAX_SIM_CYCLES:
            raise RequestError(f"sim.warmup + sim.measure exceeds {MAX_SIM_CYCLES} cycles")
        timeout = spec.get("timeout")
        if timeout is not None:
            timeout = _number(timeout, "timeout")
            # json.loads accepts NaN and Infinity; neither is a budget.
            if not math.isfinite(timeout):
                raise RequestError("timeout must be finite")
            if timeout <= 0:
                raise RequestError("timeout must be positive")

        try:
            problem = canonicalize(spec)
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        return MapRequest(
            problem=problem,
            app_names=[str(a.get("name", f"app{i}")) for i, a in enumerate(spec["apps"])],
            algorithm=algorithm,
            want_bounds=flags["bounds"],
            simulate=flags["simulate"],
            sim=sim,
            budget=self.default_deadline if timeout is None else timeout,
            allow_degrade=flags["degrade"],
        )

    def _request_instance(self, req: MapRequest) -> OBMInstance:
        """The request's own instance, on the memoized latency model."""
        problem = req.problem
        model = self.models.get(problem.rows, problem.cols, problem.params)
        apps = tuple(
            Application(f"app{i}", cache, mem) for i, (cache, mem) in enumerate(problem.apps)
        )
        return OBMInstance(model, Workload(apps, name="request"))

    # -- the pipeline --------------------------------------------------------

    async def map_request(self, payload: dict) -> dict:
        """Serve one ``POST /map`` body; returns the response document.

        Stages: parse and validate (:meth:`_parse`), admit, choose a
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
        try:
            # timeout=None awaits in this task, exactly like a bare await
            doc = await asyncio.wait_for(self._admitted(req), timeout=req.budget)
        except asyncio.TimeoutError:
            # A --task-timeout raises the same error before the budget is
            # spent; only a spent budget is an expired request.
            if req.budget is not None and time.perf_counter() - t0 >= req.budget:
                self.registry.counter(
                    "serve_deadline_expired_total",
                    "requests whose timeout elapsed before they were answered",
                ).inc()
            raise
        finally:
            self._m_latency.observe(time.perf_counter() - t0)
        self._m_requests.inc()
        return doc

    async def _admitted(self, req: MapRequest) -> dict:
        """Admit, choose a ladder level, and answer at that level."""
        async with self.admission.admit():
            level = self.degrade.level_for(
                pressure=self.admission.pressure,
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
        """Full fidelity: the request's own solve (bound, simulation), cached.

        A miss of both the solve and the wanted bound is one worker task.
        """
        solve, kind = self._lookup(req.solve_key, "solve")
        bound, bound_kind = (
            self._lookup(req.bounds_key, "bounds") if req.want_bounds else (None, None)
        )
        if kind == bound_kind == "miss":
            pair = asyncio.ensure_future(self.pool.run(self._solve_and_bound_sync, req))
            solve = self._fill(req.solve_key, lambda: _item(pair, 0))
            bound = self._fill(req.bounds_key, lambda: _item(pair, 1))
        elif kind == "miss":
            solve = self._fill(req.solve_key, lambda: self.pool.run(self._solve_sync, req))
        elif bound_kind == "miss":
            bound = self._fill(req.bounds_key, lambda: self.pool.run(self._bounds_sync, req))
        entry = await self._wait(solve, kind, "solve")
        bounds = await self._wait(bound, bound_kind, "bounds") if req.want_bounds else None
        doc = self._respond(req, LEVEL_FULL, req.result(entry, bounds), kind)
        if bounds is not None and "miss" in (kind, bound_kind):
            # Achieved-vs-certified gap distribution, per algorithm: once
            # per full answer whose solve or bound lookup missed.
            reqtrace.observe(
                "solver_bound_gap",
                doc["result"]["bounds"]["gap"],
                bounds=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
                help="relative gap between achieved max-APL and certified lower bound",
                algorithm=req.algorithm,
            )
        if req.simulate:
            doc["result"]["measured"], doc["meta"]["sim_cache"] = await self._cached(
                req.sim_key, lambda: self._simulate(req, entry), stage="sim"
            )
        return doc

    async def _bounds_only(self, req: MapRequest) -> dict:
        """The degraded level: the certified bound alone, no solve."""
        bounds, kind = await self._cached(
            req.bounds_key, lambda: self.pool.run(self._bounds_sync, req), stage="bounds"
        )
        return self._respond(req, LEVEL_BOUNDS, req.result(None, bounds), kind)

    # -- single-flight cache -----------------------------------------------

    async def _cached(self, key, compute, stage: str = "solve"):
        """One entry: lookup, compute-and-fill on a miss; ``(entry, kind)``."""
        found, kind = self._lookup(key, stage)
        if kind == "miss":
            found = self._fill(key, compute)
        return await self._wait(found, kind, stage), kind

    def _lookup(self, key, stage: str):
        """In-flight coalescing, then LRU lookup.

        Returns ``(fill task, "coalesced")``, ``(entry, "hit")`` or
        ``(None, "miss")``; a miss must be followed by :meth:`_fill`
        before the caller yields.  The in-flight check comes first so a
        coalesced duplicate is counted as a hit, not as an LRU miss for an
        entry that is still being computed.
        """
        task = self._inflight.get(key)
        if task is not None:
            self._m_coalesced.inc()
            self._update_hit_ratio()
            return task, "coalesced"
        with reqtrace.span("cache.lookup", stage=stage) as lookup:
            entry = self.cache.get(key)
            lookup.set(outcome="hit" if entry is not None else "miss")
        self._update_hit_ratio()
        return entry, "hit" if entry is not None else "miss"

    def _fill(self, key, compute) -> asyncio.Task:
        """Start the single fill of ``key``: ``await compute()``, then LRU put."""

        async def fill():
            # Shielded by waiters: a fill outlives a requester that timed
            # out, so a timed-out unique problem is still a cache hit on retry.
            entry = await compute()
            self.cache.put(key, entry)
            return entry

        # The fill task is created with the *request* context (create_task
        # copies it), so solver spans parent under this request's root —
        # deliberately outside any short-lived child span.
        task = asyncio.get_running_loop().create_task(fill())
        self._inflight[key] = task

        def cleanup(t: asyncio.Task) -> None:
            self._inflight.pop(key, None)
            if not t.cancelled():
                t.exception()  # mark retrieved even if every waiter left

        task.add_done_callback(cleanup)
        return task

    async def _wait(self, found, kind: str, stage: str):
        """The entry a lookup found: at once on a hit, else its fill's result."""
        if kind == "hit":
            return found
        if kind == "miss":
            return await asyncio.shield(found)
        with reqtrace.span("cache.coalesce", stage=stage):
            return await asyncio.shield(found)

    def _update_hit_ratio(self) -> None:
        hits = self.cache.hits + self._m_coalesced.value
        total = hits + self.cache.misses
        self._m_hit_ratio.set(hits / total if total else 0.0)

    # -- blocking work (pool threads) ----------------------------------------

    def _solve_and_bound_sync(self, req: MapRequest) -> tuple[dict, dict]:
        """Blocking solve, then bound, of one instance: a full miss's one task."""
        instance = self._request_instance(req)
        return self._solve_sync(req, instance), self._bounds_sync(req, instance)

    def _solve_sync(self, req: MapRequest, instance: OBMInstance | None = None) -> dict:
        """Blocking solve; returns the solve entry (``perm`` keeps the pad tiles)."""
        with reqtrace.span("worker.solve", algorithm=req.algorithm) as solve_span:
            if instance is None:
                instance = self._request_instance(req)
            result = ALGORITHMS[req.algorithm](instance)
            solve_span.set(max_apl=result.evaluation.max_apl)
        evaluation = result.evaluation
        return _roundtrip({
            "perm": result.mapping.perm,
            "evaluation": {
                "apls": [
                    None if v != v else float(v)  # NaN (idle app) -> None
                    for v in evaluation.apls[: len(req.problem.apps)]
                ],
                "max_apl": evaluation.max_apl,
                "dev_apl": evaluation.dev_apl,
                "g_apl": evaluation.g_apl,
                "min_max_ratio": evaluation.min_max_ratio,
            },
        })

    def _bounds_sync(self, req: MapRequest, instance: OBMInstance | None = None) -> dict:
        """Blocking bound computation; returns the bound entry.

        The entry is byte-identical to what ``python -m repro bound
        --json`` prints for the same problem — a degraded answer is
        still a *certified* answer.
        """
        if instance is None:
            instance = self._request_instance(req)
        with reqtrace.span("worker.bounds"):
            lb = max_apl_lower_bound(instance)
        return _roundtrip(lb.as_dict())

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
        """Measure a solved entry's mapping; returns the sim entry."""
        from repro.noc.traffic import MappedWorkloadTraffic

        sim = req.sim
        instance = self._request_instance(req)
        mapping = Mapping(entry["perm"])
        if not sim["invariants"]:
            # The batchable common case: share a run_batch call with
            # whatever queues behind the group's running batch.
            traffic = MappedWorkloadTraffic(instance, mapping, seed=sim["seed"])
            result = await self.batcher.submit(
                instance.mesh, traffic, warmup=sim["warmup"], measure=sim["measure"]
            )
        else:
            result = await self.pool.run(
                self._simulate_single_sync, instance, mapping, sim
            )
        payload = measured_payload(result)
        # Per-app containers become lists in app order (None for an app
        # that delivered nothing).
        for keyed, name in (("apl_by_app", "apls"), ("percentiles_by_app", "percentiles")):
            by_app = payload.pop(keyed)
            payload[name] = [by_app.get(str(i)) for i in range(len(req.problem.apps))]
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
        with contextlib.closing(writer):  # on every exit, a cancelled handler's too
            await respond(reader, writer)

    async def respond(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        status, payload, ctype = 500, {"error": "internal error"}, "application/json"
        headers_out: dict = {}
        trace_ctx = None
        try:
            request = await read_request(reader)
            if request is None:
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
            # The request's timeout or a --task-timeout; the hint tells
            # clients when a retry is likely to finish in time (and hit
            # the cache the timed-out fill is still warming).
            retry_after = service.admission.retry_after()
            status, payload = 504, {
                "error": "request timed out", "retry_after": retry_after,
            }
            headers_out["Retry-After"] = str(retry_after)
        except asyncio.IncompleteReadError:
            return
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            logger.exception(
                "unhandled error serving request%s",
                "" if trace_ctx is None else f" [trace={trace_ctx.trace_id}]",
            )
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        service.finish_flight_record(trace_ctx, status, payload)
        with contextlib.suppress(ConnectionError):
            writer.write(response_bytes(status, payload, ctype, headers_out))
            await writer.drain()

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
            # From Python 3.12.1 wait_closed waits for every open connection;
            # a client holding one must not hold up the stop.  asyncio.run
            # cancels the handlers left, and each closes its socket.
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(server.wait_closed(), 1.0)

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
