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
    Liveness plus the supervision :class:`RunReport`, cache counters,
    admission state, and circuit-breaker snapshot.
``GET /readyz``
    Readiness: 503 until kernel warmup finishes and while draining.
    The CI smoke job polls this before sending work.
``POST /shutdown``
    Graceful drain: stop admitting, flush in-flight work, write the
    deterministic final flight-recorder dump, then stop.

Overload behaviour
------------------
Admission control (:mod:`repro.service.admission`) bounds concurrency
and queueing; excess work is shed with 429/503 + ``Retry-After``.  Under
pressure or an infeasible deadline the degradation ladder
(:mod:`repro.service.degrade`) trades fidelity for survival:
full → bounds-only → cached-nearest → shed.  A per-service circuit
breaker routes this service's solves around wedged C solver kernels to
the bit-identical NumPy fallback.

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
import json
import logging
import time

from repro.core.bounds import max_apl_lower_bound
from repro.core import permkernels
from repro.core.problem import Mapping, OBMInstance
from repro.core.registry import ALGORITHMS
from repro.core.workload import Application, Workload
from repro.experiments.resilience import (
    FailureBudgetExceeded,
    RunReport,
    config_fingerprint,
    json_safe,
)
from repro.obs import reqtrace
from repro.obs.metrics import MetricsRegistry, SECONDS_BUCKETS
from repro.obs.reqtrace import SpanTracer
from repro.service.admission import (
    AdmissionController,
    BreakerBoard,
    Deadline,
    DeadlineExpired,
    EwmaEstimate,
    ShedError,
    deadline_scope,
    detach_deadline,
)
from repro.service.batcher import SimulationBatcher
from repro.service.cache import LRUCache, ModelMemo
from repro.service.canonical import CanonicalRequest, canonicalize
from repro.service.degrade import (
    LEVEL_BOUNDS,
    LEVEL_FULL,
    LEVEL_STALE,
    DegradeController,
    NearestIndex,
)
from repro.service.flightrec import FlightRecorder
from repro.service.workers import WorkerPool

__all__ = ["MappingService", "serve", "run_service"]

logger = logging.getLogger("repro.serve")

#: Simulation knobs accepted under the request's ``sim`` key.
_SIM_DEFAULTS = {
    "warmup": 1_000,
    "measure": 5_000,
    "seed": 0,
    "engine": "vector",
    "invariants": False,
}


def _roundtrip(doc: dict) -> dict:
    """Canonical JSON round-trip: one representation for fresh and cached."""
    return json.loads(json.dumps(json_safe(doc), sort_keys=True, separators=(",", ":")))


def _solve_key(canon: CanonicalRequest, algorithm: str, want_bounds: bool) -> str:
    """Cache key of a solve entry: the canonical problem plus solve knobs."""
    return config_fingerprint(
        "serve.solve",
        problem=canon.problem.fingerprint,
        algorithm=algorithm,
        bounds=want_bounds,
    )


def _entry_result(canon: CanonicalRequest, app_names, entry: dict) -> dict:
    """The ``result`` document of a canonical solve entry, in request labels."""
    return {
        "algorithm": entry["algorithm"],
        "apps": app_names,
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


def measured_payload(result) -> dict:
    """JSON-safe measured section of a :class:`SimulationResult`.

    Per-app containers are keyed by app index (as strings after the JSON
    round-trip); the engine triple surfaces any auto-fallback — the
    reason string is the exact one the simulator logged.
    """
    stats = result.stats
    apl_by_app = stats.apl_by_app()
    return {
        "engine": result.engine,
        "engine_requested": result.engine_requested,
        "engine_fallback": result.engine_fallback,
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


class RequestError(ValueError):
    """A malformed request (answered with HTTP 400)."""


class MappingService:
    """The problem-in/result-out core, independent of the HTTP layer."""

    def __init__(
        self,
        *,
        cache_size: int = 256,
        model_memo_size: int = 64,
        batch_window: float = 0.005,
        max_batch: int = 32,
        workers: int = 2,
        task_timeout: float | None = None,
        retries: int | None = None,
        failure_budget: int | None = None,
        batch_runner=None,
        trace: bool = False,
        trace_clock: str = "wall",
        trace_buffer: int = 65_536,
        flight_recorder: int = 64,
        max_inflight: int | None = None,
        max_queue: int = 128,
        default_deadline: float | None = None,
        degrade: str = "auto",
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        drain_timeout: float = 10.0,
        flight_out: str | None = None,
    ) -> None:
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
        self.flightrec = FlightRecorder(flight_recorder) if trace else None
        self.cache = LRUCache(cache_size, registry=self.registry)
        self.models = ModelMemo(model_memo_size, registry=self.registry)
        self.pool = WorkerPool(
            workers,
            timeout=task_timeout,
            retries=retries,
            failure_budget=failure_budget,
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
        self.nearest = NearestIndex(capacity=cache_size)
        self.breakers = BreakerBoard(
            threshold=breaker_threshold,
            reset_after=breaker_reset,
            registry=self.registry,
        )
        # The solver-kernel backend this service's "cc" breaker guards
        # ("numpy" when the C kernels cannot load: nothing to guard).
        self._kernel_backend = permkernels.resolve_backend()
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
        if self.pool.budget_exhausted:
            return "pool_unhealthy", 503
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
        dump = json.dumps(json_safe(self.debug_requests()), sort_keys=True, indent=2)
        with open(self.flight_out, "w") as fh:
            fh.write(dump + "\n")
        logger.info("wrote final flight record to %s", self.flight_out)

    # -- request parsing ---------------------------------------------------

    def _parse(self, payload: dict):
        """Parse defensively: malformed shapes become 400s, never 500s."""
        try:
            return self._parse_spec(payload)
        except RequestError:
            raise
        except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
            raise RequestError(
                f"malformed request: {type(exc).__name__}: {exc}"
            ) from exc

    def _parse_spec(self, payload: dict):
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
        want_bounds = bool(spec.get("bounds", True))
        simulate = bool(spec.get("simulate", False))
        sim = dict(_SIM_DEFAULTS)
        sim_doc = spec.get("sim") or {}
        unknown = set(sim_doc) - set(_SIM_DEFAULTS)
        if unknown:
            raise RequestError(f"unknown sim options: {sorted(unknown)}")
        sim.update(sim_doc)
        sim["warmup"] = int(sim["warmup"])
        sim["measure"] = int(sim["measure"])
        sim["seed"] = int(sim["seed"])
        sim["invariants"] = bool(sim["invariants"])
        sim["engine"] = str(sim["engine"])
        if sim["engine"] not in ("fastpath", "vector"):
            raise RequestError(f"unknown sim engine {sim['engine']!r}")
        if sim["warmup"] < 0 or sim["measure"] <= 0:
            raise RequestError("sim.warmup must be >= 0 and sim.measure > 0")
        timeout = spec.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise RequestError("timeout must be positive")
        allow_degrade = spec.get("degrade", True)
        if not isinstance(allow_degrade, bool):
            raise RequestError("'degrade' must be a boolean")

        try:
            canon = canonicalize(spec)
        except ValueError as exc:
            raise RequestError(str(exc)) from exc
        app_names = [
            str(a.get("name", f"app{i}")) for i, a in enumerate(spec["apps"])
        ]
        return (
            canon, spec["apps"], app_names, algorithm, want_bounds,
            simulate, sim, timeout, allow_degrade,
        )

    def _request_instance(self, canon: CanonicalRequest, apps_doc) -> OBMInstance:
        """The instance in *request* labels, on the memoized latency model.

        Rates are used verbatim (NOT quantized): quantization exists only
        to decide cache identity.  Computation always runs on the filling
        requester's exact numbers, so its response is bit-identical to
        solving the same instance directly.
        """
        problem = canon.problem
        model = self.models.get(problem.rows, problem.cols, problem.params)
        apps = tuple(
            Application(f"app{i}", a["cache_rates"], a["mem_rates"])
            for i, a in enumerate(apps_doc)
        )
        return OBMInstance(model, Workload(apps, name="request"))

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

    # -- solve path --------------------------------------------------------

    def _run_solve(self, canon: CanonicalRequest, apps_doc, algorithm: str, want_bounds: bool):
        """:meth:`_solve_sync` on a pool thread, guarded by the ``cc`` breaker.

        Calling :meth:`CircuitBreaker.blocked` here is what moves an open
        breaker to half-open after its cooldown, so probes hit the C
        kernels again.  While it is open, this service's solves run on
        the NumPy fallback and are *not* charged to the breaker; other
        services in the process keep their own backend.
        """
        breaker = None
        fallback = None
        if self._kernel_backend == "cc":
            breaker = self.breakers.get("cc")
            if breaker.blocked():
                breaker, fallback = None, "numpy"
        return self.pool.run(
            self._solve_sync, canon, apps_doc, algorithm, want_bounds, fallback,
            breaker=breaker,
        )

    def _solve_sync(
        self,
        canon: CanonicalRequest,
        apps_doc,
        algorithm: str,
        want_bounds: bool,
        backend: str | None = None,
    ) -> dict:
        """Blocking solve in request labels; returns the canonical entry.

        ``backend`` forces the solver kernels for this call only (the
        pin is a context variable, scoped to this worker thread).
        """
        if backend is not None:
            with permkernels.force_backend(backend):
                return self._solve_sync(canon, apps_doc, algorithm, want_bounds)
        t0 = time.perf_counter()
        with reqtrace.span("worker.solve", algorithm=algorithm) as solve_span:
            instance = self._request_instance(canon, apps_doc)
            result = ALGORITHMS[algorithm](instance)
            solve_span.set(max_apl=result.evaluation.max_apl)
        perm = result.mapping.perm
        n_real = canon.problem.n_threads
        apls = [
            None if v != v else float(v)  # NaN (idle app) -> None
            for v in result.evaluation.apls[: canon.n_apps]
        ]
        entry = {
            "algorithm": algorithm,
            "perm": canon.perm_to_canonical(perm),
            "pad_tiles": [int(t) for t in perm[n_real:]],
            "apls": canon.by_app_to_canonical(apls),
            "max_apl": result.evaluation.max_apl,
            "dev_apl": result.evaluation.dev_apl,
            "g_apl": result.evaluation.g_apl,
            "min_max_ratio": result.evaluation.min_max_ratio,
            "bounds": None,
        }
        if want_bounds:
            with reqtrace.span("worker.bounds"):
                lb = max_apl_lower_bound(instance)
            gap = lb.gap(result.evaluation.max_apl)
            entry["bounds"] = {
                "value": lb.value,
                "mean_bound": lb.mean_bound,
                "per_app_bound": lb.per_app_bound,
                "gap": gap,
            }
            # Achieved-vs-certified gap distribution, per algorithm.
            reqtrace.observe(
                "solver_bound_gap",
                gap,
                bounds=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
                help="relative gap between achieved max-APL and certified lower bound",
                algorithm=algorithm,
            )
        self.solve_cost.observe(time.perf_counter() - t0)
        return _roundtrip(entry)

    def _bounds_sync(self, canon: CanonicalRequest, apps_doc) -> dict:
        """Blocking bounds-only computation (no solve, no permutation).

        The returned document is byte-identical to what
        ``python -m repro bound --json`` prints for the same problem —
        a degraded answer is still a *certified* answer.
        """
        with reqtrace.span("worker.bounds"):
            instance = self._request_instance(canon, apps_doc)
            lb = max_apl_lower_bound(instance)
        return _roundtrip(
            {
                "value": lb.value,
                "mean_bound": lb.mean_bound,
                "per_app_bound": lb.per_app_bound,
            }
        )

    def _mapping_for(self, canon: CanonicalRequest, entry: dict) -> Mapping:
        """Full request-label permutation from a canonical entry."""
        perm = canon.perm_from_canonical(entry["perm"]) + [
            int(t) for t in entry["pad_tiles"]
        ]
        return Mapping(perm)

    # -- simulate path -----------------------------------------------------

    def _simulate_single_sync(self, instance, mapping, sim: dict):
        from repro.noc.simulator import NoCSimulator
        from repro.noc.traffic import MappedWorkloadTraffic

        with reqtrace.span(
            "worker.simulate", engine=sim["engine"], measure=sim["measure"]
        ):
            traffic = MappedWorkloadTraffic(instance, mapping, seed=sim["seed"])
            simulator = NoCSimulator(
                instance.mesh,
                traffic,
                invariants=sim["invariants"] or None,
                engine=sim["engine"],
            )
            return simulator.run(warmup=sim["warmup"], measure=sim["measure"])

    async def _simulate(self, canon: CanonicalRequest, apps_doc, entry: dict, sim: dict) -> dict:
        from repro.noc.traffic import MappedWorkloadTraffic

        instance = self._request_instance(canon, apps_doc)
        mapping = self._mapping_for(canon, entry)
        if sim["engine"] == "vector" and not sim["invariants"]:
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
        by_app = payload.pop("apl_by_app")
        pct = payload.pop("percentiles_by_app")
        payload["apls"] = canon.by_app_to_canonical(
            [by_app.get(str(i)) for i in range(canon.n_apps)]
        )
        payload["percentiles"] = canon.by_app_to_canonical(
            [pct.get(str(i)) for i in range(canon.n_apps)]
        )
        payload["warmup"] = sim["warmup"]
        payload["measure"] = sim["measure"]
        payload["seed"] = sim["seed"]
        return _roundtrip(payload)

    # -- the endpoint ------------------------------------------------------

    async def _respond_full(
        self, canon, apps_doc, app_names, algorithm, want_bounds, simulate, sim
    ) -> dict:
        """The full-fidelity path — byte-identical to the pre-ladder daemon."""
        problem_fp = canon.problem.fingerprint
        solve_key = _solve_key(canon, algorithm, want_bounds)
        entry, solve_kind = await self._cached(
            solve_key,
            lambda: self._run_solve(canon, apps_doc, algorithm, want_bounds),
        )
        self._offer_donor(canon, algorithm, want_bounds, solve_key)
        result = _entry_result(canon, app_names, entry)
        meta = {
            "fingerprint": problem_fp,
            "cache": solve_kind,
        }
        reqtrace.annotate(cache=solve_kind)
        if simulate:
            sim_key = config_fingerprint(
                "serve.sim", problem=problem_fp, algorithm=algorithm, sim=sim
            )
            mentry, sim_kind = await self._cached(
                sim_key,
                lambda: self._simulate(canon, apps_doc, entry, sim),
                stage="sim",
            )
            measured = {
                k: v
                for k, v in mentry.items()
                if k not in ("apls", "percentiles")
            }
            measured["apls"] = canon.by_app_from_canonical(mentry["apls"])
            measured["percentiles"] = canon.by_app_from_canonical(
                mentry["percentiles"]
            )
            result["measured"] = measured
            meta["sim_cache"] = sim_kind
        return {"result": result, "meta": meta}

    async def _respond_bounds(self, canon, apps_doc, app_names, algorithm) -> dict:
        """Degraded rung 1: the certified bound alone, no solve."""
        problem_fp = canon.problem.fingerprint
        bounds_key = config_fingerprint("serve.bounds", problem=problem_fp)
        entry, kind = await self._cached(
            bounds_key,
            lambda: self.pool.run(self._bounds_sync, canon, apps_doc),
            stage="bounds",
        )
        reqtrace.annotate(cache=kind)
        result = {
            "algorithm": algorithm,
            "apps": app_names,
            "perm": None,
            "evaluation": None,
            "bounds": entry,
            "degraded": LEVEL_BOUNDS,
        }
        meta = {"fingerprint": problem_fp, "cache": kind, "degraded": LEVEL_BOUNDS}
        return {"result": result, "meta": meta}

    async def _respond_stale(
        self, canon, apps_doc, app_names, algorithm, want_bounds
    ) -> tuple[dict, str]:
        """Degraded rung 2: the freshest same-shape cached solve, marked stale.

        Falls back to ``bounds_only`` when no donor exists; returns
        ``(document, actual_level)``.  A served stale answer schedules a
        background revalidation of the real entry (stale-while-revalidate)
        when capacity allows.
        """
        problem_fp = canon.problem.fingerprint
        shape = NearestIndex.shape_key(canon.problem, algorithm, want_bounds)
        donor = self.nearest.get(shape)
        entry = donor_fp = None
        if donor is not None:
            donor_key, donor_fp = donor
            entry = self.cache.get(donor_key)
        if entry is None:
            doc = await self._respond_bounds(canon, apps_doc, app_names, algorithm)
            return doc, LEVEL_BOUNDS
        result = _entry_result(canon, app_names, entry)
        result["degraded"] = LEVEL_STALE
        meta = {
            "fingerprint": problem_fp,
            "cache": "stale",
            "degraded": LEVEL_STALE,
            "stale_fingerprint": donor_fp,
        }
        reqtrace.annotate(cache="stale")
        self._revalidate(canon, apps_doc, algorithm, want_bounds)
        return {"result": result, "meta": meta}, LEVEL_STALE

    def _offer_donor(self, canon, algorithm, want_bounds, solve_key: str) -> None:
        """Any solved entry (fresh or cached) donates to same-shape stale serving."""
        self.nearest.put(
            NearestIndex.shape_key(canon.problem, algorithm, want_bounds),
            solve_key,
            canon.problem.fingerprint,
        )

    def _revalidate(self, canon, apps_doc, algorithm, want_bounds) -> None:
        """Fire-and-forget fill of the real entry behind a stale answer."""
        solve_key = _solve_key(canon, algorithm, want_bounds)
        if solve_key in self._inflight or self.cache.get(solve_key) is not None:
            return
        if self.admission.inflight >= self.admission.max_inflight:
            # Saturated: a revalidation would steal a worker from live
            # traffic.  The next stale hit retries when pressure drops.
            return
        self.registry.counter(
            "serve_revalidate_total", "background fills behind stale answers"
        ).inc()

        async def refill() -> None:
            detach_deadline()
            try:
                await self._cached(
                    solve_key,
                    lambda: self._run_solve(canon, apps_doc, algorithm, want_bounds),
                )
                self._offer_donor(canon, algorithm, want_bounds, solve_key)
            except Exception:  # noqa: BLE001 - best-effort background work
                logger.debug("stale revalidation failed", exc_info=True)

        asyncio.get_running_loop().create_task(refill())

    async def map_request(self, payload: dict) -> dict:
        """Serve one ``POST /map`` body; returns the response document."""
        t0 = time.perf_counter()
        with reqtrace.span("canonicalize"):
            parsed = self._parse(payload)
        (
            canon, apps_doc, app_names, algorithm, want_bounds,
            simulate, sim, timeout, allow_degrade,
        ) = parsed
        reqtrace.annotate(
            fingerprint=canon.problem.fingerprint,
            algorithm=algorithm,
            simulate=simulate,
        )
        budget = timeout if timeout is not None else self.default_deadline
        deadline = None if budget is None else Deadline(budget)

        async def admitted() -> dict:
            async with self.admission.admit():
                level = self.degrade.level_for(
                    pressure=self.admission.pressure,
                    remaining=None if deadline is None else deadline.remaining(),
                    estimate=self.solve_cost.value,
                    allow=allow_degrade,
                )
                if level == LEVEL_STALE:
                    doc, level = await self._respond_stale(
                        canon, apps_doc, app_names, algorithm, want_bounds
                    )
                elif level == LEVEL_BOUNDS:
                    doc = await self._respond_bounds(
                        canon, apps_doc, app_names, algorithm
                    )
                else:
                    doc = await self._respond_full(
                        canon, apps_doc, app_names, algorithm,
                        want_bounds, simulate, sim,
                    )
                self.degrade.record(level)
                if level != LEVEL_FULL:
                    reqtrace.annotate(degraded=level)
                if self.breakers.trips:
                    reqtrace.annotate(breaker_trips=self.breakers.trips)
                return doc

        try:
            with deadline_scope(deadline):
                if deadline is not None:
                    try:
                        doc = await asyncio.wait_for(
                            admitted(), timeout=deadline.remaining()
                        )
                    except DeadlineExpired:
                        raise  # already counted at the stage that refused
                    except asyncio.TimeoutError:
                        self.registry.counter(
                            "serve_deadline_expired_total",
                            "requests whose deadline expired before a "
                            "resource was claimed",
                            at="request",
                        ).inc()
                        raise
                else:
                    doc = await admitted()
        finally:
            self._m_latency.observe(time.perf_counter() - t0)
        self._m_requests.inc()
        trace_id = reqtrace.current_trace_id()
        if trace_id is not None:
            logger.debug(
                "map served [trace=%d cache=%s algorithm=%s]",
                trace_id,
                doc["meta"]["cache"],
                algorithm,
            )
        return doc

    # -- flight recorder ---------------------------------------------------

    def finish_flight_record(self, ctx, status: int, payload) -> None:
        """File one completed request into the flight recorder.

        Called by the HTTP layer after the response status is settled;
        ``ctx`` is the request's closed :class:`TraceContext`.  Any 5xx
        also logs the full record so post-mortems survive ring eviction.
        """
        if self.flightrec is None or ctx is None:
            return
        attrs = ctx.root_attrs
        record = {
            "trace_id": ctx.trace_id,
            "status": status,
            "fingerprint": attrs.get("fingerprint"),
            "algorithm": attrs.get("algorithm"),
            "cache": attrs.get("cache"),
            "batch_occupancy": attrs.get("batch_occupancy"),
            "degraded": attrs.get("degraded"),
            "breaker_trips": attrs.get("breaker_trips"),
            "retries": ctx.notes.get("retries", 0),
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

    def debug_requests(self) -> dict:
        """The ``GET /debug/requests`` document (empty shell when off)."""
        if self.flightrec is None:
            from repro.service.flightrec import FLIGHT_SCHEMA, FLIGHT_SCHEMA_VERSION

            return {
                "schema": FLIGHT_SCHEMA,
                "version": FLIGHT_SCHEMA_VERSION,
                "enabled": False,
                "capacity": 0,
                "recorded": 0,
                "dropped": 0,
                "requests": [],
            }
        return self.flightrec.dump()

    # -- introspection -----------------------------------------------------

    async def warm_kernels(self) -> dict:
        """Pre-build the solver kernel backend on a pool thread.

        Called once at daemon startup so the first cache-miss request
        never pays the one-off C kernel build.  A failure is logged and
        swallowed — the solvers fall back to the batched NumPy path on
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
            "status": "degraded"
            if (
                self.pool.failure_budget is not None
                and self.report.cells_failed > 0
            )
            else "ok",
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
            "breakers": self.breakers.snapshot(),
            "degrade_mode": self.degrade.mode,
            "ready": self.ready,
            "draining": self.draining,
            "report": self.report.as_dict(),
        }


# ----------------------------------------------------------------------
# HTTP layer (stdlib-only: asyncio streams + hand-rolled HTTP/1.1)
# ----------------------------------------------------------------------

_MAX_BODY = 8 * 1024 * 1024
_MAX_HEADERS = 256


async def _read_request(reader: asyncio.StreamReader):
    try:
        request_line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise RequestError("request line too long") from None
    if not request_line:
        return None
    try:
        method, path, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise RequestError("malformed request line") from None
    headers = {}
    for _ in range(_MAX_HEADERS):
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise RequestError("header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise RequestError("malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise RequestError(f"more than {_MAX_HEADERS} headers")
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise RequestError(f"invalid content-length {raw_length!r}") from None
    if length < 0:
        raise RequestError("negative content-length")
    if length > _MAX_BODY:
        raise RequestError(f"body exceeds {_MAX_BODY} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


def _response_bytes(
    status: int, payload, content_type: str, extra_headers: dict | None = None
) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               429: "Too Many Requests", 500: "Internal Server Error",
               503: "Service Unavailable", 504: "Gateway Timeout"}
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    else:
        body = str(payload).encode()
    lines = [
        f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def serve(
    service: MappingService,
    host: str = "127.0.0.1",
    port: int = 0,
):
    """Start the HTTP endpoint; returns ``(server, bound_port, stop_event)``."""
    from repro.obs.exporters import render_prometheus

    stop = asyncio.Event()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        status, payload, ctype = 500, {"error": "internal error"}, "application/json"
        headers_out: dict = {}
        trace_ctx = None
        try:
            request = await _read_request(reader)
            if request is None:
                writer.close()
                return
            method, path, _headers, body = request
            route = (method, path.split("?", 1)[0])
            if route == ("POST", "/map"):
                doc = json.loads(body.decode() or "null")
                if service.tracer is not None:
                    with service.tracer.trace("serve.request") as trace_ctx:
                        status, payload = 200, await service.map_request(doc)
                else:
                    status, payload = 200, await service.map_request(doc)
            elif route == ("GET", "/metrics"):
                # The tracer lock serializes against worker threads that
                # record solver metrics mid-span.
                if service.tracer is not None:
                    with service.tracer.lock:
                        text = render_prometheus(service.registry)
                else:
                    text = render_prometheus(service.registry)
                status, payload, ctype = 200, text, "text/plain; version=0.0.4"
            elif route == ("GET", "/healthz"):
                status, payload = 200, service.health()
            elif route == ("GET", "/readyz"):
                status, payload = service.readiness()
            elif route == ("GET", "/debug/requests"):
                status, payload = 200, json_safe(service.debug_requests())
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
        except FailureBudgetExceeded as exc:
            status, payload = 503, {"error": str(exc)}
            headers_out["Retry-After"] = str(service.admission.retry_after())
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
            writer.write(_response_bytes(status, payload, ctype, headers_out))
            await writer.drain()
            writer.close()
        except ConnectionError:
            pass

    server = await asyncio.start_server(handle, host, port)
    bound_port = server.sockets[0].getsockname()[1]
    logger.info("serving on http://%s:%d", host, bound_port)
    return server, bound_port, stop


async def _serve_until_stopped(service: MappingService, host: str, port: int, ready=None) -> None:
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
    try:
        asyncio.run(_serve_until_stopped(service, host, port, ready))
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
