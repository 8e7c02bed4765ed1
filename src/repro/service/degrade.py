"""The graceful-degradation ladder: trade answer fidelity for survival.

Under overload the daemon can keep answering within its latency contract
by serving progressively cheaper answers instead of queueing full solves
it cannot finish in time.  The ladder, from full fidelity down:

``full``
    The normal path — solve (+ bounds + optional vector-measured APLs).
``bounds_only``
    Skip the solver entirely and return just the certified max-APL lower
    bound (closed-form, orders of magnitude cheaper than a solve).  The
    bounds bytes are identical to a direct ``python -m repro bound
    --json`` run — degraded answers stay *certified* answers.
``cached_nearest``
    No computation at all: serve the most recent cached solve of a
    problem with the same shape (mesh, latency params, algorithm, and
    per-app thread counts), clearly marked stale, with the donor's
    fingerprint in ``meta`` — and schedule a background revalidation of
    the real entry when capacity allows (stale-while-revalidate).
``shed``
    Refuse with 429/503 + ``Retry-After`` (handled by admission).

:class:`DegradeController` picks the level from admission pressure and
the request's remaining deadline vs the EWMA full-solve cost; requests
can opt out (``"degrade": false``) and operators can force a level or
disable the ladder (``--degrade``).  Every degraded answer is counted in
``serve_degraded_total{level}`` and marked in ``meta.degraded``, the
request span, and the flight recorder — a degraded response is never
silently passed off as a full-fidelity one.
"""

from __future__ import annotations

__all__ = [
    "LEVEL_FULL",
    "LEVEL_BOUNDS",
    "LEVEL_STALE",
    "DegradeController",
    "shape_key",
]

LEVEL_FULL = "full"
LEVEL_BOUNDS = "bounds_only"
LEVEL_STALE = "cached_nearest"

#: Operator modes: "off" never degrades, "auto" follows load/deadline,
#: a level name forces that level for every degradable request.
MODES = ("off", "auto", LEVEL_BOUNDS, LEVEL_STALE)


class DegradeController:
    """Chooses a ladder level per request from load and deadline signals."""

    def __init__(
        self,
        mode: str = "auto",
        *,
        bounds_pressure: float = 0.5,
        stale_pressure: float = 0.85,
        deadline_margin: float = 1.5,
        registry=None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown degrade mode {mode!r}; expected one of {MODES}")
        if not 0.0 < bounds_pressure <= stale_pressure:
            raise ValueError(
                "need 0 < bounds_pressure <= stale_pressure, got "
                f"{bounds_pressure} / {stale_pressure}"
            )
        self.mode = mode
        self.bounds_pressure = bounds_pressure
        self.stale_pressure = stale_pressure
        self.deadline_margin = deadline_margin
        self._registry = registry

    def level_for(
        self,
        *,
        pressure: float,
        remaining: float | None = None,
        estimate: float | None = None,
        allow: bool = True,
    ) -> str:
        """The ladder level for one request (``shed`` never comes from here).

        ``pressure`` is admission-pipe occupancy in [0, 1]; ``remaining``
        the request's deadline budget; ``estimate`` the EWMA cost of a
        full solve.  ``allow=False`` (client opted out) always yields
        ``full`` — such a request is either served fully or shed.
        """
        if self.mode == "off" or not allow:
            return LEVEL_FULL
        if self.mode != "auto":
            return self.mode
        level = LEVEL_FULL
        if (
            remaining is not None
            and estimate is not None
            and remaining < estimate * self.deadline_margin
        ):
            # The full answer cannot land inside the deadline: degrading
            # now beats accepting work that will time out on a worker.
            level = LEVEL_BOUNDS
        if pressure >= self.bounds_pressure:
            level = LEVEL_BOUNDS
        if pressure >= self.stale_pressure:
            level = LEVEL_STALE
        return level

    def record(self, level: str) -> None:
        """Count one served degraded answer (no-op for ``full``)."""
        if level != LEVEL_FULL and self._registry is not None:
            self._registry.counter(
                "serve_degraded_total",
                "requests answered below full fidelity, by ladder level",
                level=level,
            ).inc()


def shape_key(problem, algorithm: str, want_bounds: bool) -> tuple:
    """The shape of a canonical problem: the donor key for stale serving.

    A shape is everything a cached permutation needs to be legally
    translatable into the requester's labels: mesh dimensions, latency
    params, algorithm, bounds flag, and the canonical per-app thread
    counts.  The service keeps the freshest solve of each shape in a
    bounded :class:`~repro.service.cache.LRUCache`.
    """
    return (
        problem.rows,
        problem.cols,
        problem.params,
        algorithm,
        bool(want_bounds),
        tuple(len(app) for app in problem.apps),
    )
