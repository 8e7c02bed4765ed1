"""The graceful-degradation ladder: trade answer fidelity for survival.

Under overload the daemon can keep answering within its latency contract
by serving a cheaper answer instead of queueing full solves it cannot
finish in time.  Every answer, degraded or not, is about the request's
own instance.  The ladder has two levels:

``full``
    The normal path — solve (+ bounds + optional vector-measured APLs).
``bounds_only``
    Skip the solver and return just the certified max-APL lower bound.
    No permutation search runs, but the bound is not always cheaper
    than the solve it replaces: on a 16x16 eight-app problem it costs
    about four times an SSS solve.  The bounds bytes are identical to a
    direct ``python -m repro bound --json`` run — degraded answers stay
    *certified* answers.  A request that declined the bound
    (``"bounds": false``) is never degraded to it.

Admission's bounded queue is the only shed (429/503 + ``Retry-After``).

:class:`DegradeController` picks the level from admission pressure and
the request's remaining deadline vs the EWMA full-solve cost; requests
can opt out (``"degrade": false``) and operators can force a level or
disable the ladder (``--degrade``).  Every degraded answer is counted in
``serve_degraded_total{level}`` and marked in ``meta.degraded``, the
request span, and the flight recorder — a degraded response is never
silently passed off as a full-fidelity one.
"""

from __future__ import annotations

__all__ = ["LEVEL_FULL", "LEVEL_BOUNDS", "DegradeController"]

LEVEL_FULL = "full"
LEVEL_BOUNDS = "bounds_only"

#: Operator modes: "off" never degrades, "auto" follows load/deadline,
#: a level name forces that level for every degradable request.
MODES = ("off", "auto", LEVEL_BOUNDS)

#: Admission pressure at which ``auto`` answers ``bounds_only``.
BOUNDS_PRESSURE = 0.5
#: ``auto`` degrades when the deadline left is under this many EWMA solves.
DEADLINE_MARGIN = 1.5


class DegradeController:
    """Chooses a ladder level per request from load and deadline signals."""

    def __init__(self, mode: str = "auto", *, registry=None) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown degrade mode {mode!r}; expected one of {MODES}")
        self.mode = mode
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
        full solve.  ``allow=False`` (client opted out, or declined the
        bound) always yields ``full`` — such a request is either served
        fully or shed.
        """
        if self.mode == "off" or not allow:
            return LEVEL_FULL
        if self.mode != "auto":
            return self.mode
        if pressure >= BOUNDS_PRESSURE:
            return LEVEL_BOUNDS
        if (
            remaining is not None
            and estimate is not None
            and remaining < estimate * DEADLINE_MARGIN
        ):
            # The full answer cannot land inside the deadline: degrading
            # now beats accepting work that will time out on a worker.
            return LEVEL_BOUNDS
        return LEVEL_FULL

    def record(self, level: str) -> None:
        """Count one served degraded answer (no-op for ``full``)."""
        if level != LEVEL_FULL and self._registry is not None:
            self._registry.counter(
                "serve_degraded_total",
                "requests answered below full fidelity, by ladder level",
                level=level,
            ).inc()
