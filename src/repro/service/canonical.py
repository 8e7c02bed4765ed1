"""Canonicalization of mapping-problem instances for the result cache.

Two requests that pose the *same mathematical problem* must hit the same
cache entry even when they spell it differently: applications listed in
another order, threads permuted inside an application, names changed,
rates written with float noise below any physical meaning.  This module
maps a problem spec (the :meth:`~repro.core.problem.OBMInstance.spec`
shape) to a :class:`CanonicalProblem` — a frozen, name-free normal form —
plus the relabeling maps needed to translate results between the
requester's labels and canonical labels.

Normalization rules (GUIDE §14 documents them for clients):

* **rate quantization** — every rate is rounded to
  :data:`RATE_DECIMALS` decimal places (and ``-0.0`` collapsed to
  ``0.0``).  Differences below the quantum are noise and share a cache
  entry; differences at or above it always produce distinct
  fingerprints.
* **thread sorting** — threads within an application are ordered by
  descending ``(cache_rate, mem_rate)``.  A thread is nothing but its
  rate pair, so this is a pure relabeling.
* **app ordering** — applications are ordered by ``(n_threads,
  rate-tuple)``; names are dropped entirely (they never affect the
  math).

The fingerprint hashes the canonical payload through
:func:`~repro.experiments.resilience.config_fingerprint` (JSON-canonical
encoding, sorted keys, version-tagged), the one scheme every serve cache
key uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.latency import LatencyParams
from repro.experiments.resilience import config_fingerprint

__all__ = [
    "RATE_DECIMALS",
    "CanonicalProblem",
    "CanonicalRequest",
    "canonicalize",
    "quantize_rate",
]

#: Decimal places every rate is rounded to before fingerprinting/solving.
RATE_DECIMALS = 9

#: Latency-parameter order inside the canonical payload.
_PARAM_FIELDS = ("td_r", "td_w", "td_q", "td_s")


def quantize_rate(value: float) -> float:
    """Round one rate to the canonical quantum (``-0.0`` becomes ``0.0``)."""
    return round(float(value), RATE_DECIMALS) + 0.0


@dataclass(frozen=True)
class CanonicalProblem:
    """The name-free normal form of one OBM problem.

    ``apps[c]`` is a tuple of ``(cache_rate, mem_rate)`` pairs in
    canonical thread order; apps themselves are in canonical app order.
    Equality/hash of this dataclass *is* problem equivalence up to
    relabeling and sub-quantum rate noise.
    """

    rows: int
    cols: int
    params: tuple[float, float, float, float]
    apps: tuple[tuple[tuple[float, float], ...], ...]

    def payload(self) -> dict:
        """JSON-safe canonical encoding (what gets fingerprinted)."""
        return {
            "mesh": [self.rows, self.cols],
            "params": list(self.params),
            "apps": [[list(pair) for pair in app] for app in self.apps],
        }

    @cached_property
    def fingerprint(self) -> str:
        """:func:`config_fingerprint` of the canonical payload."""
        return config_fingerprint("serve.problem", problem=self.payload())

    @property
    def n_threads(self) -> int:
        return sum(len(app) for app in self.apps)

    def as_spec(self) -> dict:
        """A :meth:`~repro.core.problem.OBMInstance.spec`-shaped document.

        App names are generated (``app0``, ``app1``, ...) — canonicalizing
        this spec again yields the identical problem (idempotence, pinned
        by the property suite).
        """
        return {
            "mesh": {"rows": self.rows, "cols": self.cols},
            "params": dict(zip(_PARAM_FIELDS, self.params)),
            "apps": [
                {
                    "name": f"app{c}",
                    "cache_rates": [pair[0] for pair in app],
                    "mem_rates": [pair[1] for pair in app],
                }
                for c, app in enumerate(self.apps)
            ],
        }


@dataclass(frozen=True)
class CanonicalRequest:
    """A canonicalized problem plus the maps back to the request's labels.

    ``app_order[c]`` is the original index of canonical app ``c``;
    ``thread_orders[c][p]`` is the original within-app thread index of
    canonical thread position ``p`` of canonical app ``c``.
    """

    problem: CanonicalProblem
    app_order: tuple[int, ...]
    thread_orders: tuple[tuple[int, ...], ...]

    @property
    def n_apps(self) -> int:
        return len(self.app_order)

    @cached_property
    def app_position(self) -> tuple[int, ...]:
        """Inverse of ``app_order``: original app -> canonical position."""
        pos = [0] * len(self.app_order)
        for c, orig in enumerate(self.app_order):
            pos[orig] = c
        return tuple(pos)

    @cached_property
    def orig_to_canon(self) -> np.ndarray:
        """Original global thread index -> canonical global thread index."""
        n = self.problem.n_threads
        sizes = [len(t) for t in self.thread_orders]
        canon_offsets = np.concatenate([[0], np.cumsum(sizes)])
        orig_sizes = [sizes[c] for c in self.app_position]
        orig_offsets = np.concatenate([[0], np.cumsum(orig_sizes)])
        out = np.empty(n, dtype=np.int64)
        for c, orig_app in enumerate(self.app_order):
            base = int(orig_offsets[orig_app])
            for p, j in enumerate(self.thread_orders[c]):
                out[base + j] = canon_offsets[c] + p
        return out

    # -- result translation ------------------------------------------------

    def perm_to_canonical(self, perm: np.ndarray) -> list[int]:
        """Real-thread tiles of a request-label permutation, canonically ordered."""
        perm = np.asarray(perm)
        n = self.problem.n_threads
        canon = np.empty(n, dtype=np.int64)
        canon[self.orig_to_canon] = perm[:n]
        return [int(t) for t in canon]

    def perm_from_canonical(self, canon_perm) -> list[int]:
        """Canonical real-thread tiles translated to this request's labels."""
        canon = np.asarray(canon_perm, dtype=np.int64)
        return [int(t) for t in canon[self.orig_to_canon]]

    def by_app_to_canonical(self, values) -> list:
        """Per-app values in request order -> canonical order."""
        return [values[self.app_order[c]] for c in range(self.n_apps)]

    def by_app_from_canonical(self, values) -> list:
        """Per-app values in canonical order -> request order."""
        return [values[self.app_position[i]] for i in range(self.n_apps)]


def _canonical_app(cache_rates, mem_rates) -> tuple[tuple[tuple[float, float], ...], tuple[int, ...]]:
    """One app's canonical rate tuple plus its thread relabel map."""
    pairs = [
        (quantize_rate(c), quantize_rate(m))
        for c, m in zip(cache_rates, mem_rates)
    ]
    order = sorted(range(len(pairs)), key=lambda j: (-pairs[j][0], -pairs[j][1], j))
    return tuple(pairs[j] for j in order), tuple(order)


def canonicalize(spec: dict) -> CanonicalRequest:
    """Canonicalize a problem spec (:meth:`OBMInstance.spec` shape).

    Raises ``ValueError`` on malformed specs (negative/non-finite rates,
    more threads than tiles, empty app lists) so the service can answer
    400 instead of crashing a worker.
    """
    mesh_doc = spec.get("mesh", 8)
    if isinstance(mesh_doc, dict):
        rows, cols = int(mesh_doc["rows"]), int(mesh_doc["cols"])
    else:
        rows = cols = int(mesh_doc)
    if rows < 1 or cols < 1:
        raise ValueError(f"mesh dimensions must be positive, got {rows}x{cols}")

    defaults = LatencyParams()
    params_doc = spec.get("params") or {}
    unknown = set(params_doc) - set(_PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown latency params: {sorted(unknown)}")
    params = tuple(
        quantize_rate(params_doc.get(name, getattr(defaults, name)))
        for name in _PARAM_FIELDS
    )
    if any(p < 0 for p in params):
        raise ValueError("latency params must be non-negative")

    apps_doc = spec.get("apps")
    if not apps_doc:
        raise ValueError("spec needs a non-empty 'apps' list")
    canon_apps = []
    for a in apps_doc:
        cache = np.asarray(a["cache_rates"], dtype=float)
        mem = np.asarray(a["mem_rates"], dtype=float)
        if cache.ndim != 1 or cache.shape != mem.shape or cache.size == 0:
            raise ValueError("each app needs equal-length 1-D non-empty rate lists")
        if np.any(cache < 0) or np.any(mem < 0) or not (
            np.all(np.isfinite(cache)) and np.all(np.isfinite(mem))
        ):
            raise ValueError("rates must be finite and non-negative")
        canon_apps.append(_canonical_app(cache.tolist(), mem.tolist()))

    n_threads = sum(len(app) for app, _ in canon_apps)
    if n_threads > rows * cols:
        raise ValueError(
            f"{n_threads} threads exceed the {rows * cols}-tile mesh"
        )

    app_order = sorted(
        range(len(canon_apps)),
        key=lambda i: (len(canon_apps[i][0]), canon_apps[i][0], i),
    )
    problem = CanonicalProblem(
        rows=rows,
        cols=cols,
        params=params,
        apps=tuple(canon_apps[i][0] for i in app_order),
    )
    return CanonicalRequest(
        problem=problem,
        app_order=tuple(app_order),
        thread_orders=tuple(canon_apps[i][1] for i in app_order),
    )
