"""Mapping-as-a-service: the ``python -m repro serve`` daemon.

Layers (each usable on its own):

- :mod:`repro.service.cache` — bounded LRU result cache and the
  per-mesh/parameter latency-model memo.
- :mod:`repro.service.workers` — bounded worker pool that runs each
  blocking solve/simulation once (optional per-task timeout).
- :mod:`repro.service.batcher` — group-commit batching of simulation
  requests onto the vector engine's ``run_batch``.
- :mod:`repro.service.admission` — admission control: the token pool,
  its bounded queue and the sheds.
- :mod:`repro.service.degrade` — the two-level degradation ladder
  (``full`` and ``bounds_only``).
- :mod:`repro.service.flightrec` — the ring of recent request records.
- :mod:`repro.service.http` — HTTP/1.1 request parsing and response
  framing.
- :mod:`repro.service.app` — request validation into the exact
  :class:`~repro.service.app.Problem` (the cache identity), the ``/map``
  stage pipeline and the route table tying the above together.
"""

from repro.service.app import MappingService, Problem, canonicalize, run_service, serve
from repro.service.batcher import SimulationBatcher
from repro.service.cache import LRUCache, ModelMemo
from repro.service.workers import WorkerPool

__all__ = [
    "MappingService",
    "run_service",
    "serve",
    "SimulationBatcher",
    "LRUCache",
    "ModelMemo",
    "Problem",
    "canonicalize",
    "WorkerPool",
]
