"""JSON (de)serialisation of workloads, mappings, and results.

Lets mapping decisions flow to/from external toolchains (schedulers,
run-time systems) and makes experiment outputs archivable.  The format is
versioned and deliberately plain: nested dicts of lists, no pickling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.metrics import MappingEvaluation
from repro.core.problem import Mapping
from repro.core.results import MappingResult
from repro.core.workload import Application, Workload

__all__ = [
    "workload_to_dict",
    "workload_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
    "result_to_dict",
    "save_json",
    "load_json",
]

FORMAT_VERSION = 1


def workload_to_dict(workload: Workload) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "kind": "workload",
        "name": workload.name,
        "applications": [
            {
                "name": app.name,
                "cache_rates": app.cache_rates.tolist(),
                "mem_rates": app.mem_rates.tolist(),
            }
            for app in workload.applications
        ],
    }


def workload_from_dict(data: dict[str, Any]) -> Workload:
    _check_kind(data, "workload")
    apps = tuple(
        Application(a["name"], a["cache_rates"], a["mem_rates"])
        for a in data["applications"]
    )
    return Workload(apps, name=data.get("name", "workload"))


def mapping_to_dict(mapping: Mapping) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "kind": "mapping",
        "perm": mapping.perm.tolist(),
    }


def mapping_from_dict(data: dict[str, Any]) -> Mapping:
    """A mapping document, or the mapping inside a result document (what
    ``repro map --output`` writes)."""
    if data.get("kind") == "result":
        _check_kind(data, "result")
        data = data["mapping"]
    _check_kind(data, "mapping")
    return Mapping(np.asarray(data["perm"], dtype=np.int64))


def _evaluation_to_dict(ev: MappingEvaluation) -> dict[str, Any]:
    return {
        "apls": [None if np.isnan(a) else float(a) for a in ev.apls],
        "max_apl": ev.max_apl,
        "dev_apl": ev.dev_apl,
        "g_apl": ev.g_apl,
        "min_max_ratio": ev.min_max_ratio,
    }


def result_to_dict(result: MappingResult) -> dict[str, Any]:
    """Serialise a full algorithm result (extra entries that are not
    JSON-representable are stringified)."""

    def jsonable(value):
        if isinstance(value, (bool, int, float, str, type(None))):
            return value
        if isinstance(value, (np.integer, np.floating)):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {str(k): jsonable(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [jsonable(v) for v in value]
        return repr(value)

    return {
        "format": FORMAT_VERSION,
        "kind": "result",
        "algorithm": result.algorithm,
        "mapping": mapping_to_dict(result.mapping),
        "evaluation": _evaluation_to_dict(result.evaluation),
        "runtime_seconds": result.runtime_seconds,
        "extra": jsonable(result.extra),
    }


def _check_kind(data: dict[str, Any], expected: str) -> None:
    kind = data.get("kind")
    if kind != expected:
        raise ValueError(f"expected a {expected!r} document, got {kind!r}")
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {version!r} (this build reads {FORMAT_VERSION})"
        )


def save_json(obj: dict[str, Any], path: str | Path) -> Path:
    """Write a serialised document to ``path`` (pretty-printed, atomic)."""
    from repro.utils.atomicio import atomic_write_text

    path = Path(path)
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())
