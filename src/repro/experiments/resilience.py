"""Canonical JSON encoding and config fingerprints.

:func:`json_safe` is the one JSON-safe encoding shared by the artifact
writer, ``repro bound --json`` and the serve daemon's responses, and
:func:`config_fingerprint` is the stable hash the serve daemon keys its
caches by.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["config_fingerprint", "json_safe"]

#: Version field hashed into every fingerprint; bumping it changes every
#: serve cache key.
FINGERPRINT_FORMAT = 1


def json_safe(value):
    """Best-effort conversion of result data to JSON-representable types."""
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        v = float(value)
        return None if np.isnan(v) else v
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return repr(value)


def config_fingerprint(experiment_id: str, **knobs) -> str:
    """Stable hex fingerprint of an id plus the knobs that affect its value.

    Every knob that changes what is computed must be included.
    """
    payload = json.dumps(
        {"experiment": experiment_id, "format": FINGERPRINT_FORMAT, "knobs": json_safe(knobs)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
