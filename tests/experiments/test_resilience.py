"""Tests of the canonical JSON encoding and config fingerprints."""

from __future__ import annotations

import json

import numpy as np

from repro.experiments.resilience import config_fingerprint, json_safe


class TestConfigFingerprint:
    def test_stable_across_calls_and_kwarg_order(self):
        a = config_fingerprint("fig9", fast=True, engine="fastpath")
        b = config_fingerprint("fig9", engine="fastpath", fast=True)
        assert a == b
        assert len(a) == 16
        assert int(a, 16) >= 0  # hex

    def test_sensitive_to_experiment_and_knobs(self):
        base = config_fingerprint("fig9", fast=True)
        assert config_fingerprint("fig10", fast=True) != base
        assert config_fingerprint("fig9", fast=False) != base
        assert config_fingerprint("fig9", fast=True, engine="vector") != base

    def test_numpy_knobs_hash_like_python(self):
        assert config_fingerprint("x", n=np.int64(3)) == config_fingerprint("x", n=3)


class TestJsonSafe:
    def test_numpy_scalars_and_arrays(self):
        # np.float64 subclasses float and passes through the first branch
        # (matching the artifact writer's historical encoding); np.float32
        # does not, and exercises the NaN -> None conversion.
        out = json_safe(
            {"i": np.int32(4), "f": np.float64(2.5), "a": np.arange(3), "nan": np.float32("nan")}
        )
        assert out == {"i": 4, "f": 2.5, "a": [0, 1, 2], "nan": None}
        json.dumps(out)  # truly JSON-representable

    def test_non_string_keys_and_tuples(self):
        assert json_safe({1: (2, 3)}) == {"1": [2, 3]}
