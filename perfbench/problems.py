"""Seeded request generation for the serve workloads.

Every input is a pure function of the workload seed and the request
index, so the same seed always yields the same request stream.  The
daemon only ever sees these generated bodies.
"""

from __future__ import annotations

import json
import random

from repro.workloads.parsec import CONFIG_NAMES, parsec_config


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def _apps(workload, prefix: str) -> list[dict]:
    return [
        {
            "name": f"{prefix}{i}",
            "cache_rates": app.cache_rates.tolist(),
            "mem_rates": app.mem_rates.tolist(),
        }
        for i, app in enumerate(workload.applications)
    ]


#: the configuration pairs of the 16x16 problems, taken in turn
PAIRS = [(a, b) for i, a in enumerate(CONFIG_NAMES) for b in CONFIG_NAMES[i + 1:]]


def problem(rng: random.Random, configs: tuple[str, ...]) -> dict:
    """One mapping problem with thread rates drawn from ``rng``: one PARSEC
    configuration on an 8x8 mesh (four apps), or two side by side on a
    16x16 mesh (eight apps)."""
    if len(configs) == 1:
        wl = parsec_config(configs[0], threads_per_app=16, seed=rng.getrandbits(62))
        return {"mesh": 8, "apps": _apps(wl, "a")}
    first = parsec_config(configs[0], threads_per_app=32, seed=rng.getrandbits(62))
    second = parsec_config(configs[1], threads_per_app=32, seed=rng.getrandbits(62))
    return {"mesh": 16, "apps": _apps(first, "a") + _apps(second, "b")}


def solve_body(prob: dict) -> dict:
    return {"algorithm": "sss", "bounds": True, **prob}


class Stream:
    """The requests of one serve workload.

    ``request(phase, i)`` returns request ``i`` of a phase with its key,
    which identifies what the cache could share (the problem, plus the
    simulation settings when the request simulates).
    """

    def __init__(self, workload: str, seed: int, cfg: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.cfg = cfg
        # Solve and simulation times depend on the configurations, so every
        # seed takes the same ones in the same order; only the rates are
        # seeded.  Drawn configurations made the medians of a run follow
        # the seed's mix.
        if workload == "map_simulate":
            self.catalogue = [
                problem(_rng(seed, "simcat", k), (CONFIG_NAMES[k % len(CONFIG_NAMES)],))
                for k in range(cfg["catalogue"])
            ]

    def prefill(self) -> list[dict]:
        """Requests sent before measuring, so that first-call costs and
        cache fills stay out of the measured phases: map_unique warms the
        solver on problems outside its stream, map_simulate fills the
        cache with its catalogue."""
        if self.workload == "map_unique":
            warm = [(c,) for c in CONFIG_NAMES[:3]] + [PAIRS[0]]
            return [solve_body(problem(_rng(self.seed, "warm", k), configs))
                    for k, configs in enumerate(warm)]
        return [solve_body(p) for p in self.catalogue]

    def request(self, phase: str, i: int) -> tuple[dict, str]:
        """``(body, key)`` of request ``i`` of ``phase``."""
        rng = _rng(self.seed, self.workload, phase, i)
        if self.workload == "map_unique":
            # blocks of big_every requests: the last of a block is 16x16
            block, pos = divmod(i, self.cfg["big_every"])
            if pos == self.cfg["big_every"] - 1:
                configs = PAIRS[block % len(PAIRS)]
            else:
                configs = (CONFIG_NAMES[block % len(CONFIG_NAMES)],)
            return solve_body(problem(rng, configs)), f"{phase}:{i}"
        k = i % len(self.catalogue)
        sim_seed = rng.getrandbits(31)
        body = {
            **solve_body(self.catalogue[k]),
            "simulate": True,
            "sim": {"warmup": self.cfg["warmup"], "measure": self.cfg["measure"],
                    "seed": sim_seed},
        }
        return body, f"cat{k}:sim{sim_seed}"


def encode(body: dict) -> bytes:
    return json.dumps(body).encode()
