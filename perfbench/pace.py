"""The machine's pace.

A small shared VM runs at different speeds from one minute to the next.
On a 2-vCPU VM, run_algorithms and the simulator took 1.5 times as long
in spells lasting tens of seconds, and a pure-Python loop slowed by
about the same factor.  So each workload reads its times at a nominal
pace: times divided by the pace around them, rates multiplied by it.
The pace is the median loop time over the nominal one in
``config.json``; above 1 the machine ran slow.  The loop is the
benchmark's own code, so a change to the program does not move it.

``sim_campaign`` times the loop in its own process, before each
campaign and after the last, outside the timed regions: over 16-second
windows the spread of run_algorithms' median fell from 0.31 to 0.06,
and the simulator's from 0.41 to 0.06, once each call was divided by
the loop time next to it.

The serve workloads run the daemon in another process, and the loop
timed at a few points in the load generator did not follow it.  There
a :class:`Sampler` process times a short loop every 50 ms for the whole
run, and each phase is read at the median of the samples taken during
it: over six ``map_unique`` seeds the tail's spread fell from 0.28 to
0.04 and the p50's from 0.16 to 0.08.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: iterations of the reference loop
LOOP = 200_000
#: loop rounds per sample point
ROUNDS = 4
#: iterations of the sampler's loop, about a millisecond
SAMPLE_LOOP = LOOP // 10
#: seconds between the sampler's loops
SAMPLE_EVERY = 0.05


def _loop(n: int = LOOP) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def take(rounds: int = ROUNDS) -> list[float]:
    """Seconds per round of the reference loop, ``rounds`` times."""
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t)
    return times


def factor(samples, nominal_ms: float) -> float:
    """The pace: median loop time over the nominal one."""
    return 1000.0 * statistics.median(samples) / nominal_ms


class Sampler:
    """A process that times :data:`SAMPLE_LOOP` iterations every
    :data:`SAMPLE_EVERY` seconds until stopped, writing ``perf_counter``
    start and duration per line.  ``perf_counter`` is the system-wide
    monotonic clock on Linux, so the times compare with this process's."""

    def __init__(self, out_path: str, env: dict, cwd: str, timeout: float = 30.0) -> None:
        self.out_path = out_path
        open(out_path, "w").close()
        self.proc = subprocess.Popen(
            [sys.executable, __file__, out_path], env=env, cwd=cwd,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        # the first sample marks the end of the interpreter's start-up,
        # which would otherwise compete with what is timed next
        deadline = time.perf_counter() + timeout
        while os.path.getsize(out_path) == 0:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.__exit__()
                raise RuntimeError(f"pace sampler did not start (exit {self.proc.returncode})")
            time.sleep(0.01)

    def stop(self) -> list[tuple[float, float]]:
        """Stop the process and return its ``(start, seconds)`` samples."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(10)
        with open(self.out_path) as fh:
            return [tuple(map(float, line.split())) for line in fh if line.count(" ") == 1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(10)


def factor_between(samples, t0: float, t1: float, nominal_ms: float) -> float:
    """The pace from the sampler's loops that started between ``t0`` and
    ``t1`` (the one nearest the middle when none did)."""
    inside = [s for t, s in samples if t0 <= t <= t1]
    if not inside:
        mid = (t0 + t1) / 2
        inside = [min(samples, key=lambda ts: abs(ts[0] - mid))[1]]
    return factor(inside, nominal_ms * SAMPLE_LOOP / LOOP)


def _sample(out_path: str) -> None:
    with open(out_path, "w") as out:
        while True:
            t = time.perf_counter()
            _loop(SAMPLE_LOOP)
            out.write(f"{t:.6f} {time.perf_counter() - t:.9f}\n")
            out.flush()
            time.sleep(SAMPLE_EVERY)


if __name__ == "__main__":
    _sample(sys.argv[1])
