"""Limit table and decision rule of the benchmark-regression guard.

Drives ``check()`` with synthetic measurements; nothing is benchmarked.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)

#: Each limit is a recorded baseline x (1 +/- tolerance); none may loosen.
EXPECTED = {
    "engine.fastpath_seconds": ("max", 1.142),
    "obs_overhead.overhead_ratio": ("max", 1.443),
    "service.obs_overhead.overhead_ratio": ("max", 1.196),
    "service.overload.goodput_ratio": ("min", 0.932),
    "service.overload.p99_ratio": ("max", 2.262),
    "solvers.sss_compiled_speedup": ("min", 13.27),
}

#: Every quantity exactly at its limit: the boundary passes.
AT_LIMIT = {name: limit for name, (_, limit) in EXPECTED.items()}


def regressed(name: str) -> float:
    direction, limit = EXPECTED[name]
    return limit * 1.01 if direction == "max" else limit * 0.99


def test_limits_are_the_recorded_baselines():
    assert check_regression.LIMITS == EXPECTED


def test_every_quantity_at_its_limit_passes():
    assert check_regression.check(AT_LIMIT) == []


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_each_quantity_flags_a_synthetic_regression(name):
    failures = check_regression.check({**AT_LIMIT, name: regressed(name)})
    assert len(failures) == 1 and failures[0].startswith(name)


class TestCheckLogic:
    def test_regression_detected(self, capsys):
        measured = {**AT_LIMIT, "service.overload.goodput_ratio": 0.5}
        failures = check_regression.check(measured)
        assert failures == ["service.overload.goodput_ratio: 0.5 (need >= 0.932)"]
        assert "REGRESSION" in capsys.readouterr().out

    def test_serve_tracing_guard_skips_when_not_measured(self, capsys):
        measured = dict(AT_LIMIT)
        del measured["service.obs_overhead.overhead_ratio"]
        assert check_regression.check(measured) == []
        out = capsys.readouterr().out
        assert "service.obs_overhead.overhead_ratio" in out and "skip" in out

    def test_serve_tracing_ratio_regression_detected(self):
        measured = {**AT_LIMIT, "service.obs_overhead.overhead_ratio": 1.28}
        failures = check_regression.check(measured)
        assert len(failures) == 1
        assert "service.obs_overhead.overhead_ratio" in failures[0]

    def test_solver_guard_skips_when_not_measured(self, capsys):
        measured = {k: v for k, v in AT_LIMIT.items() if not k.startswith("solvers.")}
        assert check_regression.check(measured) == []
        out = capsys.readouterr().out
        assert out.count("skip") == 1 and "solvers.sss_compiled_speedup" in out

    def test_solver_speedup_regression_detected(self):
        measured = {**AT_LIMIT, "solvers.sss_compiled_speedup": 2.0}
        failures = check_regression.check(measured)
        assert len(failures) == 1
        assert "sss_compiled_speedup" in failures[0]

    def test_solver_compiled_guard_skips_without_compiled_backend(self, capsys):
        """Without the C kernels the solver probe yields no compiled
        speedup; the guard reports a skip, never a failure."""
        measured = dict(AT_LIMIT)
        del measured["solvers.sss_compiled_speedup"]
        assert check_regression.check(measured) == []
        assert "solvers.sss_compiled_speedup" in capsys.readouterr().out
