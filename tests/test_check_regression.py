"""Exit-code semantics of the benchmark-regression guard.

A malformed or missing ``BENCH_perf.json`` must produce a clear skip
message and exit code 2 — never a ``KeyError`` traceback — and must do
so *before* the minutes-long measurement rounds (which is also what
keeps these subprocess tests fast).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "check_regression.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        timeout=60,  # parse failures must not reach the slow measurement
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO,
    )


def _load_module():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBaselineExitCodes:
    def test_missing_file_exits_2(self, tmp_path):
        proc = _run("--bench-json", str(tmp_path / "absent.json"))
        assert proc.returncode == 2
        assert "SKIP" in proc.stdout
        assert "missing" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = _run("--bench-json", str(bad))
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_non_object_exits_2(self, tmp_path):
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2, 3]\n")
        proc = _run("--bench-json", str(arr))
        assert proc.returncode == 2
        assert "JSON object" in proc.stdout

    def test_sectionless_baseline_exits_2(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"unrelated": {"x": 1}}))
        proc = _run("--bench-json", str(empty))
        assert proc.returncode == 2
        assert "guarded sections" in proc.stdout


class TestCheckLogic:
    """Drive check() directly with fake measurements (no benchmarking)."""

    MEASURED = {
        "fastpath_seconds": 1.0,
        "vector_seconds": 0.5,
        "vector_speedup": 2.0,
        "soa_batch_per_sim_seconds": 0.2,
        "soa_batch_speedup": 5.0,
        "obs_off_seconds": 1.0,
        "obs_tracing_seconds": 1.5,
        "obs_overhead_ratio": 1.5,
    }

    def test_partial_baseline_skips_missing_quantities(self, capsys):
        mod = _load_module()
        baseline = {"vector_engine": {"single_sim": {"speedup": 2.1}}}
        failures = mod.check(self.MEASURED, baseline, tol=0.30, tol_seconds=0.60)
        assert failures == []
        out = capsys.readouterr().out
        assert out.count("baseline missing) skip") == 3  # fastpath + soa + obs
        assert "vector_engine.single_sim.speedup" in out

    def test_regression_detected(self):
        mod = _load_module()
        baseline = {"vector_engine": {"single_sim": {"speedup": 10.0}}}
        failures = mod.check(self.MEASURED, baseline, tol=0.30, tol_seconds=0.60)
        assert len(failures) == 1
        assert "speedup" in failures[0]

    def test_serve_tracing_guard_skips_when_not_measured(self, capsys):
        """MEASURED has no serve_tracing_ratio (serve probe skipped):
        the service guard must report a skip, not KeyError."""
        mod = _load_module()
        failures = mod.check(self.MEASURED, {}, tol=0.30, tol_seconds=0.60)
        assert failures == []
        out = capsys.readouterr().out
        assert "service.obs_overhead.overhead_ratio" in out
        assert "serve probe not measured" in out

    def test_serve_tracing_ratio_regression_detected(self):
        mod = _load_module()
        measured = {**self.MEASURED, "serve_tracing_ratio": 2.0}
        baseline = {"service": {"obs_overhead": {"overhead_ratio": 1.0}}}
        failures = mod.check(measured, baseline, tol=0.30, tol_seconds=0.60)
        assert len(failures) == 1
        assert "service.obs_overhead.overhead_ratio" in failures[0]

    def test_solver_guard_skips_when_not_measured(self, capsys):
        """MEASURED has no solvers dict (probe skipped): the solver guards
        must report a skip, not KeyError."""
        mod = _load_module()
        failures = mod.check(self.MEASURED, {}, tol=0.30, tol_seconds=0.60)
        assert failures == []
        out = capsys.readouterr().out
        assert "solvers.sss_numpy_speedup" in out
        assert "solver probe not measured" in out

    def test_solver_speedup_regression_detected(self):
        mod = _load_module()
        measured = {
            **self.MEASURED,
            "solvers": {"sss_numpy_speedup": 1.0, "sss_compiled_speedup": 2.0},
        }
        baseline = {
            "solvers": {"sss_numpy_speedup": 2.5, "sss_compiled_speedup": 20.0}
        }
        failures = mod.check(measured, baseline, tol=0.30, tol_seconds=0.60)
        assert len(failures) == 2
        assert any("sss_numpy_speedup" in f for f in failures)
        assert any("sss_compiled_speedup" in f for f in failures)

    def test_solver_compiled_guard_skips_without_compiled_backend(self, capsys):
        """numpy speedup measured but no compiled backend available: the
        compiled guard must skip even when its baseline exists."""
        mod = _load_module()
        measured = {**self.MEASURED, "solvers": {"sss_numpy_speedup": 2.5}}
        baseline = {
            "solvers": {"sss_numpy_speedup": 2.5, "sss_compiled_speedup": 20.0}
        }
        failures = mod.check(measured, baseline, tol=0.30, tol_seconds=0.60)
        assert failures == []
        out = capsys.readouterr().out
        assert "no compiled backend" in out

    def test_non_numeric_baseline_value_fails_not_crashes(self):
        mod = _load_module()
        baseline = {"vector_engine": {"single_sim": {"speedup": "fast!"}}}
        failures = mod.check(self.MEASURED, baseline, tol=0.30, tol_seconds=0.60)
        assert len(failures) == 1
        assert "not a number" in failures[0]

    def test_load_baseline_accepts_committed_file(self):
        mod = _load_module()
        baseline = mod.load_baseline(REPO / "BENCH_perf.json")
        assert isinstance(baseline, dict)

    def test_section_helper_tolerates_non_dict_levels(self):
        mod = _load_module()
        assert mod._section({"engine": "oops"}, "engine", "inner") == {}
        assert mod._section({}, "engine", "inner") == {}

    def test_load_baseline_rejects_sectionless(self, tmp_path):
        mod = _load_module()
        path = tmp_path / "b.json"
        path.write_text("{}")
        with pytest.raises(mod.BaselineError):
            mod.load_baseline(path)
