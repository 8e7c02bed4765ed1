"""Tests of JSON serialisation and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.problem import Mapping
from repro.core.sss import sort_select_swap
from repro.core.workload import Application, Workload
from repro.io import (
    load_json,
    mapping_from_dict,
    mapping_to_dict,
    result_to_dict,
    save_json,
    workload_from_dict,
    workload_to_dict,
)
from repro.noc import cc_kernel


@pytest.fixture
def workload():
    return Workload(
        (
            Application("a", [1.0, 2.0], [0.1, 0.2]),
            Application("b", [3.0, 4.0], [0.3, 0.4]),
        ),
        name="roundtrip",
    )


class TestSerialization:
    def test_workload_roundtrip(self, workload):
        restored = workload_from_dict(workload_to_dict(workload))
        assert restored.name == workload.name
        assert np.array_equal(restored.cache_rates, workload.cache_rates)
        assert np.array_equal(restored.mem_rates, workload.mem_rates)
        assert [a.name for a in restored.applications] == ["a", "b"]

    def test_mapping_roundtrip(self):
        m = Mapping(np.array([2, 0, 3, 1]))
        restored = mapping_from_dict(mapping_to_dict(m))
        assert np.array_equal(restored.perm, m.perm)

    def test_kind_checked(self, workload):
        data = workload_to_dict(workload)
        with pytest.raises(ValueError):
            mapping_from_dict(data)

    def test_version_checked(self):
        with pytest.raises(ValueError):
            mapping_from_dict({"kind": "mapping", "format": 99, "perm": [0]})

    def test_result_to_dict_is_json_safe(self, small_instance):
        result = sort_select_swap(small_instance)
        doc = result_to_dict(result)
        text = json.dumps(doc)  # must not raise
        assert doc["algorithm"] == "SSS"
        assert len(doc["mapping"]["perm"]) == small_instance.n
        assert doc["evaluation"]["max_apl"] == pytest.approx(result.max_apl)
        assert "config" in doc["extra"]

    def test_save_load_roundtrip(self, tmp_path, workload):
        path = save_json(workload_to_dict(workload), tmp_path / "wl.json")
        assert workload_from_dict(load_json(path)).name == "roundtrip"


class TestCLI:
    def test_map_command(self, capsys, tmp_path):
        out = tmp_path / "result.json"
        code = main(
            ["map", "--workload", "C1", "--algorithm", "global", "--mesh", "4",
             "--output", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "Global" in captured
        assert out.exists()

    def test_map_profile_prints_sss_span_rows(self, capsys):
        assert main(["map", "--workload", "C1", "--profile"]) == 0
        out = capsys.readouterr().out
        table = out[out.index("phase timings:"):].splitlines()
        rows = {line.split()[0]: line for line in table[1:]}
        for name in ("cli.map", "sss.select", "sss.swap", "sss.polish"):
            assert rows[name].endswith("(1 calls)")

    def test_evaluate_command(self, capsys, tmp_path):
        mapping_path = tmp_path / "m.json"
        save_json(mapping_to_dict(Mapping(np.arange(16))), mapping_path)
        code = main(
            ["evaluate", "--workload", "C1", "--mesh", "4", str(mapping_path)]
        )
        assert code == 0
        assert "max=" in capsys.readouterr().out

    def test_evaluate_reads_what_map_writes(self, capsys, tmp_path):
        # The README's pair: `map --output mapping.json`, then `evaluate`.
        path = tmp_path / "mapping.json"
        argv = ["--workload", "C1", "--mesh", "4"]
        assert main(["map", *argv, "--algorithm", "sss", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["evaluate", *argv, str(path)]) == 0
        max_apl = load_json(path)["evaluation"]["max_apl"]
        assert f"max={max_apl:.3f}" in capsys.readouterr().out

    def test_bound_command(self, capsys):
        code = main(
            ["bound", "--workload", "C2", "--mesh", "4",
             "--algorithms", "global", "sss"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lower bound" in out
        assert "gap %" in out

    def test_workload_json_input(self, capsys, tmp_path, workload):
        # 4 threads on a 2x2 mesh from a JSON file.
        wl_path = save_json(workload_to_dict(workload), tmp_path / "wl.json")
        code = main(["map", "--workload", str(wl_path), "--mesh", "2"])
        assert code == 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["map", "--algorithm", "quantum"])

    def test_simulate_command(self, capsys):
        code = main(
            ["simulate", "--workload", "C1", "--mesh", "4", "--algorithm",
             "global", "--warmup", "100", "--measure", "400", "--invariants"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "packets delivered" in out
        assert "delivery:" in out
        assert "invariant sweeps" in out
        assert "engine: fastpath" in out.splitlines()  # invariants need its hooks
        assert "fault injection" not in out  # no schedule attached

    def test_simulate_defaults_to_vector_engine(self, capsys):
        code = main(
            ["simulate", "--workload", "C1", "--mesh", "4", "--algorithm",
             "global", "--warmup", "100", "--measure", "400"]
        )
        assert code == 0
        # Without the compiled cycle kernel the run takes the fast path.
        engine = "vector" if cc_kernel.library() is not None else "fastpath"
        assert f"engine: {engine}" in capsys.readouterr().out.splitlines()

    def test_simulate_command_with_faults(self, capsys):
        code = main(
            ["simulate", "--workload", "C1", "--mesh", "4", "--measure", "400",
             "--warmup", "50", "--link-down", "5:EAST:100:400",
             "--stall", "2:50:120", "--drop-rate", "0.001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault injection" in out
        assert "link down events: 1" in out
        assert "stall windows: 1" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--measure", "0"],
            ["--measure", "-5"],
            ["--warmup", "-1"],
            ["--seed", "-1"],
            ["--fault-seed", "-1"],
            ["--drop-rate", "1.5"],
            ["--drop-rate", "nan"],
            ["--max-retries", "-1"],
            ["--mesh", "0"],
            ["--mesh", "1"],
            ["--trace-every", "0"],
            ["--sample-every", "0"],
            ["--trace-buffer", "0"],
        ],
        ids=" ".join,
    )
    def test_simulate_rejects_bad_values_before_solving(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mesh", "4", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flags[0]}" in captured.err
        assert "max-APL" not in captured.out  # rejected before any solve

    @pytest.mark.parametrize(
        "argv",
        [["map"], ["evaluate", "mapping.json"], ["bound", "--json"]],
        ids=lambda argv: argv[0],
    )
    def test_mesh_below_two_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--mesh", "0"])
        assert exc.value.code == 2
        assert "argument --mesh" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--cache-size", "0"],
            ["--max-batch", "0"],
            ["--max-queue", "-1"],
            ["--trace-buffer", "0"],
            ["--port", "-1"],
            ["--port", "65536"],
            ["--drain-timeout", "-1"],
            ["--drain-timeout", "inf"],
            ["--flight-recorder", "-1"],
            ["--max-inflight", "0"],
            ["--task-timeout", "0"],
            ["--default-deadline", "-1"],
        ],
        ids=" ".join,
    )
    def test_serve_rejects_bad_values_at_parse_time(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", *flags])
        assert exc.value.code == 2
        assert f"argument {flags[0]}" in capsys.readouterr().err

    def test_serve_accepts_the_boundary_values(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-queue", "0",
             "--drain-timeout", "0", "--flight-recorder", "0", "--workers", "1"]
        )
        assert (args.port, args.max_queue, args.flight_recorder) == (0, 0, 0)
        assert (args.drain_timeout, args.workers) == (0.0, 1)

    @pytest.mark.parametrize("flag", ["--retries", "--failure-budget"])
    def test_serve_has_no_retry_or_failure_budget_flag(self, flag, capsys):
        """A worker task runs once; ``--task-timeout`` is the one supervision flag."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_serve_has_no_batch_window_flag(self, capsys):
        """Simulation batches dispatch when their group is idle; there is no
        coalescing window to tune."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--batch-window", "0.005"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --batch-window 0.005" in capsys.readouterr().err

    def test_serve_has_no_cached_nearest_level(self, capsys):
        """The ladder has two levels; a stale-answer level is a usage error."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--degrade", "cached_nearest"])
        assert exc.value.code == 2
        assert "argument --degrade" in capsys.readouterr().err

    def test_closed_pipe_exits_without_traceback(self, tmp_path):
        """A reader that stops early (``... | head -1``) ends the command
        quietly: no ``BrokenPipeError`` traceback on stderr."""
        records = [
            {"trace_id": i, "status": 200, "cache": "miss", "algorithm": "sss",
             "duration_us": 1000 + i, "spans": []}
            for i in range(3000)
        ]
        dump = tmp_path / "dump.json"
        dump.write_text(json.dumps(
            {"schema": "repro-serve-requests", "version": 3, "recorded": 3000,
             "dropped": 0, "capacity": 3000, "requests": records}
        ))
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "serve-report", str(dump)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        # The report is far larger than a 64 KiB pipe buffer, so the
        # writer is still printing when the reader goes away.
        assert proc.stdout.readline().startswith(b"3000 recorded requests")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        proc.wait(60)
        assert "Traceback" not in err, err
        assert "BrokenPipeError" not in err, err

    def test_simulate_rejects_malformed_fault_specs(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--link-down", "5:EAST:100"])
        with pytest.raises(SystemExit):
            main(["simulate", "--link-down", "5:NOWHERE:0:10"])
        with pytest.raises(SystemExit):
            main(["simulate", "--stall", "banana"])
