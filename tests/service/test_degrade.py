"""The degradation ladder: level selection and served answers."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.registry import ALGORITHMS
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import AdmissionController
from repro.service.degrade import LEVEL_BOUNDS, LEVEL_FULL, DegradeController


class TestLevelSelection:
    def test_off_never_degrades(self):
        c = DegradeController("off")
        assert c.level_for(pressure=1.0) == LEVEL_FULL

    def test_opt_out_never_degrades(self):
        c = DegradeController("auto")
        assert c.level_for(pressure=1.0, allow=False) == LEVEL_FULL

    def test_forced_mode_wins(self):
        c = DegradeController(LEVEL_BOUNDS)
        assert c.level_for(pressure=0.0) == LEVEL_BOUNDS

    def test_auto_follows_pressure(self):
        c = DegradeController("auto")
        assert c.level_for(pressure=0.1) == LEVEL_FULL
        assert c.level_for(pressure=0.5) == LEVEL_BOUNDS
        # bounds_only is the bottom rung: past it, admission's queue sheds.
        assert c.level_for(pressure=0.9) == LEVEL_BOUNDS
        assert c.level_for(pressure=1.0) == LEVEL_BOUNDS

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            DegradeController("yolo")

    def test_record_counts_by_level(self):
        registry = MetricsRegistry()
        c = DegradeController("auto", registry=registry)
        c.record(LEVEL_FULL)
        c.record(LEVEL_BOUNDS)
        c.record(LEVEL_BOUNDS)
        assert registry.counter("serve_degraded_total", level=LEVEL_BOUNDS).value == 2
        # full is not a degradation and must not be counted
        assert registry.counter("serve_degraded_total", level=LEVEL_FULL).value == 0


class TestDegradedServing:
    """End-to-end degraded answers through the live daemon."""

    def test_bounds_only_matches_cli_bound_json(self, make_service, capsys):
        from repro.cli import main as cli_main

        client = make_service(degrade="bounds_only")
        doc = client.map({"workload": "C1", "mesh": 8})
        assert doc["result"]["perm"] is None
        assert doc["result"]["evaluation"] is None
        assert doc["result"]["degraded"] == "bounds_only"
        assert doc["meta"]["degraded"] == "bounds_only"

        assert cli_main(["bound", "--workload", "C1", "--mesh", "8", "--json"]) == 0
        cli_line = capsys.readouterr().out.strip()
        served = json.dumps(
            doc["result"]["bounds"], sort_keys=True, separators=(",", ":")
        )
        # Degraded answers stay certified: same bytes as the direct CLI.
        assert served == cli_line

    def test_degraded_total_counts(self, make_service, spec2):
        client = make_service(degrade="bounds_only")
        client.map(spec2)
        counter = client.service.registry.counter(
            "serve_degraded_total", level="bounds_only"
        )
        assert counter.value == 1

    def test_opt_out_is_served_fully_even_when_forced(self, make_service, spec2):
        client = make_service(degrade="bounds_only")
        doc = client.map({**spec2, "degrade": False})
        assert doc["result"]["perm"] is not None
        assert "degraded" not in doc["result"]
        assert "degraded" not in doc["meta"]

    def test_declined_bound_is_never_degraded(self, make_service, spec2):
        """``"bounds": false`` declines the bound, so the ladder cannot
        answer with it: the request is solved in full."""
        client = make_service(degrade="bounds_only")
        doc = client.map({**spec2, "bounds": False})
        assert doc["result"]["perm"] is not None
        assert doc["result"]["bounds"] is None
        assert "degraded" not in doc["result"]
        assert "degraded" not in doc["meta"]

    def test_saturated_answer_is_about_its_own_instance(
        self, make_service, spec2, monkeypatch, tmp_path, capsys
    ):
        """At pressure 0.9 a same-shape problem gets its own certified
        bound, never a cached solve of another problem."""
        from repro.cli import main as cli_main
        from repro.core.workload import Application, Workload
        from repro.io import save_json, workload_to_dict

        client = make_service(degrade="auto")
        client.map(spec2)  # a full solve of a same-shape problem is cached
        monkeypatch.setattr(AdmissionController, "pressure", property(lambda self: 0.9))
        other = {
            **spec2,
            "apps": [
                dict(app, cache_rates=[3.0 * r for r in app["cache_rates"]])
                for app in spec2["apps"]
            ],
        }
        doc = client.map(other)
        assert doc["meta"]["degraded"] == "bounds_only"
        assert "stale_fingerprint" not in doc["meta"]
        assert doc["result"]["perm"] is None

        workload = tmp_path / "other.json"
        apps = tuple(
            Application(a["name"], a["cache_rates"], a["mem_rates"]) for a in other["apps"]
        )
        save_json(workload_to_dict(Workload(apps, name="other")), workload)
        argv = ["bound", "--workload", str(workload), "--mesh", "4", "--json"]
        assert cli_main(argv) == 0
        served = json.dumps(doc["result"]["bounds"], sort_keys=True, separators=(",", ":"))
        assert served == capsys.readouterr().out.strip()

    def test_short_timeout_is_solved_in_full(self, make_service, spec2, monkeypatch):
        """A timeout is not a ladder signal: a request whose budget is
        under 1.5 solve times, unloaded, still gets its own full solve."""
        real_sss = ALGORITHMS["sss"]

        def slow_sss(instance):
            time.sleep(0.6)
            return real_sss(instance)

        monkeypatch.setitem(ALGORITHMS, "sss", slow_sss)
        client = make_service(degrade="auto")
        client.map(spec2)  # a 0.6 s solve has run
        other = {**spec2, "mesh": 5, "timeout": 0.85}
        doc = client.map(other)
        assert doc["meta"]["cache"] == "miss"
        assert "degraded" not in doc["meta"]
        assert doc["result"]["perm"] is not None

    def test_unloaded_auto_stays_full_fidelity(self, make_service, spec2):
        client = make_service(degrade="auto")
        doc = client.map(spec2)
        assert "degraded" not in doc["result"]
        assert "degraded" not in doc["meta"]
        assert doc["result"]["perm"] is not None
