"""Every example but ``trace_to_mapping.py`` runs end to end."""

from pathlib import Path
import runpy

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "design_space.py",
        "dynamic_remap.py",
        "multi_tenant_scheduling.py",
        "noc_validation.py",
    ],
)
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    assert capsys.readouterr().out
