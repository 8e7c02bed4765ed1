"""The examples that read the fast path's network run end to end."""

from pathlib import Path
import runpy

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("name", ["layout_analysis.py", "noc_validation.py"])
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    assert capsys.readouterr().out
