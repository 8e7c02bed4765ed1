"""Every example but ``trace_to_mapping.py`` runs end to end."""

import os
from pathlib import Path
import runpy
import subprocess
import sys

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


def test_example_exits_quietly_on_closed_pipe():
    """A reader gone before the first write (``... | head``) ends the
    example quietly: no ``BrokenPipeError`` on stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    proc.wait(60)
    assert "BrokenPipeError" not in err, err
