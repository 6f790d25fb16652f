"""Smoke test: every demo script runs to completion without warnings."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_three_methods.py", "02_prescribed_disagreement.py",
         "03_closed_form_regions.py", "04_power_trajectory.py",
         "05_disagreement_rates.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
