import os
import pathlib
import subprocess
import sys

import pytest

import zetagaps

DEMO_DIR = pathlib.Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "01_exact_breakdown.py",
        "02_threshold_search.py",
        "03_arithmetic_oracle.py",
        "04_optimize.py",
    ],
)
def test_demo_runs(demo):
    src = str(pathlib.Path(zetagaps.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / demo)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
