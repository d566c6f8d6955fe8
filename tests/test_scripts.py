"""Smoke test: every experiment script in scripts/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "name, args",
    [
        ("beating_regimes.py", ["--outdir", "beating_out"]),
        ("chern_phase_scan.py", ["--out", "scan.csv"]),
        ("device_sizing.py", []),
        ("swap_entangle_demo.py", []),
    ],
)
def test_script_runs(tmp_path, name, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
