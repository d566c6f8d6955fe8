"""Smoke test: the layer timer in bench/ runs at its smallest sizes and writes its report."""

import json
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
GRID_KERNELS = [
    "kspace.texture_field",
    "chirality._cap_closure",
    "chirality._quadrature_sum",
    "chirality._plaquette_sum",
    "chirality.chern_quadrature",
    "chirality.chern_plaquette",
    "chirality.cross_validate",
]
REGISTER_KERNELS = [
    "register.apply_single_gate",
    "register.exchange_pulse",
    "register.cnot_composed",
    "register.measure",
    "register.selective_rf_pulse",
    "cli.run_chain.rf",
]
PROPAGATOR_SHAPES = [(), (12, 400)]
STEP_KERNELS = ["dynamics.drive_evolve", "dynamics.drive_propagator", "dynamics.evolve_closed",
                "dynamics.evolve_damped", "cli._rows.beat", "cli._rows.damp"]
SHOT_KERNELS = ["gatescript.run_script", "cli.run_chain"]


def test_layer_timer_runs(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(LAYERS), "--out", str(out),
         "--sizes", "32", "64", "--qubits", "2", "3", "--steps", "1", "100", "--shots", "1", "10",
         "--repeats", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["machine"]) >= {"nproc", "python", "numpy", "blas", "thread_env"}
    assert report["machine"]["nproc"] >= 1
    assert "OMP_NUM_THREADS" in report["machine"]["thread_env"]
    assert report["repeats"] == 1
    layers = report["layers"]
    sizes = [(row["kernel"], row.get("n_grid"), row.get("n_qubits"), row.get("shape"),
              row.get("n_steps"), row.get("n_shots")) for row in layers]
    assert sizes == [
        (kernel, n, None, None, None, None) for n in (32, 64) for kernel in GRID_KERNELS
    ] + [(kernel, None, n, None, None, None) for n in (2, 3) for kernel in REGISTER_KERNELS] + [
        ("dynamics._propagator", None, None, list(shape), None, None)
        for shape in PROPAGATOR_SHAPES
    ] + [(kernel, None, None, None, n, None) for n in (1, 100) for kernel in STEP_KERNELS] + [
        (kernel, None, None, None, None, n) for n in (1, 10) for kernel in SHOT_KERNELS
    ]
    assert all(row["best_s"] > 0.0 for row in layers)
    # every grid kernel allocates its mesh and every shot kernel its draws, so their traced
    # peaks are positive
    assert all(row["peak_mb"] > 0.0 for row in layers if "n_grid" in row or "n_shots" in row)
    # 64^2 resolves the configs/chern.cfg point with both estimators
    assert all(row["outcome"] in ("ok", "N = 1") for row in layers if row.get("n_grid") == 64)
    assert all(row["outcome"] == "ok" for row in layers if "n_grid" not in row)
