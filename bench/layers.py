"""Layer timer for the chirality, register, driven-dynamics and shot kernels.

    python bench/layers.py --out BENCH.json [--sizes 128 1024] [--qubits 4 12]
                           [--steps 1000 10000] [--shots 100 5000] [--repeats 7]

It imports the package from the src/ directory next to it.  At every grid
size n it times kspace.texture_field on the n x n mesh,
chirality.chern_quadrature, chirality.chern_plaquette, and
chirality.cross_validate held to that one grid (n_grid_start = n_grid_max =
n), all at the point of configs/chern.cfg (delta 1, mu 1, chi +1, k_max 8).
At every register size n it times, on one fixed random n-qubit state and
around the middle qubit q = n // 2: register.apply_single_gate (H on q),
register.exchange_pulse (half pulse on the link q-1, q),
register.cnot_composed (control q-1, target q), register.measure (of q, one
persistent generator) and register.selective_rf_pulse (a pi pulse of amp
0.05 on q at dt 0.01, biases 0.5 * (k + 1)).  At every step count n it times
dynamics.drive_evolve (from |-1>) and dynamics.drive_propagator over n steps
of dt 0.005 of the resonant drive of configs/rabi.cfg (epsilon 1, amp 0.05,
omega 2).  At every shot count n it times gatescript.run_script over n
shots of the 12-qubit script that puts every qubit through H and then
measures them all (seed 1), the widest outcome tree the register allows, and
cli.run_chain on the same script, read from a temporary file, with the chain
defaults: the shot engine plus the chain's output lines.
Each kernel runs once to warm up and once more to size a batch of
back-to-back calls that lasts at least MIN_BATCH_S, so microsecond kernels
are timed above the clock's noise; then --repeats batches run and the best
time per call counts.  A kernel that raises NotConverged (the coarsest
grids) is timed all the same and its outcome says so.  Each grid and shot
kernel runs once more, untimed, under tracemalloc, and its row records that
call's peak of traced allocations as peak_mb (numpy arrays included).

The JSON file holds the timings and the machine facts: nproc, Python, numpy,
the BLAS numpy was built with, and the thread environment variables.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chiralqubit.chirality import (  # noqa: E402
    MAX_GRID,
    NotConverged,
    _mesh,
    chern_plaquette,
    chern_quadrature,
    cross_validate,
)
from chiralqubit.cli import _load_config, run_chain  # noqa: E402
from chiralqubit.dynamics import (  # noqa: E402
    MAX_STEPS,
    QubitState,
    TwoLevelParams,
    drive_evolve,
    drive_propagator,
)
from chiralqubit.gatescript import MAX_SHOTS, parse_script, run_script  # noqa: E402
from chiralqubit.kspace import GapParams, texture_field  # noqa: E402
from chiralqubit.register import (  # noqa: E402
    MAX_QUBITS,
    SYMMETRIC,
    CouplingLink,
    FieldProfile,
    RegisterState,
    apply_single_gate,
    cnot_composed,
    exchange_pulse,
    measure,
    selective_rf_pulse,
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PARAMS = GapParams(1.0, 1.0, +1)
K_MAX = 8.0
RF_AMP, RF_DT, FIELD_STEP = 0.05, 0.01, 0.5
DRIVE, DRIVE_DT = TwoLevelParams(epsilon=1.0, drive_amp=0.05, drive_freq=2.0), 0.005
MIN_BATCH_S = 2e-3
ALL_H_TEXT = ("".join(f"GATE {q} H\n" for q in range(MAX_QUBITS))
              + "".join(f"MEASURE {q}\n" for q in range(MAX_QUBITS)))
ALL_H = parse_script(ALL_H_TEXT)


def _mesh_texture(n: int):
    x, _ = _mesh(K_MAX, n)
    return texture_field(x[:, None], x[None, :], PARAMS)


GRID_KERNELS = {
    "kspace.texture_field": _mesh_texture,
    "chirality.chern_quadrature": lambda n: chern_quadrature(PARAMS, K_MAX, n),
    "chirality.chern_plaquette": lambda n: chern_plaquette(PARAMS, K_MAX, n),
    "chirality.cross_validate": lambda n: cross_validate(PARAMS, K_MAX, n, n),
}


def register_kernels(n: int) -> dict:
    """Zero-argument calls of the register kernels on an n-qubit state (n >= 2)."""
    rng = np.random.default_rng(0)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = RegisterState(n, amps / np.linalg.norm(amps))
    q = n // 2
    link = CouplingLink(q - 1, q)
    profile = FieldProfile(tuple(FIELD_STEP * (k + 1) for k in range(n)))
    draws = np.random.default_rng(1)
    return {
        "register.apply_single_gate": lambda: apply_single_gate(state, q, SYMMETRIC),
        "register.exchange_pulse": lambda: exchange_pulse(state, link, math.pi / 2.0),
        "register.cnot_composed": lambda: cnot_composed(state, q - 1, q, link),
        "register.measure": lambda: measure(state, q, draws),
        "register.selective_rf_pulse": lambda: selective_rf_pulse(
            state, profile, q, RF_AMP, math.pi / RF_AMP, RF_DT),
    }


def drive_kernels(n: int) -> dict:
    """Zero-argument calls of the driven-qubit kernels over n steps."""
    return {
        "dynamics.drive_evolve":
            lambda: drive_evolve(QubitState.minus(), DRIVE, n * DRIVE_DT, DRIVE_DT),
        "dynamics.drive_propagator": lambda: drive_propagator(DRIVE, n * DRIVE_DT, DRIVE_DT),
    }


def shot_kernels(n: int, script_path: str) -> dict:
    """Zero-argument calls of the shot engine and the chain subcommand over n shots."""
    config = {**_load_config("chain", None), "script_path": script_path, "seed": 1, "shots": n}
    return {
        "gatescript.run_script": lambda: run_script(ALL_H, seed=1, shots=n),
        "cli.run_chain": lambda: run_chain(config),
    }


def _outcome(call) -> str:
    try:
        result = call()
    except NotConverged as exc:
        return f"NotConverged (raw {exc.result.raw:.6g})"
    return f"N = {result.n_integer}" if hasattr(result, "n_integer") else "ok"


def time_kernel(call, repeats: int) -> tuple[float, str]:
    """Best wall time per call over `repeats` batches, and the outcome."""
    outcome = _outcome(call)
    start = perf_counter()
    _outcome(call)
    number = max(1, math.ceil(MIN_BATCH_S / (perf_counter() - start)))
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(number):
            _outcome(call)
        best = min(best, (perf_counter() - start) / number)
    return best, outcome


def peak_mb(call) -> float:
    """Peak traced allocation of one call, in MB (untimed: tracing slows allocation)."""
    tracemalloc.start()
    try:
        _outcome(call)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "processor": platform.processor() or platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 1024])
    parser.add_argument("--qubits", type=int, nargs="+", default=[4, 12])
    parser.add_argument("--steps", type=int, nargs="+", default=[1000, 10000])
    parser.add_argument("--shots", type=int, nargs="+", default=[100, 5000])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 32 or max(args.sizes) > MAX_GRID:
        parser.error(f"--repeats must be >= 1 and every size in [32, {MAX_GRID}]")
    if not 2 <= min(args.qubits) <= max(args.qubits) <= MAX_QUBITS:
        parser.error(f"every --qubits value must be in [2, {MAX_QUBITS}]")
    if not 1 <= min(args.steps) <= max(args.steps) <= MAX_STEPS:
        parser.error(f"every --steps value must be in [1, {MAX_STEPS}]")
    if not 1 <= min(args.shots) <= max(args.shots) <= MAX_SHOTS:
        parser.error(f"every --shots value must be in [1, {MAX_SHOTS}]")

    layers = []
    for n in args.sizes:
        for name, kernel in GRID_KERNELS.items():
            call = functools.partial(kernel, n)
            best, outcome = time_kernel(call, args.repeats)
            peak = peak_mb(call)
            layers.append({"kernel": name, "n_grid": n, "best_s": best, "peak_mb": peak,
                           "outcome": outcome})
            print(f"{name:28s} {n:5d}^2     {best * 1e3:9.3f} ms  {peak:7.2f} MB  {outcome}")
    for n in args.qubits:
        for name, call in register_kernels(n).items():
            best, outcome = time_kernel(call, args.repeats)
            layers.append({"kernel": name, "n_qubits": n, "best_s": best, "outcome": outcome})
            print(f"{name:28s} {n:5d} qubits {best * 1e3:9.3f} ms  {outcome}")
    for n in args.steps:
        for name, call in drive_kernels(n).items():
            best, outcome = time_kernel(call, args.repeats)
            layers.append({"kernel": name, "n_steps": n, "best_s": best, "outcome": outcome})
            print(f"{name:28s} {n:7d} steps {best * 1e3:8.3f} ms  {outcome}")
    with tempfile.TemporaryDirectory() as tmp:
        script_path = Path(tmp, "all_h.gates")
        script_path.write_text(ALL_H_TEXT, encoding="utf-8")
        for n in args.shots:
            for name, call in shot_kernels(n, str(script_path)).items():
                best, outcome = time_kernel(call, args.repeats)
                peak = peak_mb(call)
                layers.append({"kernel": name, "n_shots": n, "best_s": best, "peak_mb": peak,
                               "outcome": outcome})
                print(f"{name:28s} {n:7d} shots {best * 1e3:8.3f} ms  {peak:7.2f} MB  {outcome}")
    report = {
        "machine": machine(),
        "point": {"delta": PARAMS.delta, "mu": PARAMS.mu, "chi": PARAMS.chi, "k_max": K_MAX},
        "repeats": args.repeats,
        "layers": layers,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
