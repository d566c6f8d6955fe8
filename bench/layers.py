"""Layer timer for the chirality, register, driven-dynamics and shot kernels.

    python bench/layers.py --out BENCH.json [--sizes 128 256 512 1024] [--qubits 4 12]
                           [--steps 1000 10000] [--shots 100 5000] [--repeats 7]

It loads the src/chiralqubit next to it with digest.load_cli into digest's scratch directory,
which also holds the scripts it writes; importing digest pins the BLAS and OpenMP pools to one
thread unless the environment sets them.  A relative --out is taken from the calling directory.

At every grid size n it times kspace.texture_field on the first octant block of the quadrature
(chirality._block_rows(m, m) rows of the quadrant's m = n // 2 nodes per side, the widest block
the estimators request), the three level kernels chirality._cap_closure,
chirality._quadrature_sum and chirality._plaquette_sum on a mesh (and, for the plaquette, mesh
lines) built outside the timed call, chirality.chern_quadrature and chirality.chern_plaquette
(each one grid level through chirality._level, which also checks the inputs and builds the mesh,
lines and cap closure), and chirality.cross_validate from n_grid_start = n, one _level call per
grid it tries, escalating as the CLI does (at 32^2 it goes on to 64^2), all at the point of
configs/chern.cfg (delta 1, mu 1, chi +1, k_max 8).  At every register size n it times, on one
fixed random n-qubit state and around the middle qubit q = n // 2: register.apply_single_gate (H
on q), register.exchange_pulse (half pulse on the link q-1, q), register.cnot_composed (control
q-1, target q), register.measure (of q, one persistent generator), register.selective_rf_pulse
(a pi pulse of amp 0.05 on q at dt 0.01, biases 0.5 * (k + 1)) and register.initialize_reset of
q on the all-|-1> basis state, to -1 (a no-op) and to +1 (a flip), and cli.run_chain on the RF
chain of the evolve benchmark at n qubits (n RESETs, H on q and on q + 1 mod n, an RF pulse of
amp 0.035 and duration 9.9 on q, the two H again and a MEASURE of q; one shot at field step 0.25
and dt 0.025, so 396 RF steps).  At two fixed shapes it times dynamics._propagator: a scalar
call (one closed step at delta 0.5, dt 0.005) and the (12, 400) step grid of a 12-qubit RF pulse
(biases 0.25 * (k + 1), drive amp 0.035, dt 0.025), the phase-free e0 = 0 path both take; and
dynamics._total_product on the (12, 396) step stack of the same pulse, as long as the RF
chain's.  At every step count n it times dynamics.drive_evolve (from |-1>) and
dynamics.drive_propagator over n steps of dt 0.005 of the resonant drive of configs/rabi.cfg
(epsilon 1, amp 0.05, omega 2), dynamics.drive_evolve of the closed qubit at delta 0.5 (drive
amp 0, from |+1>, n samples after the first: the path of beat), dynamics._drive_propagators
over n steps of the 12-bias RF pulse above (its biases, amp and dt, omega 0.5; the row
dynamics._drive_propagators.rf), dynamics.evolve_closed composed n times over one step of dt
0.005 (from |+1>; the exact propagator has no step loop, so the row gives its cost per call) and
dynamics.evolve_damped over n steps of dt 0.005 (from |+1>) at the point of configs/damp.cfg
(delta 0.5, gamma 0.05).  At the same step counts it times the trajectory CSV writer, cli._rows
written through cli._emit to a sink that drops the text, on the n + 1 rows of a beat table (t,
p_diff, pop_plus, pop_minus of the closed qubit at delta 0.5, dt 0.005) and of a damp table (the
same plus purity, from the damped run above); the columns are built outside the timed call.  At
two fixed table shapes it times the writer alone, _floatcsv.csv_block, on one block as cli._rows
hands it over: a 4,096-row damp table (a full block of dynamics.BLOCK rows, 5 columns) and a
1,001-row beat table (4 columns); these rows also give the time per value, ns_per_value.  At
every shot count n it times gatescript.run_script over n shots of the 12-qubit script that puts
every qubit through H and then measures them all (seed 1), the widest outcome tree the register
allows, and cli.run_chain on the same script, read from a scratch file, with the chain defaults:
the shot engine plus the chain's output lines.  At last it times a command line's fixed cost:
cli.main on "device --config configs/device.cfg --out FILE", the cheapest full call (argv parse,
config read, sizing report, atomic write), and cli._parse_argv alone on the same argv.  Each
kernel runs once to warm up and once more to size a batch of back-to-back calls that lasts at
least MIN_BATCH_S, so microsecond kernels are timed above the clock's noise; then --repeats
batches run and the best time per call counts.  Around those batches the row reads the
process's minor page faults (resource.getrusage) and records their mean per call as
minflt_per_call: a heap that the allocator trims between calls and faults in again shows there.
A kernel that raises NotConverged (the coarsest grids) is timed all the same and its outcome
says so.  Each grid, step and shot kernel runs once more, untimed, under tracemalloc, and its
row records that call's peak of traced allocations as peak_mb (numpy arrays included).  Batched
calls are warm: the file cache and the CPU's caches stay primed from one call to the next, so a
row understates a cold path, most of all for the command line rows.  For figures measured call
by call, in sequence with other work, use bench/digest.py --against TREE --rounds N.

The JSON file holds the timings and the machine facts: nproc, Python, numpy, the BLAS numpy was
built with, and the thread environment variables.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import sys
import tracemalloc
import types
from pathlib import Path
from time import perf_counter

import digest  # pins the thread pools before numpy loads

import numpy as np

CONFIGS = digest.ROOT / "configs"
K_MAX = 8.0
RF_AMP, RF_DT, FIELD_STEP = 0.05, 0.01, 0.5
DRIVE_DT = 0.005
MIN_BATCH_S = 2e-3
RF_CHAIN_AMP, RF_CHAIN_DURATION, RF_CHAIN_STEP, RF_CHAIN_DT = 0.035, 9.9, 0.25, 0.025


def load(scratch: Path) -> types.SimpleNamespace:
    """The modules of the src/chiralqubit next to this file, loaded with digest.load_cli into
    scratch, and the fixed inputs built from them: the package the rows are written against."""
    package = digest.load_cli(digest.ROOT, "chiralqubit_a", scratch).__package__
    pkg = types.SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}") for name in
                                   ("_floatcsv", "chirality", "cli", "dynamics", "gatescript",
                                    "kspace", "register")})
    pkg.params = pkg.kspace.GapParams(1.0, 1.0, +1)
    pkg.drive = pkg.dynamics.TwoLevelParams(epsilon=1.0, drive_amp=0.05, drive_freq=2.0)
    pkg.closed = pkg.dynamics.TwoLevelParams(delta=0.5)
    pkg.rf = pkg.dynamics.TwoLevelParams(drive_amp=RF_CHAIN_AMP, drive_freq=2.0 * RF_CHAIN_STEP)
    pkg.damped = pkg.dynamics.TwoLevelParams(delta=0.5, gamma=0.05)
    return pkg


def _block_texture(pkg, n: int):
    """The texture of the first octant block of the quadrature, the widest block it requests."""
    xq = pkg.chirality._mesh(K_MAX, n)[0][n // 2:]
    rows = pkg.chirality._block_rows(len(xq), len(xq))
    return pkg.kspace.texture_field(xq[:rows, None], xq[None, :], pkg.params)


def grid_kernels(pkg, n: int) -> dict:
    """Zero-argument calls of the grid kernels at n_grid = n (level kernels on a prebuilt mesh)."""
    chirality, params = pkg.chirality, pkg.params
    x, h = chirality._mesh(K_MAX, n)
    lines = chirality._lines(params, x)
    return {
        "kspace.texture_field": lambda: _block_texture(pkg, n),
        "chirality._cap_closure": lambda: chirality._cap_closure(params, x),
        "chirality._quadrature_sum": lambda: chirality._quadrature_sum(params, x, h),
        "chirality._plaquette_sum": lambda: chirality._plaquette_sum(params, x, lines),
        "chirality.chern_quadrature": lambda: chirality.chern_quadrature(params, K_MAX, n),
        "chirality.chern_plaquette": lambda: chirality.chern_plaquette(params, K_MAX, n),
        "chirality.cross_validate": lambda: chirality.cross_validate(params, K_MAX, n),
    }


def rf_chain_text(n: int) -> str:
    """The evolve benchmark's RF chain on n qubits, addressed to the middle qubit."""
    q, spectator = n // 2, (n // 2 + 1) % n
    resets = "".join(f"RESET {k} {'+1' if k % 2 else '-1'}\n" for k in range(n))
    return resets + (f"GATE {q} H\nGATE {spectator} H\nRF {q} {RF_CHAIN_AMP} {RF_CHAIN_DURATION}\n"
                     f"GATE {q} H\nGATE {spectator} H\nMEASURE {q}\n")


def all_h_text(n: int) -> str:
    """The script that puts each of n qubits through H and then measures them all."""
    return "".join(f"GATE {q} H\n" for q in range(n)) + "".join(f"MEASURE {q}\n" for q in range(n))


def register_kernels(pkg, n: int, tmp: Path) -> dict:
    """Zero-argument calls of the register kernels on an n-qubit state (n >= 2), of the reset on
    an n-qubit basis state, and of the chain subcommand on the n-qubit RF chain, its script
    written to the directory tmp."""
    register = pkg.register
    rng = np.random.default_rng(0)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = register.RegisterState(n, amps / np.linalg.norm(amps))
    basis = register.RegisterState.all_minus(n)
    q = n // 2
    link = register.CouplingLink(q - 1, q)
    profile = register.FieldProfile(tuple(FIELD_STEP * (k + 1) for k in range(n)))
    draws = np.random.default_rng(1)
    script_path = tmp / f"rf{n}.gates"
    script_path.write_text(rf_chain_text(n), encoding="utf-8")
    chain = {**pkg.cli._coerce("chain", {}), "script_path": str(script_path), "seed": 1,
             "epsilon": RF_CHAIN_STEP, "dt": RF_CHAIN_DT}
    return {
        "register.apply_single_gate":
            lambda: register.apply_single_gate(state, q, register.SYMMETRIC),
        "register.exchange_pulse": lambda: register.exchange_pulse(state, link, math.pi / 2.0),
        "register.cnot_composed": lambda: register.cnot_composed(state, q - 1, q, link),
        "register.measure": lambda: register.measure(state, q, draws),
        "register.selective_rf_pulse": lambda: register.selective_rf_pulse(
            state, profile, q, RF_AMP, math.pi / RF_AMP, RF_DT),
        "register.initialize_reset.noop": lambda: register.initialize_reset(basis, q, -1),
        "register.initialize_reset.flip": lambda: register.initialize_reset(basis, q, +1),
        "cli.run_chain.rf": lambda: collections.deque(pkg.cli.run_chain(chain), maxlen=0),
    }


def _rf_grid(biases: int, steps: int) -> tuple:
    """The drive x of each step and the bias of each qubit of an RF pulse on the chain."""
    mid = (np.arange(steps) + 0.5) * RF_CHAIN_DT
    eps = RF_CHAIN_STEP * (np.arange(biases) + 1.0)
    return RF_CHAIN_AMP * np.cos(2.0 * RF_CHAIN_STEP * mid), eps


def propagator_kernels(pkg, shape: tuple) -> dict:
    """A zero-argument call of dynamics._propagator at the output shape (before (2, 2))."""
    propagator = pkg.dynamics._propagator
    if shape == ():
        return {"dynamics._propagator": lambda: propagator(0.0, -pkg.closed.delta, 0.0, DRIVE_DT)}
    x, eps = _rf_grid(*shape)
    return {"dynamics._propagator": lambda: propagator(0.0, x, eps[:, None], RF_CHAIN_DT)}


def product_kernels(pkg, shape: tuple) -> dict:
    """A zero-argument call of dynamics._total_product on the (biases, steps) step stack of an RF
    pulse, built outside the timed call."""
    x, eps = _rf_grid(*shape)
    stack = pkg.dynamics._propagator(0.0, x, eps[:, None], RF_CHAIN_DT)
    return {"dynamics._total_product": lambda: pkg.dynamics._total_product(stack)}


def _closed_steps(pkg, n: int):
    state = pkg.dynamics.QubitState.plus()
    for _ in range(n):
        state = pkg.dynamics.evolve_closed(state, pkg.closed, DRIVE_DT)
    return state


class _Sink(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def _write_table(pkg, header: str, columns) -> None:
    """The CSV rows as the beat and damp subcommands write them, to a sink that drops them."""
    with contextlib.redirect_stdout(_Sink()):
        pkg.cli._emit(pkg.cli._rows(header, *columns), None)


def _beat_table(pkg, n: int) -> tuple:
    """t, p_diff, pop_plus and pop_minus of the closed qubit over n steps, from |+1>."""
    start = pkg.dynamics.QubitState.plus()
    times, amps = pkg.dynamics.drive_evolve(start, pkg.closed, n * DRIVE_DT, DRIVE_DT)
    plus, minus = np.abs(amps[:, 1]) ** 2, np.abs(amps[:, 0]) ** 2
    return times, plus - minus, plus, minus


def _damp_table(pkg, rho, n: int) -> tuple:
    """The same columns and the purity of the damped qubit over n steps, from rho."""
    times, rhos = pkg.dynamics.evolve_damped(rho, pkg.damped, n * DRIVE_DT, DRIVE_DT)
    plus, minus = rhos[:, 1, 1].real, rhos[:, 0, 0].real
    return times, plus - minus, plus, minus, np.einsum("tij,tji->t", rhos, rhos).real


def step_kernels(pkg, n: int) -> dict:
    """Zero-argument calls of the qubit propagation kernels and the CSV writer over n steps."""
    dynamics, t_max = pkg.dynamics, n * DRIVE_DT
    rho = dynamics.DensityMatrix.from_state(dynamics.QubitState.plus())
    beat, damp = _beat_table(pkg, n), _damp_table(pkg, rho, n)
    _, eps = _rf_grid(pkg.register.MAX_QUBITS, 0)
    return {
        "dynamics.drive_evolve":
            lambda: dynamics.drive_evolve(dynamics.QubitState.minus(), pkg.drive, t_max, DRIVE_DT),
        "dynamics.drive_evolve.closed":
            lambda: dynamics.drive_evolve(dynamics.QubitState.plus(), pkg.closed, t_max, DRIVE_DT),
        "dynamics.drive_propagator": lambda: dynamics.drive_propagator(pkg.drive, t_max, DRIVE_DT),
        "dynamics._drive_propagators.rf": lambda: dynamics._drive_propagators(
            pkg.rf, n * RF_CHAIN_DT, RF_CHAIN_DT, eps),
        "dynamics.evolve_closed": lambda: _closed_steps(pkg, n),
        "dynamics.evolve_damped": lambda: dynamics.evolve_damped(rho, pkg.damped, t_max, DRIVE_DT),
        "cli._rows.beat": lambda: _write_table(pkg, "t,p_diff,pop_plus,pop_minus", beat),
        "cli._rows.damp": lambda: _write_table(pkg, "t,p_diff,pop_plus,pop_minus,purity", damp),
    }


def writer_kernels(pkg, shape: tuple) -> dict:
    """A zero-argument call of the CSV block writer on a (rows, columns) table: the damp table
    (5 columns) or the beat table (4 columns) over rows - 1 steps."""
    rows, columns = shape
    rho = pkg.dynamics.DensityMatrix.from_state(pkg.dynamics.QubitState.plus())
    table = _damp_table(pkg, rho, rows - 1) if columns == 5 else _beat_table(pkg, rows - 1)
    table = np.column_stack(table)
    return {"_floatcsv.csv_block": lambda: pkg._floatcsv.csv_block(table)}


def shot_kernels(pkg, n: int, script_path: Path) -> dict:
    """Zero-argument calls of the shot engine and the chain subcommand over n shots of the
    script at script_path."""
    script = pkg.gatescript.parse_script(script_path.read_text(encoding="utf-8"))
    config = {**pkg.cli._coerce("chain", {}), "script_path": str(script_path), "seed": 1,
              "shots": n}
    return {
        "gatescript.run_script": lambda: pkg.gatescript.run_script(script, seed=1, shots=n),
        "cli.run_chain": lambda: collections.deque(pkg.cli.run_chain(config), maxlen=0),
    }


def call_kernels(pkg, subcommand: str, tmp: Path) -> dict:
    """Zero-argument calls of a full command line, the subcommand on its configs/ file with
    --out to a file in the directory tmp, and of its argv parse alone."""
    cli = pkg.cli
    argv = [subcommand, "--config", str(CONFIGS / f"{subcommand}.cfg"), "--out",
            str(tmp / "call.out")]
    if cli.main(argv) != 0:
        raise SystemExit(f"error: the command line {' '.join(argv)} failed")
    return {"cli.main": lambda: cli.main(argv), "cli._parse_argv": lambda: cli._parse_argv(argv)}


def _outcome(pkg, call) -> str:
    try:
        result = call()
    except pkg.chirality.NotConverged as exc:
        return f"NotConverged (raw {exc.result.raw:.6g})"
    return f"N = {result.n_integer}" if hasattr(result, "n_integer") else "ok"


def time_kernel(pkg, call, repeats: int) -> tuple[float, float, str]:
    """Best wall time per call over `repeats` batches, minor page faults per call, the outcome."""
    outcome = _outcome(pkg, call)
    start = perf_counter()
    _outcome(pkg, call)
    number = max(1, math.ceil(MIN_BATCH_S / (perf_counter() - start)))
    best = float("inf")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(number):
            _outcome(pkg, call)
        best = min(best, (perf_counter() - start) / number)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best, faults / (repeats * number), outcome


def peak_mb(pkg, call) -> float:
    """Peak traced allocation of one call, in MB (untimed: tracing slows allocation)."""
    tracemalloc.start()
    try:
        _outcome(pkg, call)
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
        "thread_env": {var: os.environ.get(var) for var in digest.THREAD_VARS},
    }


def parser() -> argparse.ArgumentParser:
    """The command line main reads."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512, 1024])
    parser.add_argument("--qubits", type=int, nargs="+", default=[4, 12])
    parser.add_argument("--steps", type=int, nargs="+", default=[1000, 10000])
    parser.add_argument("--shots", type=int, nargs="+", default=[100, 5000])
    parser.add_argument("--repeats", type=digest.at_least(1), default=7)
    return parser


def main(argv=None) -> int:
    usage = parser()
    args = usage.parse_args(argv)
    layers = []
    with digest.workdir() as tmp:  # the current directory until the report is written
        pkg = load(tmp)
        max_qubits = pkg.register.MAX_QUBITS
        bounds = {"sizes": (32, pkg.chirality.MAX_GRID), "qubits": (2, max_qubits),
                  "steps": (1, pkg.dynamics.MAX_STEPS), "shots": (1, pkg.gatescript.MAX_SHOTS)}
        for option, (low, high) in bounds.items():
            values = getattr(args, option)
            if not low <= min(values) <= max(values) <= high:
                usage.error(f"every --{option} value must be in [{low}, {high}]")
        script_path = tmp / "all_h.gates"
        script_path.write_text(all_h_text(max_qubits), encoding="utf-8")
        # (size key, sizes, kernels of a package at one size, whether the row records peak_mb)
        tables = (("n_grid", args.sizes, grid_kernels, True),
                  ("n_qubits", args.qubits, lambda pkg, n: register_kernels(pkg, n, tmp), False),
                  ("shape", [(), (max_qubits, 400)], propagator_kernels, False),
                  ("shape", [(max_qubits, 396)], product_kernels, False),
                  ("n_steps", args.steps, step_kernels, True),
                  ("table", [(pkg.dynamics.BLOCK, 5), (1001, 4)], writer_kernels, False),
                  ("n_shots", args.shots, lambda pkg, n: shot_kernels(pkg, n, script_path), True),
                  ("call", ["device"], lambda pkg, name: call_kernels(pkg, name, tmp), False))
        for key, sizes, kernels, traced in tables:
            for n in sizes:
                for name, call in kernels(pkg, n).items():
                    best, faults, outcome = time_kernel(pkg, call, args.repeats)
                    row = {"kernel": name, key: n, "best_s": best, "minflt_per_call": faults}
                    if traced:
                        row["peak_mb"] = peak_mb(pkg, call)
                    if key == "table":
                        row["ns_per_value"] = best * 1e9 / (n[0] * n[1])
                    layers.append({**row, "outcome": outcome})
                    peak = f"  {row['peak_mb']:7.2f} MB" if traced else ""
                    print(f"{name:30s} {key} {n!s:>9} {best * 1e3:9.3f} ms {faults:9.1f} flt{peak}"
                          f"  {outcome}")
    params = pkg.params
    report = {
        "machine": machine(),
        "point": {"delta": params.delta, "mu": params.mu, "chi": params.chi, "k_max": K_MAX},
        "repeats": args.repeats,
        "layers": layers,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
