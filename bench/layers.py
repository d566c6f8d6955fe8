"""Layer timer for the chirality kernels.

    python bench/layers.py --out BENCH.json [--sizes 128 1024] [--repeats 7]

It imports the package from the src/ directory next to it.  At every size n
it times kspace.texture_field on the n x n mesh, chirality.chern_quadrature,
chirality.chern_plaquette, and chirality.cross_validate held to that one grid
(n_grid_start = n_grid_max = n), all at the point of configs/chern.cfg
(delta 1, mu 1, chi +1, k_max 8).  Each kernel runs once to warm up, then
--repeats times; the best time counts.  A kernel that raises NotConverged
(the coarsest grids) is timed all the same and its outcome says so.

The JSON file holds the timings and the machine facts: nproc, Python, numpy,
the BLAS numpy was built with, and the thread environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chiralqubit.chirality import (  # noqa: E402
    NotConverged,
    _mesh,
    chern_plaquette,
    chern_quadrature,
    cross_validate,
)
from chiralqubit.kspace import GapParams, texture_field  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PARAMS = GapParams(1.0, 1.0, +1)
K_MAX = 8.0


def _mesh_texture(n: int):
    x, _ = _mesh(K_MAX, n)
    return texture_field(x[:, None], x[None, :], PARAMS)


KERNELS = {
    "kspace.texture_field": _mesh_texture,
    "chirality.chern_quadrature": lambda n: chern_quadrature(PARAMS, K_MAX, n),
    "chirality.chern_plaquette": lambda n: chern_plaquette(PARAMS, K_MAX, n),
    "chirality.cross_validate": lambda n: cross_validate(PARAMS, K_MAX, n, n),
}


def _outcome(kernel, n: int) -> str:
    try:
        result = kernel(n)
    except NotConverged as exc:
        return f"NotConverged (raw {exc.result.raw:.6g})"
    return f"N = {result.n_integer}" if hasattr(result, "n_integer") else "ok"


def time_kernel(kernel, n: int, repeats: int) -> tuple[float, str]:
    """Best wall time of `repeats` calls after one warm-up call, and the outcome."""
    outcome = _outcome(kernel, n)
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _outcome(kernel, n)
        best = min(best, perf_counter() - start)
    return best, outcome


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
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 32:
        parser.error("--repeats must be >= 1 and every size >= 32")

    layers = []
    for n in args.sizes:
        for name, kernel in KERNELS.items():
            best, outcome = time_kernel(kernel, n, args.repeats)
            layers.append({"kernel": name, "n_grid": n, "best_s": best, "outcome": outcome})
            print(f"{name:28s} {n:5d}^2  {best * 1e3:9.3f} ms  {outcome}")
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
