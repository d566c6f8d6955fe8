"""In-process interleaved A/B timing of two trees' command lines on the benchmark's scenarios.

    python bench/ab.py TREE_A TREE_B [--workload W ...] [--seeds 1 2 3] [--rounds 7] [--limit N]

Each tree's src/chiralqubit is copied into a scratch directory under its own package name
(chiralqubit_a, chiralqubit_b), so both trees run in this one process; the scenario lists come
from perfbench/workloads.py, read-only.  BLAS and OpenMP pools are pinned to one thread, as
perfbench/run.py pins them.  Every scenario of each workload and seed (the first N of each with
--limit N) runs through both trees' cli.main with --out, one tree right after the other and
the tree that goes first alternating from scenario to scenario and from round to round, so a
drift of the machine's speed falls on both sides alike.  A first round warms both trees up
untimed; --rounds timed rounds follow.

Per workload it prints, for each side, wall (the sum of a round's scenario times, median over
the rounds), p50 and p90 (percentiles of every timed call), then the per-scenario ratio B/A
(each scenario's median time on B over its median on A): the median over the workload's
scenarios and over each kind of scenario (the name without its workload and index).  Last
comes every scenario whose output differs between the trees (exit code, escaped exception,
stdout, stderr or the bytes of the --out file, from the warm-up round); the exit code is 1 if
any does.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SIDES = ("a", "b")


def load_cli(tree: Path, side: str, scratch: Path):
    """The cli module of tree's src/chiralqubit, imported as chiralqubit_<side>."""
    package = f"chiralqubit_{side}"
    shutil.copytree(tree / "src" / "chiralqubit", scratch / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.cli")


def prepare(scenarios, work: Path) -> list[list[str]]:
    """The argv of each scenario, its config and gate script written to work."""
    argvs = []
    for sc in scenarios:
        script = None
        if sc.script is not None:
            script = work / f"{sc.name}.gates"
            script.write_text(sc.script, encoding="utf-8")
        config = work / f"{sc.name}.cfg"
        config.write_text(sc.config_text(script and str(script)), encoding="utf-8")
        argvs.append([sc.sub, "--config", str(config), "--out", str(work / f"{sc.name}.out")])
    return argvs


def invoke(cli, argv: list[str]) -> tuple[float, tuple]:
    """Seconds one cli.main call takes, and what it gave: exit code, escaped exception, stdout,
    stderr and the --out file's bytes (the file is removed)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as error:  # noqa: BLE001 - an escaped error is part of the output
            exc = type(error).__name__
        elapsed = perf_counter() - start
    written = Path(argv[-1])
    data = written.read_bytes() if written.exists() else None
    if data is not None:
        written.unlink()
    return elapsed, (code, exc, out.getvalue(), err.getvalue(), data)


def run_workload(clis: dict, scenarios, argvs, rounds: int) -> tuple[dict, list[str]]:
    """Times per side, [round][scenario], over the timed rounds; the names whose outputs differ."""
    times = {side: [] for side in SIDES}
    differ = []
    for r in range(rounds + 1):
        for side in SIDES:
            times[side].append([])
        for k, (sc, argv) in enumerate(zip(scenarios, argvs)):
            order = SIDES if (r + k) % 2 == 0 else SIDES[::-1]
            outputs = {}
            for side in order:
                elapsed, outputs[side] = invoke(clis[side], argv)
                times[side][-1].append(elapsed)
            if r == 0 and outputs["a"] != outputs["b"]:
                differ.append(sc.name)
    return {side: series[1:] for side, series in times.items()}, differ


def kind(name: str) -> str:
    """The scenario's name without its workload and index: evolve012-chain-rf12 -> chain-rf12."""
    return re.sub(r"^[a-z-]+\d+-", "", name)


def report(workload: str, scenarios, times: dict, differ: list[str]) -> list[str]:
    lines = []
    for side in SIDES:
        calls = [t for series in times[side] for t in series]
        wall = statistics.median(sum(series) for series in times[side])
        lines.append(f"{workload} {side.upper()}: wall {wall:.4f} s  "
                     f"p50 {1e3 * np.percentile(calls, 50):.3f} ms  "
                     f"p90 {1e3 * np.percentile(calls, 90):.3f} ms")
    ratios = {}
    for k, sc in enumerate(scenarios):
        a, b = (statistics.median(series[k] for series in times[side]) for side in SIDES)
        ratios.setdefault(kind(sc.name), []).append(b / a)
    every = [ratio for group in ratios.values() for ratio in group]
    lines.append(f"{workload} B/A per scenario: median {statistics.median(every):.3f} "
                 f"over {len(every)} scenarios")
    for name, group in sorted(ratios.items()):
        lines.append(f"  {name:28s} {statistics.median(group):.3f}  ({len(group)})")
    lines += [f"{workload} differs: {name}" for name in differ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, help="tree A (the parent, say)")
    parser.add_argument("tree_b", type=Path, help="tree B (the change)")
    parser.add_argument("--workload", nargs="+", choices=list(workloads.GENERATORS),
                        default=list(workloads.GENERATORS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds after the warm-up")
    parser.add_argument("--limit", type=int, default=None,
                        help="keep the first N scenarios of each workload and seed")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        sys.path.insert(0, str(scratch))
        clis = {side: load_cli(tree.resolve(), side, scratch)
                for side, tree in zip(SIDES, (args.tree_a, args.tree_b))}
        print(f"# A = {args.tree_a}, B = {args.tree_b}; {args.rounds} timed rounds")
        for workload in args.workload:
            scenarios, argvs = [], []
            for seed in args.seeds:  # a directory per seed: scenario names repeat across seeds
                batch = workloads.GENERATORS[workload](seed)[:args.limit]
                work = scratch / workload / str(seed)
                work.mkdir(parents=True)
                scenarios += batch
                argvs += prepare(batch, work)
            times, differ = run_workload(clis, scenarios, argvs, args.rounds)
            print("\n".join(report(workload, scenarios, times, differ)), flush=True)
            status |= bool(differ)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
