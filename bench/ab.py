"""In-process interleaved A/B timing of two trees' command lines on the benchmark's scenarios.

    python bench/ab.py TREE_A TREE_B [--workload W ...] [--seeds 1 2 3] [--rounds 7] [--limit N]

Both trees run in this one process, loaded by digest.load_cli under the package names
chiralqubit_a and chiralqubit_b, each call timed by digest.invoke in a scratch directory; the
scenario lists come from perfbench/workloads.py, read-only.  BLAS and OpenMP pools are pinned
to one thread, as perfbench/run.py pins them.  Every scenario of each workload and seed (the
first N of each with --limit N) runs through both trees' cli.main with --out, one tree right
after the other, the tree that goes first alternating from scenario to scenario and from round
to round, so a drift of the machine's speed falls on both sides alike.  A first round warms
both trees up untimed; --rounds timed rounds follow.

Per workload it prints, for each side, wall (the sum of a round's scenario times, median over
the rounds), p50 and p90 (percentiles of every timed call), then the per-scenario ratio B/A
(each scenario's median time on B over its median on A): the median over the workload's
scenarios and over each kind of scenario (the name without its workload and index).  It does
not compare outputs: python bench/digest.py --against checks the bytes, on more inputs.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import digest  # noqa: E402

SIDES = ("a", "b")


def run_workload(clis: dict, cases, rounds: int) -> dict:
    """Times per side, [round][scenario], over the timed rounds."""
    times = {side: [[0.0] * len(cases) for _ in range(rounds + 1)] for side in SIDES}
    for r in range(rounds + 1):
        for k, case in enumerate(cases):
            for side in SIDES if (r + k) % 2 == 0 else SIDES[::-1]:
                times[side][r][k] = digest.invoke(clis[side], case, True)[0]
    return {side: series[1:] for side, series in times.items()}


def kind(name: str) -> str:
    """The scenario's name without its workload and index: evolve012-chain-rf12 -> chain-rf12."""
    return re.sub(r"^[a-z-]+\d+-", "", name)


def report(workload: str, cases, times: dict) -> list[str]:
    lines = []
    for side in SIDES:
        calls = [t for series in times[side] for t in series]
        wall = statistics.median(sum(series) for series in times[side])
        lines.append(f"{workload} {side.upper()}: wall {wall:.4f} s  "
                     f"p50 {1e3 * np.percentile(calls, 50):.3f} ms  "
                     f"p90 {1e3 * np.percentile(calls, 90):.3f} ms")
    ratios = {}
    for k, (name, *_) in enumerate(cases):
        a, b = (statistics.median(series[k] for series in times[side]) for side in SIDES)
        ratios.setdefault(kind(name), []).append(b / a)
    every = [ratio for group in ratios.values() for ratio in group]
    lines.append(f"{workload} B/A per scenario: median {statistics.median(every):.3f} "
                 f"over {len(every)} scenarios")
    for name, group in sorted(ratios.items()):
        lines.append(f"  {name:28s} {statistics.median(group):.3f}  ({len(group)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, help="tree A (the parent, say)")
    parser.add_argument("tree_b", type=Path, help="tree B (the change)")
    parser.add_argument("--workload", nargs="+", choices=list(digest.workloads.GENERATORS),
                        default=list(digest.workloads.GENERATORS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--rounds", type=digest.positive, default=7,
                        help="timed rounds after the warm-up")
    parser.add_argument("--limit", type=digest.positive, default=None,
                        help="keep the first N scenarios of each workload and seed")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.tree_a, args.tree_b)]
    with digest.workdir() as scratch:
        clis = {side: digest.load_cli(tree, f"chiralqubit_{side}", scratch)
                for side, tree in zip(SIDES, trees)}
        print(f"# A = {args.tree_a}, B = {args.tree_b}; {args.rounds} timed rounds")
        for workload in args.workload:
            cases = [digest.from_scenario(sc.name, sc) for seed in args.seeds
                     for sc in digest.workloads.GENERATORS[workload](seed)[:args.limit]]
            times = run_workload(clis, cases, args.rounds)
            print("\n".join(report(workload, cases, times)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
