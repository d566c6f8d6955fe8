"""Same-bytes digest: a sha256 of every output the benchmark inputs and the shipped configs give.

    python bench/digest.py [--seeds 1 2 3 9001] [--workload W ...] [--limit N]
                           [--against TREE [--expect NAME ...] [--rounds N]]

The inputs are configs/*.cfg, then every scenario of the workloads of perfbench/workloads.py
(read-only; all, or those --workload names) at each seed, then their known-defect probes;
--limit N keeps the first N.  load_cli loads the src/chiralqubit next to this file under its own
package name, and invoke runs each input through its cli.main twice, with --out and to stdout,
in a scratch directory with relative paths, so a message that names a file names the same file
on every tree.  Each invocation prints one JSON line: the input's name and mode, the exit code
(or the name of an escaped exception) and the sha256 of stdout, stderr and the output file
(null if none).  The BLAS and OpenMP pools get one thread, as in perfbench/run.py, unless set.

--against TREE loads TREE/src/chiralqubit the same way, in this process, runs each invocation
on both trees back to back, the tree that goes first alternating from one to the next, prints
the name and mode of every invocation whose line differs and exits 1 if any does.  --expect
NAME (repeatable) lets the invocations of input NAME differ: only other differences fail, and
an expected name that did not differ is reported.  A NAME that is not an input, or a tree that
cannot be loaded, is a usage error.  Both trees run with this process's environment: to
compare two settings, diff the JSON lines of two runs.

The --out calls of the workload scenarios are timed as they are checked; --rounds N adds N
passes over them that only time.  After the byte verdict, which alone sets the exit code, it
prints per workload each side's wall (a round's sum, median over the rounds), p50 and p90 of
every timed call, then the per-scenario ratio this/against (a scenario's median time on this
tree over its median on TREE): the median over the scenarios and over each kind of scenario.
Without --rounds a line under the header says that the per-kind ratios need it: one call per
side swings a sub-millisecond kind by 30%.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402


def inputs(seeds: list[int], chosen: list[str]) -> list[tuple[str, str, str, str | None]]:
    """(name, subcommand, config text, gate script or None) of every input, in a fixed order:
    the configs, then the scenarios and probes of the chosen workloads."""
    out = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        sub = "chain" if path.stem.endswith("chain") else path.stem
        out.append((f"configs/{path.name}", sub, path.read_text(encoding="utf-8"), None))
    scenarios = [(f"{workload}/{seed}/{sc.name}", sc)
                 for workload, generate in workloads.GENERATORS.items() if workload in chosen
                 for seed in seeds for sc in generate(seed)]
    scenarios += [(f"{workload}/defect/{defect.scenario.name}", defect.scenario)
                  for workload, defects in workloads.KNOWN_DEFECTS.items() if workload in chosen
                  for defect in defects]
    return out + [(name, sc.sub, sc.config_text(None if sc.script is None else "script.gates"),
                   sc.script) for name, sc in scenarios]


def at_least(low: int):
    """An argparse type: an integer of at least low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


@contextlib.contextmanager
def workdir():
    """A scratch directory, on sys.path and the current directory while the block runs, that
    holds a copy of configs/ (the gate scripts the configs name)."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(ROOT / "configs", Path(work, "configs"))
        sys.path.insert(0, work)
        os.chdir(work)
        try:
            yield Path(work)
        finally:
            os.chdir(here)
            sys.path.remove(work)


def load_cli(tree: Path, package: str, scratch: Path):
    """The cli module of tree's src/chiralqubit, copied into scratch (on sys.path) and imported
    as package, so trees loaded under different names share no module state.  A tree that
    cannot be loaded ends the program with exit code 2 and one error line that names it."""
    try:
        shutil.copytree(tree / "src" / "chiralqubit", scratch / package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        importlib.invalidate_caches()
        return importlib.import_module(f"{package}.cli")
    except Exception as error:  # noqa: BLE001 - any failure of the tree's import is reported
        print(f"error: cannot load {tree}: {type(error).__name__}: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def invoke(cli, case, out: bool) -> tuple[float, tuple]:
    """Seconds one cli.main call on case takes, with --out if out, and what it gave: exit code,
    escaped exception, stdout, stderr and the --out file's bytes.  The call reads run.cfg and
    script.gates, written in the current directory; run.out is removed."""
    _, sub, config, script = case
    Path("run.cfg").write_text(config, encoding="utf-8")
    if script is not None:
        Path("script.gates").write_text(script, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = cli.main([sub, "--config", "run.cfg", *(["--out", "run.out"] if out else [])])
        except SystemExit as stop:
            code = stop.code
        except Exception as error:  # noqa: BLE001 - an escaped error is part of the output
            exc = type(error).__name__
        seconds = perf_counter() - start
    written = Path("run.out")
    data = written.read_bytes() if written.exists() else None
    written.unlink(missing_ok=True)
    return seconds, (code, exc, stdout.getvalue(), stderr.getvalue(), data)


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run(clis: list, cases, timed: dict, rounds: int = 0) -> list[list[dict]]:
    """Each tree's lines, one per invocation of each case, run in the current directory.  The
    trees run each invocation back to back, the one that goes first alternating from one to the
    next.  The seconds of the --out call of each case k in timed go to timed[k][tree], then
    those of `rounds` passes over those cases that only time."""
    lines = [[] for _ in clis]
    for k, case in enumerate(cases):
        for m, mode in enumerate(("out", "stdout")):
            for i in sorted(range(len(clis)), reverse=(k + m) % 2):
                took, (code, exc, out, err, data) = invoke(clis[i], case, mode == "out")
                lines[i].append({"name": case[0], "mode": mode, "exit": code, "exception": exc,
                                 "stdout": _sha(out.encode()), "stderr": _sha(err.encode()),
                                 "file": _sha(data)})
                if k in timed and mode == "out":
                    timed[k][i].append(took)
    for r in range(1, rounds + 1):
        for k in timed:
            for i in sorted(range(len(clis)), reverse=(r + k) % 2):
                timed[k][i].append(invoke(clis[i], cases[k], True)[0])
    return lines


def report(workload: str, names: list[str], times: list) -> list[str]:
    """The timing lines of a workload's scenarios, from their seconds [scenario][side][round]."""
    lines = []
    for i, side in enumerate(("this", "against")):
        calls = [t for scenario in times for t in scenario[i]]
        wall = statistics.median(map(sum, zip(*(scenario[i] for scenario in times))))
        lines.append(f"{workload} {side}: wall {wall:.4f} s  "
                     f"p50 {1e3 * np.percentile(calls, 50):.3f} ms  "
                     f"p90 {1e3 * np.percentile(calls, 90):.3f} ms")
    ratios = {}  # by kind of scenario: chain-rf12 of evolve012-chain-rf12
    for name, (ours, theirs) in zip(names, times):
        ratios.setdefault(re.sub(r"^[a-z-]+\d+-", "", name), []).append(
            statistics.median(ours) / statistics.median(theirs))
    every = [ratio for group in ratios.values() for ratio in group]
    lines.append(f"{workload} this/against per scenario: median {statistics.median(every):.3f} "
                 f"over {len(every)} scenarios")
    for name, group in sorted(ratios.items()):
        lines.append(f"  {name:28s} {statistics.median(group):.3f}  ({len(group)})")
    return lines


def parser() -> argparse.ArgumentParser:
    """The command line main reads."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 9001])
    parser.add_argument("--workload", nargs="+", choices=list(workloads.GENERATORS),
                        default=list(workloads.GENERATORS),
                        help="the workloads whose scenarios and probes are inputs")
    parser.add_argument("--limit", type=at_least(1), default=None, help="keep the first N inputs")
    parser.add_argument("--against", type=Path, help="a tree whose src/ to compare with")
    parser.add_argument("--expect", action="append", default=[], metavar="NAME",
                        help="an input whose invocations may differ (with --against)")
    parser.add_argument("--rounds", type=at_least(0), default=None,
                        help="timing-only passes over the workload scenarios (with --against)")
    return parser


def main(argv=None) -> int:
    usage = parser()
    args = usage.parse_args(argv)
    for option in ("expect", "rounds"):
        if getattr(args, option) not in ([], None) and args.against is None:
            usage.error(f"--{option} needs --against")
    cases = inputs(args.seeds, args.workload)[:args.limit]
    unknown = sorted(set(args.expect) - {name for name, *_ in cases})
    if unknown:
        usage.error(f"--expect names no input: {', '.join(unknown)}")
    trees = [ROOT] + ([] if args.against is None else [args.against.resolve()])
    # the workload scenarios, neither configs nor probes: seconds [side][round] of each
    timed = {k: [[] for _ in trees] for k, (name, *_) in enumerate(cases)
             if name.split("/")[0] in args.workload and name.split("/")[1] != "defect"}
    with workdir() as scratch:
        clis = [load_cli(tree, f"chiralqubit_{side}", scratch) for side, tree in zip("ab", trees)]
        lines = run(clis, cases, timed, args.rounds or 0)
    if args.against is None:
        for line in lines[0]:
            print(json.dumps(line))
        return 0

    ours, theirs = lines
    differ = [a for a, b in zip(ours, theirs) if a != b]
    for line in differ:
        expected = " as expected" if line["name"] in args.expect else ""
        print(f"differs{expected}: {line['name']} ({line['mode']})")
    for name in sorted(set(args.expect) - {line["name"] for line in differ}):
        print(f"expected to differ, but the same: {name}")
    print(f"{len(ours) - len(differ)} of {len(ours)} invocations the same")
    if timed:
        print(f"# this = {ROOT}, against = {trees[1]}; {1 + (args.rounds or 0)} timed rounds")
        if not args.rounds:
            print("# one timed call per side and scenario: per-kind ratios need --rounds N")
    for workload in args.workload:
        mine = [k for k in timed if cases[k][0].startswith(f"{workload}/")]
        if mine:
            print("\n".join(report(workload, [cases[k][0].rsplit("/", 1)[1] for k in mine],
                                   [timed[k] for k in mine])))
    return 1 if any(line["name"] not in args.expect for line in differ) else 0


if __name__ == "__main__":
    sys.exit(main())
