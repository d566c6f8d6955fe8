"""Same-bytes digest: a sha256 of every output the benchmark inputs and the shipped configs give.

    python bench/digest.py [--seeds 1 2 3 9001] [--limit N] [--against TREE] [--expect NAME ...]

The inputs are configs/*.cfg, then every scenario of the workloads of perfbench/workloads.py
(read-only) at each seed, then their known-defect probes; --limit N keeps the first N.
load_cli loads the src/chiralqubit next to this file under its own package name, and invoke
runs each input through its cli.main twice, with --out and to stdout, in a scratch directory
with relative paths, so a message that names a file names the same file on every tree.  Each
invocation prints one JSON line: the input's name and mode, the exit code (or the name of an
escaped exception) and the sha256 of stdout, stderr and the output file (null if none).

--against TREE loads TREE/src/chiralqubit the same way, in this process, runs the same inputs,
prints the name and mode of every invocation whose line differs and exits 1 if any does.
--expect NAME (repeatable) lets the invocations of input NAME differ: only other differences
fail, and an expected name that did not differ is reported.  A NAME that is not an input, or a
tree that cannot be loaded, is a usage error.  Both trees run with this process's environment;
to compare two settings, diff the JSON lines of two runs without --against.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def from_scenario(name: str, sc) -> tuple[str, str, str, str | None]:
    """The input tuple of workload scenario sc, named name (see inputs)."""
    return name, sc.sub, sc.config_text(None if sc.script is None else "script.gates"), sc.script


def inputs(seeds: list[int]) -> list[tuple[str, str, str, str | None]]:
    """(name, subcommand, config text, gate script or None) of every input, in a fixed order."""
    out = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        sub = "chain" if path.stem.endswith("chain") else path.stem
        out.append((f"configs/{path.name}", sub, path.read_text(encoding="utf-8"), None))
    out += [from_scenario(f"{workload}/{seed}/{sc.name}", sc)
            for workload, generate in workloads.GENERATORS.items()
            for seed in seeds for sc in generate(seed)]
    out += [from_scenario(f"{workload}/defect/{defect.scenario.name}", defect.scenario)
            for workload, defects in workloads.KNOWN_DEFECTS.items() for defect in defects]
    return out


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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


def run(cli, cases) -> list[dict]:
    """One line per invocation of each case, run in the current directory."""
    lines = []
    for case in cases:
        for mode in ("out", "stdout"):
            _, (code, exc, out, err, data) = invoke(cli, case, mode == "out")
            lines.append({"name": case[0], "mode": mode, "exit": code, "exception": exc,
                          "stdout": _sha(out.encode()), "stderr": _sha(err.encode()),
                          "file": _sha(data)})
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 9001])
    parser.add_argument("--limit", type=positive, default=None, help="keep the first N inputs")
    parser.add_argument("--against", type=Path, help="a tree whose src/ to compare with")
    parser.add_argument("--expect", action="append", default=[], metavar="NAME",
                        help="an input whose invocations may differ (with --against)")
    args = parser.parse_args(argv)
    if args.expect and args.against is None:
        parser.error("--expect needs --against")
    cases = inputs(args.seeds)[:args.limit]
    unknown = sorted(set(args.expect) - {name for name, *_ in cases})
    if unknown:
        parser.error(f"--expect names no input: {', '.join(unknown)}")
    trees = [ROOT] + ([] if args.against is None else [args.against.resolve()])
    with workdir() as scratch:
        clis = [load_cli(tree, f"chiralqubit_{side}", scratch) for side, tree in zip("ab", trees)]
        lines = [run(cli, cases) for cli in clis]
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
    return 1 if any(line["name"] not in args.expect for line in differ) else 0


if __name__ == "__main__":
    sys.exit(main())
