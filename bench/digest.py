"""Same-bytes digest: a sha256 of every output the benchmark inputs and the shipped configs give.

    python bench/digest.py [--seeds 1 2 3 9001] [--limit N] [--src DIR] [--against TREE]
                           [--expect NAME ...]

It imports the package from the src/ directory next to it (or from --src DIR) and the scenario
lists from perfbench/workloads.py, read-only.  The inputs are configs/*.cfg, then every scenario
of the three workloads at each seed, then the workloads' known-defect probes.  Each runs through
cli.main twice, with --out and to stdout, inside a scratch directory and with relative paths,
so a message that names a file names the same file on every tree.  For each invocation it
prints one JSON line: the input's name and mode, the exit code (or the name of an exception
that escaped) and the sha256 of stdout, stderr and the output file (null when none was
written).  --limit N keeps the first N inputs.

--against TREE runs the same inputs on TREE/src in a subprocess, prints the name and mode of
every invocation whose line differs, and exits 1 if any does.  --expect NAME, which may be given
more than once, lets the invocations of input NAME differ: they are printed as expected, only
the other differences fail, and an expected name none of whose invocations differed is
reported; a NAME that is not an input is a usage error.  The subprocess inherits the
environment, so VAR=VALUE python bench/digest.py --against TREE runs both trees with VAR set.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def inputs(seeds: list[int]) -> list[tuple[str, str, str, str | None]]:
    """(name, subcommand, config text, gate script or None) of every input, in a fixed order."""
    out = []
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        sub = "chain" if path.stem.endswith("chain") else path.stem
        out.append((f"configs/{path.name}", sub, path.read_text(encoding="utf-8"), None))
    scenarios = [(f"{workload}/{seed}/{sc.name}", sc)
                 for workload, generate in workloads.GENERATORS.items()
                 for seed in seeds for sc in generate(seed)]
    scenarios += [(f"{workload}/defect/{defect.scenario.name}", defect.scenario)
                  for workload, defects in workloads.KNOWN_DEFECTS.items() for defect in defects]
    for name, sc in scenarios:
        script = "script.gates" if sc.script is not None else None
        out.append((name, sc.sub, sc.config_text(script), sc.script))
    return out


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run(cli, cases) -> list[dict]:
    """One line per invocation of each case, run in the current directory."""
    lines = []
    for name, sub, config, script in cases:
        Path("run.cfg").write_text(config, encoding="utf-8")
        if script is not None:
            Path("script.gates").write_text(script, encoding="utf-8")
        for mode, extra in (("out", ["--out", "run.out"]), ("stdout", [])):
            out, err = io.StringIO(), io.StringIO()
            code = exc = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([sub, "--config", "run.cfg", *extra])
                except SystemExit as stop:
                    code = stop.code
                except Exception as error:  # noqa: BLE001 - an escaped error is part of the output
                    exc = type(error).__name__
            written = Path("run.out")
            data = written.read_bytes() if written.exists() else None
            if data is not None:
                written.unlink()
            lines.append({"name": name, "mode": mode, "exit": code, "exception": exc,
                          "stdout": _sha(out.getvalue().encode()),
                          "stderr": _sha(err.getvalue().encode()), "file": _sha(data)})
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 9001])
    parser.add_argument("--limit", type=int, default=None, help="keep the first N inputs")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the package's tree")
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
    sys.path.insert(0, str(args.src.resolve()))
    from chiralqubit import cli

    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(ROOT / "configs", Path(work, "configs"))  # gate scripts named in configs
        here = os.getcwd()
        os.chdir(work)
        try:
            lines = run(cli, cases)
        finally:
            os.chdir(here)
    if args.against is None:
        for line in lines:
            print(json.dumps(line))
        return 0

    command = [sys.executable, __file__, "--src", str(args.against / "src"), "--seeds",
               *map(str, args.seeds)] + ([] if args.limit is None else ["--limit", str(args.limit)])
    proc = subprocess.run(command, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 2
    theirs = [json.loads(text) for text in proc.stdout.splitlines()]
    differ = [a for a, b in zip(lines, theirs) if a != b]
    for line in differ:
        expected = " as expected" if line["name"] in args.expect else ""
        print(f"differs{expected}: {line['name']} ({line['mode']})")
    if len(theirs) != len(lines):
        print(f"differs: {len(theirs)} lines against {len(lines)}")
    for name in sorted(set(args.expect) - {line["name"] for line in differ}):
        print(f"expected to differ, but the same: {name}")
    print(f"{len(lines) - len(differ)} of {len(lines)} invocations the same")
    unexpected = [line for line in differ if line["name"] not in args.expect]
    return 1 if unexpected or len(theirs) != len(lines) else 0


if __name__ == "__main__":
    sys.exit(main())
