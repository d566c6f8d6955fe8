"""Benchmark of the chiralqubit command line, one seeded workload per process.

    python3 perfbench/run.py --workload {invariant-scan,evolve,sample,all} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the package from ./src.  Each
workload is a fixed list of scenarios generated from the seed
(workloads.py).  One client runs them in a closed loop, calling
``chiralqubit.cli.main`` in process on generated config files, each
scenario starting when the previous one returns.  Passes over the list
repeat until --seconds is used up.  Every output is checked against an
independent reference (oracle.py) on the first pass and must repeat byte
for byte on the later ones.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and prints the per-layer metrics
(spans.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  --workload all runs each workload
in its own fresh process and prints every result.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads them: the plain
# single-threaded baseline.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SRC = Path("src")
WORK = Path(".perfbench_work")
SETUP_REPEATS = 7
SETUP_PROBES = 20
SETUP_CODE = "import chiralqubit.cli"

# The speed of the small machines this runs on drifts by up to a factor 1.6
# within minutes (a fixed kernel timed between scenarios shows it), which
# would swamp any change a commit makes.  A probe kernel of 0.5-2 ms runs after
# every scenario, outside the latency timer; each pass's times are divided by
# its speed factor, the probe's mean time over REFERENCE_PROBE_S.  Times are
# therefore seconds at the reference speed: the probe's typical time between
# scenarios on the 2.1 GHz Xeon vCPU the benchmark was written on.  The probe
# does the kind of work that dominates the workload: interpreted code with
# tiny numpy products, plus array kernels on a texture-sized grid where the
# chirality kernels dominate.  Ten seeds per workload picked these pairings.
GRID_PROBE_WORKLOADS = {"invariant-scan"}
REFERENCE_PROBE_S = {False: 5e-4, True: 1.9e-3}
_PROBE_MATRIX = numpy.eye(4, dtype=complex) * (1.0 + 1e-3j)
_PROBE_GRID = numpy.random.default_rng(0).random((96, 96, 3))


def _speed_probe(grid: bool) -> float:
    """Seconds one fixed mix of small numpy products and float formatting takes,
    plus grid kernels when ``grid`` is set."""
    start = perf_counter()
    acc = _PROBE_MATRIX
    for k in range(100):
        acc = acc @ _PROBE_MATRIX
        repr(k / 7.0)
    if grid:
        unit = _PROBE_GRID / numpy.linalg.norm(_PROBE_GRID, axis=-1, keepdims=True)
        cross = numpy.cross(unit[:-1, :-1], unit[1:, 1:])
        numpy.arctan2(numpy.einsum("...i,...i->...", unit[:-1, :-1], cross),
                      1.0 + unit[:-1, :-1, 0]).sum()
    return perf_counter() - start


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.GENERATORS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "chiralqubit" / "cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the repository root; src/chiralqubit or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC.resolve()))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- set-up time and machine record ---------------------------------------

def _setup_times(grid: bool) -> list[float]:
    """Fresh interpreter to `import chiralqubit.cli`, once untimed, then timed.

    Each time is divided by the speed factor of the probes run just before it.
    The wait has no timeout: with one, Popen.wait polls in steps of up to 50 ms.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
    reference = SETUP_PROBES * REFERENCE_PROBE_S[grid]
    times = []
    for k in range(SETUP_REPEATS + 1):
        probe = sum(_speed_probe(grid) for _ in range(SETUP_PROBES))
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        if k:
            times.append((perf_counter() - start) * reference / probe)
    return times


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _machine_record() -> dict:
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(f"{index}/type") != "Instruction":
            caches[f"L{_read(f'{index}/level')}"] = _read(f"{index}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --- one workload ----------------------------------------------------------

def _invoke(cli, argv):
    """One CLI call as a user sees it: exit code, or the exception it let escape."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code
        except Exception as error:  # noqa: BLE001 - an escaped error is a traceback for the user
            exc = type(error).__name__
        elapsed = perf_counter() - start
    return rc, exc, out.getvalue(), err.getvalue(), elapsed


def _collect(rc, exc, stdout, stderr, out_path: Path):
    data = out_path.read_bytes() if out_path.exists() else None
    if data is not None:
        out_path.unlink()
    return oracle.Result(rc, exc, stdout, stderr, data)


def _digest(res) -> tuple:
    out = hashlib.sha256(res.out).hexdigest() if res.out is not None else None
    return (res.rc, res.exc, res.stdout, res.stderr, out)


def _prepare(scenarios, work: Path):
    argvs, outs = [], []
    for sc in scenarios:
        script_path = None
        if sc.script is not None:
            script_path = work / f"{sc.name}.gates"
            script_path.write_text(sc.script, encoding="utf-8")
        config = work / f"{sc.name}.cfg"
        config.write_text(sc.config_text(script_path and str(script_path)), encoding="utf-8")
        out = work / f"{sc.name}.out"
        argvs.append([sc.sub, "--config", str(config), "--out", str(out)])
        outs.append(out)
    return argvs, outs


def _run_workload(args, spec, work: Path) -> int:
    grid = args.workload in GRID_PROBE_WORKLOADS
    setup = _setup_times(grid)

    import chiralqubit
    from chiralqubit import cli

    print("# machine " + json.dumps(_machine_record()))
    scenarios = workloads.GENERATORS[args.workload](args.seed)
    argvs, outs = _prepare(scenarios, work)
    twins = {sc.tags["same_bytes_as"].name for sc in scenarios if "same_bytes_as" in sc.tags}

    # untimed warm-up: one cheap scenario per subcommand
    for k, sc in enumerate(scenarios):
        if sc.tags.get("warmup"):
            _collect(*_invoke(cli, argvs[k])[:4], outs[k])

    defects = workloads.KNOWN_DEFECTS[args.workload]
    defect_argvs, defect_outs = _prepare([d.scenario for d in defects], work)
    still_failing = 0
    for defect, argv, out in zip(defects, defect_argvs, defect_outs):
        res = _collect(*_invoke(cli, argv)[:4], out)
        problem = oracle.check_defect(defect, res)
        still_failing += problem is not None
        verdict = f"still fails ({problem})" if problem else "fixed"
        print(f"# known defect {defect.scenario.name}: {verdict}; was: {defect.problem}")
    for note in workloads.KNOWN_UNMEASURED:
        print(f"# known, not measured: {note}")

    tracer = spans.Tracer(chiralqubit) if args.trace else None
    reference: list = []
    first_failures: list[str] = []
    walls = {False: [], True: []}  # seconds at the reference speed
    raw_walls = {False: [], True: []}  # seconds as measured
    durations = {False: [], True: []}  # real time a pass took, probes included
    speeds: list[float] = []
    latencies: list[float] = []
    layer_runs: list[dict] = []
    attempted = failed = bytes_out = 0

    def run_pass(traced: bool) -> None:
        nonlocal attempted, failed, bytes_out
        raw = []
        probe = 0.0
        start = perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for k, argv in enumerate(argvs):
                if traced:
                    tracer.scenario = k
                raw.append(_invoke(cli, argv))
                probe += _speed_probe(grid)
        finally:
            if traced:
                tracer.uninstall()
        durations[traced].append(perf_counter() - start)
        speed = probe / (len(argvs) * REFERENCE_PROBE_S[grid])
        speeds.append(speed)
        times = [r[4] / speed for r in raw]
        walls[traced].append(sum(times))
        raw_walls[traced].append(sum(r[4] for r in raw))
        if not traced:
            latencies.extend(times)
        attempted += len(raw)
        results = [_collect(*r[:4], out) for r, out in zip(raw, outs)]
        size = sum(len(res.stdout.encode("utf-8")) + len(res.out or b"") for res in results)
        if not reference:
            # the first pass is checked against the references and pins every output
            twin_bytes = {sc.name: res.out for sc, res in zip(scenarios, results) if sc.name in twins}
            for sc, res in zip(scenarios, results):
                problem = oracle.check(sc, res, twin_bytes)
                reference.append(_digest(res))
                if problem:
                    first_failures.append(f"{sc.name}: {problem}")
                    failed += 1
        else:
            failed += sum(_digest(res) != ref for res, ref in zip(results, reference))
        bytes_out = size
        if traced:
            layer_runs.append(tracer.metrics(speed))

    # Untraced and traced passes alternate under --trace 1; both kinds run at
    # least once (twice untraced under --trace 0), then more while they fit.
    kinds = (False, True) if args.trace else (False,)
    start = perf_counter()
    done = 0
    while True:
        traced = kinds[done % len(kinds)]
        if done >= 2:
            last = durations[traced][-1] if durations[traced] else durations[False][-1]
            if perf_counter() - start + last > args.seconds:
                break
        run_pass(traced)
        done += 1

    for line in first_failures:
        print(f"# FAILED {line}")
    shots = sum(sc.params.get("shots", 1) for sc in scenarios
                if sc.sub == "chain" and sc.expect_exit == 0)
    wall = statistics.median(walls[False])
    values = {
        "wall_s": wall,
        "scenario_p50_ms": 1e3 * float(numpy.percentile(latencies, 50)),
        "scenario_p90_ms": 1e3 * float(numpy.percentile(latencies, 90)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "shots_per_s": shots / wall,
        "failed_frac": (len(first_failures) + still_failing) / (len(scenarios) + len(defects)),
        "known_defects": still_failing,
        "cli.bytes_out": bytes_out,
    }
    print(f"# {args.workload} seed {args.seed}: {len(scenarios)} scenarios per pass, "
          f"{len(walls[False])} untraced and {len(walls[True])} traced passes, "
          f"{len(latencies)} latency samples; failed_frac = {values['failed_frac']!r} "
          f"({still_failing} known-defect inputs of {len(scenarios) + len(defects)}); "
          f"shots_per_s = {values['shots_per_s']!r}")
    if args.trace:
        for key in layer_runs[0]:
            values[key] = statistics.median([run[key] for run in layer_runs])
        values["trace.overhead_frac"] = statistics.median(walls[True]) / wall - 1.0
        WORK.mkdir(exist_ok=True)
        tracer.write(str(WORK / f"spans-{args.workload}-{args.seed}.jsonl"))
    for label, series in (("wall_s at reference speed", walls), ("wall_s as measured", raw_walls)):
        print(f"# pass {label}: untraced " + " ".join(f"{w:.3f}" for w in series[False])
              + "; traced " + " ".join(f"{w:.3f}" for w in series[True]))
    print("# pass speed factor " + " ".join(f"{v:.3f}" for v in speeds))

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own fresh process, so peak memory is per workload."""
    results = {}
    for workload in workloads.GENERATORS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
        for name, metric in results[workload]["metrics"].items():
            print(f"[{workload}] {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
