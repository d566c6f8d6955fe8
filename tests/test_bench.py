"""Smoke tests: the layer timer in bench/ runs at its smallest sizes and writes its report where
it was asked, the byte digest tells a tree from itself and from a one-character change, lets the
inputs named with --expect differ, keeps two trees loaded in one process apart and times the
workload scenarios it checks, both tools turn a bad count and a tree that cannot be loaded into
a usage error, and every bench command in README.md parses with its tool's own parser."""

import importlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"
DIGEST = ROOT / "bench" / "digest.py"
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
    "register.initialize_reset.noop",
    "register.initialize_reset.flip",
    "cli.run_chain.rf",
]
SHAPE_KERNELS = [("dynamics._propagator", ()), ("dynamics._propagator", (12, 400)),
                 ("dynamics._total_product", (12, 396))]
STEP_KERNELS = ["dynamics.drive_evolve", "dynamics.drive_evolve.closed",
                "dynamics.drive_propagator", "dynamics._drive_propagators.rf",
                "dynamics.evolve_closed", "dynamics.evolve_damped", "cli._rows.beat",
                "cli._rows.damp"]
WRITER_TABLES = [(4096, 5), (1001, 4)]
SHOT_KERNELS = ["gatescript.run_script", "cli.run_chain"]


def copy_tree(tmp_path):
    """A copy of this tree's src/ under tmp_path/tree."""
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


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
              row.get("n_steps"), row.get("table"), row.get("n_shots"))
             for row in layers if "call" not in row]
    assert sizes == [
        (kernel, n, None, None, None, None, None) for n in (32, 64) for kernel in GRID_KERNELS
    ] + [
        (kernel, None, n, None, None, None, None) for n in (2, 3) for kernel in REGISTER_KERNELS
    ] + [
        (kernel, None, None, list(shape), None, None, None) for kernel, shape in SHAPE_KERNELS
    ] + [
        (kernel, None, None, None, n, None, None) for n in (1, 100) for kernel in STEP_KERNELS
    ] + [
        ("_floatcsv.csv_block", None, None, None, None, list(shape), None)
        for shape in WRITER_TABLES
    ] + [
        (kernel, None, None, None, None, None, n) for n in (1, 10) for kernel in SHOT_KERNELS
    ]
    # the fixed cost of a command line: the whole device call, then its argv parse alone
    assert [(row["kernel"], row["call"]) for row in layers if "call" in row] == [
        ("cli.main", "device"), ("cli._parse_argv", "device")]
    # the writer rows, and they alone, give the time per value of the block
    assert all(row["ns_per_value"] > 0.0 for row in layers if "table" in row)
    assert not any("ns_per_value" in row for row in layers if "table" not in row)
    assert all(row["best_s"] > 0.0 for row in layers)
    assert all(row["minflt_per_call"] >= 0.0 for row in layers)
    # every grid kernel allocates its mesh, every step kernel its steps or rows and every shot
    # kernel its draws, so their traced peaks are positive; the other rows are not traced
    traced = ("n_grid", "n_steps", "n_shots")
    assert all(row["peak_mb"] > 0.0 for row in layers if any(key in row for key in traced))
    assert not any("peak_mb" in row for row in layers if not any(key in row for key in traced))
    # 64^2 resolves the configs/chern.cfg point with both estimators
    assert all(row["outcome"] in ("ok", "N = 1") for row in layers if row.get("n_grid") == 64)
    assert all(row["outcome"] == "ok" for row in layers if "n_grid" not in row)


def test_digest_tells_a_one_character_change(tmp_path):
    tree = copy_tree(tmp_path)
    command = [sys.executable, str(DIGEST), "--limit", "3", "--against", str(tree)]
    # configs/beat.cfg, bell_chain.cfg and chain.cfg, each with --out and to stdout
    same = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == ["6 of 6 invocations the same"]

    cli = tree / "src" / "chiralqubit" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"t,p_diff,pop_plus,pop_minus"') == 1
    cli.write_text(text.replace('"t,p_diff,pop_plus,pop_minus"', '"t,p_diff,pop_plus,pop_minuS"'),
                   encoding="utf-8")
    changed = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert changed.returncode == 1, changed.stderr
    assert changed.stdout.splitlines() == [
        "differs: configs/beat.cfg (out)", "differs: configs/beat.cfg (stdout)",
        "4 of 6 invocations the same"]


def test_digest_lines(tmp_path):
    proc = subprocess.run([sys.executable, str(DIGEST), "--limit", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["name"], line["mode"], line["exit"]) for line in lines] == [
        ("configs/beat.cfg", "out", 0), ("configs/beat.cfg", "stdout", 0)]
    # the file written with --out holds the bytes the other run wrote to stdout
    assert lines[0]["file"] == lines[1]["stdout"] and lines[1]["file"] is None


def test_digest_expect(tmp_path):
    tree = copy_tree(tmp_path)
    cli = tree / "src" / "chiralqubit" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    cli.write_text(text.replace('"t,p_diff,pop_plus,pop_minus"', '"t,p_diff,pop_plus,pop_minuS"'),
                   encoding="utf-8")
    command = [sys.executable, str(DIGEST), "--limit", "3", "--against", str(tree),
               "--expect", "configs/beat.cfg", "--expect", "configs/chain.cfg"]
    # the expected difference passes, and the expected name that did not differ is reported
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "differs as expected: configs/beat.cfg (out)",
        "differs as expected: configs/beat.cfg (stdout)",
        "expected to differ, but the same: configs/chain.cfg",
        "4 of 6 invocations the same"]
    # any other difference still fails
    proc = subprocess.run(command[:-4] + ["--expect", "configs/chain.cfg"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "differs: configs/beat.cfg (out)", "differs: configs/beat.cfg (stdout)",
        "expected to differ, but the same: configs/chain.cfg",
        "4 of 6 invocations the same"]
    # a name that is no input, misspelt or dropped by --limit, is a usage error
    for name in ("configs/beat.cgf", "configs/chern.cfg"):
        proc = subprocess.run(command[:-4] + ["--expect", name], cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2 and proc.stdout == "", proc.stdout
        assert f"--expect names no input: {name}" in proc.stderr


def test_digest_keeps_two_trees_apart(tmp_path):
    # tree B's labels differ inside a functools.cache: a cache shared with this tree would hide it
    tree = copy_tree(tmp_path)
    cli = tree / "src" / "chiralqubit" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('["|" + ') == 1
    cli.write_text(text.replace('["|" + ', '["[" + '), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(DIGEST), "--limit", "3", "--against", str(tree)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "differs: configs/bell_chain.cfg (out)", "differs: configs/bell_chain.cfg (stdout)",
        "differs: configs/chain.cfg (out)", "differs: configs/chain.cfg (stdout)",
        "2 of 6 invocations the same"]


def test_digest_times_what_it_checks(tmp_path):
    tree = copy_tree(tmp_path)
    # the 7 configs, then the first 5 evolve scenarios of seed 1: damp1e3, rabi1e3,
    # pair0-rabi-amp0, device and rabi1e3
    command = [sys.executable, str(DIGEST), "--workload", "evolve", "--seeds", "1",
               "--limit", "12", "--against", str(tree)]
    proc = subprocess.run([*command, "--rounds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "24 of 24 invocations the same"
    assert lines[1] == f"# this = {ROOT}, against = {tree}; 2 timed rounds"
    assert lines[2].startswith("evolve this: wall ") and lines[3].startswith("evolve against: ")
    assert all(" p50 " in line and line.endswith(" ms") for line in lines[2:4])
    assert lines[4].startswith("evolve this/against per scenario: median ")
    assert lines[4].endswith(" over 5 scenarios")
    kinds = [line.split() for line in lines[5:]]
    assert [(kind[0], kind[-1]) for kind in kinds] == [
        ("damp1e3", "(1)"), ("device", "(1)"), ("pair0-rabi-amp0", "(1)"), ("rabi1e3", "(2)")]

    # the exit code still depends only on bytes: a one-character change fails the same run,
    # here without --rounds, which a line under the header marks
    cli = tree / "src" / "chiralqubit" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    cli.write_text(text.replace('"t,p_diff,pop_plus,pop_minus,purity"',
                                '"t,p_diff,pop_plus,pop_minus,puritY"'), encoding="utf-8")
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:7] == [
        "differs: configs/damp.cfg (out)", "differs: configs/damp.cfg (stdout)",
        "differs: evolve/1/evolve000-damp1e3 (out)", "differs: evolve/1/evolve000-damp1e3 (stdout)",
        "20 of 24 invocations the same", f"# this = {ROOT}, against = {tree}; 1 timed rounds",
        "# one timed call per side and scenario: per-kind ratios need --rounds N"]
    assert len(lines) == 14 and lines[-1].split()[-1] == "(2)"


class _Tree:
    """A stand-in for a loaded cli module that records each call it gets."""

    def __init__(self, name: str, calls: list):
        self.name, self.calls = name, calls

    def main(self, argv) -> int:
        self.calls.append((self.name, "--out" in argv))
        return 0


def test_digest_alternates_the_tree_that_goes_first(bench_tools, tmp_path, monkeypatch):
    digest = bench_tools["digest"]
    monkeypatch.chdir(tmp_path)
    calls = []
    trees = [_Tree("this", calls), _Tree("against", calls)]
    cases = [("configs/beat.cfg", "beat", "", None), ("evolve/1/evolve000-beat", "beat", "", None)]
    timed = {1: [[], []]}  # the second case is a workload scenario
    digest.run(trees, cases, timed, rounds=2)
    assert calls == [
        ("this", True), ("against", True), ("against", False), ("this", False),
        ("against", True), ("this", True), ("this", False), ("against", False),
        ("this", True), ("against", True),  # the rounds that only time
        ("against", True), ("this", True)]
    assert [len(seconds) for seconds in timed[1]] == [3, 3]


def test_digest_ratio_is_this_tree_over_the_other(bench_tools):
    # [scenario][side][round]: this tree takes half the time on the first kind, twice on the other
    times = [[[1.0, 3.0], [2.0, 6.0]], [[1.0, 1.0], [2.0, 2.0]], [[4.0, 4.0], [2.0, 2.0]]]
    names = ["evolve000-damp1e3", "evolve001-damp1e3", "evolve002-chain-rf12"]
    assert bench_tools["digest"].report("evolve", names, times) == [
        "evolve this: wall 7.0000 s  p50 2000.000 ms  p90 4000.000 ms",
        "evolve against: wall 8.0000 s  p50 2000.000 ms  p90 4000.000 ms",
        "evolve this/against per scenario: median 0.500 over 3 scenarios",
        f"  {'chain-rf12':28s} 2.000  (1)",
        f"  {'damp1e3':28s} 0.500  (2)"]


@pytest.mark.parametrize("args, message", [
    (["--rounds", "-1", "--against", "."], "argument --rounds: must be >= 0, got -1"),
    (["--rounds", "1"], "--rounds needs --against"),
    (["--expect", "configs/beat.cfg"], "--expect needs --against"),
], ids=["rounds-below-0", "rounds-alone", "expect-alone"])
def test_digest_options_that_need_another_are_usage_errors(tmp_path, args, message):
    proc = subprocess.run([sys.executable, str(DIGEST), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stdout == "", proc.stdout
    assert proc.stderr.splitlines()[-1].endswith(f"error: {message}")


def test_layer_timer_writes_a_relative_out_where_it_was_called(tmp_path):
    caller = tmp_path / "caller"
    caller.mkdir()
    proc = subprocess.run(
        [sys.executable, str(LAYERS), "--out", "rows.json", "--sizes", "32", "--qubits", "2",
         "--steps", "1", "--shots", "1", "--repeats", "1"],
        cwd=caller, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["caller", "rows.json"]
    assert json.loads((caller / "rows.json").read_text(encoding="utf-8"))["layers"]


@pytest.mark.parametrize("tool, args", [
    (DIGEST, ["--limit", "0", "--against", "."]),
    (DIGEST, ["--limit", "-3"]),
], ids=["digest-against-0", "digest--3"])
def test_limit_below_one_is_a_usage_error(tmp_path, tool, args):
    proc = subprocess.run([sys.executable, str(tool), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stdout == "", proc.stdout
    assert f"argument --limit: must be >= 1, got {args[1 + args.index('--limit')]}" in proc.stderr


@pytest.mark.parametrize("break_tree", [
    lambda tree: shutil.rmtree(tree / "src" / "chiralqubit"),
    lambda tree: (tree / "src" / "chiralqubit" / "cli.py").write_text("1 / 0\n", encoding="utf-8"),
], ids=["no-package", "import-raises"])
def test_a_tree_that_cannot_be_loaded_is_a_usage_error(tmp_path, break_tree):
    tree = copy_tree(tmp_path)
    break_tree(tree)
    proc = subprocess.run([sys.executable, str(DIGEST), "--against", str(tree)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stdout == "", proc.stdout
    # one line, naming the tree, and no traceback
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith(f"error: cannot load {tree}: ")


@pytest.fixture(scope="module")
def bench_tools():
    """The bench tools as modules, imported with this process's environment and sys.path left
    as they were (digest pins the thread pools as it loads)."""
    environ, path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return {path.stem: importlib.import_module(path.stem)
                for path in sorted((ROOT / "bench").glob("*.py"))}
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path


def test_readme_bench_commands_parse(bench_tools):
    # every "python bench/<tool>.py ..." line of README's code blocks, up to the end of the
    # command (a comment, a closing parenthesis, a pipe, ; or &), parsed but not run
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"^```[a-z]*\n(.*?)^```", readme, flags=re.M | re.S))
    commands = re.findall(r"python bench/(\w+)\.py([^#)|;&\n]*)", blocks)
    assert {tool for tool, _ in commands} == set(bench_tools) == {"digest", "layers"}
    for tool, args in commands:
        try:
            bench_tools[tool].parser().parse_args(shlex.split(args))
        except SystemExit:
            pytest.fail(f"README: python bench/{tool}.py{args} does not parse")
    # and README names no tool that is not there
    assert set(re.findall(r"(?<!\w)bench/(\w+)\.py", readme)) == set(bench_tools)
