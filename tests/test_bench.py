"""Smoke tests: the layer timer in bench/ runs at its smallest sizes and writes its report, the
byte digest tells a tree from itself and from a one-character change, lets the inputs named
with --expect differ and keeps two trees loaded in one process apart, the in-process A/B timer
compares two trees on a few scenarios, and both tools turn a --limit below 1 and a tree that
cannot be loaded into a usage error."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"
DIGEST = ROOT / "bench" / "digest.py"
AB = ROOT / "bench" / "ab.py"
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
STEP_KERNELS = ["dynamics.drive_evolve", "dynamics.drive_propagator", "dynamics.evolve_closed",
                "dynamics.evolve_damped", "cli._rows.beat", "cli._rows.damp"]
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
    # every grid kernel allocates its mesh and every shot kernel its draws, so their traced
    # peaks are positive
    assert all(row["peak_mb"] > 0.0 for row in layers if "n_grid" in row or "n_shots" in row)
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


def test_ab_times_two_trees(tmp_path):
    tree = copy_tree(tmp_path)
    # the first 3 evolve scenarios of seed 1, twice: damp1e3, rabi1e3, rabi1e3
    command = [sys.executable, str(AB), str(ROOT), str(tree), "--workload", "evolve",
               "--seeds", "1", "1", "--limit", "3", "--rounds", "1"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("1 timed rounds")
    assert lines[1].startswith("evolve A: wall ") and lines[2].startswith("evolve B: wall ")
    assert all(" p50 " in line and line.endswith(" ms") for line in lines[1:3])
    assert lines[3].startswith("evolve B/A per scenario: median ") and "over 6 scenarios" in lines[3]
    assert [line.split()[0] for line in lines[4:]] == ["damp1e3", "rabi1e3"]
    assert [line.split()[-1] for line in lines[4:]] == ["(2)", "(4)"]


@pytest.mark.parametrize("tool, args", [
    (DIGEST, ["--limit", "0", "--against", "."]),
    (DIGEST, ["--limit", "-3"]),
    (AB, [".", ".", "--limit", "0"]),
], ids=["digest-against-0", "digest--3", "ab-0"])
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
    for tool, args in ((DIGEST, ["--against", str(tree)]), (AB, [str(ROOT), str(tree)])):
        proc = subprocess.run([sys.executable, str(tool), *args], cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2 and proc.stdout == "", proc.stdout
        # one line, naming the tree, and no traceback
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(f"error: cannot load {tree}: ")
