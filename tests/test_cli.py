import contextlib
import hashlib
import io
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqubit import chirality, cli, gatescript
from chiralqubit.cli import main

SWAP_SCRIPT = """\
RESET 0 +1
RESET 1 -1
LINK 0 1 ON
XCHG 0 1 3.141592653589793
MEASURE 0
MEASURE 1
"""


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_to_file(tmp_path: Path, subcommand: str, config_text: str, name: str = "out.txt", extra=()):
    config = write(tmp_path / f"{name}.cfg", config_text)
    out = tmp_path / name
    code = main([subcommand, "--config", config, "--out", str(out), *extra])
    return code, out


class TestChern:
    def test_defaults_report_plus_one(self, tmp_path, capsys):
        assert main(["chern"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,n_integer,raw,residual,n_grid,k_max"
        assert lines[1].startswith("quadrature,1,")
        assert lines[2].startswith("plaquette,1,")

    def test_opposite_chirality(self, tmp_path):
        code, out = run_to_file(tmp_path, "chern", "chi = -1\n")
        assert code == 0
        assert ",-1," in out.read_text().splitlines()[1]

    def test_no_fermi_surface(self, tmp_path):
        code, out = run_to_file(tmp_path, "chern", "mu = -1.0\n")
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[1] == "0"

    def test_single_method(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "chern", "method = plaquette\nn_grid = 128\nk_max = 8.0\n"
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[0] == "plaquette"
        assert rows[1].split(",")[4] == "128"

    def test_gapless_exit_code(self, tmp_path, capsys):
        config = write(tmp_path / "c.cfg", "gap = 0.0\n")
        assert main(["chern", "--config", config]) == 2

    def test_not_converged_exit_code(self, tmp_path):
        config = write(
            tmp_path / "c.cfg",
            "gap = 5.0\nmu = 0.5\nmethod = quadrature\nk_max = 40.0\nn_grid = 64\n",
        )
        assert main(["chern", "--config", config]) == 3

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        config = write(tmp_path / "c.cfg", "gapp = 1.0\n")
        assert main(["chern", "--config", config]) == 1
        assert "gapp" in capsys.readouterr().err

    def test_start_grid_above_cap_is_config_error(self, tmp_path, capsys):
        config = write(tmp_path / "c.cfg", "method = both\nn_grid = 2048\n")
        assert main(["chern", "--config", config]) == 1
        assert "1024" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["quadrature", "plaquette"])
    def test_single_method_grid_above_cap_is_config_error(self, tmp_path, capsys, method):
        n_grid = chirality.MAX_GRID + 1
        config = write(tmp_path / "c.cfg", f"method = {method}\nn_grid = {n_grid}\n")
        assert main(["chern", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(chirality.MAX_GRID) in err

    def test_method_disagreement_exit_code(self, tmp_path, capsys):
        # the quadrature misses the narrow gap at n_grid = 128 while the plaquette sum does not
        config = write(tmp_path / "c.cfg", "gap = 0.001\nmu = 100\nchi = 1\nk_max = 80\n")
        assert main(["chern", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "plaquette reports" in err


class TestBeatDampRabi:
    def test_beat_half_period_row(self, tmp_path):
        config_text = (
            "delta = 0.5\n"
            f"t_max = {2.0 * math.pi!r}\n"
            f"dt = {math.pi / 100.0!r}\n"
        )
        code, out = run_to_file(tmp_path, "beat", config_text)
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,p_diff,pop_plus,pop_minus"
        assert len(rows) == 202
        t, p_diff, *_ = rows[101].split(",")
        assert abs(float(t) - math.pi) < 1e-12
        assert abs(float(p_diff) + 1.0) < 1e-9

    def test_damp_overdamped_never_changes_sign(self, tmp_path):
        config_text = "delta = 0.5\ngamma = 10.0\nt_max = 120.0\ndt = 0.005\n"
        code, out = run_to_file(tmp_path, "damp", config_text)
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,p_diff,pop_plus,pop_minus,purity"
        values = [float(row.split(",")[1]) for row in rows[1:]]
        assert min(values) > 0.0

    def test_rabi_zero_amplitude_bit_identical_to_beat(self, tmp_path):
        shared = "delta = 0.5\nepsilon = 0.3\nt_max = 10.0\ndt = 0.01\n"
        _, beat_out = run_to_file(tmp_path, "beat", shared, name="beat.csv")
        _, rabi_out = run_to_file(tmp_path, "rabi", shared + "amp = 0.0\n", name="rabi.csv")
        assert beat_out.read_bytes() == rabi_out.read_bytes()

    def test_rabi_resonant_transfer(self, tmp_path):
        # driven from |+1> at resonance: full population swing within a pi pulse
        amp = 0.05
        config_text = (
            f"epsilon = 1.0\namp = {amp!r}\nomega = 2.0\n"
            f"t_max = {math.pi / amp!r}\ndt = 0.005\n"
        )
        code, out = run_to_file(tmp_path, "rabi", config_text)
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        final = float(rows[-1].split(",")[1])
        assert final < -0.9

    def test_step_too_large_exit_code(self, tmp_path):
        config = write(tmp_path / "c.cfg", "delta = 0.5\ngamma = 10.0\ndt = 0.05\n")
        assert main(["damp", "--config", config]) == 4

    @pytest.mark.parametrize("subcommand", ["beat", "damp", "rabi"])
    def test_overflowing_sample_count_is_config_error(self, tmp_path, capsys, subcommand):
        # 1e309 rows overflow to inf; 1e12 rows are finite but far above the cap
        for dt in ("1e-300", "1e-3"):
            config = write(tmp_path / "c.cfg", f"t_max = 1e9\ndt = {dt}\n")
            assert main([subcommand, "--config", config]) == 1, dt
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "t_max / dt" in err, dt


class TestChain:
    def test_swap_script_log(self, tmp_path):
        script = write(tmp_path / "swap.gates", SWAP_SCRIPT)
        code, out = run_to_file(tmp_path, "chain", f"script_path = {script}\nseed = 42\n")
        assert code == 0
        text = out.read_text()
        assert "shot 1 measurements: 0:-1 1:+1" in text
        assert "|-1,+1> 1.0" in text

    def test_empty_script_reports_initial_state(self, tmp_path):
        script = write(tmp_path / "empty.gates", "# nothing\n")
        code, out = run_to_file(tmp_path, "chain", f"script_path = {script}\n")
        assert code == 0
        text = out.read_text()
        assert "shot 1 measurements: none" in text
        assert "|-1> 1.0" in text

    def test_missing_script_is_config_error(self, tmp_path):
        code, _ = run_to_file(tmp_path, "chain", "seed = 1\n")
        assert code == 1

    def test_parse_error_exit_and_line(self, tmp_path, capsys):
        script = write(tmp_path / "bad.gates", "RESET 0 +1\nFROB 1\n")
        config = write(tmp_path / "c.cfg", f"script_path = {script}\n")
        assert main(["chain", "--config", config]) == 5
        assert "line 2" in capsys.readouterr().err

    def test_shots_above_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("shots ran")

        monkeypatch.setattr(gatescript, "run_script", no_run)
        script = write(tmp_path / "swap.gates", SWAP_SCRIPT)
        shots = gatescript.MAX_SHOTS + 1
        config = write(tmp_path / "c.cfg", f"script_path = {script}\nshots = {shots}\n")
        assert main(["chain", "--config", config]) == 1
        assert f"got {shots}" in capsys.readouterr().err

    def test_link_off_exit_code(self, tmp_path):
        script = write(tmp_path / "off.gates", "XCHG 0 1 1.0\n")
        config = write(tmp_path / "c.cfg", f"script_path = {script}\n")
        assert main(["chain", "--config", config]) == 6

    @pytest.mark.parametrize("line", ["XCHG 0 0 1.0", "CNOT 0 0"])
    def test_same_qubit_link_is_script_error(self, tmp_path, capsys, line):
        script = write(tmp_path / "same.gates", f"LINK 0 1 ON\n{line}\nMEASURE 0\n")
        config = write(tmp_path / "c.cfg", f"script_path = {script}\nshots = 100\n")
        assert main(["chain", "--config", config]) == 5
        assert "line 2" in capsys.readouterr().err

    def test_rf_step_too_large_names_the_fix(self, tmp_path, capsys):
        # ten qubits: the bias of qubit 9 is 10 * epsilon, so the default dt = 0.01 is too large
        script = write(tmp_path / "rf.gates", "RF 9 0.05 1.0\n")
        config = write(tmp_path / "c.cfg", f"script_path = {script}\n")
        assert main(["chain", "--config", config]) == 4
        err = capsys.readouterr().err
        assert "dt" in err and "qubit 9" in err and "epsilon" in err
        suggested = err.split("lower dt to ")[1].split()[0]
        config = write(tmp_path / "c.cfg", f"script_path = {script}\ndt = {suggested}\n")
        assert main(["chain", "--config", config, "--out", str(tmp_path / "out")]) == 0

    def test_rf_duration_above_step_cap_is_script_error(self, tmp_path, capsys):
        script = write(tmp_path / "rf.gates", "RF 0 0.05 1e5\n")
        config = write(tmp_path / "c.cfg", f"script_path = {script}\ndt = 0.05\n")
        assert main(["chain", "--config", config]) == 5
        assert "cap" in capsys.readouterr().err

    @staticmethod
    def loop_listing(probs, n):
        """The per-index listing loop the chain runner used before its vectorized form."""
        lines = []
        for index in range(probs.size):
            if probs[index] > 1e-12:
                bits = ((index >> (n - 1 - q)) & 1 for q in range(n))
                label = "|" + ",".join("+1" if b else "-1" for b in bits) + ">"
                lines.append(f"{label} {cli._fmt(probs[index])}")
        return lines

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_probability_listing_matches_index_loop(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            probs = rng.random(2**n) ** 8  # spans the listing threshold
            probs /= probs.sum()
            # the threshold itself, just above and just below it, a subnormal and a zero
            edge = [1e-12, np.nextafter(1e-12, 1.0), np.nextafter(1e-12, 0.0), 5e-324, 0.0]
            probs[rng.choice(2**n, size=min(len(edge), 2**n), replace=False)] = edge[:2**n]
            assert (probs == 1e-12).any()
            assert cli._probability_lines(probs, n) == self.loop_listing(probs, n)

    def test_seed_flag_overrides_config(self, tmp_path):
        script = write(
            tmp_path / "coin.gates", "GATE 0 H\nMEASURE 0\n"
        )
        config_text = f"script_path = {script}\nseed = 7\nshots = 40\n"
        _, base = run_to_file(tmp_path, "chain", config_text, name="a.log")
        _, rerun = run_to_file(tmp_path, "chain", config_text, name="b.log")
        _, other = run_to_file(
            tmp_path, "chain", config_text, name="c.log", extra=("--seed", "8")
        )
        assert base.read_bytes() == rerun.read_bytes()
        assert base.read_bytes() != other.read_bytes()


class TestDevice:
    def test_default_report(self, tmp_path):
        code, out = run_to_file(tmp_path, "device", "")
        assert code == 0
        rows = out.read_text().strip().splitlines()
        header = rows[-2]
        data = rows[-1].split(",")
        assert header == "h_gauss,eps_ev,n_pairs,volume_a3,lx_a,ly_a,lz_a,within_lambda"
        assert float(data[1]) == pytest.approx(1.447e-9, rel=1e-3)
        assert 1e5 < int(data[2]) < 1e7
        assert 1e7 < float(data[3]) < 1e9
        assert data[7] == "true"

    def test_bare_mass(self, tmp_path):
        code, out = run_to_file(tmp_path, "device", "mass_ratio = 1.0\n")
        assert code == 0
        eps = float(out.read_text().strip().splitlines()[-1].split(",")[1])
        assert eps == pytest.approx(5.7883818e-9, rel=1e-9)

    def test_zero_field_is_config_error(self, tmp_path):
        code, _ = run_to_file(tmp_path, "device", "h_gauss = 0.0\n")
        assert code == 1

    def test_overflowing_pair_budget_is_config_error(self, tmp_path):
        # gap / eps = 1e308 / 1.4e-309 overflows to inf
        config = write(tmp_path / "c.cfg", "gap_ev = 1e308\nh_gauss = 1e-300\n")
        result = subprocess.run(
            [sys.executable, "-m", "chiralqubit.cli", "device", "--config", config],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: pair budget")


class TestConfigParsing:
    def test_duplicate_key(self, tmp_path):
        config = write(tmp_path / "c.cfg", "mu = 1.0\nmu = 2.0\n")
        assert main(["chern", "--config", config]) == 1

    def test_malformed_line(self, tmp_path):
        config = write(tmp_path / "c.cfg", "just words\n")
        assert main(["chern", "--config", config]) == 1

    def test_non_numeric_value(self, tmp_path):
        config = write(tmp_path / "c.cfg", "mu = lots\n")
        assert main(["chern", "--config", config]) == 1

    def test_non_finite_value(self, tmp_path):
        config = write(tmp_path / "c.cfg", "mu = inf\n")
        assert main(["chern", "--config", config]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["chern", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_unmapped_exception_propagates(self, monkeypatch):
        def broken(config):
            raise RuntimeError("not an input error")

        monkeypatch.setitem(cli._RUNNERS, "device", broken)
        with pytest.raises(RuntimeError, match="not an input error"):
            main(["device"])

    def test_comments_allowed(self, tmp_path):
        config = write(tmp_path / "c.cfg", "# full line\nmu = 1.0  # tail\n")
        code, _ = run_to_file(tmp_path, "chern", "mu = 1.0  # tail\n")
        assert code == 0


class TestOutputContract:
    def test_csv_column_counts_constant(self, tmp_path):
        jobs = {
            "beat": ("delta = 0.5\nt_max = 3.0\ndt = 0.01\n", 4),
            "damp": ("delta = 0.5\ngamma = 0.2\nt_max = 3.0\ndt = 0.01\n", 5),
            "rabi": ("epsilon = 1.0\namp = 0.05\nomega = 2.0\nt_max = 3.0\ndt = 0.005\n", 4),
        }
        for subcommand, (config_text, columns) in jobs.items():
            _, out = run_to_file(tmp_path, subcommand, config_text, name=f"{subcommand}.csv")
            rows = out.read_text().strip().splitlines()
            assert all(len(row.split(",")) == columns for row in rows), subcommand

    def test_config_output_path_honored(self, tmp_path):
        target = tmp_path / "from_config.csv"
        config = write(
            tmp_path / "c.cfg", f"delta = 0.5\nt_max = 1.0\ndt = 0.1\noutput_path = {target}\n"
        )
        assert main(["beat", "--config", config]) == 0
        assert target.exists()
        assert target.read_text().startswith("t,p_diff")

    def test_row_writer_matches_per_value_repr(self):
        columns = (
            np.array([-0.0, 1e-300, 1e16, 3.0, 0.1 + 0.2]),
            np.array([0, -7, 2**53 + 1, 5, 12]),
            [1e-300, -0.0, 2.0, 1e16, -1e308],
        )
        expected = ["h"] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
        assert cli._rows("h", *columns) == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_row_writer_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            cli._rows("a,b", [1.0, 2.0], [3.0, value])

    @pytest.mark.parametrize("subcommand, config_text", [
        ("beat", "delta = 1e308\n"),
        ("rabi", "omega = 1e308\n"),
    ])
    def test_overflowing_trajectory_is_config_error(self, tmp_path, capsys, subcommand, config_text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_to_file(tmp_path, subcommand, config_text)
        assert code == 1
        assert not out.exists()
        assert caught == []  # a numpy warning would print before the error line
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite values" in err


_QUBIT_TOKEN = st.integers(0, 3).map(str)  # at most 4 qubits
_LINK_TOKENS = st.integers(0, 2).map(lambda i: f"{i} {i + 1}")
_SCRIPT_LINE = st.one_of(
    st.tuples(st.just("RESET"), _QUBIT_TOKEN, st.sampled_from(["+1", "-1"])).map(" ".join),
    st.tuples(st.just("GATE"), _QUBIT_TOKEN, st.sampled_from(["I", "X", "y", "Z", "H"])).map(" ".join),
    st.tuples(_LINK_TOKENS, st.sampled_from(["ON", "OFF"])).map(lambda t: f"LINK {t[0]} {t[1]}"),
    st.tuples(_LINK_TOKENS, st.floats(0.0, 7.0)).map(
        lambda t: f"LINK {t[0]} ON\nXCHG {t[0]} {t[1]!r}"),
    _LINK_TOKENS.map(lambda pair: f"LINK {pair} ON\nCNOT {pair}"),
    st.tuples(_QUBIT_TOKEN, st.sampled_from(["0.1", "0"]), st.sampled_from(["1.0", "0.5"])).map(
        lambda t: "RF " + " ".join(t)),  # durations <= 1
    _QUBIT_TOKEN.map("MEASURE {}".format),
    # malformed: a bad argument, a wrong arity, an unknown op, stray tokens
    st.sampled_from(["RESET 0 0", "GATE 1 T", "LINK 0 2 ON", "LINK 0 1 UP", "XCHG 0 1 nan",
                     "XCHG 1 0 -1", "CNOT 1 1", "CNOT 0 1", "RF 0 0.1 -1", "RF 0 0.1",
                     "MEASURE", "MEASURE -1", "MEASURE 1e400", "FROB 1", "0 MEASURE"]),
)


class TestChainFuzz:
    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(_SCRIPT_LINE, max_size=10), shots=st.integers(1, 64),
           seed=st.integers(0, 2**64 - 1), dt=st.sampled_from(["0.01", "0.5"]))
    def test_chain_exits_cleanly(self, lines, shots, seed, dt):
        with tempfile.TemporaryDirectory() as tmp:
            script = write(Path(tmp, "fuzz.gates"), "\n".join(lines) + "\n")
            config = write(Path(tmp, "c.cfg"),
                           f"script_path = {script}\nshots = {shots}\ndt = {dt}\n")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["chain", "--config", config, "--seed", str(seed)])
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in range(7) and "Traceback" not in err
        if code:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            return
        assert err == ""
        printed = out.splitlines()
        shot_lines = [line for line in printed if line.startswith("shot ")]
        assert [line.split()[1] for line in shot_lines] == [str(k) for k in range(1, shots + 1)]
        table = printed[printed.index("outcome frequencies:") + 1:printed.index("final probabilities:")]
        freqs = dict(line.rsplit(" -> ", 1) for line in table)
        assert {line.split("measurements: ", 1)[1] for line in shot_lines} <= set(freqs)
        assert abs(sum(map(float, freqs.values())) - 1.0) <= 1e-12


class TestParserReuse:
    # the parser is built once per process; a reused parser must answer like a fresh one
    CALLS = (
        ["device"],
        ["beat", "--seed", "4"],
        ["chern"],
        ["bogus"],
        ["device"],
        ["device", "--seed", "x"],
        ["beat"],
    )

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_matches_fresh_calls(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli._build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        cli._build_parser.cache_clear()
        reused = [self.call(capsys, argv) for argv in self.CALLS]
        assert cli._build_parser.cache_info().hits == len(self.CALLS) - 1
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 2, 0]


class TestDeterminism:
    def test_repeated_runs_hash_identically(self, tmp_path):
        script = write(tmp_path / "bell.gates", SWAP_SCRIPT)
        jobs = {
            "chern": "n_grid = 128\n",
            "beat": "delta = 0.5\nt_max = 5.0\ndt = 0.01\n",
            "damp": "delta = 0.5\ngamma = 0.2\nt_max = 5.0\ndt = 0.01\n",
            "rabi": "epsilon = 1.0\namp = 0.05\nomega = 2.0\nt_max = 5.0\ndt = 0.005\n",
            "chain": f"script_path = {script}\nseed = 11\nshots = 25\n",
            "device": "",
        }
        for subcommand, config_text in jobs.items():
            digests = set()
            for repeat in range(2):
                _, out = run_to_file(
                    tmp_path, subcommand, config_text, name=f"{subcommand}-{repeat}.out"
                )
                digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
            assert len(digests) == 1, subcommand


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "chiralqubit.cli", "device"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "h_gauss,eps_ev" in result.stdout
