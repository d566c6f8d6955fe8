import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralqubit import chirality, cli, dynamics, gatescript
from chiralqubit.cli import main
from chiralqubit.kspace import GapParams

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
        # the quadrature misses the narrow gap, which the plaquette sum resolves: its
        # resolution guard fails every level instead of letting the methods disagree
        config = write(tmp_path / "c.cfg", "gap = 0.001\nmu = 100\nchi = 1\nk_max = 80\n")
        assert main(["chern", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unresolved at n_grid=1024" in err

    def test_start_grid_off_the_doubling_reaches_the_cap(self, tmp_path):
        # 600^2 fails; doubling would overshoot 1024, so the cap is tried and converges
        code, out = run_to_file(tmp_path, "chern", "gap = 0.3\nmu = 600\nmethod = both\n"
                                "n_grid = 600\n")
        assert code == 0
        rows = [row.split(",") for row in out.read_text().strip().splitlines()[1:]]
        assert [(row[0], row[1], row[4]) for row in rows] == [
            ("quadrature", "1", "1024"), ("plaquette", "1", "1024")]

    def test_quadrature_silent_zero_exit_code(self, tmp_path, capsys):
        # the residual alone would report N = 0 (raw 3e-7) for chi = +1, mu > 0
        config = write(tmp_path / "c.cfg", "gap = 0.001\nmu = 100\nchi = 1\nk_max = 80\n"
                       "method = quadrature\nn_grid = 128\n")
        assert main(["chern", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unresolved at n_grid=128" in err

    @pytest.mark.parametrize("config_text, code, message", [
        # |m| = |mu| at the k = 0 node of an odd grid: |m|^3 underflows to 0
        ("mu = 1e-150\nn_grid = 33\nmethod = quadrature\n", 1, "the texture underflows"),
        ("mu = 1e-150\nn_grid = 33\nmethod = both\n", 1, "the texture underflows"),
        ("mu = 1e-300\ngap = 1e-300\nn_grid = 33\nmethod = plaquette\n", 1,
         "the texture underflows"),
        # raw -1.87e98, a float with residual 0.0
        ("mu = -1e-50\nn_grid = 33\nmethod = quadrature\n", 3, "raw value -1.87"),
        # raw -128.999 lies within the residual limit of an integer, and the guard passes
        ("gap = 8.00487381854426\nmu = -0.09520075284135365\nchi = 1\nmethod = quadrature\n"
         "n_grid = 267\n", 3, "raw value -128.99906035085803 at n_grid=267 rounds to no degree"),
    ], ids=["tiny-mu-quadrature", "tiny-mu-both", "tiny-mu-plaquette", "raw-1e98", "raw-129"])
    def test_no_integer_outside_the_degrees(self, tmp_path, capsys, config_text, code, message):
        # the texture's degree is chi or 0; these once ended in a traceback or a huge N at exit 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, out = run_to_file(tmp_path, "chern", config_text)
        assert got == code
        assert not out.exists()
        assert caught == []  # a numpy warning would print before the error line
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_estimators_that_disagree_exit_code(self, tmp_path, capsys, monkeypatch):
        # a plaquette sum one full sphere off converges to an integer one below the quadrature's
        level_sum = chirality._plaquette_sum
        monkeypatch.setattr(chirality, "_plaquette_sum",
                            lambda *args: level_sum(*args) + 4.0 * math.pi)
        with pytest.raises(chirality.MethodDisagreement, match="quadrature reports 1 but "
                           "plaquette reports 0 at n_grid=128"):
            chirality.cross_validate(GapParams(1.0, 1.0, +1))
        config = write(tmp_path / "c.cfg", "gap = 1\nmu = 1\nchi = 1\n")
        assert main(["chern", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "quadrature reports 1 but plaquette reports 0" in err

    def test_unknown_method_is_config_error(self, tmp_path, capsys):
        config = cli._coerce("chern", {"method": "bogus"})
        with pytest.raises(cli.ConfigError, match="method must be both, quadrature or plaquette"):
            cli.run_chern(config)
        assert main(["chern", "--config", write(tmp_path / "c.cfg", "method = bogus\n")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'bogus'" in err


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

    @settings(max_examples=40, deadline=None)
    @given(e0=st.floats(-3.0, 3.0), delta=st.floats(0.0, 3.0), epsilon=st.floats(-3.0, 3.0),
           t_max=st.floats(0.0, 5.0), dt=st.floats(0.005, 0.5), omega=st.floats(0.0, 4.0))
    @example(e0=0.0, delta=0.5, epsilon=0.3, t_max=10.0, dt=0.01, omega=2.0)
    def test_rabi_zero_amplitude_bit_identical_to_beat(self, e0, delta, epsilon, t_max, dt, omega):
        shared = (f"e0 = {e0!r}\ndelta = {delta!r}\nepsilon = {epsilon!r}\n"
                  f"t_max = {t_max!r}\ndt = {dt!r}\n")
        with tempfile.TemporaryDirectory() as tmp:
            beat = run_to_file(Path(tmp), "beat", shared, name="beat.csv")
            rabi = run_to_file(Path(tmp), "rabi", shared + f"amp = 0.0\nomega = {omega!r}\n",
                               name="rabi.csv")
            assert beat[0] == rabi[0] == 0
            assert beat[1].read_bytes() == rabi[1].read_bytes()

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

    @pytest.mark.parametrize("subcommand, config_text", [
        ("damp", "delta = 0.5\ngamma = 10.0\nt_max = 5.0\n"),
        ("rabi", "epsilon = 1.0\namp = 0.05\nomega = 2.0\nt_max = 5.0\n"),
    ])
    def test_step_too_large_names_the_fix(self, tmp_path, capsys, subcommand, config_text):
        config = write(tmp_path / "c.cfg", config_text + "dt = 0.2\n")
        assert main([subcommand, "--config", config]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        suggested = err.split("lower dt to ")[1].split()[0]
        code, _ = run_to_file(tmp_path, subcommand, config_text + f"dt = {suggested}\n")
        assert code == 0

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

    def test_negative_qubit_is_script_error(self, tmp_path, capsys):
        with pytest.raises(gatescript.ScriptError, match="line 1: negative qubit index -1"):
            gatescript.run_script(gatescript.parse_script("GATE -1 H\n"), seed=1, shots=1)
        script = write(tmp_path / "neg.gates", "GATE -1 H\n")
        config = write(tmp_path / "c.cfg", f"script_path = {script}\n")
        assert main(["chain", "--config", config]) == 5
        err = capsys.readouterr().err
        assert err == "error: line 1: negative qubit index -1\n"

    def test_negative_rf_amplitude_is_script_error(self, tmp_path, capsys):
        script = write(tmp_path / "rf.gates", "RF 0 -0.05 1.0\n")
        config = write(tmp_path / "c.cfg", f"script_path = {script}\n")
        assert main(["chain", "--config", config]) == 5
        err = capsys.readouterr().err
        assert err == "error: line 1: amp must be finite and >= 0, got -0.05\n"

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

        monkeypatch.setitem(cli._SUBCOMMANDS, "device", (broken, cli._SUBCOMMANDS["device"][1]))
        with pytest.raises(RuntimeError, match="not an input error"):
            main(["device"])

    @pytest.mark.parametrize("what", ["config", "script"])
    def test_non_utf8_file_is_named(self, tmp_path, capsys, what):
        bad = tmp_path / f"bad.{what}"
        bad.write_bytes(b"\xff = 1\n")
        config = bad if what == "config" else write(tmp_path / "c.cfg", f"script_path = {bad}\n")
        assert main(["chain", "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot read {what} {str(bad)!r}: 'utf-8' codec "
                                           "can't decode byte 0xff in position 0: invalid start byte\n")

    def test_a_directory_is_named_as_open_named_it(self, tmp_path, capsys):
        assert main(["device", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (f"error: cannot read config {str(tmp_path)!r}: "
                                           f"[Errno 21] Is a directory: {str(tmp_path)!r}\n")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_ends_read_as_newlines(self, tmp_path, capsys, newline):
        outputs = []
        for end in ("\n", newline):
            script = tmp_path / f"s{len(end)}.gates"
            script.write_bytes((SWAP_SCRIPT + "# done\n").replace("\n", end).encode())
            config = f"# bell\nscript_path = {script}\nshots = 3\n".replace("\n", end)
            code, out = run_to_file(tmp_path, "chain", config, name=f"o{len(end)}")
            assert code == 0
            outputs.append(out.read_text(encoding="utf-8").replace(str(script), "S"))
            bad = write(tmp_path / "bad.cfg", "mu = 1\n\nwords\n".replace("\n", end))
            assert main(["chern", "--config", bad]) == 1
            assert capsys.readouterr().err == "error: config line 3: expected 'key = value', got 'words'\n"
        assert outputs[0] == outputs[1]
        assert "instr 6 MEASURE 1\n" in outputs[0]

    def test_a_pipe_is_read_to_its_end(self, tmp_path):
        # more comment bytes than a pipe holds at once, then the keys
        text = "# padding\n" * 8000 + "h_gauss = 2.5\nmass_ratio = 3.0\n"
        assert len(text) > 1 << 16
        plain = write(tmp_path / "c.cfg", text)
        assert main(["device", "--config", plain, "--out", str(tmp_path / "plain.out")]) == 0
        read_end, write_end = os.pipe()

        def feed():
            with open(write_end, "wb") as sink, contextlib.suppress(BrokenPipeError):
                sink.write(text.encode())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            code = main(["device", "--config", f"/dev/fd/{read_end}",
                         "--out", str(tmp_path / "pipe.out")])
        finally:
            os.close(read_end)
            writer.join(timeout=10)
        assert code == 0
        assert (tmp_path / "pipe.out").read_bytes() == (tmp_path / "plain.out").read_bytes()
        assert b"# field: 2.5 G" in (tmp_path / "pipe.out").read_bytes()

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

    def test_out_error_names_the_given_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        assert main(["chern", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        # a directory as the target: the rename fails, and no temporary file is left
        assert main(["beat", "--out", str(tmp_path)]) == 1
        assert repr(str(tmp_path)) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_out_mode_follows_the_umask(self, tmp_path, umask):
        config = write(tmp_path / "c.cfg", "delta = 0.5\nt_max = 1.0\ndt = 0.1\n")
        new, replaced, plain = tmp_path / "new.csv", tmp_path / "replaced.csv", tmp_path / "plain"
        replaced.write_text("previous run\n", encoding="utf-8")
        replaced.chmod(0o644)
        old = os.umask(umask)
        try:
            codes = [main(["beat", "--config", config, "--out", str(target)])
                     for target in (new, replaced)]
            plain.write_text("x", encoding="utf-8")  # the mode open() gives a new file
        finally:
            os.umask(old)
        assert codes == [0, 0]
        assert stat.S_IMODE(plain.stat().st_mode) == 0o666 & ~umask
        for target in (new, replaced):
            assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask, target.name
            assert target.read_text(encoding="utf-8").startswith("t,p_diff")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.cfg", "new.csv", "plain", "replaced.csv"]

    def test_out_leaves_a_taken_temporary_name_alone(self, tmp_path, monkeypatch, capsys):
        # the first two names drawn are taken: the file there is not opened, written or moved
        draws = iter([bytes(6), bytes(6), b"\x01" * 6])
        monkeypatch.setattr(cli.os, "urandom", lambda size: next(draws))
        taken = tmp_path / f".tmp-{bytes(6).hex()}"
        taken.write_text("another writer's\n", encoding="utf-8")
        assert main(["device", "--out", str(tmp_path / "out.csv")]) == 0
        monkeypatch.undo()
        assert taken.read_text(encoding="utf-8") == "another writer's\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.csv"]
        assert main(["device"]) == 0
        assert (tmp_path / "out.csv").read_bytes() == capsys.readouterr().out.encode()

    def test_row_writer_matches_per_value_repr(self):
        columns = (
            np.array([-0.0, 1e-300, 1e16, 3.0, 0.1 + 0.2]),
            np.array([0, -7, 2**53 + 1, 5, 12]),
            [1e-300, -0.0, 2.0, 1e16, -1e308],
        )
        expected = "h\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                    for row in zip(*columns))
        assert "".join(cli._rows("h", *columns)) == expected

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_row_writer_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            cli._rows("a,b", [1.0, 2.0], [3.0, value])

    @pytest.mark.parametrize("config_text", [
        "mu = 1e300\n", "mu = -1e300\n", "k_max = 1e308\n", "mu = 1e150\n", "mu = -1e150\n",
        "method = quadrature\nk_max = 1e308\n", "method = plaquette\nmu = -1e300\n",
    ])
    def test_overflowing_texture_is_config_error(self, tmp_path, capsys, config_text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_to_file(tmp_path, "chern", config_text)
        assert code == 1
        assert not out.exists()
        assert caught == []  # a numpy warning would print before the error line
        err = capsys.readouterr().err
        assert err.startswith("error: the texture overflows") and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand, config_text", [
        ("beat", "delta = 1e308\n"),
        ("rabi", "omega = 1e308\n"),
        ("beat", "e0 = 1e308\n"),  # the global phase e0 t overflows
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


class TestChunkedEmit:
    # 200,000 shot-like lines: 7.3 MB of output, 49 chunks of dynamics.BLOCK lines
    LINES = [f"shot {k} measurements: 0:+1 1:-1" for k in range(1, 200_001)]
    PAYLOAD = ("\n".join(LINES) + "\n").encode()

    @staticmethod
    def peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_file_bytes_identical_and_peak_bounded(self, tmp_path):
        out = tmp_path / "shots.txt"
        peak = self.peak_bytes(lambda: cli._emit(cli._text(self.LINES), str(out)))
        assert out.read_bytes() == self.PAYLOAD
        assert [p.name for p in tmp_path.iterdir()] == ["shots.txt"]
        # the joined payload alone was 7.3 MB; one chunk is about 150 kB
        assert peak < 1e6, peak

    def test_stdout_bytes_identical_and_peak_bounded(self, monkeypatch):
        class Digest(io.TextIOBase):
            def __init__(self):
                self.sha = hashlib.sha256()

            def write(self, text):
                self.sha.update(text.encode())
                return len(text)

        sink = Digest()
        monkeypatch.setattr(sys, "stdout", sink)
        peak = self.peak_bytes(lambda: cli._emit(cli._text(self.LINES), None))
        monkeypatch.undo()
        assert sink.sha.hexdigest() == hashlib.sha256(self.PAYLOAD).hexdigest()
        assert peak < 1e6, peak

    def test_chain_formats_shot_lines_as_it_writes(self, tmp_path, capsys):
        # 200,000 one-qubit shots: the shot engine holds about 8 MB, and the list of every
        # shot line that run_chain returned before its lines were streamed took the
        # tracemalloc peak of the run to 21.7 MB
        text = "GATE 0 H\nMEASURE 0\n"
        script = write(tmp_path / "coin.gates", text)
        config = write(tmp_path / "c.cfg", f"script_path = {script}\nseed = 3\nshots = 200000\n")
        out = tmp_path / "shots.txt"
        peak = self.peak_bytes(lambda: main(["chain", "--config", config, "--out", str(out)]))
        assert peak < 12e6, peak
        assert main(["chain", "--config", config]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        run = gatescript.run_script(gatescript.parse_script(text), seed=3, shots=200_000)
        tokens = [" ".join(f"{q}:{value:+d}" for q, value in history) for history in run.histories]
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[3:200_003] == [f"shot {k} measurements: {tokens[i]}"
                                    for k, i in enumerate(run.shot_history.tolist(), start=1)]
        assert lines[2] == "instr 2 MEASURE 0" and lines[200_003] == "outcome frequencies:"

    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path):
        out = tmp_path / "shots.txt"
        out.write_text("previous run\n", encoding="utf-8")
        # a lone surrogate cannot be encoded: the write fails in the second chunk
        lines = self.LINES[:dynamics.BLOCK] + ["\ud800"] + self.LINES[dynamics.BLOCK:]
        with pytest.raises(UnicodeEncodeError):
            cli._emit(cli._text(lines), str(out))
        assert out.read_text(encoding="utf-8") == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["shots.txt"]


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


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [["chern", "--bogus"], ["chern", "--seed", "abc"], [],
                                      ["bogus"], ["beat", "--out"]])
    def test_usage_error_is_config_error(self, capsys, argv):
        # exit 2 means a gapless texture; a usage error exits 1 with one error line
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["chern", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: chiralqubit")
        if argv[0] == "chern":  # argparse's help names each option
            assert "--config CONFIG" in out and "--seed SEED" in out


def _number(low: float, high: float, *junk: str):
    """Config tokens: mostly a float in [low, high] written by repr, else a junk token."""
    number = st.floats(low, high).map(repr)
    return st.one_of(number, number, number, st.sampled_from(junk))


def _integer(low: int, high: int, *junk: str):
    integer = st.integers(low, high).map(str)
    return st.one_of(integer, integer, integer, st.sampled_from(junk))


_PHYSICS = _number(-10.0, 10.0, "0", "nan", "inf", "-1e400", "1e-300", "", "0x10", "3,5", "2.0.1")
# every size stays under its cap: t_max / dt <= 1e4 rows (a junk dt such as 1e-300 asks for
# more than MAX_STEPS and is refused before anything is allocated), n_grid <= 128, shots <= 100
_VALUES = {
    "t_max": _number(-1.0, 10.0, "1e400", "-0.0", "nan"),
    "dt": _number(1e-3, 1.0, "0", "-0.01", "1e-300", "nan", "x"),
    "n_grid": _integer(-4, 128, "1.5", "x", "1e3"),
    "k_max": _number(-1.0, 50.0, "0", "nan", "x"),
    "chi": st.sampled_from(["1", "-1", "0", "2", "x", "+1"]),
    "method": st.sampled_from(["both", "quadrature", "plaquette", "bogus"]),
    "shots": _integer(-2, 100, "1e2", "x"),
    "seed": _integer(-1, 2**64, "x", "0x1"),
    "script_path": st.sampled_from(["{script}", "{script}", "{missing}"]),
}
_JUNK_LINE = st.sampled_from(["bogus_key = 1", "just words", "= 1", "# comment", "", "mu = 1"])


def _config_lines(subcommand: str):
    """Distinct keys of the subcommand with fuzzed values, then at most one junk line; a chain
    config always names a script (test_missing_script_is_config_error covers none)."""
    pair = st.sampled_from(sorted(cli._SUBCOMMANDS[subcommand][1])).flatmap(
        lambda key: st.tuples(st.just(key), _VALUES.get(key, _PHYSICS)))
    first = {"script_path": _VALUES["script_path"]} if subcommand == "chain" else {}
    return st.tuples(st.fixed_dictionaries(first),
                     st.lists(pair.filter(lambda kv: kv[0] not in first), max_size=8,
                              unique_by=lambda kv: kv[0]),
                     st.lists(_JUNK_LINE, max_size=1)).map(
        lambda parts: [f"{key} = {token}" for key, token in [*parts[0].items(), *parts[1]]]
        + parts[2])


class TestConfigFuzz:
    @pytest.mark.parametrize("subcommand", sorted(cli._SUBCOMMANDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_config_exits_cleanly(self, subcommand, data):
        lines = data.draw(_config_lines(subcommand))
        with tempfile.TemporaryDirectory() as tmp:
            script = write(Path(tmp, "swap.gates"), SWAP_SCRIPT + "LINK 0 1 OFF\nRF 0 0.1 1.0\n")
            text = "\n".join(lines).format(script=script, missing=Path(tmp, "absent.gates"))
            config = write(Path(tmp, "c.cfg"), text + "\n")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([subcommand, "--config", config])
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in range(7) and "Traceback" not in err
        if code:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and out


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error (exit 1), not argparse's exit 2
        raise cli.ConfigError(message)


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that cli._parser builds, built here apart from the CLI: the
    reference for the grammar, and for the lines cli._parse_argv reads without it."""
    parser = _ReferenceParser(prog="chiralqubit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in cli._SUBCOMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--seed", type=int, default=None)
    return parser


_REFERENCE = _reference_parser()


def _reference_parse(argv):
    """The reference's reading of argv, as the (subcommand, config, out, seed) tuple."""
    args = _REFERENCE.parse_args(argv)
    return args.subcommand, args.config, args.out, args.seed


# words of a command line: subcommands, values, options whole, by prefix and with "=", help in
# its forms, "--", and the words that do or do not look like options
_WORDS = (
    "chern", "device", "chain", "bogus", "", "x", "a b", "-", "--", "-5", "-1.5", "-.5", "-1e3",
    "+7", " 7 ", "3", "abc", "--config", "--conf", "--c", "--out", "--o", "--seed", "--s",
    "--config=a", "--c=", "--out=-x", "--o=--seed", "--seed=3", "--s=-5", "--seed=", "--s=x",
    "-h", "--help", "--h", "--he", "-hh", "-hx", "--help=x", "--help=", "-h=", "-h=x", "-h x",
    "--=x", "--=", "-x", "--bogus", "---out", "--out x", "--o=a b", "-o",
)


class TestParseArgv:
    EDGES = (
        ["chern", "--config=a.cfg", "--out", "o.txt", "--seed", "7"],
        ["chern", "--conf", "a", "--o=b", "--s", "3"],
        ["chern", "--seed", "1", "--seed", "2", "--out", "a", "--out", "b"],
        ["chern", "--out", "-"], ["chern", "--seed", "-5"], ["chern", "--seed=-5"],
        ["chern", "--out", "--seed"], ["chern", "--out", "-x"], ["chern", "--out=-x"],
        ["chern", "--out"], ["chern", "--out", "--"], ["chern", "--"], ["--"], ["--", "chern"],
        ["chern", "--", "--help"], [], ["bogus"], ["chern", "extra"], ["chern", "--bogus"],
        ["--bogus", "chern"], ["chern", "--seed", "abc"], ["chern", "--seed", "abc", "--help"],
        ["--help"], ["-h"], ["chern", "--help"], ["chern", "-h"], ["--help", "bogus"],
        ["bogus", "--help"], ["chern", "--bogus", "--help"], ["chern", "--help", "--seed", "abc"],
        ["chern", "--help", "--=x"], ["chern", "--he"], ["chern", "--help=x"], ["chern", "-hx"],
        ["-h=hh"], ["chern", "-h=hh"],
    )

    @staticmethod
    def outcome(parse, argv, capsys):
        """("ok", parsed tuple), ("help", exit code, usage printed) or ("error", message)."""
        try:
            result = ("ok", parse(list(argv)))
        except SystemExit as stop:
            result = ("help", stop.code, "usage:" in capsys.readouterr().out)
        except cli.ConfigError as error:
            result = ("error", str(error))
        assert capsys.readouterr() == ("", "")
        return result

    def check(self, argv, capsys):
        expected = self.outcome(_reference_parse, argv, capsys)
        assert self.outcome(cli._parse_argv, argv, capsys) == expected, argv
        if expected[0] == "error":  # through main: exit 1, nothing on stdout, one error line
            assert main(list(argv)) == 1
            assert capsys.readouterr() == ("", f"error: {expected[1]}\n")
        return expected

    @pytest.mark.parametrize("argv", EDGES, ids=" ".join)
    def test_edge_case_reads_as_argparse_read_it(self, capsys, argv):
        self.check(argv, capsys)

    def test_documented_forms(self, capsys):
        assert self.check(["chern", "--conf=a", "--o", "-", "--s", "-5", "--s=6"], capsys) == (
            "ok", ("chern", "a", "-", 6))
        assert self.check(["chern", "--bogus", "-h"], capsys) == ("help", 0, True)
        for argv in (["chern", "--out", "--seed"], ["chern", "--out", "-x"], ["chern", "--"],
                     ["chern", "--seed", "1.5"]):
            assert self.check(argv, capsys)[0] == "error"

    def test_seeded_corpus_reads_as_argparse_read_it(self, capsys):
        rng = random.Random(2026)
        for _ in range(3000):
            words = [rng.choice(_WORDS) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.7:  # most lines name a subcommand first
                words.insert(0, rng.choice(sorted(cli._SUBCOMMANDS)))
            self.check(words, capsys)

    def test_whole_word_lines_read_as_argparse_read_them(self, capsys):
        # whole option names, repeated, values argparse takes as values (a subcommand name
        # too), some --seed values int() refuses, an odd trailing option, a value where an
        # option belongs, shuffled lines
        options, integers = ("--config", "--out", "--seed"), (" 7 ", "7_0", "+7", "3")
        values = integers + ("", "a b", "x=y", "x", "chern", "device", "1" * 5000)
        rng = random.Random(28)
        fast, slow = [], []
        for _ in range(1500):
            pairs = [[rng.choice(options if rng.random() < 0.95 else values), rng.choice(values)]
                     for _ in range(rng.randint(0, 4))]
            words = [word for pair in pairs for word in pair]
            trailing = rng.random() < 0.15
            words += [rng.choice(options)] if trailing else []
            if rng.random() < 0.1:
                rng.shuffle(words)
            words.insert(0, rng.choice(sorted(cli._SUBCOMMANDS)))
            whole = not trailing and all(name in options and (name != "--seed" or value in integers)
                                         for name, value in zip(words[1::2], words[2::2]))
            (fast if whole else slow).append(words)
        assert len(fast) > 500 and len(slow) > 300
        cli._parser.cache_clear()
        for words in fast:
            assert self.check(words, capsys)[0] == "ok"
        assert cli._parser.cache_info().currsize == 0  # argparse was never asked
        for words in slow:
            self.check(words, capsys)
        assert cli._parser.cache_info().currsize == 1


def test_benchmark_command_lines_do_not_import_argparse(tmp_path):
    # perfbench/run.py's argv, [sub, "--config", path, "--out", path], on every shipped config,
    # and once with --seed, in a fresh interpreter: the whole-word reader answers every line
    root = Path(__file__).resolve().parents[1]
    code = """if True:
        import json, sys
        from pathlib import Path
        from chiralqubit import cli
        codes, outs = {}, Path(sys.argv[1])
        for path in sorted(Path("configs").glob("*.cfg")):
            sub = "chain" if path.stem.endswith("chain") else path.stem
            out = outs / f"{path.stem}.out"
            codes[path.name] = cli.main([sub, "--config", str(path), "--out", str(out)])
        codes["seed"] = cli.main(["chain", "--config", "configs/bell_chain.cfg",
                                  "--out", str(outs / "seed.out"), "--seed", "8"])
        print(json.dumps([codes, "argparse" in sys.modules]))
    """
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=root,
                            env={**os.environ, "PYTHONPATH": str(root / "src")},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    codes, imported = json.loads(result.stdout)
    assert len(codes) == len(list((root / "configs").glob("*.cfg"))) + 1 >= 8
    assert set(codes.values()) == {0}, codes
    assert not imported
    assert (tmp_path / "seed.out").read_bytes() != (tmp_path / "bell_chain.out").read_bytes()


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
