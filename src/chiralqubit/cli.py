"""Config-driven scenario runner with deterministic, machine-readable output.

Usage: ``chiralqubit SUBCOMMAND [--config PATH] [--out PATH] [--seed N]``, with
the subcommands chern, beat, damp, rabi, chain and device.  ``--config`` names a
file of flat ``key = value`` lines (``#`` comments), ``--out`` the output file
(stdout otherwise), and ``--seed`` overrides the config seed where randomness is
involved.  argparse defines the grammar: an option is written ``--out PATH`` or
``--out=PATH``, or by a unique prefix (``--conf``, ``--o``, ``--s``); a repeated
option keeps its last value; a value that starts with ``-`` needs the ``=`` form,
unless it is ``-`` or a negative number; ``-h`` or ``--help`` prints argparse's
help and exits 0.  A line of whole words, a subcommand followed by ``--config``,
``--out`` or ``--seed`` each with a value that does not start with ``-`` (and an
integer for --seed), is read directly, as argparse would read it, without building
the parser.  Unknown or malformed config keys are hard errors, and so are usage
errors (a missing or unknown subcommand, an unknown option or extra word, a
missing value, ``--``, a non-integer --seed).  The --out file is replaced
atomically: a reader sees the old file or the whole new one, and a failed run
leaves it as it was.  It gets mode 0o666 less the umask, as open() gives a new
file, whether or not it existed before.  Fixed exit codes:

    0  success                         4  StepTooLarge
    1  config or usage error           5  gate-script parse error
    2  gapless texture                 6  operation across an off link
    3  invariant did not converge (antipodal plaquette corners too), or the two
       estimators disagree

A trajectory (beat, damp, rabi) and an RF pulse may take at most
dynamics.MAX_STEPS = 10**6 steps; more is a config error (exit 1), or a
script error (exit 5) from inside a chain script.  A chain may take at most
gatescript.MAX_SHOTS = 10**6 shots and a chern grid at most
chirality.MAX_GRID = 1024 points per side; more is a config error (exit 1).
A CSV column that would hold NaN or inf is a config error (exit 1) too, and so
is a run that cannot allocate an array it needs (MemoryError).

Every float in the output is written as Python's repr writes it: the
shortest string that reads back to the same double.  beat, damp and rabi
write their CSV rows through _floatcsv.csv_block, which gives those bytes
for a whole block at once; tests pin them against repr.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import chirality, device, dynamics, gatescript
from ._floatcsv import csv_block
from .chirality import DegeneratePlaquette, GaplessTexture, MethodDisagreement, NotConverged
from .device import MaterialParams
from .dynamics import BLOCK, DensityMatrix, QubitState, StepTooLarge, TwoLevelParams
from .gatescript import ScriptError
from .kspace import GapParams
from .register import LinkOff


class ConfigError(ValueError):
    pass


# exception types -> exit code (see above), most specific first: GaplessTexture,
# DegeneratePlaquette, StepTooLarge, ScriptError and ConfigError are all ValueErrors
_EXIT_CODES = (
    ((GaplessTexture,), 2),
    ((NotConverged, DegeneratePlaquette, MethodDisagreement), 3),
    ((StepTooLarge,), 4),
    ((ScriptError,), 5),
    ((LinkOff,), 6),
    ((ValueError, OSError, MemoryError), 1),
)
_MAPPED = tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds)

def _read_text(path: str, what: str) -> str:
    """The file's text, read to its end (a pipe too) and decoded as UTF-8.  The callers'
    splitlines ends lines at \\r\\n and \\r as well, as universal newlines did."""
    try:
        with open(path, "rb", buffering=0) as handle:  # readall: a read sized by fstat, to the end
            return handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for line_no, line in enumerate(_read_text(path, "config").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"config line {line_no}: empty key")
        if key in raw:
            raise ConfigError(f"config line {line_no}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _coerce(subcommand: str, raw: dict[str, str]) -> dict:
    schema = {**_SUBCOMMANDS[subcommand][1], "output_path": (str, None)}
    config = {key: default for key, (_, default) in schema.items()}
    for key, token in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for subcommand {subcommand!r}")
        kind = schema[key][0]
        if kind is float:
            try:
                value = float(token)
            except ValueError:
                raise ConfigError(f"key {key!r}: not a number: {token!r}") from None
            if not math.isfinite(value):
                raise ConfigError(f"key {key!r}: must be finite, got {token!r}")
        elif kind is int:
            try:
                value = int(token)
            except ValueError:
                raise ConfigError(f"key {key!r}: not an integer: {token!r}") from None
        else:
            value = token
        config[key] = value
    return config


def _fmt(value) -> str:
    return repr(float(value))


def _rows(header: str, *columns) -> Iterator[str]:
    """The CSV text: the header line, then BLOCK rows per piece, each value as _fmt writes it."""
    values = [np.asarray(column, dtype=float) for column in columns]
    if not all(np.isfinite(column).all() for column in values):
        raise ValueError(f"non-finite values in the {header} columns: inputs out of range")
    blocks = (csv_block(np.column_stack([column[start:start + BLOCK] for column in values]))
              for start in range(0, len(values[0]), BLOCK))
    return itertools.chain([header + "\n"], blocks)


def _text(lines: Iterable[str]) -> Iterator[str]:
    """Each line and a newline, BLOCK lines per piece: no copy of the whole output is held."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, BLOCK)):
        yield "\n".join(chunk) + "\n"


def _emit(text: Iterable[str], out_path: str | None) -> None:
    """Write the pieces of text to stdout, or atomically to out_path.

    The file is written under a fresh name beside out_path, created here alone (mode "x":
    O_EXCL) with mode 0o666 less the umask, as open() gives, and then renamed over out_path.
    """
    if out_path is None:
        sys.stdout.writelines(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    tmp = None
    try:
        while tmp is None:
            name = os.path.join(directory, f".tmp-{os.urandom(6).hex()}")
            try:
                handle, tmp = open(name, "xb"), name
            except FileExistsError:  # not ours: draw another name
                pass
        with handle:
            handle.writelines(piece.encode("utf-8") for piece in text)
        os.replace(tmp, out_path)
        tmp = None
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, out_path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _sample_count(t_max: float, dt: float) -> int:
    try:
        return dynamics._n_steps(t_max, dt)
    except ValueError as exc:
        raise ConfigError(f"t_max / dt: {exc}") from None


def _chern_row(result: chirality.ChernResult) -> str:
    return ",".join([
        result.method, str(result.n_integer), _fmt(result.raw), _fmt(result.residual),
        str(result.grid_size), _fmt(result.k_max),
    ])


def run_chern(config: dict) -> Iterator[str]:
    params = GapParams(config["gap"], config["mu"], config["chi"])
    method = config["method"]
    if method not in ("both", "quadrature", "plaquette"):
        raise ConfigError(f"method must be both, quadrature or plaquette, got {method!r}")
    lines = ["method,n_integer,raw,residual,n_grid,k_max"]
    if method == "both":
        start = config["n_grid"] if config["n_grid"] is not None else chirality.N_GRID_START
        report = chirality.cross_validate(params, k_max=config["k_max"], n_grid_start=start)
        lines.append(_chern_row(report.quadrature))
        lines.append(_chern_row(report.plaquette))
    else:
        n_grid = config["n_grid"] if config["n_grid"] is not None else 256
        k_max = config["k_max"] if config["k_max"] is not None else chirality.default_k_max(params)
        fn = chirality.chern_quadrature if method == "quadrature" else chirality.chern_plaquette
        lines.append(_chern_row(fn(params, k_max, n_grid)))
    return _text(lines)


def run_beat(config: dict) -> Iterator[str]:
    return run_rabi({**config, "amp": 0.0, "omega": 0.0})


def run_damp(config: dict) -> Iterator[str]:
    params = TwoLevelParams(
        e0=config["e0"], delta=config["delta"], epsilon=config["epsilon"],
        gamma=config["gamma"],
    )
    _sample_count(config["t_max"], config["dt"])
    rho0 = DensityMatrix.from_state(QubitState.plus())
    times, rhos = dynamics.evolve_damped(rho0, params, config["t_max"], config["dt"])
    p_plus, p_minus = rhos[:, 1, 1].real, rhos[:, 0, 0].real
    purity = np.einsum("tij,tji->t", rhos, rhos).real
    columns = (times, p_plus - p_minus, p_plus, p_minus, purity)
    return _rows("t,p_diff,pop_plus,pop_minus,purity", *columns)


def run_rabi(config: dict) -> Iterator[str]:
    params = TwoLevelParams(
        e0=config["e0"], delta=config["delta"], epsilon=config["epsilon"],
        drive_amp=config["amp"], drive_freq=config["omega"],
    )
    _sample_count(config["t_max"], config["dt"])
    times, amps = dynamics.drive_evolve(QubitState.plus(), params, config["t_max"], config["dt"])
    p_plus, p_minus = np.abs(amps[:, 1]) ** 2, np.abs(amps[:, 0]) ** 2
    return _rows("t,p_diff,pop_plus,pop_minus", times, p_plus - p_minus, p_plus, p_minus)


@functools.cache
def _labels(n: int) -> list[str]:
    """The basis label '|-1,+1,...> ' of each index of n qubits, qubit 0 leftmost."""
    return ["|" + ",".join(bits) + "> " for bits in itertools.product(("-1", "+1"), repeat=n)]


def _probability_lines(probs: np.ndarray, n: int) -> list[str]:
    """'|-1,+1,...> p' for each basis state of probability p > 1e-12, in index order."""
    kept = np.flatnonzero(probs > 1e-12)
    labels = _labels(n)
    return [f"{labels[i]}{p!r}" for i, p in zip(kept.tolist(), probs[kept].tolist())]


def _shot_lines(tokens: list[str], shot_history: np.ndarray) -> Iterator[str]:
    """'shot k measurements: ...' for each shot, formatted BLOCK shots at a time."""
    return itertools.chain.from_iterable(
        [f"shot {k} measurements: {tokens[i]}"
         for k, i in enumerate(shot_history[start:start + BLOCK].tolist(), start + 1)]
        for start in range(0, len(shot_history), BLOCK))


def run_chain(config: dict) -> Iterator[str]:
    """The chain's output text; the shot lines are formatted as they are written."""
    if config["script_path"] is None:
        raise ConfigError("chain needs a script_path key in the config")
    text = _read_text(config["script_path"], "script")
    if not 1 <= config["shots"] <= gatescript.MAX_SHOTS:
        raise ConfigError(f"shots must be in [1, {gatescript.MAX_SHOTS}], got {config['shots']}")
    instructions = gatescript.parse_script(text)
    run = gatescript.run_script(
        instructions,
        seed=config["seed"],
        shots=config["shots"],
        field_step=config["epsilon"],
        rf_dt=config["dt"],
    )
    # one "q:+1 q:-1 ..." token string per distinct history
    tokens = [" ".join(f"{q}:{value:+d}" for q, value in history) or "none"
              for history in run.histories]
    lines = [
        f"# chain n={run.final_state.n} shots={config['shots']} seed={config['seed']} "
        f"field_step={_fmt(config['epsilon'])} dt={_fmt(config['dt'])}"
    ]
    lines += [f"instr {instr.line_no} {instr.text}" for instr in instructions]
    tail = ["outcome frequencies:"]
    tail += [f"{token} -> {_fmt(freq)}"
             for token, freq in zip(tokens, run.outcome_frequencies().values())]
    tail.append("final probabilities:")
    tail += _probability_lines(run.final_state.probabilities(), run.final_state.n)
    return _text(itertools.chain(lines, _shot_lines(tokens, run.shot_history), tail))


def run_device(config: dict) -> Iterator[str]:
    params = MaterialParams(**{field.name: config[field.name]
                               for field in dataclasses.fields(MaterialParams)})
    report = device.sizing_report(params, config["h_gauss"])
    geo = report.geometry
    flag = "yes" if geo.within_lambda else "no"
    lines = [
        f"# field: {_fmt(report.h_gauss)} G",
        f"# zeeman splitting: {_fmt(report.eps_ev)} eV",
        f"# pair budget: {report.n_pairs}",
        f"# volume: {_fmt(geo.volume_a3)} A^3",
        f"# geometry: {_fmt(geo.lx_a)} x {_fmt(geo.ly_a)} x {_fmt(geo.lz_a)} A",
        f"# all dimensions below lambda_L = {_fmt(params.lambda_l_a)} A: {flag}",
        "h_gauss,eps_ev,n_pairs,volume_a3,lx_a,ly_a,lz_a,within_lambda",
        ",".join([
            _fmt(report.h_gauss), _fmt(report.eps_ev), str(report.n_pairs),
            _fmt(geo.volume_a3), _fmt(geo.lx_a), _fmt(geo.ly_a), _fmt(geo.lz_a),
            "true" if geo.within_lambda else "false",
        ]),
    ]
    return _text(lines)


# subcommand -> (runner, config key -> (type, default)); every subcommand also takes output_path
_SUBCOMMANDS = {
    "chern": (run_chern, {"gap": (float, 1.0), "mu": (float, 1.0), "chi": (int, 1),
                          "k_max": (float, None), "n_grid": (int, None), "method": (str, "both")}),
    "beat": (run_beat, {"e0": (float, 0.0), "delta": (float, 0.5), "epsilon": (float, 0.0),
                        "t_max": (float, 20.0), "dt": (float, 0.01)}),
    "damp": (run_damp, {"e0": (float, 0.0), "delta": (float, 0.5), "epsilon": (float, 0.0),
                        "gamma": (float, 0.1), "t_max": (float, 20.0), "dt": (float, 0.01)}),
    "rabi": (run_rabi, {"e0": (float, 0.0), "delta": (float, 0.0), "epsilon": (float, 1.0),
                        "amp": (float, 0.05), "omega": (float, 2.0), "t_max": (float, 20.0),
                        "dt": (float, 0.005)}),
    "chain": (run_chain, {"script_path": (str, None), "seed": (int, 0), "shots": (int, 1),
                          "epsilon": (float, 1.0), "dt": (float, 0.01)}),
    # the material keys are MaterialParams' fields, with its defaults
    "device": (run_device, {"h_gauss": (float, 1.0), **{
        field.name: (float, field.default) for field in dataclasses.fields(MaterialParams)}}),
}


@functools.cache
def _parser():
    """The argparse parser that defines the command line; argparse is imported on first use."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # a usage error is a config error (exit 1), not argparse's exit 2
            raise ConfigError(message)

    parser = Parser(
        prog="chiralqubit",
        description="chiral p-wave qubit simulator: invariants, beating, chains, sizing",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="path to a 'key = value' config file")
        cmd.add_argument("--out", default=None, help="output file (stdout when omitted)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _parse_argv(argv: list[str]) -> tuple[str, str | None, str | None, int | None]:
    """(subcommand, config, out, seed) of the command line, as _parser reads it.  A subcommand
    followed by pairs of a whole option name and a value that does not start with '-' (an int
    for --seed) is read here: argparse takes no such value for an option and reads --seed with
    int, so it would read the line the same way.  Any other line goes to argparse."""
    values = dict.fromkeys(("--config", "--out", "--seed"))
    if len(argv) % 2 and argv[0] in _SUBCOMMANDS:
        try:
            for name, value in zip(argv[1::2], argv[2::2]):
                if name not in values or value.startswith("-"):
                    break
                values[name] = int(value) if name == "--seed" else value
            else:
                return argv[0], values["--config"], values["--out"], values["--seed"]
        except ValueError:  # a --seed that int() refuses: argparse words the error
            pass
    args = _parser().parse_args(argv)
    return args.subcommand, args.config, args.out, args.seed


def main(argv=None) -> int:
    try:
        subcommand, config_path, out, seed = _parse_argv(
            sys.argv[1:] if argv is None else list(argv))
        config = _coerce(subcommand,
                         _read_config_file(config_path) if config_path is not None else {})
        if seed is not None and "seed" in config:
            config["seed"] = seed
        text = _SUBCOMMANDS[subcommand][0](config)
        _emit(text, out if out is not None else config.get("output_path"))
    except _MAPPED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
