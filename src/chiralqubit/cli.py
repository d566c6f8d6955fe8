"""Config-driven scenario runner with deterministic, machine-readable output.

Usage: ``chiralqubit SUBCOMMAND [--config PATH] [--out PATH] [--seed N]``, with
the subcommands chern, beat, damp, rabi, chain and device.  ``--config`` names a
file of flat ``key = value`` lines (``#`` comments), ``--out`` the output file
(stdout otherwise), and ``--seed`` overrides the config seed where randomness is
involved.  An option is written ``--out PATH`` or ``--out=PATH``, or by a unique
prefix (``--conf``, ``--o``, ``--s``); a repeated option keeps its last value.  A
value that starts with ``-`` needs the ``=`` form, unless it is ``-`` or a
negative number.  ``-h`` or ``--help``, before or after the subcommand, prints
the usage and exits 0.  Unknown or malformed config keys are hard errors, and so
are usage errors (a missing or unknown subcommand, an unknown option or extra
word, a missing value, ``--``, a non-integer --seed).  The --out file is replaced
atomically: a reader sees the old file or the whole new one, and a failed run
leaves it as it was.  It gets mode 0o666 less the umask, as open() gives a new
file, whether or not it existed before.  Fixed exit codes:

    0  success                         4  StepTooLarge
    1  config or usage error           5  gate-script parse error
    2  gapless texture                 6  operation across an off link
    3  invariant did not converge, or the two estimators disagree

A trajectory (beat, damp, rabi) and an RF pulse may take at most
dynamics.MAX_STEPS = 10**6 steps; more is a config error (exit 1), or a
script error (exit 5) from inside a chain script.  A chain may take at most
gatescript.MAX_SHOTS = 10**6 shots and a chern grid at most
chirality.MAX_GRID = 1024 points per side; more is a config error (exit 1).
A CSV column that would hold NaN or inf is a config error (exit 1) too.

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
import re
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import chirality, device, dynamics, gatescript
from ._floatcsv import csv_block
from .chirality import GaplessTexture, MethodDisagreement, NotConverged
from .device import MaterialParams
from .dynamics import DensityMatrix, QubitState, StepTooLarge, TwoLevelParams
from .gatescript import ScriptError
from .kspace import GapParams
from .register import LinkOff

EMIT_LINES = 4096  # output lines per written piece


class ConfigError(ValueError):
    pass


# exception types -> exit code (see above), most specific first: GaplessTexture,
# StepTooLarge, ScriptError and ConfigError are all ValueErrors
_EXIT_CODES = (
    ((GaplessTexture,), 2),
    ((NotConverged, MethodDisagreement), 3),
    ((StepTooLarge,), 4),
    ((ScriptError,), 5),
    ((LinkOff,), 6),
    ((ValueError, OSError), 1),
)
_MAPPED = tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds)

def _read_text(path: str, what: str) -> str:
    """The file's text: os.read of its size, one more read to find the end, one UTF-8 decode.
    The callers' splitlines ends lines at \\r\\n and \\r as well, as universal newlines did."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size + 1)]  # all of a regular file at once
            while chunks[-1]:  # a pipe may give less; read to the end
                chunks.append(os.read(fd, 1 << 16))
        except OSError as exc:  # os.read's error names no file: name it, as os.open's does
            raise OSError(exc.errno, exc.strerror, path) from None
        finally:
            os.close(fd)
        return b"".join(chunks).decode("utf-8")
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
    """The CSV text: the header line, then EMIT_LINES rows across the columns per piece, each
    value as _fmt writes it (_floatcsv.csv_block)."""
    values = [np.asarray(column, dtype=float) for column in columns]
    if not all(np.isfinite(column).all() for column in values):
        raise ValueError(f"non-finite values in the {header} columns: inputs out of range")
    blocks = (csv_block(np.column_stack([column[start:start + EMIT_LINES] for column in values]))
              for start in range(0, len(values[0]), EMIT_LINES))
    return itertools.chain([header + "\n"], blocks)


def _text(lines: Iterable[str]) -> Iterator[str]:
    """Each line and a newline, EMIT_LINES lines per piece: no copy of the whole output is held."""
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, EMIT_LINES)):
        yield "\n".join(chunk) + "\n"


def _emit(text: Iterable[str], out_path: str | None) -> None:
    """Write the pieces of text to stdout, or atomically to out_path.

    The file is written under a fresh name beside out_path, created here alone (O_EXCL) with
    mode 0o666 less the umask, as open() would give, and then renamed over out_path.
    """
    if out_path is None:
        sys.stdout.writelines(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    tmp = fd = None
    try:
        while tmp is None:
            name = os.path.join(directory, f".tmp-{os.urandom(6).hex()}")
            try:
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
                tmp = name
            except FileExistsError:  # not ours: draw another name
                pass
        for piece in text:
            data = memoryview(piece.encode("utf-8"))
            while data:  # os.write may take less than it is given
                data = data[os.write(fd, data):]
        closing, fd = fd, None
        os.close(closing)
        os.replace(tmp, out_path)
        tmp = None
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, out_path) from None
    finally:
        if fd is not None:
            os.close(fd)
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
    """'shot k measurements: ...' for each shot, formatted EMIT_LINES shots at a time."""
    return itertools.chain.from_iterable(
        [f"shot {k} measurements: {tokens[i]}"
         for k, i in enumerate(shot_history[start:start + EMIT_LINES].tolist(), start + 1)]
        for start in range(0, len(shot_history), EMIT_LINES))


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


_OPTIONS = ("--help", "--config", "--out", "--seed")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a negative number is a value, not an option


def _option(token: str, names: tuple[str, ...]) -> tuple[str, str | None] | None:
    """(name, value after '=' or None) of the option in names that token spells; else None."""
    if token.startswith("--") and token != "--":
        head, eq, value = token.partition("=")
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise ConfigError(f"ambiguous option: {token} could match {', '.join(found)}")
        return (found[0], value if eq else None) if found else None
    if token.startswith("-h"):
        return "--help", None if token.strip("h") == "-" else token[2:].removeprefix("=")
    return None


def _is_value(token: str) -> bool:
    """Whether a word that spells no option is a value; any other is an unknown option."""
    return not token.startswith("-") or token == "-" or " " in token or bool(_NEGATIVE.match(token))


def _help(value: str | None) -> None:
    if value is not None:
        raise ConfigError(f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(f"usage: chiralqubit {{{','.join(_SUBCOMMANDS)}}} [--config PATH] "
                     "[--out PATH] [--seed N]\n"
                     "  each option as --opt VALUE, --opt=VALUE or a unique prefix\n")
    raise SystemExit(0)


def _parse_argv(argv: list[str]) -> tuple[str, str | None, str | None, int | None]:
    """(subcommand, config, out, seed) of SUBCOMMAND [--config PATH] [--out PATH] [--seed N],
    read left to right as argparse read it: help exits where it stands, and so does a bad
    --seed or a missing value; unknown options and extra words fail once all is read."""
    at = next((k for k, token in enumerate(argv)
               if token == "--" or _is_value(token) or _option(token, _OPTIONS[:1])), len(argv))
    if at < len(argv) and (option := _option(argv[at], _OPTIONS[:1])):
        _help(option[1])
    if argv[at:] in ([], ["--"]):
        raise ConfigError("the following arguments are required: subcommand")
    if argv[at] not in _SUBCOMMANDS:
        raise ConfigError(f"argument subcommand: invalid choice: {argv[at]!r} "
                          f"(choose from {', '.join(map(repr, _SUBCOMMANDS))})")
    rest = argv[at + 1:]
    end = rest.index("--") if "--" in rest else len(rest)  # "--" and all after it are extra
    options = [_option(token, _OPTIONS) for token in rest[:end]]  # an ambiguous one fails first
    stray, values, k = argv[:at], dict.fromkeys(_OPTIONS), 0
    while k < end:
        option, k = options[k], k + 1
        if option is None:
            stray.append(rest[k - 1])
            continue
        name, value = option
        if name == "--help":
            _help(value)
        if value is None:
            if k == end or options[k] or not _is_value(rest[k]):
                raise ConfigError(f"argument {name}: expected one argument")
            value, k = rest[k], k + 1
        if name == "--seed":
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"argument --seed: invalid int value: {value!r}") from None
        values[name] = value
    if stray or end < len(rest):
        raise ConfigError(f"unrecognized arguments: {' '.join(stray + rest[end:])}")
    return argv[at], values["--config"], values["--out"], values["--seed"]


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
