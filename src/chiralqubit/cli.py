"""Config-driven scenario runner with deterministic, machine-readable output.

Subcommands: chern, beat, damp, rabi, chain, device.  Each takes
``--config <path>`` (flat ``key = value`` lines, ``#`` comments), an optional
``--out <path>`` for the output file (stdout otherwise, written atomically
when a path is given), and ``--seed <u64>`` which overrides the config seed
where randomness is involved.  Unknown or malformed config keys are hard
errors.  Fixed exit codes:

    0  success                         4  StepTooLarge
    1  config error                    5  gate-script parse error
    2  gapless texture                 6  operation across an off link
    3  invariant did not converge, or the two estimators disagree

A trajectory (beat, damp, rabi) and an RF pulse may take at most
dynamics.MAX_STEPS = 10**6 steps; more is a config error (exit 1), or a
script error (exit 5) from inside a chain script.  A chain may take at most
gatescript.MAX_SHOTS = 10**6 shots and a chern grid at most
chirality.MAX_GRID = 1024 points per side; more is a config error (exit 1).
A CSV column that would hold NaN or inf is a config error (exit 1) too.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import chirality, device, dynamics, gatescript
from .chirality import GaplessTexture, MethodDisagreement, NotConverged
from .device import MaterialParams
from .dynamics import DensityMatrix, QubitState, StepTooLarge, TwoLevelParams
from .gatescript import ScriptError
from .kspace import GapParams
from .register import LinkOff

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

# subcommand -> config key -> (type, default); every subcommand also takes output_path
_SCHEMAS = {
    "chern": {"gap": (float, 1.0), "mu": (float, 1.0), "chi": (int, 1), "k_max": (float, None),
              "n_grid": (int, None), "method": (str, "both")},
    "beat": {"e0": (float, 0.0), "delta": (float, 0.5), "epsilon": (float, 0.0),
             "t_max": (float, 20.0), "dt": (float, 0.01)},
    "damp": {"e0": (float, 0.0), "delta": (float, 0.5), "epsilon": (float, 0.0),
             "gamma": (float, 0.1), "t_max": (float, 20.0), "dt": (float, 0.01)},
    "rabi": {"e0": (float, 0.0), "delta": (float, 0.0), "epsilon": (float, 1.0),
             "amp": (float, 0.05), "omega": (float, 2.0), "t_max": (float, 20.0),
             "dt": (float, 0.005)},
    "chain": {"script_path": (str, None), "seed": (int, 0), "shots": (int, 1),
              "epsilon": (float, 1.0), "dt": (float, 0.01)},
    "device": {"h_gauss": (float, 1.0), "gap_ev": (float, 5.0e-4), "mass_ratio": (float, 4.0),
               "cell_volume_a3": (float, 100.0), "lambda_l_a": (float, 2000.0),
               "film_thickness_a": (float, 100.0)},
}


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
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
    schema = {**_SCHEMAS[subcommand], "output_path": (str, None)}
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


def _load_config(subcommand: str, path: str | None) -> dict:
    raw = _read_config_file(path) if path is not None else {}
    return _coerce(subcommand, raw)


def _fmt(value) -> str:
    return repr(float(value))


def _rows(header: str, *columns) -> list[str]:
    """CSV lines: the header, then one row per index across the columns, as _fmt writes them."""
    values = [np.asarray(column, dtype=float) for column in columns]
    if not all(np.isfinite(column).all() for column in values):
        raise ValueError(f"non-finite values in the {header} columns: inputs out of range")
    return [header] + [",".join(map(repr, row)) for row in zip(*(v.tolist() for v in values))]


def _emit(lines: list[str], out_path: str | None) -> None:
    payload = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(payload)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def run_chern(config: dict) -> list[str]:
    params = GapParams(config["gap"], config["mu"], config["chi"])
    method = config["method"]
    if method not in ("both", "quadrature", "plaquette"):
        raise ConfigError(f"method must be both, quadrature or plaquette, got {method!r}")
    lines = ["method,n_integer,raw,residual,n_grid,k_max"]
    if method == "both":
        start = config["n_grid"] if config["n_grid"] is not None else 128
        report = chirality.cross_validate(params, k_max=config["k_max"], n_grid_start=start)
        lines.append(_chern_row(report.quadrature))
        lines.append(_chern_row(report.plaquette))
    else:
        n_grid = config["n_grid"] if config["n_grid"] is not None else 256
        k_max = config["k_max"] if config["k_max"] is not None else chirality.default_k_max(params)
        fn = chirality.chern_quadrature if method == "quadrature" else chirality.chern_plaquette
        lines.append(_chern_row(fn(params, k_max, n_grid)))
    return lines


def _closed_rows(params: TwoLevelParams, t_max: float, dt: float) -> list[str]:
    times = np.arange(_sample_count(t_max, dt) + 1) * dt
    # column |+1> of the exact propagator at every sample time
    amps = dynamics._propagator(params.e0, -params.delta, params.epsilon, times)[:, :, 1]
    return _population_rows(times, amps)


def _population_rows(times: np.ndarray, amps: np.ndarray) -> list[str]:
    p_plus, p_minus = np.abs(amps[:, 1]) ** 2, np.abs(amps[:, 0]) ** 2
    return _rows("t,p_diff,pop_plus,pop_minus", times, p_plus - p_minus, p_plus, p_minus)


def run_beat(config: dict) -> list[str]:
    params = TwoLevelParams(e0=config["e0"], delta=config["delta"], epsilon=config["epsilon"])
    return _closed_rows(params, config["t_max"], config["dt"])


def run_damp(config: dict) -> list[str]:
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


def run_rabi(config: dict) -> list[str]:
    params = TwoLevelParams(
        e0=config["e0"], delta=config["delta"], epsilon=config["epsilon"],
        drive_amp=config["amp"], drive_freq=config["omega"],
    )
    _sample_count(config["t_max"], config["dt"])
    if params.drive_amp == 0.0:
        # no drive: use the exact closed propagator, matching `beat` bit for bit
        closed = TwoLevelParams(e0=params.e0, delta=params.delta, epsilon=params.epsilon)
        return _closed_rows(closed, config["t_max"], config["dt"])
    times, amps = dynamics.drive_evolve(QubitState.plus(), params, config["t_max"], config["dt"])
    return _population_rows(times, amps)


def _probability_lines(probs: np.ndarray, n: int) -> list[str]:
    """'|-1,+1,...> p' for each basis state of probability p > 1e-12, in index order."""
    kept = np.flatnonzero(probs > 1e-12)
    return ["|" + ",".join("+1" if bit == "1" else "-1" for bit in format(index, f"0{n}b"))
            + f"> {_fmt(p)}" for index, p in zip(kept.tolist(), probs[kept].tolist())]


def run_chain(config: dict) -> list[str]:
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
    lines += [f"shot {k} measurements: {tokens[i]}"
              for k, i in enumerate(run.shot_history.tolist(), start=1)]
    lines.append("outcome frequencies:")
    lines += [f"{token} -> {_fmt(freq)}"
              for token, freq in zip(tokens, run.outcome_frequencies().values())]
    lines.append("final probabilities:")
    return lines + _probability_lines(run.final_state.probabilities(), run.final_state.n)


def run_device(config: dict) -> list[str]:
    params = MaterialParams(
        gap_ev=config["gap_ev"], mass_ratio=config["mass_ratio"],
        cell_volume_a3=config["cell_volume_a3"], lambda_l_a=config["lambda_l_a"],
        film_thickness_a=config["film_thickness_a"],
    )
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
    return lines


_RUNNERS = {
    "chern": run_chern,
    "beat": run_beat,
    "damp": run_damp,
    "rabi": run_rabi,
    "chain": run_chain,
    "device": run_device,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralqubit",
        description="chiral p-wave qubit simulator: invariants, beating, chains, sizing",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="path to a 'key = value' config file")
        cmd.add_argument("--out", default=None, help="output file (stdout when omitted)")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.subcommand, args.config)
        if args.seed is not None and "seed" in _SCHEMAS[args.subcommand]:
            config["seed"] = args.seed
        lines = _RUNNERS[args.subcommand](config)
        _emit(lines, args.out if args.out is not None else config.get("output_path"))
    except _MAPPED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
