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
    3  invariant did not converge
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from . import chirality, device, dynamics, gatescript
from .chirality import GaplessTexture, NotConverged
from .device import MaterialParams
from .dynamics import DensityMatrix, QubitState, StepTooLarge, TwoLevelParams
from .gatescript import ScriptError
from .kspace import GapParams
from .register import LinkOff

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GAPLESS = 2
EXIT_NOT_CONVERGED = 3
EXIT_STEP_TOO_LARGE = 4
EXIT_SCRIPT = 5
EXIT_LINK_OFF = 6


class ConfigError(ValueError):
    pass


_SCHEMAS = {
    "chern": {
        "gap": float, "mu": float, "chi": int, "k_max": float, "n_grid": int,
        "method": str, "output_path": str,
    },
    "beat": {
        "e0": float, "delta": float, "epsilon": float, "t_max": float, "dt": float,
        "output_path": str,
    },
    "damp": {
        "e0": float, "delta": float, "epsilon": float, "gamma": float,
        "t_max": float, "dt": float, "output_path": str,
    },
    "rabi": {
        "e0": float, "delta": float, "epsilon": float, "amp": float, "omega": float,
        "t_max": float, "dt": float, "output_path": str,
    },
    "chain": {
        "script_path": str, "seed": int, "shots": int, "epsilon": float, "dt": float,
        "output_path": str,
    },
    "device": {
        "h_gauss": float, "gap_ev": float, "mass_ratio": float, "cell_volume_a3": float,
        "lambda_l_a": float, "film_thickness_a": float, "output_path": str,
    },
}

_DEFAULTS = {
    "chern": {"gap": 1.0, "mu": 1.0, "chi": 1, "k_max": None, "n_grid": None, "method": "both"},
    "beat": {"e0": 0.0, "delta": 0.5, "epsilon": 0.0, "t_max": 20.0, "dt": 0.01},
    "damp": {"e0": 0.0, "delta": 0.5, "epsilon": 0.0, "gamma": 0.1, "t_max": 20.0, "dt": 0.01},
    "rabi": {"e0": 0.0, "delta": 0.0, "epsilon": 1.0, "amp": 0.05, "omega": 2.0,
             "t_max": 20.0, "dt": 0.005},
    "chain": {"script_path": None, "seed": 0, "shots": 1, "epsilon": 1.0, "dt": 0.01},
    "device": {"h_gauss": 1.0, "gap_ev": 5.0e-4, "mass_ratio": 4.0, "cell_volume_a3": 100.0,
               "lambda_l_a": 2000.0, "film_thickness_a": 100.0},
}


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
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
    schema = _SCHEMAS[subcommand]
    config = dict(_DEFAULTS[subcommand])
    config.setdefault("output_path", None)
    for key, token in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for subcommand {subcommand!r}")
        kind = schema[key]
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
    if not (t_max >= 0.0 and dt > 0.0):
        raise ConfigError(f"need t_max >= 0 and dt > 0, got t_max={t_max}, dt={dt}")
    count = t_max / dt
    if not math.isfinite(count):
        raise ConfigError(f"t_max / dt overflows, got t_max={t_max}, dt={dt}")
    return max(0, int(round(count)))


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
    n = _sample_count(t_max, dt)
    lines = ["t,p_diff,pop_plus,pop_minus"]
    initial = QubitState.plus()
    for i in range(n + 1):
        t = i * dt
        state = dynamics.evolve_closed(initial, params, t)
        p_plus = abs(state.amp_plus) ** 2
        p_minus = abs(state.amp_minus) ** 2
        lines.append(",".join([_fmt(t), _fmt(p_plus - p_minus), _fmt(p_plus), _fmt(p_minus)]))
    return lines


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
    lines = ["t,p_diff,pop_plus,pop_minus,purity"]
    purity = np.einsum("tij,tji->t", rhos, rhos).real
    for k in range(len(times)):
        p_plus = rhos[k, 1, 1].real
        p_minus = rhos[k, 0, 0].real
        lines.append(",".join([
            _fmt(times[k]), _fmt(p_plus - p_minus), _fmt(p_plus), _fmt(p_minus), _fmt(purity[k]),
        ]))
    return lines


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
    lines = ["t,p_diff,pop_plus,pop_minus"]
    for k in range(len(times)):
        p_plus = abs(amps[k, 1]) ** 2
        p_minus = abs(amps[k, 0]) ** 2
        lines.append(",".join([_fmt(times[k]), _fmt(p_plus - p_minus), _fmt(p_plus), _fmt(p_minus)]))
    return lines


def _basis_label(index: int, n: int) -> str:
    bits = ((index >> (n - 1 - q)) & 1 for q in range(n))
    return "|" + ",".join("+1" if b else "-1" for b in bits) + ">"


def _outcome_tokens(outcomes: list[tuple[int, int]]) -> str:
    if not outcomes:
        return "none"
    return " ".join(f"{q}:{value:+d}" for q, value in outcomes)


def run_chain(config: dict) -> list[str]:
    if config["script_path"] is None:
        raise ConfigError("chain needs a script_path key in the config")
    try:
        text = open(config["script_path"], encoding="utf-8").read()
    except OSError as exc:
        raise ConfigError(f"cannot read script {config['script_path']!r}: {exc}") from exc
    if config["shots"] < 1:
        raise ConfigError(f"shots must be >= 1, got {config['shots']}")
    instructions = gatescript.parse_script(text)
    run = gatescript.run_script(
        instructions,
        seed=config["seed"],
        shots=config["shots"],
        field_step=config["epsilon"],
        rf_dt=config["dt"],
    )
    lines = [
        f"# chain n={run.n} shots={config['shots']} seed={config['seed']} "
        f"field_step={_fmt(config['epsilon'])} dt={_fmt(config['dt'])}"
    ]
    for instr in run.instructions:
        lines.append(f"instr {instr.line_no} {instr.text}")
    for k, outcomes in enumerate(run.shot_outcomes, start=1):
        lines.append(f"shot {k} measurements: {_outcome_tokens(outcomes)}")
    lines.append("outcome frequencies:")
    for key, freq in run.outcome_frequencies().items():
        lines.append(f"{_outcome_tokens(list(key))} -> {_fmt(freq)}")
    lines.append("final probabilities:")
    probs = run.final_state.probabilities()
    for index in range(probs.size):
        if probs[index] > 1e-12:
            lines.append(f"{_basis_label(index, run.n)} {_fmt(probs[index])}")
    return lines


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
    except GaplessTexture as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GAPLESS
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except StepTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STEP_TOO_LARGE
    except ScriptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCRIPT
    except LinkOff as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LINK_OFF
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
