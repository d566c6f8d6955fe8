"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import hashlib
import math
import time

import numpy as np

from chiralqubit import device, dynamics
from chiralqubit.chirality import chern_plaquette, cross_validate
from chiralqubit.cli import main
from chiralqubit.dynamics import DensityMatrix, QubitState, TwoLevelParams
from chiralqubit.kspace import GapParams
from chiralqubit.register import (
    CouplingLink,
    FieldProfile,
    RegisterState,
    cnot_composed,
    exchange_pulse,
    exchange_unitary,
    measure,
    selective_rf_pulse,
)

LINK01 = CouplingLink(0, 1, on=True)


def population_diff(state: QubitState) -> float:
    return abs(state.amp_plus) ** 2 - abs(state.amp_minus) ** 2


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {number:02d} {label}"


def test_criterion_01_topological_quantization():
    start = time.perf_counter()
    result = chern_plaquette(GapParams(1.0, 1.0, +1), 8.0, 256)
    elapsed = time.perf_counter() - start
    ok = result.n_integer == +1 and result.residual < 1e-6 and elapsed < 5.0
    verdict(1, "topological quantization", ok)


def test_criterion_02_sign_and_phase_map():
    start = time.perf_counter()
    ok = True
    for mu in (-2.0, -0.5, 0.5, 2.0):
        for chi in (+1, -1):
            for delta in (0.2, 1.0, 5.0):
                report = cross_validate(GapParams(delta, mu, chi))
                expected = chi if mu > 0 else 0
                agree = report.quadrature.n_integer == report.plaquette.n_integer
                ok = ok and agree and report.n_integer == expected
    elapsed = time.perf_counter() - start
    verdict(2, "sign and phase map", ok and elapsed < 60.0)


def test_criterion_03_beating_law():
    ok = True
    for delta in (0.1, 0.5, 2.0):
        params = TwoLevelParams(delta=delta)
        horizon = 200.0 / delta
        times = np.linspace(0.0, horizon, 1000, endpoint=False)
        worst = max(
            abs(
                population_diff(dynamics.evolve_closed(QubitState.plus(), params, t))
                - math.cos(2.0 * delta * t)
            )
            for t in times
        )
        ok = ok and worst < 1e-9

        n = 8192
        dt = horizon / n
        grid = np.arange(n) * dt
        signal = np.array(
            [population_diff(dynamics.evolve_closed(QubitState.plus(), params, t)) for t in grid]
        )
        spectrum = np.abs(np.fft.rfft(signal - signal.mean()))
        bin_width = 2.0 * math.pi / horizon
        peak = np.argmax(spectrum) * bin_width
        ok = ok and abs(peak - 2.0 * delta) <= bin_width
    verdict(3, "beating law and spectrum", ok)


def test_criterion_04_eigenstructure():
    ok = True
    for e0, delta, epsilon in ((0.0, 3.0, 4.0), (5.0, 1.0, 0.0), (-2.0, 0.3, -1.2)):
        (e_g, ground), (e_e, _) = dynamics.eigensystem(
            TwoLevelParams(e0=e0, delta=delta, epsilon=epsilon)
        )
        omega = math.hypot(delta, epsilon)
        ok = ok and abs(e_g - (e0 - omega)) < 1e-12 and abs(e_e - (e0 + omega)) < 1e-12
        if epsilon == 0.0:
            ok = ok and abs(ground.amp_minus - ground.amp_plus) < 1e-12
            ok = ok and abs(e_g - (e0 - delta)) < 1e-12
    verdict(4, "eigenstructure", ok)


def test_criterion_05_damping_regimes():
    rho0 = DensityMatrix.from_state(QubitState.plus())

    over = TwoLevelParams(delta=0.5, gamma=10.0)  # gamma/delta = 20
    _, rhos = dynamics.evolve_damped(rho0, over, 150.0, 0.004)
    signal = (rhos[:, 1, 1] - rhos[:, 0, 0]).real
    cutoff = int(np.argmax(signal < 0.01))
    overdamped_ok = cutoff > 0 and not np.any(np.diff(np.sign(signal[:cutoff])) != 0)

    under = TwoLevelParams(delta=0.5, gamma=0.01)  # gamma/delta = 0.02
    _, rhos = dynamics.evolve_damped(rho0, under, 40.0, 0.01)
    signal = (rhos[:, 1, 1] - rhos[:, 0, 0]).real
    sign_changes = int(np.sum(np.diff(np.sign(signal)) != 0))
    verdict(5, "damping regimes", overdamped_ok and sign_changes >= 10)


def test_criterion_06_gate_algebra():
    half = exchange_unitary(math.pi / 2.0)
    full = exchange_unitary(math.pi)
    sqrt_swap_ok = np.abs(half @ half - full).max() < 1e-10

    columns = []
    for index in range(4):
        amps = np.zeros(4, dtype=complex)
        amps[index] = 1.0
        columns.append(cnot_composed(RegisterState(2, amps), 0, 1, LINK01).amps)
    u = np.column_stack(columns)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    phase = u[0, 0]
    cnot_ok = abs(abs(phase) - 1.0) < 1e-10 and np.abs(u / phase - cnot).max() < 1e-10

    squared = u @ u
    phase2 = squared[0, 0]
    involution_ok = np.abs(squared / phase2 - np.eye(4)).max() < 1e-9
    verdict(6, "gate algebra", sqrt_swap_ok and cnot_ok and involution_ok)


def test_criterion_07_selective_addressing():
    amp = 0.05
    out = selective_rf_pulse(
        RegisterState.all_minus(2), FieldProfile((1.0, 1.5)), 0, amp, math.pi / amp, 0.005
    )
    fidelity = out.probability_plus(0)
    spectator = out.probability_plus(1)
    verdict(7, "selective addressing", fidelity > 0.95 and spectator < 0.02)


def test_criterion_08_measurement_statistics():
    shots = 10_000
    rng = np.random.default_rng(20_02)
    plus_state = RegisterState(1, np.array([1.0, 1.0]) / math.sqrt(2.0))
    hits = sum(1 for _ in range(shots) if measure(plus_state, 0, rng)[0] == +1)
    single_ok = abs(hits / shots - 0.5) < 0.02

    bell = exchange_pulse(RegisterState.product([+1, -1]), LINK01, math.pi / 2.0)
    rng = np.random.default_rng(40_04)
    counts: dict[tuple[int, int], int] = {}
    for _ in range(shots):
        first, post = measure(bell, 0, rng)
        second, _ = measure(post, 1, rng)
        counts[(first, second)] = counts.get((first, second), 0) + 1
    # exact joint Born probabilities: 1/2 on (+1,-1) and (-1,+1), zero elsewhere
    four_sigma = 4.0 * math.sqrt(0.25 / shots)
    joint_ok = (
        set(counts) == {(+1, -1), (-1, +1)}
        and abs(counts[(+1, -1)] / shots - 0.5) < four_sigma
        and abs(counts[(-1, +1)] / shots - 0.5) < four_sigma
    )
    verdict(8, "measurement statistics", single_ok and joint_ok)


def test_criterion_09_device_numbers():
    report = device.sizing_report(device.MaterialParams(), 1.0)
    geometry = report.geometry
    ok = (
        1e-9 <= report.eps_ev <= 2e-9
        and 1e5 <= report.n_pairs <= 1e7
        and 1e7 <= geometry.volume_a3 <= 1e9
        and 500.0 <= geometry.lx_a <= 2000.0
        and geometry.lz_a == 100.0
        and geometry.within_lambda
        and max(geometry.lx_a, geometry.ly_a, geometry.lz_a) < 2000.0
    )
    verdict(9, "device sizing numbers", ok)


def test_criterion_10_cli_determinism(tmp_path):
    script = tmp_path / "bell.gates"
    script.write_text(
        "RESET 0 +1\nRESET 1 -1\nLINK 0 1 ON\nXCHG 0 1 1.5707963267948966\n"
        "MEASURE 0\nMEASURE 1\n",
        encoding="utf-8",
    )
    jobs = {
        "chern": "n_grid = 128\n",
        "beat": "delta = 0.5\nt_max = 6.0\ndt = 0.01\n",
        "damp": "delta = 0.5\ngamma = 0.2\nt_max = 6.0\ndt = 0.01\n",
        "rabi": "epsilon = 1.0\namp = 0.05\nomega = 2.0\nt_max = 6.0\ndt = 0.005\n",
        "chain": f"script_path = {script}\nseed = 17\nshots = 32\n",
        "device": "",
    }
    ok = True
    for subcommand, config_text in jobs.items():
        config = tmp_path / f"{subcommand}.cfg"
        config.write_text(config_text, encoding="utf-8")
        digests = set()
        for repeat in range(5):
            out = tmp_path / f"{subcommand}-{repeat}.out"
            code = main([subcommand, "--config", str(config), "--out", str(out)])
            ok = ok and code == 0
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        ok = ok and len(digests) == 1
    verdict(10, "CLI determinism", ok)
