"""Independent references for every CLI output the benchmark produces.

Nothing here imports the package under test.  Each check takes a scenario and
what one CLI call produced, and returns None when the output is right or a
one-line reason when it is not.  Floats are compared with tolerances near
1e-9, so a change in the last bits of a result still passes.
"""

from __future__ import annotations

import io
import math

import numpy as np
from scipy.linalg import expm

TOL = 1e-9
PROB_TOL = 1e-10
MU_B_EV_PER_T = 5.7883818e-05  # the Bohr magneton the device module documents

# Chirality basis (|-1>, |+1>): sigma_z |+1> = +|+1>.
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SZ = np.array([[-1, 0], [0, 1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
GATES = {
    "I": ID2, "X": SX, "Y": SY, "Z": SZ,
    "H": np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2.0),
}


class Result:
    """What one CLI call produced: exit code, escaped exception, streams and file."""

    __slots__ = ("rc", "exc", "stdout", "stderr", "out")

    def __init__(self, rc, exc, stdout, stderr, out):
        self.rc, self.exc, self.stdout, self.stderr, self.out = rc, exc, stdout, stderr, out


def check(sc, res: Result, outputs: dict) -> str | None:
    """Verify one scenario; ``outputs`` maps scenario name to output bytes."""
    if res.exc is not None:
        return f"traceback: {res.exc}"
    if res.rc != sc.expect_exit:
        return f"exit {res.rc}, expected {sc.expect_exit}"
    if sc.expect_exit != 0:
        if res.out is not None:
            return "error exit left an output file"
        if not res.stderr.startswith("error: "):
            return "error exit without an 'error:' message"
        return None
    if res.stdout:
        return "wrote to stdout although --out was given"
    if res.out is None:
        return "no output file"
    try:
        return _CHECKS[sc.sub](sc, res.out.decode("utf-8"), outputs)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparsable output: {exc!r}"


def _close(got, want, tol=TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


def _csv(text: str, header: str) -> np.ndarray:
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError(f"header {first!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


# --- chern -----------------------------------------------------------------

def _check_chern(sc, text, _outputs):
    p = sc.params
    lines = text.splitlines()
    if lines[0] != "method,n_integer,raw,residual,n_grid,k_max":
        return f"header {lines[0]!r}"
    method = p.get("method", "both")
    methods = ["quadrature", "plaquette"] if method == "both" else [method]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != methods:
        return f"methods {[r[0] for r in rows]}, expected {methods}"
    want = p["chi"] if p["mu"] > 0 else 0
    for r in rows:
        n_int, raw, residual, n_grid, k_max = int(r[1]), float(r[2]), float(r[3]), int(r[4]), float(r[5])
        if n_int != want:
            return f"{r[0]} N = {n_int}, expected {want}"
        if not (abs(raw - want) < 1e-3 and abs(residual - abs(raw - want)) <= 1e-12):
            return f"{r[0]} raw {raw} / residual {residual} inconsistent with N = {want}"
        if "k_max" in p and k_max != p["k_max"]:
            return f"explicit k_max {p['k_max']} not honoured: {k_max}"
        if method != "both" and n_grid != p["n_grid"]:
            return f"n_grid {n_grid}, expected {p['n_grid']}"
        if n_grid < 32:
            return f"n_grid {n_grid} below 32"
    return None


# --- two-level trajectories ------------------------------------------------

def _sample_rows(n: int, count: int = 24) -> np.ndarray:
    return np.unique(np.linspace(0, n, count).round().astype(int))


def _times_ok(t, dt) -> bool:
    k = np.arange(t.size)
    return _close(t, k * dt, 1e-12 * max(1.0, float(k[-1] * dt)))


def _check_beat(sc, text, _outputs):
    p = sc.params
    data = _csv(text, "t,p_diff,pop_plus,pop_minus")
    n = int(round(p["t_max"] / p["dt"]))
    if data.shape[0] != n + 1:
        return f"{data.shape[0]} rows, expected {n + 1}"
    t = data[:, 0]
    if not _times_ok(t, p["dt"]):
        return "time column is not k * dt"
    omega = math.hypot(p["delta"], p["epsilon"])
    flip = (p["delta"] / omega) ** 2 * np.sin(omega * t) ** 2 if omega else np.zeros_like(t)
    if not (_close(data[:, 2], 1.0 - flip) and _close(data[:, 3], flip)
            and _close(data[:, 1], 1.0 - 2.0 * flip)):
        return "populations off the closed-form beating law"
    return None


def _liouvillian(h: np.ndarray) -> np.ndarray:
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    return -1j * (np.kron(h, ID2) - np.kron(ID2, h.T))


def _check_damp(sc, text, _outputs):
    p = sc.params
    data = _csv(text, "t,p_diff,pop_plus,pop_minus,purity")
    dt = p["dt"]
    n = int(round(p["t_max"] / dt))
    if data.shape[0] != n + 1:
        return f"{data.shape[0]} rows, expected {n + 1}"
    if not _times_ok(data[:, 0], dt):
        return "time column is not k * dt"
    h = p["e0"] * ID2 - p["delta"] * SX + p["epsilon"] * SZ
    dephase = p["gamma"] * (np.kron(SZ, SZ.T) - np.eye(4))
    # one Strang step: dephasing over dt/2, unitary over dt, dephasing over dt/2
    half = expm(dephase * (dt / 2.0))
    step = half @ expm(_liouvillian(h) * dt) @ half
    rho0 = np.array([0, 0, 0, 1], dtype=complex)  # |+1><+1|
    for k in _sample_rows(n):
        rho = (np.linalg.matrix_power(step, int(k)) @ rho0).reshape(2, 2)
        p_plus, p_minus = rho[1, 1].real, rho[0, 0].real
        purity = float(np.trace(rho @ rho).real)
        if not _close(data[k, 1:], [p_plus - p_minus, p_plus, p_minus, purity]):
            return f"row {k} off the Strang-step expm reference"
    return None


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0], by pairwise reduction."""
    if len(mats) == 0:
        return np.eye(mats.shape[-1], dtype=complex)
    while len(mats) > 1:
        if len(mats) % 2:
            mats = np.concatenate([mats, np.eye(mats.shape[-1], dtype=complex)[None]])
        mats = mats[1::2] @ mats[0::2]
    return mats[0]


def _midpoint_steps(e0, delta, epsilon, amp, omega, dt, first, count) -> np.ndarray:
    """exp(-i dt H(t_mid)) for steps first .. first+count-1 of the driven qubit."""
    mid = (np.arange(first, first + count) + 0.5) * dt
    x = -delta + amp * np.cos(omega * mid)
    h = e0 * ID2 + x[:, None, None] * SX + epsilon * SZ
    return expm(-1j * dt * h)


def _check_rabi(sc, text, outputs):
    p = sc.params
    if p["amp"] == 0.0:
        twin = sc.tags["same_bytes_as"]
        if text.encode("utf-8") != outputs.get(twin.name):
            return f"amp = 0 output differs from {twin.name}"
        return _check_beat(sc, text, outputs)
    data = _csv(text, "t,p_diff,pop_plus,pop_minus")
    dt = p["dt"]
    n = int(round(p["t_max"] / dt))
    if data.shape[0] != n + 1:
        return f"{data.shape[0]} rows, expected {n + 1}"
    if not _times_ok(data[:, 0], dt):
        return "time column is not k * dt"
    psi = np.array([0, 1], dtype=complex)
    done = 0
    for k in _sample_rows(n):
        steps = _midpoint_steps(p["e0"], p["delta"], p["epsilon"], p["amp"], p["omega"],
                                dt, done, int(k) - done)
        psi = _ordered_product(steps) @ psi
        done = int(k)
        p_plus, p_minus = abs(psi[1]) ** 2, abs(psi[0]) ** 2
        if not _close(data[k, 1:], [p_plus - p_minus, p_plus, p_minus]):
            return f"row {k} off the expm midpoint reference"
    return None


# --- chain -----------------------------------------------------------------

def _apply(psi: np.ndarray, u: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply u (2^k x 2^k) to the listed qubits of the n-axis state tensor."""
    n, k = psi.ndim, len(qubits)
    letters = "abcdefghijklmnopqrstuvwxyz"
    state = letters[:n]
    new = list(state)
    outs = letters[n:n + k]
    for q, o in zip(qubits, outs):
        new[q] = o
    ins = "".join(state[q] for q in qubits)
    return np.einsum(f"{outs}{ins},{state}->{''.join(new)}", u.reshape((2,) * (2 * k)), psi)


def _exchange(theta: float) -> np.ndarray:
    ss = sum(np.kron(s, s) for s in (SX, SY, SZ))
    return expm(-0.25j * theta * ss)


CNOT4 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _rf_unitary(eps_q, amp, omega, duration, dt) -> np.ndarray:
    steps = _midpoint_steps(0.0, 0.0, eps_q, amp, omega, dt, 0, int(round(duration / dt)))
    unwind = expm(1j * eps_q * duration * SZ)  # back to the frame of the static bias
    return unwind @ _ordered_product(steps)


def _project(psi, q, bit):
    out = np.zeros_like(psi)
    index = [slice(None)] * psi.ndim
    index[q] = bit
    out[tuple(index)] = psi[tuple(index)]
    return out, float(np.sum(np.abs(out) ** 2))


def _reset(psi, q, bit):
    kept, weight = _project(psi, q, bit)
    if weight <= 1e-24:
        # documented fallback: move the opposite component into the requested slot
        kept = np.flip(_project(psi, q, 1 - bit)[0], axis=q)
        weight = float(np.sum(np.abs(kept) ** 2))
    return kept / math.sqrt(weight)


def _parse_script(text: str) -> list[tuple[str, list[str]]]:
    ops = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            ops.append((tokens[0].upper(), tokens[1:]))
    return ops


def _chain_branches(ops, n: int, field_step: float, dt: float):
    """Every outcome history of the script with its probability and final state."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    branches = [(1.0, psi, ())]
    eps = [field_step * (q + 1) for q in range(n)]
    for op, args in ops:
        if op == "MEASURE":
            q = int(args[0])
            split = []
            for prob, psi, hist in branches:
                for bit in (0, 1):
                    kept, weight = _project(psi, q, bit)
                    if prob * weight > 1e-14:
                        split.append((prob * weight, kept / math.sqrt(weight),
                                      hist + ((q, 1 if bit else -1),)))
            branches = split
            continue
        if op == "LINK":
            continue
        if op == "RESET":
            q, bit = int(args[0]), 1 if args[1] in ("+1", "1") else 0
            branches = [(p, _reset(s, q, bit), h) for p, s, h in branches]
            continue
        if op == "GATE":
            u, qubits = GATES[args[1].upper()], (int(args[0]),)
        elif op == "XCHG":
            u, qubits = _exchange(float(args[2])), (int(args[0]), int(args[1]))
        elif op == "CNOT":
            u, qubits = CNOT4, (int(args[0]), int(args[1]))
        elif op == "RF":
            target, amp, duration = int(args[0]), float(args[1]), float(args[2])
            if amp == 0.0:
                continue
            omega = 2.0 * abs(eps[target])
            for q in range(n):
                u = _rf_unitary(eps[q], amp, omega, duration, dt)
                branches = [(p, _apply(s, u, (q,)), h) for p, s, h in branches]
            continue
        else:
            raise ValueError(f"reference has no op {op}")
        branches = [(p, _apply(s, u, qubits), h) for p, s, h in branches]
    return branches


def _register_size(ops) -> int:
    top = 0
    for op, args in ops:
        count = {"RESET": 1, "GATE": 1, "RF": 1, "MEASURE": 1}.get(op, 2)
        top = max([top] + [int(a) for a in args[:count]])
    return top + 1


def _tokens(hist) -> str:
    return " ".join(f"{q}:{v:+d}" for q, v in hist) if hist else "none"


def _check_chain(sc, text, _outputs):
    p = sc.params
    shots = p.get("shots", 1)
    ops = _parse_script(sc.script)
    n = _register_size(ops)
    branches = _chain_branches(ops, n, p.get("epsilon", 1.0), p.get("dt", 0.01))
    born = {_tokens(h): prob for prob, _, h in branches}

    lines = text.splitlines()
    if not lines[0].startswith(f"# chain n={n} shots={shots} seed={p['seed']} "):
        return f"header {lines[0]!r}"
    shot_lines = [line for line in lines if line.startswith("shot ")]
    if len(shot_lines) != shots:
        return f"{len(shot_lines)} shot lines, expected {shots}"
    seen: dict[str, int] = {}
    for k, line in enumerate(shot_lines, start=1):
        head, _, tokens = line.partition(" measurements: ")
        if head != f"shot {k}":
            return f"shot line {line!r}"
        if tokens not in born:
            return f"shot {k}: outcome {tokens!r} has Born probability 0"
        seen[tokens] = seen.get(tokens, 0) + 1
    kind = sc.tags.get("kind")
    for tokens in seen:
        values = [int(t.split(":")[1]) for t in tokens.split()] if tokens != "none" else []
        if kind == "bell" and values[0] != -values[1]:
            return f"bell outcomes {tokens!r} not anticorrelated"
        if kind == "ghz" and len(set(values)) != 1:
            return f"GHZ outcomes {tokens!r} not all equal"

    at = lines.index("outcome frequencies:")
    end = lines.index("final probabilities:")
    freqs = {}
    for line in lines[at + 1:end]:
        tokens, _, value = line.rpartition(" -> ")
        freqs[tokens] = float(value)
    if set(freqs) != set(seen) or any(abs(freqs[t] - seen[t] / shots) > 1e-15 for t in seen):
        return "outcome frequencies disagree with the shot lines"
    if shots >= 100:
        for tokens in set(born) | set(freqs):
            prob, freq = born.get(tokens, 0.0), freqs.get(tokens, 0.0)
            if abs(freq - prob) > 5.0 * math.sqrt(max(prob * (1.0 - prob), 0.0) / shots) + 1.0 / shots:
                return f"frequency {freq} of {tokens!r} is beyond 5 sigma of Born {prob:.6g}"

    last = shot_lines[-1].partition(" measurements: ")[2]
    final = next(s for _, s, h in branches if _tokens(h) == last).reshape(-1)
    want = np.abs(final) ** 2
    listed = {}
    for line in lines[end + 1:]:
        label, value = line.split(" ")
        bits = [1 if v == "+1" else 0 for v in label.strip("|>").split(",")]
        listed[int("".join(map(str, bits)), 2)] = float(value)
    for index, value in listed.items():
        if abs(value - want[index]) > PROB_TOL:
            return f"final probability of basis state {index} is {value}, reference {want[index]}"
    missing = set(np.flatnonzero(want > PROB_TOL).tolist()) - set(listed)
    if missing:
        return f"final probabilities omit basis states {sorted(missing)[:4]}"
    return None


# --- device ----------------------------------------------------------------

def _check_device(sc, text, _outputs):
    p = sc.params
    eps = MU_B_EV_PER_T * (p["h_gauss"] / 1e4) / p["mass_ratio"]
    n_pairs = math.floor(p["gap_ev"] / eps)
    volume = n_pairs * p["cell_volume_a3"]
    side = math.sqrt(volume / p["film_thickness_a"])
    within = max(side, p["film_thickness_a"]) < p["lambda_l_a"]
    row = text.splitlines()[-1].split(",")
    if int(row[2]) != n_pairs or row[7] != ("true" if within else "false"):
        return f"pair budget / lambda flag {row[2]}, {row[7]} vs {n_pairs}, {within}"
    got = [float(row[i]) for i in (0, 1, 3, 4, 5, 6)]
    want = [p["h_gauss"], eps, volume, side, side, p["film_thickness_a"]]
    if any(abs(g - w) > TOL * abs(w) for g, w in zip(got, want)):
        return f"sizing row {row} off the reference {want}"
    return None


_CHECKS = {
    "chern": _check_chern,
    "beat": _check_beat,
    "damp": _check_damp,
    "rabi": _check_rabi,
    "chain": _check_chain,
    "device": _check_device,
}


def check_defect(defect, res: Result) -> str | None:
    """None when the known-defect input now behaves as documented."""
    if res.exc is not None:
        return f"traceback: {res.exc}"
    if defect.expect_exit is not None:
        return None if res.rc == defect.expect_exit else f"exit {res.rc}, expected {defect.expect_exit}"
    if res.rc in (1, 2, 3, 4, 5, 6):
        return None
    if res.rc == 0 and res.out is not None:
        return check(defect.scenario, res, {})
    return f"exit {res.rc}"
