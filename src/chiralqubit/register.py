"""Linear chains of chirality qubits: gates, couplings, readout.

Register amplitudes live on the product chirality basis with qubit 0 as the
leftmost tensor factor; every gate, pulse and projection sees that layout
only through `_block`.  Per qubit, bit 0 means |-1> and bit 1 means |+1>.
RegisterState values are immutable snapshots and every operation returns a
fresh state, so concurrent read-only sharing is safe; a reset or projection
onto the value a qubit already holds exactly returns that same state.

Neighboring qubits couple through switchable weak links modeled as an
isotropic exchange interaction: a pulse of area theta applies
exp(-i*theta*(sigma_i . sigma_j)/4).  theta = pi swaps the pair (up to a
global phase), theta = pi/2 is the entangling half pulse, and two half
pulses interleaved with z-rotations compose a CNOT.  Measurement follows
Born sampling from a caller-seeded generator; the sign of the measured
chirality maps directly onto the sign of the spontaneous Hall voltage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import Sequence

import numpy as np

from . import dynamics
from .dynamics import TwoLevelParams

MAX_QUBITS = 12
UNITARITY_TOL = 1e-10

# symmetric-combination gate: |+1> -> (|-1> + |+1>)/sqrt(2)
SYMMETRIC = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / math.sqrt(2.0)
SYMMETRIC.setflags(write=False)

SWAP_4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

NAMED_GATES = {
    "I": dynamics.IDENTITY,
    "X": dynamics.SIGMA_X,
    "Y": dynamics.SIGMA_Y,
    "Z": dynamics.SIGMA_Z,
    "H": SYMMETRIC,
}


class NotUnitary(ValueError):
    """Supplied gate matrix is not unitary within tolerance."""


class IndexOutOfRange(IndexError):
    """Qubit index outside the register, or qubits not adjacent."""


class LinkOff(RuntimeError):
    """Two-qubit operation requested across a link that is switched off."""


class InsufficientGradient(ValueError):
    """Bias values too close for the RF field to address a single qubit."""


@dataclass(frozen=True)
class CouplingLink:
    """Switchable weak link between adjacent qubits i and j."""

    i: int
    j: int
    on: bool = True

    def __post_init__(self):
        if self.i < 0 or self.j < 0 or abs(self.i - self.j) != 1:
            raise ValueError(f"link must join adjacent qubits, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class FieldProfile:
    """Per-qubit bias values produced by the field gradient along the chain."""

    eps: tuple

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps)
        if not all(math.isfinite(e) for e in eps):
            raise ValueError("bias values must be finite")
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True)
class RegisterState:
    n: int
    amps: np.ndarray
    # the kernels hand over a complex array they have just built: it is frozen, not copied
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        if not (1 <= self.n <= MAX_QUBITS):
            raise ValueError(f"register size must be in [1, {MAX_QUBITS}], got {self.n}")
        amps = self.amps if _owned else np.array(self.amps, dtype=complex)
        if amps.shape != (2**self.n,):
            raise ValueError(f"amplitude vector must have length {2**self.n}")
        norm = math.sqrt(_weight(amps))
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"amplitudes not normalized: |amps| = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def all_minus(cls, n: int) -> "RegisterState":
        return cls.product([-1] * n)

    @classmethod
    def product(cls, values: Sequence[int]) -> "RegisterState":
        """Basis state from per-qubit chirality values (+1 or -1)."""
        n = len(values)
        index = 0
        for v in values:
            index = (index << 1) | _bit(v)
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        return cls(n, amps, _owned=True)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def probability_plus(self, q: int) -> float:
        """Reduced probability of reading +1 on qubit q."""
        _check_index(self, q)
        return _weight(_block(self.amps, q)[:, 1])


def _bit(value: int) -> int:
    if value == +1:
        return 1
    if value == -1:
        return 0
    raise ValueError(f"chirality value must be +1 or -1, got {value!r}")


def _check_index(state: RegisterState, q: int) -> None:
    if not (0 <= q < state.n):
        raise IndexOutOfRange(f"qubit {q} outside register of size {state.n}")


def _block(amps: np.ndarray, lo: int, k: int = 1) -> np.ndarray:
    """View (before, block, after) of amps around the k qubits from lo on."""
    return amps.reshape(2**lo, 2**k, -1)


def _apply(amps: np.ndarray, lo: int, u: np.ndarray) -> np.ndarray:
    """Apply the 2**k x 2**k matrix u on the k qubits from lo on; flat result, one product."""
    block = _block(amps, lo, len(u).bit_length() - 1).swapaxes(0, 1)
    out = np.dot(u, block.reshape(len(u), -1)).reshape(block.shape)
    return out.swapaxes(0, 1).reshape(-1)


def _apply_each(amps: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Apply the 2x2 factors[q] on every qubit q (their Kronecker product); flat result.

    The state is kept as a (2, rest) matrix with the current qubit's bit first and the other
    qubits after it in cyclic order, so each factor takes one product and one transposed copy
    (row by row: numpy copies a (rest, 2) transpose two values at a time), which moves that
    qubit's bit last and brings the next qubit's first.  np.dot sees the columns _apply would
    give it, in cyclic order, and rounds each column alike wherever it stands: the bits are
    the same.
    """
    amps = amps.reshape(2, -1)
    for u in factors:
        moved = np.empty((amps.shape[1], 2), complex)
        moved[:, 0], moved[:, 1] = np.dot(u, amps)
        amps = moved.reshape(2, -1)
    return amps.reshape(-1)


def _weight(branch: np.ndarray) -> float:
    flat = branch.reshape(-1)  # as vdot flattens each operand (a view where it can): once
    return float(np.vdot(flat, flat).real)


def z_rotation(phi: float) -> np.ndarray:
    """exp(-i*phi*sigma_z/2) in the chirality basis."""
    return dynamics._propagator(0.0, 0.0, 0.5 * phi, 1.0)


def _unitary(gate) -> np.ndarray:
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2, 2):
        raise NotUnitary(f"gate must be 2x2, got shape {gate.shape}")
    if np.abs(gate.conj().T @ gate - dynamics.IDENTITY).max() > UNITARITY_TOL:
        raise NotUnitary("gate is not unitary within 1e-10")
    return gate


# the read-only named gates, checked once here; keyed by id, each kept alive so no id is reused
_CHECKED_GATES = {id(gate): gate for gate in map(_unitary, NAMED_GATES.values())}


def apply_single_gate(state: RegisterState, q: int, gate: np.ndarray) -> RegisterState:
    """Apply a 2x2 unitary on qubit q's tensor factor."""
    _check_index(state, q)
    if _CHECKED_GATES.get(id(gate)) is not gate:
        gate = _unitary(gate)
    return RegisterState(state.n, _apply(state.amps, q, gate), _owned=True)


def exchange_unitary(pulse_area: float) -> np.ndarray:
    """4x4 exchange pulse exp(-i*theta*(sigma.sigma)/4).

    sigma.sigma = 2*SWAP - I, so the pulse is
    e^{i theta/4} (cos(theta/2) I - i sin(theta/2) SWAP).
    """
    theta = float(pulse_area)
    return np.exp(0.25j * theta) * (
        math.cos(0.5 * theta) * np.eye(4, dtype=complex)
        - 1j * math.sin(0.5 * theta) * SWAP_4
    )


def exchange_pulse(state: RegisterState, link: CouplingLink, pulse_area: float) -> RegisterState:
    """Exchange pulse of area theta across an on link; theta = pi is SWAP."""
    if not link.on:
        raise LinkOff(f"link ({link.i}, {link.j}) is off")
    if not (pulse_area >= 0.0 and math.isfinite(pulse_area)):
        raise ValueError(f"pulse_area must be finite and >= 0, got {pulse_area!r}")
    _check_index(state, max(link.i, link.j))  # links join adjacent qubits >= 0
    # the pulse commutes with SWAP, so the link's orientation does not matter
    amps = _apply(state.amps, min(link.i, link.j), exchange_unitary(pulse_area))
    return RegisterState(state.n, amps, _owned=True)


def cnot_composed(
    state: RegisterState, control: int, target: int, link: CouplingLink
) -> RegisterState:
    """CNOT from two half exchange pulses and single-qubit rotations.

    The z-rotation/half-pulse core produces a conditional phase flip; basis
    changes on the target turn it into the bit flip; _cnot_matrix holds the
    sequence.  Control is active on |+1>.  The net unitary equals canonical
    CNOT up to a global phase.
    """
    _check_index(state, control)
    _check_index(state, target)
    if abs(control - target) != 1:
        raise IndexOutOfRange(f"control {control} and target {target} must be adjacent")
    if {link.i, link.j} != {control, target}:
        raise ValueError(f"link ({link.i}, {link.j}) does not join {control} and {target}")
    if not link.on:
        raise LinkOff(f"link ({link.i}, {link.j}) is off")
    amps = _apply(state.amps, min(control, target), _cnot_matrix(control < target))
    return RegisterState(state.n, amps, _owned=True)


@functools.cache
def _cnot_matrix(control_first: bool) -> np.ndarray:
    """Read-only 4x4 of cnot_composed's pulse sequence; control left if control_first."""
    c, t = (0, 1) if control_first else (1, 0)
    half = exchange_unitary(math.pi / 2.0)
    u = np.eye(4, dtype=complex)
    for lo, gate in ((t, SYMMETRIC), (0, half), (c, z_rotation(-math.pi)), (0, half),
                     (c, z_rotation(-math.pi / 2.0)), (t, z_rotation(+math.pi / 2.0)),
                     (t, SYMMETRIC.conj().T)):
        u = _apply(u, lo, gate)
    u = u.reshape(4, 4)
    u.setflags(write=False)
    return u


def selective_rf_pulse(
    state: RegisterState,
    profile: FieldProfile,
    target: int,
    amp: float,
    duration: float,
    dt: float,
) -> RegisterState:
    """Global RF pulse tuned to the target qubit's splitting 2*eps[target].

    Every qubit sees the same drive; the field gradient makes only the target
    resonant.  Tunneling is neglected during addressing (bias-dominated
    regime), so each lab-frame qubit evolves under
    eps_q*sigma_z + amp*cos(w t)*sigma_x.  The returned state is expressed in
    the rotating frame of each qubit's static bias (the frame the pulse is
    calibrated in), so amp = 0 is exactly the identity and spectators pick up
    population error bounded by amp^2/(amp^2 + detuning^2) and nothing else.
    """
    _check_index(state, target)
    if len(profile.eps) != state.n:
        raise ValueError(f"profile has {len(profile.eps)} biases for {state.n} qubits")
    if not (amp >= 0.0 and math.isfinite(amp)):
        raise ValueError(f"amp must be finite and >= 0, got {amp!r}")
    if amp == 0.0:
        return state
    eps = profile.eps
    gap = np.diff(np.sort(eps)).min(initial=math.inf)  # closest pair of biases
    if gap < 5.0 * amp:
        raise InsufficientGradient(
            f"minimum bias separation {gap:g} is below 5*amp = {5.0 * amp:g}"
        )
    params = TwoLevelParams(drive_amp=amp, drive_freq=2.0 * abs(eps[target]))
    try:
        lab = dynamics._drive_propagators(params, duration, dt, eps)
    except dynamics.StepTooLarge as exc:  # the largest bias sets the step bound: name it
        worst = max(range(state.n), key=lambda q: abs(eps[q]))
        raise dynamics.StepTooLarge(
            f"RF step dt = {dt:g} is too large for qubit {worst} (bias {eps[worst]:g}): "
            f"{exc}, or lower epsilon in the chain config"
        ) from None
    # unwind each static bias over the pulse duration itself, not n_steps * dt
    rotating = dynamics._mul(dynamics._propagator(0.0, 0.0, -np.array(eps), duration), lab)
    return RegisterState(state.n, _apply_each(state.amps, rotating), _owned=True)


def _project(state: RegisterState, q: int, value: int, reset: bool = False) -> RegisterState:
    """Collapse qubit q onto chirality `value` and renormalize.

    The other component is zeroed.  With `reset`, a `value` component of
    (numerically) zero weight is replaced by the other one, moved into its slot.
    Where the component kept has weight exactly 1, keep / 1.0 == keep: it is
    copied, not divided, and beside an exactly zero other component the state
    itself is returned.
    """
    bit = _bit(value)
    psi = _block(state.amps, q)
    keep, other = psi[:, bit], psi[:, 1 - bit]
    weight = _weight(keep)
    if weight == 1.0 and not other.any():
        return state
    if reset and not weight > 1e-24:
        keep = other
        weight = _weight(keep)
    out = np.zeros(psi.shape, complex)
    if weight == 1.0:
        out[:, bit] = keep
    else:
        np.divide(keep, math.sqrt(weight), out=out[:, bit])
    return RegisterState(state.n, out.reshape(-1), _owned=True)


def initialize_reset(state: RegisterState, q: int, value: int) -> RegisterState:
    """Reset qubit q to the requested chirality basis state.

    Projects and renormalizes; when the projection has (numerically) zero
    weight the opposite component is moved into the requested slot instead,
    so the reset always succeeds deterministically.  A reset of a qubit that
    already holds `value` exactly returns the same (immutable) state.
    """
    _check_index(state, q)
    return _project(state, q, value, reset=True)


def measure(state: RegisterState, q: int, seed) -> tuple[int, RegisterState]:
    """Born-rule measurement of qubit q's chirality.

    seed is an integer or a numpy Generator; passing the same Generator
    through a chain of calls makes the whole outcome sequence reproducible.
    Returns (outcome, collapsed state) with outcome +1 or -1.
    """
    p_plus = state.probability_plus(q)  # checks q
    outcome = +1 if np.random.default_rng(seed).random() < p_plus else -1
    return outcome, _project(state, q, outcome)


def hall_voltage(outcome: int, v0: float) -> float:
    """Signed Hall readout voltage for a measured chirality.

    The spontaneous Hall voltage is proportional to the chirality number, so
    its sign is the readout observable: returns outcome * v0.
    """
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    if not (v0 > 0.0 and math.isfinite(v0)):
        raise ValueError(f"v0 must be finite and > 0, got {v0!r}")
    return float(outcome) * float(v0)
