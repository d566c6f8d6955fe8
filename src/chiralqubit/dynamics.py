"""Single-qubit dynamics in the chirality basis {|-1>, |+1>}.

State vectors are ordered (amp_minus, amp_plus), so the Pauli matrices below
carry the chirality value as the sigma_z eigenvalue: sigma_z |+1> = +|+1>.
The qubit Hamiltonian is

    H = e0 * I - delta * sigma_x + epsilon * sigma_z,

with delta the tunneling amplitude between the two chiral states and epsilon
the tuning bias that lifts their degeneracy.  Environment coupling is reduced
to a single pure-dephasing rate gamma (jump operator sigma_z); the rate damps
the beating but does not shift delta.  Every evolution is built from one
exact 2x2 exponential, `_propagator`, evaluated on arrays of steps or times,
so norm and trace are preserved unconditionally.  An undriven trajectory
samples `_propagator` at every time.  The others run in blocks of BLOCK steps,
each carried from the one before: a driven trajectory scans a block's prefix
products (log depth), a driven propagator halves it to its total (all RF biases
at once), and damped samples come by doubling powers of one Strang superoperator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
for _matrix in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z):  # shared by every caller: read-only
    _matrix.setflags(write=False)

STEP_SAFETY_LIMIT = 0.1
MAX_STEPS = 10**6  # cap on the steps (or samples) of one trajectory
BLOCK = 2**12  # steps, samples or output lines handled at once: bounds each pass's memory
_FEW_PAIRS = 256  # pairs of a product level that _total_product multiplies in one broadcast


class StepTooLarge(ValueError):
    """dt * max(|H|, gamma) exceeds the accuracy limit of the fixed stepper."""


@dataclass(frozen=True)
class TwoLevelParams:
    """Two-level Hamiltonian parameters plus dephasing and RF-drive settings."""

    e0: float = 0.0
    delta: float = 0.0
    epsilon: float = 0.0
    gamma: float = 0.0
    drive_amp: float = 0.0
    drive_freq: float = 0.0

    def __post_init__(self):
        for name in ("e0", "delta", "epsilon", "gamma", "drive_amp", "drive_freq"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("delta", "gamma", "drive_amp", "drive_freq"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class QubitState:
    """Normalized amplitudes over the chirality basis {|-1>, |+1>}."""

    amp_minus: complex
    amp_plus: complex

    def __post_init__(self):
        object.__setattr__(self, "amp_minus", complex(self.amp_minus))
        object.__setattr__(self, "amp_plus", complex(self.amp_plus))
        norm_sq = abs(self.amp_minus) ** 2 + abs(self.amp_plus) ** 2
        if not abs(norm_sq - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"state not normalized: |amp|^2 = {norm_sq!r}")

    @classmethod
    def minus(cls) -> "QubitState":
        return cls(1.0, 0.0)

    @classmethod
    def plus(cls) -> "QubitState":
        return cls(0.0, 1.0)

    @classmethod
    def from_vector(cls, vec) -> "QubitState":
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (2,):
            raise ValueError(f"state vector must have shape (2,), got {vec.shape}")
        return cls(vec[0], vec[1])

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.amp_minus, self.amp_plus])


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 density matrix, validated Hermitian, unit trace, positive."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has non-finite entries")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            raise ValueError("density matrix not Hermitian within 1e-12")
        if abs(np.trace(rho) - 1.0) > 1e-12:
            raise ValueError(f"trace must be 1 within 1e-12, got {np.trace(rho)!r}")
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            raise ValueError("density matrix has a negative eigenvalue beyond -1e-12")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_state(cls, state: QubitState) -> "DensityMatrix":
        v = state.vector
        return cls(np.outer(v, v.conj()))


def _propagator(e0, x, z, t) -> np.ndarray:
    """exp(-i t (e0*I + x*sigma_x + z*sigma_z)), exact; broadcasts to shape (..., 2, 2)."""
    e0, x, z, t = (np.asarray(v, dtype=float) for v in (e0, x, z, t))
    omega = np.hypot(x, z)  # each value is formed on the shape its inputs broadcast to
    # divide the reals before forming the matrix: stable down to subnormal omega,
    # and omega = 0 gives the identity without a branch
    safe = np.where(omega == 0.0, 1.0, omega)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing phase gives NaN entries
        angle = omega * t
        cos, sin = np.cos(angle), np.sin(angle)
    u = np.zeros(np.broadcast_shapes(e0.shape, angle.shape) + (2, 2), dtype=complex)
    re, im = u.real, u.imag  # the parts are written in place: no complex temporaries
    re[..., 0, 0] = re[..., 1, 1] = cos
    im[..., 0, 0] = sin * (z / safe)
    np.negative(im[..., 0, 0], out=im[..., 1, 1])
    im[..., 0, 1] = im[..., 1, 0] = -sin * (x / safe)
    if not e0.any():  # exp(0) = 1 would change only the sign of a zero
        return u
    with np.errstate(over="ignore", invalid="ignore"):  # so does an overflowing global phase
        return np.exp(-1j * e0 * t)[..., None, None] * u


def eigensystem(params: TwoLevelParams) -> tuple[tuple[float, QubitState], tuple[float, QubitState]]:
    """(ground, excited) pairs of (energy, state), energies e0 -+ sqrt(delta^2+eps^2).

    At epsilon = 0 the ground state is the symmetric combination with energy
    e0 - delta.  The fully degenerate case delta = epsilon = 0 returns the
    basis states in the fixed order (|-1>, |+1>), both at energy e0.
    """
    omega = math.hypot(params.delta, params.epsilon)
    if omega == 0.0:
        return (params.e0, QubitState.minus()), (params.e0, QubitState.plus())
    if params.epsilon >= 0.0:
        g = np.array([omega + params.epsilon, params.delta])
    else:
        g = np.array([params.delta, omega - params.epsilon])
    g = g / np.abs(g).max()  # pre-scale so the norm cannot underflow
    g = g / np.linalg.norm(g)
    e = np.array([-g[1], g[0]])
    return (
        (params.e0 - omega, QubitState(g[0], g[1])),
        (params.e0 + omega, QubitState(e[0], e[1])),
    )


def _require_closed(params: TwoLevelParams, *, allow_drive: bool = False) -> None:
    if params.gamma != 0.0:
        raise ValueError("gamma must be 0 for closed (unitary) evolution")
    if not allow_drive and params.drive_amp != 0.0:
        raise ValueError("drive_amp must be 0 here; use drive_evolve for driven dynamics")


def evolve_closed(state: QubitState, params: TwoLevelParams, t: float) -> QubitState:
    """Exact unitary evolution exp(-iHt) of the undriven, undamped qubit."""
    _require_closed(params)
    u = _propagator(params.e0, -params.delta, params.epsilon, t)
    vec = u @ state.vector
    # the analytic propagator is unitary to one rounding; renormalizing keeps
    # arbitrarily long step compositions from accumulating a biased drift
    return QubitState.from_vector(vec / np.linalg.norm(vec))


def beat_probability(params: TwoLevelParams, t):
    """Population difference P(+1) - P(-1) at time t, starting from |+1>.

    Equals 1 - 2*(delta/Omega)^2 * sin^2(Omega t) with Omega = sqrt(delta^2 +
    epsilon^2); at epsilon = 0 this is the beating law cos(2*delta*t).
    Accepts a scalar or an array of times.
    """
    _require_closed(params)
    omega = math.hypot(params.delta, params.epsilon)
    ratio = params.delta / omega if omega else 0.0
    out = 1.0 - 2.0 * ratio**2 * np.sin(omega * np.asarray(t, dtype=float)) ** 2
    return float(out) if out.ndim == 0 else out


def _check_step(dt: float, scale: float) -> None:
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if dt * scale >= STEP_SAFETY_LIMIT:
        shown = f"{dt * scale:.6g}"  # in full where 6 digits would read as the limit itself
        shown = repr(dt * scale) if float(shown) == STEP_SAFETY_LIMIT < dt * scale else shown
        raise StepTooLarge(  # 2-digit rounding adds < 5%, so 0.95 * limit passes
            f"dt * max(|H|, gamma) = {shown} must stay below {STEP_SAFETY_LIMIT}; "
            f"lower dt to {0.95 * STEP_SAFETY_LIMIT / scale:.2g} or less"
        )


def _n_steps(t: float, dt: float) -> int:
    """round(t / dt) steps, at most MAX_STEPS so that the step arrays fit in memory."""
    if not (t >= 0.0 and dt > 0.0 and t / dt <= MAX_STEPS):
        raise ValueError(
            f"need a duration >= 0, dt > 0 and at most {MAX_STEPS} steps (the cap), got {t} / {dt}"
        )
    return int(round(t / dt))


def evolve_damped(
    rho: DensityMatrix, params: TwoLevelParams, t: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory of the dephasing master equation

        drho/dt = -i[H, rho] + gamma*(sigma_z rho sigma_z - rho).

    Integrated by Strang splitting of two exact factors: the unitary
    conjugation by exp(-iH dt) and the pure-dephasing channel, which scales
    the off-diagonal elements by exp(-2 gamma dt).  Both factors are trace
    preserving and completely positive, so the trajectory stays physical at
    every step.  Returns (times, rhos) with rhos of shape (n_samples, 2, 2),
    sampled every dt from the initial matrix onward.

    The step is one 4x4 superoperator S on row-major vec(rho).  The samples double, out[m:2m] =
    out[:m] @ (S^m).T, up to the largest power of two m <= BLOCK; then out[j] = out[j-m] @ (S^m).T.
    """
    if params.drive_amp != 0.0:
        raise ValueError("driven-damped evolution is not supported; set drive_amp = 0")
    omega = math.hypot(params.delta, params.epsilon)
    _check_step(dt, max(abs(params.e0) + omega, params.gamma))
    n = _n_steps(t, dt)

    u = _propagator(params.e0, -params.delta, params.epsilon, dt)
    half_decay = math.exp(-params.gamma * dt)  # dephasing channel over dt/2
    half = np.array([1.0, half_decay, half_decay, 1.0])
    # Strang step on row-major vec(rho): vec(u rho u^dagger) = kron(u, u*) vec(rho)
    power = half[:, None] * np.kron(u, u.conj()) * half

    out = np.empty((n + 1, 4), dtype=complex)
    out[0] = rho.rho.reshape(4)
    m, stride = 1, 1  # power = S^stride; while doubling, stride = m
    while m <= n:
        k = min(stride, n + 1 - m)
        np.matmul(out[m - stride:m - stride + k], power.T, out=out[m:m + k])
        m += k
        if 2 * stride <= BLOCK:
            power, stride = power @ power, 2 * stride
    return np.arange(n + 1) * dt, out.reshape(n + 1, 2, 2)


def _drive_steps(params: TwoLevelParams, t: float, dt: float, eps):
    """The step count n of the RF-driven qubit over [0, t], and its unitaries in blocks of BLOCK.

    A step freezes e0*I + epsilon*sigma_z + (drive_amp*cos(drive_freq*t) - delta)*sigma_x at
    its midpoint and exponentiates it exactly: unitary to rounding for any dt, while dt bounds
    the midpoint error (StepTooLarge, checked first).  A block is (..., steps, 2, 2), one row
    per bias of an `eps` of shape (..., 1), or a float; `eps` stands for params.epsilon.
    """
    _require_closed(params, allow_drive=True)
    _check_step(dt, abs(params.e0) + math.hypot(np.abs(eps).max(), params.delta + params.drive_amp))
    n = _n_steps(t, dt)
    def block(k: int) -> np.ndarray:  # steps k to k + BLOCK, in time order
        mid = (np.arange(k, min(n, k + BLOCK)) + 0.5) * dt
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing phase gives NaN steps
            x = -params.delta + params.drive_amp * np.cos(params.drive_freq * mid)
        return _propagator(params.e0, x, eps, dt)
    return n, map(block, range(0, n, BLOCK))


def _mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b on broadcast stacks of 2x2 matrices, entry by entry; `out` may overlap a or b."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    entries = (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,  # all formed before any is stored
               a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), complex) if out is None else out
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = entries
    return out


def _running_products(steps: np.ndarray) -> np.ndarray:
    """steps[k] @ ... @ steps[0] for every k, in place; after offset `off`, of up to 2*off steps."""
    off = 1
    while off < len(steps):
        _mul(steps[off:], steps[:-off], out=steps[off:])
        off *= 2
    return steps


def _total_product(steps: np.ndarray) -> np.ndarray:
    """steps[..., n-1, :, :] @ ... @ steps[..., 0, :, :] (n >= 1) by pairwise halving.

    A level of at most _FEW_PAIRS pairs takes one broadcast product: the same two products
    and sum per entry as _mul, in fewer numpy calls, which pays only while calls cost more
    than the arithmetic.
    """
    while steps.shape[-3] > 1:
        a, b = steps[..., 1::2, :, :], steps[..., 0:-1:2, :, :]  # later steps on the left
        if a.size > 4 * _FEW_PAIRS:
            pairs = _mul(a, b)
        else:
            pairs = a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]
        if steps.shape[-3] % 2:  # the odd last step joins the next level as it is
            pairs = np.concatenate([pairs, steps[..., -1:, :, :]], axis=-3)
        steps = pairs
    return steps[..., 0, :, :]


def _drive_propagators(params: TwoLevelParams, t: float, dt: float, epsilon) -> np.ndarray:
    """drive_propagator for each bias of the 1-D `epsilon`, which replaces params.epsilon."""
    eps = np.asarray(epsilon, dtype=float)
    n, blocks = _drive_steps(params, t, dt, eps[:, None])
    totals = map(_total_product, blocks)
    total = next(totals) if n else np.tile(IDENTITY, (len(eps), 1, 1))  # zero steps: identity
    for block in totals:
        total = _mul(block, total)  # block totals in time order
    return total


def drive_propagator(params: TwoLevelParams, t: float, dt: float) -> np.ndarray:
    """Accumulated unitary for the RF-driven qubit over [0, t] (see _drive_steps)."""
    return _drive_propagators(params, t, dt, [params.epsilon])[0]


def drive_evolve(
    state: QubitState, params: TwoLevelParams, t: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory of the RF-driven qubit; returns (times, amplitudes).

    amplitudes has shape (n_samples, 2) over the (|-1>, |+1>) basis.  At
    resonance drive_freq = 2*sqrt(delta^2 + epsilon^2) and weak drive the
    populations Rabi-cycle with angular rate drive_amp.  With drive_amp = 0
    every sample is the exact closed propagator at its time applied to the
    state; that path has no step bound, since dt does not enter the result.
    """
    if params.drive_amp == 0.0:
        _require_closed(params)
        times = np.arange(_n_steps(t, dt) + 1) * dt
        return times, _propagator(params.e0, -params.delta, params.epsilon, times) @ state.vector
    n, blocks = _drive_steps(params, t, dt, params.epsilon)
    out = np.empty((n + 1, 2), dtype=complex)
    out[0] = state.vector
    for k, steps in zip(range(1, n + 1, BLOCK), blocks):  # each block from the sample before it
        np.matmul(_running_products(steps), out[k - 1], out=out[k:k + len(steps)])
    return np.arange(n + 1) * dt, out
