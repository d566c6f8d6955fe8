"""Byte pins: whole outputs whose sha256 must not move when the arithmetic is rearranged.

The golden files compare floats to 1e-12 and cannot see a last-bit change; these pins can.
Each digest covers the exit code, stdout and the --out file of one run through cli.main.
Below them, the rewritten formulas are held bit for bit against their first forms.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqubit import cli, dynamics, register
from chiralqubit.cli import main
from chiralqubit.dynamics import DensityMatrix, QubitState, TwoLevelParams
from chiralqubit.register import MAX_QUBITS

RF12_SCRIPT = "".join(f"RESET {q} {'+1' if q % 3 else '-1'}\n" for q in range(12)) + """\
GATE 7 H
GATE 8 H
RF 7 0.037 9.9
GATE 7 H
GATE 8 H
MEASURE 7
"""

RUNS = {
    # the benchmark's 12-qubit RF chain: biases 0.25 (q + 1), 396 steps of 0.025
    "chain-rf12": ("chain", "seed = 11\nshots = 1\nepsilon = 0.25\ndt = 0.025\n",
                   "32502e9fa597995477ea3ee721b244482f84ebc5f499b36a06774973736ccea7"),
    "rabi-e0-zero": ("rabi", "e0 = 0.0\ndelta = 0.3\nepsilon = 1.0\namp = 0.05\nomega = 2.1\n"
                             "t_max = 10.0\ndt = 0.005\n",
                     "868e3af76b848a6277dcd7a7b8eacc118abbeea51432065e0266dc353aca1af7"),
    "beat-e0-nonzero": ("beat", "e0 = 0.7\ndelta = 0.5\nepsilon = -0.2\nt_max = 20.0\ndt = 0.01\n",
                        "abb79cf775f1e230c73d97fec71fc52de0a770ca30d09759da44bd5f280e6420"),
    "damp-degenerate": ("damp", "e0 = 0.0\ndelta = 0.0\nepsilon = 0.0\ngamma = 0.1\n"
                                "t_max = 20.0\ndt = 0.01\n",
                        "f8891e9328699d422490ced85158e50191bd9d862c05339205ef7ecdfc03286b"),
    # past one block: 10,000 driven steps (three blocks) and 20,001 damped samples
    "rabi-blocks": ("rabi", "e0 = 0.0\ndelta = 0.3\nepsilon = 1.0\namp = 0.05\nomega = 2.1\n"
                            "t_max = 50.0\ndt = 0.005\n",
                    "46ea7563b5f31f794a98a58c2d8e316a25c283df06fcbe042826f7fa663597a1"),
    "damp-blocks": ("damp", "e0 = 0.2\ndelta = 0.5\nepsilon = 0.3\ngamma = 0.05\n"
                            "t_max = 200.0\ndt = 0.01\n",
                    "874451111cee3cd44f7be32c8235f5e0df37bccb02e369f353cc818e9fc9cc3e"),
}


@pytest.mark.parametrize("name", RUNS)
def test_output_bytes_pinned(tmp_path, capsys, name):
    subcommand, config_text, digest = RUNS[name]
    if subcommand == "chain":
        script = tmp_path / "rf12.gates"
        script.write_text(RF12_SCRIPT, encoding="utf-8")
        config_text += f"script_path = {script}\n"
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "run.out"
    code = main([subcommand, "--config", str(config), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert hashlib.sha256(f"{code}\n{stdout}\n".encode() + out.read_bytes()).hexdigest() == digest


# --- bit-exact references for the two rewritten formulas ----------------------------------

def per_bit_probability_lines(probs, n):
    """The listing as first written: one generator over the bits of each kept index."""
    kept = np.flatnonzero(probs > 1e-12)
    return ["|" + ",".join("+1" if bit == "1" else "-1" for bit in format(index, f"0{n}b"))
            + f"> {cli._fmt(p)}" for index, p in zip(kept.tolist(), probs[kept].tolist())]


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_probability_lines_match_per_bit_labels(n):
    rng = np.random.default_rng(n)
    size = 2**n
    # values just above, at and just below the listing threshold, and well clear of it
    above = [np.nextafter(1e-12, 1.0), 2e-12, 1.0, *(0.5 + 0.5 * rng.random(5))]
    below = [1e-12, np.nextafter(1e-12, 0.0), 5e-324, 0.0]
    for kept in sorted({0, 1, 2, min(190, size), size}):
        probs = rng.choice(below, size=size)
        listed = rng.choice(size, size=kept, replace=False)
        probs[listed] = rng.choice(above, size=kept)
        lines = cli._probability_lines(probs, n)
        assert len(lines) == kept
        assert lines == per_bit_probability_lines(probs, n)


def assembled_propagator(e0, x, z, t):
    """dynamics._propagator as first written: complex entries, then the phase product always."""
    e0, x, z, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (e0, x, z, t)))
    omega = np.hypot(x, z)
    safe = np.where(omega == 0.0, 1.0, omega)
    cos, sin = np.cos(omega * t), np.sin(omega * t)
    u = np.empty(omega.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = cos + 1j * sin * (z / safe)
    u[..., 1, 1] = cos - 1j * sin * (z / safe)
    u[..., 0, 1] = u[..., 1, 0] = -1j * sin * (x / safe)
    return np.exp(-1j * e0 * t)[..., None, None] * u


# shapes from a scalar to the (biases, steps) grid of a 12-qubit RF pulse
propagator_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 400)),
    st.tuples(st.integers(1, MAX_QUBITS), st.integers(1, 400)),
)


@settings(max_examples=150, deadline=None)
@given(shape=propagator_shapes, e0_zero=st.booleans(), scale=st.floats(1e-3, 3.0),
       t_is_array=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_propagator_matches_the_first_assembly(shape, e0_zero, scale, t_is_array, seed):
    rng = np.random.default_rng(seed)

    def draw():  # signed values with exact zeros, so omega = 0 and zero fields occur
        values = rng.normal(scale=scale, size=shape) * (rng.random(shape) < 0.8)
        return values[()] if shape == () else values

    e0 = 0.0 if e0_zero else draw()
    t = np.abs(draw()) if t_is_array else float(rng.uniform(1e-3, 2.0))
    x, z = draw(), draw()
    got, want = dynamics._propagator(e0, x, z, t), assembled_propagator(e0, x, z, t)
    assert got.shape == want.shape == shape + (2, 2)
    # every nonzero part bit for bit; a zero part may differ only in its sign
    got_parts, want_parts = got.view(float), want.view(float)
    nonzero = want_parts != 0.0
    assert np.array_equal(got_parts[nonzero].view(np.uint64), want_parts[nonzero].view(np.uint64))
    assert not got_parts[~nonzero].any()


# --- bit-exact references for the copy-free register and pulse kernels ----------------------

def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def random_amps(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_cyclic_rf_loop_matches_sequential_apply(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        amps = random_amps(n, rng)
        factors = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        want = amps
        for q in range(n):  # the loop as first written: one _apply per qubit
            want = register._apply(want, q, factors[q])
        got = register._apply_each(amps, factors)
        assert got.shape == (2**n,) and got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))


def halving_product(steps):
    """dynamics._total_product as first written: _mul at every level."""
    while steps.shape[-3] > 1:
        pairs = dynamics._mul(steps[..., 1::2, :, :], steps[..., 0:-1:2, :, :])
        if steps.shape[-3] % 2:
            pairs = np.concatenate([pairs, steps[..., -1:, :, :]], axis=-3)
        steps = pairs
    return steps[..., 0, :, :]


@pytest.mark.parametrize("biases", [1, 2, 12])
def test_size_chosen_total_product_matches_mul_halving(biases):
    rng = np.random.default_rng(biases)
    # 1..600 steps: both sides of the size choice at every bias count, odd lengths included
    for length in range(1, 601):
        shape = (biases, length, 2, 2)
        steps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got, want = dynamics._total_product(steps), halving_product(steps)
        assert got.shape == (biases, 2, 2)
        assert np.array_equal(bits(got), bits(want)), length


def test_total_product_keeps_mul_for_large_levels(monkeypatch):
    calls = []
    mul = dynamics._mul
    monkeypatch.setattr(dynamics, "_mul", lambda a, b, out=None: calls.append(a.shape) or mul(a, b))
    dynamics._total_product(np.broadcast_to(dynamics.IDENTITY, (12, 396, 2, 2)))
    # the levels of 198, 99, 49 and 25 pairs per bias hold more than 256 pairs in all and take
    # _mul; those of 12, 6, 3, 2 and 1 pairs take the broadcast product
    assert calls == [(12, pairs, 2, 2) for pairs in (198, 99, 49, 25)]


def carried_propagators(params, t, dt, epsilon):
    """dynamics._drive_propagators as first written: each block's total, carried in time order."""
    eps = np.asarray(epsilon, dtype=float)
    n, blocks = dynamics._drive_steps(params, t, dt, eps[:, None])
    totals = map(dynamics._total_product, blocks)
    total = next(totals) if n else np.tile(dynamics.IDENTITY, (len(eps), 1, 1))
    for block in totals:
        total = dynamics._mul(block, total)
    return total


# a 12-qubit RF pulse as the chain runs it: biases 0.25 (q + 1), amp 0.035, dt 0.025
RF_DRIVE = TwoLevelParams(drive_amp=0.035, drive_freq=1.5)
RF_BIASES = 0.25 * np.arange(1, MAX_QUBITS + 1)


@pytest.mark.parametrize("biases", [1, 2, MAX_QUBITS])
def test_pulse_in_one_block_matches_the_carry(biases):
    # one block runs the levels of _total_product on its steps, in the same order
    eps = RF_BIASES[:biases]
    for n in (0, 1, 2, 3, 43, 44, 396, 513, 1000, dynamics.BLOCK - 1, dynamics.BLOCK):
        got = dynamics._drive_propagators(RF_DRIVE, n * 0.025, 0.025, eps)
        want = carried_propagators(RF_DRIVE, n * 0.025, 0.025, eps)
        assert got.shape == want.shape == (biases, 2, 2)
        assert np.array_equal(bits(got), bits(want)), n


@pytest.mark.parametrize("biases", [1, 2, MAX_QUBITS])
@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_pulse_past_one_block_stays_on_one_block(monkeypatch, biases, block):
    eps = RF_BIASES[:biases]
    for n in (8, 50, 601):
        one_block = dynamics._drive_propagators(RF_DRIVE, n * 0.025, 0.025, eps)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "BLOCK", block)
            got = dynamics._drive_propagators(RF_DRIVE, n * 0.025, 0.025, eps)
        assert np.abs(got - one_block).max() < 1e-12, n


def test_pulse_of_many_full_blocks_stays_on_one_block(monkeypatch):
    # each full block takes its own product, and the six block products take one more tree
    n = 5 * dynamics.BLOCK + 100
    blocked = dynamics._drive_propagators(RF_DRIVE, n * 0.025, 0.025, RF_BIASES)
    carried = carried_propagators(RF_DRIVE, n * 0.025, 0.025, RF_BIASES)
    monkeypatch.setattr(dynamics, "BLOCK", n)
    one_block = dynamics._drive_propagators(RF_DRIVE, n * 0.025, 0.025, RF_BIASES)
    assert np.abs(blocked - one_block).max() < 1e-12
    assert np.abs(carried - one_block).max() < 1e-12


# --- bit-exact references for the blocked trajectories ---------------------------------------

def whole_stack_trajectory(state, params, t, dt):
    """dynamics.drive_evolve as first written: the identity and every step in one stack, scanned
    whole."""
    n = dynamics._n_steps(t, dt)
    x = -params.delta + params.drive_amp * np.cos(params.drive_freq * ((np.arange(n) + 0.5) * dt))
    steps = dynamics._propagator(params.e0, x, params.epsilon, dt)
    stack = np.concatenate([dynamics.IDENTITY[None], steps])  # the identity gives sample 0
    return dynamics._running_products(stack) @ state.vector


def one_stack_closed_trajectory(state, params, t, dt):
    """dynamics.drive_evolve at drive_amp = 0 as first written: every sample's propagator at
    once."""
    times = np.arange(dynamics._n_steps(t, dt) + 1) * dt
    return dynamics._propagator(params.e0, -params.delta, params.epsilon, times) @ state.vector


def doubled_trajectory(rho, params, t, dt):
    """dynamics.evolve_damped as first written: doubling over the whole output."""
    n = dynamics._n_steps(t, dt)
    u = dynamics._propagator(params.e0, -params.delta, params.epsilon, dt)
    half_decay = math.exp(-params.gamma * dt)
    half = np.array([1.0, half_decay, half_decay, 1.0])
    power = half[:, None] * np.kron(u, u.conj()) * half
    out = np.empty((n + 1, 4), dtype=complex)
    out[0] = rho.rho.reshape(4)
    m = 1
    while m <= n:
        k = min(m, n + 1 - m)
        out[m:m + k] = out[:k] @ power.T
        power = power @ power
        m += k
    return out.reshape(n + 1, 2, 2)


# the resonant drive of rabi-e0-zero, and one with a global phase (e0 != 0)
DRIVES = [TwoLevelParams(delta=0.3, epsilon=1.0, drive_amp=0.05, drive_freq=2.1),
          TwoLevelParams(e0=0.7, delta=0.2, epsilon=-0.4, drive_amp=0.3, drive_freq=1.3)]
DAMPINGS = [TwoLevelParams(delta=0.5, gamma=0.05),
            TwoLevelParams(e0=0.2, delta=0.5, epsilon=0.3, gamma=0.4)]


@pytest.mark.parametrize("params", DRIVES)
def test_driven_trajectory_in_one_block_matches_the_whole_stack_scan(params):
    # up to one block the blocked scan is the whole scan less a product by the identity
    for n in (0, 1, 2, 3, 100, 2000, dynamics.BLOCK - 1, dynamics.BLOCK):
        for state in (QubitState.minus(), QubitState(0.6, 0.8j)):
            _, got = dynamics.drive_evolve(state, params, n * 0.005, 0.005)
            want = whole_stack_trajectory(state, params, n * 0.005, 0.005)
            assert got.shape == want.shape == (n + 1, 2)
            assert np.array_equal(bits(got), bits(want)), n


@pytest.mark.parametrize("params", [TwoLevelParams(delta=0.5),
                                    TwoLevelParams(e0=0.7, delta=0.5, epsilon=-0.2)])
def test_closed_trajectory_in_blocks_matches_the_one_stack(params):
    # each sample is its own propagator applied to the state: blocks cannot change a bit
    for n in (0, 1, dynamics.BLOCK - 1, dynamics.BLOCK, dynamics.BLOCK + 1, 3 * dynamics.BLOCK + 5):
        for state in (QubitState.plus(), QubitState(0.6, 0.8j)):
            _, got = dynamics.drive_evolve(state, params, n * 0.01, 0.01)
            want = one_stack_closed_trajectory(state, params, n * 0.01, 0.01)
            assert got.shape == want.shape == (n + 1, 2)
            assert np.array_equal(bits(got), bits(want)), n


@pytest.mark.parametrize("params", DAMPINGS)
def test_damped_trajectory_in_two_blocks_matches_whole_doubling(params):
    # the doubling is the same up to a stride of one block, which fills the second block
    rho = DensityMatrix.from_state(QubitState.plus())
    for n in (0, 1, 2, 5, 100, dynamics.BLOCK - 1, dynamics.BLOCK, 2 * dynamics.BLOCK - 1):
        _, got = dynamics.evolve_damped(rho, params, n * 0.01, 0.01)
        want = doubled_trajectory(rho, params, n * 0.01, 0.01)
        assert got.shape == want.shape == (n + 1, 2, 2)
        assert np.array_equal(bits(got), bits(want)), n


def divided_projection(state, q, value, reset=False):
    """register._project as first written: zeros, then the kept branch over sqrt(weight)."""
    bit = register._bit(value)
    psi = state.amps.reshape(2**q, 2, -1)
    keep = psi[:, bit]
    weight = float(np.vdot(keep, keep).real)
    if reset and not weight > 1e-24:
        keep = psi[:, 1 - bit]
        weight = float(np.vdot(keep, keep).real)
    out = np.zeros_like(psi)
    out[:, bit] = keep / math.sqrt(weight)
    return out.reshape(-1)


def same_amplitudes(got, want):
    """Bit for bit, but for the sign of a zero part: x / 1.0 may flip it and keep never does."""
    got_parts, want_parts = got.view(float), want.view(float)
    nonzero = want_parts != 0.0
    return (np.array_equal(bits(got_parts[nonzero]), bits(want_parts[nonzero]))
            and not got_parts[~nonzero].any())


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_noop_reset_returns_the_same_amplitudes(n):
    rng = np.random.default_rng(200 + n)
    values = [int(v) for v in rng.choice([-1, 1], size=n)]
    state = register.RegisterState.product(values)
    for q, value in enumerate(values):
        assert register.initialize_reset(state, q, value) is state  # the immutable state itself
        assert register._project(state, q, value) is state
        assert same_amplitudes(state.amps, divided_projection(state, q, value, reset=True))
        # the flip moves a branch of weight exactly 1: copied, not divided, and the same values
        flipped = register.initialize_reset(state, q, -value)
        assert flipped is not state
        assert same_amplitudes(flipped.amps, divided_projection(state, q, -value, reset=True))


def test_projection_bits_away_from_the_noop():
    rng = np.random.default_rng(7)
    n, q = 5, 2
    # a kept branch of weight exactly 1 beside a tiny, nonzero other branch is divided as
    # before, and the other branch is zeroed
    amps = np.zeros(2**n, complex)
    amps[0b00100] = 1.0
    amps[0b00000] = 1e-6
    state = register.RegisterState(n, amps)
    projected = register._project(state, q, +1)
    assert projected is not state and projected.amps[0] == 0.0
    assert np.array_equal(bits(projected.amps), bits(divided_projection(state, q, +1)))
    # a basis state of norm just below 1: its kept weight is not exactly 1, so it is divided
    amps = np.zeros(2**n, complex)
    amps[0b00100] = np.sqrt(1.0 - 1e-13)
    state = register.RegisterState(n, amps)
    projected = register._project(state, q, +1)
    assert projected.amps[0b00100] != state.amps[0b00100]
    assert np.array_equal(bits(projected.amps), bits(divided_projection(state, q, +1)))
    # random states: every qubit, both values, measured and reset
    for _ in range(20):
        state = register.RegisterState(n, random_amps(n, rng))
        for q in range(n):
            for value in (-1, 1):
                for reset in (False, True):
                    got = register._project(state, q, value, reset).amps
                    want = divided_projection(state, q, value, reset)
                    assert np.array_equal(bits(got), bits(want))


def test_state_owns_a_copy_of_a_callers_array():
    rng = np.random.default_rng(3)
    amps = random_amps(4, rng)
    kept = amps.copy()
    state = register.RegisterState(4, amps)
    amps[:] = 0.0
    amps[0] = 1.0
    assert np.array_equal(state.amps, kept)
    assert not state.amps.flags.writeable
    # a list, and a real array, are converted as before
    assert register.RegisterState(1, [1.0, 0.0]).amps.dtype == complex
    assert register.RegisterState(1, np.array([0.0, 1.0])).amps.dtype == complex
