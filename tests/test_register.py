import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chiralqubit import dynamics, register
from chiralqubit.dynamics import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QubitState,
    StepTooLarge,
    TwoLevelParams,
)
from chiralqubit.register import (
    NAMED_GATES,
    SYMMETRIC,
    CouplingLink,
    FieldProfile,
    IndexOutOfRange,
    InsufficientGradient,
    LinkOff,
    NotUnitary,
    RegisterState,
    apply_single_gate,
    cnot_composed,
    exchange_pulse,
    exchange_unitary,
    hall_voltage,
    initialize_reset,
    measure,
    selective_rf_pulse,
    z_rotation,
)

LINK01 = CouplingLink(0, 1, on=True)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return RegisterState(n, amps / np.linalg.norm(amps))


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assembled_unitary(op, n):
    columns = []
    for index in range(2**n):
        amps = np.zeros(2**n, dtype=complex)
        amps[index] = 1.0
        columns.append(op(RegisterState(n, amps)).amps)
    return np.column_stack(columns)


def equal_up_to_phase(a, b, tol):
    pivot = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(a[pivot]) < 1e-14:
        return False
    phase = b[pivot] / a[pivot]
    return abs(abs(phase) - 1.0) < tol and np.abs(a * phase - b).max() < tol


class TestRegisterState:
    def test_product_ordering(self):
        state = RegisterState.product([+1, -1])
        assert state.probabilities()[2] == 1.0  # qubit 0 is the leftmost factor

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            RegisterState(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[math.nan, 1.0], [math.inf, 0.0], [math.nan, math.inf]])
    def test_non_finite_rejected(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            RegisterState(1, np.array(amps))

    @staticmethod
    def norm_check_reference(amps) -> bool:
        """The acceptance rule as first written, on np.linalg.norm (which warns on overflow)."""
        with np.errstate(over="ignore"):
            return abs(np.linalg.norm(np.array(amps, dtype=complex)) - 1.0) <= 1e-10

    # (label, amplitudes, accepted): norm errors on both sides of the 1e-10 tolerance and
    # amplitudes whose squares are not finite, overflow or underflow
    NORM_TABLE = [
        ("exact", [0.6, 0.8j], True),
        ("error 5e-11", [0.6 * (1.0 + 5e-11), 0.8 * (1.0 + 5e-11)], True),
        ("error -5e-11", [0.6 * (1.0 - 5e-11), -0.8 * (1.0 - 5e-11)], True),
        ("error 2e-10", [0.6 * (1.0 + 2e-10), 0.8 * (1.0 + 2e-10)], False),
        ("error -2e-10", [0.6j * (1.0 - 2e-10), 0.8 * (1.0 - 2e-10)], False),
        ("nan", [math.nan, 1.0], False),
        ("inf", [math.inf, 0.0], False),
        ("1e200", [1e200, 0.0], False),
        ("1e-200", [1e-200, 0.0], False),
    ]

    @pytest.mark.parametrize("label, amps, accepted", NORM_TABLE, ids=[r[0] for r in NORM_TABLE])
    def test_norm_check_table(self, label, amps, accepted):
        assert self.norm_check_reference(amps) == accepted
        if accepted:
            assert np.array_equal(RegisterState(1, amps).amps, amps)
        else:
            with pytest.raises(ValueError, match=r"amplitudes not normalized: \|amps\| = "):
                RegisterState(1, amps)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            RegisterState.all_minus(13)

    def test_amplitude_length_checked(self):
        with pytest.raises(ValueError, match="amplitude vector must have length 4"):
            RegisterState(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bias", [math.nan, math.inf])
    def test_non_finite_bias_rejected(self, bias):
        with pytest.raises(ValueError, match="bias values must be finite"):
            FieldProfile((1.0, bias))

    def test_probability_plus(self):
        state = RegisterState(1, np.array([0.6, 0.8]))
        assert state.probability_plus(0) == pytest.approx(0.64)


class TestSingleGates:
    def test_identity(self):
        state = random_state(3, np.random.default_rng(5))
        out = apply_single_gate(state, 1, NAMED_GATES["I"])
        assert np.array_equal(out.amps, state.amps)

    def test_bit_flip(self):
        out = apply_single_gate(RegisterState.product([+1]), 0, SIGMA_X)
        assert out.probabilities()[0] == 1.0

    def test_symmetric_combination_gate(self):
        out = apply_single_gate(RegisterState.product([+1]), 0, NAMED_GATES["H"])
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.abs(out.amps - expected).max() < 1e-15

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            apply_single_gate(RegisterState.all_minus(1), 0, np.array([[1, 0], [0, 0.5]]))

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            apply_single_gate(RegisterState.all_minus(2), 2, SIGMA_X)

    def test_rejects_non_2x2(self):
        with pytest.raises(NotUnitary, match=r"gate must be 2x2, got shape \(3, 3\)"):
            apply_single_gate(RegisterState.all_minus(2), 0, np.eye(3))

    def test_pauli_algebra(self):
        assert np.abs(SIGMA_X @ SIGMA_Y - 1j * SIGMA_Z).max() == 0.0
        assert np.abs(SIGMA_Z @ SIGMA_Z - np.eye(2)).max() == 0.0

    def test_unitarity_checked_once_per_named_gate(self, monkeypatch):
        checked = []
        unitary = register._unitary
        monkeypatch.setattr(register, "_unitary",
                            lambda gate: checked.append(gate) or unitary(gate))
        state = random_state(3, np.random.default_rng(8))
        for name, gate in NAMED_GATES.items():
            assert not gate.flags.writeable, name  # so the check made at import still holds
            with pytest.raises(ValueError):
                gate[0, 0] = 2.0
            apply_single_gate(state, 1, gate)
        assert checked == []
        # an equal matrix that is not the named one is checked on every call, and so is a bad one
        copy = NAMED_GATES["H"].copy()
        for _ in range(3):
            out = apply_single_gate(state, 1, copy)
        assert len(checked) == 3
        assert np.array_equal(out.amps, apply_single_gate(state, 1, NAMED_GATES["H"]).amps)
        copy[1, 1] = 0.5
        with pytest.raises(NotUnitary):
            apply_single_gate(state, 1, copy)


class TestExchangePulse:
    def test_matches_matrix_exponential_oracle(self):
        sigma_dot_sigma = (
            np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
        )
        for theta in (0.0, 0.3, math.pi / 2.0, math.pi, 2.2):
            oracle = expm(-0.25j * theta * sigma_dot_sigma)
            assert np.abs(exchange_unitary(theta) - oracle).max() < 1e-12

    def test_full_pulse_swaps(self):
        out = exchange_pulse(RegisterState.product([+1, -1]), LINK01, math.pi)
        probs = out.probabilities()
        assert probs[1] == pytest.approx(1.0, abs=1e-12)  # |-1,+1>

    def test_zero_area_is_identity(self):
        state = random_state(2, np.random.default_rng(3))
        out = exchange_pulse(state, LINK01, 0.0)
        assert np.abs(out.amps - state.amps).max() < 1e-15

    def test_half_pulse_entangles(self):
        out = exchange_pulse(RegisterState.product([+1, -1]), LINK01, math.pi / 2.0)
        sigma_dot_sigma = (
            np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)
        )
        start = np.zeros(4, dtype=complex)
        start[2] = 1.0
        oracle = expm(-0.25j * (math.pi / 2.0) * sigma_dot_sigma) @ start
        assert np.abs(out.amps - oracle).max() < 1e-12
        probs = out.probabilities()
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[2] == pytest.approx(0.5, abs=1e-12)
        coherence = out.amps[1] * np.conj(out.amps[2])
        assert abs(coherence) > 0.4

    def test_half_pulse_squared_is_swap(self):
        state = random_state(2, np.random.default_rng(11))
        twice = exchange_pulse(exchange_pulse(state, LINK01, math.pi / 2.0), LINK01, math.pi / 2.0)
        once = exchange_pulse(state, LINK01, math.pi)
        assert np.abs(twice.amps - once.amps).max() < 1e-10

    def test_swap_equals_relabeling_for_products(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        state = RegisterState(2, np.kron(a, b))
        swapped = exchange_pulse(state, LINK01, math.pi)
        relabeled = RegisterState(2, np.kron(b, a))
        assert np.abs(swapped.probabilities() - relabeled.probabilities()).max() < 1e-12

    def test_link_off_blocks(self):
        with pytest.raises(LinkOff):
            exchange_pulse(RegisterState.all_minus(2), CouplingLink(0, 1, on=False), 1.0)

    def test_link_validation(self):
        for i, j in ((0, 2), (1, 1), (-1, 0)):
            with pytest.raises(ValueError):
                CouplingLink(i, j, on=True)
        assert CouplingLink(1, 0).on  # either orientation, on by default


class TestComposedCnot:
    def test_truth_table(self):
        for control_value, target_value, expected in (
            (+1, -1, (+1, +1)),
            (+1, +1, (+1, -1)),
            (-1, -1, (-1, -1)),
            (-1, +1, (-1, +1)),
        ):
            state = RegisterState.product([control_value, target_value])
            out = cnot_composed(state, 0, 1, LINK01)
            assert out.probabilities().argmax() == RegisterState.product(list(expected)).probabilities().argmax()

    def test_net_unitary_is_cnot_up_to_phase(self):
        u = assembled_unitary(lambda s: cnot_composed(s, 0, 1, LINK01), 2)
        assert equal_up_to_phase(u, CNOT_MATRIX, 1e-10)

    def test_reversed_control(self):
        u = assembled_unitary(lambda s: cnot_composed(s, 1, 0, LINK01), 2)
        flipped = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert equal_up_to_phase(u, flipped, 1e-10)

    def test_involution(self):
        state = random_state(2, np.random.default_rng(21))
        twice = cnot_composed(cnot_composed(state, 0, 1, LINK01), 0, 1, LINK01)
        overlap = abs(np.vdot(twice.amps, state.amps))
        assert abs(overlap - 1.0) < 1e-9

    def test_requires_adjacency(self):
        state = RegisterState.all_minus(3)
        with pytest.raises(IndexOutOfRange):
            cnot_composed(state, 0, 2, LINK01)

    def test_link_off_blocks(self):
        with pytest.raises(LinkOff):
            cnot_composed(RegisterState.all_minus(2), 0, 1, CouplingLink(0, 1, on=False))

    def test_link_must_join_control_and_target(self):
        with pytest.raises(ValueError, match=r"link \(0, 1\) does not join 1 and 2"):
            cnot_composed(RegisterState.all_minus(3), 1, 2, LINK01)


class TestLocality:
    def test_disjoint_gates_commute(self):
        rng = np.random.default_rng(17)
        state = random_state(4, rng)
        link23 = CouplingLink(2, 3, on=True)
        u = random_unitary(rng)
        a = exchange_pulse(apply_single_gate(state, 0, u), link23, 0.7)
        b = apply_single_gate(exchange_pulse(state, link23, 0.7), 0, u)
        assert np.abs(a.amps - b.amps).max() < 1e-10

    def test_single_qubit_gates_keep_products_uncorrelated(self):
        rng = np.random.default_rng(31)
        state = RegisterState.all_minus(3)
        for _ in range(30):
            state = apply_single_gate(state, int(rng.integers(3)), random_unitary(rng))
        rho = np.outer(state.amps, state.amps.conj())
        psi = state.amps.reshape(2, 2, 2)
        rho_0 = np.einsum("abc,dbc->ad", psi, psi.conj())
        rho_1 = np.einsum("abc,adc->bd", psi, psi.conj())
        rho_01 = np.einsum("abc,dec->abde", psi, psi.conj()).reshape(4, 4)

        def entropy(matrix):
            eigs = np.clip(np.linalg.eigvalsh(matrix), 0.0, 1.0)
            eigs = eigs[eigs > 1e-15]
            return float(-(eigs * np.log(eigs)).sum())

        mutual_information = entropy(rho_0) + entropy(rho_1) - entropy(rho_01)
        assert abs(mutual_information) < 1e-9
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_norm_survives_long_random_circuit(self):
        rng = np.random.default_rng(100)
        state = RegisterState.all_minus(4)
        links = [CouplingLink(i, i + 1, on=True) for i in range(3)]
        for _ in range(1000):
            if rng.random() < 0.5:
                state = apply_single_gate(state, int(rng.integers(4)), random_unitary(rng))
            else:
                state = exchange_pulse(state, links[int(rng.integers(3))], rng.uniform(0, math.pi))
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-8


# Dense references: every operator is a Kronecker product of per-qubit 2x2
# factors, qubit 0 leftmost, so nothing here reshapes the amplitude vector.
P_MINUS = np.diag([1.0, 0.0]).astype(complex)
P_PLUS = np.diag([0.0, 1.0]).astype(complex)
KERNEL_TOL = 1e-12


def dense(n, factors):
    """Kronecker product over the register of {qubit: 2x2}, identity elsewhere."""
    return functools.reduce(np.kron, [factors.get(q, IDENTITY) for q in range(n)])


def dense_exchange(n, i, j, theta):
    sigma_dot_sigma = sum(dense(n, {i: p, j: p}) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    return expm(-0.25j * theta * sigma_dot_sigma)


def dense_cnot(n, control, target):
    return dense(n, {control: P_MINUS}) + dense(n, {control: P_PLUS, target: SIGMA_X})


def collapsed(n, q, projector, amps):
    branch = dense(n, {q: projector}) @ amps
    return branch / np.linalg.norm(branch)


register_states = st.builds(
    lambda n, seed: random_state(n, np.random.default_rng(seed)),
    st.integers(1, 8), st.integers(0, 2**32 - 1),
)
chain_states = register_states.filter(lambda state: state.n >= 2)


class TestKernelAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(state=register_states, seed=st.integers(0, 2**32 - 1))
    def test_single_gate_at_every_qubit(self, state, seed):
        u = random_unitary(np.random.default_rng(seed))
        for q in range(state.n):
            out = apply_single_gate(state, q, u)
            assert np.abs(out.amps - dense(state.n, {q: u}) @ state.amps).max() < KERNEL_TOL

    @settings(max_examples=40, deadline=None)
    @given(state=chain_states, data=st.data(), theta=st.floats(0.0, 2.0 * math.pi))
    def test_exchange_pulse_both_orientations(self, state, data, theta):
        lo = data.draw(st.integers(0, state.n - 2))
        want = dense_exchange(state.n, lo, lo + 1, theta) @ state.amps
        for i, j in ((lo, lo + 1), (lo + 1, lo)):
            out = exchange_pulse(state, CouplingLink(i, j), theta)
            assert np.abs(out.amps - want).max() < KERNEL_TOL

    @pytest.mark.parametrize("control_first", [True, False])
    def test_cnot_matrix_is_canonical_up_to_phase(self, control_first):
        u = register._cnot_matrix(control_first)
        canonical = dense_cnot(2, *((0, 1) if control_first else (1, 0)))
        phase = u[0, 0]
        assert abs(abs(phase) - 1.0) < KERNEL_TOL
        assert np.abs(u - phase * canonical).max() < KERNEL_TOL
        assert not u.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(state=chain_states, data=st.data())
    def test_cnot_both_orientations(self, state, data):
        lo = data.draw(st.integers(0, state.n - 2))
        for control, target in ((lo, lo + 1), (lo + 1, lo)):
            out = cnot_composed(state, control, target, CouplingLink(lo, lo + 1))
            phase = register._cnot_matrix(control < target)[0, 0]
            want = phase * dense_cnot(state.n, control, target) @ state.amps
            assert np.abs(out.amps - want).max() < KERNEL_TOL

    @settings(max_examples=60, deadline=None)
    @given(state=register_states, seed=st.integers(0, 2**32 - 1))
    def test_probability_plus_and_measure_collapse(self, state, seed):
        for q in range(state.n):
            p_plus = np.vdot(state.amps, dense(state.n, {q: P_PLUS}) @ state.amps).real
            assert abs(state.probability_plus(q) - p_plus) < KERNEL_TOL
            outcome, post = measure(state, q, seed)
            assert outcome == (+1 if np.random.default_rng(seed).random() < p_plus else -1)
            want = collapsed(state.n, q, P_PLUS if outcome == +1 else P_MINUS, state.amps)
            assert np.abs(post.amps - want).max() < KERNEL_TOL

    @settings(max_examples=60, deadline=None)
    @given(state=register_states, value=st.sampled_from([+1, -1]))
    def test_reset_projects_or_flips(self, state, value):
        keep, drop = (P_PLUS, P_MINUS) if value == +1 else (P_MINUS, P_PLUS)
        for q in range(state.n):
            out = initialize_reset(state, q, value)
            assert np.abs(out.amps - collapsed(state.n, q, keep, state.amps)).max() < KERNEL_TOL
            # no weight on the requested value: the other component moves into its slot
            other = RegisterState(state.n, collapsed(state.n, q, drop, state.amps))
            flipped = dense(state.n, {q: SIGMA_X}) @ other.amps
            out = initialize_reset(other, q, value)
            assert np.abs(out.amps - flipped).max() < KERNEL_TOL


class TestSelectiveRf:
    def test_pi_pulse_flips_target_only(self):
        amp = 0.05
        state = RegisterState.all_minus(2)
        profile = FieldProfile((1.0, 1.5))
        out = selective_rf_pulse(state, profile, 0, amp, math.pi / amp, 0.005)
        assert out.probability_plus(0) > 0.95
        assert out.probability_plus(1) < 0.02

    def test_zero_amplitude_is_identity(self):
        state = random_state(2, np.random.default_rng(9))
        out = selective_rf_pulse(state, FieldProfile((1.0, 1.5)), 0, 0.0, 10.0, 0.01)
        assert np.array_equal(out.amps, state.amps)
        assert out is state

    @pytest.mark.parametrize("duration, dt", [(-1.0, 0.01), (1e300, 0.01), (1.0, -0.01),
                                              (1.0, 0.0)])
    def test_zero_amplitude_checks_duration_and_step(self, duration, dt):
        # an amp-0 pulse is the identity, but it takes the step count of a driven pulse
        with pytest.raises(ValueError, match="the cap"):
            selective_rf_pulse(RegisterState.all_minus(2), FieldProfile((1.0, 1.5)), 0, 0.0,
                               duration, dt)

    def test_single_qubit_reduces_to_driven_dynamics(self):
        amp, duration, dt, eps = 0.05, 40.0, 0.01, 1.0
        out = selective_rf_pulse(
            RegisterState.all_minus(1), FieldProfile((eps,)), 0, amp, duration, dt
        )
        params = TwoLevelParams(epsilon=eps, drive_amp=amp, drive_freq=2.0 * eps)
        _, amps = dynamics.drive_evolve(QubitState.minus(), params, duration, dt)
        lab_frame = dynamics._propagator(0.0, 0.0, eps, duration) @ out.amps
        assert np.abs(lab_frame - amps[-1]).max() < 1e-9
        assert abs(out.probability_plus(0) - abs(amps[-1, 1]) ** 2) < 1e-9

    @pytest.mark.parametrize("n, target, amp, duration", [
        (3, 0, 0.05, 9.6137), (3, 2, 0.08, 10.3871), (4, 1, 0.06, 9.9013), (5, 3, 0.07, 10.0119),
    ])
    def test_matches_expm_kronecker_reference(self, n, target, amp, duration):
        dt, eps = 0.025, tuple(0.5 * (q + 1) for q in range(n))
        steps = round(duration / dt)
        assert abs(duration - steps * dt) > 1e-3  # the frame unwinds over duration, not steps * dt
        state = random_state(n, np.random.default_rng(n))
        omega = 2.0 * eps[target]
        factors = []
        for bias in eps:
            u = np.eye(2, dtype=complex)
            for k in range(steps):  # later steps on the left
                h = bias * SIGMA_Z + amp * math.cos(omega * (k + 0.5) * dt) * SIGMA_X
                u = expm(-1j * dt * h) @ u
            factors.append(expm(1j * bias * duration * SIGMA_Z) @ u)
        want = functools.reduce(np.kron, factors) @ state.amps
        out = selective_rf_pulse(state, FieldProfile(eps), target, amp, duration, dt)
        assert np.abs(out.amps - want).max() < 1e-10

    def test_insufficient_gradient(self):
        with pytest.raises(InsufficientGradient):
            selective_rf_pulse(
                RegisterState.all_minus(2), FieldProfile((1.0, 1.1)), 0, 0.05, 1.0, 0.01
            )

    def test_profile_length_checked(self):
        with pytest.raises(ValueError):
            selective_rf_pulse(RegisterState.all_minus(2), FieldProfile((1.0,)), 0, 0.0, 1.0, 0.01)

    @pytest.mark.parametrize("amp", [-0.05, math.nan, math.inf])
    def test_amplitude_checked(self, amp):
        with pytest.raises(ValueError, match="amp must be finite and >= 0"):
            selective_rf_pulse(RegisterState.all_minus(2), FieldProfile((1.0, 2.0)), 0, amp, 1.0,
                               0.01)

    def test_step_too_large_propagates(self):
        with pytest.raises(StepTooLarge):
            selective_rf_pulse(
                RegisterState.all_minus(2), FieldProfile((1.0, 2.0)), 0, 0.1, 1.0, 0.2
            )


class TestReset:
    def test_rejects_chirality_zero(self):
        with pytest.raises(ValueError, match=r"chirality value must be \+1 or -1, got 0"):
            initialize_reset(RegisterState.all_minus(1), 0, 0)

    def test_flips_opposite_basis_state(self):
        out = initialize_reset(RegisterState.product([+1, +1]), 0, -1)
        assert out.probabilities()[1] == 1.0  # |-1,+1>

    def test_noop_when_already_set(self):
        state = RegisterState.product([-1, +1])
        out = initialize_reset(state, 0, -1)
        assert np.array_equal(out.amps, state.amps)

    def test_projects_entangled_pair(self):
        bell = RegisterState(2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
        out = initialize_reset(bell, 0, -1)
        assert out.probabilities()[0] == pytest.approx(1.0, abs=1e-12)


class TestMeasurement:
    def test_basis_state_deterministic(self):
        state = RegisterState.product([+1, -1])
        for seed in (0, 1, 2):
            outcome, post = measure(state, 0, seed)
            assert outcome == +1
            assert np.array_equal(post.amps, state.amps)

    def test_balanced_statistics(self):
        state = RegisterState(1, np.array([1.0, 1.0]) / math.sqrt(2.0))
        rng = np.random.default_rng(77)
        hits = sum(1 for _ in range(10_000) if measure(state, 0, rng)[0] == +1)
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_entangled_outcomes_correlate(self):
        bell = RegisterState(2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
        rng = np.random.default_rng(123)
        counts = {(-1, -1): 0, (+1, +1): 0}
        for _ in range(4_000):
            first, post = measure(bell, 0, rng)
            second, _ = measure(post, 1, rng)
            assert first == second
            counts[(first, second)] += 1
        assert abs(counts[(+1, +1)] / 4_000 - 0.5) < 0.04

    def test_seed_reproducibility(self):
        state = RegisterState(1, np.array([1.0, 1.0]) / math.sqrt(2.0))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(5150)
            runs.append([measure(state, 0, rng)[0] for _ in range(50)])
        assert runs[0] == runs[1]


class TestHallReadout:
    def test_sign_map(self):
        assert hall_voltage(+1, 1e-6) == +1e-6
        assert hall_voltage(-1, 1e-6) == -1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            hall_voltage(0, 1e-6)
        with pytest.raises(ValueError):
            hall_voltage(+1, 0.0)

    def test_expected_voltage_follows_beating(self):
        # expected readout v0 * (p_plus - p_minus) traces v0 * cos(2 delta t)
        from chiralqubit.dynamics import beat_probability

        v0, delta = 1e-6, 0.5
        params = TwoLevelParams(delta=delta)
        for t in (0.0, 0.7, 2.1, 4.4):
            state = dynamics.evolve_closed(QubitState.plus(), params, t)
            p_plus = abs(state.amp_plus) ** 2
            expected = p_plus * hall_voltage(+1, v0) + (1.0 - p_plus) * hall_voltage(-1, v0)
            assert expected == pytest.approx(v0 * math.cos(2.0 * delta * t), abs=1e-12)
            assert expected == pytest.approx(v0 * beat_probability(params, t), abs=1e-12)


class TestZRotation:
    def test_diagonal_phases(self):
        rz = z_rotation(math.pi)
        assert abs(rz[0, 0] - 1j) < 1e-15
        assert abs(rz[1, 1] + 1j) < 1e-15

    def test_symmetric_gate_is_unitary(self):
        assert np.abs(SYMMETRIC.conj().T @ SYMMETRIC - np.eye(2)).max() < 1e-15
