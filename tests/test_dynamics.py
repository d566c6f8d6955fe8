import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chiralqubit import dynamics
from chiralqubit.dynamics import (
    MAX_STEPS,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    QubitState,
    StepTooLarge,
    TwoLevelParams,
    _drive_propagators,
    _drive_steps,
    _mul,
    _n_steps,
    _propagator,
    _running_products,
    _total_product,
    beat_probability,
    drive_evolve,
    drive_propagator,
    eigensystem,
    evolve_closed,
    evolve_damped,
)

try:
    from scipy.linalg import expm
except ImportError:  # scipy is a test extra
    expm = None

needs_scipy = pytest.mark.skipif(expm is None, reason="needs scipy for the expm reference")


def population_diff(state: QubitState) -> float:
    """P(+1) - P(-1) of a state, the quantity beat writes as p_diff."""
    return abs(state.amp_plus) ** 2 - abs(state.amp_minus) ** 2


def splitting(params: TwoLevelParams) -> float:
    """Energy gap 2*sqrt(delta^2 + epsilon^2) between the eigenstates."""
    return 2.0 * math.hypot(params.delta, params.epsilon)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), the quantity damp writes as purity."""
    return float(np.trace(rho.rho @ rho.rho).real)


def hamiltonian(params: TwoLevelParams) -> np.ndarray:
    """Static part e0*I - delta*sigma_x + epsilon*sigma_z, the dense reference matrix."""
    return params.e0 * np.eye(2) - params.delta * SIGMA_X + params.epsilon * SIGMA_Z


def p_diff(rhos):
    return (rhos[:, 1, 1] - rhos[:, 0, 0]).real


class TestParams:
    def test_rejects_negative_rates(self):
        for field in ("delta", "gamma", "drive_amp", "drive_freq"):
            with pytest.raises(ValueError):
                TwoLevelParams(**{field: -0.1})

    @pytest.mark.parametrize("field", ["e0", "delta", "epsilon", "gamma", "drive_amp",
                                       "drive_freq"])
    def test_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite, got nan"):
            TwoLevelParams(**{field: math.nan})

    def test_epsilon_may_be_negative(self):
        assert TwoLevelParams(epsilon=-2.0).epsilon == -2.0

    def test_splitting(self):
        params = TwoLevelParams(delta=3.0, epsilon=4.0)
        (e_ground, _), (e_excited, _) = eigensystem(params)
        assert splitting(params) == e_excited - e_ground == 10.0


class TestQubitState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            QubitState(1.0, 1.0)

    @pytest.mark.parametrize("amp", [math.nan, complex(math.nan, 0.0), math.inf])
    def test_non_finite_rejected(self, amp):
        with pytest.raises(ValueError, match="not normalized"):
            QubitState(amp, 0.0)

    @pytest.mark.parametrize("vec", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]])
    def test_from_vector_rejects_wrong_shape(self, vec):
        with pytest.raises(ValueError, match="state vector must have shape"):
            QubitState.from_vector(vec)

    def test_population_diff(self):
        assert population_diff(QubitState.plus()) == 1.0 == beat_probability(TwoLevelParams(), 0.0)
        assert population_diff(QubitState.minus()) == -1.0


class TestEigensystem:
    def test_symmetric_ground_state(self):
        (e_g, ground), (e_e, excited) = eigensystem(TwoLevelParams(e0=5.0, delta=1.0))
        assert e_g == 4.0 and e_e == 6.0
        assert ground.amp_minus == ground.amp_plus
        assert abs(ground.amp_minus - 1.0 / math.sqrt(2.0)) < 1e-15
        assert abs(excited.amp_minus + excited.amp_plus) < 1e-15

    def test_diagonal_hamiltonian(self):
        (e_g, ground), (e_e, excited) = eigensystem(TwoLevelParams(epsilon=2.0))
        assert (e_g, e_e) == (-2.0, 2.0)
        assert abs(ground.amp_minus) == 1.0 and abs(excited.amp_plus) == 1.0

    def test_pythagorean_energies(self):
        (e_g, _), (e_e, _) = eigensystem(TwoLevelParams(delta=3.0, epsilon=4.0))
        assert e_g == -5.0 and e_e == 5.0

    def test_degenerate_case_fixed_order(self):
        (e_g, ground), (e_e, excited) = eigensystem(TwoLevelParams(e0=1.5))
        assert e_g == e_e == 1.5
        assert ground.amp_minus == 1.0 and excited.amp_plus == 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        e0=st.floats(-3.0, 3.0),
        delta=st.floats(0.0, 4.0),
        epsilon=st.floats(-4.0, 4.0),
    )
    def test_against_dense_eigensolver(self, e0, delta, epsilon):
        params = TwoLevelParams(e0=e0, delta=delta, epsilon=epsilon)
        h = hamiltonian(params)
        reference = np.linalg.eigvalsh(h)
        (e_g, ground), (e_e, excited) = eigensystem(params)
        assert abs(e_g - reference[0]) < 1e-12
        assert abs(e_e - reference[1]) < 1e-12
        for energy, state in ((e_g, ground), (e_e, excited)):
            residual = h @ state.vector - energy * state.vector
            assert np.abs(residual).max() < 1e-12


class TestClosedEvolution:
    def test_time_zero_is_identity(self):
        state = QubitState.from_vector(np.array([0.6, 0.8j]))
        out = evolve_closed(state, TwoLevelParams(delta=0.7, epsilon=0.2), 0.0)
        assert out.amp_minus == state.amp_minus and out.amp_plus == state.amp_plus

    def test_eigenstate_acquires_only_phase(self):
        params = TwoLevelParams(e0=1.0, delta=0.8, epsilon=-0.5)
        (energy, state), _ = eigensystem(params)
        for t in (0.3, 1.7, 9.2):
            evolved = evolve_closed(state, params, t)
            expected = np.exp(-1j * energy * t) * state.vector
            assert np.abs(evolved.vector - expected).max() < 1e-12

    def test_half_period_full_transfer(self):
        out = evolve_closed(QubitState.plus(), TwoLevelParams(delta=0.5), math.pi)
        assert abs(abs(out.amp_minus) - 1.0) < 1e-12
        assert abs(out.amp_plus) < 1e-12

    def test_requires_closed_params(self):
        with pytest.raises(ValueError):
            evolve_closed(QubitState.plus(), TwoLevelParams(delta=1.0, gamma=0.1), 1.0)
        with pytest.raises(ValueError):
            evolve_closed(QubitState.plus(), TwoLevelParams(delta=1.0, drive_amp=0.1), 1.0)

    def test_norm_conserved_over_many_composed_steps(self):
        params = TwoLevelParams(e0=0.3, delta=0.7, epsilon=0.4)
        state = QubitState.plus()
        for _ in range(100_000):
            state = evolve_closed(state, params, 0.013)
        norm_sq = abs(state.amp_minus) ** 2 + abs(state.amp_plus) ** 2
        assert abs(norm_sq - 1.0) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        delta=st.floats(0.0, 3.0),
        epsilon=st.floats(-3.0, 3.0),
        t1=st.floats(0.0, 8.0),
        t2=st.floats(0.0, 8.0),
    )
    def test_composition(self, delta, epsilon, t1, t2):
        params = TwoLevelParams(delta=delta, epsilon=epsilon)
        state = QubitState.from_vector(np.array([0.6, 0.8]))
        two_step = evolve_closed(evolve_closed(state, params, t1), params, t2)
        one_step = evolve_closed(state, params, t1 + t2)
        assert np.abs(two_step.vector - one_step.vector).max() < 1e-10


class TestBeating:
    def test_cosine_law_at_half_period(self):
        assert beat_probability(TwoLevelParams(delta=0.5), math.pi) == -1.0

    def test_no_tunneling_no_beating(self):
        params = TwoLevelParams(delta=0.0, epsilon=3.3)
        for t in (0.0, 1.0, 17.5):
            assert beat_probability(params, t) == 1.0

    def test_detuned_amplitude(self):
        value = beat_probability(TwoLevelParams(delta=0.4, epsilon=0.3), math.pi)
        assert value == pytest.approx(-0.28, abs=1e-12)
        oracle = population_diff(
            evolve_closed(QubitState.plus(), TwoLevelParams(delta=0.4, epsilon=0.3), math.pi))
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_matches_closed_evolution_on_grid(self):
        for delta in (0.0, 0.3, 1.0, 2.0):
            for epsilon in (0.0, 0.4, 1.5):
                params = TwoLevelParams(delta=delta, epsilon=epsilon)
                for t in np.linspace(0.0, 7.0, 40):
                    direct = population_diff(evolve_closed(QubitState.plus(), params, t))
                    assert abs(beat_probability(params, t) - direct) < 1e-9

    def test_spectrum_peaks_at_level_splitting(self):
        for delta, epsilon in ((0.1, 0.0), (0.5, 0.3), (2.0, 0.0)):
            params = TwoLevelParams(delta=delta, epsilon=epsilon)
            total = 200.0 / delta
            n = 8192
            dt = total / n
            times = np.arange(n) * dt
            signal = beat_probability(params, times)
            spectrum = np.abs(np.fft.rfft(signal - signal.mean()))
            peak = np.argmax(spectrum)
            bin_width = 2.0 * math.pi / total
            assert abs(peak * bin_width - splitting(params)) <= bin_width

    def test_rejects_damped_params(self):
        with pytest.raises(ValueError):
            beat_probability(TwoLevelParams(delta=1.0, gamma=0.5), 1.0)


class TestDampedEvolution:
    def test_zero_gamma_matches_beating(self):
        params = TwoLevelParams(delta=0.5)
        rho0 = DensityMatrix.from_state(QubitState.plus())
        times, rhos = evolve_damped(rho0, params, 12.0, 0.01)
        assert np.abs(p_diff(rhos) - beat_probability(params, times)).max() < 1e-6

    def test_overdamped_no_oscillation(self):
        params = TwoLevelParams(delta=0.5, gamma=10.0)
        rho0 = DensityMatrix.from_state(QubitState.plus())
        _, rhos = evolve_damped(rho0, params, 150.0, 0.004)
        signal = p_diff(rhos)
        cutoff = np.argmax(signal < 0.01)
        assert cutoff > 0
        assert np.all(signal[:cutoff] > 0.0)

    def test_underdamped_envelope_rate(self):
        gamma = 0.1
        params = TwoLevelParams(delta=0.5, gamma=gamma)
        rho0 = DensityMatrix.from_state(QubitState.plus())
        times, rhos = evolve_damped(rho0, params, 80.0, 0.005)
        signal = p_diff(rhos)
        peaks = [
            i
            for i in range(1, len(signal) - 1)
            if signal[i] > signal[i - 1] and signal[i] > signal[i + 1] and signal[i] > 0.05
        ]
        rate = -np.polyfit(times[peaks], np.log(signal[peaks]), 1)[0]
        assert abs(rate - gamma) / gamma < 0.2

    def test_channel_invariants(self):
        params = TwoLevelParams(e0=1.0, delta=0.7, epsilon=0.4, gamma=0.3)
        rho0 = DensityMatrix.from_state(QubitState.plus())
        _, rhos = evolve_damped(rho0, params, 30.0, 0.01)
        assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max() < 1e-9
        assert np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max() < 1e-9
        eigs = np.linalg.eigvalsh(rhos)
        assert eigs.min() > -1e-9
        purity = np.einsum("tij,tji->t", rhos, rhos).real
        assert np.all(np.diff(purity) <= 1e-12)

    def test_step_too_large(self):
        rho0 = DensityMatrix.from_state(QubitState.plus())
        with pytest.raises(StepTooLarge):
            evolve_damped(rho0, TwoLevelParams(delta=0.5, gamma=10.0), 1.0, 0.05)

    def test_rejects_drive(self):
        rho0 = DensityMatrix.from_state(QubitState.plus())
        with pytest.raises(ValueError):
            evolve_damped(rho0, TwoLevelParams(delta=0.5, drive_amp=0.1), 1.0, 0.01)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.6, 0.0], [0.0, 0.6]]))
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))

    @pytest.mark.parametrize("rho", [np.eye(3) / 3.0, np.array([1.0, 0.0]), np.ones((2, 2, 1))])
    def test_rejects_wrong_shape(self, rho):
        with pytest.raises(ValueError, match="density matrix must be 2x2"):
            DensityMatrix(rho)

    def test_rejects_negative_eigenvalue(self):
        # Hermitian with unit trace, but eigenvalues 1.5 and -0.5
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, entry, value):
        rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        rho[entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(rho)

    def test_purity(self):
        assert purity(DensityMatrix.from_state(QubitState.plus())) == 1.0
        assert purity(DensityMatrix(np.eye(2) / 2.0)) == 0.5


class TestDrivenEvolution:
    def test_zero_amplitude_matches_closed(self):
        params = TwoLevelParams(delta=0.4, epsilon=0.9)
        driven = TwoLevelParams(delta=0.4, epsilon=0.9, drive_amp=0.0, drive_freq=2.0)
        times, amps = drive_evolve(QubitState.plus(), driven, 10.0, 0.001)
        for index in (0, len(times) // 2, len(times) - 1):
            expected = evolve_closed(QubitState.plus(), params, times[index])
            assert np.abs(amps[index] - expected.vector).max() < 1e-9

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_rejects_nonpositive_step(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            drive_propagator(TwoLevelParams(epsilon=1.0, drive_amp=0.05, drive_freq=2.0), 1.0,
                             dt)

    @settings(max_examples=60, deadline=None)
    @given(e0=st.floats(-3.0, 3.0), delta=st.floats(0.0, 3.0), epsilon=st.floats(-3.0, 3.0),
           drive_freq=st.floats(0.0, 4.0), n=st.integers(0, 60), dt=st.floats(1e-3, 10.0),
           theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi))
    def test_zero_amplitude_samples_the_closed_propagator(
        self, e0, delta, epsilon, drive_freq, n, dt, theta, phi
    ):
        # exact at every sample and without a step bound: dt may exceed the driven limit
        state = pure_state(theta, phi)
        params = TwoLevelParams(e0=e0, delta=delta, epsilon=epsilon, drive_freq=drive_freq)
        times, amps = drive_evolve(state, params, n * dt, dt)
        assert np.array_equal(times, np.arange(_n_steps(n * dt, dt) + 1) * dt)
        assert np.array_equal(amps, _propagator(e0, -delta, epsilon, times) @ state.vector)

    def test_resonant_pi_pulse(self):
        amp = 0.05
        params = TwoLevelParams(epsilon=1.0, drive_amp=amp, drive_freq=2.0)
        _, amps = drive_evolve(QubitState.minus(), params, math.pi / amp, 0.005)
        assert abs(amps[-1, 1]) ** 2 > 0.95

    def test_detuned_drive_barely_transfers(self):
        amp = 0.05
        params = TwoLevelParams(epsilon=1.0, drive_amp=amp, drive_freq=3.0)
        _, amps = drive_evolve(QubitState.minus(), params, math.pi / amp, 0.005)
        assert (np.abs(amps[:, 1]) ** 2).max() < 0.02

    def test_norm_preserved(self):
        params = TwoLevelParams(delta=0.2, epsilon=1.0, drive_amp=0.3, drive_freq=2.0)
        _, amps = drive_evolve(QubitState.plus(), params, 30.0, 0.002)
        norms = np.linalg.norm(amps, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_step_too_large(self):
        params = TwoLevelParams(epsilon=1.0, drive_amp=0.05, drive_freq=2.0)
        with pytest.raises(StepTooLarge):
            drive_evolve(QubitState.minus(), params, 1.0, 0.2)

    def test_rejects_damping(self):
        params = TwoLevelParams(epsilon=1.0, gamma=0.1, drive_amp=0.05, drive_freq=2.0)
        with pytest.raises(ValueError):
            drive_evolve(QubitState.minus(), params, 1.0, 0.01)


def bounded_dt(scale: float, fraction: float) -> float:
    """A step dt with dt * scale = fraction * 0.1, inside the StepTooLarge bound."""
    return fraction * 0.1 / max(scale, 1.0)


def pure_state(theta: float, phi: float) -> QubitState:
    return QubitState(math.cos(theta), complex(math.cos(phi), math.sin(phi)) * math.sin(theta))


def midpoint_reference(params: TwoLevelParams, dt: float, n: int) -> list[np.ndarray]:
    """Running products of the midpoint expm steps, multiplied one step at a time."""
    products, u = [np.eye(2, dtype=complex)], np.eye(2, dtype=complex)
    for k in range(n):
        drive = params.drive_amp * math.cos(params.drive_freq * (k + 0.5) * dt)
        u = expm(-1j * dt * (hamiltonian(params) + drive * SIGMA_X)) @ u
        products.append(u)
    return products


def strang_reference(params: TwoLevelParams, dt: float) -> np.ndarray:
    """Strang step on row-major vec(rho), each factor the expm of its Liouvillian."""
    h, eye = hamiltonian(params), np.eye(2)
    coherent = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    dephasing = params.gamma * (np.kron(SIGMA_Z, SIGMA_Z.T) - np.eye(4))
    half = expm(0.5 * dt * dephasing)
    return half @ expm(dt * coherent) @ half


params_strategy = st.builds(
    TwoLevelParams,
    e0=st.floats(-2.0, 2.0),
    delta=st.floats(0.0, 2.0),
    epsilon=st.floats(-2.0, 2.0),
    drive_amp=st.floats(0.0, 1.5),
    drive_freq=st.floats(0.0, 4.0),
)


@needs_scipy
class TestAgainstExpm:
    @settings(max_examples=100, deadline=None)
    @given(
        e0=st.floats(-3.0, 3.0),
        x=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=1, max_size=4),
        z=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=1, max_size=3),
        t=st.floats(0.0, 10.0),
    )
    def test_propagator_broadcasts(self, e0, x, z, t):
        x_col, z_row = np.array(x)[:, None], np.array(z)[None, :]
        u = _propagator(e0, x_col, z_row, t)
        assert u.shape == (len(x), len(z), 2, 2)
        h = e0 * np.eye(2) + x_col[..., None, None] * SIGMA_X + z_row[..., None, None] * SIGMA_Z
        assert np.abs(u - expm(-1j * t * h)).max() < 1e-10
        scalar = _propagator(e0, x[-1], z[-1], t)
        assert scalar.shape == (2, 2)
        assert np.abs(scalar - u[-1, -1]).max() < 1e-15

    def test_propagator_zero_field_is_phase(self):
        u = _propagator(0.7, [0.0, 0.0], 0.0, [0.0, 2.5])
        assert np.array_equal(u[0], np.eye(2))
        assert np.abs(u[1] - np.exp(-1.75j) * np.eye(2)).max() < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        params=params_strategy,
        n=st.integers(0, 70),
        fraction=st.floats(0.05, 0.95),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_driven_matches_time_ordered_product(self, params, n, fraction, theta, phi):
        scale = abs(params.e0) + math.hypot(params.epsilon, params.delta + params.drive_amp)
        dt = bounded_dt(scale, fraction)
        state = pure_state(theta, phi)
        reference = midpoint_reference(params, dt, n)
        times, amps = drive_evolve(state, params, n * dt, dt)
        assert amps.shape == (n + 1, 2) and np.array_equal(times, np.arange(n + 1) * dt)
        want = np.array([u @ state.vector for u in reference])
        assert np.abs(amps - want).max() < 1e-10
        propagator = drive_propagator(params, n * dt, dt)
        assert np.abs(propagator - reference[-1]).max() < 1e-10
        # the propagator is the map that takes the state to the last sample
        assert np.abs(propagator @ state.vector - amps[-1]).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        params=params_strategy.map(
            lambda p: TwoLevelParams(e0=p.e0, delta=p.delta, epsilon=p.epsilon, gamma=p.drive_amp)
        ),
        n=st.integers(0, 200),
        fraction=st.floats(0.05, 0.95),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_damped_matches_strang_power(self, params, n, fraction, theta, phi):
        scale = max(abs(params.e0) + math.hypot(params.delta, params.epsilon), params.gamma)
        dt = bounded_dt(scale, fraction)
        rho0 = DensityMatrix.from_state(pure_state(theta, phi))
        times, rhos = evolve_damped(rho0, params, n * dt, dt)
        assert rhos.shape == (n + 1, 2, 2) and np.array_equal(times, np.arange(n + 1) * dt)
        step = strang_reference(params, dt)
        for k in sorted({0, min(1, n), n // 3, n // 2, max(n - 1, 0), n}):
            want = np.linalg.matrix_power(step, k) @ rho0.rho.reshape(4)
            assert np.abs(rhos[k].reshape(4) - want).max() < 1e-10

    def test_damped_long_horizon(self):
        # 1e5 steps: the doubled trajectory stays on the step-by-step product
        params = TwoLevelParams(e0=0.2, delta=0.5, epsilon=0.3, gamma=0.01)
        dt = 0.01
        rho0 = DensityMatrix.from_state(QubitState.plus())
        _, rhos = evolve_damped(rho0, params, 1000.0, dt)
        step = strang_reference(params, dt)
        vec = rho0.rho.reshape(4)
        worst = 0.0
        for k in range(1, len(rhos)):
            vec = step @ vec
            if k % 997 == 0 or k == len(rhos) - 1:
                worst = max(worst, np.abs(rhos[k].reshape(4) - vec).max())
        assert worst < 1e-10

    def test_driven_long_horizon(self):
        params = TwoLevelParams(delta=0.1, epsilon=1.0, drive_amp=0.05, drive_freq=2.0)
        dt = 0.005
        reference = midpoint_reference(params, dt, 10_000)
        _, amps = drive_evolve(QubitState.minus(), params, 50.0, dt)
        assert np.abs(amps - np.array([u[:, 0] for u in reference])).max() < 1e-10


class TestConvergenceOrder:
    # the error of the scheme, not the scheme: halving dt must divide the max error by about 4
    def test_driven_error_is_second_order(self):
        params = TwoLevelParams(epsilon=1.1, drive_amp=0.09, drive_freq=2.2)
        dts = (0.08, 0.04)
        fine = dts[-1] / 64  # the same code at dt / 64: its error is 64^2 times smaller
        _, reference = drive_evolve(QubitState.minus(), params, 40.0, fine)
        errors = []
        for dt in dts:
            _, amps = drive_evolve(QubitState.minus(), params, 40.0, dt)
            errors.append(np.abs(amps - reference[::round(dt / fine)]).max())
        assert 1e-4 < errors[0] < 1e-2
        assert 3.9 < errors[0] / errors[1] < 4.1  # max error at dt over that at dt / 2

    @needs_scipy
    def test_damped_error_is_second_order(self):
        params = TwoLevelParams(e0=0.2, delta=0.5, epsilon=0.3, gamma=0.5)
        h = hamiltonian(params)
        # the Liouvillian on row-major vec(rho): vec(a rho b) = kron(a, b.T) vec(rho)
        liouvillian = (-1j * (np.kron(h, np.eye(2)) - np.kron(np.eye(2), h.T))
                       + params.gamma * (np.kron(SIGMA_Z, SIGMA_Z.T) - np.eye(4)))
        rho0 = DensityMatrix.from_state(QubitState(0.6, 0.8j))
        errors = []
        for dt in (0.1, 0.05):
            _, rhos = evolve_damped(rho0, params, 20.0, dt)
            exact, vec = expm(liouvillian * dt), rho0.rho.reshape(4)
            worst = 0.0
            for rho in rhos:  # sample by sample against exp(L k dt) vec(rho0)
                worst = max(worst, np.abs(rho.reshape(4) - vec).max())
                vec = exact @ vec
            errors.append(worst)
        assert 1e-5 < errors[0] < 1e-2
        assert 3.9 < errors[0] / errors[1] < 4.1  # max error at dt over that at dt / 2


def random_matrices(rng, shape):
    return rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))


class TestDriveKernels:
    @settings(max_examples=60, deadline=None)
    @given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4),
           seed=st.integers(0, 2**32 - 1))
    def test_mul_matches_matmul_on_broadcast_stacks(self, shapes, seed):
        rng = np.random.default_rng(seed)
        a, b = (random_matrices(rng, shape) for shape in shapes.input_shapes)
        got = _mul(a, b)
        assert got.shape == shapes.result_shape + (2, 2)
        assert np.abs(got - np.matmul(a, b)).max(initial=0.0) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 70), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_mul_in_place_on_overlapping_slices(self, n, data, seed):
        # the update of one prefix-product pass: out = steps[off:], a view of steps
        off = data.draw(st.integers(1, n - 1))
        steps = random_matrices(np.random.default_rng(seed), (n,))
        before = steps.copy()
        _mul(steps[off:], steps[:-off], out=steps[off:])
        assert np.array_equal(steps[:off], before[:off])
        assert np.abs(steps[off:] - before[off:] @ before[:-off]).max() < 1e-13

    @pytest.mark.parametrize("n", range(1, 71))
    def test_total_product_matches_sequential_product(self, n):
        steps = random_matrices(np.random.default_rng(n), (3, n)) / 2.0
        want = np.broadcast_to(np.eye(2), (3, 2, 2))
        for k in range(n):
            want = steps[:, k] @ want  # later steps on the left
        got = _total_product(steps)
        assert got.shape == (3, 2, 2) and np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [0, 1, 6, 7, 21, 50])
    def test_step_blocks_do_not_change_the_propagator(self, monkeypatch, block, n):
        params = TwoLevelParams(e0=0.3, delta=0.2, epsilon=0.9, drive_amp=0.4, drive_freq=1.7)
        unblocked = drive_propagator(params, n * 0.01, 0.01)
        sizes = []

        def drive_steps(*args):
            n, blocks = _drive_steps(*args)
            return n, (sizes.append(steps.shape[-3]) or steps for steps in blocks)

        monkeypatch.setattr(dynamics, "BLOCK", block)
        monkeypatch.setattr(dynamics, "_drive_steps", drive_steps)
        assert np.abs(drive_propagator(params, n * 0.01, 0.01) - unblocked).max() < 1e-12
        assert sum(sizes) == n and max(sizes, default=block) <= block

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("n", [0, 1, 6, 7, 21, 50])
    def test_blocks_do_not_change_the_trajectories(self, monkeypatch, block, n):
        # 3 and 7 are not powers of two: a damped block that doubles past them must not skip
        # or repeat samples
        driven = TwoLevelParams(e0=0.3, delta=0.2, epsilon=0.9, drive_amp=0.4, drive_freq=1.7)
        damped = TwoLevelParams(e0=0.3, delta=0.2, epsilon=0.9, gamma=0.4)
        rho0 = DensityMatrix.from_state(QubitState.plus())
        runs = (lambda: drive_evolve(QubitState.minus(), driven, n * 0.01, 0.01),
                lambda: evolve_damped(rho0, damped, n * 0.01, 0.01))
        unblocked = [run() for run in runs]  # n + 1 <= BLOCK: one block
        sizes = []

        def running_products(steps):
            sizes.append(len(steps))
            return _running_products(steps)

        monkeypatch.setattr(dynamics, "BLOCK", block)
        monkeypatch.setattr(dynamics, "_running_products", running_products)
        for run, (times, want) in zip(runs, unblocked):
            got_times, got = run()
            assert np.array_equal(got_times, times) and len(got) == len(want) == n + 1
            assert np.abs(got - want).max() < 1e-12
        assert sum(sizes) == n and max(sizes, default=block) <= block

    def test_driven_trajectory_holds_its_output_and_a_few_blocks(self):
        # 1e5 steps: the whole stack of step matrices is 6.4 MB, and scanning it whole took the
        # tracemalloc peak to 14.4 MB
        params = TwoLevelParams(epsilon=1.0, drive_amp=0.05, drive_freq=2.0)
        tracemalloc.start()
        try:
            times, amps = drive_evolve(QubitState.minus(), params, 500.0, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(amps) == 100_001
        block = dynamics.BLOCK * 4 * 16  # bytes of one block of step matrices
        # the times take twice their size while np.arange(n + 1) * dt is formed
        assert peak < amps.nbytes + 2 * times.nbytes + 8 * block, peak

    def test_closed_trajectory_holds_its_output_and_a_few_blocks(self):
        # 1e5 samples at drive_amp = 0: the closed propagators of every sample at once are 6.4 MB
        params = TwoLevelParams(e0=0.3, delta=0.5, epsilon=-0.2)
        tracemalloc.start()
        try:
            times, amps = drive_evolve(QubitState.plus(), params, 1000.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(amps) == 100_001
        block = dynamics.BLOCK * 4 * 16  # bytes of one block of propagators
        assert peak < amps.nbytes + 2 * times.nbytes + 8 * block, peak

    def test_long_pulse_holds_a_few_blocks(self):
        # 3e5 steps of one bias: the partial products every block leaves (an eighth of its
        # steps) would take 4.8 MB if they were all kept to the end
        params = TwoLevelParams(epsilon=1.0, drive_amp=0.05, drive_freq=2.0)
        tracemalloc.start()
        try:
            drive_propagator(params, 1500.0, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dynamics.BLOCK * 4 * 16, peak  # eight blocks of step matrices

    @settings(max_examples=40, deadline=None)
    @given(params=params_strategy,
           biases=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5),
           n=st.integers(0, 70),
           fraction=st.floats(0.05, 0.95))
    def test_batched_propagators_match_per_bias_calls(self, params, biases, n, fraction):
        worst = max(abs(eps) for eps in biases)
        scale = abs(params.e0) + math.hypot(worst, params.delta + params.drive_amp)
        dt = bounded_dt(scale, fraction)
        batched = _drive_propagators(params, n * dt, dt, biases)
        assert batched.shape == (len(biases), 2, 2)
        for eps, got in zip(biases, batched):
            single = TwoLevelParams(e0=params.e0, delta=params.delta, epsilon=eps,
                                    drive_amp=params.drive_amp, drive_freq=params.drive_freq)
            assert np.abs(got - drive_propagator(single, n * dt, dt)).max() < 1e-12

    def test_batched_step_check_uses_the_largest_bias(self):
        params = TwoLevelParams(drive_amp=0.05, drive_freq=2.0)
        _drive_propagators(params, 1.0, 0.01, [0.5, -9.0])  # 0.01 * hypot(9, 0.05) < 0.1
        with pytest.raises(StepTooLarge):
            _drive_propagators(params, 1.0, 0.01, [0.5, -11.0])

    @pytest.mark.parametrize("dt", [0.1, 0.100001, 0.1000000001, 0.1 * (1.0 + 2.0**-52)])
    def test_step_over_the_bound_never_reads_as_the_bound(self, dt):
        # dt * scale is printed so that a value above the limit reads above it
        with pytest.raises(StepTooLarge, match="must stay below 0.1; lower dt to") as excinfo:
            _drive_propagators(TwoLevelParams(drive_amp=1.0, drive_freq=2.0), 1.0, dt, [0.0])
        shown = str(excinfo.value).split(" = ")[1].split()[0]
        assert float(shown) == dt or float(shown) > 0.1


class TestStepCount:
    def test_rounds_to_nearest(self):
        assert _n_steps(1.0, 0.3) == 3
        assert _n_steps(0.0, 0.1) == 0

    @pytest.mark.parametrize("t, dt", [(-1.0, 0.1), (1.0, 0.0), (1e9, 1e-300), (1e9, 1e-3)])
    def test_rejects_negative_infinite_and_capped_counts(self, t, dt):
        with pytest.raises(ValueError):
            _n_steps(t, dt)

    def test_cap_is_inclusive(self):
        assert _n_steps(MAX_STEPS * 0.01, 0.01) == MAX_STEPS
