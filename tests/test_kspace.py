import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqubit.kspace import GapParams, texture_field


def d_z(k, params):
    """The gap amplitude delta*(k_x + i*chi*k_y)/k_F at one momentum: texture_field's in-plane
    pair."""
    m_x, m_y, _ = texture_field(*k, params)
    return complex(m_x, m_y)


class TestGapParams:
    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            GapParams(-0.1, 1.0, 1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            GapParams(1.0, mu, 1)

    def test_rejects_bad_chi(self):
        with pytest.raises(ValueError):
            GapParams(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            GapParams(1.0, 1.0, 0)

    def test_accepts_zero_delta(self):
        # constructor is total in delta; failures happen at normalization sites
        params = GapParams(0.0, 1.0, -1)
        assert not params.is_gapped()

    def test_k_fermi(self):
        # the in-plane pair is divided by k_F = sqrt(mu) for mu > 0 and by nothing below
        assert d_z((1.0, 0.0), GapParams(1.0, 4.0, 1)) == 0.5
        assert d_z((1.0, 0.0), GapParams(1.0, -1.0, 1)) == 1.0

    def test_gapped_classification(self):
        assert GapParams(1.0, 1.0, 1).is_gapped()
        assert GapParams(0.0, -1.0, 1).is_gapped()
        assert GapParams(1.0, -2.0, 1).is_gapped()
        assert not GapParams(0.0, 1.0, 1).is_gapped()
        assert not GapParams(1.0, 0.0, 1).is_gapped()


class TestGapAmplitude:
    def test_on_axis_point(self):
        assert d_z((1.0, 0.0), GapParams(1.0, 1.0, 1)) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_pure_imaginary_by_symmetry(self):
        assert d_z((0.0, 1.0), GapParams(1.0, 1.0, 1)) == pytest.approx(0.0 + 1.0j, abs=1e-15)

    def test_hand_evaluated_point(self):
        # 0.5 * (1 - 1i) / 1
        value = d_z((1.0, 1.0), GapParams(0.5, 1.0, -1))
        assert value == pytest.approx(0.5 - 0.5j, abs=1e-15)


def m_vector(k, params):
    """The texture at one momentum as a float triple."""
    return tuple(map(float, texture_field(*k, params)))


def m_hat(k, params):
    m = np.array(m_vector(k, params))
    return m / np.linalg.norm(m)


class TestDispersion:
    # m_z is the band energy eps_k = k^2 - mu
    def test_fermi_surface(self):
        assert m_vector((1.0, 0.0), GapParams(1.0, 1.0, 1))[2] == 0.0

    def test_band_bottom(self):
        assert m_vector((0.0, 0.0), GapParams(1.0, 1.0, 1))[2] == -1.0

    def test_arithmetic(self):
        assert m_vector((2.0, 0.0), GapParams(1.0, 1.0, 1))[2] == 3.0


class TestTexture:
    def test_origin_points_south(self):
        assert tuple(m_hat((0.0, 0.0), GapParams(1.0, 1.0, 1))) == (0.0, 0.0, -1.0)

    def test_large_momentum_points_north(self):
        assert m_hat((100.0, 0.0), GapParams(1.0, 1.0, 1))[2] > 0.99

    def test_fermi_point_is_equatorial(self):
        mx, my, mz = m_hat((1.0, 0.0), GapParams(1.0, 1.0, 1))
        assert mx == pytest.approx(1.0, abs=1e-15)
        assert my == 0.0
        assert mz == 0.0

    def test_unnormalized_convention_below_zero_mu(self):
        mx, _, mz = m_vector((1.0, 0.0), GapParams(2.0, -1.0, 1))
        assert mx == 2.0  # no 1/k_F division
        assert mz == 2.0

    def test_in_plane_pair_is_d_z(self):
        # 0.7 * (0.3 + 1.1i) / sqrt(2): chi = -1 turns k_y = -1.1 into +1.1
        mx, my, mz = m_vector((0.3, -1.1), GapParams(0.7, 2.0, -1))
        assert mx == pytest.approx(0.21 / math.sqrt(2.0), abs=1e-15)
        assert my == pytest.approx(0.77 / math.sqrt(2.0), abs=1e-15)
        assert mz == pytest.approx(0.09 + 1.21 - 2.0, abs=1e-15)

    def test_unit_norm_random_momenta(self):
        rng = np.random.default_rng(12)
        k = rng.uniform(-6.0, 6.0, size=(10_000, 2))
        deltas = rng.uniform(1e-6, 2.0, size=10_000)
        for i in range(0, 10_000, 17):
            m = m_hat(k[i], GapParams(deltas[i], 1.0, 1))
            assert abs(np.linalg.norm(m) - 1.0) < 1e-12
        # full bulk check on the broadcast components
        m = np.stack(texture_field(k[:, 0], k[:, 1], GapParams(0.7, 1.0, 1)), axis=-1)
        unit = m / np.linalg.norm(m, axis=-1, keepdims=True)
        assert np.abs(np.linalg.norm(unit, axis=-1) - 1.0).max() < 1e-12

    def test_asymptotic_north(self):
        for params in (GapParams(1.0, 1.0, 1), GapParams(2.5, 3.0, -1)):
            radius = 10.0 * max(math.sqrt(max(params.mu, 0.0)), params.delta)
            for phi in np.linspace(0.0, 2.0 * math.pi, 13):
                m = m_hat((radius * math.cos(phi), radius * math.sin(phi)), params)
                assert m[2] > 0.9

    @settings(max_examples=200, deadline=None)
    @given(
        kx=st.floats(-10.0, 10.0),
        ky=st.floats(-10.0, 10.0),
        delta=st.floats(0.01, 5.0),
        mu=st.floats(-3.0, 4.0),
    )
    def test_chirality_conjugation(self, kx, ky, delta, mu):
        plus = m_vector((kx, ky), GapParams(delta, mu, +1))
        minus = m_vector((kx, ky), GapParams(delta, mu, -1))
        assert minus == (plus[0], -plus[1], plus[2])
