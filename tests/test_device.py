import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqubit.device import (
    GAUSS_PER_TESLA,
    GeometryInfeasible,
    MaterialParams,
    gauss_to_tesla,
    max_pair_number,
    max_volume,
    sizing_report,
    zeeman_splitting,
)

DEFAULTS = MaterialParams()


class TestMaterialParams:
    def test_defaults_are_flagship_numbers(self):
        assert DEFAULTS.gap_ev == 5.0e-4
        assert DEFAULTS.mass_ratio == 4.0
        assert DEFAULTS.cell_volume_a3 == 100.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MaterialParams(gap_ev=0.0)
        with pytest.raises(ValueError):
            MaterialParams(mass_ratio=-1.0)

    def test_film_thickness_cap(self):
        with pytest.raises(ValueError):
            MaterialParams(film_thickness_a=1000.0)


class TestZeemanSplitting:
    def test_one_gauss_heavy_mass(self):
        eps = zeeman_splitting(1.0, DEFAULTS)
        assert eps == pytest.approx(1.447e-9, rel=1e-3)
        assert 1e-9 < eps < 2e-9

    def test_linearity(self):
        full = zeeman_splitting(1.0, DEFAULTS)
        half = zeeman_splitting(0.5, DEFAULTS)
        assert half == pytest.approx(full / 2.0, rel=1e-12)

    def test_bare_mass(self):
        eps = zeeman_splitting(1.0, MaterialParams(mass_ratio=1.0))
        assert eps == pytest.approx(5.7883818e-9, rel=1e-9)

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValueError):
            zeeman_splitting(0.0, DEFAULTS)

    @settings(max_examples=100, deadline=None)
    @given(h=st.floats(1e-6, 1e4))
    def test_field_conversion_round_trip(self, h):
        assert gauss_to_tesla(h) * GAUSS_PER_TESLA == pytest.approx(h, rel=1e-15)


class TestPairBudget:
    def test_flagship_order_of_magnitude(self):
        n = max_pair_number(DEFAULTS, 1.45e-9)
        assert 1e5 < n < 1e7

    def test_single_pair_at_threshold(self):
        assert max_pair_number(DEFAULTS, DEFAULTS.gap_ev) == 1

    def test_exact_power_of_ten(self):
        assert max_pair_number(MaterialParams(gap_ev=1e-3), 1e-9) == 1_000_000

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            max_pair_number(DEFAULTS, 0.0)

    def test_rejects_overflowing_budget(self):
        with pytest.raises(ValueError, match="pair budget .* overflows"):
            max_pair_number(DEFAULTS, 5e-324)

    @settings(max_examples=100, deadline=None)
    @given(
        eps_lo=st.floats(1e-10, 1e-4),
        factor=st.floats(1.0, 1e3),
    )
    def test_monotone_nonincreasing_in_eps(self, eps_lo, factor):
        assert max_pair_number(DEFAULTS, eps_lo * factor) <= max_pair_number(DEFAULTS, eps_lo)


class TestGeometry:
    def test_flagship_slab(self):
        geo = max_volume(DEFAULTS, 1_000_000)
        assert geo.volume_a3 == 1e8
        assert geo.lx_a == pytest.approx(1000.0)
        assert geo.lz_a == 100.0
        assert geo.within_lambda  # 1000 A < 2000 A

    def test_single_pair(self):
        geo = max_volume(MaterialParams(film_thickness_a=4.0), 1)
        assert geo.volume_a3 == DEFAULTS.cell_volume_a3
        assert geo.lx_a == pytest.approx(5.0)

    def test_infeasible_when_thinner_than_cell(self):
        params = MaterialParams(cell_volume_a3=1e6, film_thickness_a=999.0)
        with pytest.raises(GeometryInfeasible):
            max_volume(params, 1)

    def test_rejects_no_pairs(self):
        with pytest.raises(ValueError, match="n_pairs must be >= 1, got 0"):
            max_volume(DEFAULTS, 0)

    def test_lambda_flag_turns_false(self):
        geo = max_volume(MaterialParams(lambda_l_a=500.0), 1_000_000)
        assert not geo.within_lambda


class TestSizingChain:
    def test_reproduces_flagship_estimates(self):
        report = sizing_report(DEFAULTS, 1.0)
        assert 1e-9 <= report.eps_ev <= 2e-9
        assert 1e5 <= report.n_pairs <= 1e7
        assert 1e7 <= report.geometry.volume_a3 <= 1e9
        assert report.geometry.within_lambda
        # slab within a factor two of 1000 x 1000 x 100 A
        assert 500.0 <= report.geometry.lx_a <= 2000.0
        assert report.geometry.lz_a == 100.0
