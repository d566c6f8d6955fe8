import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralqubit import chirality
from chiralqubit.chirality import (
    ANTIPODAL_TOL,
    DegeneratePlaquette,
    GaplessTexture,
    NotConverged,
    chern_plaquette,
    chern_quadrature,
    cross_validate,
    default_k_max,
)
from chiralqubit.kspace import GapParams, texture_field


class TestQuadrature:
    def test_base_state_plus(self):
        result = chern_quadrature(GapParams(1.0, 1.0, +1), 8.0, 256)
        assert result.n_integer == +1
        assert result.residual < 1e-3

    def test_base_state_minus(self):
        result = chern_quadrature(GapParams(1.0, 1.0, -1), 8.0, 256)
        assert result.n_integer == -1

    def test_no_fermi_surface_is_trivial(self):
        result = chern_quadrature(GapParams(1.0, -1.0, +1), 8.0, 256)
        assert result.n_integer == 0

    def test_not_converged_carries_result(self):
        # in-plane scale delta/k_F = 7 puts the texture core far under the mesh
        with pytest.raises(NotConverged) as excinfo:
            chern_quadrature(GapParams(5.0, 0.5, +1), 40.0, 64)
        assert excinfo.value.result.grid_size == 64
        assert excinfo.value.result.residual >= 1e-3

    def test_rejects_small_k_max(self):
        with pytest.raises(ValueError):
            chern_quadrature(GapParams(1.0, 1.0, +1), 2.0, 256)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            chern_quadrature(GapParams(1.0, 1.0, +1), 8.0, 16)

    @pytest.mark.parametrize("estimator", [chern_quadrature, chern_plaquette])
    def test_rejects_grid_above_cap_before_meshing(self, estimator, monkeypatch):
        def no_mesh(*args):
            raise AssertionError("a grid above the cap was built")

        monkeypatch.setattr(chirality, "_mesh", no_mesh)
        with pytest.raises(ValueError, match=f"\\[32, {chirality.MAX_GRID}\\]"):
            estimator(GapParams(1.0, 1.0, +1), 8.0, chirality.MAX_GRID + 1)
        chirality._check_inputs(GapParams(1.0, 1.0, +1), 8.0, chirality.MAX_GRID)


class TestPlaquette:
    def test_exact_quantization(self):
        result = chern_plaquette(GapParams(0.5, 1.0, +1), 8.0, 128)
        assert result.n_integer == +1
        assert result.residual < 1e-6

    def test_independent_of_gap_scale(self):
        for delta in (0.1, 0.5, 1.0, 2.0, 5.0):
            params = GapParams(delta, 1.0, +1)
            result = chern_plaquette(params, default_k_max(params), 256)
            assert result.n_integer == +1, delta
            assert result.residual < 1e-6

    def test_transition_point_refused(self):
        with pytest.raises(GaplessTexture):
            chern_plaquette(GapParams(1.0, 0.0, +1), 8.0, 128)

    def test_gapless_refused(self):
        with pytest.raises(GaplessTexture):
            chern_plaquette(GapParams(0.0, 1.0, +1), 8.0, 128)
        with pytest.raises(GaplessTexture):
            chern_quadrature(GapParams(0.0, 1.0, +1), 8.0, 128)

    def test_degenerate_plaquette_detected(self):
        # mu tuned so the innermost corners sit antipodally on the equator:
        # node spacing h = 0.25, corner (h/2, h/2) has k^2 = mu exactly
        h = 2.0 * 8.0 / 64
        mu = (h / 2.0) ** 2 * 2.0
        with pytest.raises(DegeneratePlaquette):
            chern_plaquette(GapParams(1.0, mu, +1), 8.0, 64)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_degenerate_edge_detected(self, monkeypatch, axis):
        # m_hat = (f(k_x), f(k_y), +-1) is swap symmetric (m_x and m_y trade places) and sits
        # on the z axis only where f vanishes in both momenta: f(k) = 0 at k = x[39], x[40]
        # and c.  m_z jumps from -z to +z where k_x + k_y passes c + (x[39] + x[40]) / 2,
        # so the only antipodal corner pairs are the edge from (x[39], c) to (x[40], c)
        # along k_x and its swap image along k_y.  With c = x[48] the octant (column >= row) holds the
        # edge along k_x, with c = x[34] the edge along k_y.  The whole quadrant is one
        # block, which also checks the swap image; one-row blocks check the octant only
        x, _ = chirality._mesh(8.0, 64)
        c = x[48] if axis == 0 else x[34]
        threshold = c + (x[39] + x[40]) / 2.0

        def f(k):
            return (k - x[39]) * (k - x[40]) * (k - c)

        def jump(kx, ky, params):
            return f(kx), f(ky), np.where(kx + ky > threshold, 1.0, -1.0)

        monkeypatch.setattr(chirality, "texture_field", jump)
        for block in (chirality.BLOCK, 1):
            with mock.patch.object(chirality, "BLOCK", block), pytest.raises(DegeneratePlaquette):
                chern_plaquette(GapParams(1.0, 1.0, +1), 8.0, 64)

    @pytest.mark.parametrize("diagonal", ["ac", "bd"])
    def test_antipodal_diagonal_detected(self, monkeypatch, diagonal):
        # m_hat = (f(k_x), f(k_y), g) with f = +-1 alternating from node to node: the in-plane
        # parts of the diagonal corners of every cell are opposite and those of its edges
        # orthogonal.  g = 5, but +1 and -1 at the two corners of one diagonal of cell
        # (40, 42) and at their swap images, so the one antipodal pair in the octant is that
        # diagonal: a-c, or b-d (a = (i, j), b = (i + 1, j), c = (i + 1, j + 1), d = (i, j + 1))
        x, h = chirality._mesh(8.0, 64)
        i, j = 40, 42
        if diagonal == "ac":
            plus, minus = (x[i], x[j]), (x[i + 1], x[j + 1])
        else:
            plus, minus = (x[i + 1], x[j]), (x[i], x[j + 1])

        def f(k):
            return np.where(np.round((k - x[0]) / h) % 2 == 0, 1.0, -1.0)

        def texture(kx, ky, params):
            g = 5.0 + 0.0 * (kx + ky)
            for (p, q), value in ((plus, 1.0), (minus, -1.0)):
                g = np.where((kx == p) & (ky == q) | (kx == q) & (ky == p), value, g)
            return f(kx), f(ky), g

        monkeypatch.setattr(chirality, "texture_field", texture)
        for block in (chirality.BLOCK, 1):
            with mock.patch.object(chirality, "BLOCK", block), pytest.raises(DegeneratePlaquette):
                chern_plaquette(GapParams(1.0, 1.0, +1), 8.0, 64)

    def test_quantization_random_gapped_parameters(self):
        rng = np.random.default_rng(2024)
        count = 0
        while count < 20:
            delta = rng.uniform(0.1, 3.0)
            mu = rng.uniform(-2.0, 4.0)
            if abs(mu) < 0.05:
                continue
            chi = +1 if rng.random() < 0.5 else -1
            params = GapParams(delta, mu, chi)
            result = chern_plaquette(params, default_k_max(params), 256)
            assert result.residual < 1e-6, (delta, mu, chi)
            count += 1


class TestSignAndScale:
    def test_sign_antisymmetry(self):
        for delta, mu in ((0.5, 1.0), (1.0, 2.0), (2.0, 0.5), (1.0, -1.0)):
            k_max = default_k_max(GapParams(delta, mu, +1))
            plus = chern_plaquette(GapParams(delta, mu, +1), k_max, 256)
            minus = chern_plaquette(GapParams(delta, mu, -1), k_max, 256)
            assert plus.n_integer == -minus.n_integer

    def test_scale_invariance(self):
        base = cross_validate(GapParams(1.0, 1.0, +1)).n_integer
        for c in (0.1, 10.0):
            assert cross_validate(GapParams(c, 1.0, +1)).n_integer == base

    def test_transition_across_mu(self):
        for chi in (+1, -1):
            for mu in (-2.0, -0.5, 0.5, 2.0):
                params = GapParams(1.0, mu, chi)
                result = chern_plaquette(params, default_k_max(params), 256)
                expected = chi if mu > 0 else 0
                assert result.n_integer == expected, (mu, chi)

    def test_method_agreement_matched_grids(self):
        cases = [
            (GapParams(1.0, 1.0, +1), 8.0, 128),
            (GapParams(1.0, 1.0, -1), 8.0, 256),
            (GapParams(0.5, 2.0, +1), 12.0, 256),
        ]
        for params, k_max, n_grid in cases:
            quad = chern_quadrature(params, k_max, n_grid)
            plaq = chern_plaquette(params, k_max, n_grid)
            assert quad.n_integer == plaq.n_integer
            assert abs(quad.raw - plaq.raw) < 1e-2


class TestCrossValidate:
    def test_base_agreement(self):
        report = cross_validate(GapParams(1.0, 1.0, +1))
        assert report.n_integer == +1
        assert report.quadrature.n_integer == report.plaquette.n_integer == +1

    def test_trivial_phase(self):
        report = cross_validate(GapParams(1.0, -0.5, +1))
        assert report.n_integer == 0

    def test_small_gap_large_mu(self):
        params = GapParams(0.2, 4.0, -1)
        report = cross_validate(params)
        # independent high-resolution run of the raw texture as oracle
        oracle = chern_plaquette(params, default_k_max(params), 512)
        assert report.n_integer == oracle.n_integer == -1

    def test_extreme_gap_scale(self):
        report = cross_validate(GapParams(5.0, 0.5, +1))
        assert report.n_integer == +1

    def test_gapless_refused(self):
        with pytest.raises(GaplessTexture):
            cross_validate(GapParams(0.0, 1.0, +1))

    def test_explicit_cutoff_honored(self):
        report = cross_validate(GapParams(1.0, 1.0, +1), k_max=10.0, n_grid_start=256)
        assert report.quadrature.k_max == 10.0
        assert report.n_integer == +1

    def test_start_grid_above_cap_rejected(self):
        with pytest.raises(ValueError, match=r"n_grid must be in \[32, 1024\], got 2048"):
            cross_validate(GapParams(1.0, 1.0, +1), n_grid_start=2048)

    def test_escalation_ends_at_the_cap(self, monkeypatch):
        # a start that is not 1024 / 2^k doubles past the cap, so the cap is the last level
        levels, mesh = [], chirality._mesh
        monkeypatch.setattr(chirality, "_mesh", lambda k_max, n: levels.append(n) or mesh(k_max, n))
        report = cross_validate(GapParams(0.3, 600.0, +1), n_grid_start=600)
        assert levels == [600, 1024]
        assert report.n_integer == +1 and report.quadrature.grid_size == 1024
        with pytest.raises(NotConverged, match="unresolved at n_grid=1024"):
            cross_validate(GapParams(0.001, 100.0, +1), k_max=80.0, n_grid_start=600)

    def test_residual_limit_judges_the_plaquette_too(self, monkeypatch):
        # the discrete degree sits on an integer to rounding on any mesh, so only a plaquette
        # sum moved off it shows that the second result of a level is judged as well
        kernel = chirality._plaquette_sum
        monkeypatch.setattr(chirality, "_plaquette_sum",
                            lambda *args: kernel(*args) + 0.4 * math.pi)
        with pytest.raises(NotConverged) as excinfo:
            cross_validate(GapParams(1.0, 1.0, +1), n_grid_start=chirality.MAX_GRID)
        result = excinfo.value.result
        assert (result.method, result.grid_size) == ("plaquette", chirality.MAX_GRID)
        assert abs(result.residual - 0.1) < 1e-9


_trapezoid = getattr(np, "trapezoid", None) or getattr(np, "trapz")


# Reference: the estimators on one stacked (n, n, 3) texture with np.cross and
# einsum, as they were before the kernels moved to component arrays.
def _reference_solid_angle(a, b, c):
    num = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("...i,...i->...", a, b)
        + np.einsum("...i,...i->...", b, c)
        + np.einsum("...i,...i->...", a, c)
    )
    return 2.0 * np.arctan2(num, den)


def reference_raw(method, params, k_max, n_grid):
    """Raw value of one estimator, and the smallest corner dot product of the mesh."""
    x, h = chirality._mesh(k_max, n_grid)
    kx, ky = np.meshgrid(x, x, indexing="ij")
    m = np.stack(texture_field(kx, ky, params), axis=-1)
    norm = np.linalg.norm(m, axis=-1, keepdims=True)
    unit = m / norm

    a, b, c, d = unit[:-1, :-1], unit[1:, :-1], unit[1:, 1:], unit[:-1, 1:]
    worst = min(
        np.einsum("...i,...i->...", p, q).min()
        for p, q in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d))
    )
    if method == "quadrature":
        dxm = np.gradient(m, h, axis=0, edge_order=2)
        dym = np.gradient(m, h, axis=1, edge_order=2)
        dxu = (dxm - unit * np.einsum("ijk,ijk->ij", unit, dxm)[..., None]) / norm
        dyu = (dym - unit * np.einsum("ijk,ijk->ij", unit, dym)[..., None]) / norm
        integrand = np.einsum("ijk,ijk->ij", unit, np.cross(dxu, dyu))
        total = _trapezoid(_trapezoid(integrand, x, axis=1), x, axis=0)
    else:
        total = _reference_solid_angle(a, b, c).sum() + _reference_solid_angle(a, c, d).sum()

    loop = np.concatenate(
        [unit[:-1, 0], unit[-1, :-1], unit[::-1, -1][:-1], unit[0, ::-1][:-1]], axis=0
    )
    pole = np.broadcast_to([0.0, 0.0, 1.0], loop.shape)
    total += _reference_solid_angle(loop, pole, np.roll(loop, -1, axis=0)).sum()
    return -total / (4.0 * math.pi), worst


# Reference: the quadrature as it was before it used the separable texture:
# six 2-D gradients and the unit-normalization chain rule on component arrays.
def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _triple(a, b, c):
    cross = (b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0])
    return _dot(a, cross)


def six_gradient_quadrature_raw(params, k_max, n_grid):
    x, h = chirality._mesh(k_max, n_grid)
    m = np.broadcast_arrays(*texture_field(x[:, None], x[None, :], params))
    norm = np.sqrt(_dot(m, m))
    unit = tuple(c / norm for c in m)

    def d_unit(axis):
        # d m_hat = (dm - m_hat (m_hat . dm)) / |m|
        dm = [np.gradient(c, h, axis=axis, edge_order=2) for c in m]
        along = _dot(unit, dm)
        return tuple((d - u * along) / norm for u, d in zip(unit, dm))

    integrand = _triple(unit, d_unit(0), d_unit(1))
    total = _trapezoid(_trapezoid(integrand, x, axis=1), x, axis=0)
    loop = tuple(
        np.concatenate([u[:-1, 0], u[-1, :-1], u[::-1, -1][:-1], u[0, ::-1][:-1]]) for u in unit
    )
    nxt = tuple(np.roll(v, -1) for v in loop)
    cap = 2.0 * np.arctan2(
        _triple(loop, (0.0, 0.0, 1.0), nxt), 1.0 + loop[2] + nxt[2] + _dot(loop, nxt)
    )
    return -(total + cap.sum()) / (4.0 * math.pi)


LEVEL_KERNELS = ["_mesh", "_lines", "_cap_closure", "_quadrature_sum", "_plaquette_sum"]
SYMMETRY_PARAMS = [
    GapParams(1.0, 1.0, +1), GapParams(0.3, 40.0, -1), GapParams(2.0, -3.0, +1),
    GapParams(0.05, -0.5, -1),
]


class TestMirrorSymmetry:
    """The symmetry the quadrant walk of both estimators relies on."""

    @pytest.mark.parametrize("n_grid", [32, 33, 64, 65])
    def test_mesh_is_exactly_mirrored(self, n_grid):
        x, h = chirality._mesh(7.3, n_grid)
        assert np.array_equal(x[::-1], -x)
        assert h == 2.0 * 7.3 / n_grid

    @pytest.mark.parametrize("params", SYMMETRY_PARAMS)
    def test_texture_reflects_bitwise(self, params):
        k = np.random.default_rng(7).uniform(-9.0, 9.0, 64)
        kx, ky = k[:, None], k[None, :]
        mx, my, mz = texture_field(kx, ky, params)
        for got, want in ((texture_field(-kx, ky, params), (-mx, my, mz)),
                          (texture_field(kx, -ky, params), (mx, -my, mz))):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_cap_closure_once_per_level(self, monkeypatch):
        # every level builds its mesh, lines and cap closure once, shared by its estimators, and
        # runs the quadrature first: a failed quadrature level runs no plaquette
        calls = []
        for name in LEVEL_KERNELS:
            kernel = getattr(chirality, name)
            monkeypatch.setattr(chirality, name, lambda *args, name=name, kernel=kernel:
                                calls.append(name) or kernel(*args))
        chern = GapParams(1.0, 1.0, +1)  # configs/chern.cfg
        runs = [
            # (mesh, lines, cap closure), quadrature sums, plaquette sums
            (lambda: cross_validate(chern), 1, 1, 1),
            # 128^2 does not converge at mu = 40 (test_cross_validate_converges), 256^2 does
            (lambda: cross_validate(GapParams(0.3, 40.0, +1)), 2, 2, 1),
            # the quadrature is unresolved at every level (TestResolutionGuard)
            (lambda: cross_validate(TestResolutionGuard.NARROW, k_max=80.0), 4, 4, 0),
            (lambda: chern_quadrature(chern, default_k_max(chern), 256), 1, 1, 0),
            (lambda: chern_plaquette(chern, default_k_max(chern), 256), 1, 0, 1),
        ]
        for run, levels, quadratures, plaquettes in runs:
            calls.clear()
            try:
                run()
            except NotConverged:  # the narrow input alone fails, at its last level
                assert levels == 4
            assert [calls.count(name) for name in LEVEL_KERNELS] == [
                levels, levels, levels, quadratures, plaquettes]


class TestSwapSymmetry:
    """The symmetry the octant walk of both estimators relies on."""

    @pytest.mark.parametrize("params", SYMMETRY_PARAMS)
    def test_texture_swaps_bitwise(self, params):
        # on random momenta and on the mesh nodes: m(k_y, k_x) = (m_y, m_x, m_z) for chi = +1
        # and (-m_y, -m_x, m_z) for chi = -1, a reflection of the sphere either way
        rng = np.random.default_rng(11)
        for k in (rng.uniform(-9.0, 9.0, 64), chirality._mesh(7.3, 65)[0]):
            mx, my, mz = np.broadcast_arrays(*texture_field(k[:, None], k[None, :], params))
            swapped = np.broadcast_arrays(*texture_field(k[None, :], k[:, None], params))
            for got, want in zip(swapped, (params.chi * my, params.chi * mx, mz)):
                assert np.array_equal(got, want)


class TestSharedLines:
    """The mesh lines built once per level are the arrays the guard and the plaquette need."""

    @pytest.mark.parametrize("params", SYMMETRY_PARAMS)
    @pytest.mark.parametrize("n_grid", [32, 33, 64, 65])
    def test_lines_are_each_sums_lines(self, params, n_grid):
        x, _ = chirality._mesh(7.3, n_grid)
        lines = chirality._lines(params, x)
        # the guard's lines through x[mid] on the whole mesh, from node mid - 1 on
        mid = n_grid // 2
        mx, _, mz_x = texture_field(x, x[mid], params)
        _, my, mz_y = texture_field(x[mid], x, params)
        assert np.array_equal(lines, np.stack((mx, my, mz_x, mz_y))[:, mid - 1:])
        # the plaquette's lines through the quadrant corner x[start] on x[start:]; for odd
        # n_grid they start one node later
        xq = x[(n_grid - 1) // 2:]
        mx, _, mz_x = texture_field(xq, xq[0], params)
        _, my, mz_y = texture_field(xq[0], xq, params)
        assert np.array_equal(lines[:, n_grid % 2:], np.stack((mx, my, mz_x, mz_y)))


class TestOverflowBound:
    # the largest texture norm M that _check_inputs lets through keeps 12 M^3 finite
    @pytest.mark.parametrize("params, k_max", [
        (GapParams(1.0, 1.0, +1), 1e51),  # M ~ 2 k_max^2
        (GapParams(1.0, -1e102, +1), 8.0),  # M ~ |mu|
        (GapParams(1.0, 1e-200, -1), 4.0),  # M ~ sqrt(2) p k_max, p = delta / sqrt(mu)
    ])
    def test_largest_meshes_compute_without_overflow(self, params, k_max):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for estimator in (chern_quadrature, chern_plaquette):
                try:
                    estimator(params, k_max, 32)
                except (NotConverged, DegeneratePlaquette):
                    pass  # a coarse or degenerate mesh, but every value finite

    @pytest.mark.parametrize("params, k_max", [
        (GapParams(1.0, 1.0, +1), 2e51),
        (GapParams(1.0, -3e102, +1), 8.0),
        (GapParams(1.0, 1e-210, -1), 4.0),
        (GapParams(1.0, 1.0, +1), 1e308),
    ])
    def test_beyond_the_bound_is_rejected_before_any_kernel(self, params, k_max):
        with mock.patch.object(chirality, "_mesh", side_effect=AssertionError("mesh built")):
            for estimator in (chern_quadrature, chern_plaquette):
                with pytest.raises(ValueError, match="the texture overflows"):
                    estimator(params, k_max, 32)


class TestUnderflowBound:
    # on an odd grid the node at k = 0 has |m| = |mu|, and the quadrature divides by |m|^3:
    # the smallest |mu| that _check_inputs lets through keeps |mu|^3 a normal float
    SMALLEST = sys.float_info.min ** (1.0 / 3.0)

    @pytest.mark.parametrize("mu", [SMALLEST, -SMALLEST])
    def test_smallest_mu_computes_without_underflow(self, mu):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for estimator in (chern_quadrature, chern_plaquette):
                try:
                    estimator(GapParams(1.0, mu, +1), 8.0, 33)
                except (NotConverged, DegeneratePlaquette):
                    pass  # an unresolved core at k = 0, but every value finite

    @pytest.mark.parametrize("params", [
        GapParams(1.0, 1e-150, +1), GapParams(1.0, -1e-150, +1),
        GapParams(1e-300, 1e-300, +1), GapParams(1.0, -5e-324, -1),
    ])
    def test_below_the_bound_is_rejected_before_any_kernel(self, params):
        with mock.patch.object(chirality, "_mesh", side_effect=AssertionError("mesh built")):
            for estimator in (chern_quadrature, chern_plaquette):
                with pytest.raises(ValueError, match="the texture underflows"):
                    estimator(params, 8.0, 33)

    def test_even_grids_sample_no_node_at_the_origin(self):
        # their nodes sit half a cell off k = 0, so the same |mu| is no bound there
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert chern_plaquette(GapParams(1.0, -1e-150, +1), 8.0, 32).n_integer == 0


class TestDegrees:
    """The degree of this texture is chi or 0: a level whose raw value is not finite or rounds
    outside {-1, 0, +1} reports no integer, whatever its residual."""

    @pytest.mark.parametrize("shift", [-4.0 * math.pi, 12.0 * math.pi, math.inf, math.nan],
                             ids=["raw-2", "raw-minus-2", "inf", "nan"])
    def test_raw_value_that_is_no_degree_not_converged(self, monkeypatch, shift):
        level_sum = chirality._quadrature_sum
        monkeypatch.setattr(chirality, "_quadrature_sum", lambda *args: level_sum(*args) + shift)
        with pytest.raises(NotConverged, match="at n_grid=128 rounds to no degree") as excinfo:
            chern_quadrature(GapParams(1.0, 1.0, +1), 8.0, 128)
        assert not abs(excinfo.value.result.raw) < 1.5

    def test_degrees_of_both_chiralities_pass(self):
        for chi, mu, degree in ((+1, 1.0, 1), (-1, 1.0, -1), (+1, -1.0, 0)):
            assert chern_quadrature(GapParams(1.0, mu, chi), 8.0, 128).n_integer == degree


class TestResolutionGuard:
    """A quadrature level fails when neighbouring nodes of its k_x line are >= 90 degrees apart."""

    # gap 1e-3 at mu = 100 and k_max = 80: across the Fermi circle m_hat turns by almost
    # 180 degrees between two neighbouring nodes of every grid up to 1024^2
    NARROW = GapParams(0.001, 100.0, +1)

    def test_unresolved_quadrature_not_converged(self):
        # the residual alone would report N = 0 (raw 3e-7) for chi = +1, mu > 0
        with pytest.raises(NotConverged, match="unresolved at n_grid=128") as excinfo:
            chern_quadrature(self.NARROW, 80.0, 128)
        result = excinfo.value.result
        assert (result.n_integer, result.grid_size, result.method) == (0, 128, "quadrature")
        assert result.residual < chirality.RESIDUAL_LIMIT
        # the plaquette resolves the same mesh
        assert chern_plaquette(self.NARROW, 80.0, 128).n_integer == +1

    def test_cross_validate_fails_every_level(self):
        # the plaquette reports N = 1 at every grid while the quadrature is unresolved, so
        # the levels fail instead of disagreeing
        with pytest.raises(NotConverged, match="unresolved at n_grid=1024"):
            cross_validate(self.NARROW, k_max=80.0)

    @pytest.mark.parametrize("n_grid", [128, 256, 512, 1024])
    def test_silent_on_chern_cfg(self, n_grid):
        # configs/chern.cfg (gap 1, mu 1, chi +1, automatic cutoff): every level that
        # cross_validate may try passes the guard and converges where it starts
        report = cross_validate(GapParams(1.0, 1.0, +1), n_grid_start=n_grid)
        assert report.quadrature.grid_size == n_grid


# the default block and one that splits the octant into several blocks, most with a
# shorter last block, for n_grid 32 to 256
BLOCKS = [chirality.BLOCK, 100]


class TestComponentKernels:
    @settings(max_examples=80, deadline=None)
    @given(
        delta=st.floats(0.01, 5.0),
        mu=st.floats(-50.0, 50.0).filter(lambda mu: abs(mu) >= 0.01),
        chi=st.sampled_from([+1, -1]),
        stretch=st.floats(1.01, 4.0),
        n_grid=st.sampled_from([32, 33, 64, 65, 128]),
    )
    # raw 18.9: the two summation orders differ by 1.2e-12, 6.4e-14 relative
    @example(delta=0.010000000000000002, mu=34.0, chi=1, stretch=2.2934520160769747, n_grid=128)
    # odd sizes put a node at k = 0, its own mirror; mu < 0 takes the unnormalized prefactor
    @example(delta=0.7, mu=2.5, chi=-1, stretch=1.3, n_grid=33)
    @example(delta=1.0, mu=-2.0, chi=+1, stretch=1.5, n_grid=65)
    @example(delta=0.05, mu=-40.0, chi=-1, stretch=3.0, n_grid=33)
    def test_raw_matches_stacked_reference(self, delta, mu, chi, stretch, n_grid):
        params = GapParams(delta, mu, chi)
        k_max = stretch * 3.0 * max(math.sqrt(max(mu, 0.0)), delta, 1.0)
        for method, estimator in (("quadrature", chern_quadrature), ("plaquette", chern_plaquette)):
            expected, worst = reference_raw(method, params, k_max, n_grid)
            for block in BLOCKS:
                with mock.patch.object(chirality, "BLOCK", block):
                    if method == "plaquette" and worst <= -1.0 + ANTIPODAL_TOL:
                        with pytest.raises(DegeneratePlaquette):
                            estimator(params, k_max, n_grid)
                        continue
                    try:
                        raw = estimator(params, k_max, n_grid).raw
                    except NotConverged as exc:
                        raw = exc.result.raw
                if method == "quadrature":
                    # summation-order rounding grows with the size of the sum
                    tol = 1e-12 * max(1.0, abs(expected))
                else:
                    # corners near antipodal (a.b -> -1) make arctan2 ill-conditioned:
                    # last-bit differences in the dot products grow like 1 / (1 + a.b)
                    # (measured at most 4e-17 / (1 + a.b))
                    tol = 1e-12 * max(1.0, 1e-3 / (1.0 + worst))
                assert abs(raw - expected) <= tol, (method, block, raw, expected, worst)

    @settings(max_examples=80, deadline=None)
    @given(
        delta=st.floats(0.01, 5.0),
        mu=st.floats(-50.0, 50.0).filter(lambda mu: abs(mu) >= 0.01),
        chi=st.sampled_from([+1, -1]),
        stretch=st.floats(1.01, 4.0),
        n_grid=st.sampled_from([32, 33, 64, 65, 128, 256]),
    )
    # mu < 0 takes the unnormalized in-plane prefactor; odd sizes put a node at k = 0
    @example(delta=1.0, mu=-2.0, chi=+1, stretch=1.5, n_grid=256)
    @example(delta=0.05, mu=-40.0, chi=-1, stretch=3.0, n_grid=32)
    @example(delta=1.0, mu=-2.0, chi=+1, stretch=1.5, n_grid=65)
    @example(delta=0.7, mu=2.5, chi=-1, stretch=1.3, n_grid=33)
    # a gap of 1e-3 k_F: the integrand is so sharp that a mesh mirror symmetric only up
    # to rounding (1 ulp in k) moves the folded sum by 1e-12 relative
    @example(delta=0.0625, mu=48.75, chi=+1, stretch=3.0, n_grid=128)
    @example(delta=0.3, mu=45.0, chi=+1, stretch=1.01, n_grid=256)
    def test_quadrature_matches_six_gradient_reference(self, delta, mu, chi, stretch, n_grid):
        params = GapParams(delta, mu, chi)
        k_max = stretch * 3.0 * max(math.sqrt(max(mu, 0.0)), delta, 1.0)
        expected = six_gradient_quadrature_raw(params, k_max, n_grid)
        for block in BLOCKS:
            try:
                with mock.patch.object(chirality, "BLOCK", block):
                    raw = chern_quadrature(params, k_max, n_grid).raw
            except NotConverged as exc:
                raw = exc.result.raw
            assert abs(raw - expected) <= 1e-12 * max(1.0, abs(expected)), (block, raw, expected)

    @pytest.mark.parametrize(
        "n_grid_start, mu, first_grid",
        [
            (start, mu, grid)
            for start in (128, 256, 512)
            for mu, grid in ((3.0, 128), (40.0, 256), (150.0, 512))
        ]
        + [(512, 600.0, 1024), (128, -2.0, 128)],
    )
    def test_cross_validate_converges(self, mu, first_grid, n_grid_start):
        # automatic k_max: the escalation stops at the same grid as the stacked kernels did
        for chi in (+1, -1):
            report = cross_validate(GapParams(0.3, mu, chi), n_grid_start=n_grid_start)
            expected = chi if mu > 0 else 0
            assert report.n_integer == report.quadrature.n_integer == expected
            assert report.quadrature.grid_size == max(n_grid_start, first_grid)
            assert report.plaquette.grid_size == report.quadrature.grid_size


# Reference: the cap closure's per-edge solid angles on the whole boundary loop of the
# (n, n) texture, counterclockwise from the corner (0, 0): four sides of n - 1 edges.
def _boundary_loop(u):
    return np.concatenate([u[:-1, 0], u[-1, :-1], u[::-1, -1][:-1], u[0, ::-1][:-1]])


def whole_mesh_cap_angles(params, x):
    m = np.broadcast_arrays(*texture_field(x[:, None], x[None, :], params))
    mx, my = m[0][:, :1], m[1][:1, :]
    edge = _boundary_loop(np.sqrt(mx * mx + my * my + m[2] * m[2]))
    loop = tuple(_boundary_loop(c) / edge for c in m)
    nxt = tuple(np.roll(v, -1) for v in loop)
    abc = loop[1] * nxt[0] - loop[0] * nxt[1]
    return 2.0 * np.arctan2(abc, 1.0 + loop[2] + nxt[2] + _dot(loop, nxt))


def _raw_or_error(estimator, params, k_max, n_grid, block):
    with mock.patch.object(chirality, "BLOCK", block):
        try:
            return estimator(params, k_max, n_grid).raw
        except NotConverged as exc:
            return exc.result.raw
        except DegeneratePlaquette:
            return "DegeneratePlaquette"


def _block_sizes(n_grid):
    # one row (BLOCK below n_grid), two rows, five rows (a partial last block), the whole mesh
    return (1, 2 * n_grid, 5 * n_grid, n_grid * n_grid)


class TestBlockSeams:
    @settings(max_examples=40, deadline=None)
    @given(
        delta=st.floats(0.01, 5.0),
        mu=st.floats(-50.0, 50.0).filter(lambda mu: abs(mu) >= 0.01),
        chi=st.sampled_from([+1, -1]),
        stretch=st.floats(1.01, 4.0),
        n_grid=st.sampled_from([32, 33, 64]),
    )
    def test_raw_independent_of_block(self, delta, mu, chi, stretch, n_grid):
        params = GapParams(delta, mu, chi)
        k_max = stretch * 3.0 * max(math.sqrt(max(mu, 0.0)), delta, 1.0)
        *blocked, whole = _block_sizes(n_grid)
        quad = _raw_or_error(chern_quadrature, params, k_max, n_grid, whole)
        plaq = _raw_or_error(chern_plaquette, params, k_max, n_grid, whole)
        for block in blocked:
            assert _raw_or_error(chern_quadrature, params, k_max, n_grid, block) == quad, block
            raw = _raw_or_error(chern_plaquette, params, k_max, n_grid, block)
            if isinstance(plaq, str):
                assert raw == plaq, block
            else:
                assert abs(raw - plaq) <= 1e-13, (block, raw, plaq)
        # the four sides are quarter turns of each other, equal bit for bit, and the cap
        # closure is four times the first
        x, _ = chirality._mesh(k_max, n_grid)
        sides = whole_mesh_cap_angles(params, x).reshape(4, n_grid - 1)
        assert all(np.array_equal(side, sides[0]) for side in sides[1:])
        assert chirality._cap_closure(params, x) == 4.0 * float(sides[0].sum())

    @pytest.mark.parametrize("n_grid", [32, 33, 64])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_antipodal_pair_across_seam_detected(self, monkeypatch, n_grid, rows, offset):
        # the plaquette walks the octant of the quadrant nodes x[start:] in blocks of at
        # most `rows` rows, split evenly: the first seam is quadrant row `seam`, shared by
        # the first two blocks.  m_hat = (f(k_x), f(k_y), +-1) is swap symmetric and sits on
        # the z axis only where f vanishes in both momenta: at quadrant rows jump - 1 and
        # jump, next to the seam, and at the last column.  m_z jumps from -z to +z where
        # k_x + k_y passes the middle of the edge between those rows on the last column,
        # so the one antipodal pair in the octant is that edge along k_x; for even n_grid
        # and jump = 1 it straddles k_x = 0.  Its swap image on the last row lies left of
        # the columns the last block walks
        x, _ = chirality._mesh(8.0, n_grid)
        start = (n_grid - 1) // 2
        monkeypatch.setattr(chirality, "BLOCK", rows * (n_grid - start))
        seam = chirality._block_rows(n_grid - 1 - start, n_grid - start)
        low, high, c = x[start + max(1, seam + offset) - 1], x[start + max(1, seam + offset)], x[-1]
        threshold = c + (low + high) / 2.0

        def f(k):
            return (k - low) * (k - high) * (k - c)

        def seam_texture(kx, ky, params):
            return f(kx), f(ky), np.where(kx + ky > threshold, 1.0, -1.0)

        monkeypatch.setattr(chirality, "texture_field", seam_texture)
        with pytest.raises(DegeneratePlaquette):
            chern_plaquette(GapParams(1.0, 1.0, +1), 8.0, n_grid)


@pytest.mark.parametrize("estimator", [chern_quadrature, chern_plaquette])
def test_memory_bounded_at_max_grid(estimator):
    # the whole-mesh kernels peaked at 59 MB (quadrature) and 101 MB (plaquette) at this size
    tracemalloc.start()
    try:
        estimator(GapParams(1.0, 1.0, +1), 8.0, chirality.MAX_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
