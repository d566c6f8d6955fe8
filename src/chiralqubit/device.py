"""Feasibility arithmetic for a single-domain chiral qubit element.

Chain of estimates: a magnetic field splits the two chiral states by the
Zeeman energy per pair, eps = mu_B * H / (m*/m_e); keeping the total applied
energy below the pair-breaking threshold caps the condensate at
n_s = gap / eps pairs; at one pair per unit cell that caps the element
volume, hence its lateral size at fixed film thickness.  Every linear
dimension must stay below the London penetration depth for the field to
reach the condensate uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BOHR_MAGNETON_EV_PER_T = 5.7883818e-05  # CODATA, eV/T
GAUSS_PER_TESLA = 1.0e4


class GeometryInfeasible(ValueError):
    """No in-plane size of at least one unit cell satisfies the constraints."""


def gauss_to_tesla(h_gauss: float) -> float:
    return h_gauss / GAUSS_PER_TESLA


@dataclass(frozen=True)
class MaterialParams:
    """Material constants; defaults describe a layered ruthenate film."""

    gap_ev: float = 5.0e-4  # half of the 1 meV pair-breaking threshold
    mass_ratio: float = 4.0
    cell_volume_a3: float = 100.0
    lambda_l_a: float = 2000.0
    film_thickness_a: float = 100.0

    def __post_init__(self):
        for name in ("gap_ev", "mass_ratio", "cell_volume_a3", "lambda_l_a", "film_thickness_a"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.film_thickness_a >= 1000.0:
            raise ValueError(
                f"film_thickness_a must stay below 1000 A, got {self.film_thickness_a}"
            )


@dataclass(frozen=True)
class QubitGeometry:
    volume_a3: float
    lx_a: float
    ly_a: float
    lz_a: float
    within_lambda: bool


def zeeman_splitting(h_gauss: float, params: MaterialParams) -> float:
    """Level splitting eps = mu_B * H / (m*/m_e) in eV, H given in gauss."""
    if not (h_gauss > 0.0 and math.isfinite(h_gauss)):
        raise ValueError(f"h_gauss must be finite and > 0, got {h_gauss!r}")
    return BOHR_MAGNETON_EV_PER_T * gauss_to_tesla(h_gauss) / params.mass_ratio


def max_pair_number(params: MaterialParams, eps_ev: float) -> int:
    """Largest pair count floor(gap/eps) keeping the ensemble below threshold."""
    if not (eps_ev > 0.0 and math.isfinite(eps_ev)):
        raise ValueError(f"eps_ev must be finite and > 0, got {eps_ev!r}")
    ratio = params.gap_ev / eps_ev
    if not math.isfinite(ratio):
        raise ValueError(f"pair budget gap_ev / eps_ev = {params.gap_ev!r} / {eps_ev!r} overflows")
    # ratios within a part in 1e12 of an integer are snapped before flooring
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= 1e-12 * ratio:
        return int(nearest)
    return int(math.floor(ratio))


def max_volume(params: MaterialParams, n_pairs: int) -> QubitGeometry:
    """Element volume at one pair per unit cell, as an L x L x thickness slab."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs!r}")
    volume = n_pairs * params.cell_volume_a3
    side = math.sqrt(volume / params.film_thickness_a)
    cell_edge = params.cell_volume_a3 ** (1.0 / 3.0)
    if side < cell_edge:
        raise GeometryInfeasible(
            f"in-plane size {side:.3g} A is below one unit cell ({cell_edge:.3g} A) "
            f"at thickness {params.film_thickness_a} A"
        )
    within = max(side, params.film_thickness_a) < params.lambda_l_a
    return QubitGeometry(volume, side, side, params.film_thickness_a, within)


@dataclass(frozen=True)
class SizingReport:
    h_gauss: float
    eps_ev: float
    n_pairs: int
    geometry: QubitGeometry


def sizing_report(params: MaterialParams, h_gauss: float) -> SizingReport:
    """Full chain: field -> splitting -> pair budget -> geometry."""
    eps = zeeman_splitting(h_gauss, params)
    n_pairs = max_pair_number(params, eps)
    return SizingReport(h_gauss, eps, n_pairs, max_volume(params, n_pairs))
