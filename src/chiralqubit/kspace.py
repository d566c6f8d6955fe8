"""Chiral p-wave order parameter and its texture in momentum space.

Natural units throughout: hbar = 1 and 2m = 1, so the band dispersion is
eps_k = k^2 - mu and the Fermi momentum is k_F = sqrt(mu) whenever mu > 0.
The gap function is d_z(k) = delta * (k_x + i*chi*k_y) / k_F and the texture
vector is m(k) = (Re d_z, Im d_z, eps_k).  For mu <= 0 the 1/k_F factor is
dropped; a positive rescaling of the in-plane pair (m_x, m_y) never changes
the degree of the normalized texture, so the topological content survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonpositiveMu(ValueError):
    """Raised where the 1/k_F normalization is requested but mu <= 0."""


@dataclass(frozen=True)
class GapParams:
    """Order-parameter parameter set: gap magnitude, chemical potential, chirality.

    chi = +1 selects k_x + i k_y, chi = -1 selects k_x - i k_y.
    """

    delta: float
    mu: float
    chi: int

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if self.chi not in (+1, -1):
            raise ValueError(f"chi must be exactly +1 or -1, got {self.chi!r}")
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "chi", int(self.chi))

    @property
    def k_fermi(self) -> float:
        if self.mu <= 0.0:
            raise NonpositiveMu(f"k_F = sqrt(mu) undefined for mu = {self.mu}")
        return math.sqrt(self.mu)

    def is_gapped(self) -> bool:
        """True when |m(k)| > 0 everywhere.

        The texture vanishes somewhere iff delta = 0 with mu >= 0 (zero on the
        Fermi circle, or at k = 0 when mu = 0) or mu = 0 (zero at k = 0).
        """
        return self.mu < 0.0 or (self.delta > 0.0 and self.mu > 0.0)

    def _inplane_prefactor(self) -> float:
        return self.delta / self.k_fermi if self.mu > 0.0 else self.delta


def d_z(k, params: GapParams) -> complex:
    """Gap amplitude delta*(k_x + i*chi*k_y)/k_F at momentum k = (k_x, k_y).

    Requires mu > 0; for mu <= 0 use texture_field, which drops the 1/k_F factor.
    """
    if params.mu <= 0.0:
        raise NonpositiveMu(
            f"d_z normalization needs mu > 0, got mu = {params.mu}; "
            "texture_field handles mu <= 0 with the unnormalized convention"
        )
    m_x, m_y, _ = texture_field(*k, params)
    return complex(m_x, m_y)


def texture_field(kx, ky, params: GapParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized texture components (m_x, m_y, m_z) in their natural shapes.

    m_x has the shape of kx, m_y that of ky and m_z their broadcast shape: the
    in-plane components depend on one momentum each, so a mesh row block costs
    one full-size array, not three.
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    pref = params._inplane_prefactor()
    return pref * kx, pref * params.chi * ky, kx * kx + ky * ky - params.mu
