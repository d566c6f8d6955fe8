"""Topological chirality number of the p-wave texture, by two independent methods.

The invariant is the degree of the map k -> m_hat(k) from the compactified
momentum plane to the unit sphere,

    N = (1/4pi) integral  m_hat . (d m_hat/dk_x x d m_hat/dk_y)  dk_x dk_y,

with the plane orientation fixed so that chi = +1 with mu > 0 gives N = +1.

Two estimators are provided and must agree:

* chern_quadrature: the trapezoid rule on the integrand in closed form.  The
  unnormalized texture m = (p k_x, chi p k_y, k^2 - mu) has d_x m = (p, 0, 2 k_x)
  and d_y m = (0, chi p, 2 k_y), so m . (d_x m x d_y m) = -chi p^2 (k^2 + mu),
  the winding of the weak-pairing phase (Read and Green, Phys. Rev. B 61,
  10267 (2000)).  The integrand m . (d_x m x d_y m) / |m|^3 equals the m_hat
  form exactly: the parts of d m_hat along m_hat drop out of the triple product.
* chern_plaquette: the discrete degree.  Each mesh cell contributes the
  signed solid angle of the spherical quadrilateral spanned by m_hat at its
  corners (two-triangle split, Van Oosterom-Strackee angles).

Both estimators close the finite integration square by coning its boundary
image to the north pole +z (the image of k -> infinity), which accounts for
the truncated tail.  For the plaquette method this closure makes the sum of
signed triangle areas an exact multiple of 4pi up to float rounding, so its
residual reflects numerical noise only.  A too-coarse mesh gives a silently
wrong integer, so cross_validate insists the methods agree, and a quadrature
level fails (NotConverged) when neighbouring nodes of its k_x line at k_y =
x[n // 2] are 90 degrees or more apart (dot <= 0): its nodes miss that turn.
_level evaluates every grid level.

Layout: the texture is mirror symmetric in each axis.  Under k_x -> -k_x only
m_x changes sign, a reflection of the sphere, while the orientation of the
plane reverses as well; so the quadrature integrand and the signed solid angle
of a mirrored plaquette equal those of the original cell, and likewise for
k_y.  Swapping k_x and k_y maps m to (m_y, m_x, m_z) for chi = +1 and to
(-m_y, -m_x, m_z) for chi = -1, again a reflection while the orientation
reverses, so both are even under the swap too.  _mesh places its nodes as
exact mirror images, on which all three symmetries hold bit for bit, and both
interior sums walk one octant of the mesh, the quadrant entries (i, j) with
j >= i, and weight each point or cell by its multiplicity: the
irreducible-wedge reduction of Brillouin-zone integration (Monkhorst and Pack,
Phys. Rev. B 13, 5188 (1976)), applied to the lattice solid-angle sum too
(Fukui, Hatsugai and Suzuki, J. Phys. Soc. Jpn. 74, 1674 (2005)).  Quadrature
nodes x[n_grid // 2:] carry the folded trapezoid weight w_i + w_(n-1-i) per
axis; for odd n_grid the node at k = 0 is its own mirror and keeps its single
weight.  Plaquette cells i >= (n_grid - 1) // 2 carry weight 2 per axis, but
for even n_grid the cell across k = 0 is its own mirror and carries 1.  An
entry off the diagonal carries a further 2 for its swap image (j, i); a
diagonal entry is its own image and keeps 1 (the swap maps the a-c split of a
diagonal cell onto itself and exchanges its two triangles).  The antipodal
check still sees every corner pair of the mesh: reflections and the swap keep
dot products, the mirrors map the quadrant onto the other three, and the swap
maps the k_x edges of cell (i, j) onto the k_y edges of cell (j, i) and its
diagonals onto that cell's diagonals, so each pair of a cell below the
diagonal has its image in a cell the walk checks.  The quarter turn
k -> (-k_y, k_x) rotates m about z and maps each side of the boundary loop onto
the next: the cap closure is four times the side k_y = x[0].

The walk goes in row blocks of the quadrant's n nodes per side (_blocks) and
holds no n x n array: memory is a few BLOCK-point block arrays plus O(n_grid)
vectors, the 1-D lines through (x[n // 2], x[n // 2]) built once per level
(_lines).  The quadrature sums each row over the whole quadrant row, zero left
of the diagonal, so its raw value is the same bit for bit for every block
size.  The plaquette lays each block out flat, so that every corner array is
a contiguous slice, and both triangles of a cell share one raw triple
product: for this separable texture b - a = c - d and c - b = d - a, so
a . (b x c) = a . (c x d) = a . ((b - a) x (c - b)), one 2-D determinant of
the edge components scaled by the corners' inverse norms.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .kspace import GapParams, texture_field

RESIDUAL_LIMIT = 1e-3
ANTIPODAL_TOL = 1e-9
MAX_GRID = 1024  # largest n_grid per side
N_GRID_START = 128  # cross_validate's first n_grid
BLOCK = 2**13  # mesh points per block of rows: a cache-sized float array of 64 KiB


class GaplessTexture(ValueError):
    """The texture has a zero, the invariant is undefined."""


class DegeneratePlaquette(ValueError):
    """Two plaquette corners are antipodal; the solid angle split is ill-defined."""


class MethodDisagreement(RuntimeError):
    """The two converged estimators disagree; indicates an implementation bug."""


class NotConverged(RuntimeError):
    """Accumulated value is too far from an integer to report an invariant.

    Carries the offending partial result in the ``result`` attribute.
    """

    def __init__(self, result: "ChernResult", message: str | None = None):
        self.result = result
        super().__init__(message or (
            f"raw value {result.raw} is {result.residual:.3e} from the nearest "
            f"integer (limit {RESIDUAL_LIMIT:g}) at n_grid={result.grid_size}"
        ))


@dataclass(frozen=True)
class ChernResult:
    n_integer: int
    raw: float
    residual: float
    grid_size: int
    k_max: float
    method: str


@dataclass(frozen=True)
class CrossValidation:
    quadrature: ChernResult
    plaquette: ChernResult

    @property
    def n_integer(self) -> int:
        return self.plaquette.n_integer


def default_k_max(params: GapParams) -> float:
    """Integration cutoff 8 * max(sqrt(max(mu,0)), delta, 1)."""
    return 8.0 * max(math.sqrt(max(params.mu, 0.0)), params.delta, 1.0)


def _check_inputs(params: GapParams, k_max: float, n_grid: int) -> None:
    if not params.is_gapped():
        if params.delta == 0.0:
            raise GaplessTexture(
                f"delta = 0 with mu = {params.mu} >= 0: texture vanishes "
                "where eps_k = 0, invariant undefined"
            )
        raise GaplessTexture(
            "mu = 0 is the transition point: texture vanishes at k = 0, "
            "invariant undefined"
        )
    floor = 3.0 * max(math.sqrt(max(params.mu, 0.0)), params.delta, 1.0)
    if not k_max > floor:
        raise ValueError(f"k_max must exceed {floor:g} for these parameters, got {k_max}")
    if not 32 <= n_grid <= MAX_GRID:
        raise ValueError(f"n_grid must be in [32, {MAX_GRID}], got {n_grid}")
    # every node has |m| <= M with M^2 = 2 (p k_max)^2 + (2 k_max^2 + |mu|)^2, and no kernel
    # value exceeds 12 M^3: the plaquette's triple product sums three products of a component
    # (<= M) and two edges (<= 2 M each), and the quadrature's |m|^3 is below it
    inplane, axial = params._inplane_prefactor() * k_max, 2.0 * k_max * k_max + abs(params.mu)
    norm2 = 2.0 * inplane * inplane + axial * axial
    if not 12.0 * norm2 * math.sqrt(norm2) <= sys.float_info.max:
        raise ValueError(f"the texture overflows: |m| reaches {math.sqrt(norm2):.3g} "
                         f"at k_max = {k_max}, mu = {params.mu}")
    # on an odd grid the node at k = 0 has |m| = |mu|, and the quadrature divides by |m|^3
    if n_grid % 2 and not abs(params.mu) ** 3 >= sys.float_info.min:
        raise ValueError(f"the texture underflows: |m| = |mu| = {abs(params.mu):.3g} at the "
                         f"k = 0 node of the odd n_grid = {n_grid}")


def _mesh(k_max: float, n_grid: int) -> tuple[np.ndarray, float]:
    # cell-centred nodes, exact mirror images of each other (x[n - 1 - i] == -x[i]); for
    # even n_grid they sit half a cell off k = 0, so texture zeros at the origin are never sampled
    h = 2.0 * k_max / n_grid
    return (np.arange(n_grid) - (n_grid - 1) / 2.0) * h, h


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _blocks(params: GapParams, xq: np.ndarray, overlap: int = 0):
    """Yield r0, texture m (natural shapes) and m . m of each row block of the quadrant xq.

    The len(xq) - overlap rows split evenly into blocks of at most max(1, BLOCK // len(xq))
    rows (m has `overlap` more); a block holds the columns from its first row r0 on: the
    octant entries (i, j >= i) of its rows and the lower triangle of its leading square.
    """
    count = len(xq) - overlap
    rows = _block_rows(count, len(xq))
    for r0 in range(0, count, rows):
        m = texture_field(xq[r0:r0 + rows + overlap, None], xq[None, r0:], params)
        s = m[0] * m[0] + m[1] * m[1] + m[2] * m[2]
        yield r0, m, s


def _block_rows(count: int, width: int) -> int:
    """Rows per block: count rows split evenly into blocks of at most max(1, BLOCK // width)."""
    blocks = -(-count // max(1, BLOCK // width))
    return -(-count // blocks)


@functools.cache
def _octant_factor(rows: int) -> np.ndarray:
    """Weight of each entry of a rows x rows leading square relative to an off-diagonal entry.

    1 above the diagonal, 1/2 on it (a diagonal entry is its own swap image) and
    0 below it (the swap image of such an entry is walked above the diagonal).
    """
    factor = np.triu(np.ones((rows, rows))) - 0.5 * np.eye(rows)
    factor.flags.writeable = False
    return factor


def _cap_closure(params: GapParams, x: np.ndarray) -> float:
    """Solid angle of the cone closing the boundary loop of m_hat onto the north pole."""
    # four times the side k_y = x[0], k_x from x[0] to x[-1]; 2 arctan2 per edge's cone
    m = texture_field(x, x[0], params)
    edge = np.sqrt(_dot(m, m))
    loop = tuple(c / edge for c in m)
    a, b = tuple(v[:-1] for v in loop), tuple(v[1:] for v in loop)
    abc = a[1] * b[0] - a[0] * b[1]  # a . (pole x b), pole = +z
    return 8.0 * float(np.arctan2(abc, 1.0 + a[2] + b[2] + _dot(a, b)).sum())


def _lines(params: GapParams, x: np.ndarray) -> np.ndarray:
    """m_x, m_y, m_z along k_x and m_z along k_y: the mesh lines through (x[n // 2], x[n // 2])."""
    xl = x[len(x) // 2 - 1:]  # from one node before; the lines through -x[n // 2] are the same
    mx, _, mz = texture_field(xl, xl[1], params)
    return np.array((mx, params.chi * mx, mz, mz))  # the k_y line is the swap image (Layout)


def _quadrature_sum(params: GapParams, x: np.ndarray, h: float) -> float:
    """Trapezoid sum of the integrand over the mesh, walked on the octant of x[n // 2:]."""
    w = np.full(len(x) - len(x) // 2, 2.0 * h)  # folded trapezoid weights w_i + w_(n-1-i); for
    w[0], w[-1] = 2.0 * h / (1 + len(x) % 2), h  # odd n the node at k = 0 is its own mirror
    w2 = 2.0 * w
    # each row's k_y sum runs over the whole quadrant row, zero left of the diagonal,
    # so it is the same sum for every block size (a gemv would not keep that)
    inner = np.empty(len(w))
    for r0, m, s in _blocks(params, x[len(x) // 2:]):  # from the smallest |k|: h/2, or 0
        rows = slice(r0, r0 + len(s))
        row = np.zeros((len(s), len(w)))
        row[:, r0:] = (m[2] + 2.0 * params.mu) / (s * np.sqrt(s)) * w2[r0:]  # (k^2 + mu) / |m|^3
        row[:, r0:rows.stop] *= _octant_factor(len(s))
        inner[rows] = row.sum(axis=1)
    return -params.chi * params._inplane_prefactor() ** 2 * float(w @ inner)


def _plaquette_sum(params: GapParams, x: np.ndarray, lines: np.ndarray) -> float:
    """Signed solid angle of the mesh cells, walked on the cells of the octant of its quadrant."""
    xq = x[(len(x) - 1) // 2:]  # cell i spans nodes i, i + 1 and mirrors cell n - 2 - i
    # the mesh lines on the quadrant's nodes xq and each node's next neighbour along them
    line = lines[:, len(x) % 2:]
    step = np.concatenate((line[:, 1:], np.zeros((4, 1))), axis=1)
    near = line[:2] * step[:2]  # m_x m_x' and m_y m_y' of neighbouring nodes
    step -= line  # the edges b - a = c - d = (dm_x, 0, dz_x) and c - b = d - a = (0, dm_y, dz_y)
    tilt = line[:2] * step[2:]  # m_x dz_x and m_y dz_y
    fold = np.full(len(xq), 2.0)  # mirror fold per axis of the cells (see Layout); the last
    fold[0], fold[-1] = 1.0 + len(x) % 2, 0.0  # node starts no cell (its "cells" wrap)
    swap_fold = 2.0 * fold  # and its double for the swap
    interior = 0.0
    for r0, m, s in _blocks(params, xq, overlap=1):
        # flat node k of the block (row k // W, column k % W) is corner a of cell k, with
        # b = k + W, c = k + W + 1 and d = k + 1; node dots are the unnormalized
        # m_z m_z' plus the separable in-plane part, scaled by the inverse norms
        rows, width = s.shape
        cells = (rows - 1) * width
        last = cells - 1  # the final wrap cell: its corner c lies past the block
        i = slice(r0, r0 + rows - 1)
        inv = np.reciprocal(np.sqrt(s, out=s), out=s).ravel()
        z = m[2].ravel()

        def dots(p, q, size, in_plane):
            out = in_plane.ravel()
            head = out[:size]
            head += z[p:p + size] * z[q:q + size]
            head *= inv[p:p + size]
            head *= inv[q:q + size]
            return out

        along_x = dots(0, width, cells, near[0, i, None] + line[1, None, r0:] ** 2)
        along_y = dots(0, 1, s.size - 1, line[0, r0:r0 + rows, None] ** 2 + near[1, None, r0:])
        diagonal = near[0, i, None] + near[1, None, r0:]
        ac = dots(0, width + 1, last, diagonal.copy())
        bd = dots(width, 1, last, diagonal)
        # the wrap cells of the last column pair no mesh corners
        along_y[width - 1::width] = ac[width - 1::width] = bd[width - 1::width] = 1.0
        if min(along_x.min(), along_y.min(), ac.min(), bd.min()) <= -1.0 + ANTIPODAL_TOL:
            raise DegeneratePlaquette(
                f"two plaquette corners are antipodal within {ANTIPODAL_TOL:g}; refine the grid")
        # a . (b x c) = a . (c x d) = a . ((b - a) x (c - b)) on the unnormalized
        # corners, m_z dm_x dm_y - m_x dz_x dm_y - m_y dm_x dz_y: one 2-D determinant
        triple = m[2][:-1] * step[0, i, None]
        triple -= tilt[0, i, None]
        triple *= step[1, r0:]
        triple -= step[0, i, None] * tilt[1, r0:]
        triple = triple.ravel()[:last]
        triple *= inv[:last]
        triple *= inv[width + 1:]
        # Van Oosterom-Strackee denominators 1 + ab + bc + ac and 1 + ac + cd + ad
        abc = 1.0 + ac[:last]
        acd = abc + along_x[1:]
        acd += along_y[:last]
        abc += along_x[:last]
        abc += along_y[width:width + last]
        half_angles = np.zeros(cells)  # the solid angle of a triangle is 2 arctan2
        head = np.arctan2(triple * inv[width:width + last], abc, out=half_angles[:last])
        head += np.arctan2(np.multiply(triple, inv[1:cells], out=abc), acd, out=acd)
        half_angles = half_angles.reshape(-1, width)
        half_angles[:, :rows - 1] *= _octant_factor(rows - 1)
        interior += fold[i] @ (half_angles @ swap_fold[r0:])
    return 2.0 * interior


def _level(params: GapParams, k_max: float, n_grid: int, methods: tuple) -> list[ChernResult]:
    """Each method's result at one grid level, in the order given: the mesh, its lines and the
    cap closure are built once, and each result is judged before the next method runs."""
    _check_inputs(params, k_max, n_grid)
    x, h = _mesh(k_max, n_grid)
    lines, cap = _lines(params, x), _cap_closure(params, x)
    mx, mz = lines[0], lines[2]  # along the k_x line, where m_y = lines[1, 1]
    results = []
    for method in methods:
        quadrature = method == "quadrature"
        total = _quadrature_sum(params, x, h) if quadrature else _plaquette_sum(params, x, lines)
        raw = -(total + cap) / (4.0 * math.pi)  # the sign fixes N(chi=+1, mu>0) = +1
        degree = abs(raw) < 1.5  # this texture's degree is chi or 0; False for inf and nan
        n_int = int(round(raw)) if degree else 0
        result = ChernResult(n_int, raw, abs(raw - n_int), n_grid, k_max, method)
        # the quadrature's resolution guard: unnormalized neighbour dots along the k_x line
        if quadrature and (mx[:-1] * mx[1:] + lines[1, 1] ** 2 + mz[:-1] * mz[1:]).min() <= 0.0:
            raise NotConverged(result, f"the texture is unresolved at n_grid={n_grid}: "
                               "neighbouring mesh nodes are 90 degrees or more apart")
        if not degree:
            raise NotConverged(result, f"raw value {raw} at n_grid={n_grid} rounds to no "
                               "degree of this texture (-1, 0 or +1)")
        if result.residual >= RESIDUAL_LIMIT:
            raise NotConverged(result)
        results.append(result)
    return results


def chern_quadrature(params: GapParams, k_max: float, n_grid: int) -> ChernResult:
    """Invariant via the trapezoid rule on the closed-form integrand.

    With p = params._inplane_prefactor(), the numerator of m . (d_x m x d_y m) / |m|^3
    is -chi p^2 (k^2 + mu) = -chi p^2 (m_z + 2 mu): one factor per level times a sum of
    (m_z + 2 mu) / |m|^3.
    """
    return _level(params, k_max, n_grid, ("quadrature",))[0]


def chern_plaquette(params: GapParams, k_max: float, n_grid: int) -> ChernResult:
    """Invariant via the discrete degree (signed spherical plaquette areas)."""
    return _level(params, k_max, n_grid, ("plaquette",))[0]


def _conditioned(params: GapParams) -> GapParams:
    """Equivalent parameters with a well-conditioned texture.

    Rescaling the in-plane pair (m_x, m_y) by a positive constant is a
    homotopy of the unit texture (the norm never vanishes for gapped
    parameters), so the degree is unchanged.  Setting the effective gap to
    k_F (or to 1 when mu <= 0) makes every texture feature live on the same
    O(max(sqrt(mu), 1)) momentum scale, which uniform meshes resolve cheaply.
    """
    if params.mu > 0.0:
        return GapParams(math.sqrt(params.mu), params.mu, params.chi)
    return GapParams(1.0, params.mu, params.chi)


def cross_validate(
    params: GapParams,
    k_max: float | None = None,
    n_grid_start: int = N_GRID_START,
) -> CrossValidation:
    """Run both estimators at escalating resolution and require agreement.

    The grid starts at n_grid_start and doubles up to MAX_GRID, always the last level.
    With k_max = None the texture is first rescaled to its well-conditioned
    equivalent (same invariant) and the cutoff is chosen automatically; an
    explicit k_max evaluates the parameters exactly as given.
    """
    if not params.is_gapped():
        _check_inputs(params, math.inf, n_grid_start)
    work = params if k_max is not None else _conditioned(params)
    cutoff = k_max if k_max is not None else default_k_max(work)

    n_grid = n_grid_start
    while True:
        try:
            quad, plaq = _level(work, cutoff, n_grid, ("quadrature", "plaquette"))
        except (NotConverged, DegeneratePlaquette):
            if n_grid == MAX_GRID:
                raise
            n_grid = min(2 * n_grid, MAX_GRID)
            continue
        if quad.n_integer != plaq.n_integer:
            raise MethodDisagreement(
                f"quadrature reports {quad.n_integer} but plaquette reports "
                f"{plaq.n_integer} at n_grid={n_grid}"
            )
        return CrossValidation(quadrature=quad, plaquette=plaq)
