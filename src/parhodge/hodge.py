"""Discrete metric structures on twisted cochains.

`metric_complex` is the one per-triangle computation of the metric: the
local blocks of the Whitney mass matrix M1 and the twisted cotan Laplacian
L0 = d0^T M1 d0 (Pinkall & Polthier 1993); the scalar case is the trivial
system in fiber dimension 1.  Per triangle, cochain values are transported
into the fiber at the triangle's lowest vertex, where the barycentric
integrals pair the Whitney forms (M1, W1) and the hat-function gradients
(L0).  All triangles are computed at once from the triangle-edge table
`SurfaceComplex.tri_edges`, the edge lengths and the transports.
Orthogonal transports preserve the fiber inner product, so for a trivial
system the matrices reduce to the scalar ones tensored with the fiber
identity.  What depends on the lengths and the mesh alone, the triangle
geometry (Heron areas, gradient pairings g, the L0 factors area g and
the Whitney pair integrals of M1), is made once per mesh and metric
(`_metric_geometry`) and kept, read-only, with the metric
(`surface.PLMetric.plan`), so every system on them reuses it; a call
gathers its system's transports into the pairs rho_a^T rho_b and
multiplies.

`MetricComplex` is a plain record of one system's local blocks and keeps
nothing between calls; no matrix is assembled from them.  `m1_apply`
applies M1 per triangle (gather the three edge values by `tri_edges`,
multiply by the local 3n x 3n block, which `metric_complex` stores in
that layout, and sum the results back onto each edge by two gathers
through `SurfaceComplex.edge_slots`, its first triangle then its second,
onto zeros: np.add.at's summation bit for bit, in about half the time),
`galerkin_operator` applies W1^T the same way from the metric-free wedge
blocks, and `twisted._d0_apply` / `twisted._d0_adjoint` apply d0 and
d0^T edgewise.  `harmonic_representative` solves with L0 by block
Cholesky elimination over the breadth-first levels of the spanning-tree
walk (`_level_solve`), where L0 is block tridiagonal, so its largest
matrix is the Schur complement of one level.  A level may merge several
depths, and only its first depth meets the level before, so each
subdiagonal block holds just those rows, and the elimination updates
and keeps only that many columns per level.  The levels and the place
of every triangle block in them depend on the mesh and the walk alone,
so they are planned once per mesh, flavor, fiber dimension and
`numlin.BASE_ROWS` (`_plan_levels`) and kept with the mesh
(`surface.SurfaceComplex.plan`).  Every gather of rows of an
array with trailing axes is `ndarray.take(index, axis=0)`, the same bytes
as fancy indexing in less time.  Harmonic representatives,
their Gram matrices, the decomposition that `verify` reports and the
Galerkin diagnostics thus form no n_E- or n n_V-sized matrix.

Neumann boundary conditions are encoded as absence of constraint (the
M-adjoint on absolute cochains is the natural condition), Dirichlet as
interior support, so the harmonic representatives of the tree-cotree
classes represent absolute and relative cohomology exactly.  The middle
space CcC of the three-way M1-orthogonal splitting of one-cochains is the
closed and co-closed cochains: closed, and M1-orthogonal to the
coboundaries of interior vertices.  Both harmonic flavors lie in it; the
splitting is verified per mesh, its dimensions against exact counts, and
reported rather than assumed.

The Galerkin star J_h = M1^{-1} W1^T (weak form of the metric star on
Whitney one-forms) is a diagnostic only: it is M1-skew but squares to -I
only in the mesh limit, and nothing downstream depends on it.
`galerkin_operator` builds it once per metric complex as one operator,
W1^T per triangle and then block-Jacobi preconditioned CG on M1
(`numlin.pcg`); J_h is never formed as a matrix.  `galerkin_residuals`
applies it twice, to an M1-orthonormal basis C of CcC and to J_h C, and
reads J_h on H_N and on the projections of C onto H_D off J_h C, since
both harmonic spaces lie in CcC.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import compat, numlin, surface, twisted
from .errors import NoConvergence
from .numlin import DEFAULT_TOL


@dataclass
class MetricComplex:
    k: object
    f: object
    # per system, each the metric's kept geometry times the pairs:
    # (n_T, 3, 3, n, n) over the sorted vertices w0 < w1 < w2 of each
    # triangle: the local blocks (area g)_ij rho_i^T rho_j of the twisted
    # cotan Laplacian, which no src path assembles
    l0: np.ndarray
    # (n_T, 3n, 3n) over the (table edge, fiber) values of each triangle:
    # the local M1 block, the Whitney pair integrals times the pairs, in
    # the layout `_triangle_apply` multiplies with
    m1: np.ndarray
    # (n_T, 3, 3, n, n) over the table edges of each triangle: the products
    # rho_a^T rho_b of the transports that carry the edge values into the
    # fiber at w0; metric-free, and W1^T's blocks are read off them
    pairs: np.ndarray
    tol: object = DEFAULT_TOL


# the table edges w0w1, w0w2, w1w2 of a triangle as (low, high) positions
# in its sorted vertex order w0 < w1 < w2
_EDGE_LO = np.array([0, 0, 1])
_EDGE_HI = np.array([1, 2, 2])
# dlambda_i ^ dlambda_j in units of the area form, for a triangle whose
# sorted vertex order is positively oriented
_WEDGE_E = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=float)


def _lambda_products(area):
    """Integrals of lambda_i lambda_j over triangles of the given areas."""
    return np.asarray(area)[..., None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0


def _whitney_pairs(ll, y):
    """Pairings of the Whitney forms w_ab = l_a dl_b - l_b dl_a of the three
    table edges (last two axes), from the integrals ll[i, j] of
    lambda_i lambda_j and the pairings y[i, j] of dlambda_i with dlambda_j."""
    lo, hi = _EDGE_LO[:, None], _EDGE_HI[:, None]
    return (
        y[..., hi, _EDGE_HI] * ll[..., lo, _EDGE_LO]
        - y[..., hi, _EDGE_LO] * ll[..., lo, _EDGE_HI]
        - y[..., lo, _EDGE_HI] * ll[..., hi, _EDGE_LO]
        + y[..., lo, _EDGE_LO] * ll[..., hi, _EDGE_HI]
    )


# integral of w_e ^ w_f over a triangle with _WEDGE_E's orientation;
# metric-free, so taken on the reference triangle (area 1/2)
_WEDGE = _whitney_pairs(_lambda_products(0.5), _WEDGE_E)


def _metric_geometry(k, h):
    """The per-triangle geometry of the metric `h` on `k`, read-only: the
    L0 factors area g_ij and the Whitney pair integrals of M1, each
    (n_T, 3, 3), from the gradient pairings g_ij = <dl_i, dl_j>."""
    te = k.tri_edges
    # side[:, i] is opposite w_i; Heron takes the sides opposite t0, t1
    # and t2 of the stored triangle, which fixes the rounding of the area
    side = h.lengths[te[:, ::-1]]
    stored = h.lengths[k.side_edge]
    area = surface._heron(stored[:, 1], stored[:, 2], stored[:, 0])
    # gradient pairings: |dl_i|^2 = l_i^2 / (4 A^2) and, with k the third
    # vertex, <dl_i, dl_j> = -(l_i^2 + l_j^2 - l_k^2) / (8 A^2); float_power
    # squares through libm pow, which side * side can miss in the last bit
    sq = np.float_power(side, 2)
    third = sq[:, (3 - np.add.outer(np.arange(3), np.arange(3))) % 3]
    a2 = (area * area)[:, None, None]
    g = np.where(np.eye(3, dtype=bool), sq[:, :, None] / (4.0 * a2),
                 -(sq[:, :, None] + sq[:, None, :] - third) / (8.0 * a2))
    geometry = area[:, None, None] * g, _whitney_pairs(_lambda_products(area), g)
    for a in geometry:
        a.setflags(write=False)
    return geometry


def metric_complex(k, h, f, tol=DEFAULT_TOL):
    """The local M1 and L0 blocks for (complex, metric, system), all
    triangles at once: the metric's geometry on `k`, made once and kept
    with the metric (`_metric_geometry`), times the transports' pairs."""
    n, nt, te = f.fiber_dim, k.n_triangles, k.tri_edges
    area_g, whitney = h.plan(k, "geometry", lambda: _metric_geometry(k, h))
    # pullbacks rho_i of the vertex fibers into the fiber at w0, and the
    # products rho_i^T rho_j; an edge cochain's value lives at its low vertex.
    # rho_0 = I, so only the pairs of rho_1 = P_w0w1 and rho_2 = P_w0w2 are
    # products
    rho = f.transports.take(te[:, :2], axis=0)
    # gathered from the transposed transports, so the product's left
    # operand is contiguous
    rho_t = f.transports.transpose(0, 2, 1).take(te[:, :2], axis=0)
    pair = np.empty((nt, 3, 3, n, n))
    pair[:, 0, 0] = np.eye(n)
    pair[:, 0, 1:] = rho
    pair[:, 1:, 0] = rho_t
    pair[:, 1:, 1:] = rho_t[:, :, None] @ rho[:, None]
    pair_e = pair[:, _EDGE_LO[:, None], _EDGE_LO]

    l0 = area_g[..., None, None] * pair
    # M1's local blocks (a, b, i, j) go to row a n + i, column b n + j
    m1 = np.empty((nt, 3 * n, 3 * n))
    np.multiply(whitney[:, :, None, :, None], pair_e.transpose(0, 1, 3, 2, 4),
                out=m1.reshape(nt, 3, n, 3, n))
    return MetricComplex(k=k, f=f, l0=l0, m1=m1, pairs=pair_e, tol=tol)


def _triangle_apply(mc, local, u):
    """Sum over triangles of the `local` (n_T, 3n, 3n) blocks on the
    (table edge, fiber) values applied to u, a one-cochain or columns of
    them: gather the values on each triangle's table edges, apply its
    block, and sum the results back per edge (`_edge_sums`)."""
    n, te, shape = mc.f.fiber_dim, mc.k.tri_edges, u.shape
    nt, cols = len(te), math.prod(shape[1:])
    x = u.reshape(mc.k.n_edges, n, cols)
    y = np.empty((3 * nt + 1, n, cols))
    y[-1] = 0.0
    np.matmul(local, x.take(te, axis=0).reshape(nt, 3 * n, cols),
              out=y[:-1].reshape(nt, 3 * n, cols))
    return _edge_sums(mc.k, y).reshape(shape)


def _edge_sums(k, y):
    """Per edge, the sum of y (3 n_T + 1, ...) over its slots 3 t + j, read
    through `edge_slots`; the last row of y is zeros, which the -1 of a
    boundary edge reads.  Zeros plus the first slot plus the second add
    each edge's triangles in stored order and turn -0.0 into +0.0, after
    which the zero row changes no bit: np.add.at over `tri_edges`, bit for
    bit."""
    first, second = k.edge_slots.T
    out = np.zeros((k.n_edges,) + y.shape[1:])
    out += y.take(first, axis=0)
    out += y.take(second, axis=0)
    return out


def m1_apply(mc, u):
    """M1 @ u per triangle, for a one-cochain or columns of them."""
    return _triangle_apply(mc, mc.m1, u)


def galerkin_operator(mc):
    """The Galerkin star J_h = M1^{-1} W1^T of `mc` as one operator
    x -> J_h x on one-cochains or columns of them, with no n_E-sized
    matrix; build it once and apply it as often as needed.

    It holds W1^T's local (n_T, 3n, 3n) blocks, from the metric-free wedge
    blocks sorted_sign * _WEDGE * pairs (transposed), and the inverses of
    M1's n x n diagonal blocks per edge.  An apply takes W1^T x per
    triangle and solves M1 y = W1^T x by `numlin.pcg` with `m1_apply` and
    those inverses as a block-Jacobi preconditioner.  A mass matrix is
    spectrally equivalent to its diagonal on shape-regular meshes (Wathen
    1987), so the iteration count does not grow under refinement.
    """
    n, ne, nt = mc.f.fiber_dim, mc.k.n_edges, mc.k.n_triangles
    wedge = (mc.k.sorted_sign[:, None, None] * _WEDGE)[..., None, None] * mc.pairs
    # W1^T's local block (a, b, i, j) is the wedge block (b, a, j, i), at
    # row a n + i and column b n + j
    w1_t = wedge.transpose(0, 2, 4, 1, 3).reshape(nt, 3 * n, 3 * n)
    diag = mc.m1.reshape(nt, 3, n, 3, n).diagonal(axis1=1, axis2=3)
    diag = diag.transpose(0, 3, 1, 2).reshape(3 * nt, n, n)
    diag_inv = np.linalg.inv(_edge_sums(mc.k, np.concatenate([diag, np.zeros((1, n, n))])))
    m1 = functools.partial(m1_apply, mc)

    def precond(r):
        return (diag_inv @ r.reshape(ne, n, -1)).reshape(r.shape)

    def apply(x):
        rhs = _triangle_apply(mc, w1_t, x).reshape(n * ne, math.prod(x.shape[1:]))
        return numlin.pcg(m1, rhs, precond).reshape(x.shape)

    return apply


@dataclass
class HarmonicSpaces:
    h_n: np.ndarray  # M1-orthonormal basis, absolute harmonic fields
    h_d: np.ndarray  # M1-orthonormal basis, interior-supported (absolute coords)
    ccc: np.ndarray  # M1-orthonormal basis, closed and co-closed cochains
    dim_n: int
    dim_d: int


def harmonic_spaces(mc, bases=None):
    """Harmonic one-cochains of both flavors and the space CcC holding them,
    M1-orthonormal, with every Gram matrix taken through `m1_apply`.

    H_N and H_D are the harmonic representatives of the absolute and
    relative tree-cotree classes of `bases`, the pair (h1, h1_rel) of
    `twisted.h1_flavors`, cut here when not given (H_D in absolute
    coordinates), solved with the flat sections of the walks that cut
    them.  On a complex without boundary `h1_rel is h1`, and H_D is H_N:
    one solve serves both.  CcC is H_N plus d0 Psi, Psi the discrete
    harmonic extensions of boundary-vertex values (the relative harmonic
    representatives of d0 on the boundary vertices, solved with the
    relative classes), orthonormalized together; without boundary there
    are no extensions, and CcC is H_N itself.  Its kept count must equal
    dim H^1 + n #boundary vertices - dim H^0 + dim H^0_rel, else
    NoConvergence.
    """
    k, f, tol = mc.k, mc.f, mc.tol
    h1, h1_rel = bases or twisted.h1_flavors(k, f, tol)
    m1 = functools.partial(m1_apply, mc)
    h_n = numlin.orthonormalize(harmonic_representative(mc, h1.reps, h1.h0), m1, tol)
    # d0 of the unit 0-cochains on the boundary-vertex dofs, edgewise
    boundary = np.flatnonzero(~twisted.cochain_space(k, f, 0, "relative"))
    if h1_rel is h1:
        h_d, extensions = h_n, np.zeros((h_n.shape[0], 0))
    else:
        unit = np.zeros((f.fiber_dim * k.vertex_count, boundary.size))
        unit[boundary, np.arange(boundary.size)] = 1.0
        rel = harmonic_representative(
            mc, np.hstack([h1_rel.reps, twisted._d0_apply(k, f, unit)]), h1_rel.h0)
        h_d = numlin.orthonormalize(rel[:, :h1_rel.dim], m1, tol)
        extensions = rel[:, h1_rel.dim:]
    # H_N is M1-orthonormal already, so without extensions it is CcC
    ccc = numlin.orthonormalize(np.hstack([h_n, extensions]), m1, tol) if boundary.size else h_n
    count = h1.dim + boundary.size - h1.h0.dim + h1_rel.h0.dim
    if ccc.shape[1] != count:
        raise NoConvergence(f"CcC: kept {ccc.shape[1]} cochains, but the exact "
                            f"count is {count}")
    return HarmonicSpaces(h_n=h_n, h_d=h_d, ccc=ccc,
                          dim_n=h_n.shape[1], dim_d=h_d.shape[1])


def harmonic_representative(mc, u, h0=None):
    """Harmonic field(s) representing the classes of closed cochains `u`:
    subtract the M1-best coboundary approximation d0 a, with a zero off
    the vertex dofs of the flavor of `h0`, so a relative `u` stays
    relative.  `h0` is that flavor's degree-0 `twisted.cohomology`, which
    a degree-1 basis carries as its `h0`; the absolute one is computed when
    it is not given.

    a solves L0 a = d0^T M1 u, both cut to those dofs, with M1 applied per
    triangle and d0, d0^T edgewise, by block elimination over the
    breadth-first levels of the walk that cut `h0` (`_level_solve`).
    """
    k, f = mc.k, mc.f
    if h0 is None:
        h0 = twisted.cohomology(k, f, 0, "absolute", mc.tol)
    cols = u if np.ndim(u) == 2 else np.reshape(u, (-1, 1))
    a = _level_solve(mc, h0, twisted._d0_adjoint(k, f, m1_apply(mc, cols)))
    return (cols - twisted._d0_apply(k, f, a)).reshape(np.shape(u))


# the row and the column vertex of the local L0 blocks (i, j) in C order
_ROW, _COL = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)


def _levels(kept, depth, n):
    """The `kept` vertices in level order (by depth, then by id), and per
    vertex its level (-1 off `kept`) and its position in the level, and
    per level its vertex count and the count of its first depth.  A level
    is a run of consecutive depths, merged while its n dofs per vertex fit
    `numlin.BASE_ROWS`: below that, a level's numpy calls cost more than
    its flops.  A walk's edges join one depth or two adjacent ones, so only
    a level's first depth, its leading vertices, meets the level before."""
    order = np.flatnonzero(kept)
    order = order[np.argsort(depth[order], kind="stable")]
    at = depth[order] - depth[order[0]]
    counts = np.bincount(at)
    starts, rows = [], 0
    for d, size in enumerate((n * counts).tolist()):
        if not starts or rows + size > numlin.BASE_ROWS:
            starts.append(d)
            rows = 0
        rows += size
    firsts = counts[starts]
    at = np.searchsorted(starts, at, side="right") - 1
    sizes = np.bincount(at)
    level = np.full(depth.size, -1)
    level[order] = at
    pos = np.zeros(depth.size, dtype=int)
    pos[order] = np.arange(order.size) - (np.cumsum(sizes) - sizes)[at]
    return order, level, pos, sizes, firsts


# Where `_level_solve` puts each triangle block, for one flavor's walk on
# one mesh at fiber dimension n and one `numlin.BASE_ROWS` (`_plan_levels`)
_LevelPlan = collections.namedtuple("_LevelPlan", [
    "dofs",  # the kept vertex dofs in level order
    "roots",  # how many of them are at depth 0, where free roots are
    "placed",  # the (t, i, j) blocks placed, by level
    "corner",  # each block's first entry in its level's D then B
    "width",  # the row length there
    "cuts",  # where each level starts in `placed`, and the end
    "dim", "first",  # per level its dofs, and those of its first depth
])


def _plan_levels(k, flavor, n):
    """The `_LevelPlan` of the flavor's walk on `k`, or None when the
    flavor keeps no vertex."""
    kept = np.ones(k.vertex_count, dtype=bool) if flavor == "absolute" \
        else twisted.interior_vertex_mask(k)
    if not kept.any():
        return None
    depth = twisted._walk(k, flavor).forest.depth
    order, level, pos, sizes, firsts = _levels(kept, depth, n)
    dofs = (n * order[:, None] + np.arange(n)).ravel()
    # each triangle block (t, i, j) goes to the level of its row vertex i,
    # into D there or, one level below, into B; the rest is the transpose.
    # A B row vertex is at its level's first depth, so it leads the level
    verts = k.ends[k.tri_edges[:, [0, 0, 2]], [0, 1, 1]]
    row, col = verts[:, _ROW].ravel(), verts[:, _COL].ravel()
    row_level, col_level = level[row], level[col]
    placed = np.flatnonzero((col_level >= 0) & (row_level >= col_level))
    placed = placed[np.argsort(row_level[placed], kind="stable")]
    row, col, at = row[placed], col[placed], row_level[placed]
    sub = at != col_level[placed]
    dim = n * sizes
    width = np.where(sub, dim[at - 1], dim[at])
    return _LevelPlan(
        dofs=dofs, roots=n * np.count_nonzero(depth[order] == 0), placed=placed,
        corner=np.where(sub, dim[at] ** 2, 0) + n * (pos[row] * width + pos[col]),
        width=width, cuts=np.searchsorted(at, np.arange(sizes.size + 1)).tolist(),
        dim=dim, first=n * firsts)


def _level_solve(mc, h0, rhs):
    """Solve L0 a = rhs on the vertex dofs of the flavor of `h0`, zero off
    them, for 0-cochain columns rhs orthogonal to the flat sections.

    The kept vertices go in breadth-first levels, from their depths in the
    flavor's walk that cut `h0` (`_levels`): each component's root at
    depth 0 in the absolute flavor; in the relative flavor the pinned
    boundary (depth 0) is dropped, so its levels start at depth 1 unless a
    closed component has a free root.  A walk's edges join one depth or
    two adjacent ones, so L0 is block tridiagonal over the levels (Cuthill
    & McKee 1969).  Where each triangle block goes, into the diagonal
    block D_l or the subdiagonal block B_l of its lower level, depends on
    the mesh and the walk alone, so it is planned once per mesh, flavor,
    fiber dimension and `numlin.BASE_ROWS` (`_plan_levels`); each call
    sums each level's blocks by one bincount when
    `numlin.block_tridiagonal_solve` asks for them.  B_l holds only the
    rows of level l's first depth, the only ones that meet level l - 1, so
    it is n f_l x n m_{l-1} for f_l first-depth and m_{l-1} lower-level
    vertices.  A target entry sums its triangles in stored order, the order
    of an np.add.at scatter of the blocks.

    The flat sections span the kernel.  A flat section is fixed by its
    values at the roots, so with c an orthonormal basis of those values,
    L0 + c c^T (c on the roots' dofs, which lead level 0) is SPD, and since
    the right side is orthogonal to the flat sections it has the same
    solution.
    """
    k, n = mc.k, mc.f.fiber_dim
    plan = k.plan(("levels", h0.flavor, n, numlin.BASE_ROWS),
                  lambda: _plan_levels(k, h0.flavor, n))
    a = np.zeros(rhs.shape)
    if plan is None:
        return a
    dofs, roots, placed, corner, width, cuts, dim, first = plan
    # the flat sections live on components with a free root, which leads
    # level 0
    roots = dofs[:roots] if h0.dim else dofs[:0]
    fiber = np.arange(n)
    blocks = mc.l0.reshape(-1, n, n)

    def levels():
        for lv, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            m, f, below = dim[lv], first[lv], dim[lv - 1] if lv else 0
            index = corner[lo:hi, None, None] + fiber[:, None] * width[lo:hi, None, None] + fiber
            values = blocks.take(placed[lo:hi], axis=0)
            entries = np.bincount(index.ravel(), values.ravel(), minlength=m * m + f * below)
            d, b = entries[:m * m].reshape(m, m), entries[m * m:].reshape(f, below)
            if lv == 0 and roots.size:
                c = np.linalg.qr(h0.reps[roots])[0]
                d[:roots.size, :roots.size] += c @ c.T
            yield d, b

    a[dofs] = numlin.block_tridiagonal_solve(levels(), dim, rhs.take(dofs, axis=0))
    return a


def hodge_decomposition(mc, bases=None):
    """Three-way M1-orthogonal splitting of twisted one-cochains, checked
    from exact counts and applies.

    cE_N, the image of the (natural-Neumann) codifferential M1^{-1} d1^T,
    has dimension n n_T - dim H^2; E_D, the image of the relative
    coboundary, n #interior vertices - dim H^0_rel; CcC (M1-orthonormal,
    from `harmonic_spaces`) is their joint orthogonal complement, and
    `dim_sum_ok` checks that the three fill the space.  cE_N is
    M1-orthogonal to x exactly when d1 x = 0: so cE_N against E_D is
    d1 d0 = 0 triangle by triangle, and cE_N against CcC is |d1 C| relative
    to |C|.  E_D against CcC is the largest M1-norm of the projection of a
    column of C onto E_D, which `harmonic_representative` subtracts.  The
    refinement report has the containment of both harmonic spaces in CcC.
    `bases` is the pair from `twisted.h1_flavors`, cut here when not given.
    """
    k, f, tol = mc.k, mc.f, mc.tol
    # the transports of each triangle's edges e01, e02, e12
    n, p = f.fiber_dim, f.transports.take(k.tri_edges, axis=0)
    h1, h1_rel = bases or twisted.h1_flavors(k, f, tol)
    harm = harmonic_spaces(mc, (h1, h1_rel))
    ccc = harm.ccc
    m1 = functools.partial(m1_apply, mc)
    to_e_d = ccc - harmonic_representative(mc, ccc, h1_rel.h0)

    def contained(x):
        return float(np.abs(ccc @ (ccc.T @ m1(x)) - x).max(initial=0.0))

    dims = {
        "cE_N": n * k.n_triangles - twisted.cohomology(k, f, 2, "absolute", tol).dim,
        "E_D": n * int(twisted.interior_vertex_mask(k).sum()) - h1_rel.h0.dim,
        "CcC": ccc.shape[1],
        "total": n * k.n_edges,
    }
    return {"CcC": ccc, "report": {
        "dims": dims,
        "orthogonality": {
            "cE_N_vs_E_D": float(np.abs(p[:, 0] @ p[:, 2] - p[:, 1]).max(initial=0.0)),
            "cE_N_vs_CcC": float(np.abs(twisted._d1_apply(k, f, ccc)).max(initial=0.0)
                                 / max(1.0, np.abs(ccc).max(initial=0.0))),
            "E_D_vs_CcC": float(np.sqrt(np.einsum("ij,ij->j", to_e_d, m1(to_e_d))
                                        .max(initial=0.0))),
        },
        "dim_sum_ok": dims["cE_N"] + dims["E_D"] + dims["CcC"] == dims["total"],
        "refinement_report": {
            "H_N_in_CcC_residual": contained(harm.h_n),
            "H_D_in_CcC_residual": contained(harm.h_d),
        },
    }}


def galerkin_diagnostics(mc):
    """Convergence diagnostics of the Galerkin star (`galerkin_residuals`)
    on the harmonic spaces of `mc`; forms no n_E-sized matrix."""
    return galerkin_residuals(mc, harmonic_spaces(mc))[0]


def galerkin_residuals(mc, harm):
    """Deviation of the square of the Galerkin star J_h from -I on CcC,
    the principal angle between J_h(H_N) and H_D, the
    projector-intertwining residual || P_N J_h - J_h P_D || on CcC, and
    the skew residual max |C^T M1 (J_h C) + (J_h C)^T M1 C| on CcC's
    columns C, for the harmonic spaces `harm`, as a dict; and, as the
    second of the pair returned, the image J_h H_N itself.

    J_h is built once (`galerkin_operator`) and applied twice: to C and to
    J_h C.  H_N and H_D lie in CcC, so their images are read off J_h C in
    C's M1-orthonormal coordinates, with M1 C formed once:
    J_h H_N = (J_h C)(C^T M1 H_N) and, for P_D = H_D H_D^T M1,
    J_h P_D C = (J_h C) D D^T with D = C^T M1 H_D.  The projections and the
    Gram matrices take M1 through `m1_apply`.  W1 is exactly skew, so the
    skew residual is the backward error of the M1 solves in the directions
    read here.
    """
    m1 = functools.partial(m1_apply, mc)
    jh = galerkin_operator(mc)
    ccc, h_n, h_d = harm.ccc, harm.h_n, harm.h_d
    j_ccc = jh(ccc)
    m1_ccc = m1(ccc)
    j_hn = j_ccc @ (m1_ccc.T @ h_n)
    h_d_coords = m1_ccc.T @ h_d
    j_pd = j_ccc @ (h_d_coords @ h_d_coords.T)
    m1_j_ccc = m1(j_ccc)
    skew = ccc.T @ m1_j_ccc
    return {
        "skew_residual": float(np.abs(skew + skew.T).max(initial=0.0)),
        "jsq_on_ccc": numlin.spectral_norm(jh(j_ccc) + ccc),
        "angle_j_hn_vs_hd": compat.orthonormal_angle(
            numlin.orthonormalize(j_hn, m1, mc.tol), h_d, m1, mc.tol),
        "p38_residual": numlin.spectral_norm(h_n @ (h_n.T @ m1_j_ccc) - j_pd),
    }, j_hn
