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
identity.

`MetricComplex` is a plain record of L0 and the local blocks and keeps
nothing between calls.  `m1_apply` applies M1 per triangle (gather the
three edge values by `tri_edges`, multiply by the local block, and sum
the results back onto each edge by two gathers through
`SurfaceComplex.edge_slots`, its first triangle then its second, onto
zeros: np.add.at's summation bit for bit, in about half the time),
`galerkin_apply` applies W1^T the same way from the metric-free wedge
blocks, and `twisted._d0_apply` / `twisted._d0_adjoint` apply d0 and
d0^T edgewise, so harmonic representatives, their Gram matrices, the
decomposition that `verify` reports and the Galerkin diagnostics form no
n_E-sized matrix.

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
`galerkin_apply` applies it to the few columns the diagnostics read, by
block-Jacobi preconditioned CG on M1 (`numlin.pcg`); J_h is never formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numlin, surface, twisted
from .errors import NoConvergence
from .numlin import DEFAULT_TOL


@dataclass
class MetricComplex:
    k: object
    h: object
    f: object
    l0: np.ndarray  # twisted cotan Laplacian, dense n n_V square
    # (n_T, 3, 3, n, n) over the table edges of each triangle: the local M1
    # blocks, and the products rho_a^T rho_b of the transports that carry
    # the edge values into the fiber at w0
    m1_blocks: np.ndarray
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


def metric_complex(k, h, f, tol=DEFAULT_TOL):
    """The local M1 blocks and the assembled cotan Laplacian L0 for
    (complex, metric, system), all triangles at once."""
    n = f.fiber_dim
    nv, nt = k.n_vertices, k.n_triangles
    te = k.tri_edges
    verts = np.sort(np.asarray(k.triangles, dtype=int).reshape(-1, 3), axis=1)
    # side[:, i] is opposite w_i; Heron takes the sides in the triangle's
    # stored order, which fixes the rounding of the area
    side = h.lengths[te[:, ::-1]]
    stored = h.lengths[surface.opposite_edges(k)]
    area = surface._heron(stored[:, 0], stored[:, 1], stored[:, 2])
    # gradient pairings: |dl_i|^2 = l_i^2 / (4 A^2) and, with k the third
    # vertex, <dl_i, dl_j> = -(l_i^2 + l_j^2 - l_k^2) / (8 A^2); float_power
    # squares through libm pow, which side * side can miss in the last bit
    sq = np.float_power(side, 2)
    third = sq[:, (3 - np.add.outer(np.arange(3), np.arange(3))) % 3]
    a2 = (area * area)[:, None, None]
    g = np.where(np.eye(3, dtype=bool), sq[:, :, None] / (4.0 * a2),
                 -(sq[:, :, None] + sq[:, None, :] - third) / (8.0 * a2))
    # pullbacks rho_i of the vertex fibers into the fiber at w0, and the
    # products rho_i^T rho_j; an edge cochain's value lives at its low vertex
    rho = np.empty((nt, 3, n, n))
    rho[:, 0] = np.eye(n)
    rho[:, 1:] = f.transports[te[:, :2]]
    pair = rho.transpose(0, 1, 3, 2)[:, :, None] @ rho[:, None]
    pair_e = pair[:, _EDGE_LO[:, None], _EDGE_LO]

    # np.add.at adds in index order, so each entry sums its triangles in
    # stored order; g and the products rho_i^T rho_j are bitwise symmetric,
    # so L0 is too
    l0 = np.zeros((n * nv, n * nv))
    np.add.at(twisted._blocks(l0, n), (verts[:, :, None], verts[:, None, :]),
              (area[:, None, None] * g)[..., None, None] * pair)
    m1_blocks = _whitney_pairs(_lambda_products(area), g)[..., None, None] * pair_e
    return MetricComplex(k=k, h=h, f=f, l0=l0, m1_blocks=m1_blocks, pairs=pair_e,
                         tol=tol)


def _triangle_apply(mc, blocks, u):
    """Sum over triangles of the local (3, 3, n, n) `blocks` over the table
    edges applied to u, a one-cochain or columns of them: gather the values
    on each triangle's table edges, apply its block, and sum the results
    back per edge (`_edge_sums`)."""
    n, te = mc.f.fiber_dim, mc.k.tri_edges
    nt, cols = len(te), int(np.prod(np.shape(u)[1:]))
    x = np.reshape(u, (mc.k.n_edges, n, cols))
    # each local block as one 3n x 3n matrix on the (edge, fiber) values
    local = blocks.transpose(0, 1, 3, 2, 4).reshape(nt, 3 * n, 3 * n)
    y = np.empty((3 * nt + 1, n, cols))
    y[-1] = 0.0
    np.matmul(local, x[te].reshape(nt, 3 * n, cols), out=y[:-1].reshape(nt, 3 * n, cols))
    return _edge_sums(mc.k, y).reshape(np.shape(u))


def _edge_sums(k, y):
    """Per edge, the sum of y (3 n_T + 1, ...) over its slots 3 t + j, read
    through `edge_slots`; the last row of y is zeros, which the -1 of a
    boundary edge reads.  Zeros plus the first slot plus the second add
    each edge's triangles in stored order and turn -0.0 into +0.0, after
    which the zero row changes no bit: np.add.at over `tri_edges`, bit for
    bit."""
    first, second = k.edge_slots.T
    out = np.zeros((k.n_edges,) + y.shape[1:])
    out += y[first]
    out += y[second]
    return out


def m1_apply(mc, u):
    """M1 @ u per triangle, for a one-cochain or columns of them."""
    return _triangle_apply(mc, mc.m1_blocks, u)


def galerkin_apply(mc, x):
    """J_h x = M1^{-1} W1^T x, the Galerkin star of a one-cochain or of
    columns of them, with no n_E-sized matrix.

    W1^T is applied per triangle from the metric-free wedge blocks
    sorted_sign * _WEDGE * pairs (transposed), and M1 y = W1^T x is solved
    by `numlin.pcg` with `m1_apply` and the n x n diagonal blocks of M1 per
    edge as a block-Jacobi preconditioner.  A mass matrix is spectrally
    equivalent to its diagonal on shape-regular meshes (Wathen 1987), so
    the iteration count does not grow under refinement.
    """
    n, ne = mc.f.fiber_dim, mc.k.n_edges
    wedge = (mc.k.sorted_sign[:, None, None] * _WEDGE)[..., None, None] * mc.pairs
    rhs = np.reshape(_triangle_apply(mc, wedge.transpose(0, 2, 1, 4, 3), x),
                     (n * ne, int(np.prod(np.shape(x)[1:]))))
    diag = mc.m1_blocks[:, [0, 1, 2], [0, 1, 2]].reshape(3 * mc.k.n_triangles, n, n)
    diag_inv = np.linalg.inv(_edge_sums(mc.k, np.concatenate([diag, np.zeros((1, n, n))])))

    def precond(r):
        return (diag_inv @ r.reshape(ne, n, -1)).reshape(r.shape)

    y = numlin.pcg(functools.partial(m1_apply, mc), rhs, precond)
    return y.reshape(np.shape(x))


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
    relative classes); its kept count must equal
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
    ccc = numlin.orthonormalize(np.hstack([h_n, extensions]), m1, tol)
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
    triangle and d0, d0^T edgewise.  The flat sections S of `h0` span the
    kernel and the right side is orthogonal to them, so
    (L0 + S S^T) a = d0^T M1 u is SPD with the same solution.
    """
    k, f = mc.k, mc.f
    if h0 is None:
        h0 = twisted.cohomology(k, f, 0, "absolute", mc.tol)
    mask = twisted.cochain_space(k, f, 0, h0.flavor)
    flat = h0.reps[mask]
    cols = u if np.ndim(u) == 2 else np.reshape(u, (-1, 1))
    # L0 is copied only where the relative flavor cuts it, and S S^T formed
    # only when there are flat sections: the sum goes into the cut copy, or
    # into S S^T so that L0 stays as it is (addition commutes bitwise)
    lap = mc.l0 if mask.all() else mc.l0[np.ix_(mask, mask)]
    if flat.shape[1]:
        ss = flat @ flat.T
        lap = np.add(lap, ss, out=ss if lap is mc.l0 else lap)
    a = np.zeros((mask.size, cols.shape[1]))
    a[mask] = np.linalg.solve(lap, twisted._d0_adjoint(k, f, m1_apply(mc, cols))[mask])
    return (cols - twisted._d0_apply(k, f, a)).reshape(np.shape(u))


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
    n, p = f.fiber_dim, f.transports[k.tri_edges]
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
    return galerkin_residuals(mc, harmonic_spaces(mc))


def galerkin_residuals(mc, harm):
    """Deviation of the square of the Galerkin star J_h from -I on CcC,
    the principal angle between J_h(H_N) and H_D, the
    projector-intertwining residual || P_N J_h - J_h P_D || on CcC, and
    the skew residual max |C^T M1 (J_h C) + (J_h C)^T M1 C| on CcC's
    columns C, for the harmonic spaces `harm`.

    J_h acts by `galerkin_apply` on the columns of CcC, H_N and P_D CcC
    (then once more on J_h CcC) and the M1-orthogonal projections
    P = B B^T M1 by `m1_apply`.  W1 is exactly skew, so the skew residual
    is the backward error of the M1 solves in the directions read here.
    """
    from . import compat

    m1 = functools.partial(m1_apply, mc)
    ccc, h_n, h_d = harm.ccc, harm.h_n, harm.h_d
    p_d = h_d @ (h_d.T @ m1(ccc))
    j = galerkin_apply(mc, np.hstack([ccc, h_n, p_d]))
    j_ccc, j_hn, j_pd = np.split(j, np.cumsum([ccc.shape[1], h_n.shape[1]]), axis=1)
    m1_j_ccc = m1(j_ccc)
    skew = ccc.T @ m1_j_ccc
    return {
        "skew_residual": float(np.abs(skew + skew.T).max(initial=0.0)),
        "jsq_on_ccc": float(np.linalg.norm(galerkin_apply(mc, j_ccc) + ccc, 2)),
        "angle_j_hn_vs_hd": compat.subspace_angle(j_hn, h_d, m1, mc.tol),
        "p38_residual": float(np.linalg.norm(h_n @ (h_n.T @ m1_j_ccc) - j_pd, 2)),
    }
