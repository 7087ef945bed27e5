"""Discrete metric structures on twisted cochains.

`metric_complex` is the one assembly of the Whitney mass matrix M1, the
wedge matrix W1 and the twisted cotan Laplacian L0 = d0^T M1 d0 (Pinkall &
Polthier 1993); the scalar case is the trivial system in fiber dimension 1.
Per triangle, cochain values are transported into the fiber at the
triangle's lowest vertex, where the barycentric integrals pair the Whitney
forms (M1, W1) and the hat-function gradients (L0).  All triangles are
assembled at once from the triangle-edge table `SurfaceComplex.tri_edges`,
the edge lengths and the transports, and every entry is summed over
triangles in stored order.  Orthogonal transports preserve the fiber inner
product, so for a trivial system the matrices reduce to the scalar ones
tensored with the fiber identity.

`MetricComplex` is a plain record of those matrices and keeps nothing
between calls; the functions below build the coboundaries they need with
`twisted.coboundaries`, and apply M1^{-1} and L0^{-1} by solves.

Neumann boundary conditions are encoded as absence of constraint (the
M-adjoint on absolute cochains is the natural condition), Dirichlet as
interior support, so the harmonic representatives of the tree-cotree
classes represent absolute and relative cohomology exactly.  The middle
space CcC of the three-way M1-orthogonal splitting of one-cochains is the
closed and co-closed cochains: closed, and M1-orthogonal to the
coboundaries of interior vertices.  Both harmonic flavors lie in it; the
splitting and its middle refinements are verified empirically per mesh
and reported rather than assumed.

The Galerkin star J_h (weak form of the metric star on Whitney one-forms)
is a diagnostic only: it is M1-skew but squares to -I only in the mesh
limit, and nothing downstream depends on it.
"""

from __future__ import annotations

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
    m1: np.ndarray
    w1_twisted: np.ndarray
    l0: np.ndarray
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
    """Assemble the twisted mass, wedge and cotan Laplacian matrices for
    (complex, metric, system), all triangles at once."""
    n = f.fiber_dim
    nv, ne, nt = k.n_vertices, k.n_edges, k.n_triangles
    te = k.tri_edges
    tris = np.asarray(k.triangles, dtype=int).reshape(-1, 3)
    verts = np.sort(tris, axis=1)
    # side[:, i] is opposite w_i; Heron takes the sides in the triangle's
    # stored order, which fixes the rounding of the area
    side = h.lengths[te[:, ::-1]]
    stored = np.take_along_axis(side, tris.argsort(axis=1).argsort(axis=1), axis=1)
    area = surface._heron(stored[:, 0], stored[:, 1], stored[:, 2])
    # gradient pairings: |dl_i|^2 = l_i^2 / (4 A^2) and, with k the third
    # vertex, <dl_i, dl_j> = -(l_i^2 + l_j^2 - l_k^2) / (8 A^2); float_power
    # squares through libm pow, which side * side can miss in the last bit
    sq = np.float_power(side, 2)
    third = sq[:, (3 - np.add.outer(np.arange(3), np.arange(3))) % 3]
    a2 = (area * area)[:, None, None]
    g = np.where(np.eye(3, dtype=bool), sq[:, :, None] / (4.0 * a2),
                 -(sq[:, :, None] + sq[:, None, :] - third) / (8.0 * a2))
    ll = _lambda_products(area)
    # pullbacks rho_i of the vertex fibers into the fiber at w0, and the
    # products rho_i^T rho_j; an edge cochain's value lives at its low vertex
    rho = np.empty((nt, 3, n, n))
    rho[:, 0] = np.eye(n)
    rho[:, 1:] = f.transports[te[:, :2]]
    pair = rho.transpose(0, 1, 3, 2)[:, :, None] @ rho[:, None]
    pair_e = pair[:, _EDGE_LO[:, None], _EDGE_LO]

    # np.add.at adds in index order, so each entry sums its triangles in
    # stored order
    rows, cols = te[:, :, None], te[:, None, :]
    l0 = np.zeros((n * nv, n * nv))
    np.add.at(twisted._blocks(l0, n), (verts[:, :, None], verts[:, None, :]),
              (area[:, None, None] * g)[..., None, None] * pair)
    m1 = np.zeros((n * ne, n * ne))
    np.add.at(twisted._blocks(m1, n), (rows, cols),
              _whitney_pairs(ll, g)[..., None, None] * pair_e)
    w1 = np.zeros((n * ne, n * ne))
    np.add.at(twisted._blocks(w1, n), (rows, cols),
              (k.sorted_sign[:, None, None] * _WEDGE)[..., None, None] * pair_e)
    l0 = 0.5 * (l0 + l0.T)
    m1 = 0.5 * (m1 + m1.T)
    w1 = 0.5 * (w1 - w1.T)
    return MetricComplex(k=k, h=h, f=f, m1=m1, w1_twisted=w1, l0=l0, tol=tol)


@dataclass
class HarmonicSpaces:
    h_n: np.ndarray  # M1-orthonormal basis, absolute harmonic fields
    h_d: np.ndarray  # M1-orthonormal basis, interior-supported (absolute coords)
    ccc: np.ndarray  # M1-orthonormal basis, closed and co-closed cochains
    dim_n: int
    dim_d: int


def harmonic_spaces(mc):
    """Harmonic one-cochains of both flavors and the space CcC holding them.

    H_N and H_D are the harmonic representatives of the absolute and
    relative tree-cotree classes (H_D in absolute coordinates).  CcC is H_N
    plus d0 Psi, Psi the discrete harmonic extensions of boundary-vertex
    values (the relative harmonic representatives of d0 on the boundary
    vertices); its kept count must equal dim H^1 + n #boundary vertices
    - dim H^0 + dim H^0_rel, else NoConvergence.
    """
    k, f, tol = mc.k, mc.f, mc.tol
    h1 = twisted.cohomology(k, f, 1, "absolute", tol)
    h1_rel = twisted.cohomology(k, f, 1, "relative", tol)
    h_n = numlin.orthonormalize(harmonic_representative(mc, h1.reps), mc.m1, tol)
    h_d = numlin.orthonormalize(
        harmonic_representative(mc, h1_rel.reps, "relative"), mc.m1, tol)
    vmask = twisted.cochain_space(k, f, 0, "relative").dof_mask
    d0_boundary = twisted.coboundaries(k, f)[0][:, ~vmask]
    ccc = numlin.orthonormalize(
        np.hstack([h_n, harmonic_representative(mc, d0_boundary, "relative")]),
        mc.m1, tol)
    h0, h0_rel = (twisted.cohomology(k, f, 0, flavor, tol).dim
                  for flavor in ("absolute", "relative"))
    count = h1.dim + d0_boundary.shape[1] - h0 + h0_rel
    if ccc.shape[1] != count:
        raise NoConvergence(f"CcC: kept {ccc.shape[1]} cochains, but the exact "
                            f"count is {count}")
    return HarmonicSpaces(h_n=h_n, h_d=h_d, ccc=ccc,
                          dim_n=h_n.shape[1], dim_d=h_d.shape[1])


def harmonic_representative(mc, u, flavor="absolute"):
    """Harmonic field(s) representing the classes of closed cochains `u`:
    subtract the M1-best coboundary approximation d0 a, with a zero off
    the flavor's vertex dofs, so a relative `u` stays relative.

    a solves L0 a = d0^T M1 u, both cut to those dofs.  The flavor's flat
    sections S span the kernel and the right side is orthogonal to them,
    so (L0 + S S^T) a = d0^T M1 u is SPD with the same solution.
    """
    mask = twisted.cochain_space(mc.k, mc.f, 0, flavor).dof_mask
    d0, _ = twisted.coboundaries(mc.k, mc.f)
    flat = twisted.cohomology(mc.k, mc.f, 0, flavor, mc.tol).reps[mask]
    a = np.zeros((d0.shape[1],) + np.shape(u)[1:])
    a[mask] = np.linalg.solve(mc.l0[np.ix_(mask, mask)] + flat @ flat.T,
                              (d0.T @ (mc.m1 @ u))[mask])
    return u - d0 @ a


def _span_dim_intersection(a, b, tol):
    """dim(span a  intersect  span b) through rank arithmetic."""
    ra = numlin.rank(a, tol)
    rb = numlin.rank(b, tol)
    rab = numlin.rank(np.hstack([a, b]), tol) if a.size + b.size else 0
    return ra + rb - rab


def hodge_decomposition(mc):
    """Three-way M1-orthogonal splitting of twisted one-cochains.

    cE_N is the image of the (natural-Neumann) codifferential of
    two-cochains, M1^{-1} d1^T, E_D the image of the relative coboundary,
    and CcC (from `harmonic_spaces`) the closed and co-closed cochains,
    their joint orthogonal complement; `dim_sum_ok` checks that the three
    fill the space.  The refinement report carries the empirical
    middle-splitting checks: containment of both harmonic spaces in CcC
    and the dimension identities with the intersections of the exact and
    co-exact images with CcC.
    """
    d0, d1 = twisted.coboundaries(mc.k, mc.f)
    vmask, emask = (twisted.cochain_space(mc.k, mc.f, p, "relative").dof_mask
                    for p in (0, 1))
    tol = mc.tol
    harm = harmonic_spaces(mc)
    ccc = harm.ccc
    ce_n = numlin.orthonormalize(np.linalg.solve(mc.m1, d1.T), mc.m1, tol)
    e_d = numlin.orthonormalize(d0[:, vmask], mc.m1, tol)

    def m_residual(x, y):
        if x.size == 0 or y.size == 0:
            return 0.0
        return float(np.abs(x.T @ mc.m1 @ y).max())

    def contained(x, space):
        if x.size == 0:
            return 0.0
        proj = space @ (space.T @ mc.m1 @ x)
        return float(np.abs(proj - x).max())

    exact_in_ccc = _span_dim_intersection(
        numlin.orthonormalize(d0, mc.m1, tol), ccc, tol)
    # stand-in for the unconstrained codifferential image: the span of the
    # relative codifferential M1_int^{-1} d1_rel^T M2, embedded into
    # absolute coordinates; M2 is a positive diagonal and drops out
    coexact = np.zeros((mc.m1.shape[0], d1.shape[0]))
    coexact[emask] = np.linalg.solve(mc.m1[np.ix_(emask, emask)], d1[:, emask].T)
    coexact_in_ccc = _span_dim_intersection(
        numlin.orthonormalize(coexact, mc.m1, tol), ccc, tol)
    report = {
        "dims": {
            "cE_N": ce_n.shape[1],
            "E_D": e_d.shape[1],
            "CcC": ccc.shape[1],
            "total": mc.m1.shape[0],
        },
        "orthogonality": {
            "cE_N_vs_E_D": m_residual(ce_n, e_d),
            "cE_N_vs_CcC": m_residual(ce_n, ccc),
            "E_D_vs_CcC": m_residual(e_d, ccc),
        },
        "dim_sum_ok": ce_n.shape[1] + e_d.shape[1] + ccc.shape[1] == mc.m1.shape[0],
        "refinement_report": {
            "H_N_in_CcC_residual": contained(harm.h_n, ccc),
            "H_D_in_CcC_residual": contained(harm.h_d, ccc),
            "dim_exact_in_CcC": exact_in_ccc,
            "dim_coexact_in_CcC": coexact_in_ccc,
            "split_neumann_ok": ccc.shape[1] == harm.dim_n + exact_in_ccc,
            # discretely the Dirichlet fields are only approximately
            # co-closed in the absolute sense, so this identity genuinely
            # fails on boundary meshes; the defect is reported, not hidden
            "split_dirichlet_ok": ccc.shape[1] == harm.dim_d + coexact_in_ccc,
            "dirichlet_defect": ccc.shape[1] - harm.dim_d - coexact_in_ccc,
        },
    }
    return {"cE_N": ce_n, "E_D": e_d, "CcC": ccc, "report": report}


def galerkin_star(mc):
    """Weak (Galerkin) form of the metric star on twisted one-cochains.

    Defined by (J_h u, v)_M1 = integral of B(u wedge v), i.e.
    J_h = M1^{-1} W1^T; it is M1-skew exactly and squares to -I only
    approximately, improving under refinement.
    """
    return np.linalg.solve(mc.m1, mc.w1_twisted.T)


def galerkin_diagnostics(mc):
    """Convergence diagnostics of the Galerkin star: deviation of its square
    from -I on CcC, the principal angle between J_h(H_N) and H_D, and the
    projector-intertwining residual || P_N J_h - J_h P_D || on CcC.  J_h
    and the M1-orthogonal projections P = B B^T M1 act on CcC's columns
    only."""
    from . import compat

    jh = galerkin_star(mc)
    harm = harmonic_spaces(mc)
    ccc = harm.ccc
    j_ccc = jh @ ccc
    p_n_j = harm.h_n @ (harm.h_n.T @ (mc.m1 @ j_ccc))
    p_d = harm.h_d @ (harm.h_d.T @ (mc.m1 @ ccc))
    return {
        "skew_residual": float(np.abs(jh.T @ mc.m1 + mc.m1 @ jh).max()),
        "jsq_on_ccc": float(np.linalg.norm(jh @ j_ccc + ccc, 2)),
        "angle_j_hn_vs_hd": compat.subspace_angle(
            jh @ harm.h_n, harm.h_d, mc.m1, mc.tol),
        "p38_residual": float(np.linalg.norm(p_n_j - jh @ p_d, 2)),
    }
