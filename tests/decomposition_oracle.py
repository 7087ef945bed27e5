"""The dense route to the three-way splitting of twisted one-cochains.

`hodge.hodge_decomposition` checks the splitting from exact counts and
applies; this module keeps the route through the dense M1, the coboundary
matrices and rank arithmetic as its oracle.  It also holds the
middle-splitting counts, which no command reports: the dimensions of the
intersections of CcC with the exact and the co-exact cochains, and the
Dirichlet defect.
"""

import numpy as np

from parhodge import hodge, numlin, twisted

from conftest import mass_matrix


def _span_dim_intersection(a, b, tol):
    """dim(span a  intersect  span b) through rank arithmetic."""
    ra = numlin.rank(a, tol)
    rb = numlin.rank(b, tol)
    rab = numlin.rank(np.hstack([a, b]), tol) if a.size + b.size else 0
    return ra + rb - rab


def hodge_decomposition(mc, bases=None):
    """Three-way M1-orthogonal splitting of twisted one-cochains.

    cE_N is the image of the (natural-Neumann) codifferential of
    two-cochains, M1^{-1} d1^T, E_D the image of the relative coboundary,
    and CcC (from `harmonic_spaces`) the closed and co-closed cochains,
    their joint orthogonal complement; `dim_sum_ok` checks that the three
    fill the space.  The refinement report carries the empirical
    middle-splitting checks: containment of both harmonic spaces in CcC
    and the dimension identities with the intersections of the exact and
    co-exact images with CcC.  `bases` goes to `harmonic_spaces`.
    """
    m1 = mass_matrix(mc)
    d0, d1 = twisted.coboundaries(mc.k, mc.f)
    vmask, emask = (twisted.cochain_space(mc.k, mc.f, p, "relative").dof_mask
                    for p in (0, 1))
    tol = mc.tol
    harm = hodge.harmonic_spaces(mc, bases)
    ccc = harm.ccc
    m1_mul = m1.__matmul__
    ce_n = numlin.orthonormalize(np.linalg.solve(m1, d1.T), m1_mul, tol)
    e_d = numlin.orthonormalize(d0[:, vmask], m1_mul, tol)

    def m_residual(x, y):
        if x.size == 0 or y.size == 0:
            return 0.0
        return float(np.abs(x.T @ m1 @ y).max())

    def contained(x, space):
        if x.size == 0:
            return 0.0
        proj = space @ (space.T @ m1 @ x)
        return float(np.abs(proj - x).max())

    exact_in_ccc = _span_dim_intersection(
        numlin.orthonormalize(d0, m1_mul, tol), ccc, tol)
    # stand-in for the unconstrained codifferential image: the span of the
    # relative codifferential M1_int^{-1} d1_rel^T M2, embedded into
    # absolute coordinates; M2 is a positive diagonal and drops out
    coexact = np.zeros((m1.shape[0], d1.shape[0]))
    coexact[emask] = np.linalg.solve(m1[np.ix_(emask, emask)], d1[:, emask].T)
    coexact_in_ccc = _span_dim_intersection(
        numlin.orthonormalize(coexact, m1_mul, tol), ccc, tol)
    report = {
        "dims": {
            "cE_N": ce_n.shape[1],
            "E_D": e_d.shape[1],
            "CcC": ccc.shape[1],
            "total": m1.shape[0],
        },
        "orthogonality": {
            "cE_N_vs_E_D": m_residual(ce_n, e_d),
            "cE_N_vs_CcC": m_residual(ce_n, ccc),
            "E_D_vs_CcC": m_residual(e_d, ccc),
        },
        "dim_sum_ok": ce_n.shape[1] + e_d.shape[1] + ccc.shape[1] == m1.shape[0],
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
