"""Naturality and direct-sum harnesses around `parastar.parabolic_star`:
relabeling, orientation reversal and per-component splitting, which the
acceptance and parastar tests check."""

import numpy as np

from parhodge import localsys, surface
from parhodge.numlin import DEFAULT_TOL
from parhodge.parastar import _component, parabolic_star

from conftest import edge_index


def disconnected_split(k, h, f, tol=DEFAULT_TOL):
    """Per-component reports plus the direct-sum consistency check.

    The complex structure of the union, conjugated into the concatenated
    per-component basis, must be the block diagonal of the component
    operators.
    """
    union = parabolic_star(k, h, f, tol)
    pieces = union.component_split or [union]
    embedded = []
    n = f.fiber_dim
    for c, rep in enumerate(pieces):
        edges = _component(k, c)[1]
        cols = rep.u_basis.shape[1]
        lift = np.zeros((k.n_edges, n, cols))
        lift[edges] = rep.u_basis.reshape(len(edges), n, cols)
        embedded.append(lift.reshape(n * k.n_edges, cols))
    concat = np.hstack(embedded) if embedded else np.zeros((n * k.n_edges, 0))
    blocks = [p.j_par for p in pieces]
    j_ds = np.zeros((concat.shape[1], concat.shape[1]))
    at = 0
    for b in blocks:
        j_ds[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]

    if union.dim_h1_par:
        # coordinates of the union basis in the concatenated one
        x = np.linalg.lstsq(concat, union.u_basis, rcond=None)[0]
        basis_residual = float(np.abs(concat @ x - union.u_basis).max())
        conj = np.linalg.solve(x, j_ds @ x) if x.shape[0] else np.zeros((0, 0))
        split_residual = float(np.abs(conj - union.j_par).max())
    else:
        basis_residual = split_residual = 0.0
    return {
        "union": union,
        "components": pieces,
        "basis_residual": basis_residual,
        "direct_sum_residual": split_residual,
    }


def _cochain_pullback(k_old, k_new, f_old, perm, n):
    """Matrix carrying 1-cochains of the relabeled complex back to the
    original coordinates (per-edge permutation, with a fiber transport when
    the canonical direction flips)."""
    p = np.zeros((n * k_old.n_edges, n * k_old.n_edges))
    index = edge_index(k_new)
    for ei, (a, b) in enumerate(k_old.ends.tolist()):
        na, nb = perm[a], perm[b]
        nei = index[min(na, nb), max(na, nb)]
        if na < nb:
            block = np.eye(n)
        else:
            # canonical direction flips: the value changes sign (oriented
            # integral) and moves fibers along the edge
            block = -f_old.transports[ei]
        p[n * ei:n * ei + n, n * nei:n * nei + n] = block
    return p


def relabel(k, h, f, perm):
    """Apply a vertex permutation to complex, metric and system."""
    perm = list(perm)
    tris = [tuple(perm[v] for v in t) for t in k.tri_vertices.tolist()]
    k_new = surface.build(k.vertex_count, tris)
    lengths = np.empty(k_new.n_edges)
    transports = np.empty_like(f.transports)
    index = edge_index(k_new)
    for ei, (a, b) in enumerate(k.ends.tolist()):
        na, nb = perm[a], perm[b]
        nei = index[min(na, nb), max(na, nb)]
        lengths[nei] = h.lengths[ei]
        transports[nei] = f.transports[ei] if na < nb else f.transports[ei].T
    h_new = surface.metric_from_lengths(k_new, lengths)
    f_new = localsys.FlatLocalSystem(
        fiber_dim=f.fiber_dim, transports=transports,
        flat_residual=f.flat_residual,
    )
    return k_new, h_new, f_new


def orientation_flip(k):
    """Same complex with every triangle orientation reversed."""
    return surface.build(k.vertex_count, [(a, c, b) for a, b, c in k.tri_vertices.tolist()])


def determinism_check(k, h, f, rng=None, tol=DEFAULT_TOL):
    """Naturality of the construction under relabeling and orientation flip.

    Returns residuals: zero for an identity relabel (bit-identical report),
    the conjugation defect for a random relabel, and the sign-flip defects
    under orientation reversal.
    """
    base = parabolic_star(k, h, f, tol)
    rep2 = parabolic_star(k, h, f, tol)
    identical = (
        np.array_equal(base.j_par, rep2.j_par)
        and np.array_equal(base.omega_u, rep2.omega_u)
        and np.array_equal(base.u_basis, rep2.u_basis)
    )

    if rng is None:
        rng = np.random.default_rng(0)
    perm = rng.permutation(k.vertex_count)
    k2, h2, f2 = relabel(k, h, f, perm)
    relabeled = parabolic_star(k2, h2, f2, tol)
    n = f.fiber_dim
    if base.dim_h1_par:
        pb = _cochain_pullback(k, k2, f, perm, n)
        pulled = pb @ relabeled.u_basis
        x = np.linalg.lstsq(base.u_basis, pulled, rcond=None)[0]
        span_res = float(np.abs(base.u_basis @ x - pulled).max())
        conj_res = float(np.abs(base.j_par @ x - x @ relabeled.j_par).max())
    else:
        span_res = conj_res = 0.0

    k_flip = orientation_flip(k)
    flipped = parabolic_star(k_flip, surface.PLMetric(h.lengths.copy()), f, tol)
    omega_flip = float(np.abs(flipped.omega_u + base.omega_u).max())
    j_flip = float(np.abs(flipped.j_par + base.j_par).max())
    eigs = np.linalg.eigvals(base.j_par) if base.dim_h1_par else np.array([])
    return {
        "identity_bit_identical": bool(identical),
        "relabel_span_residual": span_res,
        "relabel_conjugation_residual": conj_res,
        "orientation_omega_flip_residual": omega_flip,
        "orientation_j_flip_residual": j_flip,
        "eigenvalues": eigs,
    }
