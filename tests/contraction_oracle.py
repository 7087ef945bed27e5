"""The transport contractions of `twisted` as batched `np.einsum`, and the
raw cup pairing as a dense matrix: the references that the stacked
products `_d0_apply`, `_d0_adjoint`, `_d1_apply` and `_cup_raw` must
match to rounding."""

import numpy as np

from parhodge import twisted


def d0_apply(k, f, a):
    n, cols, ends = f.fiber_dim, a.shape[1], k.ends
    x = a.reshape(k.vertex_count, n, cols)
    out = np.einsum("eij,ejr->eir", f.transports, x[ends[:, 1]]) - x[ends[:, 0]]
    return out.reshape(n * k.n_edges, cols)


def d0_adjoint(k, f, w):
    n, cols, ends = f.fiber_dim, w.shape[1], k.ends
    x = w.reshape(k.n_edges, n, cols)
    out = np.zeros((k.vertex_count, n, cols))
    np.add.at(out, ends[:, 1], np.einsum("eji,ejr->eir", f.transports, x))
    np.add.at(out, ends[:, 0], -x)
    return out.reshape(n * k.vertex_count, cols)


def d1_apply(k, f, u):
    w = u.reshape(k.n_edges, f.fiber_dim, u.shape[1])
    e01, e02, e12 = k.tri_edges.T
    d1w = np.einsum("tij,tjr->tir", f.transports[e01], w[e12]) - w[e02] + w[e01]
    return d1w.reshape(f.fiber_dim * k.n_triangles, u.shape[1])


def cup_raw(k, f, u_basis, v_basis):
    n, e01, e12 = f.fiber_dim, k.tri_edges[:, 0], k.tri_edges[:, 2]
    u = u_basis.reshape(k.n_edges, n, u_basis.shape[1])[e01]
    v = v_basis.reshape(k.n_edges, n, v_basis.shape[1])[e12]
    return np.einsum("t,tir,tij,tjs->rs", k.sorted_sign, u, f.transports[e01], v)


def cup_matrix(k, f):
    """The raw cup pairing as a dense n n_E square matrix C, u cup v =
    u^T C v: each triangle puts sorted_sign P_w0w1 at the block of its
    edges (w0 w1, w1 w2)."""
    n, te = f.fiber_dim, k.tri_edges
    c = np.zeros((n * k.n_edges, n * k.n_edges))
    np.add.at(twisted._blocks(c, n), (te[:, 0], te[:, 2]),
              k.sorted_sign[:, None, None] * f.transports[te[:, 0]])
    return c
