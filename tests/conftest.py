import warnings

import numpy as np
import pytest

from parhodge import hodge, localsys, surface, twisted
from parhodge.errors import NotConnectedWarning


@pytest.fixture(autouse=True)
def _silence_disconnected():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConnectedWarning)
        yield


@pytest.fixture(autouse=True)
def _cold_meshes():
    """Every test starts with no builtin mesh shared, so its meshes walk
    afresh."""
    surface._shared.cache_clear()


def edge_index(k):
    """The (low, high) -> id dict of a built complex's edges, read off
    `ends`: the lookup that oracles use in place of `surface.edge_ids`."""
    return {e: i for i, e in enumerate(map(tuple, k.ends.tolist()))}


def _scatter(mc, local):
    """Dense n n_E square matrix of per-triangle (n_T, 3, 3, n, n) blocks
    over the table edges; np.add.at sums each entry's triangles in stored
    order."""
    n, te = mc.f.fiber_dim, mc.k.tri_edges
    out = np.zeros((n * mc.k.n_edges, n * mc.k.n_edges))
    np.add.at(twisted._blocks(out, n), (te[:, :, None], te[:, None, :]), local)
    return out


def mass_matrix(mc):
    """The dense Whitney mass matrix M1, scattered from the per-triangle
    blocks; the oracle for `hodge.m1_apply`."""
    n = mc.f.fiber_dim
    m1 = _scatter(mc, mc.m1.reshape(-1, 3, n, 3, n).transpose(0, 1, 3, 2, 4))
    m1 += m1.T
    m1 *= 0.5
    return m1


def wedge_matrix(mc):
    """The dense wedge matrix W1 (metric-free), scattered from the
    per-triangle wedge blocks; the oracle for `hodge.galerkin_operator` and
    for the cup pairing."""
    w1 = _scatter(mc, (mc.k.sorted_sign[:, None, None] * hodge._WEDGE)
                  [..., None, None] * mc.pairs)
    w1 -= w1.T
    w1 *= 0.5
    return w1


def laplacian_matrix(mc):
    """The dense twisted cotan Laplacian L0, n n_V square, scattered from
    the per-triangle blocks over each triangle's sorted vertices; np.add.at
    sums each entry's triangles in stored order, and the blocks are bitwise
    symmetric, so L0 is too.  The oracle for `hodge.harmonic_representative`,
    which solves with the blocks level by level."""
    n, k = mc.f.fiber_dim, mc.k
    verts = np.sort(k.tri_vertices, axis=1)
    l0 = np.zeros((n * k.vertex_count, n * k.vertex_count))
    np.add.at(twisted._blocks(l0, n), (verts[:, :, None], verts[:, None, :]), mc.l0)
    return l0


def galerkin_star(m1, w1):
    """The dense Galerkin star J_h = M1^{-1} W1^T from the dense M1 and
    W1: M1-skew exactly, and -I when squared only in the mesh limit."""
    return np.linalg.solve(m1, w1.T)


def torus_grid_cochain(k, m, dx, dy):
    """Closed cochain on the m x m torus grid with periods (dx, dy)."""
    u = np.zeros(k.n_edges)
    for ei, (a, b) in enumerate(k.ends.tolist()):
        ia, ja = divmod(a, m)
        ib, jb = divmod(b, m)
        di = (ib - ia) % m
        dj = (jb - ja) % m
        di = di if di <= m // 2 else di - m
        dj = dj if dj <= m // 2 else dj - m
        u[ei] = dx * di / m + dy * dj / m
    return u


def doughnut_metric(k, m, r_major=2.0, r_minor=1.0):
    """Chordal metric of the torus grid embedded as a torus of revolution."""
    def pos(v):
        i, j = divmod(v, m)
        u = 2 * np.pi * i / m
        w = 2 * np.pi * j / m
        return np.array([
            (r_major + r_minor * np.cos(w)) * np.cos(u),
            (r_major + r_minor * np.cos(w)) * np.sin(u),
            r_minor * np.sin(w),
        ])
    positions = np.array([pos(v) for v in range(k.vertex_count)])
    return surface.metric_from_positions(k, positions)


def union_with_metric_and_system(k1, h1, f1, k2, h2, f2):
    """Disjoint union of two (complex, metric, system) triples."""
    ku, offset = surface.disjoint_union(k1, k2)
    lengths = np.empty(ku.n_edges)
    n = f1.fiber_dim
    transports = np.empty((ku.n_edges, n, n))
    index1, index2 = edge_index(k1), edge_index(k2)
    for ei, (a, b) in enumerate(ku.ends.tolist()):
        if a < offset:
            orig = index1[a, b]
            lengths[ei] = h1.lengths[orig]
            transports[ei] = f1.transports[orig]
        else:
            orig = index2[a - offset, b - offset]
            lengths[ei] = h2.lengths[orig]
            transports[ei] = f2.transports[orig]
    hu = surface.metric_from_lengths(ku, lengths)
    fu = localsys.FlatLocalSystem(fiber_dim=n, transports=transports)
    return ku, hu, fu
