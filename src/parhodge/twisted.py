"""Twisted simplicial cochains, cohomology, parabolic classes and the cup form.

Cochain coordinates: a p-cochain takes a fiber vector on each canonical
p-simplex, stored blockwise in simplex order (vertices by id, edges in
lexicographic order, triangles in stored order).  The value on a simplex
lives in the fiber at its lowest vertex; coboundary formulas transport all
terms there.  The `relative` flavor is the subcomplex of cochains vanishing
on boundary simplices, represented on interior degrees of freedom.

Cohomology in degrees 0 and 1 comes from a tree-cotree elimination
(Eppstein 2003, "Dynamic generators of topologically embedded graphs";
Erickson & Whittlesey 2005, "Greedy optimal homotopy and homology
generators"), with no dense SVD of the coboundaries:

  * tree: a breadth-first spanning forest of the flavor's active edges
    (all edges; in the relative flavor the interior ones, with every
    boundary vertex pinned to one merged root).  Components without a
    pinned vertex get a free root, and the tree transport G_v carries the
    root fiber to each vertex.  The flat sections (H^0) are the G c whose
    defect P G_b c - G_a c vanishes on the non-tree edges.
  * cotree: a breadth-first spanning forest of the dual graph (triangles,
    joined across active non-tree edges).  Walked leaves first, each
    triangle equation of d1 solves its parent dual edge exactly (the
    coefficient is +-I or P, so no rank decision is made); the values on
    the edges L outside both forests are free, and the root-triangle
    equations C (n rows per root, n|L| columns) are what is left.  Their
    kernel, from a small SVD, gives the closed cochains Z_T vanishing on
    the tree.
  * projection: Z_T is projected off the exact cochains through the
    twisted graph Laplacian d0^T d0, assembled blockwise and deflated by
    the flat sections, then orthonormalized.
  * check: Z_T meets the exact cochains exactly in the d0 of parallel
    sections over free roots, so the kept rank must equal
    dim Z_T - sum over free roots of (n - dim H^0 of that component);
    otherwise `cohomology` raises NoConvergence.

The result obeys the same contract as a dense kernel computation: columns
are closed, Euclidean-orthonormal, orthogonal to the flavor's coboundaries
and given in absolute coordinates.  Degree 2 keeps a dense SVD.  The
transports are orthogonal (P^-1 = P^T) throughout.

The symplectic pairing comes from the simplicial cup product evaluated on
the fundamental 2-cycle and is metric-free.  On closed one-cochains the
antisymmetrized cup value per triangle coincides exactly with the integral
of the wedge of the corresponding Whitney forms, which the tests cross-check
against the metric module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import NoConvergence, NotClosed
from .numlin import DEFAULT_TOL


@dataclass
class TwistedCochainSpace:
    """Coordinate description of one cochain degree and flavor.

    `dof_mask` marks the coordinates of the absolute space that the flavor
    keeps (the relative flavor zeroes boundary-supported blocks); `dim` is
    the dimension of the flavor's own coordinate space.
    """

    degree: int
    flavor: str
    fiber_dim: int
    dim: int
    dof_mask: np.ndarray


def cochain_space(k, f, degree, flavor="absolute"):
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    n = f.fiber_dim
    counts = [k.vertex_count, k.n_edges, k.n_triangles]
    if flavor == "absolute":
        mask = np.ones(n * counts[degree], dtype=bool)
    elif flavor == "relative":
        masks = [interior_vertex_mask(k), interior_edge_mask(k),
                 np.ones(k.n_triangles, dtype=bool)]
        mask = _expand(masks[degree], n)
    else:
        raise ValueError("flavor must be 'absolute' or 'relative'")
    return TwistedCochainSpace(degree=degree, flavor=flavor, fiber_dim=n,
                               dim=int(mask.sum()), dof_mask=mask)


@dataclass
class CohomologyBasis:
    degree: int
    flavor: str
    reps: np.ndarray  # columns are cocycles in absolute coordinates
    dim: int


def interior_edge_mask(k):
    mask = np.ones(k.n_edges, dtype=bool)
    mask[k.boundary_edge_indices] = False
    return mask


def interior_vertex_mask(k):
    mask = np.ones(k.vertex_count, dtype=bool)
    mask[k.boundary_vertices] = False
    return mask


def _expand(mask, n):
    return np.repeat(mask, n)


def coboundaries(k, f):
    """Twisted coboundary matrices (d0, d1) and their relative compressions.

    (d0 a)(u -> v) = P_uv a(v) - a(u) on canonical edges; (d1 w) on a
    triangle with sorted vertices (w0, w1, w2) is
    P_w0w1 w(w1 w2) - w(w0 w2) + w(w0 w1), valued at w0.
    d1 @ d0 vanishes exactly when the system is flat.
    """
    n = f.fiber_dim
    eye = np.eye(n)
    d0 = np.zeros((n * k.n_edges, n * k.vertex_count))
    for ei, (u, v) in enumerate(k.edges):
        d0[n * ei:n * ei + n, n * v:n * v + n] = f.transports[ei]
        d0[n * ei:n * ei + n, n * u:n * u + n] = -eye
    d1 = np.zeros((n * k.n_triangles, n * k.n_edges))
    for ti, t in enumerate(k.triangles):
        w0, w1, w2 = sorted(t)
        e01, e02, e12 = k.edge_id(w0, w1), k.edge_id(w0, w2), k.edge_id(w1, w2)
        d1[n * ti:n * ti + n, n * e12:n * e12 + n] = f.transports[e01]
        d1[n * ti:n * ti + n, n * e02:n * e02 + n] = -eye
        d1[n * ti:n * ti + n, n * e01:n * e01 + n] = eye
    ve = _expand(interior_vertex_mask(k), n)
    ee = _expand(interior_edge_mask(k), n)
    d0_rel = d0[np.ix_(ee, ve)]
    d1_rel = d1[:, ee]
    return d0, d1, d0_rel, d1_rel


def cohomology(k, f, degree, flavor="absolute", tol=DEFAULT_TOL):
    """Basis of cocycle representatives, chosen Euclidean-orthonormal and
    orthogonal to the coboundary space; `dim` is the Betti number.

    Degrees 0 and 1 come from the tree-cotree elimination (module
    docstring); degree 2 from a dense SVD of the transposed d1.
    """
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    if flavor not in ("absolute", "relative"):
        raise ValueError("flavor must be 'absolute' or 'relative'")
    if degree == 2:
        _, d1, _, d1_rel = coboundaries(k, f)
        reps = numlin.nullspace_basis((d1 if flavor == "absolute" else d1_rel).T, tol)
        return CohomologyBasis(degree=2, flavor=flavor, reps=reps, dim=reps.shape[1])

    if flavor == "relative":
        active, pinned = interior_edge_mask(k), ~interior_vertex_mask(k)
    else:
        active = np.ones(k.n_edges, dtype=bool)
        pinned = np.zeros(k.vertex_count, dtype=bool)
    in_tree, flat, deficit = _tree_and_flat_sections(k, f, active, pinned, tol)
    if degree == 0:
        return CohomologyBasis(degree=0, flavor=flavor, reps=flat, dim=flat.shape[1])

    z = _cocycles_off_tree(k, f, active, in_tree, tol)
    dofs = _expand(active, f.fiber_dim)
    kept = numlin.orthonormalize(_project_off_exact(k, f, z, pinned, flat)[dofs],
                                 tol=tol, scale=1.0)
    if kept.shape[1] != z.shape[1] - deficit:
        raise NoConvergence(
            f"{flavor} H^1: kept {kept.shape[1]} classes, but the tree-cotree "
            f"count is {z.shape[1]} - {deficit}")
    reps = np.zeros((dofs.size, kept.shape[1]))
    reps[dofs] = kept
    return CohomologyBasis(degree=1, flavor=flavor, reps=reps, dim=reps.shape[1])


def _tree_and_flat_sections(k, f, active, pinned, tol):
    """Spanning forest of the active edges and the flat sections it sees.

    Pinned vertices (the boundary, in the relative flavor) are one merged
    root where sections vanish; every other component gets a free root
    with tree transport G_v = identity.  A parallel section is G c with
    c in the root fiber; it is flat iff P G_b c = G_a c on each non-tree
    active edge (a, b).  Returns the tree-edge mask, the flat sections as
    Euclidean-orthonormal 0-cochains, and the sum over free roots of
    n - (number of flat sections of that component).
    """
    n = f.fiber_dim
    nv = k.vertex_count
    nbrs = [[] for _ in range(nv)]
    for ei in np.flatnonzero(active):
        a, b = k.edges[ei]
        nbrs[a].append((b, ei))
        nbrs[b].append((a, ei))
    root = np.full(nv, -2)  # -2 unseen, -1 pinned root, else free root
    g = np.tile(np.eye(n), (nv, 1, 1))
    in_tree = np.zeros(k.n_edges, dtype=bool)

    def grow(seed, label):
        root[seed] = label
        queue = deque(seed)
        while queue:
            a = queue.popleft()
            for b, ei in nbrs[a]:
                if root[b] != -2:
                    continue
                root[b] = label
                in_tree[ei] = True
                p = f.transports[ei]
                # d0 of a parallel section vanishes on the tree edge
                g[b] = (p.T if a == k.edges[ei][0] else p) @ g[a]
                queue.append(b)

    grow(list(np.flatnonzero(pinned)), -1)
    free_roots = []
    for v in range(nv):
        if root[v] == -2:
            free_roots.append(v)
            grow([v], v)

    ends = np.array(k.edges, dtype=int).reshape(-1, 2)
    loose = active & ~in_tree
    defect = np.einsum("eij,ejk->eik", f.transports[loose], g[ends[loose, 1]]) \
        - g[ends[loose, 0]]
    loose_root = root[ends[loose, 0]]
    flat = np.zeros((n * nv, 0))
    deficit = 0
    for r in free_roots:
        rows = defect[loose_root == r].reshape(-1, n)
        # the R factor has the singular values of the tall system
        c = numlin.nullspace_basis(np.linalg.qr(rows, mode="r"), tol, scale=1.0)
        deficit += n - c.shape[1]
        verts = np.flatnonzero(root == r)
        sections = np.zeros((nv, n, c.shape[1]))
        sections[verts] = g[verts] @ c / np.sqrt(len(verts))
        flat = np.hstack([flat, sections.reshape(n * nv, -1)])
    return in_tree, flat, deficit


def _cocycles_off_tree(k, f, active, in_tree, tol):
    """Basis (absolute coordinates) of the flavor's closed 1-cochains that
    vanish on the tree and on inactive edges.

    Dual edges are the active non-tree edges shared by two triangles.  On a
    breadth-first dual forest every non-root triangle equation fixes the
    value on its parent dual edge, whose coefficient is +-I or P, so the
    values on the edges L outside both forests parametrize everything; the
    root triangle equations C are what is left, and the cocycles are
    ker C.
    """
    n = f.fiber_dim
    tris = []
    edge_tris = [[] for _ in range(k.n_edges)]
    for ti, t in enumerate(k.triangles):
        w0, w1, w2 = sorted(t)
        es = (k.edge_id(w0, w1), k.edge_id(w0, w2), k.edge_id(w1, w2))
        tris.append(es)
        for e in es:
            edge_tris[e].append(ti)
    dual = active & ~in_tree
    parent = np.full(k.n_triangles, -1)
    seen = np.zeros(k.n_triangles, dtype=bool)
    order = []
    for start in range(k.n_triangles):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for t in queue:
            order.append(t)
            for e in tris[t]:
                if dual[e] and len(edge_tris[e]) == 2:
                    s = edge_tris[e][0] + edge_tris[e][1] - t
                    if not seen[s]:
                        seen[s] = True
                        parent[s] = e
                        queue.append(s)

    free = dual.copy()
    free[parent[parent >= 0]] = False
    n_free = int(free.sum())
    m = n * n_free
    values = np.zeros((k.n_edges, n, m))
    values[free] = np.eye(m).reshape(n_free, n, m)
    root_rows = [np.zeros((0, m))]
    for t in reversed(order):
        e01, e02, e12 = tris[t]
        p = f.transports[e01]
        # (d1 w)_t = P w(e12) - w(e02) + w(e01); the parent edge is still 0
        rest = p @ values[e12] - values[e02] + values[e01]
        e = parent[t]
        if e < 0:
            root_rows.append(rest)
        elif e == e01:
            values[e] = -rest
        elif e == e02:
            values[e] = rest
        else:
            values[e] = -p.T @ rest
    kernel = numlin.nullspace_basis(np.vstack(root_rows), tol, scale=1.0)
    return values.reshape(n * k.n_edges, m) @ kernel


def _d0_apply(k, f, a):
    """d0 @ a edgewise, for 0-cochain columns a."""
    n = f.fiber_dim
    ends = np.array(k.edges, dtype=int).reshape(-1, 2)
    x = a.reshape(k.vertex_count, n, -1)
    out = np.einsum("eij,ejr->eir", f.transports, x[ends[:, 1]]) - x[ends[:, 0]]
    return out.reshape(n * k.n_edges, -1)


def _d0t_apply(k, f, z):
    """d0.T @ z edgewise, for 1-cochain columns z."""
    n = f.fiber_dim
    ends = np.array(k.edges, dtype=int).reshape(-1, 2)
    w = z.reshape(k.n_edges, n, -1)
    out = np.zeros((k.vertex_count, n, w.shape[2]))
    np.add.at(out, ends[:, 1], np.einsum("eji,ejr->eir", f.transports, w))
    np.add.at(out, ends[:, 0], -w)
    return out.reshape(n * k.vertex_count, -1)


def _project_off_exact(k, f, z, pinned, flat):
    """Subtract from the columns z their Euclidean projection onto the
    flavor's exact cochains d0 a, a zero at the pinned vertices.

    The twisted graph Laplacian d0^T d0 is assembled blockwise from the
    transports (P orthogonal, so each edge adds I to both diagonal blocks)
    and deflated by the flat sections, its kernel.  Inactive edges join
    two pinned vertices, so summing over all edges and dropping the pinned
    rows and columns gives the flavor's Laplacian.
    """
    if not z.shape[1]:
        return z
    n = f.fiber_dim
    nv = k.vertex_count
    a_, b_ = np.array(k.edges, dtype=int).reshape(-1, 2).T
    lap = np.zeros((nv, nv, n, n))
    np.add.at(lap, (a_, a_), np.eye(n))
    np.add.at(lap, (b_, b_), np.eye(n))
    np.add.at(lap, (a_, b_), -f.transports)
    np.add.at(lap, (b_, a_), -f.transports.transpose(0, 2, 1))
    keep = _expand(~pinned, n)
    lap = lap.transpose(0, 2, 1, 3).reshape(n * nv, n * nv)[np.ix_(keep, keep)]
    defl = flat[keep]
    a = np.zeros((n * nv, z.shape[1]))
    a[keep] = np.linalg.solve(lap + defl @ defl.T, _d0t_apply(k, f, z)[keep])
    return z - _d0_apply(k, f, a)


def class_coordinates(h_basis, u):
    """Coordinates of closed cochains `u` (columns) in an orthonormal
    cohomology basis whose reps are orthogonal to the coboundaries."""
    return h_basis.reps.T @ u


def boundary_complex(k, f):
    """Coboundary of the boundary subcomplex and the boundary-edge selector.

    Returns (d0_boundary, restriction) with `restriction` mapping absolute
    1-cochains to boundary 1-cochains by selecting boundary-edge blocks.
    """
    n = f.fiber_dim
    bverts = list(k.boundary_vertices)
    bedges = list(k.boundary_edge_indices)
    vpos = {v: i for i, v in enumerate(bverts)}
    d0b = np.zeros((n * len(bedges), n * len(bverts)))
    for row, ei in enumerate(bedges):
        u, v = k.edges[ei]
        d0b[n * row:n * row + n, n * vpos[v]:n * vpos[v] + n] = f.transports[ei]
        d0b[n * row:n * row + n, n * vpos[u]:n * vpos[u] + n] = -np.eye(n)
    restriction = np.zeros((n * len(bedges), n * k.n_edges))
    for row, ei in enumerate(bedges):
        restriction[n * row:n * row + n, n * ei:n * ei + n] = np.eye(n)
    return d0b, restriction


def restriction_and_parabolic(k, f, tol=DEFAULT_TOL):
    """Restriction map to boundary cohomology and the parabolic classes.

    Parabolic cohomology in degree one is the kernel of the restriction to
    the boundary; `exactness_check` confirms it coincides with the image of
    the relative cohomology (dimension and span agreement).
    """
    h1 = cohomology(k, f, 1, "absolute", tol)
    h1_rel = cohomology(k, f, 1, "relative", tol)
    d0b, restriction = boundary_complex(k, f)
    # coordinates on boundary H^1: orthogonal complement of the exact
    # boundary cochains
    z = numlin.nullspace_basis(d0b.T, tol)
    r_star = z.T @ restriction @ h1.reps
    # reps and z are orthonormal, so the honest scale of r_star is 1
    par_coeffs = numlin.nullspace_basis(r_star, tol, scale=1.0)
    par_reps = h1.reps @ par_coeffs

    image_coeffs = class_coordinates(h1, h1_rel.reps)
    image_dim = numlin.rank(image_coeffs, tol, scale=1.0)
    same = (par_coeffs.shape[1] == image_dim) and (
        numlin.rank(np.hstack([par_coeffs, image_coeffs]), tol, scale=1.0) == image_dim
    )
    return {
        "r_star_matrix": r_star,
        "h1": h1,
        "h1_rel": h1_rel,
        "parabolic_basis": CohomologyBasis(
            degree=1, flavor="parabolic", reps=par_reps, dim=par_reps.shape[1]
        ),
        "parabolic_coeffs": par_coeffs,
        "boundary_h1_dim": z.shape[1],
        "image_dim": image_dim,
        "exactness_check": bool(same),
    }


def _check_closed(d1, u_basis, tol):
    if u_basis.shape[1]:
        res = np.abs(d1 @ u_basis).max()
        scale = max(1.0, np.abs(u_basis).max())
        if res > tol.residual_tol * scale:
            raise NotClosed(f"basis columns are not closed (residual {res:.3e})")


def cup_omega(k, f, u_basis, tol=DEFAULT_TOL, check_closed=True):
    """Skew pairing of closed one-cochains by the simplicial cup product
    summed over the fundamental cycle; never consults a metric.

    The raw cup value on a triangle with sorted vertices (w0, w1, w2) is
    B(u(w0 w1), P_w0w1 v(w1 w2)) with the orientation parity of the stored
    triangle; the result is antisymmetrized, which on closed cochains
    matches the Whitney wedge integral triangle by triangle.
    """
    u_basis = np.asarray(u_basis, dtype=float)
    if check_closed:
        _check_closed(coboundaries(k, f)[1], u_basis, tol)
    raw = _cup_raw(k, f, u_basis, u_basis)
    return 0.5 * (raw - raw.T)


def _cup_raw(k, f, u_basis, v_basis):
    n = f.fiber_dim
    raw = np.zeros((u_basis.shape[1], v_basis.shape[1]))
    for ti, t in enumerate(k.triangles):
        w0, w1, w2 = sorted(t)
        e01, e12 = k.edge_id(w0, w1), k.edge_id(w1, w2)
        p = f.transports[e01]
        ub = u_basis[n * e01:n * e01 + n]
        vb = v_basis[n * e12:n * e12 + n]
        raw += k.sorted_sign[ti] * (ub.T @ p @ vb)
    return raw


def parabolic_pairing(k, f, u_basis, tol=DEFAULT_TOL):
    """Cup pairing with the left argument lifted to a relative cocycle.

    Each column's boundary restriction is exact on the boundary (that is
    what parabolic means); subtracting the coboundary of an extension of a
    boundary primitive kills it, which makes the pairing independent of the
    chosen representatives within their classes, hence metric-free.
    """
    d0, d1, _, _ = coboundaries(k, f)
    _check_closed(d1, u_basis, tol)
    n = f.fiber_dim
    d0b, restriction = boundary_complex(k, f)
    bverts = list(k.boundary_vertices)
    lifted = u_basis.copy()
    if bverts and u_basis.shape[1]:
        primitives = numlin.lsq_solve(d0b, np.eye(d0b.shape[0]),
                                      restriction @ u_basis, tol)
        res = d0b @ primitives - restriction @ u_basis
        if np.abs(res).max() > tol.residual_tol * max(1.0, np.abs(u_basis).max()):
            raise NotClosed("columns are not parabolic: boundary restriction "
                            "is not exact on the boundary")
        extend = np.zeros((n * k.vertex_count, u_basis.shape[1]))
        for i, v in enumerate(bverts):
            extend[n * v:n * v + n] = primitives[n * i:n * i + n]
        lifted = u_basis - d0 @ extend
    raw = _cup_raw(k, f, lifted, u_basis)
    return 0.5 * (raw - raw.T)


def euler_characteristic_dims(k, f, tol=DEFAULT_TOL):
    """Absolute Betti numbers (deg 0..2); their alternating sum equals the
    fiber dimension times the Euler characteristic for any flat system."""
    return [cohomology(k, f, p, "absolute", tol).dim for p in (0, 1, 2)]
