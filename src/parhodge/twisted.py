"""Twisted simplicial cochains, cohomology, parabolic classes and the cup form.

Cochain coordinates: a p-cochain takes a fiber vector on each canonical
p-simplex, stored blockwise in simplex order (vertices by id, edges in
lexicographic order, triangles in stored order).  The value on a simplex
lives in the fiber at its lowest vertex; coboundary formulas transport all
terms there.  The `relative` flavor is the subcomplex of cochains vanishing
on boundary simplices, represented on interior degrees of freedom.  On a
complex without boundary it is the absolute flavor, so `h1_flavors` hands
out the absolute degree-1 basis for both.

Cohomology comes from a tree-cotree elimination (Eppstein 2003, "Dynamic
generators of topologically embedded graphs"; Erickson & Whittlesey 2005,
"Greedy optimal homotopy and homology generators"), with no dense SVD of
the coboundaries:

  * tree: a breadth-first spanning forest of the flavor's active edges
    (all edges; in the relative flavor the interior ones, with every
    boundary vertex pinned to one merged root).  Components without a
    pinned vertex get a free root, and the tree transport G_v carries the
    root fiber to each vertex.  One queue walk, `_breadth_first`, labels
    the nodes of this forest, of the dual forest below and of the cotree
    with the arc and node that reached them, their depth and their walk,
    as integer bookkeeping on Python lists; the transports go down the
    forest one depth at a time, one batched product per depth.  The flat
    sections (H^0) are the G c whose defect P G_b c - G_a c vanishes on the
    non-tree edges.  H^2 = coker d1 is the same construction on the dual
    graph: triangles joined across interior edges, pinned by boundary edges
    in the absolute flavor.
  * cotree: a breadth-first spanning forest of the dual graph (triangles,
    joined across active non-tree edges, and to the outside across active
    non-tree boundary edges, so the outside roots every component with
    boundary), walked by the same routine from the triangles on those
    boundary edges, one at a time in edge order; both dual graphs read their
    arcs from `edge_slots` alike.  Walked leaves first, each triangle
    equation of d1 solves its parent dual edge exactly (the coefficient is
    +-I or P, so no rank decision is made); the values on the loop edges L
    outside both forests are free, and the root-triangle equations C (n
    rows per root triangle, which only closed components and the relative
    flavor have; n|L| columns) are what is left.  Their kernel, from a
    small SVD, gives the closed cochains Z_T vanishing on the tree.  A
    triangle's equation is exactly zero unless its subtree holds a triangle
    with a loop edge, so only those live triangles, the cotree paths from
    the loop edges up to the roots, are eliminated: O(|L| x cotree depth)
    work, not O(n_T).
  * classes: Z_T meets the exact cochains exactly in the d0 of parallel
    sections over free roots, the free-root defects.  A cocycle in Z_T is
    fixed by its loop-edge values (n 2g of them on a closed component,
    n(2g + b - 1) with b boundary circles), and there a small SVD takes
    the complement of the defects.  The kept rank must equal dim Z_T minus
    the sum over free roots of n - dim H^0 of that component, or
    `cohomology` raises NoConvergence.
  * class coordinates: the cup pairing of H^1 with H^1_rel is perfect
    (Poincare-Lefschetz duality), and a coboundary cups to zero against a
    relative cocycle, so the raw cup with a basis of H^1_rel reads off the
    class of any closed cochain in an absolute basis.
  * boundary: one walk around each boundary cycle integrates a closed
    cochain to z_j; it is exact there iff z_j lies in im(1 - rho_j), rho_j
    the holonomy (Goldman 1984), and the walk yields the primitive that
    lifts a parabolic class to a relative one.

Degree-1 columns are closed, zero off the flavor's degrees of freedom and
orthonormal in class coordinates: their loop-edge values are orthonormal
and orthogonal to the defects; they are not orthogonal to the
coboundaries.  The transports are orthogonal (P^-1 = P^T) throughout.

The symplectic pairing comes from the simplicial cup product evaluated on
the fundamental 2-cycle and is metric-free.  On closed one-cochains the
antisymmetrized cup value per triangle coincides exactly with the integral
of the wedge of the corresponding Whitney forms, which the tests cross-check
against the metric module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import NoConvergence, NotClosed
from .numlin import DEFAULT_TOL


def cochain_space(k, f, degree, flavor="absolute"):
    """The mask of the coordinates of the absolute degree-`degree` cochains
    that the flavor keeps: all of them, or in the relative flavor those off
    the boundary-supported blocks."""
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    n = f.fiber_dim
    counts = [k.vertex_count, k.n_edges, k.n_triangles]
    if flavor == "absolute":
        return np.ones(n * counts[degree], dtype=bool)
    if flavor == "relative":
        masks = [interior_vertex_mask(k), interior_edge_mask(k),
                 np.ones(k.n_triangles, dtype=bool)]
        return _expand(masks[degree], n)
    raise ValueError("flavor must be 'absolute' or 'relative'")


@dataclass
class CohomologyBasis:
    degree: int
    flavor: str
    reps: np.ndarray  # columns are cocycles in absolute coordinates
    dim: int
    # degree 1: the degree-0 basis of the same flavor from the same walk
    h0: CohomologyBasis | None = None


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


def _blocks(a, n):
    """Writable (rows, cols, n, n) view of the n x n blocks of a matrix."""
    return a.reshape(a.shape[0] // n, n, a.shape[1] // n, n).transpose(0, 2, 1, 3)


def coboundaries(k, f):
    """Twisted coboundary matrices (d0, d1) in absolute coordinates; the
    relative flavor's are the restrictions to the `cochain_space` masks.
    The dense reference the tests compare against: no src path calls it.

    (d0 a)(u -> v) = P_uv a(v) - a(u) on canonical edges; (d1 w) on a
    triangle with sorted vertices (w0, w1, w2) is
    P_w0w1 w(w1 w2) - w(w0 w2) + w(w0 w1), valued at w0.
    d1 @ d0 vanishes exactly when the system is flat.
    """
    n = f.fiber_dim
    ne, nt = k.n_edges, k.n_triangles
    u, v = k.ends.T
    e01, e02, e12 = k.tri_edges.T
    d0 = np.zeros((n * ne, n * k.vertex_count))
    d0_blocks = _blocks(d0, n)
    d0_blocks[np.arange(ne), v] = f.transports
    d0_blocks[np.arange(ne), u] = -np.eye(n)
    d1 = np.zeros((n * nt, n * ne))
    d1_blocks = _blocks(d1, n)
    d1_blocks[np.arange(nt), e12] = f.transports[e01]
    d1_blocks[np.arange(nt), e02] = -np.eye(n)
    d1_blocks[np.arange(nt), e01] = np.eye(n)
    return d0, d1


def cohomology(k, f, degree, flavor="absolute", tol=DEFAULT_TOL):
    """Basis of cocycle representatives; `dim` is the Betti number.

    All degrees come from the tree-cotree elimination (module docstring):
    degree 1 gives tree-cotree cocycles, closed and orthonormal in class
    coordinates, and carries as `h0` the degree-0 basis of the same walk;
    degree 0 gives Euclidean-orthonormal flat sections, and degree 2 those
    of the dual graph, an orthonormal basis of ker d1^T.
    """
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    if flavor not in ("absolute", "relative"):
        raise ValueError("flavor must be 'absolute' or 'relative'")
    if degree == 2:
        reps = _flat_triangle_sections(k, f, flavor, tol)
        return CohomologyBasis(degree=2, flavor=flavor, reps=reps, dim=reps.shape[1])

    loose, flat, exact = _tree_and_flat_sections(k, f, flavor, tol)
    h0 = CohomologyBasis(degree=0, flavor=flavor, reps=flat, dim=flat.shape[1])
    if degree == 0:
        return h0

    order, parent, up, loops = _cotree(k, loose)
    z = _cocycles_off_tree(k, f, order, parent, up, loops, tol)
    dofs = _expand(loops, f.fiber_dim)
    # z[dofs] is orthonormal, and its span holds the loop-edge values of the
    # exact cochains in Z_T; keep the complement of those
    keep = numlin.nullspace_basis(exact[dofs].T @ z[dofs], tol, scale=1.0)
    if keep.shape[1] != z.shape[1] - exact.shape[1]:
        raise NoConvergence(
            f"{flavor} H^1: kept {keep.shape[1]} classes, but the tree-cotree "
            f"count is {z.shape[1]} - {exact.shape[1]}")
    reps = z @ keep
    return CohomologyBasis(degree=1, flavor=flavor, reps=reps, dim=reps.shape[1], h0=h0)


def _tree_and_flat_sections(k, f, flavor, tol):
    """`_flat_forest` on the vertices joined across the flavor's active
    edges, the boundary pinned in the relative flavor: the mask of
    non-tree active edges, the flat sections as 0-cochains, and the exact
    cocycles d0 G c as 1-cochains."""
    n = f.fiber_dim
    if flavor == "relative":
        active, pinned = interior_edge_mask(k), ~interior_vertex_mask(k)
    else:
        active, pinned = np.ones(k.n_edges, dtype=bool), np.zeros(k.vertex_count, dtype=bool)
    act = np.flatnonzero(active)
    loose_arcs, flat, defects = _flat_forest(
        k.vertex_count, k.ends[act], f.transports[act], pinned, tol)
    loose = active.copy()
    loose[act] = loose_arcs
    exact = np.zeros((k.n_edges, n, defects.shape[2]))
    exact[act] = defects
    return loose, flat, exact.reshape(n * k.n_edges, -1)


def _breadth_first(nodes, ends, seeds):
    """Breadth-first labelling of the graph on `nodes` nodes whose arc i
    joins ends[i].  Walks start from each group of `seeds` in turn, with the
    group's unreached nodes at depth 0, then from each node still unreached,
    in id order; a node takes its arcs in arc order.  Returns the visiting
    order and, per node, the arc and the node that reached it (-1 where a
    walk starts), its depth and its walk, numbered in the order the walks
    start (a seed group already reached keeps its number, with no nodes).
    """
    # per node, its arcs in arc order: arc i sits at 2 i and 2 i + 1
    at = ends.ravel()
    by_node = np.argsort(at, kind="stable")
    start = np.searchsorted(at[by_node], np.arange(nodes + 1)).tolist()
    far = ends[:, ::-1].ravel()[by_node].tolist()
    arc_at = (by_node // 2).tolist()
    arc, up, depth, walk = [-1] * nodes, [-1] * nodes, [0] * nodes, [-1] * nodes
    order = []

    def grow(queue, w):
        for v in queue:
            walk[v] = w
        for a in queue:
            d = depth[a] + 1
            for i in range(start[a], start[a + 1]):
                b = far[i]
                if walk[b] < 0:
                    walk[b] = w
                    arc[b] = arc_at[i]
                    up[b] = a
                    depth[b] = d
                    queue.append(b)
        order.extend(queue)

    for w, group in enumerate(seeds):
        grow([v for v in group if walk[v] < 0], w)
    w = len(seeds)
    for v in range(nodes):
        if walk[v] < 0:
            grow([v], w)
            w += 1
    return (order, *(np.array(labels, dtype=int) for labels in (arc, up, depth, walk)))


def _flat_forest(nodes, ends, transports, pinned, tol):
    """Breadth-first spanning forest of a graph whose arcs carry orthogonal
    transports, and its flat sections.

    A section x, a fiber vector per node, is flat across arc i, ends[i] =
    (a, b), when x_a = P_i x_b.  Pinned nodes are one merged root where
    sections vanish; every other component gets a free root with tree
    transport G = identity.  A parallel section G c, c in the root fiber,
    is flat on the tree, and its defect on a non-tree arc is P G_b c - G_a c.
    Returns the mask of non-tree arcs, the flat sections (zero defect) as
    Euclidean-orthonormal columns, and per arc the defects (arcs, n, cols)
    of G c for c spanning the complement of the flat directions.

    `_breadth_first` labels the nodes, the pinned ones as walk 0 and each
    free root's component as a walk of its own; the transports then go down
    one depth at a time, each depth one batched product G_child = P G_parent
    over all components.
    """
    n = transports.shape[1]
    _, via, up, depth, walk = _breadth_first(nodes, ends, [np.flatnonzero(pinned).tolist()])
    child = np.flatnonzero(via >= 0)
    child = child[np.argsort(depth[child], kind="stable")]
    tree_arc = via[child]
    in_tree = np.zeros(len(ends), dtype=bool)
    in_tree[tree_arc] = True
    # the section is flat across each tree arc, x_a = P x_b for ends (a, b)
    down = ends[tree_arc, 1] == child
    p = transports[tree_arc]
    p = np.where(down[:, None, None], p.transpose(0, 2, 1), p)
    up = up[child]
    g = np.tile(np.eye(n), (nodes, 1, 1))
    cuts = np.flatnonzero(np.diff(depth[child], prepend=-1, append=-1)).tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        g[child[lo:hi]] = p[lo:hi] @ g[up[lo:hi]]

    loose = ~in_tree
    defect = np.einsum("eij,ejk->eik", transports[loose], g[ends[loose, 1]]) \
        - g[ends[loose, 0]]
    loose_walk = walk[ends[loose, 0]]
    flat = np.zeros((n * nodes, 0))
    exact = np.zeros((len(ends), n, 0))
    for r in range(1, walk.max(initial=0) + 1):
        mine = loose_walk == r
        # the R factor has the singular values of the tall system
        c = numlin.nullspace_basis(np.linalg.qr(defect[mine].reshape(-1, n), mode="r"),
                                   tol, scale=1.0)
        verts = np.flatnonzero(walk == r)
        sections = np.zeros((nodes, n, c.shape[1]))
        sections[verts] = g[verts] @ c / np.sqrt(len(verts))
        flat = np.hstack([flat, sections.reshape(n * nodes, -1)])
        moving = numlin.nullspace_basis(c.T, tol, scale=1.0)
        cocycles = np.zeros((len(ends), n, moving.shape[1]))
        cocycles[np.flatnonzero(loose)[mine]] = defect[mine] @ moving
        exact = np.concatenate([exact, cocycles], axis=2)
    return loose, flat, exact


def _dual_arcs(k, edges):
    """The dual graph across the masked `edges`: the ids of those with two
    triangles and their `edge_slots` rows, whose // 3 are the triangles an
    arc joins, and the ids of those on the boundary with their one slot."""
    first, second = k.edge_slots.T
    joined = np.flatnonzero(edges & (second >= 0))
    lone = np.flatnonzero(edges & (second < 0))
    return joined, k.edge_slots[joined], lone, first[lone]


def _flat_triangle_sections(k, f, flavor, tol):
    """Basis of H^2 = ker d1^T (on the flavor's edges) as the flat sections
    of the dual graph.  With c_t(e) in {I, -I, P_e01} the block of e in t's
    row of d1, d1^T y = 0 reads y_1 = -c_1 c_2^T y_2 across an interior
    edge of triangles t_1, t_2, and c_t^T y_t = 0 on a boundary edge, which
    pins its triangle in the absolute flavor."""
    n, nt, te = f.fiber_dim, k.n_triangles, k.tri_edges
    coef = np.empty((nt, 3, n, n))
    coef[:, 0] = np.eye(n)
    coef[:, 1] = -np.eye(n)
    coef[:, 2] = f.transports[te[:, 0]]
    coef = coef.reshape(3 * nt, n, n)
    _, slots, _, lone = _dual_arcs(k, np.ones(k.n_edges, dtype=bool))
    pinned = np.zeros(nt, dtype=bool)
    pinned[lone // 3] = flavor == "absolute"
    s1, s2 = slots.T
    return _flat_forest(nt, slots // 3, -coef[s1] @ coef[s2].transpose(0, 2, 1), pinned, tol)[1]


def _cotree(k, dual):
    """Breadth-first spanning forest of the triangles joined across the
    `dual` edges.  A dual edge on the boundary joins its triangle to the
    outside, which roots every component it reaches: those triangles start
    the walks, one at a time in edge order.  Returns the visiting order,
    each triangle's parent edge (-1 at a root triangle) and parent triangle
    (-1 also below the outside) and the mask of loop edges, the dual edges
    outside the forest."""
    joined, slots, outside, lone = _dual_arcs(k, dual)
    order, arc, up, _, walk = _breadth_first(
        k.n_triangles, slots // 3, [[t] for t in (lone // 3).tolist()])
    parent = np.append(joined, -1)[arc]
    # walk j starts below the outside edge outside[j]
    below = (arc < 0) & (walk < len(outside))
    parent[below] = outside[walk[below]]
    loops = dual.copy()
    loops[parent[parent >= 0]] = False
    return order, parent, up.tolist(), loops


def _live_triangles(k, up, loops):
    """The cotree triangles whose subtree holds a triangle with a loop
    edge, as a list of flags: the triangles of the loop edges and every
    cotree ancestor of them."""
    live = [False] * k.n_triangles
    slots = k.edge_slots[loops].ravel()
    for t in (slots[slots >= 0] // 3).tolist():
        while t >= 0 and not live[t]:
            live[t] = True
            t = up[t]
    return live


def _cocycles_off_tree(k, f, order, parent, up, loops, tol):
    """Basis (absolute coordinates) of the closed 1-cochains that vanish
    off the loop edges and the cotree, orthonormal on the loop edges.

    Walked leaves first, every non-root triangle equation fixes the value
    on its parent dual edge, whose coefficient is +-I or P, so the values
    on the loop edges parametrize everything; the root triangle equations
    C are what is left, and the cocycles are ker C.  Outside the live
    triangles (`_live_triangles`) every value is zero, so only those are
    eliminated, and a root triangle that is not live adds zero rows.
    """
    n = f.fiber_dim
    tris = k.tri_edges.tolist()
    n_loops = int(loops.sum())
    m = n * n_loops
    values = np.zeros((k.n_edges, n, m))
    values[loops] = np.eye(m).reshape(n_loops, n, m)
    live = _live_triangles(k, up, loops)
    parent = parent.tolist()
    root_rows = [np.zeros((0, m))]
    for t in reversed(order):
        e = parent[t]
        if not live[t]:
            if e < 0:
                root_rows.append(np.zeros((n, m)))
            continue
        e01, e02, e12 = tris[t]
        p = f.transports[e01]
        # (d1 w)_t = P w(e12) - w(e02) + w(e01); the parent edge is still 0
        rest = p @ values[e12] - values[e02] + values[e01]
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
    n, cols, ends = f.fiber_dim, a.shape[1], k.ends
    x = a.reshape(k.vertex_count, n, cols)
    out = np.einsum("eij,ejr->eir", f.transports, x[ends[:, 1]]) - x[ends[:, 0]]
    return out.reshape(n * k.n_edges, cols)


def _d0_adjoint(k, f, w):
    """d0^T @ w edgewise, for 1-cochain columns w: each edge u -> v sends
    P^T w to v and -w to u."""
    n, cols, ends = f.fiber_dim, w.shape[1], k.ends
    x = w.reshape(k.n_edges, n, cols)
    out = np.zeros((k.vertex_count, n, cols))
    np.add.at(out, ends[:, 1], np.einsum("eji,ejr->eir", f.transports, x))
    np.add.at(out, ends[:, 0], -x)
    return out.reshape(n * k.vertex_count, cols)


def _step(k, f, w, tail, ei):
    """(T, s) such that a primitive a of the 1-cochain columns w (d0 a = w,
    shaped (edges, n, columns)) obeys a(head) = T a(tail) + s across edge
    ei walked from `tail`: (d0 a)(lo -> hi) = P a(hi) - a(lo)."""
    p = f.transports[ei]
    return (p.T, p.T @ w[ei]) if tail == k.edges[ei][0] else (p, -w[ei])


def _class_coordinates(k, f, h1, h1_rel, u):
    """Coordinates C of the classes of closed columns `u` in the absolute
    basis `h1`, read off the raw cup pairing with the relative basis
    `h1_rel`: P^T C = (u cup R)^T, P = h1 cup R, R = `h1_rel.reps`.

    For a relative cocycle r, (d0 a) cup r is the coboundary of a cup r,
    which vanishes on the boundary, so it sums to zero over the fundamental
    cycle and u cup r depends only on the class of u.  Duality makes P
    square and invertible; unequal dimensions raise NoConvergence.
    """
    if h1.dim != h1_rel.dim:
        raise NoConvergence(f"dim H^1 = {h1.dim} but dim H^1_rel = {h1_rel.dim}: "
                            "the cup pairing cannot be perfect")
    r = h1_rel.reps
    return np.linalg.solve(_cup_raw(k, f, h1.reps, r).T, _cup_raw(k, f, u, r).T)


def _boundary_walk(k, f, u, tol):
    """Integrate closed columns `u` around each stored boundary cycle.

    Along a cycle v_0 -> v_1 -> ... -> v_m = v_0 a primitive a of u obeys
    a(v_i+1) = T_i a(v_i) + s_i, with T_i the transport from v_i to v_i+1;
    going round gives (1 - rho) a(v_0) = z with rho the holonomy.  So u is
    exact on the cycle iff z lies in im(1 - rho), and N^T z, for N a basis
    of coker(1 - rho), are its coordinates in the cycle's H^1.  Returns
    those coordinates stacked over the cycles, and the primitive from the
    least-norm a(v_0) as a 0-cochain that vanishes off the boundary.
    """
    n, cols = f.fiber_dim, u.shape[1]
    w = u.reshape(k.n_edges, n, cols)
    coords = [np.zeros((0, cols))]
    prim = np.zeros((k.vertex_count, n, cols))
    for cycle in k.boundary_components:
        steps = [_step(k, f, w, v, ei) for v, ei in zip(cycle["vertices"], cycle["edges"])]
        rho, z = np.eye(n), np.zeros((n, cols))
        for t, s in steps:
            rho, z = t @ rho, t @ z + s
        left, sigma, right = np.linalg.svd(np.eye(n) - rho)
        r = int(np.sum(sigma > tol.rank_tol * max(sigma[0], 1.0)))
        coords.append(left[:, r:].T @ z)
        a = right[:r].T @ ((left[:, :r].T @ z) / sigma[:r, None])
        for v, (t, s) in zip(cycle["vertices"], steps):
            prim[v] = a
            a = t @ a + s
    return np.vstack(coords), prim.reshape(n * k.vertex_count, cols)


def h1_flavors(k, f, tol=DEFAULT_TOL):
    """The degree-1 bases (h1, h1_rel) of both flavors, each from its own
    walk, with `h1_rel is h1` on a complex with no boundary edge.

    There the relative flavor keeps every degree of freedom, so its walk
    is the absolute one edge for edge and H^1_rel = H^1: the relative
    basis would repeat the absolute one bit for bit.  `h1_rel` then keeps
    the absolute `flavor`, which only selects the degree-0 dofs, all of
    them either way.  Entry points that need both flavors take them from
    here, and `hodge.harmonic_spaces` reads the identity to solve for H_D
    once.
    """
    h1 = cohomology(k, f, 1, "absolute", tol)
    if not k.boundary_edge_indices:
        return h1, h1
    return h1, cohomology(k, f, 1, "relative", tol)


def restriction_and_parabolic(k, f, tol=DEFAULT_TOL, bases=None):
    """Restriction map to boundary cohomology and the parabolic classes.

    Parabolic cohomology in degree one is the kernel of the restriction to
    the boundary, whose values in each cycle's H^1 = coker(1 - rho_j) come
    from one walk around it (`_boundary_walk`).  `exactness_check` confirms
    that the kernel is the image of the relative cohomology by comparing
    class coordinates (`_class_coordinates`, from the cup pairing with
    H^1_rel), so any closed bases serve.  `bases` is the pair from
    `h1_flavors`, cut here when not given.
    """
    h1, h1_rel = bases or h1_flavors(k, f, tol)
    r_star = _boundary_walk(k, f, h1.reps, tol)[0]
    par_coeffs = numlin.nullspace_basis(r_star, tol, scale=1.0)
    par_reps = h1.reps @ par_coeffs

    image_coeffs = _class_coordinates(k, f, h1, h1_rel, h1_rel.reps)
    image_dim = numlin.rank(image_coeffs, tol, scale=1.0)
    same = (par_coeffs.shape[1] == image_dim) and (
        numlin.rank(np.hstack([par_coeffs, image_coeffs]), tol, scale=1.0) == image_dim
    )
    return {
        "h1": h1,
        "h1_rel": h1_rel,
        "parabolic_basis": CohomologyBasis(
            degree=1, flavor="parabolic", reps=par_reps, dim=par_reps.shape[1]
        ),
        "boundary_h1_dim": r_star.shape[0],
        "exactness_check": bool(same),
    }


def _d1_apply(k, f, u):
    """d1 @ u triangle by triangle, for 1-cochain columns u."""
    w = u.reshape(k.n_edges, f.fiber_dim, u.shape[1])
    e01, e02, e12 = k.tri_edges.T
    d1w = np.einsum("tij,tjr->tir", f.transports[e01], w[e12]) - w[e02] + w[e01]
    return d1w.reshape(f.fiber_dim * k.n_triangles, u.shape[1])


def _check_closed(k, f, u_basis, tol):
    """Raise NotClosed unless d1 u_basis, taken triangle by triangle, vanishes."""
    if u_basis.shape[1]:
        res = np.abs(_d1_apply(k, f, u_basis)).max(initial=0.0)
        if res > tol.residual_tol * max(1.0, np.abs(u_basis).max()):
            raise NotClosed(f"basis columns are not closed (residual {res:.3e})")


def cup_omega(k, f, u_basis, tol=DEFAULT_TOL):
    """Skew pairing of closed one-cochains by the simplicial cup product
    summed over the fundamental cycle; never consults a metric.

    The raw cup value on a triangle with sorted vertices (w0, w1, w2) is
    B(u(w0 w1), P_w0w1 v(w1 w2)) with the orientation parity of the stored
    triangle; the result is antisymmetrized, which on closed cochains
    matches the Whitney wedge integral triangle by triangle.
    """
    u_basis = np.asarray(u_basis, dtype=float)
    _check_closed(k, f, u_basis, tol)
    raw = _cup_raw(k, f, u_basis, u_basis)
    return 0.5 * (raw - raw.T)


def _cup_raw(k, f, u_basis, v_basis):
    n, e01, e12 = f.fiber_dim, k.tri_edges[:, 0], k.tri_edges[:, 2]
    u = u_basis.reshape(k.n_edges, n, u_basis.shape[1])[e01]
    v = v_basis.reshape(k.n_edges, n, v_basis.shape[1])[e12]
    return np.einsum("t,tir,tij,tjs->rs", k.sorted_sign, u, f.transports[e01], v)


def parabolic_pairing(k, f, u_basis, tol=DEFAULT_TOL):
    """Cup pairing with the left argument lifted to a relative cocycle.

    Each column's restriction to every boundary cycle is exact there (that
    is what parabolic means); subtracting the coboundary of the primitive
    from `_boundary_walk`, zero off the boundary, kills it, which makes the
    pairing independent of the chosen representatives within their
    classes, hence metric-free.
    """
    _check_closed(k, f, u_basis, tol)
    coords, primitive = _boundary_walk(k, f, u_basis, tol)
    if np.abs(coords).max(initial=0.0) > \
            tol.residual_tol * max(1.0, np.abs(u_basis).max(initial=0.0)):
        raise NotClosed("columns are not parabolic: boundary restriction "
                        "is not exact on the boundary")
    raw = _cup_raw(k, f, u_basis - _d0_apply(k, f, primitive), u_basis)
    return 0.5 * (raw - raw.T)


def euler_characteristic_dims(k, f, tol=DEFAULT_TOL, h1=None):
    """Absolute Betti numbers (deg 0..2); their alternating sum equals the
    fiber dimension times the Euler characteristic for any flat system.
    `h1` is the absolute degree-1 basis, cut here when not given."""
    if h1 is None:
        h1 = cohomology(k, f, 1, "absolute", tol)
    return [h1.h0.dim, h1.dim, cohomology(k, f, 2, "absolute", tol).dim]
