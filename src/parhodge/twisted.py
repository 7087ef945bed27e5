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
    as integer bookkeeping on Python lists.  That bookkeeping depends on
    the mesh and the flavor alone, so it is planned once per mesh
    (`_plan_walk`, `_plan_dual`) and kept with it
    (`surface.SurfaceComplex.plan`); per system the transports go down the
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
    work, not O(n_T).  The cotree, its live triangles and their edges are
    in the walk plan too, so a system pays only the elimination's
    arithmetic.
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
    lifts a parabolic class to a relative one.  Each step's edge and
    direction come from the cycle that `surface.build` stores.

Degree-1 columns are closed, zero off the flavor's degrees of freedom and
orthonormal in class coordinates: their loop-edge values are orthonormal
and orthogonal to the defects; they are not orthogonal to the
coboundaries.  The transports are orthogonal (P^-1 = P^T) throughout.
Every contraction of the transports with cochain values (d0, d0^T, d1,
the forest's defects and the cup pairing) is a stacked matrix product
over the edges or triangles, P @ x or P^T @ x; the cup pairing then sums
over the triangles with one product over their n n_T rows.  The per-edge
and per-triangle rows of the transports and of the cochain values are
gathered by `ndarray.take(index, axis=0)`, which copies the same bytes as
fancy indexing x[index] at a fraction of its cost.

The symplectic pairing comes from the simplicial cup product evaluated on
the fundamental 2-cycle and is metric-free.  On closed one-cochains the
antisymmetrized cup value per triangle coincides exactly with the integral
of the wedge of the corresponding Whitney forms, which the tests cross-check
against the metric module.
"""

from __future__ import annotations

import collections
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
        return np.repeat(masks[degree], n)
    raise ValueError("flavor must be 'absolute' or 'relative'")


@dataclass
class CohomologyBasis:
    flavor: str
    reps: np.ndarray  # columns are cocycles in absolute coordinates
    dim: int
    # degree 1: the degree-0 basis of the same flavor from the same walk
    h0: CohomologyBasis | None = None


def interior_edge_mask(k):
    """The edges with a second triangle."""
    return k.edge_slots[:, 1] >= 0


def interior_vertex_mask(k):
    """The vertices on no boundary edge."""
    mask = np.ones(k.vertex_count, dtype=bool)
    mask[k.ends[~interior_edge_mask(k)]] = False
    return mask


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
        return CohomologyBasis(flavor=flavor, reps=reps, dim=reps.shape[1])

    walk = _walk(k, flavor)
    flat, exact = _tree_and_flat_sections(k, f, walk, tol)
    h0 = CohomologyBasis(flavor=flavor, reps=flat, dim=flat.shape[1])
    if degree == 0:
        return h0

    z = _cocycles_off_tree(k, f, walk, tol)
    dofs = np.repeat(walk.loops, f.fiber_dim)
    # z[dofs] is orthonormal, and its span holds the loop-edge values of the
    # exact cochains in Z_T; keep the complement of those
    keep = numlin.nullspace_basis(exact[dofs].T @ z[dofs], tol, scale=1.0)
    if keep.shape[1] != z.shape[1] - exact.shape[1]:
        raise NoConvergence(
            f"{flavor} H^1: kept {keep.shape[1]} classes, but the tree-cotree "
            f"count is {z.shape[1]} - {exact.shape[1]}")
    reps = z @ keep
    return CohomologyBasis(flavor=flavor, reps=reps, dim=reps.shape[1], h0=h0)


# A breadth-first spanning forest of a graph (`_forest`): the graph, and
# what `_flat_forest` reads of the walk, which depends on the graph alone
_Forest = collections.namedtuple("_Forest", [
    "nodes", "ends", "pinned",  # node count, arc ends, the merged root's nodes
    "child",  # the nodes below a root, in depth order
    "up",  # their parents
    "tree_arc",  # the arcs that reached them
    "down",  # whether that arc runs parent -> child as (a, b) = ends
    "cuts",  # where each depth starts in `child`, and the end
    "loose",  # the mask of non-tree arcs
    "loose_arcs", "tails", "heads",  # their ids, and their ends a and b
    # per free root: the positions of its loose arcs among `loose_arcs`,
    # their ids, and the nodes of its walk
    "free_roots",
    "depth",  # per node, its depth in the walk
])

# The walks of one flavor on one mesh (`_plan_walk`), kept with the mesh
_Walk = collections.namedtuple("_Walk", [
    "act",  # the flavor's active edges,
    "forest",  # the arcs of the vertex forest
    "loose",  # the mask of non-tree active edges
    "loops",  # the loop edges of their cotree (`_cotree`)
    # per live triangle, leaves first, its parent edge and its table edges
    # e01, e02, e12, and None per root triangle that is not live: the
    # elimination steps of `_cocycles_off_tree`
    "steps",
])


def _walk(k, flavor):
    """The flavor's `_Walk` on `k`, planned on the first call."""
    return k.plan(("walk", flavor), lambda: _plan_walk(k, flavor))


def _plan_walk(k, flavor):
    """Walk the spanning forest of the vertices joined across the flavor's
    active edges, the boundary pinned in the relative flavor, and the
    cotree of the triangles across its non-tree active edges."""
    if flavor == "relative":
        active, pinned = interior_edge_mask(k), ~interior_vertex_mask(k)
    else:
        active, pinned = np.ones(k.n_edges, dtype=bool), np.zeros(k.vertex_count, dtype=bool)
    act = np.flatnonzero(active)
    forest = _forest(k.vertex_count, k.ends.take(act, axis=0), pinned)
    loose = active.copy()
    loose[act] = forest.loose
    order, parent, up, loops = _cotree(k, loose)
    live = _live_triangles(k, up, loops)
    tris = k.tri_edges.tolist()
    steps, back = [], order[::-1]
    for t, e in zip(back, parent[back].tolist()):
        if live[t]:
            steps.append((e, *tris[t]))
        elif e < 0:
            steps.append(None)
    return _Walk(act=act, forest=forest, loose=loose, loops=loops, steps=steps)


def _tree_and_flat_sections(k, f, walk, tol):
    """`_flat_forest` on the `walk`'s vertex forest: the flat sections as
    0-cochains and the exact cocycles d0 G c as 1-cochains."""
    n = f.fiber_dim
    flat, defects = _flat_forest(walk.forest, f.transports.take(walk.act, axis=0), tol)
    exact = np.zeros((k.n_edges, n, defects.shape[2]))
    exact[walk.act] = defects
    return flat, exact.reshape(n * k.n_edges, -1)


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


def _forest(nodes, ends, pinned):
    """Breadth-first spanning forest of the graph on `nodes` nodes whose
    arc i joins ends[i], with the `pinned` nodes one merged root and a free
    root for every other component, as a `_Forest`.

    `_breadth_first` labels the nodes, the pinned ones as walk 0 and each
    free root's component as a walk of its own; the children are sorted by
    depth, so that `_flat_forest` takes one depth at a time.
    """
    _, via, up, depth, walk = _breadth_first(nodes, ends, [np.flatnonzero(pinned).tolist()])
    child = np.flatnonzero(via >= 0)
    child = child[np.argsort(depth[child], kind="stable")]
    tree_arc = via[child]
    loose = np.ones(len(ends), dtype=bool)
    loose[tree_arc] = False
    loose_arcs = np.flatnonzero(loose)
    tails, heads = ends.take(loose_arcs, axis=0).T
    loose_walk = walk[tails]
    free_roots = []
    for r in range(1, walk.max(initial=0) + 1):
        mine = np.flatnonzero(loose_walk == r)
        free_roots.append((mine, loose_arcs[mine], np.flatnonzero(walk == r)))
    return _Forest(
        nodes=nodes, ends=ends, pinned=pinned, child=child, up=up[child],
        tree_arc=tree_arc, down=ends[tree_arc, 1] == child,
        cuts=np.flatnonzero(np.diff(depth[child], prepend=-1, append=-1)).tolist(),
        loose=loose, loose_arcs=loose_arcs, tails=tails, heads=heads, free_roots=free_roots,
        depth=depth)


def _flat_forest(forest, transports, tol):
    """The flat sections of a `_Forest` whose arcs carry orthogonal
    transports.

    A section x, a fiber vector per node, is flat across arc i, ends[i] =
    (a, b), when x_a = P_i x_b.  Sections vanish on the pinned root; every
    free root has tree transport G = identity.  A parallel section G c, c
    in the root fiber, is flat on the tree, and its defect on a non-tree
    arc is P G_b c - G_a c.  Returns the flat sections (zero defect) as
    Euclidean-orthonormal columns, and per arc the defects (arcs, n, cols)
    of G c for c spanning the complement of the flat directions.

    The walk is the forest's; here the transports go down it one depth at
    a time, each depth one batched product G_child = P G_parent over all
    components, and then come the defects and one small SVD per free root.
    """
    n, nodes = transports.shape[1], forest.nodes
    # the section is flat across each tree arc, x_a = P x_b for ends (a, b)
    p = transports.take(forest.tree_arc, axis=0)
    p = np.where(forest.down[:, None, None], p.transpose(0, 2, 1), p)
    child, up, cuts = forest.child, forest.up, forest.cuts
    g = np.tile(np.eye(n), (nodes, 1, 1))
    for lo, hi in zip(cuts, cuts[1:]):
        g[child[lo:hi]] = p[lo:hi] @ g.take(up[lo:hi], axis=0)

    defect = (transports.take(forest.loose_arcs, axis=0) @ g.take(forest.heads, axis=0)
              - g.take(forest.tails, axis=0))
    flat = np.zeros((n * nodes, 0))
    exact = np.zeros((len(forest.ends), n, 0))
    for at, arcs, verts in forest.free_roots:
        mine = defect.take(at, axis=0)
        # the R factor has the singular values of the tall system
        c = numlin.nullspace_basis(np.linalg.qr(mine.reshape(-1, n), mode="r"),
                                   tol, scale=1.0)
        sections = np.zeros((nodes, n, c.shape[1]))
        sections[verts] = g.take(verts, axis=0) @ c / np.sqrt(len(verts))
        flat = np.hstack([flat, sections.reshape(n * nodes, -1)])
        moving = numlin.nullspace_basis(c.T, tol, scale=1.0)
        cocycles = np.zeros((len(forest.ends), n, moving.shape[1]))
        cocycles[arcs] = mine @ moving
        exact = np.concatenate([exact, cocycles], axis=2)
    return flat, exact


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
    n, nt = f.fiber_dim, k.n_triangles
    coef = np.empty((nt, 3, n, n))
    coef[:, 0] = np.eye(n)
    coef[:, 1] = -np.eye(n)
    coef[:, 2] = f.transports.take(k.tri_edges[:, 0], axis=0)
    coef = coef.reshape(3 * nt, n, n)
    slots, forest = k.plan(("dual", flavor), lambda: _plan_dual(k, flavor))
    s1, s2 = slots.T
    arcs = -coef.take(s1, axis=0) @ coef.take(s2, axis=0).transpose(0, 2, 1)
    return _flat_forest(forest, arcs, tol)[0]


def _plan_dual(k, flavor):
    """The dual graph's slot pairs and its `_Forest`, the triangles on a
    boundary edge pinned in the absolute flavor."""
    _, slots, _, lone = _dual_arcs(k, np.ones(k.n_edges, dtype=bool))
    pinned = np.zeros(k.n_triangles, dtype=bool)
    pinned[lone // 3] = flavor == "absolute"
    return slots, _forest(k.n_triangles, slots // 3, pinned)


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


def _cocycles_off_tree(k, f, walk, tol):
    """Basis (absolute coordinates) of the closed 1-cochains that vanish
    off the loop edges and the cotree of `walk`, orthonormal on the loop
    edges.

    Walked leaves first, every non-root triangle equation fixes the value
    on its parent dual edge, whose coefficient is +-I or P, so the values
    on the loop edges parametrize everything; the root triangle equations
    C are what is left, and the cocycles are ker C.  Outside the live
    triangles (`_live_triangles`) every value is zero, so only those are
    eliminated, and a root triangle that is not live adds zero rows: the
    `walk`'s steps.
    """
    n = f.fiber_dim
    n_loops = int(walk.loops.sum())
    m = n * n_loops
    values = np.zeros((k.n_edges, n, m))
    values[walk.loops] = np.eye(m).reshape(n_loops, n, m)
    root_rows = [np.zeros((0, m))]
    for step in walk.steps:
        if step is None:
            root_rows.append(np.zeros((n, m)))
            continue
        e, e01, e02, e12 = step
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
    out = f.transports @ x.take(ends[:, 1], axis=0) - x.take(ends[:, 0], axis=0)
    return out.reshape(n * k.n_edges, cols)


def _d0_adjoint(k, f, w):
    """d0^T @ w edgewise, for 1-cochain columns w: each edge u -> v sends
    P^T w to v and -w to u.  One bincount sums the heads' values in edge
    order and then the tails', the order of two np.add.at scatters, so
    the sums are theirs bit for bit."""
    n, cols, ends = f.fiber_dim, w.shape[1], k.ends
    x = w.reshape(k.n_edges, n, cols)
    values = np.concatenate([f.transports.transpose(0, 2, 1) @ x, -x])
    width = n * cols
    index = np.concatenate([ends[:, 1], ends[:, 0]])[:, None] * width + np.arange(width)
    # bincount of no weights counts in int, hence the cast at zero columns
    out = np.bincount(index.ravel(), values.ravel(), minlength=k.vertex_count * width)
    return out.astype(float, copy=False).reshape(n * k.vertex_count, cols)


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


# One boundary cycle of one system (`boundary_record`): what integrating
# columns round it reads, none of which depends on the columns
_Cycle = collections.namedtuple("_Cycle", [
    "vertices", "edges", "forward",  # the steps that `surface.build` stores
    "p",  # the gathered transports
    "steps",  # per step T_i: P^T as a transposed view low -> high, P back
    "left", "sigma", "right", "rank",  # the SVD of 1 - rho and its rank
])


def boundary_record(k, f, tol=DEFAULT_TOL):
    """Per stored boundary cycle, a `_Cycle`: its gathered transports and
    oriented steps, and the SVD of 1 - rho with rho the holonomy, folded
    step by step.  The SVDs of all cycles are one `numlin.svd_ranks` call.
    Nothing here depends on the columns that `_boundary_walk` integrates,
    so a system's record serves each of its walks; it is a plain value,
    kept by no one between calls."""
    n, cycles, rhos = f.fiber_dim, [], []
    for cycle in k.boundary_components:
        forward = np.array(cycle["forward"])
        p = f.transports.take(cycle["edges"], axis=0)
        # P^T as a transposed view: the layout whose products keep their bits
        steps = [q.T if fw else q for q, fw in zip(p, forward)]
        rho = np.eye(n)
        for t in steps:
            rho = t @ rho
        cycles.append((cycle["vertices"], cycle["edges"], forward, p, steps))
        rhos.append(np.eye(n) - rho)
    if not cycles:
        return ()
    svd = numlin.svd_ranks(np.array(rhos), tol, 1.0)
    return tuple(_Cycle(*cycle, *parts) for cycle, *parts in zip(cycles, *svd))


def _boundary_walk(k, boundary, u, lift):
    """Integrate closed columns `u` around each stored boundary cycle, with
    the system's `boundary_record`.

    Along a cycle v_0 -> v_1 -> ... -> v_m = v_0 a primitive a of u obeys
    a(v_i+1) = T_i a(v_i) + s_i: as (d0 a)(lo -> hi) = P a(hi) - a(lo),
    (T_i, s_i) is (P^T, P^T u) on a step that the cycle stores as low ->
    high and (P, -u) on one back.  Going round gives (1 - rho) a(v_0) = z
    with rho the holonomy.  So u is
    exact on the cycle iff z lies in im(1 - rho), and N^T z, for N a basis
    of coker(1 - rho), are its coordinates in the cycle's H^1.  Returns
    those coordinates stacked over the cycles and, when `lift`, the
    primitive from the least-norm a(v_0) as a 0-cochain that vanishes off
    the boundary (else None).
    """
    cols = u.shape[1]
    n = u.shape[0] // k.n_edges
    w = u.reshape(k.n_edges, n, cols)
    coords = [np.zeros((0, cols))]
    prim = np.zeros((k.vertex_count, n, cols)) if lift else None
    for c in boundary:
        x = w.take(c.edges, axis=0)
        terms = np.where(c.forward[:, None, None], c.p.transpose(0, 2, 1) @ x, -x)
        z = np.zeros((n, cols))
        for t, s in zip(c.steps, terms):
            z = t @ z + s
        r = c.rank
        coords.append(c.left[:, r:].T @ z)
        if lift:
            a = c.right[:r].T @ ((c.left[:, :r].T @ z) / c.sigma[:r, None])
            for v, t, s in zip(c.vertices, c.steps, terms):
                prim[v] = a
                a = t @ a + s
    return np.vstack(coords), prim.reshape(n * k.vertex_count, cols) if lift else None


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
    if interior_edge_mask(k).all():
        return h1, h1
    return h1, cohomology(k, f, 1, "relative", tol)


def restriction_and_parabolic(k, f, tol=DEFAULT_TOL, bases=None):
    """Restriction map to boundary cohomology and the parabolic classes.

    Parabolic cohomology in degree one is the kernel of the restriction to
    the boundary, whose values in each cycle's H^1 = coker(1 - rho_j) come
    from one walk around it (`_boundary_walk`), which needs no primitive
    here.  `exactness_check` confirms
    that the kernel is the image of the relative cohomology by comparing
    class coordinates (`_class_coordinates`, from the cup pairing with
    H^1_rel), so any closed bases serve.  `bases` is the pair from
    `h1_flavors`, cut here when not given.  The system's `boundary_record`
    comes back as "boundary", for `parabolic_pairing`.
    """
    h1, h1_rel = bases or h1_flavors(k, f, tol)
    boundary = boundary_record(k, f, tol)
    r_star = _boundary_walk(k, boundary, h1.reps, False)[0]
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
            flavor="parabolic", reps=par_reps, dim=par_reps.shape[1]),
        "boundary_h1_dim": r_star.shape[0],
        "exactness_check": bool(same),
        "boundary": boundary,
    }


def _d1_apply(k, f, u):
    """d1 @ u triangle by triangle, for 1-cochain columns u."""
    w = u.reshape(k.n_edges, f.fiber_dim, u.shape[1])
    e01, e02, e12 = k.tri_edges.T
    d1w = (f.transports.take(e01, axis=0) @ w.take(e12, axis=0)
           - w.take(e02, axis=0) + w.take(e01, axis=0))
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
    """The raw cup pairing U^T V of the columns: the sum over triangles of
    sorted_sign u(w0 w1)^T P_w0w1 v(w1 w2), as the stacked products
    P_w0w1 v(w1 w2) and then one product over the n n_T rows."""
    n, nt, e01, e12 = f.fiber_dim, k.n_triangles, k.tri_edges[:, 0], k.tri_edges[:, 2]
    r, s = u_basis.shape[1], v_basis.shape[1]
    u = u_basis.reshape(k.n_edges, n, r).take(e01, axis=0) * k.sorted_sign[:, None, None]
    v = v_basis.reshape(k.n_edges, n, s).take(e12, axis=0)
    pv = f.transports.take(e01, axis=0) @ v
    return u.reshape(n * nt, r).T @ pv.reshape(n * nt, s)


def parabolic_pairing(k, f, u_basis, tol=DEFAULT_TOL, boundary=None):
    """Cup pairing with the left argument lifted to a relative cocycle.

    Each column's restriction to every boundary cycle is exact there (that
    is what parabolic means); subtracting the coboundary of the primitive
    from `_boundary_walk`, zero off the boundary, kills it, which makes the
    pairing independent of the chosen representatives within their
    classes, hence metric-free.

    `u_basis` is one array of columns, or a sequence of such blocks, which
    go round the boundary in one walk over their stacked columns and come
    back as one pairing per block; each block is checked closed and
    parabolic against its own scale.  `boundary` is the system's
    `boundary_record`, built here when not given.
    """
    one = isinstance(u_basis, np.ndarray)
    blocks = [u_basis] if one else list(u_basis)
    for u in blocks:
        _check_closed(k, f, u, tol)
    if boundary is None:
        boundary = boundary_record(k, f, tol)
    coords, primitive = _boundary_walk(k, boundary, np.hstack(blocks), True)
    out, lo = [], 0
    for u in blocks:
        cols = slice(lo, lo + u.shape[1])
        lo = cols.stop
        if np.abs(coords[:, cols]).max(initial=0.0) > \
                tol.residual_tol * max(1.0, np.abs(u).max(initial=0.0)):
            raise NotClosed("columns are not parabolic: boundary restriction "
                            "is not exact on the boundary")
        raw = _cup_raw(k, f, u - _d0_apply(k, f, primitive[:, cols]), u)
        out.append(0.5 * (raw - raw.T))
    return out[0] if one else out


def euler_characteristic_dims(k, f, tol=DEFAULT_TOL, h1=None):
    """Absolute Betti numbers (deg 0..2); their alternating sum equals the
    fiber dimension times the Euler characteristic for any flat system.
    `h1` is the absolute degree-1 basis, cut here when not given."""
    if h1 is None:
        h1 = cohomology(k, f, 1, "absolute", tol)
    return [h1.h0.dim, h1.dim, cohomology(k, f, 2, "absolute", tol).dim]
