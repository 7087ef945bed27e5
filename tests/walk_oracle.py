"""The queue walks of the tree-cotree elimination and the `np.add.at`
scatters of the per-triangle applies and of d0^T, one node, one triangle
and one index at a time: the oracles that `twisted._flat_forest`,
`twisted._cotree`, `twisted._cocycles_off_tree`, `twisted._d0_adjoint` and
`hodge._triangle_apply` / `hodge._edge_sums` must match bit for bit.  The
boundary walk steps one edge at a time and reads each step's direction
off `ends`, recomputing every cycle's holonomy and SVD on each call; the
interior masks clear lists of the boundary edges and
vertices; and each path's transport makes its own edge search and reads
its steps' directions off the path: the oracles of `twisted._boundary_walk`,
`twisted.interior_edge_mask` / `interior_vertex_mask`,
`localsys.boundary_monodromies` and the generator loops' holonomies, which
read the steps that `surface.build` stores with each boundary cycle and
the builtin generators with each loop.

`twisted` labels the spanning forest, the dual forest and the cotree with
one breadth-first routine, `surface._breadth_first` (which also labels the
mesh's components), and keeps what it finds with the mesh; here each
keeps a queue walk of its own, on every call.
`_flat_forest` (for the vertex and the dual graph) walks the graph of the
forest it is handed, reading none of its labels, and transports each node
as its queue reaches it; `_cotree` finds each edge's triangles from
`tri_edges` with `bincount`, not from `edge_slots`, and records the parent
triangle; `_cocycles_off_tree` walks a cotree of its own and eliminates
every triangle, live or not.  The walks are what these oracles check, the queue
order and the depths; the forest's defects are the same stacked product
P @ G as in `twisted`, so the comparisons stay bit for bit.
"""

import numpy as np

from parhodge import numlin, surface
from parhodge.errors import InvalidParameter


def _flat_forest(forest, transports, tol):
    """The flat sections and the defects of the parallel sections
    (`twisted._flat_forest`), from a queue walk of the forest's graph that
    reads none of the forest's labels."""
    return queue_forest(forest.nodes, forest.ends, transports, forest.pinned, tol)[1:3]


def queue_forest(nodes, ends, transports, pinned, tol):
    """Breadth-first spanning forest with transports: the mask of non-tree
    arcs, the flat sections, the defects of the parallel sections and each
    node's depth (`twisted._forest` and `twisted._flat_forest`)."""
    n = transports.shape[1]
    a_end, b_end = ends.T
    arcs = np.arange(len(ends))
    at, arc = np.concatenate([a_end, b_end]), np.concatenate([arcs, arcs])
    by_node = np.lexsort((arc, at))
    nbrs = list(zip(np.concatenate([b_end, a_end])[by_node].tolist(), arc[by_node].tolist(),
                    (by_node < len(ends)).tolist()))
    start = np.searchsorted(at[by_node], np.arange(nodes + 1)).tolist()
    root = np.full(nodes, -2)  # -2 unseen, -1 pinned root, else free root
    g = np.tile(np.eye(n), (nodes, 1, 1))
    in_tree = np.zeros(len(ends), dtype=bool)
    depth = np.zeros(nodes, dtype=int)

    def grow(seed, label):
        root[seed] = label
        queue = list(seed)
        for a in queue:
            for b, ei, first in nbrs[start[a]:start[a + 1]]:
                if root[b] != -2:
                    continue
                root[b] = label
                in_tree[ei] = True
                p = transports[ei]
                g[b] = (p.T if first else p) @ g[a]
                depth[b] = depth[a] + 1
                queue.append(b)

    grow(list(np.flatnonzero(pinned)), -1)
    free_roots = []
    for v in range(nodes):
        if root[v] == -2:
            free_roots.append(v)
            grow([v], v)

    loose = ~in_tree
    defect = transports[loose] @ g[ends[loose, 1]] - g[ends[loose, 0]]
    loose_root = root[ends[loose, 0]]
    flat = np.zeros((n * nodes, 0))
    exact = np.zeros((len(ends), n, 0))
    for r in free_roots:
        mine = loose_root == r
        c = numlin.nullspace_basis(np.linalg.qr(defect[mine].reshape(-1, n), mode="r"),
                                   tol, scale=1.0)
        verts = np.flatnonzero(root == r)
        sections = np.zeros((nodes, n, c.shape[1]))
        sections[verts] = g[verts] @ c / np.sqrt(len(verts))
        flat = np.hstack([flat, sections.reshape(n * nodes, -1)])
        moving = numlin.nullspace_basis(c.T, tol, scale=1.0)
        cocycles = np.zeros((len(ends), n, moving.shape[1]))
        cocycles[np.flatnonzero(loose)[mine]] = defect[mine] @ moving
        exact = np.concatenate([exact, cocycles], axis=2)
    return loose, flat, exact, depth


def _cotree(k, dual):
    """Breadth-first spanning forest of the triangles joined across the
    `dual` edges (`twisted._cotree`): the visiting order, each triangle's
    parent edge and parent triangle (-1 at a root), and the loop edges."""
    te, nt = k.tri_edges, k.n_triangles
    count = np.bincount(te.ravel(), minlength=k.n_edges)
    total = np.bincount(te.ravel(), weights=np.repeat(np.arange(nt), 3),
                        minlength=k.n_edges).astype(int)
    joined = dual & (count == 2)
    across = np.where(joined[te], total[te] - np.arange(nt)[:, None], -1).tolist()
    tris = te.tolist()
    outside = np.flatnonzero(dual & (count == 1))
    parent = [-1] * nt
    up = [-1] * nt
    seen = [False] * nt
    order = []
    for start, edge in list(zip(total[outside].tolist(), outside.tolist())) \
            + [(t, -1) for t in range(nt)]:
        if seen[start]:
            continue
        seen[start] = True
        parent[start] = edge
        queue = [start]
        for t in queue:
            order.append(t)
            for s, e in zip(across[t], tris[t]):
                if s >= 0 and not seen[s]:
                    seen[s] = True
                    parent[s] = e
                    up[s] = t
                    queue.append(s)
    parent = np.array(parent, dtype=int)
    loops = dual.copy()
    loops[parent[parent >= 0]] = False
    return order, parent, up, loops


def _cocycles_off_tree(k, f, walk, tol):
    """The closed 1-cochains off the tree (`twisted._cocycles_off_tree`),
    eliminating every triangle leaves first, on a cotree of its own across
    the walk's non-tree edges."""
    order, parent, _, loops = _cotree(k, walk.loose)
    values, root_rows = eliminate(k, f, order, parent, loops)
    kernel = numlin.nullspace_basis(root_rows, tol, scale=1.0)
    return values.reshape(f.fiber_dim * k.n_edges, root_rows.shape[1]) @ kernel


def eliminate(k, f, order, parent, loops):
    """The leaves-first elimination over every cotree triangle: the value
    (n_E, n, n |L|) of each edge per unit loop-edge value, and the stacked
    root-triangle rows."""
    n = f.fiber_dim
    tris = k.tri_edges.tolist()
    n_loops = int(loops.sum())
    m = n * n_loops
    values = np.zeros((k.n_edges, n, m))
    values[loops] = np.eye(m).reshape(n_loops, n, m)
    root_rows = [np.zeros((0, m))]
    for t in reversed(order):
        e01, e02, e12 = tris[t]
        p = f.transports[e01]
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
    return values, np.vstack(root_rows)


def _triangle_apply(mc, local, u):
    """Per-triangle (n_T, 3n, 3n) `local` blocks applied to u and scattered
    back by `np.add.at` (`hodge._triangle_apply`)."""
    n, te = mc.f.fiber_dim, mc.k.tri_edges
    nt, cols = len(te), int(np.prod(np.shape(u)[1:]))
    x = np.reshape(u, (mc.k.n_edges, n, cols))
    out = np.zeros(x.shape)
    np.add.at(out, te, (local @ x[te].reshape(nt, 3 * n, cols)).reshape(nt, 3, n, cols))
    return out.reshape(np.shape(u))


def _edge_sums(k, y):
    """Per edge, the sum of the per-slot values y[:-1] by `np.add.at`
    (`hodge._edge_sums`)."""
    out = np.zeros((k.n_edges,) + y.shape[1:])
    np.add.at(out, k.tri_edges.ravel(), y[:-1])
    return out


def _d0_adjoint(k, f, w):
    """d0^T @ w by two `np.add.at` scatters onto the vertices, the heads'
    P^T w and then the tails' -w (`twisted._d0_adjoint`)."""
    n, cols, ends = f.fiber_dim, w.shape[1], k.ends
    x = w.reshape(k.n_edges, n, cols)
    out = np.zeros((k.vertex_count, n, cols))
    np.add.at(out, ends[:, 1], f.transports.transpose(0, 2, 1) @ x)
    np.add.at(out, ends[:, 0], -x)
    return out.reshape(n * k.vertex_count, cols)


def interior_edge_mask(k):
    """The edges off the list of those in one triangle
    (`twisted.interior_edge_mask`)."""
    lone = np.bincount(k.tri_edges.ravel(), minlength=k.n_edges) == 1
    mask = np.ones(k.n_edges, dtype=bool)
    mask[np.flatnonzero(lone).tolist()] = False
    return mask


def interior_vertex_mask(k):
    """The vertices off the sorted list of the boundary cycles' vertices
    (`twisted.interior_vertex_mask`)."""
    mask = np.ones(k.vertex_count, dtype=bool)
    mask[sorted(v for c in k.boundary_components for v in c["vertices"])] = False
    return mask


def _step(k, f, w, tail, ei):
    """(T, s) such that a primitive a of the 1-cochain columns w (d0 a = w,
    shaped (edges, n, columns)) obeys a(head) = T a(tail) + s across edge
    ei walked from `tail`: (d0 a)(lo -> hi) = P a(hi) - a(lo)."""
    p = f.transports[ei]
    return (p.T, p.T @ w[ei]) if tail == k.ends[ei, 0] else (p, -w[ei])


def boundary_record(k, f, tol):
    """The system and the tolerance alone, so that `_boundary_walk`
    recomputes every cycle's steps, holonomy and SVD on each call
    (`twisted.boundary_record`)."""
    return f, tol


def _boundary_walk(k, record, u, lift):
    """The boundary coordinates of closed columns `u` and, when `lift`,
    their primitive (else None), one `_step` at a time
    (`twisted._boundary_walk`)."""
    f, tol = record
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
    return np.vstack(coords), prim.reshape(n * k.vertex_count, cols) if lift else None


def path_transport(k, transports, path):
    """The pullback along one vertex path, with an edge search of its own
    (`FlatLocalSystem.path_transport`, and the fold of a generator loop's
    stored steps)."""
    ids = surface.edge_ids(k, path[:-1], path[1:])
    if (ids < 0).any():
        raise InvalidParameter("path steps off the edges of the complex")
    out = np.eye(transports.shape[1])
    for p, u, v in zip(transports[ids], path, path[1:]):
        out = out @ (p if u < v else p.T)
    return out


def boundary_monodromies(k, system):
    """The transport once round each boundary cycle from its stored start
    vertex, as a closed vertex path (`localsys.boundary_monodromies`)."""
    return [path_transport(k, system.transports, c["vertices"] + c["vertices"][:1])
            for c in k.boundary_components]
