"""The queue walks of the tree-cotree elimination and the `np.add.at`
scatter of the per-triangle applies, one node, one triangle and one index
at a time: the oracles that `twisted._flat_forest`, `twisted._cotree`,
`twisted._cocycles_off_tree` and `hodge._triangle_apply` /
`hodge._edge_sums` must match bit for bit.

`twisted` labels the spanning forest, the dual forest and the cotree with
one breadth-first routine, `_breadth_first`; here each keeps a queue walk
of its own.  `_flat_forest` (for the vertex and the dual graph) transports
each node as its queue reaches it; `_cotree` finds each edge's triangles
from `tri_edges` with `bincount`, not from `edge_slots`, and records the
parent triangle only because `_cocycles_off_tree` takes it;
`_cocycles_off_tree` eliminates every cotree triangle, live or not.
"""

import numpy as np

from parhodge import numlin


def _flat_forest(nodes, ends, transports, pinned, tol):
    """Breadth-first spanning forest with transports, its flat sections
    and the defects of the parallel sections (`twisted._flat_forest`)."""
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
                queue.append(b)

    grow(list(np.flatnonzero(pinned)), -1)
    free_roots = []
    for v in range(nodes):
        if root[v] == -2:
            free_roots.append(v)
            grow([v], v)

    loose = ~in_tree
    defect = np.einsum("eij,ejk->eik", transports[loose], g[ends[loose, 1]]) \
        - g[ends[loose, 0]]
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
    return loose, flat, exact


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


def _cocycles_off_tree(k, f, order, parent, up, loops, tol):
    """The closed 1-cochains off the tree (`twisted._cocycles_off_tree`),
    eliminating every triangle leaves first."""
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


def _triangle_apply(mc, blocks, u):
    """Per-triangle `blocks` applied to u and scattered back by
    `np.add.at` (`hodge._triangle_apply`)."""
    n, te = mc.f.fiber_dim, mc.k.tri_edges
    nt, cols = len(te), int(np.prod(np.shape(u)[1:]))
    x = np.reshape(u, (mc.k.n_edges, n, cols))
    local = blocks.transpose(0, 1, 3, 2, 4).reshape(nt, 3 * n, 3 * n)
    out = np.zeros(x.shape)
    np.add.at(out, te, (local @ x[te].reshape(nt, 3 * n, cols)).reshape(nt, 3, n, cols))
    return out.reshape(np.shape(u))


def _edge_sums(k, y):
    """Per edge, the sum of the per-slot values y[:-1] by `np.add.at`
    (`hodge._edge_sums`)."""
    out = np.zeros((k.n_edges,) + y.shape[1:])
    np.add.at(out, k.tri_edges.ravel(), y[:-1])
    return out
