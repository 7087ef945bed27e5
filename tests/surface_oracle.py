"""Loop implementations of `surface.build`, `surface.metric_from_lengths`
and `localsys._flat_residual`, one triangle and one edge at a time: the
oracles that the array versions must match field for field, raise for
raise and bit for bit."""

import warnings

import numpy as np

from parhodge import surface
from parhodge.errors import (
    DegenerateMetric,
    InconsistentOrientation,
    InvalidParameter,
    NonManifold,
    NotConnectedWarning,
)
from parhodge.numlin import DEFAULT_TOL

from conftest import edge_index


def build(vertex_count, triangles):
    """Validate triangles and derive the full combinatorial structure."""
    tris = []
    for t in triangles:
        t = tuple(int(v) for v in t)
        if len(t) != 3 or len(set(t)) != 3:
            raise InvalidParameter(f"triangle {t} must have three distinct vertices")
        if min(t) < 0 or max(t) >= vertex_count:
            raise InvalidParameter(f"triangle {t} references invalid vertices")
        tris.append(t)
    used = {v for t in tris for v in t}
    for v in range(vertex_count):
        if v not in used:
            raise InvalidParameter(f"vertex {v} lies in no triangle")
    k = surface.SurfaceComplex(vertex_count=int(vertex_count),
                               tri_vertices=np.array(tris, dtype=np.int64).reshape(-1, 3))

    edge_set = {}
    # per canonical edge: list of (triangle index, +1 if traversed low->high)
    edge_tris = []
    for ti, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            if key not in edge_set:
                edge_set[key] = len(edge_tris)
                edge_tris.append([])
            edge_tris[edge_set[key]].append((ti, 1 if u < v else -1))

    order = sorted(edge_set, key=lambda e: e)
    k.ends = np.array(order, dtype=int).reshape(-1, 2)
    index = {e: i for i, e in enumerate(order)}
    remap = {edge_set[e]: index[e] for e in edge_set}
    by_edge = [None] * len(order)
    for old, new in remap.items():
        by_edge[new] = edge_tris[old]

    for ei, incident in enumerate(by_edge):
        if len(incident) > 2:
            raise NonManifold(f"edge {order[ei]} lies in {len(incident)} triangles")
        if len(incident) == 2 and incident[0][1] == incident[1][1]:
            raise InconsistentOrientation(
                f"edge {order[ei]} is traversed twice in the same direction"
            )

    k.tri_edges = np.array(
        [(index[(w0, w1)], index[(w0, w2)], index[(w1, w2)])
         for w0, w1, w2 in map(sorted, tris)], dtype=int).reshape(-1, 3)
    k.side_edge = np.array(
        [[index[(min(u, v), max(u, v))] for u, v in ((a, b), (b, c), (c, a))]
         for a, b, c in tris], dtype=int).reshape(-1, 3)
    # each edge's positions in the flattened table, -1 for a missing second
    slots = [[] for _ in order]
    for pos, ei in enumerate(k.tri_edges.ravel().tolist()):
        slots[ei].append(pos)
    k.edge_slots = np.array([s + [-1] * (2 - len(s)) for s in slots], dtype=int).reshape(-1, 2)
    k.sorted_sign = np.array([_parity(t) for t in tris], dtype=int)

    k.boundary_components = _boundary_cycles(order, by_edge)

    k.component_of, k.n_components = _components(int(vertex_count), order)
    if k.n_components > 1:
        warnings.warn(
            f"complex has {k.n_components} components", NotConnectedWarning,
            stacklevel=2,
        )
    return k


def _parity(t):
    """+1 when the stored orientation agrees with sorted vertex order."""
    a, b, c = t
    inversions = sum(1 for x, y in ((a, b), (a, c), (b, c)) if x > y)
    return 1 if inversions % 2 == 0 else -1


def _boundary_cycles(edges, by_edge):
    """Walk boundary edges into cycles following the induced orientation
    (each boundary edge is traversed the way its one triangle traverses it,
    low -> high where that triangle's sign on it is +1)."""
    outgoing = {}
    for ei in (i for i, inc in enumerate(by_edge) if len(inc) == 1):
        a, b = edges[ei]
        ti, sign = by_edge[ei][0]
        tail, head = (a, b) if sign == 1 else (b, a)
        if tail in outgoing:
            raise NonManifold(f"boundary vertex {tail} has several outgoing edges")
        outgoing[tail] = (head, ei, sign == 1)

    cycles = []
    seen = set()
    for start in sorted(outgoing):
        if start in seen:
            continue
        verts, eids, forward = [start], [], []
        v = start
        while True:
            seen.add(v)
            head, ei, low_to_high = outgoing[v]
            eids.append(ei)
            forward.append(low_to_high)
            if head == start:
                break
            if head in seen or head not in outgoing:
                raise NonManifold("boundary walk does not close into a cycle")
            verts.append(head)
            v = head
        cycles.append({"vertices": verts, "edges": eids, "forward": forward})
    return cycles


def _components(vertex_count, edges):
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = {}
    comp = np.zeros(vertex_count, dtype=int)
    for v in range(vertex_count):
        r = find(v)
        if r not in roots:
            roots[r] = len(roots)
        comp[v] = roots[r]
    return comp, len(roots) if vertex_count else 0


def metric_from_lengths(k, lengths, tol=DEFAULT_TOL):
    """Validate explicit edge lengths against the complex."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (k.n_edges,):
        raise DegenerateMetric(
            f"expected {k.n_edges} edge lengths, got shape {lengths.shape}"
        )
    if not np.isfinite(lengths).all() or (lengths <= 0).any():
        raise DegenerateMetric("edge lengths must be positive and finite")
    index = edge_index(k)
    for t in map(tuple, k.tri_vertices.tolist()):
        l01 = lengths[index[min(t[0], t[1]), max(t[0], t[1])]]
        l12 = lengths[index[min(t[1], t[2]), max(t[1], t[2])]]
        l02 = lengths[index[min(t[0], t[2]), max(t[0], t[2])]]
        if not (l01 < l12 + l02 and l12 < l01 + l02 and l02 < l01 + l12):
            raise DegenerateMetric(f"triangle inequality fails on {t}")
        if surface._heron(l01, l12, l02) <= tol.rank_tol * max(l01, l12, l02) ** 2:
            raise DegenerateMetric(f"triangle {t} is degenerate")
    return surface.PLMetric(lengths=lengths)


def metric_from_positions(k, positions, tol=DEFAULT_TOL):
    pos = np.asarray(positions, dtype=float)
    lengths = np.array([np.linalg.norm(pos[a] - pos[b]) for a, b in k.ends.tolist()])
    return metric_from_lengths(k, lengths, tol)


def flat_residual(k, system):
    index = edge_index(k)

    def transport(u, v):
        p = system.transports[index[min(u, v), max(u, v)]]
        return p if u < v else p.T

    worst = 0.0
    eye = np.eye(system.fiber_dim)
    for a, b, c in k.tri_vertices.tolist():
        hol = transport(a, b) @ transport(b, c) @ transport(c, a)
        worst = max(worst, float(np.abs(hol - eye).max()))
    return worst
