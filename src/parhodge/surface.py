"""Oriented triangulated compact surfaces with boundary: combinatorics,
piecewise flat metrics and the builtin meshes.

A `SurfaceComplex` stores orientation-bearing triangles over integer vertex
ids as the (n_T, 3) array `tri_vertices`, and derives everything else as
arrays: the canonical edges (low id -> high id, in lexicographic order) as
the (n_E, 2) array `ends`, the triangle-edge table `tri_edges` (per
triangle with sorted vertices w0 < w1 < w2, the ids of w0w1, w0w2 and
w1w2), its inverse `edge_slots` (per edge, the positions 3 t + j where it
occurs in `tri_edges.ravel()`, in stored order, with -1 for the missing
second triangle of a boundary edge, which makes it the one boundary
test), the sides `side_edge` (per stored triangle t0 t1 t2, the ids of
t0t1, t1t2 and t2t0), the boundary cycles with each step's edge and
direction, connected components, and the parity `sorted_sign` relating
each stored triangle orientation to its sorted vertex order (the
fundamental 2-cycle is the sum of all triangles with sign +1 in stored
order).  `build` derives them with array operations over all triangles,
walking only the boundary edges and, to label the components, the graph
of the edges, and is the one place that decides which edge a triangle
side or a boundary step takes; `edge_ids` looks edges up by their ends,
in either order.  Triangle sides are gathered through `side_edge`; the
Whitney matrices are assembled from `tri_edges` in `hodge`, which sums
per-triangle results back onto the edges through `edge_slots`, as do the
dual-graph walks in `twisted`.  One breadth-first labeller,
`_breadth_first`, labels the components here and every forest that the
walks in `twisted` take.

A complex also keeps, by key, what the walks in `twisted`, the level
solve in `hodge` and the report's `mesh_id` derive from it alone
(`SurfaceComplex.plan`); every system on one mesh reuses them.  A metric
keeps what `hodge` derives from its lengths on one mesh, the triangle
geometry (`PLMetric.plan`), with the mesh it was derived on.

Builtin generators emit flat-metric grids (torus, annulus, disk, punctured
sphere, one-holed torus and the round sphere), each built once per
argument tuple and shared read-only among the most recent (`_shared`),
together with
  * a `PLMetric` from the generating embedding, and
  * `GeneratorLoops`: based edge loops for the surface-group generators
    with their steps' edges and directions, named, in order, after the
    generators of `presentation`, whose relation they satisfy, and a
    per-edge word table that compiles a representation of
    the surface group into exact edge transports
    (`localsys.from_representation`).  The grid surfaces (torus, one-holed
    torus, annulus, punctured sphere) come from one array of vertex ids
    (`_grid`): each grid step carries the word of the seam or cut it
    crosses, and each diagonal the two steps around its cell's first kept
    triangle, so triangle holonomy words reduce to the identity freely (or
    to the group relation on the one removed relator triangle).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMetric,
    InconsistentOrientation,
    InvalidParameter,
    NonManifold,
    NotConnectedWarning,
)
from .numlin import DEFAULT_TOL


@dataclass
class SurfaceComplex:
    vertex_count: int
    tri_vertices: np.ndarray  # (n_T, 3) the stored triangles
    tri_edges: np.ndarray | None = None  # (n_T, 3) ids of w0w1, w0w2, w1w2
    # (n_T, 3) ids of the sides t0t1, t1t2, t2t0 of each stored triangle
    side_edge: np.ndarray | None = None
    # (n_E, 2) positions 3 t + j of each edge in tri_edges.ravel(), in
    # stored order; -1 second on a boundary edge
    edge_slots: np.ndarray | None = None
    # (n_E, 2) low and high vertex of each edge, in lexicographic order
    ends: np.ndarray | None = None
    sorted_sign: np.ndarray | None = None
    # per boundary cycle, its vertices in the induced orientation from the
    # lowest, and per step its edge and whether it runs low -> high
    boundary_components: list = field(default_factory=list)
    component_of: np.ndarray | None = None
    n_components: int = 0
    # what the walks and solves derive from this mesh alone, by key
    # (`plan`); freed with the mesh
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def plan(self, key, make):
        """The plan `key` of this mesh, from `make()` the first time it is
        asked for and kept with the mesh: bookkeeping that depends on the
        mesh alone, never on lengths or transports."""
        if key not in self._plans:
            self._plans[key] = make()
        return self._plans[key]

    @property
    def n_edges(self):
        return len(self.ends)

    @property
    def n_triangles(self):
        return len(self.tri_vertices)

    @property
    def euler_characteristic(self):
        return self.vertex_count - self.n_edges + self.n_triangles


@dataclass
class PLMetric:
    """Edge lengths (aligned with `SurfaceComplex.ends`) of a piecewise
    flat metric; validated against strict triangle inequalities.

    A metric also keeps, by key, what is derived from its lengths on one
    mesh (`plan`): the per-triangle geometry of `hodge.metric_complex`,
    which every system on that mesh and metric reuses.  The lengths are
    never changed once a plan is made."""

    lengths: np.ndarray
    # per key, the mesh a plan was made on and the plan (`plan`); freed
    # with the metric
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def plan(self, k, key, make):
        """The plan `key` of these lengths on the mesh `k`, from `make()`
        the first time it is asked for on `k` and kept with the metric.
        The entry holds its mesh and is read only when that mesh is `k`;
        on another mesh the plan is made again and replaces it."""
        entry = self._plans.get(key)
        if entry is None or entry[0] is not k:
            entry = self._plans[key] = (k, make())
        return entry[1]


@dataclass
class GeneratorLoops:
    """Based loops generating the surface group of a builtin surface.

    `loops` is an ordered list of (name, vertex path), named in the order
    of `presentation(g, k)`, and the concatenation given by its `relation`
    (a word in those names) is nullhomotopic.  `edge_words` maps
    a canonical edge index to the group word picked up when traversing the
    edge from its low vertex to its high vertex; absent indices carry the
    empty word.  `steps` holds each loop's steps as `build` stores a
    boundary cycle's: per step its edge and whether it runs low -> high.
    """

    base_vertex: int
    loops: list
    relation: list
    edge_words: dict
    steps: list

    def names(self):
        return [name for name, _ in self.loops]

    def path(self, name):
        for n, p in self.loops:
            if n == name:
                return p
        raise KeyError(name)


def build(vertex_count, triangles):
    """Validate triangles and derive the full combinatorial structure.

    Every triangle is handled at once: the three sides of each triangle
    are keyed low * n_V + high, `np.unique` gives the canonical edges in
    lexicographic order, `searchsorted` the table `tri_edges`, a stable
    `argsort` of it the `edge_slots`, and `bincount` the incidences, so an
    edge in three triangles, or in two that traverse it the same way, is
    caught at the lowest such edge.  Only
    the boundary edges are walked, into cycles, and the graph of the edges,
    into components (`_breadth_first`, each walk from the lowest vertex it
    has not reached, so a component is numbered by its lowest vertex).
    Invalid input raises on the first offending triangle, vertex or edge,
    and a complex with no triangle raises.
    """
    nv = int(vertex_count)
    tri = _triangle_table(nv, triangles)
    if not len(tri):
        raise InvalidParameter("a complex needs at least one triangle")
    bare = np.flatnonzero(np.bincount(tri.ravel(), minlength=nv) == 0)
    if bare.size:
        raise InvalidParameter(f"vertex {bare[0]} lies in no triangle")
    k = SurfaceComplex(vertex_count=nv, tri_vertices=tri)

    # the sides ab, bc, ca of each stored triangle, as low * n_V + high keys
    tail, head = tri, tri[:, [1, 2, 0]]
    keys = np.minimum(tail, head) * nv + np.maximum(tail, head)
    edge_keys, side_edge = np.unique(keys, return_inverse=True)
    k.side_edge = side_edge.reshape(-1, 3)
    k.ends = np.stack(np.divmod(edge_keys, nv), axis=1)
    ne = len(k.ends)

    # per edge: the triangles on it, and how many run it low -> high,
    # which is 1 for a consistently oriented pair
    sides = k.side_edge.ravel()
    count = np.bincount(sides, minlength=ne)
    forward = np.bincount(sides, weights=(tail < head).ravel(), minlength=ne)
    bad = (count > 2) | ((count == 2) & (forward != 1))
    if bad.any():
        ei = int(np.argmax(bad))
        edge = tuple(k.ends[ei].tolist())
        if count[ei] > 2:
            raise NonManifold(f"edge {edge} lies in {count[ei]} triangles")
        raise InconsistentOrientation(
            f"edge {edge} is traversed twice in the same direction")

    w = np.sort(tri, axis=1)
    k.tri_edges = np.searchsorted(
        edge_keys, w[:, [0, 0, 1]] * nv + w[:, [1, 2, 2]]).reshape(-1, 3)
    inversions = (tri[:, 0] > tri[:, 1]).astype(int) + (tri[:, 0] > tri[:, 2]) \
        + (tri[:, 1] > tri[:, 2])
    k.sorted_sign = 1 - 2 * (inversions % 2)
    # a stable sort keeps each edge's slots in stored order
    slots = np.argsort(k.tri_edges.ravel(), kind="stable")
    first = np.cumsum(count) - count
    k.edge_slots = np.stack(
        [slots[first], np.where(count == 2, slots[first + count - 1], -1)], axis=1)

    # a boundary edge runs the way its one side does
    rim = np.flatnonzero(count == 1)
    side_of = np.empty(ne, dtype=int)
    side_of[sides] = np.arange(sides.size)
    on_rim = side_of[rim]
    k.boundary_components = _boundary_cycles(
        tail.ravel()[on_rim].tolist(), head.ravel()[on_rim].tolist(), rim.tolist())

    k.component_of = _breadth_first(nv, k.ends, [])[4]
    k.n_components = int(k.component_of.max(initial=-1)) + 1
    if k.n_components > 1:
        warnings.warn(
            f"complex has {k.n_components} components", NotConnectedWarning,
            stacklevel=2,
        )
    return k


def edge_ids(k, u, v):
    """Id of the edge {u, v} of `k` for each pair of vertex ids, given in
    either order, or -1 where {u, v} is not an edge: an id outside
    [0, n_V), equal ends, or no such edge.  Searches the low * n_V + high
    keys of `ends`, which are sorted since `ends` is; ids beyond int64 are
    out of range, not an overflow."""
    nv = k.vertex_count
    u, v = np.asarray(u), np.asarray(v)
    low, high = np.minimum(u, v), np.maximum(u, v)
    # an id out of range would alias a real key, or overflow int64, so it
    # becomes 0 and misses, as equal ends do: (0, 0) is no edge
    valid = (low >= 0) & (high < nv)
    low, high = (np.where(valid, x, 0).astype(np.int64, copy=False) for x in (low, high))
    key = low * nv + high
    # every key is below the sentinel n_V^2, so each search lands in range
    keys = np.concatenate([k.ends @ (nv, 1), [nv * nv]])
    at = np.searchsorted(keys, key)
    return np.where(keys[at] == key, at, -1)


def _path_steps(k, path):
    """The edge id of each step of a vertex path, with one `edge_ids`
    search, and whether the step runs low -> high; raises InvalidParameter
    when a step is not an edge."""
    ids = edge_ids(k, path[:-1], path[1:])
    if (ids < 0).any():
        raise InvalidParameter("path steps off the edges of the complex")
    return ids, np.less(path[:-1], path[1:])


def _triangle_table(nv, triangles):
    """The triangles as an (n_T, 3) int array, raising InvalidParameter at
    the first one that lacks three distinct vertex ids in range."""
    try:
        tri = np.array(triangles, dtype=np.int64).reshape(-1, 3)
    except (ValueError, OverflowError):
        tri = None
    if tri is not None and len(tri) == len(triangles):
        _check_triangles(nv, triangles, tri)
        return tri
    # a row of another length, or an id beyond int64: check the rows
    # before the first odd one as they are, then that one
    sizes = np.fromiter(map(len, triangles), dtype=int, count=len(triangles))
    first = np.append(np.flatnonzero(sizes != 3), len(triangles))[0]
    _check_triangles(nv, triangles, np.array(triangles[:first], dtype=object).reshape(-1, 3))
    raise InvalidParameter(
        f"triangle {tuple(map(int, triangles[first]))} must have three distinct vertices")


def _check_triangles(nv, triangles, tri):
    repeated = (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 0] == tri[:, 2])
    bad = np.flatnonzero(repeated | (tri.min(axis=1) < 0) | (tri.max(axis=1) >= nv))
    if bad.size:
        t = tuple(map(int, triangles[bad[0]]))
        if repeated[bad[0]]:
            raise InvalidParameter(f"triangle {t} must have three distinct vertices")
        raise InvalidParameter(f"triangle {t} references invalid vertices")


def _boundary_cycles(tails, heads, edges):
    """Walk the boundary edges, given as tail -> head in edge order, into
    cycles; each starts at its lowest vertex, and they come in that
    vertex's order.  Each step records its edge and whether it runs
    low -> high, the one place that decides a boundary step's direction."""
    outgoing = {}
    for tail, head, ei in zip(tails, heads, edges):
        if tail in outgoing:
            raise NonManifold(f"boundary vertex {tail} has several outgoing edges")
        outgoing[tail] = (head, ei)
    cycles = []
    for start in sorted(outgoing):
        steps = []
        v = start
        while v in outgoing:
            head, ei = outgoing.pop(v)
            steps.append((v, ei, v < head))
            v = head
        if steps and v != start:
            raise NonManifold("boundary walk does not close into a cycle")
        if steps:
            verts, eids, forward = map(list, zip(*steps))
            cycles.append({"vertices": verts, "edges": eids, "forward": forward})
    return cycles


def _breadth_first(nodes, ends, seeds):
    """Breadth-first labelling of the graph on `nodes` nodes whose arc i
    joins ends[i].  Walks start from each group of `seeds` in turn, with the
    group's unreached nodes at depth 0, then from each node still unreached,
    in id order; a node takes its arcs in arc order.  Returns the visiting
    order and, per node, the arc and the node that reached it (-1 where a
    walk starts), its depth and its walk, numbered in the order the walks
    start (a seed group already reached keeps its number, with no nodes).
    The one queue walk: `build` labels the components with it, and the
    walks in `twisted` their forests.
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


def metric_from_lengths(k, lengths, tol=DEFAULT_TOL):
    """Validate explicit edge lengths against the complex, every triangle
    at once; raises on the first triangle, in stored order, that fails the
    strict triangle inequalities or is degenerate."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (k.n_edges,):
        raise DegenerateMetric(
            f"expected {k.n_edges} edge lengths, got shape {lengths.shape}"
        )
    if not np.isfinite(lengths).all() or (lengths <= 0).any():
        raise DegenerateMetric("edge lengths must be positive and finite")
    l01, l12, l02 = lengths[k.side_edge].T
    unequal = ~((l01 < l12 + l02) & (l12 < l01 + l02) & (l02 < l01 + l12))
    # float_power squares through libm pow, as a float's ** 2 does
    longest = np.maximum(np.maximum(l01, l12), l02)
    thin = _heron(l01, l12, l02) <= tol.rank_tol * np.float_power(longest, 2)
    bad = np.flatnonzero(unequal | thin)
    if bad.size:
        t = tuple(k.tri_vertices[bad[0]].tolist())
        if unequal[bad[0]]:
            raise DegenerateMetric(f"triangle inequality fails on {t}")
        raise DegenerateMetric(f"triangle {t} is degenerate")
    return PLMetric(lengths=lengths)


def metric_from_positions(k, positions, tol=DEFAULT_TOL):
    pos = np.asarray(positions, dtype=float)
    d = pos[k.ends[:, 0]] - pos[k.ends[:, 1]]
    # one row times its transpose is the dot that np.linalg.norm takes of
    # one vector, so the lengths are bitwise the per-edge norms
    lengths = np.sqrt((d[:, None, :] @ d[:, :, None]).reshape(-1))
    return metric_from_lengths(k, lengths, tol)


def _heron(a, b, c):
    """Area from the side lengths; elementwise on arrays."""
    s = 0.5 * (a + b + c)
    val = s * (s - a) * (s - b) * (s - c)
    return np.sqrt(np.maximum(val, 0.0))


# ---------------------------------------------------------------------------
# Builtin generators
# ---------------------------------------------------------------------------

def presentation(g, k):
    """The surface group of the genus-g surface with k boundary circles:
    the generator names a1, b1, ..., ag, bg, c1, ..., ck, and the relation
    [a1, b1] ... [ag, bg] c1 ... ck = 1 as (name, exponent) pairs.  The one
    place that spells it: every builtin mesh names its loops by it, and a
    moduli point is checked against it, with no mesh."""
    names, relation = [], []
    for i in range(1, g + 1):
        a, b = f"a{i}", f"b{i}"
        names += [a, b]
        relation += [(a, 1), (b, 1), (a, -1), (b, -1)]
    circles = [f"c{j}" for j in range(1, k + 1)]
    return names + circles, tuple(relation + [(c, 1) for c in circles])


def _generator_loops(k, base_vertex, topology, paths, edge_words):
    """The `GeneratorLoops` of a builtin mesh `k` of `topology` (g, number
    of boundary circles), its loop `paths` in the order of `presentation`,
    with the steps of each loop (`_path_steps`); a loop that steps off the
    edges raises here, when the mesh is made."""
    names, relation = presentation(*topology)
    steps = []
    for path in paths:
        edges, forward = _path_steps(k, path)
        steps.append({"edges": edges.tolist(), "forward": forward.tolist()})
    return GeneratorLoops(base_vertex, list(zip(names, paths, strict=True)), relation,
                          edge_words, steps)


# how many builtin meshes `_shared` keeps, the most recently used
_SHARED_MESHES = 8


@functools.lru_cache(maxsize=_SHARED_MESHES)
def _shared(make, *args, **kwargs):
    """`make(*args, **kwargs)`, the (complex, metric, loops) of a builtin
    mesh, built once per argument list and handed to every caller: a sweep
    asks for the same few surfaces again and again, and a shared complex
    keeps its plans (`SurfaceComplex.plan`).  Every array of the complex
    and of the metric is made read-only; the boundary cycles and the loops
    are shared as well, and no caller changes them."""
    k, h, loops = make(*args, **kwargs)
    for a in (*vars(k).values(), *vars(h).values()):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return k, h, loops


def _builtin(make):
    """The generator `make`, shared (`_shared`) under itself and its
    arguments as given; a plain function, as perfbench traces."""

    @functools.wraps(make)
    def shared(*args, **kwargs):
        return _shared(make, *args, **kwargs)

    return shared


@_builtin
def torus(m):
    """Flat unit-square torus on an m x m grid (m >= 3); shared (`_shared`)."""
    if m < 3:
        raise InvalidParameter("torus grid needs m >= 3")
    complex_, metric, words = _square_torus(m)
    vid = lambda i, j: (i % m) * m + (j % m)
    a_path = [vid(i, 0) for i in range(m)] + [vid(0, 0)]
    b_path = [vid(0, j) for j in range(m)] + [vid(0, 0)]
    return complex_, metric, _generator_loops(complex_, 0, (1, 0), [a_path, b_path], words)


def _square_torus(m, removed=()):
    """Complex, metric and edge words of the m x m unit-square torus grid
    less the triangles in `removed`; the seams carry a1 and b1."""
    ids = (np.arange(m + 1) % m)[:, None] * m + np.arange(m + 1) % m
    seam = range(m + 1)
    tris, arcs = _grid(ids, {(m - 1, j): (("a1", 1),) for j in seam},
                       {(i, m - 1): (("b1", 1),) for i in seam}, removed)
    complex_ = build(m * m, tris)
    # grid edges join vertices that share a row or a column, diagonals none
    i, j = np.divmod(complex_.ends, m)
    across = (i[:, 0] != i[:, 1]) & (j[:, 0] != j[:, 1])
    metric = metric_from_lengths(complex_, np.where(across, np.sqrt(2.0) / m, 1.0 / m))
    return complex_, metric, _index_words(complex_, arcs)


def _grid(ids, steps_i, steps_j, removed=()):
    """Triangles and edge words of a grid of squares.

    `ids` is the (ni + 1, nj + 1) array of vertex ids of the grid points
    (i, j); a wrapped side repeats the opposite one.  Each cell, in i-major
    order, is cut into (v00, v10, v11) and (v00, v11, v01), and the
    triangles in `removed` are left out.  `steps_i` and `steps_j` map (i, j)
    to the word of the step to (i + 1, j) and to (i, j + 1), absent ones
    being empty; a diagonal reads the two steps around the first kept
    triangle of its cell.  Returns the kept triangles as an (n_T, 3) array
    and the arcs (u, v, the word read along u -> v) whose word is nonempty.
    """
    v00, v10, v11, v01 = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    kept = np.ones(len(tris), dtype=bool)
    for t in removed:
        kept &= (tris != t).any(axis=1)
    first = kept[::2].reshape(v00.shape).tolist()
    ni, nj = v00.shape
    at = ids.tolist()
    # (u, v, the word read along u -> v)
    arcs = [(at[i][j], at[i + 1][j], w) for (i, j), w in steps_i.items()]
    arcs += [(at[i][j], at[i][j + 1], w) for (i, j), w in steps_j.items()]
    # only a cell next to a nonempty step can have a nonempty diagonal
    cells = {(i, j - d) for i, j in steps_i for d in (0, 1)} \
        | {(i - d, j) for i, j in steps_j for d in (0, 1)}
    for i, j in sorted(c for c in cells if 0 <= c[0] < ni and 0 <= c[1] < nj):
        if first[i][j]:
            word = steps_i.get((i, j), ()) + steps_j.get((i + 1, j), ())
        else:
            word = steps_j.get((i, j), ()) + steps_i.get((i, j + 1), ())
        arcs.append((at[i][j], at[i + 1][j + 1], word))
    return tris[kept], [arc for arc in arcs if arc[2]]


def _invert(word):
    return tuple((n, -e) for n, e in reversed(word))


def _index_words(k, arcs):
    """The words of `arcs` (u, v, word read u -> v) by edge id, read low ->
    high; a later arc on the same edge wins."""
    ids = edge_ids(k, [u for u, _, _ in arcs], [v for _, v, _ in arcs]).tolist()
    return {ei: w if u < v else _invert(w) for ei, (u, v, w) in zip(ids, arcs)}


@_builtin
def annulus(m, n):
    """Planar annulus (radii 1..2) on an m x (n+1) cylinder grid; shared
    (`_shared`)."""
    if m < 3 or n < 1:
        raise InvalidParameter("annulus needs m >= 3 angular and n >= 1 radial")
    vid = lambda i, j: j * m + (i % m)

    def pos(i, j):
        r = 1.0 + j / n
        th = 2.0 * np.pi * (i % m) / m
        return np.array([r * np.cos(th), r * np.sin(th)])

    # the seam between angular columns m - 1 and 0 carries c1
    ids = np.arange(n + 1) * m + (np.arange(m + 1) % m)[:, None]
    tris, arcs = _grid(ids, {(m - 1, j): (("c1", 1),) for j in range(n + 1)}, {})
    complex_ = build(m * (n + 1), tris)
    positions = np.array([pos(v % m, v // m) for v in range(m * (n + 1))])
    metric = metric_from_positions(complex_, positions)
    c1 = [vid(i, 0) for i in range(m)] + [vid(0, 0)]
    c2 = (
        [vid(0, j) for j in range(n + 1)]
        + [vid(m - 1 - i, n) for i in range(m)]
        + [vid(0, n - j) for j in range(1, n + 1)]
    )
    loops = _generator_loops(complex_, 0, (0, 2), [c1, c2], _index_words(complex_, arcs))
    return complex_, metric, loops


@_builtin
def disk(m):
    """Regular m-gon fanned from its barycenter; trivial surface group;
    shared (`_shared`)."""
    if m < 3:
        raise InvalidParameter("disk needs m >= 3 boundary vertices")
    center = m
    tris = [(i, (i + 1) % m, center) for i in range(m)]
    complex_ = build(m + 1, tris)
    positions = np.vstack([
        [[np.cos(2 * np.pi * i / m), np.sin(2 * np.pi * i / m)] for i in range(m)],
        [[0.0, 0.0]],
    ])
    metric = metric_from_positions(complex_, positions)
    loops = _generator_loops(complex_, 0, (0, 1), [list(range(m)) + [0]], {})
    return complex_, metric, loops


@_builtin
def sphere(subdiv=1):
    """Octahedron refined `subdiv - 1` times, vertices on the unit sphere;
    shared (`_shared`)."""
    positions = [
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
    ]
    tris = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    positions = [np.array(p, dtype=float) for p in positions]
    for _ in range(max(subdiv - 1, 0)):
        midpoint = {}
        new_tris = []

        def mid(u, v):
            key = (u, v) if u < v else (v, u)
            if key not in midpoint:
                p = positions[u] + positions[v]
                positions.append(p / np.linalg.norm(p))
                midpoint[key] = len(positions) - 1
            return midpoint[key]

        for a, b, c in tris:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        tris = new_tris
    complex_ = build(len(positions), tris)
    metric = metric_from_positions(complex_, np.array(positions))
    loops = _generator_loops(complex_, 0, (0, 0), [], {})
    return complex_, metric, loops


@_builtin
def genus_k(g, k, subdiv=1):
    """Genus-g surface with k boundary components and its generator loops.

    Supported meshes: the sphere (0,0), punctured spheres (0,k) built from a
    rectangle grid with k-1 triangular holes and vertical cuts to the bottom
    edge, the torus (1,0) and the one-holed torus (1,1) with the grid corner
    triangle removed.  Higher genus grids are not implemented.  Shared
    (`_shared`).
    """
    if g < 0 or k < 0 or subdiv < 1:
        raise InvalidParameter("need g >= 0, k >= 0, subdiv >= 1")
    if g == 0 and k == 0:
        return sphere(subdiv)
    if g == 0:
        return _punctured_rectangle(k, subdiv)
    if g == 1 and k == 0:
        return torus(3 * subdiv)
    if g == 1 and k == 1:
        return _one_holed_torus(3 * subdiv)
    raise InvalidParameter(
        f"genus_k({g},{k}) mesh not implemented (supported: g=0 any k; g=1, k<=1)"
    )


def _one_holed_torus(m):
    """Torus grid minus the corner relator triangle; a free surface group."""
    vid = lambda i, j: (i % m) * m + (j % m)
    complex_, metric, words = _square_torus(m, [(vid(m - 1, m - 1), vid(0, 0), vid(m - 1, 0))])
    a_path = [vid(i, 0) for i in range(m)] + [vid(0, 0)]
    b_path = [vid(0, j) for j in range(m)] + [vid(0, 0)]
    # loop around the removed triangle, conjugated so that the standard
    # relation [a1, b1] c1 = 1 holds on the nose
    hole = [vid(0, 0), vid(m - 1, m - 1), vid(m - 1, 0), vid(0, 0)]
    c_path = _concat(a_path, b_path, hole, _reverse(b_path), _reverse(a_path))
    return complex_, metric, _generator_loops(complex_, 0, (1, 1), [a_path, b_path, c_path],
                                              words)


def _concat(*paths):
    out = list(paths[0])
    for p in paths[1:]:
        if p[0] != out[-1]:
            raise InvalidParameter("paths do not concatenate")
        out.extend(p[1:])
    return out


def _reverse(path):
    return list(reversed(path))


def _punctured_rectangle(k, subdiv):
    """Sphere with k >= 1 holes: a rectangle grid (outer boundary = last
    hole) with k-1 removed triangles and cut words running to the bottom."""
    s = 3 * subdiv
    width = max(k - 1, 1) * s
    height = s
    vid = lambda i, j: i * (height + 1) + j
    holes = [(j * s + 1, height - 2) for j in range(k - 1)]
    hole_letter = {x: ("c%d" % (j + 1)) for j, (x, y) in enumerate(holes)}
    # the cut from the hole in column x runs straight down, crossing the
    # steps from column x to x + 1 in the rows up to the hole's
    ids = np.arange((width + 1) * (height + 1)).reshape(width + 1, height + 1)
    tris, arcs = _grid(
        ids, {(x, j): ((hole_letter[x], 1),) for x, y in holes for j in range(y + 1)}, {},
        [(vid(x, y), vid(x + 1, y), vid(x + 1, y + 1)) for x, y in holes])
    complex_ = build((width + 1) * (height + 1), tris)
    spacing = 1.0 / height
    positions = np.array(
        [[(v // (height + 1)) * spacing, (v % (height + 1)) * spacing]
         for v in range((width + 1) * (height + 1))]
    )
    metric = metric_from_positions(complex_, positions)

    paths = []
    for x, y in holes:
        tail = [vid(i, height) for i in range(x + 1)] + [vid(x, height - 1), vid(x, y)]
        cycle = [vid(x, y), vid(x + 1, y), vid(x + 1, y + 1), vid(x, y)]
        paths.append(_concat(tail, cycle, _reverse(tail)))
    # the outer boundary, c_k
    paths.append(
        [vid(i, height) for i in range(width + 1)]
        + [vid(width, height - 1 - j) for j in range(height)]
        + [vid(width - 1 - i, 0) for i in range(width)]
        + [vid(0, j) for j in range(1, height + 1)]
    )
    loops = _generator_loops(complex_, vid(0, height), (0, k), paths,
                             _index_words(complex_, arcs))
    return complex_, metric, loops


def perturbed_metric(k, h, rng, amplitude=0.1, max_tries=60):
    """Random valid metric near `h` (multiplicative length jitter); the
    jitter amplitude shrinks if thin triangles keep failing validation."""
    for attempt in range(max_tries):
        amp = amplitude * 0.5 ** (attempt // 10)
        lengths = h.lengths * (1.0 + amp * rng.uniform(-1, 1, k.n_edges))
        try:
            return metric_from_lengths(k, lengths)
        except DegenerateMetric:
            continue
    raise DegenerateMetric("could not perturb the metric; amplitude too large")


def is_json_array(value, depth, kind=(int, float)):
    """Whether `value` is a JSON list nested `depth` deep (a bare value at
    depth 0) holding numbers of `kind`, never booleans, at the leaves."""
    if depth == 0:
        return isinstance(value, kind) and not isinstance(value, bool)
    return isinstance(value, list) and all(is_json_array(x, depth - 1, kind) for x in value)


def mesh_from_json(data):
    """Build (complex, metric) from the mesh JSON schema.

    {"vertices": count | [[x, y, z], ...], "triangles": [[i, j, k], ...],
     "edge_lengths": [[i, j, length], ...] (optional)}; vertex coordinates
    imply edge lengths when explicit lengths are absent.
    """
    if not isinstance(data, dict) or not {"triangles", "vertices"} <= data.keys():
        raise InvalidParameter("mesh JSON needs 'vertices' and 'triangles'")
    verts = data["vertices"]
    if not (is_json_array(verts, 0, int) or is_json_array(verts, 2)):
        raise InvalidParameter("mesh 'vertices' must be a count or a list of coordinates")
    if not is_json_array(data["triangles"], 2, int):
        raise InvalidParameter("mesh 'triangles' must be a list of vertex id lists")
    entries = data.get("edge_lengths", [])
    if not (is_json_array(entries, 1, list) and all(
            len(e) == 3 and is_json_array(e[:2], 1, int) and is_json_array(e[2], 0)
            for e in entries)):
        raise InvalidParameter("mesh 'edge_lengths' must be a list of [i, j, length] "
                               "with integer vertex ids")
    if isinstance(verts, int):
        count, positions = verts, None
    else:
        positions = np.asarray(verts, dtype=float)
        if positions.ndim != 2 or positions.shape[1] not in (2, 3):
            raise InvalidParameter("vertex coordinates must be 2- or 3-vectors")
        count = positions.shape[0]
    k = build(count, data["triangles"])
    if "edge_lengths" in data:
        lengths = np.zeros(k.n_edges)
        seen = np.zeros(k.n_edges, dtype=bool)
        ids = edge_ids(k, [e[0] for e in entries], [e[1] for e in entries]).tolist()
        for (i, j, length), ei in zip(entries, ids):
            if ei < 0:
                raise InvalidParameter(f"edge_lengths entry {(min(i, j), max(i, j))} "
                                       "is not an edge")
            if seen[ei]:
                raise InvalidParameter(f"edge_lengths entry {tuple(k.ends[ei].tolist())} "
                                       "given twice")
            lengths[ei] = float(length)
            seen[ei] = True
        if not seen.all():
            raise InvalidParameter("edge_lengths misses some edges")
        return k, metric_from_lengths(k, lengths)
    if positions is None:
        raise InvalidParameter(
            "mesh JSON needs vertex coordinates or explicit edge_lengths")
    return k, metric_from_positions(k, positions)


def disjoint_union(k1, k2):
    """Disjoint union of two complexes; second block of vertices is offset."""
    offset = k1.vertex_count
    tris = np.concatenate([k1.tri_vertices, k2.tri_vertices + offset])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConnectedWarning)
        k = build(k1.vertex_count + k2.vertex_count, tris)
    return k, offset


def subcomplex(k, component):
    """One connected component as its own complex; its vertices are those
    of `k.component_of == component`, renumbered in their order."""
    inside = k.component_of == component
    new_id = np.cumsum(inside) - 1
    tris = new_id[k.tri_vertices[inside[k.tri_vertices[:, 0]]]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConnectedWarning)
        return build(np.count_nonzero(inside), tris)
