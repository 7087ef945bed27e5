"""Oriented triangulated compact surfaces with boundary: combinatorics,
piecewise flat metrics and the builtin meshes.

A `SurfaceComplex` stores orientation-bearing triangles over integer vertex
ids and derives everything else: canonical edges (low id -> high id, in
lexicographic order, also as the (n_E, 2) array `ends`), the
triangle-edge table `tri_edges` (per triangle with sorted vertices
w0 < w1 < w2, the ids of w0w1, w0w2 and w1w2), its inverse `edge_slots`
(per edge, the positions 3 t + j where it occurs in `tri_edges.ravel()`,
in stored order, with -1 for the missing second triangle of a boundary
edge), boundary cycles, connected components, and the parity
`sorted_sign` relating each stored triangle orientation to its sorted
vertex order (the fundamental 2-cycle is the sum of all triangles with
sign +1 in stored order).  `build` derives them with array operations
over all triangles, walking only the boundary edges;
`metric_from_lengths` validates every triangle at once from `tri_edges`.
The Whitney matrices are assembled from this table in `hodge`, which sums
per-triangle results back onto the edges through `edge_slots`, as do the
dual-graph walks in `twisted`.

Builtin generators emit flat-metric grids (torus, annulus, disk, punctured
sphere, one-holed torus and the round sphere) together with
  * a `PLMetric` from the generating embedding, and
  * `GeneratorLoops`: based edge loops for the surface-group generators,
    the group relation they satisfy, and a per-edge word table that lets a
    representation of the surface group be compiled into exact edge
    transports (see `localsys.from_representation`).  The grid surfaces
    (torus, one-holed torus, annulus, punctured sphere) come from one array
    of vertex ids (`_grid`): each grid step carries the word of the seam or
    cut it crosses, and each diagonal the two steps around its cell's first
    kept triangle, so triangle holonomy words reduce to the identity freely
    (or to the group relation on the one removed relator triangle).
"""

from __future__ import annotations

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
    triangles: list
    edges: list = field(default_factory=list)
    edge_index: dict = field(default_factory=dict)
    tri_edges: np.ndarray | None = None  # (n_T, 3) ids of w0w1, w0w2, w1w2
    # (n_E, 2) positions 3 t + j of each edge in tri_edges.ravel(), in
    # stored order; -1 second on a boundary edge
    edge_slots: np.ndarray | None = None
    ends: np.ndarray | None = None  # (n_E, 2) low and high vertex of each edge
    sorted_sign: np.ndarray | None = None
    boundary_edge_indices: list = field(default_factory=list)
    boundary_vertices: list = field(default_factory=list)
    boundary_components: list = field(default_factory=list)
    component_of: np.ndarray | None = None
    n_components: int = 0

    @property
    def n_vertices(self):
        return self.vertex_count

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def euler_characteristic(self):
        return self.vertex_count - self.n_edges + self.n_triangles

    def edge_id(self, u, v):
        return self.edge_index[(u, v) if u < v else (v, u)]


@dataclass
class PLMetric:
    """Edge lengths (aligned with `SurfaceComplex.edges`) of a piecewise
    flat metric; validated against strict triangle inequalities."""

    lengths: np.ndarray

    def length(self, complex_, u, v):
        return float(self.lengths[complex_.edge_id(u, v)])


@dataclass
class GeneratorLoops:
    """Based loops generating the surface group of a builtin surface.

    `loops` is an ordered list of (name, vertex path); names follow the
    pattern a1, b1, ..., ag, bg, c1, ..., ck and the concatenation given by
    `relation` (a word in those names) is nullhomotopic.  `edge_words` maps
    a canonical edge index to the group word picked up when traversing the
    edge from its low vertex to its high vertex; absent indices carry the
    empty word.
    """

    base_vertex: int
    loops: list
    relation: list
    edge_words: dict = field(default_factory=dict)

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
    the boundary edges are walked, into cycles.  Invalid input raises on
    the first offending triangle, vertex or edge.
    """
    nv = int(vertex_count)
    tri = _triangle_table(nv, triangles)
    bare = np.flatnonzero(np.bincount(tri.ravel(), minlength=nv) == 0)
    if bare.size:
        raise InvalidParameter(f"vertex {bare[0]} lies in no triangle")
    k = SurfaceComplex(vertex_count=nv, triangles=list(map(tuple, tri.tolist())))

    # the sides ab, bc, ca of each stored triangle, as low * n_V + high keys
    tail, head = tri, tri[:, [1, 2, 0]]
    keys = np.minimum(tail, head) * nv + np.maximum(tail, head)
    edge_keys, side_edge = np.unique(keys, return_inverse=True)
    side_edge = side_edge.reshape(-1, 3)
    k.ends = np.stack(np.divmod(edge_keys, max(nv, 1)), axis=1).reshape(-1, 2)
    k.edges = list(map(tuple, k.ends.tolist()))
    k.edge_index = dict(zip(k.edges, range(len(k.edges))))

    # per edge: the triangles on it, and how many run it low -> high,
    # which is 1 for a consistently oriented pair
    sides = side_edge.ravel()
    count = np.bincount(sides, minlength=len(k.edges))
    forward = np.bincount(sides, weights=(tail < head).ravel(), minlength=len(k.edges))
    bad = (count > 2) | ((count == 2) & (forward != 1))
    if bad.any():
        ei = int(np.argmax(bad))
        if count[ei] > 2:
            raise NonManifold(f"edge {k.edges[ei]} lies in {count[ei]} triangles")
        raise InconsistentOrientation(
            f"edge {k.edges[ei]} is traversed twice in the same direction")

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

    k.boundary_edge_indices = np.flatnonzero(count == 1).tolist()
    # a boundary edge runs the way its one side does
    side_of = np.empty(len(k.edges), dtype=int)
    side_of[sides] = np.arange(sides.size)
    on_boundary = side_of[k.boundary_edge_indices]
    tails = tail.ravel()[on_boundary]
    k.boundary_components = _boundary_cycles(
        tails.tolist(), head.ravel()[on_boundary].tolist(), k.boundary_edge_indices)
    k.boundary_vertices = np.sort(tails).tolist()

    k.component_of, k.n_components = _components(nv, k.ends)
    if k.n_components > 1:
        warnings.warn(
            f"complex has {k.n_components} components", NotConnectedWarning,
            stacklevel=2,
        )
    return k


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
    vertex's order."""
    outgoing = {}
    for tail, head, ei in zip(tails, heads, edges):
        if tail in outgoing:
            raise NonManifold(f"boundary vertex {tail} has several outgoing edges")
        outgoing[tail] = (head, ei)
    cycles = []
    for start in sorted(outgoing):
        verts, eids = [], []
        v = start
        while v in outgoing:
            head, ei = outgoing.pop(v)
            verts.append(v)
            eids.append(ei)
            v = head
        if verts and v != start:
            raise NonManifold("boundary walk does not close into a cycle")
        if verts:
            cycles.append({"vertices": verts, "edges": eids})
    return cycles


def _components(nv, ends):
    """Component id of each vertex, numbered by lowest vertex, and their
    count: every edge lowers both ends' labels to the smaller, then each
    label jumps to its label's label, until nothing moves."""
    label = np.arange(nv)
    a, b = ends.T
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # each component's label is its lowest vertex, its root
    roots = label == np.arange(nv)
    return np.cumsum(roots)[label] - 1, int(roots.sum())


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
    l12, l02, l01 = lengths[opposite_edges(k)].T
    unequal = ~((l01 < l12 + l02) & (l12 < l01 + l02) & (l02 < l01 + l12))
    # float_power squares through libm pow, as a float's ** 2 does
    longest = np.maximum(np.maximum(l01, l12), l02)
    thin = _heron(l01, l12, l02) <= tol.rank_tol * np.float_power(longest, 2)
    bad = np.flatnonzero(unequal | thin)
    if bad.size:
        t = k.triangles[bad[0]]
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


def opposite_edges(k):
    """Ids of the edges opposite the vertices t0, t1, t2 of each stored
    triangle (t1t2, t0t2, t0t1): for a vertex of sorted rank r that is
    column 2 - r of `tri_edges`."""
    tri = np.asarray(k.triangles, dtype=int).reshape(-1, 3)
    rank = tri.argsort(axis=1).argsort(axis=1)
    return np.take_along_axis(k.tri_edges, 2 - rank, axis=1)


def _heron(a, b, c):
    """Area from the side lengths; elementwise on arrays."""
    s = 0.5 * (a + b + c)
    val = s * (s - a) * (s - b) * (s - c)
    return np.sqrt(np.maximum(val, 0.0))


# ---------------------------------------------------------------------------
# Builtin generators
# ---------------------------------------------------------------------------

def _word(*letters):
    """Normalize a word given as (name, exponent) pairs, dropping zeros."""
    return tuple((n, e) for n, e in letters if e != 0)


def torus(m):
    """Flat unit-square torus on an m x m grid (m >= 3)."""
    if m < 3:
        raise InvalidParameter("torus grid needs m >= 3")
    complex_, metric, words = _square_torus(m)
    vid = lambda i, j: (i % m) * m + (j % m)
    a_path = [vid(i, 0) for i in range(m)] + [vid(0, 0)]
    b_path = [vid(0, j) for j in range(m)] + [vid(0, 0)]
    loops = GeneratorLoops(
        base_vertex=0,
        loops=[("a1", a_path), ("b1", b_path)],
        relation=_word(("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1)),
        edge_words=words,
    )
    return complex_, metric, loops


def _square_torus(m, removed=()):
    """Complex, metric and edge words of the m x m unit-square torus grid
    less the triangles in `removed`; the seams carry a1 and b1."""
    ids = (np.arange(m + 1) % m)[:, None] * m + np.arange(m + 1) % m
    seam = range(m + 1)
    tris, words = _grid(ids, {(m - 1, j): _word(("a1", 1)) for j in seam},
                        {(i, m - 1): _word(("b1", 1)) for i in seam}, removed)
    complex_ = build(m * m, tris)
    # grid edges join vertices that share a row or a column, diagonals none
    i, j = np.divmod(complex_.ends, m)
    across = (i[:, 0] != i[:, 1]) & (j[:, 0] != j[:, 1])
    metric = metric_from_lengths(complex_, np.where(across, np.sqrt(2.0) / m, 1.0 / m))
    return complex_, metric, _index_words(complex_, words)


def _grid(ids, steps_i, steps_j, removed=()):
    """Triangles and edge words of a grid of squares.

    `ids` is the (ni + 1, nj + 1) array of vertex ids of the grid points
    (i, j); a wrapped side repeats the opposite one.  Each cell, in i-major
    order, is cut into (v00, v10, v11) and (v00, v11, v01), and the
    triangles in `removed` are left out.  `steps_i` and `steps_j` map (i, j)
    to the word of the step to (i + 1, j) and to (i, j + 1), absent ones
    being empty; a diagonal reads the two steps around the first kept
    triangle of its cell.  Returns the kept triangles as an (n_T, 3) array
    and the nonempty words of the canonical edges, read low -> high and
    keyed (low, high).
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
    return tris[kept], {(u, v) if u < v else (v, u): w if u < v else _invert(w)
                        for u, v, w in arcs if w}


def _invert(word):
    return tuple((n, -e) for n, e in reversed(word))


def _index_words(k, words):
    return {k.edge_index[e]: w for e, w in words.items() if w}


def annulus(m, n):
    """Planar annulus (radii 1..2) on an m x (n+1) cylinder grid."""
    if m < 3 or n < 1:
        raise InvalidParameter("annulus needs m >= 3 angular and n >= 1 radial")
    vid = lambda i, j: j * m + (i % m)

    def pos(i, j):
        r = 1.0 + j / n
        th = 2.0 * np.pi * (i % m) / m
        return np.array([r * np.cos(th), r * np.sin(th)])

    # the seam between angular columns m - 1 and 0 carries c1
    ids = np.arange(n + 1) * m + (np.arange(m + 1) % m)[:, None]
    tris, words = _grid(ids, {(m - 1, j): _word(("c1", 1)) for j in range(n + 1)}, {})
    complex_ = build(m * (n + 1), tris)
    positions = np.array([pos(v % m, v // m) for v in range(m * (n + 1))])
    metric = metric_from_positions(complex_, positions)
    c1 = [vid(i, 0) for i in range(m)] + [vid(0, 0)]
    c2 = (
        [vid(0, j) for j in range(n + 1)]
        + [vid(m - 1 - i, n) for i in range(m)]
        + [vid(0, n - j) for j in range(1, n + 1)]
    )
    loops = GeneratorLoops(
        base_vertex=0,
        loops=[("c1", c1), ("c2", c2)],
        relation=_word(("c1", 1), ("c2", 1)),
        edge_words=_index_words(complex_, words),
    )
    return complex_, metric, loops


def disk(m):
    """Regular m-gon fanned from its barycenter; trivial surface group."""
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
    loops = GeneratorLoops(
        base_vertex=0,
        loops=[("c1", list(range(m)) + [0])],
        relation=_word(("c1", 1)),
        edge_words={},
    )
    return complex_, metric, loops


def sphere(subdiv=1):
    """Octahedron refined `subdiv - 1` times, vertices on the unit sphere."""
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
    loops = GeneratorLoops(base_vertex=0, loops=[], relation=(), edge_words={})
    return complex_, metric, loops


def genus_k(g, k, subdiv=1):
    """Genus-g surface with k boundary components and its generator loops.

    Supported meshes: the sphere (0,0), punctured spheres (0,k) built from a
    rectangle grid with k-1 triangular holes and vertical cuts to the bottom
    edge, the torus (1,0) and the one-holed torus (1,1) with the grid corner
    triangle removed.  Higher genus grids are not implemented.
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
    loops = GeneratorLoops(
        base_vertex=0,
        loops=[("a1", a_path), ("b1", b_path), ("c1", c_path)],
        relation=_word(("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1), ("c1", 1)),
        edge_words=words,
    )
    return complex_, metric, loops


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
    tris, words = _grid(
        ids, {(x, j): _word((hole_letter[x], 1)) for x, y in holes for j in range(y + 1)}, {},
        [(vid(x, y), vid(x + 1, y), vid(x + 1, y + 1)) for x, y in holes])
    complex_ = build((width + 1) * (height + 1), tris)
    spacing = 1.0 / height
    positions = np.array(
        [[(v // (height + 1)) * spacing, (v % (height + 1)) * spacing]
         for v in range((width + 1) * (height + 1))]
    )
    metric = metric_from_positions(complex_, positions)

    base = vid(0, height)
    loop_list = []
    for x, y in holes:
        tail = [vid(i, height) for i in range(x + 1)] + [vid(x, height - 1), vid(x, y)]
        cycle = [vid(x, y), vid(x + 1, y), vid(x + 1, y + 1), vid(x, y)]
        loop_list.append((hole_letter[x], _concat(tail, cycle, _reverse(tail))))
    outer = (
        [vid(i, height) for i in range(width + 1)]
        + [vid(width, height - 1 - j) for j in range(height)]
        + [vid(width - 1 - i, 0) for i in range(width)]
        + [vid(0, j) for j in range(1, height + 1)]
    )
    loop_list.append(("c%d" % k, outer))
    loops = GeneratorLoops(
        base_vertex=base,
        loops=loop_list,
        relation=_word(*[("c%d" % (j + 1), 1) for j in range(k)]),
        edge_words=_index_words(complex_, words),
    )
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
        for i, j, length in entries:
            key = (i, j) if i < j else (j, i)
            if key not in k.edge_index:
                raise InvalidParameter(f"edge_lengths entry {key} is not an edge")
            if seen[k.edge_index[key]]:
                raise InvalidParameter(f"edge_lengths entry {key} given twice")
            lengths[k.edge_index[key]] = float(length)
            seen[k.edge_index[key]] = True
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
    tris = list(k1.triangles) + [
        (a + offset, b + offset, c + offset) for a, b, c in k2.triangles
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConnectedWarning)
        k = build(k1.vertex_count + k2.vertex_count, tris)
    return k, offset


def subcomplex(k, component):
    """Extract one connected component; returns (complex, vertex map old->new)."""
    verts = sorted(np.flatnonzero(k.component_of == component))
    vmap = {v: i for i, v in enumerate(verts)}
    tris = [tuple(vmap[v] for v in t) for t in k.triangles
            if k.component_of[t[0]] == component]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConnectedWarning)
        sub = build(len(verts), tris)
    return sub, vmap
