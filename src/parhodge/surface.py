"""Oriented triangulated compact surfaces with boundary: combinatorics,
piecewise flat metrics and the builtin meshes.

A `SurfaceComplex` stores orientation-bearing triangles over integer vertex
ids and derives everything else: canonical edges (low id -> high id), the
triangle-edge table `tri_edges` (per triangle with sorted vertices
w0 < w1 < w2, the ids of w0w1, w0w2 and w1w2), boundary cycles, connected
components, and the parity `sorted_sign` relating each stored triangle
orientation to its sorted vertex order (the fundamental 2-cycle is the sum
of all triangles with sign +1 in stored order).  The Whitney matrices are
assembled from this table in `hodge`.

Builtin generators emit flat-metric grids (torus, annulus, disk, punctured
sphere, one-holed torus and the round sphere) together with
  * a `PLMetric` from the generating embedding, and
  * `GeneratorLoops`: based edge loops for the surface-group generators,
    the group relation they satisfy, and a per-edge word table that lets a
    representation of the surface group be compiled into exact edge
    transports (see `localsys.from_representation`).  The word tables come
    from seam/cut crossings of the explicit grid constructions, so triangle
    holonomy words reduce to the identity freely (or to the group relation
    on the one removed relator triangle).
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
    """Validate triangles and derive the full combinatorial structure."""
    tris = []
    for t in triangles:
        t = tuple(int(v) for v in t)
        if len(t) != 3 or len(set(t)) != 3:
            raise InvalidParameter(f"triangle {t} must have three distinct vertices")
        if min(t) < 0 or max(t) >= vertex_count:
            raise InvalidParameter(f"triangle {t} references invalid vertices")
        tris.append(t)
    k = SurfaceComplex(vertex_count=int(vertex_count), triangles=tris)

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
    k.edges = order
    k.edge_index = {e: i for i, e in enumerate(order)}
    remap = {edge_set[e]: k.edge_index[e] for e in edge_set}
    by_edge = [None] * len(order)
    for old, new in remap.items():
        by_edge[new] = edge_tris[old]

    for ei, incident in enumerate(by_edge):
        if len(incident) > 2:
            raise NonManifold(f"edge {k.edges[ei]} lies in {len(incident)} triangles")
        if len(incident) == 2 and incident[0][1] == incident[1][1]:
            raise InconsistentOrientation(
                f"edge {k.edges[ei]} is traversed twice in the same direction"
            )

    k.tri_edges = np.array(
        [(k.edge_index[(w0, w1)], k.edge_index[(w0, w2)], k.edge_index[(w1, w2)])
         for w0, w1, w2 in map(sorted, tris)], dtype=int).reshape(-1, 3)
    k.sorted_sign = np.array([_parity(t) for t in tris], dtype=int)

    k.boundary_edge_indices = sorted(
        ei for ei, incident in enumerate(by_edge) if len(incident) == 1
    )
    k.boundary_components = _boundary_cycles(k, by_edge)
    bverts = set()
    for comp in k.boundary_components:
        bverts.update(comp["vertices"])
    k.boundary_vertices = sorted(bverts)

    k.component_of, k.n_components = _components(k)
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


def _boundary_cycles(k, by_edge):
    """Walk boundary edges into cycles following the induced orientation
    (each boundary edge is traversed the way its one triangle traverses it)."""
    outgoing = {}
    for ei in (i for i, inc in enumerate(by_edge) if len(inc) == 1):
        a, b = k.edges[ei]
        ti, sign = by_edge[ei][0]
        tail, head = (a, b) if sign == 1 else (b, a)
        if tail in outgoing:
            raise NonManifold(f"boundary vertex {tail} has several outgoing edges")
        outgoing[tail] = (head, ei)

    cycles = []
    seen = set()
    for start in sorted(outgoing):
        if start in seen:
            continue
        verts, eids = [start], []
        v = start
        while True:
            seen.add(v)
            head, ei = outgoing[v]
            eids.append(ei)
            if head == start:
                break
            if head in seen or head not in outgoing:
                raise NonManifold("boundary walk does not close into a cycle")
            verts.append(head)
            v = head
        cycles.append({"vertices": verts, "edges": eids})
    return cycles


def _components(k):
    parent = list(range(k.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in k.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = {}
    comp = np.zeros(k.vertex_count, dtype=int)
    for v in range(k.vertex_count):
        r = find(v)
        if r not in roots:
            roots[r] = len(roots)
        comp[v] = roots[r]
    return comp, len(roots) if k.vertex_count else 0


def metric_from_lengths(k, lengths, tol=DEFAULT_TOL):
    """Validate explicit edge lengths against the complex."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (k.n_edges,):
        raise DegenerateMetric(
            f"expected {k.n_edges} edge lengths, got shape {lengths.shape}"
        )
    if not np.isfinite(lengths).all() or (lengths <= 0).any():
        raise DegenerateMetric("edge lengths must be positive and finite")
    for t in k.triangles:
        l01 = lengths[k.edge_id(t[0], t[1])]
        l12 = lengths[k.edge_id(t[1], t[2])]
        l02 = lengths[k.edge_id(t[0], t[2])]
        if not (l01 < l12 + l02 and l12 < l01 + l02 and l02 < l01 + l12):
            raise DegenerateMetric(f"triangle inequality fails on {t}")
        if _heron(l01, l12, l02) <= tol.rank_tol * max(l01, l12, l02) ** 2:
            raise DegenerateMetric(f"triangle {t} is degenerate")
    return PLMetric(lengths=lengths)


def metric_from_positions(k, positions, tol=DEFAULT_TOL):
    pos = np.asarray(positions, dtype=float)
    lengths = np.array([np.linalg.norm(pos[a] - pos[b]) for a, b in k.edges])
    return metric_from_lengths(k, lengths, tol)


def _heron(a, b, c):
    """Area from the side lengths; elementwise on arrays."""
    s = 0.5 * (a + b + c)
    val = s * (s - a) * (s - b) * (s - c)
    return np.sqrt(np.maximum(val, 0.0))


def triangle_area(k, h, ti):
    t = k.triangles[ti]
    return _heron(
        h.lengths[k.edge_id(t[0], t[1])],
        h.lengths[k.edge_id(t[1], t[2])],
        h.lengths[k.edge_id(t[0], t[2])],
    )


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
    k, lengths, words = _torus_grid(m)
    complex_ = build(m * m, k)
    metric = metric_from_lengths(complex_, _length_array(complex_, lengths))
    vid = lambda i, j: (i % m) * m + (j % m)
    a_path = [vid(i, 0) for i in range(m)] + [vid(0, 0)]
    b_path = [vid(0, j) for j in range(m)] + [vid(0, 0)]
    loops = GeneratorLoops(
        base_vertex=0,
        loops=[("a1", a_path), ("b1", b_path)],
        relation=_word(("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1)),
        edge_words=_index_words(complex_, words),
    )
    return complex_, metric, loops


def _torus_grid(m):
    """Oriented triangles, edge lengths and seam words of the m x m grid."""
    vid = lambda i, j: (i % m) * m + (j % m)
    tris, lengths, words = [], {}, {}
    for i in range(m):
        for j in range(m):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
            wa = _word(("a1", 1)) if i == m - 1 else ()
            wb = _word(("b1", 1)) if j == m - 1 else ()
            lengths.setdefault(_add_word(words, v00, v10, wa), 1.0 / m)
            lengths.setdefault(_add_word(words, v00, v01, wb), 1.0 / m)
            # crossing both seams: the corner triangle (v00,v10,v11) pins
            # the diagonal word to a then b
            lengths.setdefault(_add_word(words, v00, v11, _word(*wa, *wb)),
                               np.sqrt(2.0) / m)
    return tris, lengths, words


def _invert(word):
    return tuple((n, -e) for n, e in reversed(word))


def _add_word(words, u, v, word):
    """Record `word`, read along u -> v, as the word of the canonical edge
    unless it has one already; returns the edge's (low, high) key."""
    key = (u, v) if u < v else (v, u)
    if key not in words:
        words[key] = word if u < v else _invert(word)
    return key


def _length_array(k, lengths):
    return np.array([lengths[e] for e in k.edges])


def _index_words(k, words):
    return {k.edge_index[e]: w for e, w in words.items() if w}


def annulus(m, n):
    """Planar annulus (radii 1..2) on an m x (n+1) cylinder grid."""
    if m < 3 or n < 1:
        raise InvalidParameter("annulus needs m >= 3 angular and n >= 1 radial")
    vid = lambda i, j: j * m + (i % m)
    tris, words = [], {}

    def pos(i, j):
        r = 1.0 + j / n
        th = 2.0 * np.pi * (i % m) / m
        return np.array([r * np.cos(th), r * np.sin(th)])

    for i in range(m):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
            w = _word(("c1", 1)) if i == m - 1 else ()
            _add_word(words, v00, v10, w)
            _add_word(words, v00, v01, ())
            _add_word(words, v00, v11, w)
            _add_word(words, v10, v11, ())
            _add_word(words, v01, v11, w if i == m - 1 else ())

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
    tris, lengths, words = _torus_grid(m)
    vid = lambda i, j: (i % m) * m + (j % m)
    removed = (vid(m - 1, m - 1), vid(0, 0), vid(m - 1, 0))
    tris = [t for t in tris if t != removed]
    complex_ = build(m * m, tris)
    metric = metric_from_lengths(complex_, _length_array(complex_, lengths))
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
        edge_words=_index_words(complex_, words),
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
    removed = {
        (vid(x, y), vid(x + 1, y), vid(x + 1, y + 1)) for x, y in holes
    }
    hole_letter = {x: ("c%d" % (j + 1)) for j, (x, y) in enumerate(holes)}
    hole_row = {x: y for x, y in holes}

    tris, words = [], {}

    for i in range(width):
        for j in range(height):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            t1, t2 = (v00, v10, v11), (v00, v11, v01)
            if t1 not in removed:
                tris.append(t1)
            if t2 not in removed:
                tris.append(t2)
            # the cut from the hole in column i runs straight down,
            # crossing bottom-horizontal and diagonal edges of lower squares
            letter = hole_letter.get(i)

            def crossing(row, diagonal=False):
                if letter is None:
                    return ()
                limit = hole_row[i] if not diagonal else hole_row[i] - 1
                return _word((letter, 1)) if row <= limit else ()

            _add_word(words, v00, v10, crossing(j))
            _add_word(words, v00, v11, crossing(j, diagonal=True))
            _add_word(words, v00, v01, ())
            _add_word(words, v10, v11, ())
            _add_word(words, v01, v11, crossing(j + 1))

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
