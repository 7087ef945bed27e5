"""Flat orthogonal local systems on a surface complex.

A system assigns to every canonical edge (low vertex -> high vertex) an
orthogonal matrix, read as the pullback of the fiber at the head into the
fiber at the tail; traversing the edge backwards applies the transpose.
Flatness means the composed transport around every triangle is the
identity, which makes the twisted coboundary square to zero exactly.

`from_representation` compiles images of the surface-group generators of a
builtin surface into edge transports using the generator's per-edge word
table; the result is exactly flat whenever the images satisfy the group
relation, and the holonomy of each generator loop reproduces its image.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    NotFlat,
    NotOrthogonal,
    NotUnit,
    RelationViolated,
)
from .numlin import DEFAULT_TOL
# GeneratorLoops is re-exported
from .surface import GeneratorLoops, _path_steps, edge_ids, is_json_array

__all__ = [
    "FlatLocalSystem",
    "GeneratorLoops",
    "trivial_system",
    "from_edge_transports",
    "from_representation",
    "boundary_monodromies",
    "su2_adjoint",
]


@dataclass
class FlatLocalSystem:
    fiber_dim: int
    transports: np.ndarray  # (n_edges, n, n), pullback head -> tail
    flat_residual: float = 0.0

    def path_transport(self, k, path):
        """Composite pullback along a vertex path (value at the end of the
        path expressed at its start); the holonomy, for a closed path.
        A step u -> v pulls back by P_uv, read backwards as P^T; the steps
        are looked up with one `edge_ids` search."""
        ids, forward = _path_steps(k, path)
        return _fold(self.transports.take(ids, axis=0), forward)


def _fold(p, forward):
    """The product of a path's transports `p`, P^T on a step high -> low."""
    return functools.reduce(np.matmul, [q if fw else q.T for q, fw in zip(p, forward)],
                            np.eye(p.shape[1]))


def _check_orthogonal(p, n, tol, what):
    p = np.asarray(p, dtype=float)
    if p.shape != (n, n):
        raise NotOrthogonal(f"{what} has shape {p.shape}, expected ({n}, {n})")
    if np.abs(p.T @ p - np.eye(n)).max() > tol.residual_tol:
        raise NotOrthogonal(f"{what} is not orthogonal within residual_tol")
    return p


def _check_gauges(gauges, n, tol):
    """`_check_orthogonal` of every vertex gauge at once: one shape check
    and one stacked P^T P test, the message naming the first vertex that
    fails.  Gauges that do not stack into (count, n, n) go one at a time,
    which raises at the first vertex of the wrong shape or before it."""
    try:
        gs = np.asarray(gauges, dtype=float)
    except ValueError:  # gauges of unequal shapes
        gs = None
    if gs is None or gs.shape[1:] != (n, n):
        for v, g in enumerate(gauges):
            _check_orthogonal(g, n, tol, f"gauge at vertex {v}")
    bad = np.abs(gs.transpose(0, 2, 1) @ gs - np.eye(n)).max(axis=(1, 2)) > tol.residual_tol
    if bad.any():
        raise NotOrthogonal(f"gauge at vertex {np.argmax(bad)} is not orthogonal "
                            "within residual_tol")
    return gs


def _flat_residual(k, system):
    """Largest entry of hol - I over the triangles, hol the transport
    around each stored triangle (a, b, c), P_ab P_bc P_ca, all at once;
    side i runs t_i -> t_i+1, and P read backwards is P^T."""
    tri = k.tri_vertices
    p = system.transports.take(k.side_edge, axis=0)
    p = np.where((tri < tri[:, [1, 2, 0]])[..., None, None], p, p.swapaxes(2, 3))
    hol = p[:, 0] @ p[:, 1] @ p[:, 2]
    return float(np.abs(hol - np.eye(system.fiber_dim)).max(initial=0.0))


def _fiber_dim(n):
    if int(n) < 1:
        raise InvalidParameter("fiber dimension must be a positive integer")
    return int(n)


def trivial_system(k, n):
    """Identity transports in fiber dimension n."""
    return FlatLocalSystem(
        fiber_dim=_fiber_dim(n),
        transports=np.tile(np.eye(n), (k.n_edges, 1, 1)),
        flat_residual=0.0,
    )


def from_edge_transports(k, fiber_dim, transports, tol=DEFAULT_TOL):
    """Validate explicit transports (mapping (tail, head) -> matrix).

    Either orientation of an edge may be supplied; the reverse is the
    transpose.  Raises NotOrthogonal / NotFlat on invalid input.
    """
    n = _fiber_dim(fiber_dim)
    arr = np.zeros((k.n_edges, n, n))
    seen = set()
    ids = edge_ids(k, [u for u, _ in transports], [v for _, v in transports]).tolist()
    for ((u, v), p), ei in zip(transports.items(), ids):
        if ei < 0:
            raise InvalidParameter(f"({u}, {v}) is not an edge of the complex")
        p = _check_orthogonal(p, n, tol, f"transport on ({u}, {v})")
        if ei in seen:
            raise InvalidParameter(f"edge {tuple(k.ends[ei].tolist())} assigned twice")
        seen.add(ei)
        arr[ei] = p if u < v else p.T
    if len(seen) != k.n_edges:
        raise InvalidParameter(
            f"{k.n_edges - len(seen)} edges missing a transport"
        )
    system = FlatLocalSystem(fiber_dim=n, transports=arr)
    system.flat_residual = _flat_residual(k, system)
    if system.flat_residual > tol.residual_tol:
        raise NotFlat(
            f"triangle holonomy deviates by {system.flat_residual:.3e}",
            residual=system.flat_residual,
        )
    return system


def word_matrix(images, word, n):
    """Evaluate a word given as (name, exponent) pairs on orthogonal images."""
    out = np.eye(n)
    for name, exp in word:
        p = images[name]
        for _ in range(abs(exp)):
            out = out @ (p if exp > 0 else p.T)
    return out


def from_representation(k, loops, images, tol=DEFAULT_TOL):
    """Compile generator images into an exactly flat system.

    `loops` must carry the edge-word table produced by the builtin
    generators; `images` maps every generator name to an orthogonal matrix
    and must satisfy the surface-group relation of `loops`.
    """
    names = loops.names()
    missing = [n for n in names if n not in images]
    if missing:
        raise InvalidParameter(f"missing images for generators {missing}")
    sizes = {np.asarray(images[n]).shape for n in names}
    n = sizes.pop()[0] if sizes else 1
    if sizes:
        raise InvalidParameter("generator images differ in shape")
    imgs = {name: _check_orthogonal(images[name], n, tol, f"image of {name}")
            for name in names}

    rel = word_matrix(imgs, loops.relation, n)
    rel_residual = float(np.abs(rel - np.eye(n)).max())
    if rel_residual > tol.residual_tol:
        raise RelationViolated(
            f"group relation violated by {rel_residual:.3e}",
            residual=rel_residual,
        )

    # many edges carry the same word: evaluate each once
    words = {word: word_matrix(imgs, word, n) for word in set(loops.edge_words.values())}
    arr = np.tile(np.eye(n), (k.n_edges, 1, 1))
    for ei, word in loops.edge_words.items():
        arr[ei] = words[word]
    system = FlatLocalSystem(fiber_dim=n, transports=arr)
    system.flat_residual = _flat_residual(k, system)
    if system.flat_residual > tol.residual_tol:
        raise NotFlat(
            f"compiled system is not flat ({system.flat_residual:.3e}); "
            "edge-word table inconsistent with the relation",
            residual=system.flat_residual,
        )
    # each loop's steps were looked up with the mesh
    for name, steps in zip(names, loops.steps):
        hol = _fold(arr.take(steps["edges"], axis=0), steps["forward"])
        if np.abs(hol - imgs[name]).max() > tol.residual_tol:
            raise RelationViolated(f"holonomy of loop {name} does not reproduce its image")
    return system


def boundary_monodromies(k, system):
    """Holonomy around each boundary cycle (induced orientation, based at its
    stored start vertex; defined up to conjugacy), read off its stored steps."""
    return [_fold(system.transports.take(c["edges"], axis=0), c["forward"])
            for c in k.boundary_components]


def gauge_transform(k, system, gauges, tol=DEFAULT_TOL):
    """Conjugate the system by per-vertex orthogonal matrices
    (P_e -> g_tail P_e g_head^T); yields an isomorphic flat system."""
    n = system.fiber_dim
    gs = _check_gauges(gauges, n, tol)
    tail, head = k.ends.T
    arr = gs.take(tail, axis=0) @ system.transports @ gs.take(head, axis=0).transpose(0, 2, 1)
    out = FlatLocalSystem(fiber_dim=n, transports=arr)
    out.flat_residual = _flat_residual(k, out)
    return out


def system_from_json(k, data, loops=None, tol=DEFAULT_TOL):
    """Build a flat system from the system JSON schema.

    Either {"fiber_dim": n, "transports": [{"tail": i, "head": j,
    "matrix": [[...]]}, ...]} for explicit transports, or
    {"representation": {"images": {"a1": [[...]], ...}}} for generator
    images compiled on a builtin surface (whose `loops` must be supplied).
    """
    if not isinstance(data, dict):
        raise InvalidParameter("system JSON must be an object")
    if "transports" in data:
        if not (is_json_array(data.get("fiber_dim"), 0, int)
                and isinstance(data["transports"], list)):
            raise InvalidParameter("system JSON with transports needs an integer "
                                   "fiber_dim and a list of transports")
        table = {}
        for entry in data["transports"]:
            if not (isinstance(entry, dict) and {"tail", "head", "matrix"} <= entry.keys()
                    and is_json_array([entry["tail"], entry["head"]], 1, int)
                    and is_json_array(entry["matrix"], 2)):
                raise InvalidParameter(
                    "each transport entry needs integer 'tail' and 'head' and a 'matrix'")
            key = (int(entry["tail"]), int(entry["head"]))
            if key in table:
                raise InvalidParameter(f"transport for edge {key} given twice")
            table[key] = np.asarray(entry["matrix"], dtype=float)
        return from_edge_transports(k, int(data["fiber_dim"]), table, tol)
    if "representation" in data:
        if loops is None:
            raise InvalidParameter(
                "representation systems need a builtin surface (generator loops)")
        images = data["representation"]
        images = images.get("images") if isinstance(images, dict) else None
        if not (isinstance(images, dict) and all(is_json_array(a, 2) for a in images.values())):
            raise InvalidParameter("system 'representation' needs 'images' of matrices")
        return from_representation(
            k, loops, {name: np.asarray(a, dtype=float) for name, a in images.items()}, tol)
    raise InvalidParameter("system JSON needs 'transports' or 'representation'")


# ---------------------------------------------------------------------------
# quaternions and SU(2)
# ---------------------------------------------------------------------------

def _quat_mul_parts(p, q):
    """Hamilton product of two 4-sequences, of floats or of equal-length
    arrays, as a 4-tuple of the same kind."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_mul(p, q):
    return np.array(_quat_mul_parts(p, q))


def quat_conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def quat_angle(q):
    """Rotation angle in [0, 2*pi) carried by a unit quaternion."""
    # the sqrt of the dot is what np.linalg.norm takes of a float vector
    return float(2.0 * np.arctan2(np.sqrt(q[1:].dot(q[1:])), q[0])) % (2.0 * np.pi)


def random_unit_quaternion(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def su2_adjoint(q, tol=DEFAULT_TOL):
    """Rotation matrix of the conjugation action of a unit quaternion on
    imaginary quaternions; q and -q give the same matrix."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise NotUnit(f"expected a 4-vector, got shape {q.shape}")
    if abs(np.linalg.norm(q) - 1.0) > tol.residual_tol:
        raise NotUnit(f"quaternion norm {np.linalg.norm(q):.6f} is not 1")
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# ---------------------------------------------------------------------------
# random data for property tests
# ---------------------------------------------------------------------------

def random_rotation(rng, n):
    """Haar-ish random special orthogonal matrix (deterministic per rng)."""
    return _random_rotations(rng, 1, n)[0]


def _random_rotations(rng, count, n):
    """`count` random rotations from one normal draw and one stacked QR:
    the bits, and the rng stream, of `count` n x n draws each taken through
    its own QR.  R's diagonal fixes the column signs (np.sign is 0 on an
    exact zero), and a negative determinant flips the first column."""
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 0] = -q[flip, :, 0]
    return q


def random_images(loops, n, rng):
    """Generator images satisfying the relation of `loops`.

    All generators except the final boundary one are sampled freely (for a
    closed torus, as commuting plane rotations); the last boundary image is
    solved from the relation.
    """
    names = loops.names()
    if not names:
        return {}
    c_names = [m for m in names if m.startswith("c")]
    if not c_names:
        # closed torus: commuting images required
        if n == 1:
            sign = float(rng.choice([-1.0, 1.0]))
            return {m: np.array([[sign]]) for m in names}
        basis = random_rotation(rng, n)
        out = {}
        for m in names:
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.eye(n)
            rot[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]]
            out[m] = basis @ rot @ basis.T
        return out
    last = c_names[-1]
    out = {m: random_rotation(rng, n) for m in names if m != last}
    prefix = word_matrix(out, [(m, e) for m, e in loops.relation if m != last], n)
    out[last] = prefix.T
    return out


def random_flat_system(k, loops, n, rng, gauge=True):
    """Random flat system: relation-respecting random images compiled into
    transports, optionally composed with a random vertex gauge."""
    images = random_images(loops, n, rng)
    if images:
        system = from_representation(k, loops, images)
    else:
        system = trivial_system(k, n)
    if gauge:
        system = gauge_transform(k, system, _random_rotations(rng, k.vertex_count, n))
    return system
