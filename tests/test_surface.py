import hashlib
import json
import re

import numpy as np
import pytest

from parhodge import cli, hodge, localsys, surface
from parhodge.errors import (
    DegenerateMetric,
    InconsistentOrientation,
    InvalidParameter,
    NonManifold,
    NotConnectedWarning,
)

import surface_oracle
from conftest import mass_matrix, wedge_matrix


def test_build_square_disk():
    k = surface.build(4, [(0, 1, 2), (0, 2, 3)])
    assert k.euler_characteristic == 1
    assert len(k.boundary_components) == 1
    assert len(k.boundary_components[0]["vertices"]) == 4
    assert k.n_edges == 5


def test_build_rejects_duplicated_orientation():
    with pytest.raises(InconsistentOrientation):
        surface.build(3, [(0, 1, 2), (0, 1, 2)])


def test_build_rejects_three_triangles_per_edge():
    with pytest.raises(NonManifold):
        surface.build(5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])


def test_build_rejects_degenerate_triangle():
    with pytest.raises(InvalidParameter):
        surface.build(3, [(0, 1, 1)])


def test_build_warns_disconnected():
    with pytest.warns(NotConnectedWarning):
        surface.build(6, [(0, 1, 2), (3, 4, 5)])


@pytest.mark.parametrize("name", sorted(cli._EXAMPLES))
def test_tri_edges_table(name):
    k, _, _ = cli._EXAMPLES[name](6)
    assert k.tri_edges.shape == (k.n_triangles, 3)
    # sign of each table edge in the boundary of the sorted triangle
    # w0w1 - w0w2 + w1w2; sorted_sign turns it into the stored direction
    sorted_dir = np.array([1, -1, 1])
    net = np.zeros(k.n_edges, dtype=int)
    for t, row, sign in zip(k.triangles, k.tri_edges, k.sorted_sign):
        w0, w1, w2 = sorted(t)
        assert row.tolist() == [k.edge_id(w0, w1), k.edge_id(w0, w2), k.edge_id(w1, w2)]
        stored = {k.edge_id(u, v): 1 if u < v else -1
                  for u, v in zip(t, t[1:] + t[:1])}
        assert [stored[e] for e in row] == (sign * sorted_dir).tolist()
        net[row] += sign * sorted_dir
    count = np.bincount(k.tri_edges.ravel(), minlength=k.n_edges)
    interior = np.ones(k.n_edges, dtype=bool)
    interior[k.boundary_edge_indices] = False
    assert (count[interior] == 2).all() and (count[~interior] == 1).all()
    assert (net[interior] == 0).all()


def test_torus_counts():
    k, h, loops = surface.torus(4)
    assert (k.n_vertices, k.n_edges, k.n_triangles) == (16, 48, 32)
    assert k.euler_characteristic == 0
    assert not k.boundary_components
    # revalidates cleanly
    surface.build(k.vertex_count, k.triangles)


def test_annulus_counts():
    k, h, loops = surface.annulus(6, 2)
    assert k.euler_characteristic == 0
    assert len(k.boundary_components) == 2


def test_disk_counts():
    k, h, loops = surface.disk(5)
    assert k.euler_characteristic == 1
    assert len(k.boundary_components) == 1


@pytest.mark.parametrize("g,kk,chi,comps", [
    (0, 0, 2, 0), (0, 1, 1, 1), (0, 2, 0, 2), (0, 3, -1, 3),
    (1, 0, 0, 0), (1, 1, -1, 1),
])
def test_genus_k_euler_and_boundary(g, kk, chi, comps):
    k, h, loops = surface.genus_k(g, kk, 1)
    assert k.euler_characteristic == chi == 2 - 2 * g - kk
    assert len(k.boundary_components) == comps


def test_genus_k_refinement_keeps_topology():
    for g, kk in ((1, 1), (0, 3), (0, 0)):
        k1, _, _ = surface.genus_k(g, kk, 1)
        k2, _, _ = surface.genus_k(g, kk, 2)
        assert k1.euler_characteristic == k2.euler_characteristic
        assert len(k1.boundary_components) == len(k2.boundary_components)


# sha256 of each builtin generator's triangles, edges, length bytes, sorted
# edge words, loops, relation and base vertex, as the per-cell loops built
# them: `from_representation` accepts any consistent word table, so nothing
# else pins these
_GENERATOR_DIGESTS = [
    ("torus", (3,), "017f8cb772459d1624b845d812456b64f2216ad73e69877115a11af43659efb3"),
    ("torus", (8,), "ff634ad1f5ab744f032b2f6304e334461595d4e04510708f2442c684fa6e5aa2"),
    ("annulus", (5, 2), "a63606ce3b0d596750af7f271dc7e34140aa3f8def5d674521ae309cab18b7ae"),
    ("genus_k", (1, 1, 1), "b64a44deb0e135d629b62a5a973b7019e79cce0e82e0492d4c3604d9783bc563"),
    ("genus_k", (1, 1, 2), "11d699d0ed669de33ff637f270a49d79f35c0776a0424d639f963557f33dda88"),
    ("genus_k", (0, 3, 1), "eeb3edb8259030aa0dfefb022e56007be93f2e5bd79a865f983af06b3bfe83e3"),
    ("genus_k", (0, 4, 2), "8f731643662bcef3347c7159c962c360afaa2523e2792bbb0fcaf1ce0a59db05"),
    ("sphere", (2,), "f11098ba64e799bb08feef58b3f5dcd05fbd6c5e7e358392ea11b6d4f4b3c373"),
    ("disk", (6,), "a174ce9f1d68185ebad8035982e0dbab18ff9a6b6798f56dddf7ab0ee62cc5b3"),
]


@pytest.mark.parametrize("name,args,digest", _GENERATOR_DIGESTS)
def test_builtin_generators_keep_their_tables(name, args, digest):
    k, h, loops = getattr(surface, name)(*args)
    data = repr((k.triangles, k.edges, sorted(loops.edge_words.items()), loops.loops,
                 tuple(loops.relation), loops.base_vertex))
    assert hashlib.sha256(data.encode() + h.lengths.tobytes()).hexdigest() == digest


def test_genus_k_unsupported():
    with pytest.raises(InvalidParameter):
        surface.genus_k(2, 0, 1)
    with pytest.raises(InvalidParameter):
        surface.genus_k(1, 2, 1)


def test_metric_validation():
    k = surface.build(3, [(0, 1, 2)])
    with pytest.raises(DegenerateMetric):
        surface.metric_from_lengths(k, [1.0, 1.0, 2.5])  # violates inequality
    with pytest.raises(DegenerateMetric):
        surface.metric_from_lengths(k, [1.0, -1.0, 1.0])
    h = surface.metric_from_lengths(k, [1.0, 1.0, 1.0])
    # the area as `hodge.metric_complex` takes it
    area = surface._heron(*h.lengths[surface.opposite_edges(k)[0]])
    assert area == pytest.approx(np.sqrt(3) / 4)


def _reference_quadrature(f, order=40):
    """Exact-enough integration over the unit right triangle by midpoint
    subdivision (used as an independent oracle for low-degree integrands)."""
    total = 0.0
    h = 1.0 / order
    for i in range(order):
        for j in range(order - i):
            x0, y0 = i * h, j * h
            total += f(x0 + h / 3, y0 + h / 3) * h * h / 2
            if i + j < order - 1:
                total += f(x0 + 2 * h / 3, y0 + 2 * h / 3) * h * h / 2
    return total


def _whitney(k, h):
    """Scalar Whitney matrices: the assembly on the trivial line system."""
    mc = hodge.metric_complex(k, h, localsys.trivial_system(k, 1))
    return mass_matrix(mc), wedge_matrix(mc), mc.l0


def test_single_triangle_wedge_is_one_sixth():
    # quadrature oracle on the reference triangle: lambda = (1-x-y, x, y),
    # w_ab = la dlb - lb dla, integrand of w01 ^ w12 reduces to lambda_1
    val = _reference_quadrature(lambda x, y: x)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-4)
    k = surface.build(3, [(0, 1, 2)])
    h = surface.metric_from_lengths(k, np.ones(3))
    _, w1, _ = _whitney(k, h)
    e01, e12, e02 = k.edge_id(0, 1), k.edge_id(1, 2), k.edge_id(0, 2)
    assert w1[e01, e12] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert w1[e12, e01] == pytest.approx(-1.0 / 6.0, abs=1e-12)
    assert abs(w1[e01, e02]) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_w1_metric_free_and_skew():
    k, h, _ = surface.torus(4)
    _, w1, _ = _whitney(k, h)
    h2 = surface.metric_from_lengths(k, 2.0 * h.lengths)
    _, w1b, _ = _whitney(k, h2)
    assert np.array_equal(w1, w1b)
    assert np.abs(w1 + w1.T).max() == 0.0


def test_l0_is_the_p1_stiffness_of_the_unit_right_triangle():
    k = surface.build(3, [(0, 1, 2)])
    # edges sorted: (0,1), (0,2), (1,2); the right angle sits at vertex 0
    h = surface.metric_from_lengths(k, np.array([1.0, 1.0, np.sqrt(2.0)]))
    m1, _, l0 = _whitney(k, h)
    stiffness = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.abs(l0 - stiffness).max() < 1e-14
    w = np.linalg.eigvalsh(m1)
    assert w[0] > 0


def test_m1_quadrature_oracle_unit_right_triangle():
    # vertices at (0,0), (1,0), (0,1): w_01 = (1-y, x)... computed directly
    k = surface.build(3, [(0, 1, 2)])
    h = surface.metric_from_lengths(k, np.array([1.0, 1.0, np.sqrt(2.0)]))
    m1, _, _ = _whitney(k, h)

    def lam(x, y):
        return np.array([1 - x - y, x, y])

    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    def whitney(a, b, x, y):
        return lam(x, y)[a] * grads[b] - lam(x, y)[b] * grads[a]

    pairs = [(0, 1), (0, 2), (1, 2)]
    for r, (a, b) in enumerate(pairs):
        for c, (cc, d) in enumerate(pairs):
            val = _reference_quadrature(
                lambda x, y: whitney(a, b, x, y) @ whitney(cc, d, x, y))
            assert m1[r, c] == pytest.approx(val, abs=2e-4)


def test_m1_spd_on_random_valid_metrics():
    rng = np.random.default_rng(8)
    k, h, _ = surface.annulus(5, 2)
    for _ in range(3):
        hp = surface.perturbed_metric(k, h, rng, amplitude=0.2)
        m1, _, _ = _whitney(k, hp)
        assert np.linalg.eigvalsh(m1)[0] > 0


def test_mesh_from_json_roundtrip():
    data = {
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
        "triangles": [[0, 1, 3], [0, 3, 2]],
    }
    k, h = surface.mesh_from_json(data)
    assert k.euler_characteristic == 1
    assert h.length(k, 0, 1) == pytest.approx(1.0)
    data2 = {
        "vertices": 3,
        "triangles": [[0, 1, 2]],
        "edge_lengths": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]],
    }
    k2, h2 = surface.mesh_from_json(data2)
    # the area as `hodge.metric_complex` takes it
    area = surface._heron(*h2.lengths[surface.opposite_edges(k2)[0]])
    assert area == pytest.approx(np.sqrt(3) / 4)
    with pytest.raises(InvalidParameter):
        surface.mesh_from_json({"vertices": 3, "triangles": [[0, 1, 2]]})


def test_subcomplex_and_union():
    k1, h1, _ = surface.torus(3)
    k2, _, _ = surface.disk(4)
    ku, offset = surface.disjoint_union(k1, k2)
    assert ku.n_components == 2
    sub0, vmap0 = surface.subcomplex(ku, 0)
    sub1, vmap1 = surface.subcomplex(ku, 1)
    assert {sub0.n_triangles, sub1.n_triangles} == {k1.n_triangles, k2.n_triangles}


def _assert_same_complex(got, want):
    """Every `SurfaceComplex` field equal, with the same types: edges and
    triangles as tuples of ints, arrays with the same dtype."""
    for name in surface.SurfaceComplex.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name
            assert repr(a) == repr(b), name


@pytest.mark.parametrize("name", sorted(cli._EXAMPLES))
@pytest.mark.parametrize("m", [3, 9])
def test_build_matches_the_loop_oracle(name, m):
    k, h, _ = cli._EXAMPLES[name](m)
    tris = k.triangles
    _assert_same_complex(k, surface_oracle.build(k.vertex_count, tris))
    perm = np.random.default_rng(m).permutation(k.vertex_count).tolist()
    for variant in ([(a, c, b) for a, b, c in tris],            # orientation flip
                    [tuple(perm[v] for v in t) for t in tris],  # relabel
                    tris[::-1]):
        _assert_same_complex(surface.build(k.vertex_count, variant),
                             surface_oracle.build(k.vertex_count, variant))
    # the generators' lengths, from positions or from the grid, validate
    # alike, and positions give the per-edge norms bit for bit
    assert np.array_equal(surface.metric_from_lengths(k, h.lengths).lengths,
                          surface_oracle.metric_from_lengths(k, h.lengths).lengths)
    pos = np.random.default_rng(m + 1).standard_normal((k.vertex_count, 3))
    assert np.array_equal(surface.metric_from_positions(k, pos).lengths,
                          surface_oracle.metric_from_positions(k, pos).lengths)


def test_union_and_component_match_the_loop_oracle(monkeypatch):
    k1, _, _ = surface.torus(3)
    k2, _, _ = surface.genus_k(0, 3, 1)
    ku, _ = surface.disjoint_union(k1, k2)
    sub, _ = surface.subcomplex(ku, 1)
    monkeypatch.setattr(surface, "build", surface_oracle.build)
    ku_loop, _ = surface.disjoint_union(k1, k2)
    sub_loop, _ = surface.subcomplex(ku_loop, 1)
    _assert_same_complex(ku, ku_loop)
    _assert_same_complex(sub, sub_loop)
    assert ku.n_components == 2


_INVALID_MESHES = [
    (3, [(0, 1, 1)]),
    (3, [(0, 1, 3)]),
    (3, [(0, 1, -1)]),
    (3, [(0, 1, 10 ** 20)]),
    (3, [(0, 0, 10 ** 20)]),
    (3, [[0, 1]]),
    (4, [(0, 1, 2), [0, 1]]),
    (4, [(0, 1, 5), [0, 1]]),
    (4, [(0, 1, 2, 3)]),
    (0, [(0, 1, 2)]),
    (3, [(0, 1, 2), (0, 1, 2)]),
    (5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)]),
    (4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 2, 3), (1, 3, 2)]),
    (6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (0, 1, 3)]),
    (5, [(0, 1, 2), (0, 3, 4)]),
    (6, [(0, 1, 2), (3, 4, 5), (2, 1, 3)]),
    (5, [(0, 1, 2), (2, 1, 4)]),
]


@pytest.mark.parametrize("vertex_count,triangles", _INVALID_MESHES)
def test_build_raises_as_the_loop_oracle(vertex_count, triangles):
    with pytest.raises(Exception) as want:
        surface_oracle.build(vertex_count, triangles)
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        surface.build(vertex_count, triangles)


def test_metric_validation_raises_at_the_oracles_triangle():
    rng = np.random.default_rng(70)
    for k, h, _ in (surface.torus(4), surface.genus_k(0, 3, 1)):
        for _ in range(20):
            lengths = h.lengths * rng.uniform(0.3, 3.0, k.n_edges)
            try:
                surface_oracle.metric_from_lengths(k, lengths)
            except DegenerateMetric as exc:
                with pytest.raises(DegenerateMetric, match=f"^{re.escape(str(exc))}$"):
                    surface.metric_from_lengths(k, lengths)
            else:
                surface.metric_from_lengths(k, lengths)
    # a degenerate (flat) triangle, not only a violated inequality
    k = surface.build(3, [(0, 1, 2)])
    for lengths in ([1.0, 1.0, 1e-11], [1.0, 1.0, 2.5]):
        with pytest.raises(DegenerateMetric) as want:
            surface_oracle.metric_from_lengths(k, lengths)
        with pytest.raises(DegenerateMetric, match=f"^{re.escape(str(want.value))}$"):
            surface.metric_from_lengths(k, lengths)


def test_flat_residual_matches_the_loop_oracle():
    rng = np.random.default_rng(71)
    for k, _, loops in (surface.torus(5), surface.genus_k(1, 1, 2), surface.sphere(2)):
        f = localsys.random_flat_system(k, loops, 3, rng)
        assert localsys._flat_residual(k, f) == surface_oracle.flat_residual(k, f)
        f.transports[3] = localsys.random_rotation(rng, 3)
        assert localsys._flat_residual(k, f) == surface_oracle.flat_residual(k, f) > 1e-3


@pytest.mark.parametrize("argv", [
    ["star", "--example", "torus", "--m", "6", "--system", "SYSTEM"],
    ["verify", "--refine", "4,6"],
])
def test_reports_are_byte_identical_with_the_loop_oracle(tmp_path, monkeypatch, capsys, argv):
    _, _, loops = surface.torus(6)
    images = localsys.random_images(loops, 3, np.random.default_rng(72))
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"representation": {"images": {
        name: a.tolist() for name, a in images.items()}}}))
    argv = [str(system) if a == "SYSTEM" else a for a in argv]
    assert cli.main(argv) == 0
    arrays = capsys.readouterr().out
    monkeypatch.setattr(surface, "build", surface_oracle.build)
    monkeypatch.setattr(surface, "metric_from_lengths", surface_oracle.metric_from_lengths)
    monkeypatch.setattr(surface, "metric_from_positions", surface_oracle.metric_from_positions)
    monkeypatch.setattr(localsys, "_flat_residual", surface_oracle.flat_residual)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == arrays
