import dataclasses

import numpy as np
import pytest

from parhodge import cli, localsys, surface
from parhodge.errors import InvalidParameter, NotFlat, NotOrthogonal, NotUnit, RelationViolated


def rotation2(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def test_trivial_system():
    k, _, _ = surface.torus(4)
    f = localsys.trivial_system(k, 3)
    assert f.flat_residual == 0.0
    cycle = [0, 1, 2, 3, 0]
    assert np.array_equal(f.path_transport(k, cycle), np.eye(3))
    # a step that is no edge raises, rather than reading some edge's transport
    with pytest.raises(InvalidParameter, match="path steps off the edges"):
        f.path_transport(k, [0, 1, 10, 0])


def test_from_edge_transports_accepts_gauged_trivial():
    rng = np.random.default_rng(9)
    k, _, _ = surface.annulus(5, 1)
    base = localsys.trivial_system(k, 2)
    gauges = [localsys.random_rotation(rng, 2) for _ in range(k.vertex_count)]
    gauged = localsys.gauge_transform(k, base, gauges)
    table = {
        (a, b): gauged.transports[ei] for ei, (a, b) in enumerate(k.ends.tolist())
    }
    rebuilt = localsys.from_edge_transports(k, 2, table)
    assert rebuilt.flat_residual < 1e-12


def test_from_edge_transports_seam_rotation_annulus():
    # rotating every angular-seam edge by the same angle stays flat because
    # each seam triangle crosses the seam twice
    k, _, loops = surface.annulus(6, 2)
    f = localsys.from_representation(k, loops, {
        "c1": rotation2(np.pi), "c2": rotation2(np.pi).T,
    })
    assert f.flat_residual < 1e-12
    monos = localsys.boundary_monodromies(k, f)
    for m in monos:
        assert np.abs(np.trace(m) - np.trace(rotation2(np.pi))) < 1e-9


def test_from_edge_transports_rejects_non_orthogonal():
    k, _, _ = surface.disk(4)
    table = {(a, b): np.eye(2) for a, b in k.ends.tolist()}
    table[tuple(k.ends[0].tolist())] = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotOrthogonal):
        localsys.from_edge_transports(k, 2, table)


def test_from_edge_transports_rejects_non_flat():
    k, _, _ = surface.disk(4)
    table = {(a, b): np.eye(2) for a, b in k.ends.tolist()}
    table[tuple(k.ends[0].tolist())] = rotation2(0.3)
    with pytest.raises(NotFlat):
        localsys.from_edge_transports(k, 2, table)


def test_from_representation_trivial_images():
    k, _, loops = surface.torus(4)
    f = localsys.from_representation(
        k, loops, {"a1": np.eye(2), "b1": np.eye(2)})
    assert np.abs(f.transports - np.eye(2)).max() == 0.0


def test_from_representation_torus_commuting_rotations():
    k, _, loops = surface.torus(5)
    a, b = rotation2(0.7), rotation2(-1.1)
    f = localsys.from_representation(k, loops, {"a1": a, "b1": b})
    assert np.abs(f.path_transport(k, loops.path("a1")) - a).max() < 1e-12
    assert np.abs(f.path_transport(k, loops.path("b1")) - b).max() < 1e-12


def test_from_representation_rejects_noncommuting_on_torus():
    rng = np.random.default_rng(10)
    k, _, loops = surface.torus(4)
    with pytest.raises(RelationViolated):
        localsys.from_representation(k, loops, {
            "a1": localsys.random_rotation(rng, 3),
            "b1": localsys.random_rotation(rng, 3),
        })


def test_one_holed_torus_free_images_and_monodromy():
    rng = np.random.default_rng(11)
    k, _, loops = surface.genus_k(1, 1, 1)
    a = localsys.random_rotation(rng, 3)
    b = localsys.random_rotation(rng, 3)
    c = (a @ b @ a.T @ b.T).T
    f = localsys.from_representation(k, loops, {"a1": a, "b1": b, "c1": c})
    mono = localsys.boundary_monodromies(k, f)[0]
    assert np.allclose(np.sort(np.linalg.eigvals(mono).real),
                       np.sort(np.linalg.eigvals(c).real), atol=1e-9)
    assert abs(np.trace(mono) - np.trace(c)) < 1e-9


def test_pants_relation_and_monodromies():
    rng = np.random.default_rng(12)
    k, _, loops = surface.genus_k(0, 3, 1)
    c1 = localsys.random_rotation(rng, 3)
    c2 = localsys.random_rotation(rng, 3)
    c3 = (c1 @ c2).T
    f = localsys.from_representation(k, loops, {"c1": c1, "c2": c2, "c3": c3})
    monos = localsys.boundary_monodromies(k, f)
    traces = sorted(np.trace(m) for m in monos)
    assert np.allclose(traces, sorted(np.trace(c) for c in (c1, c2, c3)),
                       atol=1e-9)


def test_boundary_monodromies_trivial():
    k, _, _ = surface.genus_k(0, 3, 1)
    f = localsys.trivial_system(k, 2)
    for m in localsys.boundary_monodromies(k, f):
        assert np.array_equal(m, np.eye(2))


def test_random_flat_system_every_kind():
    rng = np.random.default_rng(13)
    for gen, args in [
        (surface.torus, (4,)), (surface.annulus, (5, 1)),
        (surface.disk, (4,)), (surface.genus_k, (1, 1, 1)),
        (surface.genus_k, (0, 3, 1)), (surface.genus_k, (0, 0, 1)),
    ]:
        k, _, loops = gen(*args)
        f = localsys.random_flat_system(k, loops, 3, rng)
        assert f.flat_residual < 1e-12


def test_gauge_invariance_of_flatness():
    rng = np.random.default_rng(14)
    k, _, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng, gauge=False)
    gauges = [localsys.random_rotation(rng, 3) for _ in range(k.vertex_count)]
    g = localsys.gauge_transform(k, f, gauges)
    assert g.flat_residual < 1e-12


def _gauge_transform_loop(k, system, gauges):
    """`localsys.gauge_transform` one edge at a time: the oracle."""
    arr = np.empty_like(system.transports)
    for ei, (a, b) in enumerate(k.ends.tolist()):
        arr[ei] = gauges[a] @ system.transports[ei] @ gauges[b].T
    return arr


def test_gauge_transform_matches_the_edge_loop_bit_for_bit():
    rng = np.random.default_rng(15)
    for name in ("torus", "genus11", "pants", "annulus", "disk"):
        k, _, loops = cli._EXAMPLES[name](6)
        for n in (1, 2, 3):
            f = localsys.random_flat_system(k, loops, n, rng)
            gauges = [localsys.random_rotation(rng, n) for _ in range(k.vertex_count)]
            got = localsys.gauge_transform(k, f, gauges).transports
            want = _gauge_transform_loop(k, f, gauges)
            assert got.tobytes() == want.tobytes(), (name, n)
    gauges[3] = 2.0 * gauges[3]
    with pytest.raises(NotOrthogonal, match="gauge at vertex 3 "):
        localsys.gauge_transform(k, f, gauges)


def test_gauge_checks_name_the_first_vertex_that_fails():
    rng = np.random.default_rng(16)
    k, _, loops = surface.genus_k(1, 1, 2)
    f = localsys.random_flat_system(k, loops, 3, rng)
    stacked = localsys._random_rotations(rng, k.vertex_count, 3)
    stacked[7] = 2.0 * stacked[7]
    stacked[9] = 0.5 * stacked[9]
    as_list = list(stacked)
    for gauges in (stacked, as_list):
        with pytest.raises(NotOrthogonal) as err:
            localsys.gauge_transform(k, f, gauges)
        assert str(err.value) == "gauge at vertex 7 is not orthogonal within residual_tol"
    # a gauge of the wrong shape, after the good ones and before a bad one
    as_list[7] = np.eye(3)
    as_list[5] = np.eye(2)
    with pytest.raises(NotOrthogonal) as err:
        localsys.gauge_transform(k, f, as_list)
    assert str(err.value) == "gauge at vertex 5 has shape (2, 2), expected (3, 3)"
    # a bad gauge ahead of the one of the wrong shape is named first
    as_list[4] = 2.0 * as_list[4]
    with pytest.raises(NotOrthogonal) as err:
        localsys.gauge_transform(k, f, as_list)
    assert str(err.value) == "gauge at vertex 4 is not orthogonal within residual_tol"
    # every gauge of the wrong shape, as one array
    with pytest.raises(NotOrthogonal) as err:
        localsys.gauge_transform(k, f, np.tile(np.eye(2), (k.vertex_count, 1, 1)))
    assert str(err.value) == "gauge at vertex 0 has shape (2, 2), expected (3, 3)"


@pytest.mark.parametrize("count", [21, 3], ids=["too-many", "too-few"])
def test_gauge_transform_takes_one_gauge_per_vertex(count):
    rng = np.random.default_rng(17)
    k, _, loops = surface.torus(4)
    f = localsys.random_flat_system(k, loops, 3, rng)
    gauges = localsys._random_rotations(rng, count, 3)
    with pytest.raises(InvalidParameter) as err:
        localsys.gauge_transform(k, f, gauges)
    assert str(err.value) == f"{count} gauges given for 16 vertices"


def test_from_representation_deterministic():
    k, _, loops = surface.torus(4)
    a, b = rotation2(0.4), rotation2(0.9)
    f1 = localsys.from_representation(k, loops, {"a1": a, "b1": b})
    f2 = localsys.from_representation(k, loops, {"a1": a, "b1": b})
    assert np.array_equal(f1.transports, f2.transports)


def test_su2_adjoint_identity_and_center():
    assert np.array_equal(localsys.su2_adjoint([1.0, 0, 0, 0]), np.eye(3))
    q = localsys.quat_from_axis_angle([0.3, -1.0, 2.0], 1.234)
    assert np.abs(localsys.su2_adjoint(q) - localsys.su2_adjoint(-q)).max() == 0.0


def test_su2_adjoint_matches_rodrigues():
    rng = np.random.default_rng(15)
    for _ in range(20):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0, 2 * np.pi)
        r = localsys.su2_adjoint(localsys.quat_from_axis_angle(axis, theta))
        kx = np.array([[0, -axis[2], axis[1]],
                       [axis[2], 0, -axis[0]],
                       [-axis[1], axis[0], 0]])
        rodrigues = np.eye(3) + np.sin(theta) * kx + (1 - np.cos(theta)) * kx @ kx
        assert np.abs(r - rodrigues).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0)


def test_su2_adjoint_rejects_non_unit():
    with pytest.raises(NotUnit):
        localsys.su2_adjoint([1.0, 1.0, 0.0, 0.0])


def test_system_from_json_transports_and_representation():
    k, _, loops = surface.annulus(5, 1)
    theta = 0.8
    data = {"representation": {"images": {
        "c1": rotation2(theta).tolist(), "c2": rotation2(-theta).tolist()}}}
    f = localsys.system_from_json(k, data, loops)
    assert f.fiber_dim == 2
    table = {"fiber_dim": 2, "transports": [
        {"tail": a, "head": b, "matrix": f.transports[ei].tolist()}
        for ei, (a, b) in enumerate(k.ends.tolist())
    ]}
    f2 = localsys.system_from_json(k, table)
    assert np.allclose(f.transports, f2.transports)


def _rotation_one_at_a_time(rng, n):
    """One Haar-ish draw as `random_rotation` took it before the draws were
    stacked: the oracle of `localsys._random_rotations`."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class _FixedNormal:
    """An rng whose normal draws are copies of one matrix."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def standard_normal(self, shape):
        return np.broadcast_to(self.a, shape).copy()


def test_stacked_rotations_are_the_draws_one_at_a_time():
    for n in (1, 2, 3, 4):
        for seed in (1, 7):
            stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
            got = localsys._random_rotations(stacked, 300, n)
            want = np.array([_rotation_one_at_a_time(single, n) for _ in range(300)])
            assert got.tobytes() == want.tobytes(), (n, seed)
            assert stacked.bit_generator.state == single.bit_generator.state
            assert localsys.random_rotation(stacked, n).tobytes() == \
                _rotation_one_at_a_time(single, n).tobytes()
    # an exact zero on R's diagonal has sign 0 in both
    fixed = _FixedNormal([[1.0, 0.0], [1.0, 0.0]])
    got = localsys._random_rotations(fixed, 2, 2)
    assert got.tobytes() == np.array([_rotation_one_at_a_time(fixed, 2)] * 2).tobytes()


def test_compiling_images_checks_the_stored_loop_steps():
    rng = np.random.default_rng(13)
    k, _, loops = surface.genus_k(1, 1, 1)
    images = localsys.random_images(loops, 3, rng)
    localsys.from_representation(k, loops, images)
    # the same loops with every step read the wrong way round
    wrong = dataclasses.replace(loops, steps=[
        {"edges": s["edges"], "forward": [not fw for fw in s["forward"]]} for s in loops.steps])
    with pytest.raises(RelationViolated, match="holonomy of loop"):
        localsys.from_representation(k, wrong, images)
