import numpy as np
import pytest

from parhodge import cli, hodge, localsys, numlin, parastar, surface, twisted
from parhodge.errors import NotClosed

from conftest import torus_grid_cochain, union_with_metric_and_system


def test_d0_rank_on_disk():
    k, _, _ = surface.disk(6)
    f = localsys.trivial_system(k, 1)
    d0, d1, _, _ = twisted.coboundaries(k, f)
    assert numlin.rank(d0) == k.n_vertices - 1


def test_torus_betti_via_coboundaries():
    k, _, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    d0, d1, _, _ = twisted.coboundaries(k, f)
    kernel_dim = k.n_edges - numlin.rank(d1)
    assert kernel_dim - numlin.rank(d0) == 2


def test_d1_d0_vanishes_for_flat_systems():
    rng = np.random.default_rng(20)
    for gen, args in [(surface.torus, (4,)), (surface.genus_k, (1, 1, 1)),
                      (surface.genus_k, (0, 3, 1))]:
        k, _, loops = gen(*args)
        f = localsys.random_flat_system(k, loops, 3, rng)
        d0, d1, _, _ = twisted.coboundaries(k, f)
        assert np.abs(d1 @ d0).max() < 1e-9


def test_cohomology_dims_annulus():
    k, _, _ = surface.annulus(6, 2)
    f = localsys.trivial_system(k, 1)
    assert [twisted.cohomology(k, f, p).dim for p in (0, 1, 2)] == [1, 1, 0]
    assert [twisted.cohomology(k, f, p, "relative").dim for p in (0, 1, 2)] \
        == [0, 1, 1]


def test_cohomology_dims_torus():
    k, _, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    assert twisted.cohomology(k, f, 1).dim == 2


def test_h0_vanishes_for_irreducible_system():
    rng = np.random.default_rng(21)
    k, _, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    assert twisted.cohomology(k, f, 0).dim == 0


def test_cocycle_representatives_are_closed_and_orthonormal():
    rng = np.random.default_rng(22)
    k, _, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    h1 = twisted.cohomology(k, f, 1)
    d0, d1, _, _ = twisted.coboundaries(k, f)
    assert np.abs(d1 @ h1.reps).max() < 1e-9
    assert np.abs(h1.reps.T @ h1.reps - np.eye(h1.dim)).max() < 1e-9
    assert np.abs(d0.T @ h1.reps).max() < 1e-9


def test_parabolic_annulus_trivial_is_zero():
    k, _, _ = surface.annulus(6, 2)
    f = localsys.trivial_system(k, 1)
    rp = twisted.restriction_and_parabolic(k, f)
    assert rp["parabolic_basis"].dim == 0
    assert rp["exactness_check"]


def test_parabolic_closed_torus_is_all_of_h1():
    k, _, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    rp = twisted.restriction_and_parabolic(k, f)
    assert rp["parabolic_basis"].dim == rp["h1"].dim == 2


def test_parabolic_dim_generic_one_holed_torus():
    rng = np.random.default_rng(23)
    k, _, loops = surface.genus_k(1, 1, 1)
    for _ in range(20):
        f = localsys.random_flat_system(k, loops, 3, rng)
        rp = twisted.restriction_and_parabolic(k, f)
        assert rp["parabolic_basis"].dim == 2
        assert rp["exactness_check"]
        # even dimension and omega nondegenerate on the parabolic classes
        omega = twisted.parabolic_pairing(k, f, rp["parabolic_basis"].reps)
        s = np.linalg.svd(omega, compute_uv=False)
        assert s[-1] / s[0] > 1e-10


def test_euler_characteristic_identity_sweep():
    rng = np.random.default_rng(24)
    cases = [
        surface.torus(4), surface.annulus(6, 2), surface.disk(4),
        surface.genus_k(1, 1, 1), surface.genus_k(0, 3, 1),
    ]
    for k, _, loops in cases:
        for n in (1, 3):
            for _ in range(2):
                f = localsys.random_flat_system(k, loops, n, rng)
                dims = twisted.euler_characteristic_dims(k, f)
                assert dims[0] - dims[1] + dims[2] == n * k.euler_characteristic


def test_cup_normalized_torus_basis():
    m = 4
    k, _, _ = surface.torus(m)
    f = localsys.trivial_system(k, 1)
    u = np.column_stack([
        torus_grid_cochain(k, m, 1, 0), torus_grid_cochain(k, m, 0, 1)])
    omega = twisted.cup_omega(k, f, u)
    assert np.abs(omega - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-12


def test_cup_antisymmetry_and_not_closed_rejection():
    k, _, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    u = torus_grid_cochain(k, 4, 2, -1)[:, None]
    omega = twisted.cup_omega(k, f, u)
    assert abs(omega[0, 0]) < 1e-12
    rng = np.random.default_rng(25)
    with pytest.raises(NotClosed):
        twisted.cup_omega(k, f, rng.standard_normal((k.n_edges, 1)))


def test_cup_matches_whitney_wedge_route():
    rng = np.random.default_rng(26)
    for gen, args, n in [(surface.torus, (4,), 1),
                         (surface.genus_k, (1, 1, 1), 3),
                         (surface.annulus, (6, 2), 3)]:
        k, h, loops = gen(*args)
        f = localsys.random_flat_system(k, loops, n, rng)
        h1 = twisted.cohomology(k, f, 1)
        if h1.dim == 0:
            continue
        mc = hodge.metric_complex(k, h, f)
        omega_cup = twisted.cup_omega(k, f, h1.reps)
        omega_wedge = h1.reps.T @ mc.w1_twisted @ h1.reps
        assert np.abs(omega_cup - omega_wedge).max() < 1e-9


def test_cup_metric_free_bit_exact():
    rng = np.random.default_rng(27)
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    rp = twisted.restriction_and_parabolic(k, f)
    reps = rp["parabolic_basis"].reps
    omega1 = twisted.cup_omega(k, f, reps)
    omega2 = twisted.cup_omega(k, f, reps)  # cup never consults a metric
    assert np.array_equal(omega1, omega2)


def test_parabolic_pairing_representative_independent():
    rng = np.random.default_rng(28)
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    rp = twisted.restriction_and_parabolic(k, f)
    reps = rp["parabolic_basis"].reps
    d0, _, _, _ = twisted.coboundaries(k, f)
    shifted = reps + d0 @ rng.standard_normal((d0.shape[1], reps.shape[1]))
    omega = twisted.parabolic_pairing(k, f, reps)
    omega_shifted = twisted.parabolic_pairing(k, f, shifted)
    assert np.abs(omega - omega_shifted).max() < 1e-9
    # two different metrics pick different harmonic representatives but the
    # class pairing is unchanged
    mc1 = hodge.metric_complex(k, h, f)
    h2 = surface.perturbed_metric(k, h, rng)
    mc2 = hodge.metric_complex(k, h2, f)
    omega_h1 = twisted.parabolic_pairing(k, f, hodge.harmonic_representative(mc1, reps))
    omega_h2 = twisted.parabolic_pairing(k, f, hodge.harmonic_representative(mc2, reps))
    assert np.abs(omega_h1 - omega_h2).max() < 1e-9


def test_parabolic_pairing_rejects_nonparabolic():
    k, _, _ = surface.annulus(6, 1)
    f = localsys.trivial_system(k, 1)
    h1 = twisted.cohomology(k, f, 1)
    with pytest.raises(NotClosed):
        twisted.parabolic_pairing(k, f, h1.reps)  # angular class not parabolic


def test_boundary_h1_dimension_matches_monodromy_kernel():
    rng = np.random.default_rng(29)
    k, _, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    rp = twisted.restriction_and_parabolic(k, f)
    mono = localsys.boundary_monodromies(k, f)[0]
    fixed = 3 - numlin.rank(mono - np.eye(3), scale=1.0)
    assert rp["boundary_h1_dim"] == fixed


def test_cochain_space_dimensions():
    k, _, _ = surface.annulus(6, 2)
    f = localsys.trivial_system(k, 3)
    abs1 = twisted.cochain_space(k, f, 1, "absolute")
    rel1 = twisted.cochain_space(k, f, 1, "relative")
    assert abs1.dim == 3 * k.n_edges
    assert rel1.dim == 3 * (k.n_edges - len(k.boundary_edge_indices))
    # only the middle ring of the annulus grid is interior
    rel0 = twisted.cochain_space(k, f, 0, "relative")
    assert rel0.dim == 3 * 6
    rel2 = twisted.cochain_space(k, f, 2, "relative")
    assert rel2.dim == 3 * k.n_triangles  # no boundary triangles exist


def test_parabolic_pairing_agrees_with_right_lift():
    # lifting the right argument instead (and negating, by antisymmetry of
    # the class pairing) gives the same matrix: an independent route
    rng = np.random.default_rng(61)
    k, _, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    rp = twisted.restriction_and_parabolic(k, f)
    reps = rp["parabolic_basis"].reps
    left = twisted.parabolic_pairing(k, f, reps)
    right = -twisted.parabolic_pairing(k, f, reps).T  # skew: same matrix
    assert np.abs(left - right).max() < 1e-12
    # and against the raw cup on relative-normalized representatives the
    # left lift is doing exactly that normalization
    d0, _, _, _ = twisted.coboundaries(k, f)
    shifted = reps + d0 @ rng.standard_normal((d0.shape[1], reps.shape[1]))
    assert np.abs(twisted.parabolic_pairing(k, f, shifted) - left).max() < 1e-9


def _dense_cohomology(k, f, degree, flavor="absolute", tol=numlin.DEFAULT_TOL):
    """Dense SVD oracle: ker d_degree intersected with ker d_{degree-1}^T."""
    d0, d1, d0_rel, d1_rel = twisted.coboundaries(k, f)
    ds = (d0_rel, d1_rel) if flavor == "relative" else (d0, d1)
    kernel = numlin.nullspace_basis(ds[degree], tol)
    if degree == 1:
        kernel = kernel @ numlin.nullspace_basis(ds[0].T @ kernel, tol)
    mask = twisted.cochain_space(k, f, degree, flavor).dof_mask
    reps = np.zeros((mask.size, kernel.shape[1]))
    reps[mask] = kernel
    return twisted.CohomologyBasis(degree=degree, flavor=flavor, reps=reps,
                                   dim=reps.shape[1])


def _oracle_cases():
    rng = np.random.default_rng(62)
    for name in ("torus", "annulus", "disk", "genus11", "pants", "sphere"):
        for m in (3, 6):
            k, h, loops = cli._EXAMPLES[name](m)
            yield f"{name}{m}/R", k, localsys.trivial_system(k, 1)
            yield f"{name}{m}/R3", k, localsys.trivial_system(k, 3)
            yield f"{name}{m}/SO3", k, localsys.random_flat_system(k, loops, 3, rng)
    k1, h1, l1 = surface.torus(4)
    k2, h2, l2 = surface.genus_k(1, 1, 1)
    ku, _, fu = union_with_metric_and_system(
        k1, h1, localsys.random_flat_system(k1, l1, 3, rng),
        k2, h2, localsys.random_flat_system(k2, l2, 3, rng))
    yield "union", ku, fu


def test_tree_cotree_matches_dense_oracle():
    for label, k, f in _oracle_cases():
        d0, d1, d0_rel, _ = twisted.coboundaries(k, f)
        for flavor in ("absolute", "relative"):
            mask = [twisted.cochain_space(k, f, p, flavor).dof_mask for p in (0, 1)]
            for degree in (0, 1):
                case = (label, flavor, degree)
                got = twisted.cohomology(k, f, degree, flavor)
                want = _dense_cohomology(k, f, degree, flavor)
                assert got.dim == want.dim, case
                both = np.hstack([got.reps, want.reps])
                assert numlin.rank(both, scale=1.0) == got.dim, case
                reps = got.reps
                gram = reps.T @ reps - np.eye(got.dim)
                assert np.abs(gram).max(initial=0) < 1e-9, case
                assert np.abs(reps[~mask[degree]]).max(initial=0) == 0.0, case
                closed = (d0 if degree == 0 else d1) @ reps
                assert np.abs(closed).max(initial=0) < 1e-9, case
                if degree == 1:
                    exact = d0_rel.T @ reps[mask[1]] if flavor == "relative" \
                        else d0.T @ reps
                    assert np.abs(exact).max(initial=0) < 1e-9, case


def test_star_operator_does_not_depend_on_the_class_basis(monkeypatch):
    rng = np.random.default_rng(63)
    cases = [surface.torus(4), surface.genus_k(1, 1, 1), surface.genus_k(0, 4, 1)]
    systems = [(k, h, localsys.random_flat_system(k, loops, 3, rng))
               for k, h, loops in cases]
    reports = [parastar.parabolic_star(*c) for c in systems]
    monkeypatch.setattr(twisted, "cohomology", _dense_cohomology)
    for (k, h, f), rep in zip(systems, reports):
        dense = parastar.parabolic_star(k, h, f)
        assert dense.dim_h1_par == rep.dim_h1_par > 0
        u, v = rep.u_basis, dense.u_basis
        assert numlin.rank(np.hstack([u, v]), scale=1.0) == rep.dim_h1_par
        op = u @ rep.j_par @ np.linalg.pinv(u)
        op_dense = v @ dense.j_par @ np.linalg.pinv(v)
        assert np.abs(op - op_dense).max() < 1e-9
