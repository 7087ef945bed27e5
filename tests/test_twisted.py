import numpy as np
import pytest

from parhodge import cli, hodge, localsys, moduli, numlin, parastar, surface, twisted
from parhodge.errors import NoConvergence, NotClosed

import contraction_oracle
from conftest import torus_grid_cochain, union_with_metric_and_system, wedge_matrix


def test_d0_rank_on_disk():
    k, _, _ = surface.disk(6)
    f = localsys.trivial_system(k, 1)
    d0, d1 = twisted.coboundaries(k, f)
    assert numlin.rank(d0) == k.vertex_count - 1


def test_torus_betti_via_coboundaries():
    k, _, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    d0, d1 = twisted.coboundaries(k, f)
    kernel_dim = k.n_edges - numlin.rank(d1)
    assert kernel_dim - numlin.rank(d0) == 2


def test_d1_d0_vanishes_for_flat_systems():
    rng = np.random.default_rng(20)
    for gen, args in [(surface.torus, (4,)), (surface.genus_k, (1, 1, 1)),
                      (surface.genus_k, (0, 3, 1))]:
        k, _, loops = gen(*args)
        f = localsys.random_flat_system(k, loops, 3, rng)
        d0, d1 = twisted.coboundaries(k, f)
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
    d0, d1 = twisted.coboundaries(k, f)
    assert np.abs(d1 @ h1.reps).max() < 1e-9
    _assert_class_contract(k, f, h1, _dense_cohomology(k, f, 1), d0)


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
        omega_wedge = h1.reps.T @ wedge_matrix(mc) @ h1.reps
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
    d0, _ = twisted.coboundaries(k, f)
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


def test_near_trivial_torus_system_keeps_the_exact_count():
    # commuting rotations by small angles leave the twisted graph Laplacian
    # nearly singular, which the exact directions must not depend on
    k, h, loops = surface.torus(12)
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    for angles in ((1e-2, 1e-4), (1e-3, 1e-5)):
        images = {name: localsys.su2_adjoint(localsys.quat_from_axis_angle(axis, t))
                  for name, t in zip(("a1", "b1"), angles)}
        f = localsys.from_representation(k, loops, images)
        assert twisted.cohomology(k, f, 1).dim == 2
        assert parastar.parabolic_star(k, h, f).theorem_residuals_ok()


def test_cochain_space_dimensions():
    k, _, _ = surface.annulus(6, 2)
    f = localsys.trivial_system(k, 3)
    abs1 = twisted.cochain_space(k, f, 1, "absolute")
    rel1 = twisted.cochain_space(k, f, 1, "relative")
    assert abs1.sum() == 3 * k.n_edges
    assert rel1.sum() == 3 * (k.n_edges - sum(len(c["edges"]) for c in k.boundary_components))
    # only the middle ring of the annulus grid is interior
    rel0 = twisted.cochain_space(k, f, 0, "relative")
    assert rel0.sum() == 3 * 6
    rel2 = twisted.cochain_space(k, f, 2, "relative")
    assert rel2.sum() == 3 * k.n_triangles  # no boundary triangles exist


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
    d0, _ = twisted.coboundaries(k, f)
    shifted = reps + d0 @ rng.standard_normal((d0.shape[1], reps.shape[1]))
    assert np.abs(twisted.parabolic_pairing(k, f, shifted) - left).max() < 1e-9


def _dense_cohomology(k, f, degree, flavor="absolute", tol=numlin.DEFAULT_TOL):
    """Dense SVD oracle: ker d_degree intersected with ker d_{degree-1}^T,
    and in degree 2 ker d1^T."""
    d0, d1 = twisted.coboundaries(k, f)
    vmask, emask = (twisted.cochain_space(k, f, p, flavor) for p in (0, 1))
    ds = (d0[np.ix_(emask, vmask)], d1[:, emask])
    if degree == 2:
        reps = numlin.nullspace_basis(ds[1].T, tol)
        return twisted.CohomologyBasis(flavor=flavor, reps=reps, dim=reps.shape[1])
    kernel = numlin.nullspace_basis(ds[degree], tol)
    if degree == 1:
        kernel = kernel @ numlin.nullspace_basis(ds[0].T @ kernel, tol)
    mask = (vmask, emask)[degree]
    reps = np.zeros((mask.size, kernel.shape[1]))
    reps[mask] = kernel
    return twisted.CohomologyBasis(flavor=flavor, reps=reps, dim=reps.shape[1])


def _assert_class_contract(k, f, got, want, exact, case=None):
    """Degree-1 contract: the columns are independent modulo the flavor's
    exact cochains (the columns of `exact`), span the oracle's classes, and
    their loop-edge values are orthonormal and orthogonal to those of the
    exact tree-cotree cocycles."""
    r = numlin.rank(exact, scale=1.0)
    assert numlin.rank(np.hstack([got.reps, exact]), scale=1.0) == got.dim + r, case
    both = np.hstack([got.reps, want.reps, exact])
    assert numlin.rank(both, scale=1.0) == got.dim + r, case
    walk = twisted._walk(k, got.flavor)
    cocycles = twisted._tree_and_flat_sections(k, f, walk, numlin.DEFAULT_TOL)[1]
    dofs = np.repeat(twisted._cotree(k, walk.loose)[3], f.fiber_dim)
    y = got.reps[dofs]
    assert np.abs(y.T @ y - np.eye(got.dim)).max(initial=0) < 1e-9, case
    assert np.abs(y.T @ cocycles[dofs]).max(initial=0) < 1e-9, case


def _dense_boundary_route(k, f, h1, h1_rel, tol=numlin.DEFAULT_TOL):
    """The dense boundary route: the coboundary d0_b of the boundary graph,
    boundary H^1 as the orthogonal complement of its image, parabolic
    classes as the kernel of the restriction, and class coordinates from
    Euclidean bases orthogonal to the coboundaries (`_dense_cohomology`)."""
    n = f.fiber_dim
    d0, _ = twisted.coboundaries(k, f)
    cycles = k.boundary_components
    rows = np.repeat(np.isin(np.arange(k.n_edges), [e for c in cycles for e in c["edges"]]), n)
    cols = np.repeat(np.isin(np.arange(k.vertex_count),
                             [v for c in cycles for v in c["vertices"]]), n)
    d0b = d0[np.ix_(rows, cols)]
    z = numlin.nullspace_basis(d0b.T, tol)
    par = h1.reps @ numlin.nullspace_basis(z.T @ h1.reps[rows], tol, scale=1.0)
    image = h1.reps.T @ h1_rel.reps
    image_dim = numlin.rank(image, tol, scale=1.0)
    same = par.shape[1] == image_dim and numlin.rank(
        np.hstack([h1.reps.T @ par, image]), tol, scale=1.0) == image_dim
    return {"d0b": d0b, "rows": rows, "cols": cols, "boundary_h1_dim": z.shape[1],
            "parabolic": par, "exactness_check": bool(same)}


def _dense_parabolic_pairing(k, f, u, route):
    """Left lift by a least-squares primitive on the boundary graph."""
    d0, _ = twisted.coboundaries(k, f)
    d0b, rows = route["d0b"], route["rows"]
    primitives = np.linalg.lstsq(d0b, u[rows], rcond=None)[0]
    extend = np.zeros((d0.shape[1], u.shape[1]))
    extend[route["cols"]] = primitives
    raw = twisted._cup_raw(k, f, u - d0 @ extend, u)
    return 0.5 * (raw - raw.T)


def test_boundary_walk_matches_the_dense_boundary_route():
    bounded = 0
    for label, k, f in _oracle_cases():
        if not k.boundary_components:
            continue
        bounded += 1
        rp = twisted.restriction_and_parabolic(k, f)
        route = _dense_boundary_route(k, f, _dense_cohomology(k, f, 1),
                                      _dense_cohomology(k, f, 1, "relative"))
        assert rp["boundary_h1_dim"] == route["boundary_h1_dim"], label
        assert rp["exactness_check"] == route["exactness_check"], label
        par, ref = rp["parabolic_basis"].reps, route["parabolic"]
        assert par.shape[1] == ref.shape[1], label
        d0, _ = twisted.coboundaries(k, f)
        r = numlin.rank(d0, scale=1.0)
        assert numlin.rank(np.hstack([par, ref, d0]), scale=1.0) == par.shape[1] + r, label
        if par.shape[1]:
            omega = twisted.parabolic_pairing(k, f, par)
            want = _dense_parabolic_pairing(k, f, par, route)
            assert np.abs(omega - want).max() < 1e-9, label
    assert bounded == 25


def _oracle_cases(sizes=(3, 6)):
    rng = np.random.default_rng(62)
    for name in ("torus", "annulus", "disk", "genus11", "pants", "sphere"):
        for m in sizes:
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


@pytest.mark.parametrize("cols", [0, 1, 40])
def test_stacked_contractions_match_the_dense_coboundaries_and_einsum(cols):
    # every transport contraction against the dense matrices and the
    # batched einsum it replaced, to 1e-14 of the reference's largest entry
    rng = np.random.default_rng(91 + cols)
    fibers, labels = set(), set()
    for label, k, f in _oracle_cases():
        n = f.fiber_dim
        d0, d1 = twisted.coboundaries(k, f)
        cup = contraction_oracle.cup_matrix(k, f)
        a = rng.standard_normal((n * k.vertex_count, cols))
        w = rng.standard_normal((n * k.n_edges, cols))
        v = rng.standard_normal((n * k.n_edges, 3))
        checks = [
            (twisted._d0_apply(k, f, a), d0 @ a, contraction_oracle.d0_apply(k, f, a)),
            (twisted._d0_adjoint(k, f, w), d0.T @ w, contraction_oracle.d0_adjoint(k, f, w)),
            (twisted._d1_apply(k, f, w), d1 @ w, contraction_oracle.d1_apply(k, f, w)),
            (twisted._cup_raw(k, f, w, v), w.T @ cup @ v, contraction_oracle.cup_raw(k, f, w, v)),
            (twisted._cup_raw(k, f, v, w), v.T @ cup @ w, contraction_oracle.cup_raw(k, f, v, w)),
        ]
        for i, (got, *wants) in enumerate(checks):
            for want in wants:
                assert got.shape == want.shape, (label, i)
                err = np.abs(got - want).max(initial=0.0)
                assert err <= 1e-14 * np.abs(want).max(initial=0.0), (label, i, err)
        fibers.add(n)
        labels.add(label)
    assert fibers == {1, 3}
    assert {"torus3/R", "pants6/SO3", "union"} <= labels


def test_tree_cotree_matches_dense_oracle():
    for label, k, f in _oracle_cases():
        d0, d1 = twisted.coboundaries(k, f)
        for flavor in ("absolute", "relative"):
            mask = [twisted.cochain_space(k, f, p, flavor) for p in (0, 1)]
            for degree in (0, 1):
                case = (label, flavor, degree)
                got = twisted.cohomology(k, f, degree, flavor)
                want = _dense_cohomology(k, f, degree, flavor)
                assert got.dim == want.dim, case
                reps = got.reps
                assert np.abs(reps[~mask[degree]]).max(initial=0) == 0.0, case
                closed = (d0 if degree == 0 else d1) @ reps
                assert np.abs(closed).max(initial=0) < 1e-9, case
                if degree == 1:
                    _assert_class_contract(k, f, got, want, d0[:, mask[0]], case)
                    continue
                both = np.hstack([got.reps, want.reps])
                assert numlin.rank(both, scale=1.0) == got.dim, case
                gram = reps.T @ reps - np.eye(got.dim)
                assert np.abs(gram).max(initial=0) < 1e-9, case


def test_class_coordinates_by_duality_match_the_dense_oracle():
    # the relative classes minus their image through the coordinates read
    # off the cup pairing are exact, by rank against the dense d0; the
    # pairing matrix P of H^1 with H^1_rel is square on every case
    for label, k, f in _oracle_cases():
        h1, h1_rel = twisted.h1_flavors(k, f)
        p = twisted._cup_raw(k, f, h1.reps, h1_rel.reps)
        assert p.shape == (h1.dim, h1.dim), label
        c = twisted._class_coordinates(k, f, h1, h1_rel, h1_rel.reps)
        d0, _ = twisted.coboundaries(k, f)
        r = numlin.rank(d0, scale=1.0)
        assert numlin.rank(np.hstack([d0, h1_rel.reps - h1.reps @ c]), scale=1.0) == r, label


def test_unequal_flavor_dimensions_raise(monkeypatch):
    rng = np.random.default_rng(70)
    k, _, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    cohomology = twisted.cohomology

    def dropping(k, f, degree, flavor="absolute", tol=numlin.DEFAULT_TOL):
        basis = cohomology(k, f, degree, flavor, tol)
        if degree == 1 and flavor == "relative":
            basis.reps, basis.dim = basis.reps[:, 1:], basis.dim - 1
        return basis

    monkeypatch.setattr(twisted, "cohomology", dropping)
    with pytest.raises(NoConvergence, match=r"dim H\^1 = 3 but dim H\^1_rel = 2"):
        twisted.restriction_and_parabolic(k, f)


def test_h2_from_the_dual_walk_matches_the_dense_oracle():
    for label, k, f in _oracle_cases():
        _, d1 = twisted.coboundaries(k, f)
        dims = {}
        for flavor in ("absolute", "relative"):
            got = twisted.cohomology(k, f, 2, flavor)
            assert got.dim == _dense_cohomology(k, f, 2, flavor).dim, (label, flavor)
            emask = twisted.cochain_space(k, f, 1, flavor)
            assert np.abs(d1[:, emask].T @ got.reps).max(initial=0) < 1e-9, (label, flavor)
            dims[flavor] = (twisted.cohomology(k, f, 0, flavor).dim, got.dim)
        # Poincare-Lefschetz duality; an orthogonal system is its own dual
        assert dims["absolute"][1] == dims["relative"][0], label
        assert dims["relative"][1] == dims["absolute"][0], label


def _entry_point(case):
    """Run one entry point on a one-holed torus with an SO(3) system (on a
    closed torus when `case` ends in "-torus"), or on a (1, 1) moduli
    point; each checks enough of its result to show it ran."""
    name, _, closed = case.partition("-")
    if name in ("tangent_space", "moduli_acs"):
        out = getattr(moduli, name)(moduli.sample_point(1, 1, [3.0], seed=7))
        assert (out if name == "tangent_space" else out["tangent"])["dim_H1_par"] == 2
        return
    k, h, loops = surface.torus(6) if closed else surface.genus_k(1, 1, 2)
    f = localsys.random_flat_system(k, loops, 3, np.random.default_rng(66))
    if name == "restriction_and_parabolic":
        rp = twisted.restriction_and_parabolic(k, f)
        assert rp["exactness_check"] and rp["parabolic_basis"].dim == 2
    elif name == "parabolic_star":
        assert parastar.parabolic_star(k, h, f).dim_h1_par == 2
    elif name == "harmonic_spaces":
        mc = hodge.metric_complex(k, h, f)
        # a generic SO(3) system has dim H^1 = 3 on the one-holed torus;
        # on the torus its commuting rotations fix an axis, which gives 2
        assert hodge.harmonic_spaces(mc).dim_n == (2 if closed else 3)
    elif name == "ambient_route_diagnostic":
        assert parastar.ambient_route_diagnostic(k, h, f)["kernel_check"]
    elif name == "verify_case":
        assert cli._verify_case(k, h, f, numlin.DEFAULT_TOL, np.random.default_rng(67))["ok"]
    else:
        assert twisted.euler_characteristic_dims(k, f) == [0, 3, 0]


# (spanning trees, cotrees) walked per call on a cold mesh
_WALKS = {
    "restriction_and_parabolic": (2, 2),
    "parabolic_star": (2, 2),
    "tangent_space": (2, 2),
    # its H^0 check reads the shared bases before the star report runs
    "moduli_acs": (2, 2),
    "harmonic_spaces": (2, 2),
    "ambient_route_diagnostic": (2, 2),
    "euler_characteristic_dims": (1, 1),
    # the gauge transform of the system shares its mesh's walks
    "verify_case": (2, 2),
    # a closed surface's relative flavor is its absolute one
    "restriction_and_parabolic-torus": (1, 1),
    "parabolic_star-torus": (1, 1),
    "harmonic_spaces-torus": (1, 1),
    "ambient_route_diagnostic-torus": (1, 1),
    "verify_case-torus": (1, 1),
}


@pytest.mark.parametrize("name", _WALKS)
def test_entry_points_walk_each_flavor_once(monkeypatch, name):
    # a degree-1 basis carries its flat sections (for the harmonic solve),
    # and a mesh keeps its walks, so nothing walks a flavor again: once on
    # a cold mesh, and not at all on a warm one
    counts = dict.fromkeys(("_plan_walk", "_cotree"), 0)

    def counting(fn_name, fn):
        def wrapped(*args):
            counts[fn_name] += 1
            return fn(*args)
        return wrapped

    for fn_name in counts:
        monkeypatch.setattr(twisted, fn_name, counting(fn_name, getattr(twisted, fn_name)))
    _entry_point(name)
    assert (counts["_plan_walk"], counts["_cotree"]) == _WALKS[name]
    _entry_point(name)
    assert (counts["_plan_walk"], counts["_cotree"]) == _WALKS[name]


def test_h1_flavors_share_the_basis_only_without_boundary():
    rng = np.random.default_rng(68)
    for k, h, loops in (surface.torus(5), surface.genus_k(1, 1, 1), surface.sphere(2)):
        f = localsys.random_flat_system(k, loops, 3, rng)
        h1, h1_rel = twisted.h1_flavors(k, f)
        assert (h1_rel is h1) == (not k.boundary_components)
        # the shared basis is what the relative walk would cut, bit for bit
        rel = twisted.cohomology(k, f, 1, "relative")
        assert np.array_equal(rel.reps, h1_rel.reps)
        assert np.array_equal(rel.h0.reps, h1_rel.h0.reps)


def test_star_operator_does_not_depend_on_the_class_basis(monkeypatch):
    rng = np.random.default_rng(63)
    cases = [surface.torus(4), surface.genus_k(1, 1, 1), surface.genus_k(0, 4, 1)]
    systems = [(k, h, localsys.random_flat_system(k, loops, 3, rng))
               for k, h, loops in cases]
    reports = [parastar.parabolic_star(*c) for c in systems]
    cohomology = twisted.cohomology

    def oracle(k, f, degree, flavor="absolute", tol=numlin.DEFAULT_TOL):
        # dense classes, with the flat sections of the real degree-1 basis,
        # which the harmonic solve reads
        basis = _dense_cohomology(k, f, degree, flavor, tol)
        if degree == 1:
            basis.h0 = cohomology(k, f, degree, flavor, tol).h0
        return basis

    monkeypatch.setattr(twisted, "cohomology", oracle)
    for (k, h, f), rep in zip(systems, reports):
        dense = parastar.parabolic_star(k, h, f)
        assert dense.dim_h1_par == rep.dim_h1_par > 0
        u, v = rep.u_basis, dense.u_basis
        assert numlin.rank(np.hstack([u, v]), scale=1.0) == rep.dim_h1_par
        op = u @ rep.j_par @ np.linalg.pinv(u)
        op_dense = v @ dense.j_par @ np.linalg.pinv(v)
        assert np.abs(op - op_dense).max() < 1e-9
