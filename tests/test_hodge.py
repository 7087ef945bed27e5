import functools
import tracemalloc

import numpy as np
import pytest

from parhodge import cli, compat, hodge, localsys, numlin, surface, twisted
from parhodge.errors import NoConvergence

import decomposition_oracle
from conftest import (doughnut_metric, galerkin_star, mass_matrix, torus_grid_cochain,
                      union_with_metric_and_system, wedge_matrix)


def build(gen, args, n=1, seed=30, trivial=True):
    rng = np.random.default_rng(seed)
    k, h, loops = gen(*args)
    f = localsys.trivial_system(k, n) if trivial else \
        localsys.random_flat_system(k, loops, n, rng)
    return k, h, f, loops


def test_twisted_matrices_reduce_to_scalar_for_trivial_system():
    k, h, f, _ = build(surface.annulus, (5, 2), n=3)
    mc = hodge.metric_complex(k, h, f)
    sc = hodge.metric_complex(k, h, localsys.trivial_system(k, 1))
    for name, get in (("m1", mass_matrix), ("w1", wedge_matrix),
                      ("l0", lambda c: c.l0)):
        scalar = np.kron(get(sc), np.eye(3))
        assert np.abs(get(mc) - scalar).max() < 1e-12, name


def _reference_assembly(k, h, f):
    """Per-triangle loop over stored vertex positions in scalar arithmetic;
    the batched assembly must reproduce it bit for bit."""
    n = f.fiber_dim
    ll_ref = (np.ones((3, 3)) + np.eye(3)) / 24.0
    wedge_e = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=float)

    def whitney(x, y, a, b, c, d):
        return y[b, d] * x[a, c] - y[b, c] * x[a, d] - y[a, d] * x[b, c] \
            + y[a, c] * x[b, d]

    def blk(i, j):
        return np.s_[n * i:n * i + n, n * j:n * j + n]

    l0 = np.zeros((n * k.n_vertices, n * k.n_vertices))
    m1 = np.zeros((n * k.n_edges, n * k.n_edges))
    w1 = np.zeros_like(m1)
    for ti, t in enumerate(k.triangles):
        side = np.array([h.lengths[k.edge_id(t[1], t[2])],
                         h.lengths[k.edge_id(t[0], t[2])],
                         h.lengths[k.edge_id(t[0], t[1])]])
        s = 0.5 * (side[0] + side[1] + side[2])
        area = float(np.sqrt(max(
            s * (s - side[0]) * (s - side[1]) * (s - side[2]), 0.0)))
        g = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                g[i, j] = side[i] ** 2 / (4.0 * area * area) if i == j else \
                    -(side[i] ** 2 + side[j] ** 2 - side[3 - i - j] ** 2) \
                    / (8.0 * area * area)
        ll = area * (np.ones((3, 3)) + np.eye(3)) / 12.0
        w = min(t)
        rho = {v: np.eye(n) if v == w else f.transports[k.edge_id(w, v)] for v in t}
        for i in range(3):
            for j in range(3):
                l0[blk(t[i], t[j])] += (area * g[i, j]) * (rho[t[i]].T @ rho[t[j]])
        edges = [(p, q) if t[p] < t[q] else (q, p) for p, q in ((0, 1), (0, 2), (1, 2))]
        for a, b in edges:
            for c, d in edges:
                pair = rho[t[a]].T @ rho[t[c]]
                e, e2 = k.edge_id(t[a], t[b]), k.edge_id(t[c], t[d])
                m1[blk(e, e2)] += whitney(ll, g, a, b, c, d) * pair
                w1[blk(e, e2)] += whitney(ll_ref, wedge_e, a, b, c, d) * pair
    return 0.5 * (m1 + m1.T), 0.5 * (w1 - w1.T), 0.5 * (l0 + l0.T)


@pytest.mark.parametrize("gen,args,n,trivial", [
    (surface.genus_k, (1, 1, 2), 3, False),
    (surface.genus_k, (0, 3, 1), 1, True),
    (surface.sphere, (2,), 3, True),
])
def test_metric_complex_matches_triangle_loop_bitwise(gen, args, n, trivial):
    k, h, f, _ = build(gen, args, n=n, trivial=trivial, seed=40)
    h = surface.perturbed_metric(k, h, np.random.default_rng(41), amplitude=0.2)
    mc = hodge.metric_complex(k, h, f)
    ref = _reference_assembly(k, h, f)
    got = (mass_matrix(mc), wedge_matrix(mc), mc.l0)
    for name, g, r in zip(("m1", "w1", "l0"), got, ref):
        assert np.array_equal(g, r), name
    # the scatter alone is bitwise symmetric, so the reference's 0.5 (L0 + L0^T)
    # leaves it unchanged
    assert np.array_equal(mc.l0, mc.l0.T)


def test_mass_matrices_spd_and_wedge_skew_twisted():
    k, h, f, _ = build(surface.genus_k, (1, 1, 1), n=3, trivial=False)
    mc = hodge.metric_complex(k, h, f)
    w1 = wedge_matrix(mc)
    assert np.linalg.eigvalsh(mass_matrix(mc))[0] > 0
    assert np.abs(w1 + w1.T).max() == 0.0


def test_l0_is_d0t_m1_d0_with_the_flat_sections_as_kernel():
    # the cotan Laplacian that harmonic_representative's solve inverts
    for gen, args, n, trivial in [(surface.genus_k, (1, 1, 2), 3, False),
                                  (surface.genus_k, (0, 3, 1), 1, True),
                                  (surface.sphere, (2,), 3, True)]:
        k, h, f, _ = build(gen, args, n=n, trivial=trivial, seed=42)
        h = surface.perturbed_metric(k, h, np.random.default_rng(43), amplitude=0.2)
        mc = hodge.metric_complex(k, h, f)
        d0, _ = twisted.coboundaries(k, f)
        lap = d0.T @ mass_matrix(mc) @ d0
        scale = np.abs(lap).max()
        assert np.abs(mc.l0 - lap).max() <= 1e-13 * scale, args
        flat = twisted.cohomology(k, f, 0).reps
        assert flat.shape[1] == (0 if not trivial else n)
        assert numlin.rank(mc.l0) == n * k.n_vertices - flat.shape[1], args
        assert np.abs(mc.l0 @ flat).max(initial=0.0) < 1e-9 * scale, args


def test_harmonic_dims_closed_and_bounded():
    k, h, f, _ = build(surface.torus, (4,))
    mc = hodge.metric_complex(k, h, f)
    harm = hodge.harmonic_spaces(mc)
    assert harm.dim_n == harm.dim_d == 2
    k2, h2, f2, _ = build(surface.annulus, (6, 2))
    mc2 = hodge.metric_complex(k2, h2, f2)
    harm2 = hodge.harmonic_spaces(mc2)
    assert harm2.dim_n == 1 and harm2.dim_d == 1


def test_closed_torus_takes_h_d_from_the_absolute_solve(monkeypatch):
    k, h, f, _ = build(surface.torus, (5,), n=3, trivial=False, seed=69)
    mc = hodge.metric_complex(k, h, f)
    solves = []
    solve = hodge.harmonic_representative
    monkeypatch.setattr(hodge, "harmonic_representative",
                        lambda *args: solves.append(1) or solve(*args))
    harm = hodge.harmonic_spaces(mc)
    assert len(solves) == 1
    assert np.array_equal(harm.h_d, harm.h_n)
    # a relative basis cut by its own walk takes the boundary route, with
    # a second solve, and lands on the same bits
    h1 = twisted.cohomology(k, f, 1, "absolute")
    routed = hodge.harmonic_spaces(mc, (h1, twisted.cohomology(k, f, 1, "relative")))
    assert len(solves) == 3
    for got, want in ((harm.h_d, routed.h_d), (harm.h_n, routed.h_n), (harm.ccc, routed.ccc)):
        assert np.array_equal(got, want)


def _torus_and_annulus(n, trivial, seed):
    """torus(4) and annulus(6, 2) as one disconnected complex."""
    k1, h1, f1, _ = build(surface.torus, (4,), n=n, trivial=trivial, seed=seed)
    k2, h2, f2, _ = build(surface.annulus, (6, 2), n=n, trivial=trivial, seed=seed + 1)
    return union_with_metric_and_system(k1, h1, f1, k2, h2, f2)


def _apply_cases():
    rng = np.random.default_rng(44)
    k, h, loops = surface.genus_k(1, 1, 2)
    yield pytest.param(k, surface.perturbed_metric(k, h, rng, amplitude=0.2),
                       localsys.random_flat_system(k, loops, 3, rng), id="genus11_SO3")
    k, h, _ = surface.genus_k(0, 3, 1)
    yield pytest.param(k, h, localsys.trivial_system(k, 1), id="pants_R")
    k, h, _ = surface.sphere(2)
    yield pytest.param(k, h, localsys.trivial_system(k, 3), id="sphere_R3")
    yield pytest.param(*_torus_and_annulus(3, True, 45), id="torus_annulus_R3")


@pytest.mark.parametrize("k,h,f", list(_apply_cases()))
def test_m1_apply_and_edgewise_d0_match_the_dense_oracles(k, h, f):
    # the star path applies M1 per triangle and d0, d0^T edgewise
    rng = np.random.default_rng(46)
    mc = hodge.metric_complex(k, h, f)
    m1 = mass_matrix(mc)
    d0, _ = twisted.coboundaries(k, f)
    u = rng.standard_normal((m1.shape[0], 3))

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    assert close(hodge.m1_apply(mc, u), m1 @ u)
    assert close(hodge.m1_apply(mc, u[:, 0]), m1 @ u[:, 0])
    assert hodge.m1_apply(mc, u[:, :0]).shape == (m1.shape[0], 0)
    assert close(twisted._d0_adjoint(k, f, u), d0.T @ u)
    a = rng.standard_normal((d0.shape[1], 3))
    assert close(twisted._d0_apply(k, f, a), d0 @ a)


def test_harmonic_dims_match_cohomology_twisted():
    # CcC = H_N + d0 Psi, whose kernel is the flat sections of the
    # components with boundary
    for n, trivial in [(1, True), (3, False)]:
        cases = [build(gen, args, n=n, trivial=trivial, seed=32)[:3]
                 for gen, args in [(surface.annulus, (6, 2)), (surface.disk, (4,)),
                                   (surface.genus_k, (0, 3, 1)),
                                   (surface.genus_k, (1, 1, 1))]]
        for k, h, f in cases + [_torus_and_annulus(n, trivial, 32)]:
            mc = hodge.metric_complex(k, h, f)
            harm = hodge.harmonic_spaces(mc)
            dims = {flavor: [twisted.cohomology(k, f, p, flavor).dim for p in (0, 1)]
                    for flavor in ("absolute", "relative")}
            assert harm.dim_n == dims["absolute"][1]
            assert harm.dim_d == dims["relative"][1]
            assert harm.ccc.shape[1] == dims["absolute"][1] \
                + n * len(k.boundary_vertices) - dims["absolute"][0] \
                + dims["relative"][0], (k.n_edges, n)


def test_harmonic_spaces_walk_each_class_once_and_build_no_coboundaries(monkeypatch):
    k, h, f = _torus_and_annulus(3, False, 47)
    mc = hodge.metric_complex(k, h, f)
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args[2:4] if name == "cohomology" else ()))
            return fn(*args, **kwargs)
        monkeypatch.setattr(twisted, name, wrapped)

    for name in ("coboundaries", "cohomology", "_tree_and_flat_sections", "_cotree"):
        counting(name, getattr(twisted, name))
    harm = hodge.harmonic_spaces(mc)
    assert harm.dim_n > 0 and harm.dim_d > 0
    names = [name for name, _ in calls]
    assert names.count("coboundaries") == 0
    # each flavor walks once: its degree-1 basis carries its H^0, so two
    # spanning trees and two cotrees
    walks = [key for name, key in calls if name == "cohomology"]
    assert sorted(walks) == [(1, "absolute"), (1, "relative")]
    assert names.count("_tree_and_flat_sections") == 2
    assert names.count("_cotree") == 2


def test_harmonic_representative_is_lsq_projection():
    rng = np.random.default_rng(33)
    k, h, f, _ = build(surface.torus, (4,))
    mc = hodge.metric_complex(k, h, f)
    m1 = mass_matrix(mc)
    d0, d1 = twisted.coboundaries(k, f)
    closed = numlin.nullspace_basis(d1)
    for _ in range(10):
        u = closed @ rng.standard_normal(closed.shape[1])
        hrep = hodge.harmonic_representative(mc, u)
        # harmonic: closed and co-closed, in the same class
        assert np.abs(d1 @ hrep).max() < 1e-9
        assert np.abs(d0.T @ m1 @ hrep).max() < 1e-9
        assert numlin.rank(np.column_stack([u - hrep, d0 @ np.eye(d0.shape[1])])) \
            == numlin.rank(d0)


def test_metric_scaling_leaves_harmonic_spaces_invariant():
    k, h, f, _ = build(surface.annulus, (6, 2))
    mc1 = hodge.metric_complex(k, h, f)
    h2 = surface.metric_from_lengths(k, 2.0 * h.lengths)
    mc2 = hodge.metric_complex(k, h2, f)
    m1 = mass_matrix(mc1)
    h_n1 = hodge.harmonic_spaces(mc1).h_n
    h_n2 = hodge.harmonic_spaces(mc2).h_n
    assert compat.subspace_angle(h_n1, h_n2, m1.__matmul__) < 1e-9


def test_metric_independence_of_harmonic_dims():
    rng = np.random.default_rng(34)
    k, h, f, _ = build(surface.genus_k, (1, 1, 1), n=3, trivial=False, seed=35)
    mc1 = hodge.metric_complex(k, h, f)
    mc2 = hodge.metric_complex(k, surface.perturbed_metric(k, h, rng), f)
    a, b = (hodge.harmonic_spaces(mc) for mc in (mc1, mc2))
    assert (a.dim_n, a.dim_d) == (b.dim_n, b.dim_d)


def test_hodge_decomposition_orthogonality_and_dims():
    for gen, args, n, trivial, seed in [
        (surface.torus, (4,), 1, True, 0),
        (surface.disk, (4,), 1, True, 0),
        (surface.annulus, (6, 2), 1, True, 0),
        (surface.genus_k, (1, 1, 1), 3, False, 36),
    ]:
        k, h, f, _ = build(gen, args, n=n, trivial=trivial, seed=seed)
        mc = hodge.metric_complex(k, h, f)
        dec = hodge.hodge_decomposition(mc)
        rep = dec["report"]
        assert rep["dim_sum_ok"]
        assert max(rep["orthogonality"].values()) < 1e-9
        assert rep["refinement_report"]["H_N_in_CcC_residual"] < 1e-9
        assert rep["refinement_report"]["H_D_in_CcC_residual"] < 1e-9


def test_hodge_decomposition_orthogonality_20_random_systems():
    rng = np.random.default_rng(60)
    k, h, loops = surface.genus_k(1, 1, 1)
    for _ in range(20):
        f = localsys.random_flat_system(k, loops, 3, rng)
        mc = hodge.metric_complex(k, h, f)
        rep = hodge.hodge_decomposition(mc)["report"]
        assert rep["dim_sum_ok"]
        assert max(rep["orthogonality"].values()) < 1e-9


def _decomposition_cases():
    for gen, args, n, trivial, seed in [
        (surface.torus, (4,), 1, True, 0),
        (surface.disk, (4,), 1, True, 0),
        (surface.annulus, (6, 2), 1, True, 0),
        (surface.genus_k, (1, 1, 1), 3, False, 36),
        # H^1 = 0 and no boundary: CcC has no columns
        (surface.sphere, (2,), 3, True, 0),
    ]:
        k, h, f, _ = build(gen, args, n=n, trivial=trivial, seed=seed)
        yield pytest.param(k, h, f, id=f"{gen.__name__}{args}_{n}")
    # the cases of the verify sweep
    rng = np.random.default_rng(75)
    for name in ("torus", "annulus", "disk", "genus11"):
        k, h, loops = cli._EXAMPLES[name](6 if name != "genus11" else 3)
        for label, f in (("R", localsys.trivial_system(k, 1)),
                         ("R3", localsys.trivial_system(k, 3)),
                         ("SO3", localsys.random_flat_system(k, loops, 3, rng))):
            yield pytest.param(k, h, f, id=f"{name}_{label}")


@pytest.mark.parametrize("k,h,f", list(_decomposition_cases()))
def test_hodge_decomposition_matches_the_dense_oracle(k, h, f):
    # dims from exact counts against ranks of the dense bases, and the
    # containment residuals through m1_apply against the dense M1
    mc = hodge.metric_complex(k, h, f)
    rep = hodge.hodge_decomposition(mc)["report"]
    want = decomposition_oracle.hodge_decomposition(mc)["report"]
    assert rep["dims"] == want["dims"]
    assert rep["dim_sum_ok"] == want["dim_sum_ok"]
    for key in ("H_N_in_CcC_residual", "H_D_in_CcC_residual"):
        got, ref = rep["refinement_report"][key], want["refinement_report"][key]
        assert abs(got - ref) < 1e-12, (key, got, ref)
    assert max(rep["orthogonality"].values()) < 1e-9


def test_hodge_decomposition_closed_torus_collapses():
    k, h, f, _ = build(surface.torus, (4,))
    mc = hodge.metric_complex(k, h, f)
    dec = decomposition_oracle.hodge_decomposition(mc)
    assert dec["report"]["dims"]["CcC"] == 2
    assert dec["report"]["refinement_report"]["dim_exact_in_CcC"] == 0
    assert dec["report"]["refinement_report"]["split_neumann_ok"]
    assert dec["report"]["refinement_report"]["split_dirichlet_ok"]


def test_hodge_decomposition_disk_middle_carries_no_cohomology():
    k, h, f, _ = build(surface.disk, (4,))
    mc = hodge.metric_complex(k, h, f)
    dec = decomposition_oracle.hodge_decomposition(mc)
    rep = dec["report"]["refinement_report"]
    # trivial cohomology on both sides; CcC itself is exact material
    assert rep["dim_exact_in_CcC"] == dec["report"]["dims"]["CcC"]
    assert rep["split_neumann_ok"]


def test_hodge_decomposition_annulus_middle_dims():
    # on the one-holed torus with an SO(3) system, CcC (dim 12) meets the
    # co-exact cochains in nothing, so the Dirichlet defect is 12 - 3 = 9
    for gen, args, n, trivial, dims, defect in [
        (surface.annulus, (6, 2), 1, True, (1, 1), None),
        (surface.genus_k, (1, 1, 1), 3, False, (3, 3), 9),
    ]:
        k, h, f, _ = build(gen, args, n=n, trivial=trivial, seed=36)
        mc = hodge.metric_complex(k, h, f)
        dec = decomposition_oracle.hodge_decomposition(mc)
        rep = dec["report"]
        harm = hodge.harmonic_spaces(mc)
        assert (harm.dim_n, harm.dim_d) == dims
        # both harmonic flavors sit inside CcC exactly
        assert rep["refinement_report"]["H_N_in_CcC_residual"] < 1e-12
        assert rep["refinement_report"]["H_D_in_CcC_residual"] < 1e-12
        # the Neumann-side refinement holds exactly; the Dirichlet-side
        # identity genuinely fails at the discrete level and the report says so
        assert rep["refinement_report"]["split_neumann_ok"]
        assert rep["refinement_report"]["dirichlet_defect"] >= 0
        if defect is not None:
            assert rep["refinement_report"]["dirichlet_defect"] == defect


def test_galerkin_star_skew_always():
    k, h, f, _ = build(surface.genus_k, (1, 1, 1), n=3, trivial=False, seed=37)
    mc = hodge.metric_complex(k, h, f)
    m1 = mass_matrix(mc)
    jh = galerkin_star(m1, wedge_matrix(mc))
    assert np.abs(jh.T @ m1 + m1 @ jh).max() < 1e-10


def test_galerkin_star_flat_torus_maps_dx_to_dy():
    m = 8
    k, h, f, _ = build(surface.torus, (m,))
    mc = hodge.metric_complex(k, h, f)
    hx = hodge.harmonic_representative(mc, torus_grid_cochain(k, m, 1, 0))
    hy = hodge.harmonic_representative(mc, torus_grid_cochain(k, m, 0, 1))
    err = np.linalg.norm(hodge.galerkin_apply(mc, hx) - hy) / np.linalg.norm(hy)
    assert err < 0.05


def test_galerkin_square_improves_under_refinement():
    # the uniform flat grid is exact, so exercise convergence on a curved
    # embedding of the same combinatorial family
    vals = []
    for m in (4, 8):
        k, _, _ = surface.torus(m)
        h = doughnut_metric(k, m)
        f = localsys.trivial_system(k, 1)
        mc = hodge.metric_complex(k, h, f)
        vals.append(hodge.galerkin_diagnostics(mc)["jsq_on_ccc"])
    assert vals[1] < vals[0]


def test_galerkin_flat_torus_exact_on_harmonics():
    for m in (4, 8):
        k, h, f, _ = build(surface.torus, (m,))
        mc = hodge.metric_complex(k, h, f)
        diag = hodge.galerkin_diagnostics(mc)
        assert diag["jsq_on_ccc"] < 1e-9
        assert diag["p38_residual"] < 1e-9


def _complement_route(mc):
    """The former route, kept here as a reference: CcC as the M1-complement
    of [M1^-1 d1^T, d0[:, interior]], and the diagnostics through J_h^2 and
    the n_E x n_E projectors."""
    d0, d1 = twisted.coboundaries(mc.k, mc.f)
    vmask = twisted.cochain_space(mc.k, mc.f, 0, "relative")
    m1 = mass_matrix(mc)
    m1_inv = np.linalg.inv(m1)
    both = np.hstack([numlin.orthonormalize(m1_inv @ d1.T, m1.__matmul__),
                      numlin.orthonormalize(d0[:, vmask], m1.__matmul__)])
    ccc = numlin.orthonormalize(
        numlin.nullspace_basis(both.T @ m1, scale=float(np.abs(m1).max())),
        m1.__matmul__)
    jh = m1_inv @ wedge_matrix(mc).T
    harm = hodge.harmonic_spaces(mc)
    p_n = harm.h_n @ (harm.h_n.T @ m1)
    p_d = harm.h_d @ (harm.h_d.T @ m1)
    skew = ccc.T @ m1 @ (jh @ ccc)
    return ccc, {
        "skew_residual": float(np.abs(skew + skew.T).max()),
        "jsq_on_ccc": float(np.linalg.norm((jh @ jh + np.eye(jh.shape[0])) @ ccc, 2)),
        "angle_j_hn_vs_hd": compat.subspace_angle(jh @ harm.h_n, harm.h_d, m1.__matmul__),
        "p38_residual": float(np.linalg.norm((p_n @ jh - jh @ p_d) @ ccc, 2)),
    }


def _reference_cases():
    k, _, _ = surface.torus(8)
    yield pytest.param(k, doughnut_metric(k, 8), localsys.trivial_system(k, 1),
                       id="doughnut_torus8")
    rng = np.random.default_rng(70)
    for name, gen, args in [("genus11", surface.genus_k, (1, 1, 2)),
                            ("annulus", surface.annulus, (6, 2)),
                            ("pants", surface.genus_k, (0, 3, 2))]:
        k, h, loops = gen(*args)
        yield pytest.param(k, surface.perturbed_metric(k, h, rng, amplitude=0.2),
                           localsys.random_flat_system(k, loops, 3, rng),
                           id=f"{name}_perturbed_SO3")
    # the torus component is closed, so L0 restricted to the interior
    # vertices has the relative flat sections as its kernel
    k, h, f = _torus_and_annulus(3, True, 71)
    yield pytest.param(k, surface.perturbed_metric(k, h, rng, amplitude=0.2), f,
                       id="torus_annulus_R3")


def _kernel_route(mc):
    """The former route, kept here as a reference: H_N, H_D and CcC from the
    SVD kernel of d1, with rank cutoffs on their M1-pairings with d0."""
    d0, d1 = twisted.coboundaries(mc.k, mc.f)
    vmask, emask = (twisted.cochain_space(mc.k, mc.f, p, "relative") for p in (0, 1))
    m1 = mass_matrix(mc)
    scale = float(np.abs(m1).max())
    kernel = numlin.nullspace_basis(d1)
    pairing = d0.T @ (m1 @ kernel)
    c = numlin.nullspace_basis(pairing[vmask], scale=scale)
    ccc = numlin.orthonormalize(kernel @ c, m1.__matmul__)
    c_n = c @ numlin.nullspace_basis(pairing[~vmask] @ c, scale=scale)
    h_n = numlin.orthonormalize(kernel @ c_n, m1.__matmul__)
    m1_int = m1[np.ix_(emask, emask)]
    kernel_r = (kernel @ numlin.nullspace_basis(kernel[~emask], scale=1.0))[emask]
    coeffs_r = numlin.nullspace_basis(d0[np.ix_(emask, vmask)].T @ (m1_int @ kernel_r),
                                      scale=scale)
    h_d = np.zeros((m1.shape[0], coeffs_r.shape[1]))
    h_d[emask] = numlin.orthonormalize(kernel_r @ coeffs_r, m1_int.__matmul__)
    return h_n, h_d, ccc


@pytest.mark.parametrize("k,h,f", list(_reference_cases()))
def test_harmonic_spaces_match_the_kernel_route(k, h, f):
    mc = hodge.metric_complex(k, h, f)
    m1 = mass_matrix(mc)
    harm = hodge.harmonic_spaces(mc)
    for name, got, ref in zip(("H_N", "H_D", "CcC"), (harm.h_n, harm.h_d, harm.ccc),
                              _kernel_route(mc)):
        assert got.shape[1] == ref.shape[1] > 0, name
        assert np.abs(got.T @ m1 @ got - np.eye(got.shape[1])).max() < 1e-9, name
        assert compat.subspace_angle(got, ref, m1.__matmul__) < 1e-9, name


def test_harmonic_spaces_raise_when_ccc_misses_its_count(monkeypatch):
    k, h, f, _ = build(surface.annulus, (6, 2))
    mc = hodge.metric_complex(k, h, f)
    representative = hodge.harmonic_representative

    def drop_two_extensions(mc, u, h0=None):
        # the relative solve returns the relative classes, then the
        # extensions; these span one dimension less than their number, so
        # dropping one would leave the count intact
        out = representative(mc, u, h0)
        return out[:, :-2] if h0.flavor == "relative" else out

    monkeypatch.setattr(hodge, "harmonic_representative", drop_two_extensions)
    with pytest.raises(NoConvergence):
        hodge.harmonic_spaces(mc)


@pytest.mark.parametrize("k,h,f", list(_reference_cases()))
def test_ccc_and_diagnostics_match_the_complement_route(k, h, f):
    mc = hodge.metric_complex(k, h, f)
    m1 = mass_matrix(mc)
    ccc = hodge.harmonic_spaces(mc).ccc
    ref_ccc, ref = _complement_route(mc)
    assert ccc.shape[1] == ref_ccc.shape[1] > 0
    assert numlin.rank(np.hstack([ccc, ref_ccc])) == ccc.shape[1]
    assert np.abs(ccc.T @ m1 @ ccc - np.eye(ccc.shape[1])).max() < 1e-9
    diag = hodge.galerkin_diagnostics(mc)
    assert diag.keys() == ref.keys()
    for key in ref:
        assert abs(diag[key] - ref[key]) < 1e-12, (key, diag[key], ref[key])


@pytest.mark.parametrize("k,h,f", list(_reference_cases()))
def test_pcg_matches_the_dense_solve_with_m1(k, h, f):
    mc = hodge.metric_complex(k, h, f)
    m1 = mass_matrix(mc)
    b = np.random.default_rng(72).standard_normal((m1.shape[0], 3))
    x = numlin.pcg(functools.partial(hodge.m1_apply, mc), b,
                   lambda r: r / np.diag(m1)[:, None])
    want = np.linalg.solve(m1, b)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("k,h,f", list(_reference_cases()))
def test_galerkin_apply_matches_the_dense_galerkin_star(k, h, f):
    mc = hodge.metric_complex(k, h, f)
    jh = galerkin_star(mass_matrix(mc), wedge_matrix(mc))
    x = np.random.default_rng(73).standard_normal((jh.shape[0], 3))
    want = jh @ x
    got = hodge.galerkin_apply(mc, x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    one = hodge.galerkin_apply(mc, x[:, 0])
    assert one.shape == x[:, 0].shape
    assert np.linalg.norm(one - want[:, 0]) <= 1e-12 * np.linalg.norm(want[:, 0])
    assert hodge.galerkin_apply(mc, x[:, :0]).shape == x[:, :0].shape


def test_galerkin_diagnostics_skip_the_decomposition_and_large_factorizations(
        monkeypatch):
    # J_h is applied by PCG on M1 and the Gram matrices through m1_apply, so
    # the diagnostics form no dense n_E-sized matrix and stay within the star
    # path's bound in units of L0
    k, h, loops = surface.torus(16)
    f = localsys.random_flat_system(k, loops, 3, np.random.default_rng(74))

    def forbidden(*args):
        raise AssertionError("galerkin_diagnostics ran hodge_decomposition "
                             "or formed a dense n_E-sized matrix")

    large = []

    def counting(fn):
        def wrapped(a, *args, **kwargs):
            if max(np.shape(a)) >= 100:
                large.append((fn.__name__, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapped

    # the dense M1 is a test oracle, so src cannot form it
    assert not hasattr(hodge, "mass_matrix")
    for module, name in ((hodge, "hodge_decomposition"), (twisted, "coboundaries")):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(numlin, "_svd", counting(numlin._svd))
    monkeypatch.setattr(numlin, "sym_eig", counting(numlin.sym_eig))
    l0_bytes = (3 * k.n_vertices) ** 2 * 8
    tracemalloc.start()
    try:
        diag = hodge.galerkin_diagnostics(hodge.metric_complex(k, h, f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(diag.values()) < 1e-9  # the flat torus is exact
    assert not large, large
    assert peak < 3 * l0_bytes, peak / l0_bytes


def test_gauge_invariance_of_metric_complex():
    rng = np.random.default_rng(38)
    k, h, f, _ = build(surface.genus_k, (1, 1, 1), n=3, trivial=False, seed=39)
    gauges = [localsys.random_rotation(rng, 3) for _ in range(k.vertex_count)]
    f2 = localsys.gauge_transform(k, f, gauges)
    mc1 = hodge.metric_complex(k, h, f)
    mc2 = hodge.metric_complex(k, h, f2)
    a, b = (hodge.harmonic_spaces(mc) for mc in (mc1, mc2))
    assert (a.dim_n, a.dim_d) == (b.dim_n, b.dim_d)
    # M1 and W1 are conjugated by the block-orthogonal gauge on edge values
    # (which live at the low vertex), L0 by the gauge on vertex values
    n = 3
    blocks = np.zeros((n * k.n_edges, n * k.n_edges))
    for ei, (u, v) in enumerate(k.edges):
        blocks[n * ei:n * ei + n, n * ei:n * ei + n] = gauges[u]
    for dense in (mass_matrix, wedge_matrix):
        assert np.abs(blocks @ dense(mc1) @ blocks.T - dense(mc2)).max() < 1e-9
    vblocks = np.zeros_like(mc1.l0)
    for v in range(k.vertex_count):
        vblocks[n * v:n * v + n, n * v:n * v + n] = gauges[v]
    assert np.abs(vblocks @ mc1.l0 @ vblocks.T - mc2.l0).max() < 1e-9
