import ast
import functools
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from parhodge import cli, compat, hodge, localsys, moduli, numlin, parastar, surface, twisted
from parhodge.errors import ConditionFailed

from conftest import mass_matrix, torus_grid_cochain, union_with_metric_and_system
from naturality import determinism_check, disconnected_split
from test_twisted import _pants_about_one_axis


def test_closed_torus_matches_analytic_star():
    m = 8
    k, h, _ = surface.torus(m)
    f = localsys.trivial_system(k, 1)
    rep = parastar.parabolic_star(k, h, f)
    assert rep.dim_h1_par == 2
    assert rep.theorem_residuals_ok()
    # express the operator in the explicit meridian/longitude class basis
    mc = hodge.metric_complex(k, h, f)
    basis = np.column_stack([
        hodge.harmonic_representative(mc, torus_grid_cochain(k, m, 1, 0)),
        hodge.harmonic_representative(mc, torus_grid_cochain(k, m, 0, 1)),
    ])
    m_u = basis.T @ mass_matrix(mc) @ basis
    omega = twisted.parabolic_pairing(k, f, basis)
    res = compat.compatible_complex_structure(m_u, omega)
    assert np.abs(res.j - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 0.05


def test_empty_parabolic_reports_are_valid():
    for gen, args in [(surface.annulus, (6, 2)), (surface.disk, (4,))]:
        k, h, _ = gen(*args)
        rep = parastar.parabolic_star(k, h, localsys.trivial_system(k, 1))
        assert rep.dim_h1_par == 0
        assert rep.j_par.shape == (0, 0)
        assert rep.theorem_residuals_ok()
        d = rep.to_dict()
        assert d["J_par"] == [] and d["residuals"]["taming_min_eigenvalue"] is None


def test_theorem_invariants_random_systems():
    rng = np.random.default_rng(40)
    k, h, loops = surface.genus_k(1, 1, 1)
    for _ in range(10):
        f = localsys.random_flat_system(k, loops, 3, rng)
        rep = parastar.parabolic_star(k, h, f)
        assert rep.dim_h1_par == 2
        assert rep.residuals["jpar_sq"] < 1e-9
        assert rep.residuals["omega_invariance"] < 1e-9
        assert rep.residuals["taming_min_eigenvalue"] > 0
        assert rep.residuals["omega_rep_independence"] < 1e-9
        eigs = np.sort_complex(np.linalg.eigvals(rep.j_par))
        assert np.abs(eigs - np.array([-1j, 1j])).max() < 1e-9


def test_trivial_r3_on_one_holed_torus():
    k, h, _ = surface.genus_k(1, 1, 1)
    f = localsys.trivial_system(k, 3)
    rep = parastar.parabolic_star(k, h, f)
    assert rep.dim_h1_par == 6  # three copies of the scalar case
    assert rep.theorem_residuals_ok()
    # eigenvalues +-i with equal multiplicities
    eigs = np.sort(np.linalg.eigvals(rep.j_par).imag)
    assert np.abs(eigs - np.array([-1.0] * 3 + [1.0] * 3)).max() < 1e-9


def test_metric_perturbation_keeps_omega_changes_j():
    rng = np.random.default_rng(41)
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    rep1 = parastar.parabolic_star(k, h, f)
    h2 = surface.perturbed_metric(k, h, rng)
    rep2 = parastar.parabolic_star(k, h2, f)
    assert np.array_equal(rep1.omega_u, rep2.omega_u)  # bit-exact: metric-free
    assert rep1.theorem_residuals_ok() and rep2.theorem_residuals_ok()
    assert np.abs(rep1.m_u - rep2.m_u).max() > 1e-6  # the metric moved


def test_scale_invariance_of_j_par():
    rng = np.random.default_rng(42)
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    rep1 = parastar.parabolic_star(k, h, f)
    h2 = surface.metric_from_lengths(k, 3.0 * h.lengths)
    rep2 = parastar.parabolic_star(k, h2, f)
    assert np.abs(rep1.j_par - rep2.j_par).max() < 1e-9


def test_condition_failed_on_degenerate_omega():
    with pytest.raises(ConditionFailed):
        compat.compatible_complex_structure(np.eye(2), np.zeros((2, 2)))


def test_disconnected_split_two_tori():
    k, h, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    ku, hu, fu = union_with_metric_and_system(k, h, f, k, h, f)
    out = disconnected_split(ku, hu, fu)
    assert out["union"].dim_h1_par == 4
    assert [p.dim_h1_par for p in out["components"]] == [2, 2]
    assert out["basis_residual"] < 1e-9
    assert out["direct_sum_residual"] < 1e-9
    # identical pieces give identical blocks
    j1, j2 = (p.j_par for p in out["components"])
    assert np.abs(j1 - j2).max() < 1e-12


def test_disconnected_split_torus_with_annulus():
    k1, h1, _ = surface.torus(4)
    k2, h2, _ = surface.annulus(6, 2)
    f1 = localsys.trivial_system(k1, 1)
    f2 = localsys.trivial_system(k2, 1)
    ku, hu, fu = union_with_metric_and_system(k1, h1, f1, k2, h2, f2)
    out = disconnected_split(ku, hu, fu)
    assert out["union"].dim_h1_par == 2
    assert sorted(p.dim_h1_par for p in out["components"]) == [0, 2]
    assert out["direct_sum_residual"] < 1e-9
    # the union report carries the per-component split
    rep = parastar.parabolic_star(ku, hu, fu)
    assert rep.component_split is not None and len(rep.component_split) == 2


def test_disconnected_split_two_metrics():
    rng = np.random.default_rng(43)
    k, h, _ = surface.torus(4)
    h2 = surface.perturbed_metric(k, h, rng)
    f = localsys.trivial_system(k, 1)
    ku, hu, fu = union_with_metric_and_system(k, h, f, k, h2, f)
    out = disconnected_split(ku, hu, fu)
    for p in out["components"]:
        assert p.theorem_residuals_ok()
    assert out["direct_sum_residual"] < 1e-9


def test_ambient_route_exact_facts():
    rng = np.random.default_rng(44)
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    out = parastar.ambient_route_diagnostic(k, h, f)
    assert out["kernel_check"] and out["rank_equal"]
    assert out["lemma34_trivial_intersection"]
    assert out["span_agrees_with_parabolic"]
    assert out["span_angle"] < 1e-8


def test_ambient_route_closed_torus_collapse():
    k, h, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    out = parastar.ambient_route_diagnostic(k, h, f)
    assert out["kernel_check"] and out["rank_equal"]
    assert out["span_angle"] < 1e-8
    # closed flat torus: approximate-route residuals at the exact level
    assert out["p38_residual"] < 1e-9
    assert out["angle_j_u_vs_t"] < 1e-7


def test_ambient_route_vacuous_on_annulus():
    k, h, _ = surface.annulus(6, 2)
    f = localsys.trivial_system(k, 1)
    out = parastar.ambient_route_diagnostic(k, h, f)
    assert out["kernel_check"] and out["rank_equal"]
    assert out["lemma34_trivial_intersection"]
    assert out["span_agrees_with_parabolic"]


def test_determinism_and_naturality():
    rng = np.random.default_rng(45)
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    out = determinism_check(k, h, f, rng)
    assert out["identity_bit_identical"]
    assert out["relabel_span_residual"] < 1e-9
    assert out["relabel_conjugation_residual"] < 1e-9
    assert out["orientation_omega_flip_residual"] < 1e-12
    assert out["orientation_j_flip_residual"] < 1e-12
    assert np.abs(np.sort(out["eigenvalues"].imag) - np.array([-1, 1])).max() < 1e-9


def test_determinism_check_closed_torus():
    k, h, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    out = determinism_check(k, h, f, np.random.default_rng(46))
    assert out["identity_bit_identical"]
    assert out["relabel_conjugation_residual"] < 1e-9
    assert out["orientation_j_flip_residual"] < 1e-12


def test_report_serialization_fields():
    k, h, _ = surface.torus(4)
    rep = parastar.parabolic_star(k, h, localsys.trivial_system(k, 1))
    d = rep.to_dict()
    for field in ("inputs", "dim_H1", "dim_H1_rel", "dim_H1_par", "U_basis",
                  "M_U", "Omega_U", "G", "R", "J_par", "residuals",
                  "component_split"):
        assert field in d
    for res in ("jpar_sq", "omega_invariance", "taming_min_eigenvalue",
                "condition_sigma_min"):
        assert res in d["residuals"]


def test_star_runs_no_galerkin_diagnostics(monkeypatch):
    # the construction never needs the Galerkin star; a report that called
    # the diagnostics would raise here
    def forbidden(mc):
        raise AssertionError("parabolic_star ran the Galerkin diagnostics")

    monkeypatch.setattr(hodge, "galerkin_diagnostics", forbidden)
    rng = np.random.default_rng(49)
    k_t, h_t, _ = surface.torus(4)
    k_g, h_g, loops = surface.genus_k(1, 1, 1)
    k_a, h_a, _ = surface.annulus(6, 2)
    cases = [
        (k_t, h_t, localsys.trivial_system(k_t, 1), 2),
        (k_g, h_g, localsys.random_flat_system(k_g, loops, 3, rng), 2),
        (k_a, h_a, localsys.trivial_system(k_a, 1), 0),
    ]
    for k, h, f, dim in cases:
        rep = parastar.parabolic_star(k, h, f)
        assert rep.dim_h1_par == dim and rep.theorem_residuals_ok()
        assert "p38_residual" not in rep.to_dict()["residuals"]


def test_star_and_moduli_form_no_edge_sized_matrix(monkeypatch):
    # M1 is applied per triangle and d0 edgewise: the dense M1 and the
    # coboundary matrices are test oracles
    def forbidden(*args):
        raise AssertionError("the star path formed a dense n_E-sized matrix")

    assert not hasattr(hodge, "mass_matrix")
    monkeypatch.setattr(twisted, "coboundaries", forbidden)
    rng = np.random.default_rng(67)
    for k, h, loops in (surface.genus_k(1, 1, 1), surface.genus_k(0, 4, 1)):
        f = localsys.random_flat_system(k, loops, 3, rng)
        assert parastar.parabolic_star(k, h, f).theorem_residuals_ok()
    for g, kk, angles in ((1, 1, [3.0]), (0, 4, [2.0, 2.5, 3.0, 3.5])):
        acs = moduli.moduli_acs(moduli.sample_point(g, kk, angles, seed=7))
        assert acs["dim_H1_par"] == 6 * g - 6 + 2 * kk

    # L0 is solved level by level, so a report forms no matrix of its size:
    # an n_E x n_V or n_E x n_E matrix, or the dense n n_V square L0 itself,
    # would break a bound of 1.5 times the bytes of that L0
    k, h, loops = surface.torus(16)
    f = localsys.random_flat_system(k, loops, 3, rng)
    l0_bytes = (3 * k.vertex_count) ** 2 * 8
    tracemalloc.start()
    try:
        rep = parastar.parabolic_star(k, h, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.theorem_residuals_ok()
    assert peak < 1.5 * l0_bytes, peak / l0_bytes


@pytest.mark.parametrize("mesh", [(surface.torus, (16,)), (surface.genus_k, (1, 1, 5))],
                         ids=["torus16", "genus11_5"])
def test_verify_case_forms_no_edge_sized_matrix(monkeypatch, mesh):
    # H^2 comes from the dual walk and the decomposition from exact counts
    # and applies, so one verify case stays within the star path's matrices
    def forbidden(*args):
        raise AssertionError("verify formed the dense coboundary matrices")

    large = []

    def counting(fn):
        def wrapped(a, *args, **kwargs):
            if min(np.shape(a)) >= 100:
                large.append((fn.__name__, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(twisted, "coboundaries", forbidden)
    monkeypatch.setattr(numlin, "_svd", counting(numlin._svd))
    monkeypatch.setattr(numlin, "sym_eig", counting(numlin.sym_eig))
    gen, args = mesh
    k, h, loops = gen(*args)
    rng = np.random.default_rng(69)
    f = localsys.random_flat_system(k, loops, 3, rng)
    l0_bytes = (3 * k.vertex_count) ** 2 * 8
    tracemalloc.start()
    try:
        case = cli._verify_case(k, h, f, numlin.DEFAULT_TOL, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert case["ok"], case
    assert not large, large
    assert peak < 1.5 * l0_bytes, peak / l0_bytes


def test_ambient_route_forms_each_dense_piece_once(monkeypatch):
    rng = np.random.default_rng(68)
    k, h, loops = surface.genus_k(1, 1, 4)
    f = localsys.random_flat_system(k, loops, 3, rng)
    # J_h is applied by PCG and M1 per triangle, so the dense W1, J_h and M1
    # are test oracles
    for name in ("wedge_matrix", "galerkin_star", "mass_matrix"):
        assert not hasattr(hodge, name), name
    counts = {"harmonic_spaces": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(hodge, name, counting(name, getattr(hodge, name)))
    m1_bytes = (3 * k.n_edges) ** 2 * 8
    tracemalloc.start()
    try:
        out = parastar.ambient_route_diagnostic(k, h, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(counts.values()) == {1}, counts
    assert set(out) == {"kernel_check", "rank_equal", "lemma34_trivial_intersection",
                        "span_agrees_with_parabolic", "span_angle", "p38_residual",
                        "angle_j_u_vs_t", "jsq_on_ccc"}
    assert out["kernel_check"] and out["span_agrees_with_parabolic"]
    # mc keeps L0 alive throughout, so a dense M1 would lift the peak past
    # its own bytes; the route peaks near 4 L0, about half a dense M1 here
    assert peak < m1_bytes, peak / m1_bytes


def test_gauge_naturality_full_pipeline():
    rng = np.random.default_rng(47)
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng, gauge=False)
    gauges = [localsys.random_rotation(rng, 3) for _ in range(k.vertex_count)]
    f2 = localsys.gauge_transform(k, f, gauges)
    rep1 = parastar.parabolic_star(k, h, f)
    rep2 = parastar.parabolic_star(k, h, f2)
    assert rep1.dim_h1_par == rep2.dim_h1_par
    assert rep1.theorem_residuals_ok() and rep2.theorem_residuals_ok()
    eig1 = np.sort(np.linalg.eigvals(rep1.j_par).imag)
    eig2 = np.sort(np.linalg.eigvals(rep2.j_par).imag)
    assert np.abs(eig1 - eig2).max() < 1e-9


def test_five_holed_sphere_multi_cut_words():
    # exercises several hole cuts at once: generic systems have a
    # 4-dimensional parabolic space with everything compatible
    rng = np.random.default_rng(48)
    k, h, loops = surface.genus_k(0, 5, 1)
    assert k.euler_characteristic == -3
    assert len(k.boundary_components) == 5
    f = localsys.random_flat_system(k, loops, 3, rng)
    rep = parastar.parabolic_star(k, h, f)
    assert rep.dim_h1_par == 4
    assert rep.theorem_residuals_ok()
    eigs = np.sort(np.linalg.eigvals(rep.j_par).imag)
    assert np.abs(eigs - np.array([-1.0, -1.0, 1.0, 1.0])).max() < 1e-9


def test_sign_system_on_closed_torus_empty_report():
    # a nontrivial character kills all twisted cohomology: the closed-case
    # zero-dimensional path must also produce a valid report
    k, h, loops = surface.torus(4)
    f = localsys.from_representation(
        k, loops, {"a1": np.array([[-1.0]]), "b1": np.array([[-1.0]])})
    assert twisted.euler_characteristic_dims(k, f) == [0, 0, 0]
    rep = parastar.parabolic_star(k, h, f)
    assert rep.dim_h1_par == 0 and rep.theorem_residuals_ok()


def test_reflection_valued_system_is_accepted():
    # the structure group is the full orthogonal group, not just rotations
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    k, h, loops = surface.annulus(5, 1)
    f = localsys.from_representation(k, loops, {"c1": refl, "c2": refl.T})
    assert f.flat_residual == 0.0
    rep = parastar.parabolic_star(k, h, f)
    assert rep.theorem_residuals_ok()


def test_holed_torus_intersection_number_and_convergence():
    """The class pairing of the two handle classes is the topological
    intersection number (exactly 1), and as the removed triangle shrinks
    under refinement the operator converges to the closed-torus star."""
    errors = []
    for subdiv in (1, 2):
        m = 3 * subdiv
        k, h, _ = surface.genus_k(1, 1, subdiv)
        f = localsys.trivial_system(k, 1)
        u_dx = torus_grid_cochain(k, m, 1, 0)
        u_dy = torus_grid_cochain(k, m, 0, 1)
        basis = np.column_stack([u_dx, u_dy])
        omega = twisted.parabolic_pairing(k, f, basis)
        assert abs(omega[0, 1] - 1.0) < 1e-12  # intersection number oracle
        mc = hodge.metric_complex(k, h, f)
        harm = np.column_stack([
            hodge.harmonic_representative(mc, u_dx),
            hodge.harmonic_representative(mc, u_dy),
        ])
        res = compat.compatible_complex_structure(
            harm.T @ mass_matrix(mc) @ harm, omega)
        errors.append(np.abs(res.j - np.array([[0.0, -1.0], [1.0, 0.0]])).max())
    assert errors[0] < 0.05
    assert errors[1] < errors[0]


def test_star_runs_no_large_svd_and_few_coboundary_builds(monkeypatch):
    rng = np.random.default_rng(64)
    k, h, loops = surface.torus(12)
    f = localsys.random_flat_system(k, loops, 3, rng)
    svd_shapes, eig_shapes, builds, twisted_solves = [], [], [], []
    svd, eig, cob = numlin._svd, numlin.sym_eig, twisted.coboundaries
    solve, lstsq = np.linalg.solve, np.linalg.lstsq

    def counting_svd(a, *args, **kwargs):
        svd_shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    def counting_eig(a, *args, **kwargs):
        eig_shapes.append(np.shape(a))
        return eig(a, *args, **kwargs)

    def counting_coboundaries(*args):
        builds.append(1)
        return cob(*args)

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == twisted.__name__:
                twisted_solves.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(numlin, "_svd", counting_svd)
    monkeypatch.setattr(numlin, "sym_eig", counting_eig)
    monkeypatch.setattr(twisted, "coboundaries", counting_coboundaries)
    monkeypatch.setattr(np.linalg, "solve", recording(solve))
    monkeypatch.setattr(np.linalg, "lstsq", recording(lstsq))
    rep = parastar.parabolic_star(k, h, f)
    assert rep.theorem_residuals_ok()
    assert svd_shapes and max(min(s) for s in svd_shapes) <= 100, svd_shapes
    assert eig_shapes and max(max(s) for s in eig_shapes) <= 100, eig_shapes
    assert not builds
    assert max(max(s) for s in twisted_solves + [(0,)]) <= 100, twisted_solves


def test_assembly_reads_edge_ids_from_the_triangle_edge_table(monkeypatch):
    rng = np.random.default_rng(65)
    k, h, loops = surface.torus(12)
    f = localsys.random_flat_system(k, loops, 3, rng)
    lookups = []
    edge_ids = surface.edge_ids

    def counting_edge_ids(k, u, v):
        lookups.append((u, v))
        return edge_ids(k, u, v)

    # localsys imports the function by name
    for module in (surface, localsys):
        monkeypatch.setattr(module, "edge_ids", counting_edge_ids)
    hodge.metric_complex(k, h, f)
    twisted.coboundaries(k, f)
    assert not lookups
    # the counter sees a lookup where there is one
    f.path_transport(k, loops.path("a1"))
    assert len(lookups) == 1
    # on a warm mesh, compiling images reads the generator loops' steps and
    # the star and the monodromies read the boundary cycles, all stored
    # with the mesh: no search
    kb, hb, lb = surface.genus_k(0, 4, 1)
    images = localsys.random_images(lb, 3, rng)
    lookups.clear()
    fb = localsys.from_representation(kb, lb, images)
    parastar.parabolic_star(kb, hb, fb)
    localsys.boundary_monodromies(kb, fb)
    assert not lookups


def test_a_mesh_hashes_its_triangle_list_once(monkeypatch):
    k, h, loops = surface.genus_k(0, 4, 1)
    f = localsys.random_flat_system(k, loops, 3, np.random.default_rng(66))
    mesh = repr((k.vertex_count, tuple(map(tuple, k.tri_vertices.tolist())))).encode()
    mesh_id = hashlib.sha256(mesh).hexdigest()[:16]
    assert parastar.parabolic_star(k, h, f).inputs["mesh_id"] == mesh_id
    hashed = []
    sha256 = hashlib.sha256

    def recording(data):
        hashed.append(data)
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", recording)
    # a second report on the same mesh hashes its metric and its system only
    assert parastar.parabolic_star(k, h, f).inputs["mesh_id"] == mesh_id
    assert len(hashed) == 2 and mesh not in hashed


def test_star_command_imports_no_scipy():
    # the level solve factors and sweeps with numpy alone, on the star,
    # verify and moduli paths, and the Galerkin diagnostics of the
    # refinement table solve by PCG: importing scipy.linalg would cost
    # more than a benchmarked command's set-up
    code = ("import contextlib, io, sys\n"
            "from parhodge import cli\n"
            "codes = []\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(argv.split()))\n"
            "print(*codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(parastar.__file__).parents[1]), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code,
                          "star --example genus11 --m 3 --fiber 3",
                          "verify --example genus11 --m 3",
                          "moduli --sample 1 1 --angles 3.0",
                          "verify --example torus --refine 4,6"],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["0", "0", "0", "0", "[]"], out.stdout + out.stderr


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_of_the_package_imports_scipy():
    # every command, not only the ones run above, and every path, taken
    # or not: the package's only dependency is numpy
    sources = sorted(Path(parastar.__file__).parent.glob("*.py"))
    assert Path(parastar.__file__) in sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [m.split(".")[0] for m in _imported_modules(tree)]
        assert "scipy" not in imported, path.name
    found = list(_imported_modules(ast.parse("import os, scipy.linalg as sl\n"
                                             "from scipy import sparse\n")))
    assert [m.split(".")[0] == "scipy" for m in found] == [False, True, True]


_SVD_BASED = {"svd", "matrix_rank", "pinv", "lstsq", "cond"}


def _svd_order(node):
    """A `norm` order that takes an SVD, or that may: one that is not a
    literal cannot be ruled out."""
    try:
        return ast.literal_eval(node) in (2, -2, "nuc")
    except ValueError:
        return True


def _svd_based_calls(tree):
    """The names of the SVD-based `numpy.linalg` functions that `tree`
    calls as `<...>.linalg.<name>` or `linalg.<name>`: the ones above, and
    `norm` of order 2, -2 or "nuc"."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if getattr(owner, "attr", getattr(owner, "id", None)) != "linalg":
            continue
        order = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
        if node.func.attr in _SVD_BASED or (node.func.attr == "norm" and order
                                            and _svd_order(order[0])):
            yield node.func.attr


def _boundary_counts(monkeypatch):
    """Count the boundary records built and the boundary walks taken."""
    counts = dict.fromkeys(("boundary_record", "_boundary_walk"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in counts:
        monkeypatch.setattr(twisted, name, counting(name, getattr(twisted, name)))
    return counts


@pytest.mark.parametrize("case", ["pants-axis", "pants", "genus11", "moduli-0-4"])
def test_a_system_builds_one_boundary_record_and_walks_at_most_twice(monkeypatch, case):
    # the restriction walks once, and the star's pairing of its class and
    # harmonic representatives once more, both with the one record; a
    # generic pants system has no parabolic classes, hence no pairing
    counts = _boundary_counts(monkeypatch)
    if case == "moduli-0-4":
        point = moduli.sample_point(0, 4, [2.0, 2.5, 3.0, 3.5], seed=2)
        assert moduli.moduli_acs(point)["dim_H1_par"] == 2
        assert counts == {"boundary_record": 1, "_boundary_walk": 2}
        assert moduli.tangent_space(point)["omega_rank"] == 2
        assert counts == {"boundary_record": 2, "_boundary_walk": 4}
        return
    if case == "pants-axis":
        k, h, f = _pants_about_one_axis()
    else:
        k, h, loops = cli._EXAMPLES[case](6)
        f = localsys.random_flat_system(k, loops, 3, np.random.default_rng(89))
    dim = parastar.parabolic_star(k, h, f).dim_h1_par
    assert dim == (0 if case == "pants" else 2)
    assert counts == {"boundary_record": 1, "_boundary_walk": 2 if dim else 1}


def test_no_module_but_numlin_takes_an_svd():
    # numlin owns every SVD, through `numlin._svd`, which retries on a QR
    # factor and raises NoConvergence, and every rank decision made from one
    sources = sorted(Path(parastar.__file__).parent.glob("*.py"))
    assert Path(numlin.__file__) in sources
    for path in sources:
        if path != Path(numlin.__file__):
            calls = list(_svd_based_calls(ast.parse(path.read_text(), filename=str(path))))
            assert not calls, (path.name, calls)
    found = _svd_based_calls(ast.parse(
        "np.linalg.svd(a)\nnumpy.linalg.pinv(a)\nlinalg.lstsq(a, b)\n"
        "np.linalg.matrix_rank(a)\nnp.linalg.cond(a)\nnp.linalg.norm(a, 2)\n"
        "np.linalg.norm(a, ord=-2)\nnp.linalg.norm(a, 'nuc')\nnp.linalg.norm(a, p)\n"
        "np.linalg.norm(a)\nnp.linalg.norm(a, axis=0)\nnp.linalg.norm(a, 'fro')\n"
        "np.linalg.qr(a)\nnp.linalg.cholesky(a)\nnumlin.svd_rank(a, tol, 1.0)\n"))
    assert list(found) == ["svd", "pinv", "lstsq", "matrix_rank", "cond"] + ["norm"] * 4


@pytest.mark.parametrize("mesh", [(surface.torus, (48,)), (surface.genus_k, (1, 1, 16))],
                         ids=["torus48", "genus11_16"])
def test_star_report_holds_on_the_largest_meshes(mesh):
    # 1-cochain dimension 20 736 at fiber 3: the meshes where the dense L0
    # solve took 7 s and 0.8 to 1.2 GiB
    gen, args = mesh
    k, h, loops = gen(*args)
    f = localsys.random_flat_system(k, loops, 3, np.random.default_rng(93))
    rep = parastar.parabolic_star(k, h, f)
    res = rep.residuals
    assert rep.dim_h1_par == 2
    assert max(res[key] for key in ("jpar_sq", "omega_invariance", "metric_isometry",
                                    "omega_rep_independence")) <= 1e-9, res
    assert res["taming_min_eigenvalue"] > 0
    assert res["parabolic_exactness"] == 1.0


def _angle_j_u_vs_t_by_a_second_operator(k, h, f):
    """`angle_j_u_vs_t` as `ambient_route_diagnostic` took it before it
    read J_h U off J_h H_N: through a second J_h, applied to U itself."""
    rp = twisted.restriction_and_parabolic(k, f)
    mc = hodge.metric_complex(k, h, f)
    harm = hodge.harmonic_spaces(mc, (rp["h1"], rp["h1_rel"]))
    m1 = functools.partial(hodge.m1_apply, mc)
    out = compat.subspace_transfer(m1, harm.h_n, harm.h_d)
    return compat.subspace_angle(hodge.galerkin_operator(mc)(out["U_basis"]),
                                 out["T_basis"], m1)


def _ambient_case(label):
    name, system = label.split("/")
    k, h, loops = surface.genus_k(1, 1, 2) if name == "genus11" else cli._EXAMPLES[name](6)
    f = localsys.trivial_system(k, 1) if system == "R" \
        else localsys.random_flat_system(k, loops, 3, np.random.default_rng(46))
    return k, h, f


# U and T are empty on pants, where only the build count says anything
@pytest.mark.parametrize("label", ["genus11/SO3", "genus11/R", "pants/R", "pants/SO3"])
def test_ambient_route_builds_j_h_once_and_reads_j_u_off_j_hn(label, monkeypatch):
    k, h, f = _ambient_case(label)
    builds = []
    galerkin_operator = hodge.galerkin_operator

    def counting(mc):
        builds.append(mc)
        return galerkin_operator(mc)

    monkeypatch.setattr(hodge, "galerkin_operator", counting)
    out = parastar.ambient_route_diagnostic(k, h, f)
    assert len(builds) == 1, label
    monkeypatch.setattr(hodge, "galerkin_operator", galerkin_operator)
    want = _angle_j_u_vs_t_by_a_second_operator(k, h, f)
    assert abs(out["angle_j_u_vs_t"] - want) <= 1e-12, (label, out["angle_j_u_vs_t"], want)
