import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parhodge import compat, hodge, localsys, numlin, parastar, surface, twisted
from parhodge.errors import ConditionFailed

from conftest import torus_grid_cochain, union_with_metric_and_system


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
    m_u = basis.T @ mc.m1 @ basis
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
    out = parastar.disconnected_split(ku, hu, fu)
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
    out = parastar.disconnected_split(ku, hu, fu)
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
    out = parastar.disconnected_split(ku, hu, fu)
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
    out = parastar.determinism_check(k, h, f, rng)
    assert out["identity_bit_identical"]
    assert out["relabel_span_residual"] < 1e-9
    assert out["relabel_conjugation_residual"] < 1e-9
    assert out["orientation_omega_flip_residual"] < 1e-12
    assert out["orientation_j_flip_residual"] < 1e-12
    assert np.abs(np.sort(out["eigenvalues"].imag) - np.array([-1, 1])).max() < 1e-9


def test_determinism_check_closed_torus():
    k, h, _ = surface.torus(4)
    f = localsys.trivial_system(k, 1)
    out = parastar.determinism_check(k, h, f, np.random.default_rng(46))
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
        res = compat.compatible_complex_structure(harm.T @ mc.m1 @ harm, omega)
        errors.append(np.abs(res.j - np.array([[0.0, -1.0], [1.0, 0.0]])).max())
    assert errors[0] < 0.05
    assert errors[1] < errors[0]


def test_star_runs_no_large_svd_and_few_coboundary_builds(monkeypatch):
    rng = np.random.default_rng(64)
    k, h, loops = surface.torus(12)
    f = localsys.random_flat_system(k, loops, 3, rng)
    svd_shapes, builds = [], []
    svd, cob = numlin._svd, twisted.coboundaries

    def counting_svd(a, *args, **kwargs):
        svd_shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    def counting_coboundaries(*args):
        builds.append(1)
        return cob(*args)

    monkeypatch.setattr(numlin, "_svd", counting_svd)
    monkeypatch.setattr(twisted, "coboundaries", counting_coboundaries)
    rep = parastar.parabolic_star(k, h, f)
    assert rep.theorem_residuals_ok()
    assert svd_shapes and max(min(s) for s in svd_shapes) <= 100, svd_shapes
    assert len(builds) <= 3


def test_star_command_imports_no_scipy():
    code = ("import contextlib, io, sys\n"
            "from parhodge import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['star', '--example', 'genus11', '--m', '3',"
            " '--fiber', '3'])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(parastar.__file__).parents[1]), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.split() == ["0", "[]"], out.stdout + out.stderr
