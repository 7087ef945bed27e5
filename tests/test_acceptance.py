"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest

from parhodge import cli, compat, hodge, localsys, moduli, numlin, parastar, \
    surface, twisted

from conftest import mass_matrix, torus_grid_cochain, wedge_matrix
from naturality import determinism_check


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


# -- criterion 1 -----------------------------------------------------------

def test_criterion_1_golden_family():
    """G, G^2, R and J_U reproduce the golden two-plane family entrywise to
    1e-12 for r in {0, 1/2, 1, 2, 10}; runtime < 1 s."""
    start = time.time()
    j_amb = np.array([
        [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0],
    ])
    space = compat.AmbientSpace(q=np.eye(4), j=j_amb)
    worst = 0.0
    for r in (0.0, 0.5, 1.0, 2.0, 10.0):
        s = 1.0 + r * r
        u1 = np.array([1.0, 0.0, 0.0, 0.0])
        u2 = np.array([0.0, 1.0, r, 0.0])
        sub = compat.Subspace(np.column_stack([u1, u2]))
        m, omega = compat.gram_and_omega(space, sub)
        res = compat.compatible_complex_structure(m, omega)
        checks = [
            np.abs(res.g - np.array([[0.0, -1.0], [1.0 / s, 0.0]])).max(),
            np.abs(res.g @ res.g + np.eye(2) / s).max(),
            np.abs(res.r - np.eye(2) / np.sqrt(s)).max(),
            np.abs(res.j - np.array([[0.0, -np.sqrt(s)],
                                     [1.0 / np.sqrt(s), 0.0]])).max(),
        ]
        worst = max(worst, *checks)
        assert max(checks) < 1e-12, (r, checks)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"golden family entrywise to {worst:.2e} in {elapsed:.3f}s")


# -- criterion 2 -----------------------------------------------------------

def test_criterion_2_compatibility_property_suite():
    """200 random (V, J, U) instances, ambient dim <= 40, dim U <= 12: the
    four conclusions hold with residuals < 1e-9 and positive taming;
    runtime < 30 s."""
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    min_taming = np.inf
    for _ in range(200):
        dim = 2 * int(rng.integers(2, 21))       # 4..40
        sub_dim = 2 * int(rng.integers(1, min(dim // 2, 6) + 1))  # 2..12
        space, sub = compat.random_instance(rng, dim, sub_dim)
        m, omega = compat.gram_and_omega(space, sub)
        res = compat.compatible_complex_structure(m, omega)
        r = res.residuals
        worst = max(worst, r["jsq"], r["isometry"], r["omega_invariance"])
        min_taming = min(min_taming, r["taming_min_eigenvalue"])
        assert r["jsq"] < 1e-9
        assert r["isometry"] < 1e-9
        assert r["omega_invariance"] < 1e-9
        assert r["taming_min_eigenvalue"] > 0.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, f"200 instances, worst residual {worst:.2e}, "
               f"min taming {min_taming:.2e}, {elapsed:.2f}s")


# -- criteria 3, 4, 5 share the builtin sweep ------------------------------

def _builtin_cases():
    rng = np.random.default_rng(99)
    surfaces = [
        ("torus(4)", *surface.torus(4)),
        ("torus(8)", *surface.torus(8)),
        ("annulus(6,2)", *surface.annulus(6, 2)),
        ("disk(4)", *surface.disk(4)),
        ("genus_k(1,1,1)", *surface.genus_k(1, 1, 1)),
    ]
    for name, k, h, loops in surfaces:
        yield name + "/trivial_R", k, h, loops, localsys.trivial_system(k, 1)
        yield name + "/trivial_R3", k, h, loops, localsys.trivial_system(k, 3)
        for i in range(20):
            f = localsys.random_flat_system(k, loops, 3, rng)
            yield f"{name}/SO3#{i}", k, h, loops, f


@pytest.fixture(scope="module")
def builtin_sweep():
    cases = []
    start = time.time()
    for label, k, h, loops, f in _builtin_cases():
        rep = parastar.parabolic_star(k, h, f)
        cases.append((label, k, h, loops, f, rep))
    return cases, time.time() - start


def test_criterion_3_theorem_suite(builtin_sweep):
    """All three compatibility residuals < 1e-9 whenever the parabolic
    dimension is positive, valid zero-dimensional reports otherwise, over
    the full builtin x system sweep; runtime < 5 min."""
    cases, elapsed = builtin_sweep
    assert len(cases) == 5 * 22
    nonzero = 0
    worst = 0.0
    for label, k, h, loops, f, rep in cases:
        assert rep.theorem_residuals_ok(), label
        if rep.dim_h1_par > 0:
            nonzero += 1
            worst = max(worst, rep.residuals["jpar_sq"],
                        rep.residuals["omega_invariance"])
            assert rep.residuals["taming_min_eigenvalue"] > 0.0, label
        else:
            assert rep.j_par.shape == (0, 0), label
        if label.startswith(("annulus", "disk")):
            assert rep.dim_h1_par == 0, label
    assert elapsed < 300.0
    _report(3, f"{len(cases)} cases ({nonzero} with positive dimension), "
               f"worst residual {worst:.2e}, sweep built in {elapsed:.1f}s")


def test_criterion_4_topology_cross_checks(builtin_sweep):
    """Euler characteristic identity, even parabolic dimension, kernel =
    image agreement, and bit-exact metric independence of the pairing."""
    cases, _ = builtin_sweep
    rng = np.random.default_rng(7)
    for label, k, h, loops, f, rep in cases:
        n = f.fiber_dim
        dims = twisted.euler_characteristic_dims(k, f)
        assert dims[0] - dims[1] + dims[2] == n * k.euler_characteristic, label
        assert rep.dim_h1_par % 2 == 0, label
        assert rep.residuals["parabolic_exactness"] == 1.0, label
    # bit-exact metric independence on a representative boundary case
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    h2 = surface.perturbed_metric(k, h, rng)
    rep1 = parastar.parabolic_star(k, h, f)
    rep2 = parastar.parabolic_star(k, h2, f)
    assert np.array_equal(rep1.omega_u, rep2.omega_u)
    assert not np.array_equal(rep1.m_u, rep2.m_u)
    _report(4, "Euler identity, even parabolic dimension, kernel/image "
               "agreement and bit-exact metric-free pairing all hold")


def test_criterion_5_cup_wedge_agreement(builtin_sweep):
    """Simplicial cup route and Whitney wedge route agree to 1e-9 on the
    degree-one cocycle representatives of every sweep case."""
    cases, _ = builtin_sweep
    worst = 0.0
    for label, k, h, loops, f, rep in cases:
        h1 = twisted.cohomology(k, f, 1)
        if h1.dim == 0:
            continue
        mc = hodge.metric_complex(k, h, f)
        cup = twisted.cup_omega(k, f, h1.reps)
        wedge = h1.reps.T @ wedge_matrix(mc) @ h1.reps
        diff = float(np.abs(cup - wedge).max())
        worst = max(worst, diff)
        assert diff < 1e-9, label
    _report(5, f"cup vs wedge worst deviation {worst:.2e}")


# -- criterion 6 -----------------------------------------------------------

def test_criterion_6_flat_torus_star():
    """On the unit-square flat torus the operator carries the meridian
    class to the longitude class with relative error < 0.05 at m = 8, not
    worse at m = 16.  On this exactly symmetric mesh both errors sit at
    the float-noise floor, which counts as converged."""
    errors = {}
    for m in (8, 16):
        k, h, _ = surface.torus(m)
        f = localsys.trivial_system(k, 1)
        mc = hodge.metric_complex(k, h, f)
        basis = np.column_stack([
            hodge.harmonic_representative(mc, torus_grid_cochain(k, m, 1, 0)),
            hodge.harmonic_representative(mc, torus_grid_cochain(k, m, 0, 1)),
        ])
        m_u = basis.T @ mass_matrix(mc) @ basis
        omega = twisted.parabolic_pairing(k, f, basis)
        res = compat.compatible_complex_structure(m_u, omega)
        errors[m] = float(np.abs(
            res.j - np.array([[0.0, -1.0], [1.0, 0.0]])).max())
    assert errors[8] < 0.05
    noise_floor = 1e-12
    assert errors[16] < errors[8] or max(errors.values()) < noise_floor
    _report(6, f"meridian -> longitude errors m=8: {errors[8]:.2e}, "
               f"m=16: {errors[16]:.2e}")


# -- criterion 7 -----------------------------------------------------------

def test_criterion_7_moduli_points():
    """20 seeded irreducible one-holed-torus points with a generic boundary
    angle have 2-dimensional tangent space, full-rank pairing and a
    compatible negated pair; generic three-holed spheres are rigid."""
    worst = 0.0
    for seed in range(20):
        p = moduli.sample_point(1, 1, [2.2], seed=seed)
        ts = moduli.tangent_space(p)
        assert ts["dim_H1_par"] == 2 and ts["omega_rank"] == 2, seed
        assert not ts["reducible_flag"], seed
        out = moduli.moduli_acs(p)
        res = out["compatibility_residuals"]
        worst = max(worst, res["acs_sq"], res["goldman_invariance"])
        assert res["acs_sq"] < 1e-9 and res["goldman_invariance"] < 1e-9, seed
        assert res["taming_min_eigenvalue"] > 0.0, seed
    for seed in range(3):
        p = moduli.sample_point(0, 3, [1.1, 1.9, 2.6], seed=seed)
        assert moduli.tangent_space(p)["dim_H1_par"] == 0, seed
    _report(7, f"20 one-holed-torus points (dim 2, compatible pair, worst "
               f"residual {worst:.2e}); three-holed spheres rigid")


# -- criterion 8 -----------------------------------------------------------

def test_criterion_8_determinism_and_naturality(tmp_path):
    """Relabeling conjugates the operator (eigenvalues +-i preserved),
    orientation reversal negates the pairing and the operator, identical
    seeds give byte-identical CLI reports."""
    rng = np.random.default_rng(12)
    k, h, loops = surface.genus_k(1, 1, 1)
    f = localsys.random_flat_system(k, loops, 3, rng)
    out = determinism_check(k, h, f, rng)
    assert out["identity_bit_identical"]
    assert out["relabel_conjugation_residual"] < 1e-9
    assert out["orientation_omega_flip_residual"] < 1e-9
    assert out["orientation_j_flip_residual"] < 1e-9
    assert np.abs(np.sort(out["eigenvalues"].imag)
                  - np.array([-1.0, 1.0])).max() < 1e-9

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (r1, r2):
        code = cli.main(["moduli", "--sample", "1", "1", "--angles", "2.4",
                         "--seed", "11", "--out", str(path)])
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    code = cli.main(["star", "--example", "torus", "--m", "6",
                     "--out", str(tmp_path / "s1.json")])
    assert code == 0
    code = cli.main(["star", "--example", "torus", "--m", "6",
                     "--out", str(tmp_path / "s2.json")])
    assert code == 0
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
    _report(8, "conjugation, orientation flip and byte-identical reports hold")
