import numpy as np
import pytest

from parhodge import compat, numlin
from parhodge.errors import ConditionFailed, DegenerateInput, DimensionMismatch


TOL = numlin.DEFAULT_TOL


def c2_space():
    """R^4 identified with C^2: (z1, z2) <-> (Re z1, Im z1, Re z2, Im z2)."""
    j = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    return compat.AmbientSpace(q=np.eye(4), j=j)


def golden_subspace(r):
    """span{u1 = (1,0), u2 = (i, r)} in C^2 coordinates."""
    u1 = np.array([1.0, 0.0, 0.0, 0.0])
    u2 = np.array([0.0, 1.0, r, 0.0])
    return compat.Subspace(np.column_stack([u1, u2]))


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 10.0])
def test_golden_family_full_chain(r):
    """G(u1) = u2/(1+r^2), G(u2) = -u1, R = Id/sqrt(1+r^2), and the
    matching complex structure, all entrywise to 1e-12."""
    space = c2_space()
    sub = golden_subspace(r)
    m, omega = compat.gram_and_omega(space, sub)
    assert np.abs(m - np.diag([1.0, 1.0 + r * r])).max() < 1e-12
    assert np.abs(omega - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-12

    res = compat.compatible_complex_structure(m, omega)
    s = 1.0 + r * r
    g_expected = np.array([[0.0, -1.0], [1.0 / s, 0.0]])
    assert np.abs(res.g - g_expected).max() < 1e-12
    assert np.abs(res.g @ res.g + np.eye(2) / s).max() < 1e-12
    assert np.abs(res.r - np.eye(2) / np.sqrt(s)).max() < 1e-12
    j_expected = np.array([[0.0, -np.sqrt(s)], [1.0 / np.sqrt(s), 0.0]])
    assert np.abs(res.j - j_expected).max() < 1e-12


def test_golden_condition_and_total_reality():
    space = c2_space()
    d1 = compat.check_condition(space, golden_subspace(1.0))
    assert d1["condition_2_1"] and d1["totally_real"]
    d0 = compat.check_condition(space, golden_subspace(0.0))
    assert d0["condition_2_1"] and not d0["totally_real"]


def test_odd_dimensional_subspace_fails_condition():
    space = c2_space()
    sub = compat.Subspace(np.array([[1.0, 0.0, 0.0, 0.0]]).T)
    d = compat.check_condition(space, sub)
    assert not d["condition_2_1"]


def test_gram_and_omega_full_space():
    space = c2_space()
    sub = compat.Subspace(np.eye(4))
    m, omega = compat.gram_and_omega(space, sub)
    assert np.allclose(m, np.eye(4))
    # omega[i,j] = (J e_i, e_j) = J^T at Q = I
    assert np.allclose(omega, space.j.T)
    assert np.abs(omega + omega.T).max() < 1e-14


def test_omega_antisymmetric_random():
    rng = np.random.default_rng(7)
    space, sub = compat.random_instance(rng, 8, 4)
    _, omega = compat.gram_and_omega(space, sub)
    assert np.abs(omega + omega.T).max() < 1e-10 * max(1.0, np.abs(omega).max())


def ambient_g(space, sub, tol=TOL):
    """Matrix of the compression p_U J restricted to U, in the basis of U,
    through the Q-orthogonal projection onto U: the second route to
    -M^{-1} Omega from `compat.gram_and_omega`."""
    if not compat.check_condition(space, sub, tol)["condition_2_1"]:
        raise ConditionFailed("J(U) meets the orthogonal complement of U")
    b = sub.basis
    m = b.T @ space.q @ b
    _, _, m_inv = numlin.spd_functions(m, tol)
    return m_inv @ (b.T @ space.q @ (space.j @ b))


def test_ambient_g_matches_gram_route():
    space = c2_space()
    for r in (0.0, 1.0, 3.0):
        sub = golden_subspace(r)
        m, omega = compat.gram_and_omega(space, sub)
        g_direct = ambient_g(space, sub)
        _, _, m_inv = numlin.spd_functions(m)
        assert np.abs(g_direct - (-m_inv @ omega)).max() < 1e-10


def test_ambient_g_on_invariant_subspace_is_j():
    space = c2_space()
    sub = golden_subspace(0.0)  # J-invariant: u2 = J u1
    g = ambient_g(space, sub)
    res = compat.compatible_complex_structure(*compat.gram_and_omega(space, sub))
    assert np.abs(g - res.j).max() < 1e-10
    assert np.abs(g @ g + np.eye(2)).max() < 1e-10


def test_ambient_g_random_agreement():
    rng = np.random.default_rng(11)
    for _ in range(10):
        space, sub = compat.random_instance(rng, 10, 4)
        m, omega = compat.gram_and_omega(space, sub)
        _, _, m_inv = numlin.spd_functions(m)
        assert np.abs(ambient_g(space, sub) - (-m_inv @ omega)).max() < 1e-10


def proposition_invariants(res, ptol=1e-9):
    eye = np.eye(res.j.shape[0])
    assert np.abs(res.j @ res.j + eye).max() < ptol
    assert np.abs(res.j.T @ res.m @ res.j - res.m).max() < ptol * max(1.0, np.abs(res.m).max())
    assert np.abs(res.j.T @ res.omega @ res.j - res.omega).max() < ptol * max(1.0, np.abs(res.omega).max())
    taming = 0.5 * (res.omega @ res.j + (res.omega @ res.j).T)
    w, _ = numlin.sym_eig(taming)
    assert w[-1] > 0
    # symmetric part of Omega J equals M R
    assert np.abs(taming - res.m @ res.r).max() < ptol * max(1.0, np.abs(res.m @ res.r).max())


def test_proposition_suite_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(50):
        dim = 2 * int(rng.integers(2, 8))
        sub_dim = 2 * int(rng.integers(1, min(dim // 2, 5) + 1))
        space, sub = compat.random_instance(rng, dim, sub_dim)
        m, omega = compat.gram_and_omega(space, sub)
        res = compat.compatible_complex_structure(m, omega)
        proposition_invariants(res)


def test_taming_random_vectors():
    rng = np.random.default_rng(13)
    space, sub = compat.random_instance(rng, 12, 6)
    m, omega = compat.gram_and_omega(space, sub)
    res = compat.compatible_complex_structure(m, omega)
    for _ in range(100):
        u = rng.standard_normal(6)
        assert u @ omega @ (res.j @ u) > 0


def test_scale_equivariance():
    rng = np.random.default_rng(14)
    space, sub = compat.random_instance(rng, 8, 4)
    m, omega = compat.gram_and_omega(space, sub)
    res = compat.compatible_complex_structure(m, omega)
    scaled = compat.AmbientSpace(q=2.5 * space.q, j=space.j)
    m2, omega2 = compat.gram_and_omega(scaled, sub)
    res2 = compat.compatible_complex_structure(m2, omega2)
    assert np.abs(res.j - res2.j).max() < 1e-9


def test_condition_failed_on_singular_omega():
    with pytest.raises(ConditionFailed):
        compat.compatible_complex_structure(np.eye(2), np.zeros((2, 2)))


def test_dimension_mismatch_checks():
    space = c2_space()
    with pytest.raises(DimensionMismatch):
        compat.check_condition(space, compat.Subspace(np.eye(6)[:, :2]))


def test_subspace_transfer_identical_bases():
    rng = np.random.default_rng(15)
    n = rng.standard_normal((8, 3))
    out = compat.subspace_transfer(np.eye(8).__matmul__, n, n)
    assert np.abs(out["P_N_matrix"] - np.eye(3)).max() < 1e-9
    assert out["kernel_check"] and out["rank_equal"]
    assert out["U_basis"].shape[1] == 3 and out["T_basis"].shape[1] == 3


def test_subspace_transfer_orthogonal_bases():
    n = np.eye(8)[:, :3]
    d = np.eye(8)[:, 3:6]
    out = compat.subspace_transfer(np.eye(8).__matmul__, n, d)
    assert np.abs(out["P_N_matrix"]).max() < 1e-12
    assert out["U_basis"].shape[1] == 0
    assert out["kernel_check"] and out["rank_equal"]


def test_subspace_transfer_random_mutual_adjointness():
    rng = np.random.default_rng(16)
    c = rng.standard_normal((8, 8))
    q = c.T @ c + np.eye(8)
    n = rng.standard_normal((8, 3))
    d = rng.standard_normal((8, 3))
    out = compat.subspace_transfer(q.__matmul__, n, d)
    assert out["kernel_check"] and out["rank_equal"]
    # mutual adjointness by brute-force Gram computation:
    # (P_N d_i, n_j)_Q = (d_i, P_D n_j)_Q
    lhs = (n @ out["P_N_matrix"]).T @ q @ n
    rhs = d.T @ q @ (d @ out["P_D_matrix"])
    assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(lhs).max())


def test_subspace_transfer_rejects_dependent():
    n = np.ones((5, 2))
    with pytest.raises(DegenerateInput):
        compat.subspace_transfer(np.eye(5).__matmul__, n, np.eye(5)[:, :2])


def test_subspace_rejects_more_columns_than_rows():
    # three columns in a 2-dimensional space: both singular values of the
    # wide basis are 1 and sqrt(3), but its rank is 2, short of 3 columns
    with pytest.raises(DegenerateInput, match="numerically dependent"):
        compat.Subspace(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    # square and tall bases are decided as before
    assert compat.Subspace(np.eye(2)).dim == 2
    assert compat.Subspace(np.ones((3, 1))).dim == 1
    with pytest.raises(DegenerateInput):
        compat.Subspace(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))


def test_near_degenerate_omega_flagged_not_rejected():
    eps = 5e-10  # inside [rank_tol, 100 * rank_tol] relative to sigma_max = 1
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, eps], [0.0, 0.0, -eps, 0.0],
    ])
    res = compat.compatible_complex_structure(np.eye(4), omega)
    assert res.residuals["omega_near_degenerate"] == 1.0
    assert res.residuals["condition_sigma_min"] == pytest.approx(eps)
    # a comfortably nondegenerate form is not flagged
    res2 = compat.compatible_complex_structure(
        np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert res2.residuals["omega_near_degenerate"] == 0.0
