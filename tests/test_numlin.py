import numpy as np
import pytest

from parhodge import numlin
from parhodge.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric
from parhodge.numlin import Tolerance


TOL = numlin.DEFAULT_TOL


def test_tolerance_defaults_and_validation():
    t = Tolerance()
    assert t.rank_tol == 1e-10 and t.residual_tol == 1e-9
    with pytest.raises(ValueError):
        Tolerance(rank_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(residual_tol=-1.0)


def test_sym_eig_diagonal():
    w, v = numlin.sym_eig(np.diag([2.0, 3.0]))
    assert np.allclose(w, [3.0, 2.0])
    assert np.allclose(np.abs(v), [[0, 1], [1, 0]])


def test_sym_eig_offdiagonal_pair():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, v = numlin.sym_eig(a)
    assert np.allclose(w, [1.0, -1.0])
    assert np.allclose(v[:, 0], np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(v[:, 1] * np.sign(v[0, 1]), np.array([1, -1]) / np.sqrt(2))


def test_sym_eig_random_reconstruction():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((20, 20))
    a = 0.5 * (b + b.T)
    w, v = numlin.sym_eig(a)
    assert np.abs(v.T @ a @ v - np.diag(w)).max() < 1e-10
    assert np.abs(v.T @ v - np.eye(20)).max() < 1e-10
    # eigenvalues descending, trace preserved
    assert all(x >= y for x, y in zip(w, w[1:]))
    assert abs(w.sum() - np.trace(a)) < 1e-10 * max(1.0, abs(np.trace(a)))


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        numlin.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSymmetric):
        numlin.sym_eig(np.zeros((2, 3)))


def test_sym_eig_deterministic():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((12, 12))
    a = b + b.T
    w1, v1 = numlin.sym_eig(a)
    w2, v2 = numlin.sym_eig(a.copy())
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


def test_spd_functions_examples():
    s, _, _ = numlin.spd_functions(np.diag([4.0, 9.0]))
    assert np.allclose(s, np.diag([2.0, 3.0]))
    s, si, inv = numlin.spd_functions(np.eye(3))
    for m in (s, si, inv):
        assert np.allclose(m, np.eye(3))


def test_spd_functions_reconstruction():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((15, 15))
    a = b.T @ b + 0.5 * np.eye(15)
    s, si, inv = numlin.spd_functions(a)
    assert np.abs(s @ s - a).max() < 1e-10 * np.abs(a).max()
    assert np.abs(si @ s - np.eye(15)).max() < 1e-9
    assert np.abs(inv @ a - np.eye(15)).max() < 1e-9
    assert np.abs(si @ a @ si - np.eye(15)).max() < 1e-9
    for m in (s, si, inv):
        assert np.array_equal(m, m.T)


def test_spd_functions_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as err:
        numlin.spd_functions(np.diag([1.0, -2.0]))
    assert err.value.smallest_eigenvalue == pytest.approx(-2.0)


def test_nullspace_examples():
    n = numlin.nullspace_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert n.shape == (2, 1)
    assert abs(abs(n[0, 0]) - 1 / np.sqrt(2)) < 1e-12
    assert abs(n[0, 0] + n[1, 0]) < 1e-12
    assert numlin.nullspace_basis(np.eye(4)).shape == (4, 0)


def test_nullspace_random_rank():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 10)) @ rng.standard_normal((10, 30))
    n = numlin.nullspace_basis(a)
    assert n.shape == (30, 20)
    assert np.abs(a @ n).max() < 1e-9 * np.abs(a).max()
    assert np.abs(n.T @ n - np.eye(20)).max() < 1e-10
    # columns stay independent: Gram determinant bounded away from 0
    assert abs(np.linalg.det(n.T @ n) - 1.0) < 1e-8


def test_lsq_identity_and_mean():
    b = np.array([3.0, -1.0, 2.0])
    x = numlin.lsq_solve(np.eye(3), np.eye(3), b)
    assert np.allclose(x, b)
    x = numlin.lsq_solve(np.array([[1.0], [1.0]]), np.eye(2), np.array([0.0, 2.0]))
    assert np.allclose(x, [1.0])


def test_lsq_normal_equation_residual_and_idempotence():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((12, 5))
    c = rng.standard_normal((12, 12))
    m = c.T @ c + np.eye(12)
    b = rng.standard_normal(12)
    x = numlin.lsq_solve(a, m, b)
    assert np.abs(a.T @ m @ (a @ x - b)).max() < 1e-10
    x2 = numlin.lsq_solve(a, m, a @ x)
    assert np.abs(x2 - x).max() < 1e-9


def test_lsq_minimum_norm_on_rank_deficient():
    rng = np.random.default_rng(5)
    a = np.hstack([np.ones((4, 1)), np.ones((4, 1))])  # ker = (1,-1)
    b = rng.standard_normal(4)
    x = numlin.lsq_solve(a, np.eye(4), b)
    assert abs(x[0] - x[1]) < 1e-12  # orthogonal to the kernel


def test_lsq_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        numlin.lsq_solve(np.eye(3), np.eye(2), np.zeros(3))


def test_orthonormalize_m_inner_product():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((8, 3))
    c = rng.standard_normal((8, 8))
    m = c.T @ c + np.eye(8)
    q = numlin.orthonormalize(b, m)
    assert np.abs(q.T @ m @ q - np.eye(3)).max() < 1e-9


def test_empty_shapes_flow_through():
    w, v = numlin.sym_eig(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)
    assert numlin.nullspace_basis(np.zeros((3, 0))).shape == (0, 0)
    x = numlin.lsq_solve(np.zeros((3, 0)), np.eye(3), np.zeros(3))
    assert x.shape == (0,)


def test_orthonormalize_drops_a_leading_negligible_column():
    # a negligible first column must not steer the kept directions out of
    # the span of the others (plain QR would keep a_2 - (q_1 . a_2) q_1)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 2))
    b = np.column_stack([1e-17 * rng.standard_normal(30), a])
    q = numlin.orthonormalize(b, scale=1.0)
    assert q.shape[1] == 2
    assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12
    proj = a @ np.linalg.lstsq(a, q, rcond=None)[0]
    assert np.abs(proj - q).max() < 1e-12
