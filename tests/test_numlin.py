import json

import numpy as np
import pytest

from parhodge import cli, numlin
from parhodge.errors import NoConvergence, NotPositiveDefinite, NotSymmetric
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


def test_orthonormalize_m_inner_product():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((8, 3))
    c = rng.standard_normal((8, 8))
    m = c.T @ c + np.eye(8)
    q = numlin.orthonormalize(b, m.__matmul__)
    assert np.abs(q.T @ m @ q - np.eye(3)).max() < 1e-9


def test_pcg_solves_block_right_sides_and_zero_columns():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((30, 30))
    a = c.T @ c + 30 * np.eye(30)
    b = rng.standard_normal((30, 3))
    b[:, 1] = 0.0
    x = numlin.pcg(a.__matmul__, b, lambda r: r / np.diag(a)[:, None])
    assert not x[:, 1].any()
    want = np.linalg.solve(a, b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_pcg_raises_rather_than_return_an_unconverged_solution(monkeypatch):
    rng = np.random.default_rng(8)
    c = rng.standard_normal((40, 40))
    a = c.T @ c + np.eye(40)
    b = rng.standard_normal((40, 2))
    monkeypatch.setattr(numlin, "_PCG_MAX_ITER", 3)
    with pytest.raises(NoConvergence):
        numlin.pcg(a.__matmul__, b, lambda r: r)
    # a singular apply breaks down (pᵀAp = 0): the NaN residual stays live
    with pytest.raises(NoConvergence), np.errstate(all="ignore"):
        numlin.pcg(np.zeros_like, b, lambda r: r)


def _scatter_pcg(apply, b, precond):
    """`numlin.pcg` as it was before it kept the live columns' iterate in
    one array: every iteration adds into X through the live columns' index
    list.  The oracle for the column handling."""
    b = numlin.as_matrix(b, "B")
    x = np.zeros(b.shape)
    target = numlin._PCG_RTOL * np.linalg.norm(b, axis=0)
    live = np.flatnonzero(target > 0)
    r = b[:, live]
    p = rz = None
    iterations = 0
    while live.size:
        if iterations == numlin._PCG_MAX_ITER:
            raise NoConvergence(f"PCG: {live.size} of {b.shape[1]} columns above "
                                f"a relative residual of {numlin._PCG_RTOL:.0e} after "
                                f"{numlin._PCG_MAX_ITER} iterations")
        iterations += 1
        z = precond(r)
        rz_next = np.einsum("ij,ij->j", r, z)
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        q = apply(p)
        alpha = rz / np.einsum("ij,ij->j", p, q)
        x[:, live] += alpha * p
        r = r - alpha * q
        keep = ~(np.linalg.norm(r, axis=0) <= target[live])
        if not keep.all():
            live, r, p, rz = live[keep], r[:, keep], p[:, keep], rz[keep]
    return x


def test_pcg_matches_the_scatter_loop_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(9)
    # a diagonal operator with a few distinct eigenvalues: CG ends a column
    # after as many iterations as the eigenvalues its right side touches
    eig = np.repeat([1.0, 2.0, 3.5, 5.0, 8.0, 13.0], 10)
    q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    a = (q * eig) @ q.T
    b = q @ rng.standard_normal((60, 6))
    for col, touched in enumerate([1, 2, 3, 4, 6]):
        b[:, col] = q[:, :10 * touched] @ rng.standard_normal(10 * touched)
    b[:, 5] = 0.0
    iterations = []

    def apply(p):
        iterations.append(p.shape[1])
        return a @ p

    def precond(r):
        return 0.5 * r

    got = numlin.pcg(apply, b, precond)
    # the zero column never enters; the others leave after 1, 2, 3, 4 and 6
    assert iterations == [5, 4, 3, 2, 1, 1], iterations
    want = _scatter_pcg(a.__matmul__, b, precond)
    assert got.tobytes() == want.tobytes()
    assert not got[:, 5].any()
    monkeypatch.setattr(numlin, "_PCG_MAX_ITER", 3)
    with pytest.raises(NoConvergence) as got_error:
        numlin.pcg(apply, b, precond)
    with pytest.raises(NoConvergence) as want_error:
        _scatter_pcg(apply, b, precond)
    assert str(got_error.value) == str(want_error.value)


def test_empty_shapes_flow_through():
    w, v = numlin.sym_eig(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)
    assert numlin.nullspace_basis(np.zeros((3, 0))).shape == (0, 0)



def _block_tridiagonal(rng, sizes, shift):
    """A random block tridiagonal matrix over levels of the given sizes,
    SPD when `shift` is large enough, and its (D_l, B_l) blocks."""
    starts = np.cumsum([0] + sizes)
    a = np.zeros((starts[-1], starts[-1]))
    for lv, size in enumerate(sizes):
        rows = slice(starts[lv], starts[lv + 1])
        g = rng.standard_normal((size, size))
        a[rows, rows] = g @ g.T / size + shift[lv] * np.eye(size)
        if lv:
            below = slice(starts[lv - 1], starts[lv])
            a[rows, below] = rng.standard_normal((size, sizes[lv - 1])) \
                / (4 * np.sqrt(max(sizes)))
            a[below, rows] = a[rows, below].T
    levels = [(a[starts[lv]:starts[lv + 1], starts[lv]:starts[lv + 1]].copy(),
               a[starts[lv]:starts[lv + 1], starts[max(lv - 1, 0)]:starts[lv]].copy()
               if lv else np.zeros((size, 0)))
              for lv, size in enumerate(sizes)]
    return a, levels


@pytest.mark.parametrize("sizes", [[7], [3, 5, 2], [40, 130, 250, 97, 5], [200, 1]])
def test_block_tridiagonal_solve_matches_the_dense_solve(sizes):
    # levels on both sides of BASE_ROWS: one LU solve, or the triangular
    # sweeps down to base blocks
    rng = np.random.default_rng(sum(sizes))
    a, levels = _block_tridiagonal(rng, sizes, [2.0] * len(sizes))
    b = rng.standard_normal((a.shape[0], 3))
    x = numlin.block_tridiagonal_solve(iter(levels), sizes, b)
    want = np.linalg.solve(a, b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    assert numlin.block_tridiagonal_solve(iter([]), [], np.zeros((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("sizes,firsts", [
    ([7, 5], [7, 1]),
    ([3, 5, 2, 9], [3, 1, 2, 4]),
    ([40, 130, 250, 97, 5], [40, 1, 60, 97, 2]),
    ([200, 120, 1], [200, 1, 1]),
])
def test_block_tridiagonal_solve_takes_b_blocks_of_the_leading_rows(sizes, firsts):
    # B_l with f_l < m_l rows: the rest of the level is zero against the
    # level before, so the solve must match the dense solve of the matrix
    # with those rows zero-padded, on both sides of BASE_ROWS
    rng = np.random.default_rng(sum(sizes) + sum(firsts))
    a, levels = _block_tridiagonal(rng, sizes, [2.0] * len(sizes))
    starts = np.cumsum([0] + sizes)
    short = []
    for lv, ((d, b), f) in enumerate(zip(levels, firsts)):
        if lv:
            rows = slice(starts[lv] + f, starts[lv + 1])
            a[rows, starts[lv - 1]:starts[lv]] = 0.0
            a[starts[lv - 1]:starts[lv], rows] = 0.0
        short.append((d, b[:f]))
    b = rng.standard_normal((a.shape[0], 3))
    x = numlin.block_tridiagonal_solve(iter(short), sizes, b)
    want = np.linalg.solve(a, b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("sizes,bad", [([4, 5, 6, 3], 2), ([110, 120, 100], 1)])
def test_block_tridiagonal_solve_names_the_level_without_a_cholesky_factor(sizes, bad):
    rng = np.random.default_rng(7)
    shift = [2.0] * len(sizes)
    shift[bad] = -50.0
    a, levels = _block_tridiagonal(rng, sizes, shift)
    with pytest.raises(NotPositiveDefinite, match=f"level {bad} "):
        numlin.block_tridiagonal_solve(iter(levels), sizes, np.ones((a.shape[0], 1)))


def _failing_svd(monkeypatch, times):
    """Patch np.linalg.svd to raise LinAlgError on its next `times` calls;
    returns the list of shapes it failed on."""
    svd, failures = np.linalg.svd, []

    def failing(*args, **kwargs):
        if len(failures) < times:
            failures.append(np.shape(args[0]))
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    return failures


_RANK_TWO = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0], [0.0, 1.0, 0.0, 1.0]])


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4, 4), (5, 1), (0, 3)])
def test_an_svd_that_does_not_converge_once_is_retried_on_the_qr_factor(monkeypatch, shape):
    a = np.random.default_rng(sum(shape)).standard_normal(shape)
    if min(shape) > 1:
        a[:, 0] = a[:, 1]
    want_u, want_s, want_vt = np.linalg.svd(a)
    failures = _failing_svd(monkeypatch, 1)
    u, s, vt = numlin._svd(a)
    assert failures == [shape]
    assert u.shape == want_u.shape and vt.shape == want_vt.shape
    assert np.abs(s - want_s).max(initial=0.0) <= 1e-14 * max(1.0, want_s.max(initial=0.0))
    full = np.zeros(shape)
    full[:s.size, :s.size] = np.diag(s)
    assert np.abs(u @ full @ vt - a).max(initial=0.0) <= 1e-14
    assert np.abs(u.T @ u - np.eye(shape[0])).max(initial=0.0) <= 1e-14
    assert np.abs(vt @ vt.T - np.eye(shape[1])).max(initial=0.0) <= 1e-14
    failures.clear()
    assert np.abs(numlin._svd(a, compute_uv=False) - want_s).max(initial=0.0) <= 1e-14 * max(
        1.0, want_s.max(initial=0.0))
    failures.clear()
    kernel = numlin.nullspace_basis(_RANK_TWO)
    assert kernel.shape == (4, 2) and np.abs(_RANK_TWO @ kernel).max() <= 1e-14
    failures.clear()
    assert numlin.rank(_RANK_TWO) == 2


def test_an_svd_that_does_not_converge_twice_raises_no_convergence(monkeypatch, capsys):
    # divide and conquer fails on A and then on R: NoConvergence, which
    # the CLI reports as a validation error
    failures = _failing_svd(monkeypatch, 2)
    with pytest.raises(NoConvergence, match="SVD of a 3x4 matrix: SVD did not converge"):
        numlin.nullspace_basis(_RANK_TWO)
    assert failures == [(3, 4), (3, 3)]  # A, then R of A^T = Q R
    assert numlin.nullspace_basis(_RANK_TWO).shape == (4, 2)
    failures.clear()
    with pytest.raises(NoConvergence, match="SVD of a 3x4 matrix"):
        numlin.rank(_RANK_TWO)
    failures.clear()
    assert cli.main(["star", "--example", "torus", "--m", "4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: NoConvergence: SVD of a "), err
    assert len(failures) == 2


def test_a_stack_of_svds_is_each_matrix_on_its_own_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(86)
    for count in range(1, 6):
        for n in (1, 3):
            stack = rng.standard_normal((count, n, n))
            got = numlin.svd_ranks(stack, TOL, 1.0)
            for i, want in enumerate(numlin.svd_rank(a, TOL, 1.0) for a in stack):
                assert [x[i].tobytes() for x in got[:3]] == [x.tobytes() for x in want[:3]]
                assert got[3][i] == want[3]
    # each rank against its own largest value: 1 of 1e12 is noise, 1e-3
    # in a matrix of its own is not
    stack = np.array([np.diag([1e12, 1.0, 1.0]), np.diag([1e-3, 1e-3, 0.0])])
    assert numlin.svd_ranks(stack, TOL, 1.0)[3] == [1, 2]
    # a stack that does not converge: each matrix on its own, the first
    # through its own retry on the QR factor
    stack = rng.standard_normal((3, 3, 3))
    want = [numlin.svd_rank(a, TOL, 1.0) for a in stack]
    failures = _failing_svd(monkeypatch, 2)
    u, s, vt, ranks = numlin.svd_ranks(stack, TOL, 1.0)
    assert failures == [(3, 3, 3), (3, 3)]
    assert ranks == [3, 3, 3]
    for i in (1, 2):
        assert [x[i].tobytes() for x in (u, s, vt)] == [x.tobytes() for x in want[i][:3]]
    assert np.abs(u[0] @ np.diag(s[0]) @ vt[0] - stack[0]).max() <= 1e-14
    failures.clear()
    _failing_svd(monkeypatch, 3)
    with pytest.raises(NoConvergence, match="SVD of a 3x3 matrix"):
        numlin.svd_ranks(stack, TOL, 1.0)


def test_the_cutoff_rule_counts_strictly_above_rank_tol_times_the_reference():
    # rank_tol and every value a power of two, so each cutoff is exact
    tol = Tolerance(rank_tol=0.25)
    values = np.array([4.0, 2.0, 1.5, 0.5])
    assert numlin._count_above(np.zeros(0), tol, 0.0) == 0
    assert numlin._count_above(np.zeros(3), tol, 0.0) == 0
    assert numlin._count_above(values, tol, 0.0) == 3  # cutoff 0.25 * 4 = 1
    assert numlin._count_above(values, tol, 2.0) == 3  # a floor below the largest
    # a floor above the largest value sets the cutoff, here 0.25 * 8 = 2,
    # and 2.0 itself, at the cutoff, is dropped
    assert numlin._count_above(values, tol, 8.0) == 1
    # every decision reads the same rule: 1 sits exactly at 0.25 * 4
    at_cutoff = np.diag([4.0, 1.0])
    assert numlin.rank(at_cutoff, tol) == 1
    assert numlin.rank(at_cutoff, tol, scale=32.0) == 0
    assert numlin.nullspace_basis(at_cutoff, tol).tolist() == [[0.0], [1.0]]
    assert numlin.orthonormalize(np.diag([2.0, 1.0]), np.eye(2).__matmul__, tol).shape == (2, 1)
    with pytest.raises(NotPositiveDefinite):
        numlin.spd_functions(at_cutoff, tol)
    assert numlin.svd_rank(np.zeros((2, 2)), tol, 1.0)[3] == 0
    assert numlin.sigma_ratio(at_cutoff, tol) == (0.25, False)
    assert numlin.sigma_ratio(np.zeros((2, 2)), tol) == (0.0, False)
    assert numlin.sigma_ratio(np.zeros((0, 0)), tol) == (float("inf"), True)


def _svd_failing_off_the_triangle(monkeypatch):
    """Patch np.linalg.svd to raise LinAlgError on every matrix, or stack of
    matrices, that is not upper triangular, as a LAPACK whose divide and conquer fails on A but
    not on the R of its QR factorization would; returns the failed shapes."""
    svd, failures = np.linalg.svd, []

    def failing(a, *args, **kwargs):
        # a stack fails when one of its matrices would
        if np.ndim(a) >= 2 and np.tril(a, -1).any():
            failures.append(np.shape(a))
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    return failures


@pytest.mark.parametrize("argv", [
    ["star", "--example", "genus11", "--m", "6"],
    ["moduli", "--sample", "0", "4", "--angles", "2.0,2.5,3.0,3.5", "--seed", "3"],
    ["moduli", "--sample", "1", "1", "--angles", "3.0", "--seed", "3"],
    ["verify", "--example", "genus11", "--m", "3"],
], ids=["star-genus11", "moduli-0-4", "moduli-1-1", "verify-genus11"])
def test_every_svd_of_a_command_is_retried_on_its_qr_factor(monkeypatch, capsys, argv):
    # the boundary walk's 1 - rho_j and compat's Omega take their SVDs
    # through numlin._svd too, so each command still certifies its report
    failures = _svd_failing_off_the_triangle(monkeypatch)
    assert cli.main(argv) == 0
    assert failures
    report = json.loads(capsys.readouterr().out)
    if argv[0] == "verify":
        assert report["case"]["theorem_ok"] and report["case"]["ok"]
        return
    res = report["residuals"] if argv[0] == "star" else report["compatibility_residuals"]
    assert res.pop("taming_min_eigenvalue") > 0
    if argv[0] == "star":
        assert res.pop("parabolic_exactness") == 1.0
        assert res.pop("condition_sigma_min") > TOL.rank_tol
    assert max(res.values()) <= 1e-9, res
