"""Real linear-algebra kernels used by every other module.

All operations are pure functions of immutable inputs and deterministic
for identical input.  The SVD and `eigh` factorizations are dense and
sized for the small matrices they meet (class coordinates, Gram matrices,
root kernels).  `block_tridiagonal_solve` factors an SPD matrix given one
level of blocks at a time, each level by a dense Cholesky factorization
of its Schur complement, so no matrix larger than two adjacent levels is
formed.  `pcg` solves with an SPD operator given only as an apply
function, and `orthonormalize` takes its metric the same way, so a caller
never has to form an n_E-sized matrix.  This module owns every rank,
definiteness and nondegeneracy decision, and every SVD (`_svd`): a rank
counts the singular/eigen values above `rank_tol` times the largest one,
floored per caller (`_count_above`), and nondegeneracy compares
sigma_min / sigma_max with `rank_tol` (`sigma_ratio`).  Assertion
thresholds are absolute residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    NotSymmetric,
)


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: `rank_tol` for rank/eigen cutoffs (relative to
    the largest magnitude), `residual_tol` for assertion residuals."""

    rank_tol: float = 1e-10
    residual_tol: float = 1e-9

    def __post_init__(self):
        if not (self.rank_tol > 0 and self.residual_tol > 0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


def as_matrix(a, name="matrix"):
    """Validate and return a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _fix_column_signs(v):
    """Make the first entry of each column above 1e-14 max(1, max |col|)
    positive, all columns at once.

    Removes the sign ambiguity of eigen/singular vectors so identical inputs
    give identical outputs across runs.
    """
    v = v.copy()
    if not v.size:
        return v
    # fmax takes 1 over a NaN maximum, as Python's max(1.0, nan) does
    mag = np.abs(v)
    big = mag > 1e-14 * np.fmax(1.0, mag.max(axis=0))
    first = v[big.argmax(axis=0), np.arange(v.shape[1])]
    np.negative(v, out=v, where=big.any(axis=0) & (first < 0))
    return v


def sym_eig(a, tol=DEFAULT_TOL):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues descending, eigenvector matrix V with A V = V diag).
    """
    a = as_matrix(a, "A")
    n, m = a.shape
    if n != m:
        raise NotSymmetric(f"matrix is {n}x{m}, not square")
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > tol.residual_tol * max(scale, 1e-300):
        raise NotSymmetric("matrix is not symmetric within residual_tol")
    try:
        w, v = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    return w[order], _fix_column_signs(v[:, order])


def spd_functions(a, tol=DEFAULT_TOL):
    """Square root, inverse square root and inverse of an SPD matrix.

    Computed through the symmetric eigendecomposition; all three outputs are
    symmetrized exactly.
    """
    w, v = sym_eig(a, tol)
    if _count_above(w, tol, 0.0) < w.size:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {w[-1]:.3e} below cutoff", smallest_eigenvalue=w[-1]
        )

    def apply(f):
        m = (v * f(w)) @ v.T
        return 0.5 * (m + m.T)

    return apply(np.sqrt), apply(lambda x: 1.0 / np.sqrt(x)), apply(lambda x: 1.0 / x)


def _count_above(values, tol, floor):
    """How many of `values` exceed `rank_tol * max(largest, floor)`, the
    cutoff of every rank and definiteness decision: strictly, so a value at
    the cutoff is dropped, and `floor` keeps pure noise from counting."""
    return int(np.count_nonzero(values > tol.rank_tol * values.max(initial=floor)))


def sigma_ratio(a, tol):
    """sigma_min / sigma_max of a square matrix (0 when it is zero, inf when
    empty) and the nondegeneracy verdict: whether it exceeds `rank_tol`."""
    s = _svd(as_matrix(a, "A"), compute_uv=False)
    if not s.size:
        return float("inf"), True
    ratio = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    return ratio, ratio > tol.rank_tol


def spectral_norm(a):
    """The 2-norm of a matrix, its largest singular value (0 when empty)."""
    return float(_svd(as_matrix(a, "A"), compute_uv=False).max(initial=0.0))


def svd_rank(a, tol, floor):
    """Full SVD U, s, V^T of `a` (`_svd`) and its rank (`_count_above`)."""
    u, s, vt = _svd(a)
    return u, s, vt, _count_above(s, tol, floor)


def svd_ranks(stack, tol, floor):
    """`svd_rank` of each matrix of a stack, from one `_svd` call: the
    stacked U, s and V^T, and the rank of each matrix, decided on its own."""
    u, s, vt = _svd(stack)
    return u, s, vt, [_count_above(values, tol, floor) for values in s]


def _svd(a, compute_uv=True):
    """Full SVD by LAPACK's divide-and-conquer driver (gesdd).  When that
    does not converge, it is tried once more on the square triangular
    factor of a QR decomposition (`_svd_of_r`); raises NoConvergence, which
    the CLI reports as a validation error (exit 2), when that fails too.
    A stack of matrices is factored in one call, which gives each matrix
    the bits of its own call; when that does not converge, each matrix is
    factored on its own, with its own retry."""
    try:
        return np.linalg.svd(a, full_matrices=True, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    if a.ndim > 2:
        parts = [_svd(m, compute_uv) for m in a]
        return tuple(map(np.array, zip(*parts))) if compute_uv else np.array(parts)
    try:
        return _svd_of_r(a, compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD of a {a.shape[0]}x{a.shape[1]} matrix: {exc}") from None


def _svd_of_r(a, compute_uv):
    """Full SVD of A from the SVD of R in A = Q R, with R the k x k leading
    block of the complete QR of A (of A^T when A is wide, k its column
    count): A = Q diag(U_R, I) (S V^T), so U is Q's first k columns times
    U_R, followed by Q's other columns."""
    wide = a.shape[0] < a.shape[1]
    t = a.T if wide else a
    q, r = np.linalg.qr(t, mode="complete")
    k = t.shape[1]
    if not compute_uv:
        return np.linalg.svd(r[:k], compute_uv=False)
    u_r, s, vt = np.linalg.svd(r[:k])
    u = np.hstack([q[:, :k] @ u_r, q[:, k:]])
    return (vt.T, s, u.T) if wide else (u, s, vt)


def nullspace_basis(a, tol=DEFAULT_TOL, scale=None):
    """Orthonormal basis (columns) of the numerical kernel of `a`, its rank
    decided by `_count_above` with `scale` as the floor, so that a matrix
    of pure noise below `rank_tol * scale` counts as zero."""
    a = as_matrix(a, "A")
    if a.shape[0] == 0:  # the whole space, without an SVD and a sign fix
        return np.eye(a.shape[1])
    _, _, vt, r = svd_rank(a, tol, scale or 0.0)
    return _fix_column_signs(vt[r:].T)


def rank(a, tol=DEFAULT_TOL, scale=None):
    """Numerical rank with the relative cutoff of `tol` (see nullspace_basis
    for the meaning of `scale`)."""
    s = _svd(as_matrix(a, "A"), compute_uv=False)
    return _count_above(s, tol, scale or 0.0)


def orthonormalize(basis, m, tol=DEFAULT_TOL, scale=None):
    """Return an M-orthonormal basis (B^T M B = I) for the column span of
    `basis`, for the SPD metric applied by `m` (columns x -> M x; a dense
    M is passed as `M.__matmul__`).

    Drops numerically dependent columns; `scale` floors the drop cutoff (in
    units of column norm) so that a basis consisting of pure noise
    collapses to zero columns.
    """
    b = as_matrix(basis, "basis")
    if b.shape[1] == 0:
        return b.copy()
    gram = b.T @ m(b)
    w, v = sym_eig(0.5 * (gram + gram.T), tol)
    r = _count_above(w, tol, (scale or 0.0) ** 2)
    # the eigenvalues descend, so the kept ones lead; column-major is the
    # layout whose product keeps its bits
    return b @ (np.asfortranarray(v[:, :r]) / np.sqrt(w[:r]))


# A PCG column stops at this residual relative to its right side; a solve
# that has not got there after _PCG_MAX_ITER iterations raises.
_PCG_RTOL = 1e-13
_PCG_MAX_ITER = 1000


def pcg(apply, b, precond):
    """Solve A X = B by preconditioned conjugate gradients, each column of
    the block right side B on its own, from X = 0.

    A is SPD and given by `apply` (columns x -> A x), the preconditioner by
    `precond` (residual columns r -> P^{-1} r, P SPD).  A column stops when
    its residual norm is at most `_PCG_RTOL` times the norm of its right
    side, and leaves the block, so the applies shrink with it: the live
    columns' iterate is one contiguous array, and a column is written into
    X once, when it leaves.  Raises NoConvergence when `_PCG_MAX_ITER`
    iterations leave a column above that (a breakdown's non-finite
    residual included), rather than return an unconverged solution.
    """
    b = as_matrix(b, "B")
    x = np.zeros(b.shape)
    target = _PCG_RTOL * np.linalg.norm(b, axis=0)
    live = np.flatnonzero(target > 0)  # a zero column is solved by zero
    r = b[:, live]
    x_live = np.zeros(r.shape)
    p = rz = None
    iterations = 0
    while live.size:
        if iterations == _PCG_MAX_ITER:
            raise NoConvergence(f"PCG: {live.size} of {b.shape[1]} columns above "
                                f"a relative residual of {_PCG_RTOL:.0e} after "
                                f"{_PCG_MAX_ITER} iterations")
        iterations += 1
        z = precond(r)
        rz_next = np.einsum("ij,ij->j", r, z)
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        q = apply(p)
        alpha = rz / np.einsum("ij,ij->j", p, q)
        x_live += alpha * p
        r = r - alpha * q
        # np.linalg.norm(r, axis=0), bit for bit, without its dispatch
        keep = ~(np.sqrt(np.add.reduce(r * r, axis=0)) <= target[live])
        if not keep.all():
            x[:, live[~keep]] = x_live[:, ~keep]
            live, x_live, r, p, rz = (live[keep], x_live[:, keep], r[:, keep],
                                      p[:, keep], rz[keep])
    return x


# a level of at most this many rows applies S_l^{-1} by one LU solve, and
# a triangular solve splits its rows in halves down to blocks this small
BASE_ROWS = 96


def _triangular_solve(t, b, lower):
    """Overwrite b with t^{-1} b for a lower or upper triangular t.  numpy
    has no triangular solve, so the rows split in halves down to
    `BASE_ROWS`, the off-diagonal block goes through matmul, and each base
    block is inverted whole (an LU solve of a triangular block is twice as
    slow for wide b): about n^2 flops per column."""
    n = t.shape[0]
    if n <= BASE_ROWS:
        b[...] = np.linalg.inv(t) @ b
        return
    h = n // 2
    first, second = (slice(0, h), slice(h, n)) if lower else (slice(h, n), slice(0, h))
    _triangular_solve(t[first, first], b[first], lower)
    b[second] -= t[second, first] @ b[first]
    _triangular_solve(t[second, second], b[second], lower)


def block_tridiagonal_solve(levels, sizes, rhs):
    """Solve A X = R for an SPD block tridiagonal A with levels of the
    given row counts, whose blocks come one level at a time from the
    iterable `levels` as pairs (D_l, B_l): the diagonal block of level l
    and the block of its leading f_l <= m_l rows against the columns of
    level l - 1 (no columns at level 0), its other rows being zero; f_l is
    read off B_l's shape.  The rows of the right side R, `rhs`, are in
    level order.

    Block Cholesky elimination (George & Liu 1981, ch. 4): the Schur
    complements S_0 = D_0 and S_l = D_l - B_l W_{l-1}, with
    W_l = S_l^{-1} B_{l+1}^T, factor as S_l = L_l L_l^T, which fails, and
    raises NotPositiveDefinite naming the level, unless S_l is SPD.  The
    forward sweep y_l = S_l^{-1} (R_l - B_l y_{l-1}) rides along with the
    factorization, and the back sweep is x_l = y_l - W_l x_{l+1}.  Since
    B_{l+1} has f_{l+1} rows, W_l has f_{l+1} columns, and the Schur update
    and the forward sweep change only the leading f_{l+1} rows of the next
    level (and columns, in D), and W_l reads only the leading f_{l+1} rows
    of x_{l+1}.  Only [W_l | y_l], m_l x (f_{l+1} + cols), outlives its
    level, solved in place in an array allocated once B_{l+1} has given
    f_{l+1}, so the back sweep keeps sum_l m_l (f_{l+1} + cols) floats;
    D_l, B_l and L_l are dropped once the next level's Schur complement is
    formed.  A level of more than `BASE_ROWS` rows solves with L_l and then
    L_l^T (`_triangular_solve`), and the first gives
    V_l = L_l^{-1} B_{l+1}^T, so that B_{l+1} W_l = V_l^T V_l costs half a
    product; a smaller level takes [W_l | y_l] from one LU solve.
    """
    rhs = as_matrix(rhs, "R")
    sizes = [int(s) for s in sizes]
    cols = rhs.shape[1]
    levels = iter(levels)
    ahead = next(levels, None)
    back, lo = [], 0
    z = rhs[:sizes[0]] if sizes else None
    for lv, size in enumerate(sizes):
        d = ahead[0]
        try:
            chol = np.linalg.cholesky(d)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                f"block elimination: the Schur complement of level {lv} "
                f"({size} rows) is not positive definite") from None
        small = size <= BASE_ROWS
        if not small:
            del d  # only the factor is read from here on
        lo += size
        ahead = next(levels, None)
        b = np.zeros((0, size)) if ahead is None else ahead[1]
        first = b.shape[0]
        vw = np.empty((size, first + cols))
        v, w = vw[:, :first], vw[:, first:]
        v[...] = b.T
        w[...] = z
        if small:
            vw[...] = np.linalg.solve(d, vw)
            update, forward = b @ v, b @ w
        else:
            _triangular_solve(chol, vw, lower=True)
            update, forward = v.T @ v, v.T @ w
            _triangular_solve(chol.T, vw, lower=False)
        if ahead is not None:
            ahead[0][:first, :first] -= update
            z = rhs[lo:lo + sizes[lv + 1]].copy()
            z[:first] -= forward
        back.append((v, w))
    x = np.empty(rhs.shape)
    below = np.zeros((0, cols))
    for v, w in reversed(back):
        rows = slice(lo - w.shape[0], lo)
        x[rows] = w - v @ below[:v.shape[1]]
        below, lo = x[rows], rows.start
    return x
