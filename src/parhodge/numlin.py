"""Real linear-algebra kernels used by every other module.

All operations are pure functions of immutable inputs and deterministic
for identical input.  The factorizations (SVD, `eigh`) are dense and sized
for the small matrices they meet (class coordinates, Gram matrices, root
kernels).  `pcg` solves with an SPD operator given only as an apply
function, and `orthonormalize` takes its metric the same way, so a caller
never has to form an n_E-sized matrix.  Rank decisions are made relative
to the largest singular/eigen value; assertion thresholds are absolute
residuals.
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
    """Make the first component of largest magnitude in each column positive.

    Removes the sign ambiguity of eigen/singular vectors so identical inputs
    give identical outputs across runs.
    """
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-14 * max(1.0, np.abs(col).max(initial=0.0)))
        if nz.size and col[nz[0]] < 0:
            v[:, j] = -col
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
    if w.size == 0:
        z = np.zeros((0, 0))
        return z, z, z
    if w[-1] <= tol.rank_tol * max(w[0], 0.0):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {w[-1]:.3e} below cutoff", smallest_eigenvalue=w[-1]
        )

    def apply(f):
        m = (v * f(w)) @ v.T
        return 0.5 * (m + m.T)

    return apply(np.sqrt), apply(lambda x: 1.0 / np.sqrt(x)), apply(lambda x: 1.0 / x)


def _svd(a, compute_uv=True):
    """SVD with a fallback to the slower, more robust LAPACK driver when
    the default divide-and-conquer one fails to converge."""
    try:
        return np.linalg.svd(a, full_matrices=True, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        import scipy.linalg

        return scipy.linalg.svd(a, full_matrices=True,
                                compute_uv=compute_uv,
                                lapack_driver="gesvd")


def nullspace_basis(a, tol=DEFAULT_TOL, scale=None):
    """Orthonormal basis (columns) of the numerical kernel of `a`.

    The rank cutoff is `rank_tol` relative to the largest singular value;
    passing `scale` floors that reference, so matrices that are pure noise
    below `rank_tol * scale` count as zero.
    """
    a = as_matrix(a, "A")
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0:
        return np.eye(cols)
    _, s, vt = _svd(a)
    ref = max(s[0] if s.size else 0.0, scale or 0.0)
    r = int(np.sum(s > tol.rank_tol * ref))
    return _fix_column_signs(vt[r:].T)


def rank(a, tol=DEFAULT_TOL, scale=None):
    """Numerical rank with the relative cutoff of `tol` (see nullspace_basis
    for the meaning of `scale`)."""
    a = as_matrix(a, "A")
    if a.size == 0:
        return 0
    s = _svd(a, compute_uv=False)
    if not s.size:
        return 0
    ref = max(s[0], scale or 0.0)
    return int(np.sum(s > tol.rank_tol * ref))


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
    ref = max(w[0] if w.size else 0.0, (scale or 0.0) ** 2)
    keep = w > tol.rank_tol * ref
    if not keep.any():
        return np.zeros((b.shape[0], 0))
    return b @ (v[:, keep] / np.sqrt(w[keep]))


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
    side, and leaves the block, so the applies shrink with it.  Raises
    NoConvergence when `_PCG_MAX_ITER` iterations leave a column above
    that (a breakdown's non-finite residual included), rather than return
    an unconverged solution.
    """
    b = as_matrix(b, "B")
    x = np.zeros(b.shape)
    target = _PCG_RTOL * np.linalg.norm(b, axis=0)
    live = np.flatnonzero(target > 0)  # a zero column is solved by zero
    r = b[:, live]
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
        x[:, live] += alpha * p
        r = r - alpha * q
        keep = ~(np.linalg.norm(r, axis=0) <= target[live])
        if not keep.all():
            live, r, p, rz = live[keep], r[:, keep], p[:, keep], rz[keep]
    return x
