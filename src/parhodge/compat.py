"""Compatible complex structures on subspaces of a Hermitian real space.

Setting: a real vector space V with an SPD inner product Q and an isometric
complex structure J (J^2 = -I, J^T Q J = Q).  A real subspace U of V that
meets the nondegeneracy condition J(U) \\cap U^perp = {0} inherits a
canonical complex structure: with G the compression of J to U (orthogonal
projection after J) and R the positive square root of -G^2, the operator
J_U = R^{-1} G squares to -I, is an isometry of U, and is compatible with
the symplectic form omega(u, v) = (J u, v).

Everything here is dense linear algebra over a chosen basis of U, with Q
applied as a function (columns x -> Q x) where V is a large cochain space
(`subspace_transfer`, `subspace_angle`, `orthonormal_angle`):
  M[i,j]     = (u_i, u_j)          (Gram matrix, SPD)
  Omega[i,j] = omega(u_i, u_j)     (skew, nondegenerate iff the condition holds)
  G          = -M^{-1} Omega       (matrix of the compression, columns = images)
The sign of G is pinned by g2_r1/ju_r1-style golden identities in the tests:
omega(u_i, u_j) must equal (G u_i, u_j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numlin
from .errors import ConditionFailed, DegenerateInput, DimensionMismatch, NoConvergence
from .numlin import DEFAULT_TOL, Tolerance, as_matrix


@dataclass(frozen=True)
class AmbientSpace:
    """Even-dimensional real space with SPD inner product and isometric J."""

    q: np.ndarray
    j: np.ndarray
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        q = as_matrix(self.q, "Q")
        j = as_matrix(self.j, "J")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "j", j)
        n = q.shape[0]
        if q.shape != (n, n) or j.shape != (n, n) or n % 2:
            raise DimensionMismatch("Q and J must be square of equal even dimension")
        scale = max(np.abs(q).max(initial=0.0), 1.0)
        if np.abs(j @ j + np.eye(n)).max() > self.tol.residual_tol * max(1.0, np.abs(j).max() ** 2):
            raise DegenerateInput("J^2 != -I within residual_tol")
        if np.abs(j.T @ q @ j - q).max() > self.tol.residual_tol * scale:
            raise DegenerateInput("J is not a Q-isometry within residual_tol")

    @property
    def dim(self):
        return self.q.shape[0]


@dataclass(frozen=True)
class Subspace:
    """Real subspace given by a basis matrix (columns in ambient coordinates)."""

    basis: np.ndarray
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        b = as_matrix(self.basis, "basis")
        object.__setattr__(self, "basis", b)
        if numlin.rank(b, self.tol) < b.shape[1]:
            raise DegenerateInput("basis columns are numerically dependent")

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]


@dataclass
class CompatibleStructureResult:
    """Matrices of the construction in the chosen basis of U, plus residuals."""

    m: np.ndarray
    omega: np.ndarray
    g: np.ndarray
    r: np.ndarray
    j: np.ndarray
    residuals: dict = field(default_factory=dict)


def _check_dims(space, sub):
    if sub.ambient_dim != space.dim:
        raise DimensionMismatch(
            f"subspace lives in dim {sub.ambient_dim}, ambient is {space.dim}"
        )


def gram_and_omega(space, sub):
    """Gram matrix and symplectic-form matrix of the subspace basis.

    Omega[i,j] = omega(u_i, u_j) = (J u_i, u_j); the returned Omega is skew
    up to floating error by construction.
    """
    _check_dims(space, sub)
    b = sub.basis
    m = b.T @ space.q @ b
    omega = (space.j @ b).T @ space.q @ b
    return 0.5 * (m + m.T), omega


def check_condition(space, sub, tol=DEFAULT_TOL):
    """Diagnose the nondegeneracy condition and total reality of U.

    The condition J(U) \\cap U^perp = {0} is equivalent to Omega being
    nonsingular on U; total reality means U \\cap J(U) = {0}.
    """
    _check_dims(space, sub)
    _, omega = gram_and_omega(space, sub)
    sigma_min, nondegenerate = numlin.sigma_ratio(omega, tol)
    stacked = np.hstack([sub.basis, space.j @ sub.basis])
    return {
        "condition_2_1": bool(nondegenerate),
        "totally_real": numlin.rank(stacked, tol) == 2 * sub.dim,
        "min_omega_singular_value": sigma_min,
    }


def compatible_complex_structure(m, omega, tol=DEFAULT_TOL):
    """Build (G, R, J_U) from the Gram matrix and the symplectic form on U.

    G = -M^{-1} Omega.  R is the M-self-adjoint positive square root of
    -G^2, computed by symmetrizing with M^{1/2}: S = M^{1/2} G M^{-1/2} is
    skew in the Euclidean sense, so -S^2 is symmetric positive definite and
    R = M^{-1/2} (-S^2)^{1/2} M^{1/2}.  Finally J_U = R^{-1} G.
    """
    m = as_matrix(m, "M")
    omega = as_matrix(omega, "Omega")
    k = m.shape[0]
    if m.shape != (k, k) or omega.shape != (k, k):
        raise DimensionMismatch("M and Omega must be square of equal size")
    residuals = {}
    if k == 0:
        empty = np.zeros((0, 0))
        return CompatibleStructureResult(m, omega, empty, empty, empty, residuals)

    sigma, nondegenerate = numlin.sigma_ratio(omega, tol)
    residuals["condition_sigma_min"] = sigma
    if not nondegenerate:
        raise ConditionFailed(
            f"Omega numerically singular (relative sigma_min = {sigma:.3e})"
        )
    # provably nondegenerate in exact arithmetic, so near-failure signals
    # conditioning problems worth surfacing rather than aborting
    residuals["omega_near_degenerate"] = float(sigma <= 100 * tol.rank_tol)

    m_sqrt, m_inv_sqrt, m_inv = numlin.spd_functions(m, tol)
    g = -m_inv @ omega
    s_mat = m_sqrt @ g @ m_inv_sqrt
    s_mat = 0.5 * (s_mat - s_mat.T)
    # (-S^2)^{-1/2} S is the orthogonal polar factor of S; for skew S that
    # factor is skew-orthogonal, so squaring to -I holds to machine precision
    w_mat = _skew_polar(s_mat, tol)
    r_sym = w_mat.T @ s_mat  # (-S^2)^{1/2}, symmetric positive definite
    r = m_inv_sqrt @ (0.5 * (r_sym + r_sym.T)) @ m_sqrt
    j = m_inv_sqrt @ w_mat @ m_sqrt

    eye = np.eye(k)
    residuals["jsq"] = float(np.abs(j @ j + eye).max())
    residuals["isometry"] = float(np.abs(j.T @ m @ j - m).max())
    residuals["omega_invariance"] = float(np.abs(j.T @ omega @ j - omega).max())
    taming = 0.5 * (omega @ j + (omega @ j).T)
    w, _ = numlin.sym_eig(taming, tol)
    residuals["taming_min_eigenvalue"] = float(w[-1])
    return CompatibleStructureResult(m, omega, g, r, j, residuals)


def _skew_polar(s, tol, max_iter=100):
    """Orthogonal polar factor of a nonsingular skew matrix via the scaled
    Newton iteration W <- (g W + (g W)^{-T}) / 2."""
    norm = np.abs(s).max()
    w = s / norm
    for _ in range(max_iter):
        w_inv_t = np.linalg.inv(w).T
        gamma = (np.linalg.norm(w_inv_t) / np.linalg.norm(w)) ** 0.5
        w_next = 0.5 * (gamma * w + w_inv_t / gamma)
        if np.abs(w_next - w).max() < 1e-15 * max(1.0, np.abs(w_next).max()):
            w = w_next
            break
        w = w_next
    else:
        raise NoConvergence("polar iteration did not converge")
    return 0.5 * (w - w.T)


def subspace_transfer(q, n_basis, d_basis, tol=DEFAULT_TOL):
    """Mutual orthogonal projections between two subspaces and their kernels.

    With P_N the Q-orthogonal projection of span(D) into span(N) (and P_D
    symmetrically), returns the projection matrices in the given bases, the
    images U = im(P_N), T = im(P_D), and two exact facts about them:
    `kernel_check` - ker(P_N) is the Q-orthogonal complement of T inside
    span(D) - and `rank_equal` - the two projections have equal rank.  Q is
    applied by `q` (columns x -> Q x, as in `numlin.orthonormalize`).
    """
    n_b = as_matrix(n_basis, "N")
    d_b = as_matrix(d_basis, "D")
    for name, b in (("N", n_b), ("D", d_b)):
        if b.shape[1] and numlin.rank(b, tol) < b.shape[1]:
            raise DegenerateInput(f"{name} basis columns are dependent")
    if n_b.shape[0] != d_b.shape[0]:
        raise DimensionMismatch("bases must live in the same space")

    def proj_matrix(target, source):
        # coordinates (in target basis) of the Q-orthogonal projection of
        # each source basis vector
        if target.shape[1] == 0:
            return np.zeros((0, source.shape[1]))
        gram = target.T @ q(target)
        _, _, g_inv = numlin.spd_functions(gram, tol)
        return g_inv @ (target.T @ q(source))

    p_n = proj_matrix(n_b, d_b)
    p_d = proj_matrix(d_b, n_b)

    def norm_scale(b):
        if b.shape[1] == 0:
            return 1.0
        return float(np.sqrt(np.abs(np.diag(b.T @ q(b))).max()))

    # projections of the source vectors can at most keep their norms, so
    # that norm is the honest scale for deciding whether an image vanishes
    u_basis = numlin.orthonormalize(n_b @ p_n, q, tol, scale=norm_scale(d_b))
    t_basis = numlin.orthonormalize(d_b @ p_d, q, tol, scale=norm_scale(n_b))

    # the R factor has the singular values of the tall n_b p_n, and no full U
    ker_pn = numlin.nullspace_basis(np.linalg.qr(n_b @ p_n, mode="r"), tol,
                                    scale=norm_scale(d_b))
    # Q-orthogonal complement of T inside span(D), in D coordinates
    comp = numlin.nullspace_basis(t_basis.T @ q(d_b), tol, scale=norm_scale(d_b))
    kernel_check = _same_span(d_b @ ker_pn, d_b @ comp, tol)
    rank_equal = numlin.rank(p_n, tol) == numlin.rank(p_d, tol)
    return {
        "P_N_matrix": p_n,
        "P_D_matrix": p_d,
        "U_basis": u_basis,
        "T_basis": t_basis,
        "kernel_check": bool(kernel_check),
        "rank_equal": bool(rank_equal),
    }


def _same_span(a, b, tol=DEFAULT_TOL):
    """True when the column spans of a and b agree within rank_tol."""
    ra, rb = numlin.rank(a, tol), numlin.rank(b, tol)
    if ra != rb:
        return False
    return numlin.rank(np.hstack([a, b]), tol) == ra


def subspace_angle(a, b, q, tol=DEFAULT_TOL):
    """Largest principal angle (radians) between the column spans of a, b
    in the Q-inner product, Q applied by `q` (columns x -> Q x, as in
    `numlin.orthonormalize`); for unequal dimensions, the angle of the
    smaller span against the larger.  Computed through the sine (projection
    residual), which stays accurate near zero.  Empty spans give 0."""
    return orthonormal_angle(numlin.orthonormalize(a, q, tol),
                             numlin.orthonormalize(b, q, tol), q, tol)


def orthonormal_angle(oa, ob, q, tol=DEFAULT_TOL):
    """`subspace_angle` for bases oa, ob that are already Q-orthonormal,
    which it takes as given."""
    if oa.shape[1] == 0 or ob.shape[1] == 0:
        return 0.0
    if ob.shape[1] < oa.shape[1]:
        oa, ob = ob, oa
    resid = oa - ob @ (ob.T @ q(oa))
    gram = resid.T @ q(resid)
    w, _ = numlin.sym_eig(0.5 * (gram + gram.T), tol)
    smax = np.sqrt(max(float(w[0]), 0.0)) if w.size else 0.0
    return float(np.arcsin(np.clip(smax, 0.0, 1.0)))


def random_instance(rng, dim, sub_dim, tol=DEFAULT_TOL, max_tries=50, min_sigma=1e-4):
    """Random (V, J, U) with both ambient invariants holding by construction.

    J = P J0 P^{-1} and Q = P^{-T} P^{-1} for a random invertible P, then a
    random even-dimensional U is resampled until the nondegeneracy condition
    holds with margin (relative sigma_min of Omega above `min_sigma`, so the
    exact-arithmetic theorems are visible at 1e-9 in floating point).
    """
    if dim % 2 or sub_dim % 2:
        raise DegenerateInput("ambient and subspace dimensions must be even")
    half = dim // 2
    j0 = np.zeros((dim, dim))
    j0[:half, half:] = -np.eye(half)
    j0[half:, :half] = np.eye(half)
    for _ in range(max_tries):
        # condition of P bounded by 4 so residual checks stay near float noise
        q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        p = q1 @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ q2
        p_inv = np.linalg.inv(p)
        space = AmbientSpace(q=p_inv.T @ p_inv, j=p @ j0 @ p_inv, tol=tol)
        for _ in range(max_tries):
            # orthonormal basis of a uniformly random subspace; keeps the
            # Gram matrix as well conditioned as Q itself
            b, _ = np.linalg.qr(rng.standard_normal((dim, sub_dim)))
            sub = Subspace(b, tol=tol)
            if not check_condition(space, sub, tol)["condition_2_1"]:
                continue
            # the float accuracy of the construction is governed by the
            # whitened form M^{-1/2} Omega M^{-1/2} (its singular values are
            # the eigenvalues of R), so require a margin there
            m, omega = gram_and_omega(space, sub)
            _, m_inv_sqrt, _ = numlin.spd_functions(m, tol)
            if numlin.sigma_ratio(m_inv_sqrt @ omega @ m_inv_sqrt, tol)[0] > min_sigma:
                return space, sub
    raise DegenerateInput("failed to sample a nondegenerate instance")
