"""The compatible complex structure on parabolic cohomology.

Pipeline: parabolic classes from the topology layer; harmonic absolute
representatives through the metric; the Gram matrix of those
representatives as the inner product; the boundary-normalized cup pairing
as the symplectic form (exactly representative- and metric-independent);
and the subspace construction from `compat` to produce the complex
structure.  The symplectic form is certified nondegenerate on the
parabolic classes before the construction runs, and the report carries
machine-checkable residuals for all three compatibility statements
(square = -Id, symplectic invariance, positive taming).

The Galerkin star plays no part in the construction and reports carry
none of its numbers; they come from `parhodge verify --refine` and from
`ambient_route_diagnostic`, which also checks that the projection between
the two harmonic flavors reproduces the same parabolic subspace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import compat, hodge, localsys, numlin, surface, twisted
from .errors import ConditionFailed
from .numlin import DEFAULT_TOL


@dataclass
class ParabolicStarReport:
    inputs: dict
    dim_h1: int
    dim_h1_rel: int
    dim_h1_par: int
    u_basis: np.ndarray
    m_u: np.ndarray
    omega_u: np.ndarray
    g: np.ndarray
    r: np.ndarray
    j_par: np.ndarray
    residuals: dict = field(default_factory=dict)
    component_split: list | None = None

    def to_dict(self):
        """JSON-ready dictionary with a stable field order."""
        def mat(a):
            return [[float(x) for x in row] for row in np.atleast_2d(a)] if a.size else []

        res = {}
        for key in ("jpar_sq", "omega_invariance", "taming_min_eigenvalue",
                    "condition_sigma_min"):
            v = self.residuals.get(key)
            res[key] = None if v is None else float(v)
        for key in sorted(self.residuals):
            if key not in res:
                v = self.residuals[key]
                res[key] = None if v is None else float(v)
        out = {
            "inputs": self.inputs,
            "dim_H1": self.dim_h1,
            "dim_H1_rel": self.dim_h1_rel,
            "dim_H1_par": self.dim_h1_par,
            "U_basis": mat(self.u_basis),
            "M_U": mat(self.m_u),
            "Omega_U": mat(self.omega_u),
            "G": mat(self.g),
            "R": mat(self.r),
            "J_par": mat(self.j_par),
            "residuals": res,
            "component_split": self.component_split,
        }
        return out

    def theorem_residuals_ok(self, tol=DEFAULT_TOL):
        if self.dim_h1_par == 0:
            return True
        r = self.residuals
        return (
            r["jpar_sq"] < tol.residual_tol
            and r["omega_invariance"] < tol.residual_tol
            and r["taming_min_eigenvalue"] > 0.0
        )


def _hash_array(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


def input_hashes(k, h, f):
    mesh = hashlib.sha256(
        repr((k.vertex_count, tuple(k.triangles))).encode()
    ).hexdigest()[:16]
    return {
        "mesh_id": mesh,
        "metric_hash": _hash_array(h.lengths),
        "system_hash": _hash_array(f.transports),
        "fiber_dim": f.fiber_dim,
    }


def parabolic_star(k, h, f, tol=DEFAULT_TOL, with_component_split=None):
    """Build the full report for (complex, metric, flat system).

    `with_component_split` defaults to splitting only when the complex is
    disconnected.
    """
    rp = twisted.restriction_and_parabolic(k, f, tol)
    class_reps = rp["parabolic_basis"].reps
    dim_par = rp["parabolic_basis"].dim

    residuals = {"parabolic_exactness": float(rp["exactness_check"])}
    if dim_par == 0:
        empty = np.zeros((0, 0))
        residuals.update({
            "jpar_sq": 0.0,
            "omega_invariance": 0.0,
            "taming_min_eigenvalue": None,
            "condition_sigma_min": None,
            "omega_rep_independence": 0.0,
        })
        return ParabolicStarReport(
            inputs=input_hashes(k, h, f),
            dim_h1=rp["h1"].dim, dim_h1_rel=rp["h1_rel"].dim, dim_h1_par=0,
            u_basis=np.zeros((f.fiber_dim * k.n_edges, 0)),
            m_u=empty, omega_u=empty, g=empty, r=empty, j_par=empty,
            residuals=residuals,
            component_split=_component_split(k, h, f, tol)
            if _want_split(k, with_component_split) else None,
        )

    mc = hodge.metric_complex(k, h, f, tol)
    u_basis = hodge.harmonic_representative(mc, class_reps)
    m_u = u_basis.T @ mc.m1 @ u_basis
    m_u = 0.5 * (m_u + m_u.T)
    # class-level pairing: metric-free, identical for any representatives
    omega_u = twisted.parabolic_pairing(k, f, class_reps, tol)
    omega_check = twisted.parabolic_pairing(k, f, u_basis, tol)
    residuals["omega_rep_independence"] = float(np.abs(omega_u - omega_check).max())

    sigma = np.linalg.svd(omega_u, compute_uv=False)
    rel_sigma = float(sigma[-1] / sigma[0]) if sigma[0] > 0 else 0.0
    if rel_sigma <= tol.rank_tol:
        raise ConditionFailed(
            "symplectic form degenerate on the parabolic classes "
            f"(relative sigma_min {rel_sigma:.3e}); the mesh or system is broken"
        )

    res = compat.compatible_complex_structure(m_u, omega_u, tol)
    residuals.update({
        "jpar_sq": res.residuals["jsq"],
        "omega_invariance": res.residuals["omega_invariance"],
        "taming_min_eigenvalue": res.residuals["taming_min_eigenvalue"],
        "condition_sigma_min": rel_sigma,
        "metric_isometry": res.residuals["isometry"],
    })
    return ParabolicStarReport(
        inputs=input_hashes(k, h, f),
        dim_h1=rp["h1"].dim, dim_h1_rel=rp["h1_rel"].dim, dim_h1_par=dim_par,
        u_basis=u_basis, m_u=m_u, omega_u=omega_u,
        g=res.g, r=res.r, j_par=res.j,
        residuals=residuals,
        component_split=_component_split(k, h, f, tol)
        if _want_split(k, with_component_split) else None,
    )


def _want_split(k, flag):
    return k.n_components > 1 if flag is None else bool(flag)


def _restrict_to_component(k, h, f, component):
    sub, vmap = surface.subcomplex(k, component)
    lengths = np.empty(sub.n_edges)
    transports = np.empty((sub.n_edges, f.fiber_dim, f.fiber_dim))
    inverse = {w: v for v, w in vmap.items()}
    for ei, (a, b) in enumerate(sub.edges):
        orig = k.edge_id(inverse[a], inverse[b])
        lengths[ei] = h.lengths[orig]
        # vmap is monotone on the component, so canonical directions agree
        transports[ei] = f.transports[orig]
    sub_h = surface.metric_from_lengths(sub, lengths)
    sub_f = localsys.FlatLocalSystem(
        fiber_dim=f.fiber_dim, transports=transports,
        flat_residual=f.flat_residual,
    )
    return sub, sub_h, sub_f, vmap


def _component_split(k, h, f, tol):
    return [
        parabolic_star(*_restrict_to_component(k, h, f, c)[:3], tol,
                       with_component_split=False).to_dict()
        for c in range(k.n_components)
    ]


def disconnected_split(k, h, f, tol=DEFAULT_TOL):
    """Per-component reports plus the direct-sum consistency check.

    The complex structure of the union, conjugated into the concatenated
    per-component basis, must be the block diagonal of the component
    operators.
    """
    union = parabolic_star(k, h, f, tol, with_component_split=False)
    pieces = []
    embedded = []
    n = f.fiber_dim
    for c in range(k.n_components):
        sub, sub_h, sub_f, vmap = _restrict_to_component(k, h, f, c)
        rep = parabolic_star(sub, sub_h, sub_f, tol, with_component_split=False)
        pieces.append(rep)
        lift = np.zeros((n * k.n_edges, rep.u_basis.shape[1]))
        inverse = {w: v for v, w in vmap.items()}
        for ei, (a, b) in enumerate(sub.edges):
            orig = k.edge_id(inverse[a], inverse[b])
            lift[n * orig:n * orig + n] = rep.u_basis[n * ei:n * ei + n]
        embedded.append(lift)
    concat = np.hstack(embedded) if embedded else np.zeros((n * k.n_edges, 0))
    blocks = [p.j_par for p in pieces]
    j_ds = np.zeros((concat.shape[1], concat.shape[1]))
    at = 0
    for b in blocks:
        j_ds[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]

    if union.dim_h1_par:
        # coordinates of the union basis in the concatenated one
        x = numlin.lsq_solve(concat, np.eye(concat.shape[0]), union.u_basis, tol)
        basis_residual = float(np.abs(concat @ x - union.u_basis).max())
        conj = np.linalg.solve(x, j_ds @ x) if x.shape[0] else np.zeros((0, 0))
        split_residual = float(np.abs(conj - union.j_par).max())
    else:
        basis_residual = split_residual = 0.0
    return {
        "union": union,
        "components": pieces,
        "basis_residual": basis_residual,
        "direct_sum_residual": split_residual,
    }


def ambient_route_diagnostic(k, h, f, tol=DEFAULT_TOL):
    """The projection route between the two harmonic flavors.

    Exact facts (booleans): the kernel of the projection H_D -> H_N is the
    orthogonal complement of T = im(projection H_N -> H_D), the two
    projections have equal rank, no nonzero element of T is orthogonal to
    U = im(P_N), and U agrees with the span of the harmonic parabolic
    representatives.  Approximate numbers: the Galerkin-star residuals.
    """
    mc = hodge.metric_complex(k, h, f, tol)
    harm = hodge.harmonic_spaces(mc)
    out = compat.subspace_transfer(mc.m1, harm.h_n, harm.h_d, tol)
    u_amb, t_amb = out["U_basis"], out["T_basis"]

    lemma34 = True
    if u_amb.shape[1] and t_amb.shape[1]:
        cross = u_amb.T @ mc.m1 @ t_amb
        lemma34 = numlin.nullspace_basis(cross, tol, scale=1.0).shape[1] == 0

    rp = twisted.restriction_and_parabolic(k, f, tol)
    par_harm = hodge.harmonic_representative(mc, rp["parabolic_basis"].reps)
    angle = compat.subspace_angle(u_amb, par_harm, mc.m1, tol)
    same_dim = numlin.rank(par_harm, tol) == u_amb.shape[1]

    gal = hodge.galerkin_diagnostics(mc)
    jh = hodge.galerkin_star(mc)
    return {
        "kernel_check": out["kernel_check"],
        "rank_equal": out["rank_equal"],
        "lemma34_trivial_intersection": bool(lemma34),
        "span_agrees_with_parabolic": bool(same_dim),
        "span_angle": angle,
        "p38_residual": gal["p38_residual"],
        "angle_j_u_vs_t": compat.subspace_angle(jh @ u_amb, t_amb, mc.m1, tol),
        "jsq_on_ccc": gal["jsq_on_ccc"],
    }


def _cochain_pullback(k_old, k_new, f_old, perm, n):
    """Matrix carrying 1-cochains of the relabeled complex back to the
    original coordinates (per-edge permutation, with a fiber transport when
    the canonical direction flips)."""
    p = np.zeros((n * k_old.n_edges, n * k_old.n_edges))
    for ei, (a, b) in enumerate(k_old.edges):
        na, nb = perm[a], perm[b]
        nei = k_new.edge_id(na, nb)
        if na < nb:
            block = np.eye(n)
        else:
            # canonical direction flips: the value changes sign (oriented
            # integral) and moves fibers along the edge
            block = -f_old.transports[ei]
        p[n * ei:n * ei + n, n * nei:n * nei + n] = block
    return p


def relabel(k, h, f, perm):
    """Apply a vertex permutation to complex, metric and system."""
    perm = list(perm)
    tris = [tuple(perm[v] for v in t) for t in k.triangles]
    k_new = surface.build(k.vertex_count, tris)
    lengths = np.empty(k_new.n_edges)
    transports = np.empty_like(f.transports)
    for ei, (a, b) in enumerate(k.edges):
        na, nb = perm[a], perm[b]
        nei = k_new.edge_id(na, nb)
        lengths[nei] = h.lengths[ei]
        transports[nei] = f.transports[ei] if na < nb else f.transports[ei].T
    h_new = surface.metric_from_lengths(k_new, lengths)
    f_new = localsys.FlatLocalSystem(
        fiber_dim=f.fiber_dim, transports=transports,
        flat_residual=f.flat_residual,
    )
    return k_new, h_new, f_new


def orientation_flip(k):
    """Same complex with every triangle orientation reversed."""
    return surface.build(k.vertex_count, [(a, c, b) for a, b, c in k.triangles])


def determinism_check(k, h, f, rng=None, tol=DEFAULT_TOL):
    """Naturality of the construction under relabeling and orientation flip.

    Returns residuals: zero for an identity relabel (bit-identical report),
    the conjugation defect for a random relabel, and the sign-flip defects
    under orientation reversal.
    """
    base = parabolic_star(k, h, f, tol)
    rep2 = parabolic_star(k, h, f, tol)
    identical = (
        np.array_equal(base.j_par, rep2.j_par)
        and np.array_equal(base.omega_u, rep2.omega_u)
        and np.array_equal(base.u_basis, rep2.u_basis)
    )

    if rng is None:
        rng = np.random.default_rng(0)
    perm = rng.permutation(k.vertex_count)
    k2, h2, f2 = relabel(k, h, f, perm)
    relabeled = parabolic_star(k2, h2, f2, tol)
    n = f.fiber_dim
    if base.dim_h1_par:
        pb = _cochain_pullback(k, k2, f, perm, n)
        pulled = pb @ relabeled.u_basis
        x = numlin.lsq_solve(base.u_basis, np.eye(base.u_basis.shape[0]),
                             pulled, tol)
        span_res = float(np.abs(base.u_basis @ x - pulled).max())
        conj_res = float(np.abs(base.j_par @ x - x @ relabeled.j_par).max())
    else:
        span_res = conj_res = 0.0

    k_flip = orientation_flip(k)
    flipped = parabolic_star(k_flip, surface.PLMetric(h.lengths.copy()), f, tol)
    omega_flip = float(np.abs(flipped.omega_u + base.omega_u).max())
    j_flip = float(np.abs(flipped.j_par + base.j_par).max())
    eigs = np.linalg.eigvals(base.j_par) if base.dim_h1_par else np.array([])
    return {
        "identity_bit_identical": bool(identical),
        "relabel_span_residual": span_res,
        "relabel_conjugation_residual": conj_res,
        "orientation_omega_flip_residual": omega_flip,
        "orientation_j_flip_residual": j_flip,
        "eigenvalues": eigs,
    }
