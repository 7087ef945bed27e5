"""The compatible complex structure on parabolic cohomology.

Pipeline: parabolic classes from the topology layer; harmonic absolute
representatives through the metric; the Gram matrix of those
representatives as the inner product; the boundary-normalized cup pairing
as the symplectic form (exactly representative- and metric-independent);
and the subspace construction from `compat` to produce the complex
structure.  That construction certifies the symplectic form
nondegenerate on the parabolic classes (else ConditionFailed), and the
report carries machine-checkable residuals for all three compatibility
statements (square = -Id, symplectic invariance, positive taming).

The Galerkin star plays no part in the construction and reports carry
none of its numbers; they come from `parhodge verify --refine` and from
`ambient_route_diagnostic`, which also checks that the projection between
the two harmonic flavors reproduces the same parabolic subspace.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import compat, hodge, localsys, numlin, surface, twisted
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
    component_split: list | None = None  # per-component reports

    def to_dict(self):
        """JSON-ready dictionary with a stable field order."""
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
            "U_basis": _matrix_list(self.u_basis),
            "M_U": _matrix_list(self.m_u),
            "Omega_U": _matrix_list(self.omega_u),
            "G": _matrix_list(self.g),
            "R": _matrix_list(self.r),
            "J_par": _matrix_list(self.j_par),
            "residuals": res,
            "component_split": None if self.component_split is None
            else [c.to_dict() for c in self.component_split],
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


def _matrix_list(a):
    """A report matrix as a list of float rows, [] when it is empty."""
    return np.atleast_2d(a).astype(float).tolist() if a.size else []


def _hash_array(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


def input_hashes(k, h, f):
    # the triangle list is hashed once per mesh and kept with it
    mesh = k.plan("mesh_id", lambda: hashlib.sha256(
        repr((k.vertex_count, tuple(map(tuple, k.tri_vertices.tolist())))).encode()
    ).hexdigest()[:16])
    return {
        "mesh_id": mesh,
        "metric_hash": _hash_array(h.lengths),
        "system_hash": _hash_array(f.transports),
        "fiber_dim": f.fiber_dim,
    }


def parabolic_star(k, h, f, tol=DEFAULT_TOL, bases=None):
    """Build the full report for (complex, metric, flat system).

    A disconnected complex also gets the report of each component, in
    `component_split`.  `bases` goes to `twisted.restriction_and_parabolic`.
    """
    rp = twisted.restriction_and_parabolic(k, f, tol, bases)
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
            residuals=residuals, component_split=_component_split(k, h, f, tol),
        )

    mc = hodge.metric_complex(k, h, f, tol)
    u_basis = hodge.harmonic_representative(mc, class_reps, rp["h1"].h0)
    m_u = u_basis.T @ hodge.m1_apply(mc, u_basis)
    m_u = 0.5 * (m_u + m_u.T)
    # class-level pairing: metric-free, identical for any representatives;
    # both sets go round the boundary in one walk
    omega_u, omega_check = twisted.parabolic_pairing(
        k, f, (class_reps, u_basis), tol, rp["boundary"])
    residuals["omega_rep_independence"] = float(np.abs(omega_u - omega_check).max())

    res = compat.compatible_complex_structure(m_u, omega_u, tol)
    residuals.update({
        "jpar_sq": res.residuals["jsq"],
        "omega_invariance": res.residuals["omega_invariance"],
        "taming_min_eigenvalue": res.residuals["taming_min_eigenvalue"],
        "condition_sigma_min": res.residuals["condition_sigma_min"],
        "metric_isometry": res.residuals["isometry"],
    })
    return ParabolicStarReport(
        inputs=input_hashes(k, h, f),
        dim_h1=rp["h1"].dim, dim_h1_rel=rp["h1_rel"].dim, dim_h1_par=dim_par,
        u_basis=u_basis, m_u=m_u, omega_u=omega_u,
        g=res.g, r=res.r, j_par=res.j,
        residuals=residuals, component_split=_component_split(k, h, f, tol),
    )


def _component(k, component):
    """One component as its own complex, and the id in `k` of each of its
    edges; the vertex map is monotone, so canonical directions agree."""
    sub, vmap = surface.subcomplex(k, component)
    old = np.array(sorted(vmap))
    return sub, surface.edge_ids(k, old[sub.ends[:, 0]], old[sub.ends[:, 1]])


def _component_split(k, h, f, tol):
    """Per-component reports of a disconnected complex, else None."""
    if k.n_components <= 1:
        return None
    reports = []
    for c in range(k.n_components):
        sub, edges = _component(k, c)
        sub_f = localsys.FlatLocalSystem(
            fiber_dim=f.fiber_dim, transports=f.transports.take(edges, axis=0),
            flat_residual=f.flat_residual)
        reports.append(parabolic_star(
            sub, surface.metric_from_lengths(sub, h.lengths[edges]), sub_f, tol))
    return reports


def ambient_route_diagnostic(k, h, f, tol=DEFAULT_TOL):
    """The projection route between the two harmonic flavors.

    Exact facts (booleans): the kernel of the projection H_D -> H_N is the
    orthogonal complement of T = im(projection H_N -> H_D), the two
    projections have equal rank, no nonzero element of T is orthogonal to
    U = im(P_N), and U agrees with the span of the harmonic parabolic
    representatives.  Approximate numbers: the Galerkin-star residuals.
    Each flavor is walked once, by `restriction_and_parabolic`; the
    harmonic spaces are formed once, from its H^1 bases.  M1 is applied by
    `hodge.m1_apply`, and J_h is built once, by `hodge.galerkin_residuals`:
    U lies in H_N, so J_h U is read off J_h H_N in H_N's M1-orthonormal
    coordinates, J_h U = (J_h H_N)(H_N^T M1 U).
    """
    rp = twisted.restriction_and_parabolic(k, f, tol)
    mc = hodge.metric_complex(k, h, f, tol)
    harm = hodge.harmonic_spaces(mc, (rp["h1"], rp["h1_rel"]))
    m1 = functools.partial(hodge.m1_apply, mc)
    out = compat.subspace_transfer(m1, harm.h_n, harm.h_d, tol)
    u_amb, t_amb = out["U_basis"], out["T_basis"]

    lemma34 = True
    if u_amb.shape[1] and t_amb.shape[1]:
        cross = u_amb.T @ m1(t_amb)
        lemma34 = numlin.nullspace_basis(cross, tol, scale=1.0).shape[1] == 0

    par_harm = hodge.harmonic_representative(mc, rp["parabolic_basis"].reps,
                                              rp["h1"].h0)
    angle = compat.subspace_angle(u_amb, par_harm, m1, tol)
    same_dim = numlin.rank(par_harm, tol) == u_amb.shape[1]

    gal, j_hn = hodge.galerkin_residuals(mc, harm)
    j_u = j_hn @ (harm.h_n.T @ m1(u_amb))
    return {
        "kernel_check": out["kernel_check"],
        "rank_equal": out["rank_equal"],
        "lemma34_trivial_intersection": bool(lemma34),
        "span_agrees_with_parabolic": bool(same_dim),
        "span_angle": angle,
        "p38_residual": gal["p38_residual"],
        "angle_j_u_vs_t": compat.subspace_angle(j_u, t_amb, m1, tol),
        "jsq_on_ccc": gal["jsq_on_ccc"],
    }
