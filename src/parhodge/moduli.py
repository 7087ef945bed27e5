"""Tangent-space geometry of moduli of flat SU(2) connections on surfaces.

A `ModuliPoint` is a surface-group representation into SU(2) (unit
quaternions) whose boundary generators land in conjugacy classes prescribed
by quaternion rotation angles in (0, 2*pi).  The adjoint action turns it
into a flat orthogonal system with fiber R^3 on the generated mesh; the
parabolic cohomology there is the tangent space of the moduli space at the
class of the representation, with the symplectic pairing of `parastar`.

The sign conventions of the reference moduli construction flip both
structures: `moduli_acs` returns -Omega and -J_par, which are compatible in
the same sense (the taming form is unchanged by the double negation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import localsys, numlin, parastar, surface, twisted
from .errors import InvalidAngles, InvalidParameter, SamplingFailed, SingularPoint
from .localsys import (
    quat_angle,
    quat_conj,
    quat_from_axis_angle,
    quat_mul,
    random_unit_quaternion,
    su2_adjoint,
    word_matrix,
)
from .numlin import DEFAULT_TOL

ANGLE_TOL = 1e-6


@dataclass
class ModuliPoint:
    g: int
    k: int
    boundary_classes: list
    phi_images: dict  # generator name -> unit quaternion
    seed: int
    subdiv: int = 1
    attempts_used: int = 1

    def __post_init__(self):
        names = _generator_names(self.g, self.k)
        missing = [n for n in names if n not in self.phi_images]
        if missing:
            raise InvalidParameter(f"missing images {missing}")
        rel = _relation_word(self.g, self.k)
        q = _quat_word(self.phi_images, rel)
        if np.abs(q - np.array([1.0, 0, 0, 0])).max() > 1e-9:
            raise InvalidParameter("images do not satisfy the surface-group relation")
        for j, theta in enumerate(self.boundary_classes):
            got = quat_angle(self.phi_images[f"c{j + 1}"])
            if abs(got - theta) > 1e-5:
                raise InvalidParameter(
                    f"boundary generator c{j + 1} has class angle {got:.6f}, "
                    f"expected {theta:.6f}"
                )


def _generator_names(g, k):
    out = []
    for i in range(g):
        out += [f"a{i + 1}", f"b{i + 1}"]
    out += [f"c{j + 1}" for j in range(k)]
    return out


def _relation_word(g, k):
    word = []
    for i in range(g):
        word += [(f"a{i + 1}", 1), (f"b{i + 1}", 1),
                 (f"a{i + 1}", -1), (f"b{i + 1}", -1)]
    word += [(f"c{j + 1}", 1) for j in range(k)]
    return tuple(word)


def _quat_word(images, word):
    out = np.array([1.0, 0, 0, 0])
    for name, exp in word:
        q = images[name]
        for _ in range(abs(exp)):
            out = quat_mul(out, q if exp > 0 else quat_conj(q))
    return out


def _scaled(q, t):
    """Quaternion with the same axis and rotation angle scaled by t."""
    theta = quat_angle(q)
    norm = np.linalg.norm(q[1:])
    if norm < 1e-15:
        return np.array([1.0, 0, 0, 0])
    return quat_from_axis_angle(q[1:] / norm, t * theta)


def _random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def sample_point(g, k, boundary_classes, seed, subdiv=1, max_attempts=1000):
    """Sample a representation with prescribed boundary classes.

    Handle images are sampled freely; all boundary images but the last are
    sampled in their classes with random axes; the last is forced by the
    relation, and its class is matched exactly by an axis-angle solve when
    a single product is involved, by bisection along a rotation-angle path
    otherwise.  Deterministic per seed.
    """
    if not ((2 * g - 2 + k > 0) or (g, k) == (1, 0)):
        raise InvalidParameter("surface group is not hyperbolic-like: need "
                               "2g - 2 + k > 0 or (g, k) = (1, 0)")
    boundary_classes = [float(t) for t in boundary_classes]
    if len(boundary_classes) != k:
        raise InvalidAngles(f"expected {k} boundary angles")
    if any(not (0.0 < t < 2.0 * np.pi) for t in boundary_classes):
        raise InvalidAngles("boundary angles must lie strictly inside (0, 2*pi)")
    rng = np.random.default_rng(seed)

    if (g, k) == (1, 0):
        axis = _random_axis(rng)
        images = {
            "a1": quat_from_axis_angle(axis, rng.uniform(0, 2 * np.pi)),
            "b1": quat_from_axis_angle(axis, rng.uniform(0, 2 * np.pi)),
        }
        return ModuliPoint(g=g, k=k, boundary_classes=[], phi_images=images,
                           seed=seed, subdiv=subdiv)

    if not k:
        raise InvalidParameter("the sampler solves for the last boundary image, "
                               "so it needs k >= 1 unless (g, k) = (1, 0)")
    target = boundary_classes[-1]
    for attempt in range(1, max_attempts + 1):
        images = {}
        for i in range(g):
            images[f"a{i + 1}"] = random_unit_quaternion(rng)
            images[f"b{i + 1}"] = random_unit_quaternion(rng)
        for j in range(k - 1):
            images[f"c{j + 1}"] = quat_from_axis_angle(
                _random_axis(rng), boundary_classes[j])

        solved = None
        if g == 0 and k >= 2:
            solved = _solve_last_axis(images, boundary_classes, rng)
        else:
            solved = _solve_last_bisect(g, k, images, target)
        if solved is None:
            continue
        images[f"c{k}"] = solved
        got = quat_angle(solved)
        if abs(got - target) > ANGLE_TOL:
            continue
        point = ModuliPoint(g=g, k=k, boundary_classes=boundary_classes,
                            phi_images=images, seed=seed, subdiv=subdiv,
                            attempts_used=attempt)
        return point
    raise SamplingFailed(
        f"could not match boundary class {target:.4f} in {max_attempts} attempts",
        attempts=max_attempts,
    )


def _solve_last_axis(images, classes, rng):
    """Exact solve for g = 0: pick the axis of the next-to-last boundary
    image so the forced last image lands in its class."""
    k = len(classes)
    target = classes[-1]
    prefix = np.array([1.0, 0, 0, 0])
    for j in range(k - 2):
        prefix = quat_mul(prefix, images[f"c{j + 1}"])
    th = classes[k - 2]
    want = np.cos(target / 2.0)  # Re of the forced last image
    w0, im = prefix[0], prefix[1:]
    im_norm = np.linalg.norm(im)
    # Re(prefix * c_{k-1}) = w0 cos(th/2) - sin(th/2) (im . n)
    c, s = np.cos(th / 2.0), np.sin(th / 2.0)
    if im_norm < 1e-12:
        if abs(w0 * c - want) > 1e-9:
            return None
        axis = _random_axis(rng)
    else:
        gamma = (w0 * c - want) / (s * im_norm)
        if abs(gamma) > 1.0:
            return None
        u = im / im_norm
        perp = np.cross(u, _random_axis(rng))
        while np.linalg.norm(perp) < 1e-8:
            perp = np.cross(u, _random_axis(rng))
        perp /= np.linalg.norm(perp)
        axis = gamma * u + np.sqrt(max(1.0 - gamma * gamma, 0.0)) * perp
    c_last = quat_from_axis_angle(axis, th)
    images[f"c{k - 1}"] = c_last
    forced = quat_conj(quat_mul(prefix, c_last))
    return forced


def _solve_last_bisect(g, k, images, target):
    """Bisection on the rotation-angle scaling of the last handle image."""
    rel_free = _relation_word(g, k)[:-1]  # all but the forced last letter
    b_name = f"b{g}"
    b_full = images[b_name]

    def forced(t):
        imgs = dict(images)
        imgs[b_name] = _scaled(b_full, t)
        w = _quat_word(imgs, rel_free)
        return quat_conj(w), imgs

    def f(t):
        return quat_angle(forced(t)[0]) - target

    ts = np.linspace(0.0, 1.0, 65)
    vals = [f(t) for t in ts]
    bracket = None
    for lo, hi, flo, fhi in zip(ts, ts[1:], vals, vals[1:]):
        if flo == 0.0 or flo * fhi <= 0.0:
            bracket = (lo, hi, flo, fhi)
            break
    if bracket is None:
        return None
    lo, hi, flo, fhi = bracket
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    q, imgs = forced(0.5 * (lo + hi))
    images.update(imgs)
    return q


def build_system(point):
    """Mesh, metric, loops and the adjoint flat system of a point."""
    k, h, loops = surface.genus_k(point.g, point.k, point.subdiv)
    images = {name: su2_adjoint(q) for name, q in point.phi_images.items()}
    return k, h, loops, localsys.from_representation(k, loops, images)


def tangent_space(point, tol=DEFAULT_TOL):
    """Dimension data of the tangent space at the point.

    `expected_dim` is the naive count 3(2g - 2) + 2k, reported alongside
    the computed rank, never asserted; `reducible_flag` marks points with
    nonzero invariant vectors (potentially singular, excluded from the
    almost complex structure)."""
    k, h, loops, f = build_system(point)
    rp = twisted.restriction_and_parabolic(k, f, tol)
    reps = rp["parabolic_basis"].reps
    omega = twisted.parabolic_pairing(k, f, reps, tol) if reps.size else np.zeros((0, 0))
    return _tangent(point, rp["h1"].dim, omega, rp["h1"].h0.dim > 0,
                    rp["exactness_check"], tol)


def _tangent(point, dim_h1, omega, reducible, exactness, tol):
    """The tangent-space record of `tangent_space` and `moduli_acs`."""
    return {
        "dim_H1_par": omega.shape[0],
        "dim_H1": dim_h1,
        "expected_dim": 3 * (2 * point.g - 2) + 2 * point.k,
        "omega_rank": numlin.rank(omega, tol, scale=1.0),
        "reducible_flag": reducible,
        "exactness_check": exactness,
    }


def moduli_acs(point, metric=None, tol=DEFAULT_TOL):
    """Goldman-convention pair at a nonsingular point: the negated
    symplectic form and the negated complex structure, plus the
    compatibility residuals of the pair and the `tangent_space` data, read
    off the one star report."""
    k, h, loops, f = build_system(point)
    if twisted.cohomology(k, f, 0, "absolute", tol).dim:
        raise SingularPoint(
            "representation has invariant vectors (H^0 != 0); the point may "
            "be singular and carries no canonical almost complex structure"
        )
    rep = parastar.parabolic_star(k, metric if metric is not None else h, f, tol)
    acs = -rep.j_par
    goldman = -rep.omega_u
    dim = rep.dim_h1_par
    residuals = {}
    if dim:
        eye = np.eye(dim)
        residuals["acs_sq"] = float(np.abs(acs @ acs + eye).max())
        residuals["goldman_invariance"] = float(
            np.abs(acs.T @ goldman @ acs - goldman).max())
        taming = 0.5 * (goldman @ acs + (goldman @ acs).T)
        w = np.linalg.eigvalsh(taming)
        residuals["taming_min_eigenvalue"] = float(w[0])
    return {
        "dim_H1_par": dim,
        "goldman_omega": goldman,
        "acs": acs,
        "compatibility_residuals": residuals,
        "parastar_report": rep,
        "tangent": _tangent(point, rep.dim_h1, rep.omega_u, False,
                            bool(rep.residuals["parabolic_exactness"]), tol),
    }
