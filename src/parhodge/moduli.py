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

from dataclasses import InitVar, dataclass

import numpy as np

from . import localsys, numlin, parastar, surface, twisted
from .errors import InvalidAngles, InvalidParameter, SamplingFailed, SingularPoint
from .localsys import (
    _quat_mul_parts,
    quat_angle,
    quat_conj,
    quat_from_axis_angle,
    quat_mul,
    random_unit_quaternion,
    su2_adjoint,
)
from .numlin import DEFAULT_TOL, Tolerance

# the sampler accepts a forced last boundary image within this of its class
ANGLE_TOL = 1e-6
# a given point must carry every listed class to within this.  A sampled
# point is within ANGLE_TOL of its classes; ten times that leaves room for
# the classes of a point file to be written to five decimals (half a unit
# of the fifth decimal plus ANGLE_TOL stays under 1e-5).  The images
# themselves are pinned by the relation check at `residual_tol`.
POINT_ANGLE_TOL = 1e-5


@dataclass
class ModuliPoint:
    g: int
    k: int
    boundary_classes: list  # k class angles, or none to leave them unchecked
    phi_images: dict  # generator name -> unit quaternion
    seed: int
    subdiv: int = 1
    attempts_used: int = 1
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol):
        names = _generator_names(self.g, self.k)
        missing = [n for n in names if n not in self.phi_images]
        if missing:
            raise InvalidParameter(f"missing images {missing}")
        if len(self.boundary_classes) not in (0, self.k):
            raise InvalidParameter(
                f"{len(self.boundary_classes)} boundary classes listed for "
                f"k = {self.k} boundary components; list all {self.k} or none"
            )
        for name in names:
            q = np.asarray(self.phi_images[name], dtype=float)
            if q.shape != (4,):
                raise InvalidParameter(
                    f"image {name} has shape {q.shape}; a unit quaternion has 4 entries")
            if not abs(np.linalg.norm(q) - 1.0) <= tol.residual_tol:
                raise InvalidParameter(
                    f"image {name} has norm {np.linalg.norm(q):.6f}, not 1")
        rel = _relation_word(self.g, self.k)
        q = _quat_word(self.phi_images, rel)
        if np.abs(q - np.array([1.0, 0, 0, 0])).max() > tol.residual_tol:
            raise InvalidParameter("images do not satisfy the surface-group relation")
        for j, theta in enumerate(self.boundary_classes):
            got = quat_angle(self.phi_images[f"c{j + 1}"])
            if abs(got - theta) > POINT_ANGLE_TOL:
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


def _random_axis(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def sample_point(g, k, boundary_classes, seed, subdiv=1, max_attempts=1000):
    """Sample a representation with prescribed boundary classes.

    Handle images are sampled freely; all boundary images but the last are
    sampled in their classes with random axes; the last is forced by the
    relation, and its class is matched exactly by an axis-angle solve when
    a single product is involved, by bisection along a rotation-angle path
    otherwise (`_solve_last_bisect`).  An attempt whose path never reaches
    the class is redrawn, up to `max_attempts` times.  Deterministic per
    seed: the point is a function of the seed bit for bit, and costs about
    one batched scan per attempt plus one bisection.
    """
    if g < 0 or k < 0:
        raise InvalidParameter("need g >= 0 and k >= 0")
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


# nodes of the scan for a bracket, and the cap on bisection steps
_SCAN_NODES = 65
_BISECT_STEPS = 80
# A scan node whose batched class angle lies within this of the target, or
# whose raw angle lies within it of the wrap at 2*pi, is confirmed with the
# scalar evaluation.  Batched and scalar angles differ by rounding alone
# (about 1e-15 for these unit-quaternion words), so a node outside the
# margin has the same sign both ways, and the screen never rules out a cell
# that the scalar evaluation would take.
_SCAN_MARGIN = 1e-9


class _ForcedImage:
    """The image forced on the last boundary generator when the rotation
    angle of the last handle image b_g is scaled by t, its axis fixed.

    Everything that does not depend on t is computed once: b_g's angle and
    unit axis, and the relation word up to the first b_g letter, folded
    from the identity as `_quat_word` folds it.  `at` evaluates one t on
    Python floats with the IEEE operations of `_quat_word` on the scaled
    image (`quat_mul`'s own product, without an array per product), in the
    same order and with the same numpy cos and sin, so its bits are those
    of that evaluation.  `raw_angles` evaluates many t at once; its angles
    agree only to rounding and serve to screen.
    """

    def __init__(self, g, k, images):
        word = _relation_word(g, k)[:-1]  # all but the forced last letter
        b_name = f"b{g}"
        first = word.index((b_name, 1))
        self.prefix = tuple(float(x) for x in _quat_word(images, word[:first]))
        # a letter is +1 or -1 for b_g or its inverse, else a fixed quaternion
        self.letters = [
            exp if name == b_name else tuple(float(x) for x in (
                images[name] if exp > 0 else quat_conj(images[name])))
            for name, exp in word[first:]
        ]
        b = images[b_name]
        self.theta = quat_angle(b)
        norm = np.linalg.norm(b[1:])
        self.axis = None
        if norm >= 1e-15:  # below it the scaled image is the identity
            axis = b[1:] / norm
            self.axis = tuple(float(x) for x in axis / np.linalg.norm(axis))

    def _word(self, b):
        bc = (b[0], -b[1], -b[2], -b[3])
        out = self.prefix
        for q in self.letters:
            out = _quat_mul_parts(out, b if q == 1 else bc if q == -1 else q)
        w, x, y, z = out
        return w, -x, -y, -z

    def at(self, t):
        """(forced image, scaled b_g) at t, each a 4-tuple of floats."""
        if self.axis is None:
            b = (1.0, 0.0, 0.0, 0.0)
        else:
            angle = t * self.theta
            c, s = float(np.cos(angle / 2.0)), float(np.sin(angle / 2.0))
            b = (c, s * self.axis[0], s * self.axis[1], s * self.axis[2])
        return self._word(b), b

    def raw_angles(self, ts):
        """2 atan2(|Im q|, Re q) of the forced image q at every t of `ts`,
        before the wrap at 2*pi that `quat_angle` applies."""
        if self.axis is None:
            zeros = np.zeros_like(ts)
            b = (np.ones_like(ts), zeros, zeros, zeros)
        else:
            half = ts * self.theta / 2.0
            c, s = np.cos(half), np.sin(half)
            b = (c, s * self.axis[0], s * self.axis[1], s * self.axis[2])
        w, x, y, z = self._word(b)
        return 2.0 * np.arctan2(np.sqrt(x * x + y * y + z * z), w)


def _screen(raw, target):
    """Indices i, in order, of the scan cells (t_i, t_i+1) that may be a
    bracket: those with an end the margin cannot decide, and those whose
    ends differ in sign.  Every other cell has two ends of one sign in the
    scalar evaluation too, so its product is positive and it is no bracket."""
    f = raw % (2.0 * np.pi) - target
    sure = (np.abs(f) > _SCAN_MARGIN) & (raw < 2.0 * np.pi - _SCAN_MARGIN)
    positive = f > 0.0
    return np.flatnonzero(~(sure[:-1] & sure[1:]) | (positive[:-1] != positive[1:]))


def _solve_last_bisect(g, k, images, target):
    """Bisection on the rotation-angle scaling t of the last handle image.

    The bracket is the first cell (t_i, t_i+1) of 65 evenly spaced nodes in
    [0, 1] whose scalar class-angle offsets f have f(t_i) = 0 or
    f(t_i) f(t_i+1) <= 0.  One batched pass over all nodes screens the
    cells (`_screen`), and only the cells it keeps are confirmed with the
    scalar f, in order, so the bracket is the one a scalar scan would pick;
    an attempt whose screen keeps no cell makes no scalar evaluation.  The
    bisection halves the bracket, keeping f(lo) f(hi) <= 0, for at most 80
    steps, and stops early at the float fixed point where the midpoint
    equals an end: every further step would leave 0.5 (lo + hi) unchanged.
    The forced image at that midpoint is returned, with b_g replaced in
    `images` by its scaled image; None when no cell is a bracket.
    """
    forced = _ForcedImage(g, k, images)

    def f(t):
        return quat_angle(np.array(forced.at(t)[0])) - target

    ts = np.linspace(0.0, 1.0, _SCAN_NODES)
    vals = {}
    bracket = None
    for i in _screen(forced.raw_angles(ts), target):
        for j in (i, i + 1):
            if j not in vals:
                vals[j] = f(ts[j])
        if vals[i] == 0.0 or vals[i] * vals[i + 1] <= 0.0:
            bracket = ts[i], ts[i + 1], vals[i]
            break
    if bracket is None:
        return None
    lo, hi, flo = bracket
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    q, b = forced.at(0.5 * (lo + hi))
    images[f"b{g}"] = np.array(b)
    return np.array(q)


def build_system(point, tol=DEFAULT_TOL):
    """Mesh, metric, loops and the adjoint flat system of a point."""
    k, h, loops = surface.genus_k(point.g, point.k, point.subdiv)
    images = {name: su2_adjoint(q, tol) for name, q in point.phi_images.items()}
    return k, h, loops, localsys.from_representation(k, loops, images, tol)


def tangent_space(point, tol=DEFAULT_TOL):
    """Dimension data of the tangent space at the point.

    `expected_dim` is the naive count 3(2g - 2) + 2k, reported alongside
    the computed rank, never asserted; `reducible_flag` marks points with
    nonzero invariant vectors (potentially singular, excluded from the
    almost complex structure)."""
    k, h, loops, f = build_system(point, tol)
    rp = twisted.restriction_and_parabolic(k, f, tol)
    reps = rp["parabolic_basis"].reps
    omega = (twisted.parabolic_pairing(k, f, reps, tol, rp["boundary"]) if reps.size
             else np.zeros((0, 0)))
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
    k, h, loops, f = build_system(point, tol)
    bases = twisted.h1_flavors(k, f, tol)
    if bases[0].h0.dim:
        raise SingularPoint(
            "representation has invariant vectors (H^0 != 0); the point may "
            "be singular and carries no canonical almost complex structure"
        )
    rep = parastar.parabolic_star(k, metric if metric is not None else h, f, tol,
                                  bases)
    acs = -rep.j_par
    goldman = -rep.omega_u
    dim = rep.dim_h1_par
    # the star's residuals hold for the pair exactly: (-J)^2 = J^2,
    # (-J)^T (-Omega) (-J) + Omega = -(J^T Omega J - Omega), and the
    # taming form of (-Omega)(-J) = Omega J is the star's
    r = rep.residuals
    residuals = {"acs_sq": r["jpar_sq"], "goldman_invariance": r["omega_invariance"],
                 "taming_min_eigenvalue": r["taming_min_eigenvalue"]} if dim else {}
    return {
        "dim_H1_par": dim,
        "goldman_omega": goldman,
        "acs": acs,
        "compatibility_residuals": residuals,
        "parastar_report": rep,
        "tangent": _tangent(point, rep.dim_h1, rep.omega_u, False,
                            bool(rep.residuals["parabolic_exactness"]), tol),
    }
