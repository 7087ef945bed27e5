"""The closed-surface sanity check: on a torus the operator is the star.

Without boundary the parabolic classes are all of degree-one cohomology and
the construction reduces to the ordinary metric star on harmonic fields.
On the unit-square flat torus that star maps the meridian class [dx] to the
longitude class [dy], and the cup pairing of the two classes is +1.

The Galerkin star (the weak finite-element star) is exact on the harmonics
of the perfectly symmetric flat grid; on a curved doughnut embedding its
defect from being a complex structure decays under refinement, which is
the reason the exact construction never relies on it.
"""

import numpy as np

from parhodge import hodge, localsys, parastar, surface, twisted


def grid_cochain(k, m, dx, dy):
    u = np.zeros(k.n_edges)
    for ei, (a, b) in enumerate(k.ends.tolist()):
        ia, ja = divmod(a, m)
        ib, jb = divmod(b, m)
        di = (ib - ia) % m
        dj = (jb - ja) % m
        di = di if di <= m // 2 else di - m
        dj = dj if dj <= m // 2 else dj - m
        u[ei] = dx * di / m + dy * dj / m
    return u


def doughnut_metric(k, m, r_major=2.0, r_minor=1.0):
    def pos(v):
        i, j = divmod(v, m)
        u, w = 2 * np.pi * i / m, 2 * np.pi * j / m
        return np.array([(r_major + r_minor * np.cos(w)) * np.cos(u),
                         (r_major + r_minor * np.cos(w)) * np.sin(u),
                         r_minor * np.sin(w)])
    return surface.metric_from_positions(
        k, np.array([pos(v) for v in range(k.vertex_count)]))


def main():
    m = 8
    k, h, _ = surface.torus(m)
    f = localsys.trivial_system(k, 1)

    print("== parabolic = ordinary cohomology on the closed torus ==")
    rep = parastar.parabolic_star(k, h, f)
    print(f"dim H^1 = {rep.dim_h1}, parabolic dim = {rep.dim_h1_par}")
    print(f"J^2 = -I residual      {rep.residuals['jpar_sq']:.2e}")
    print(f"omega invariance       {rep.residuals['omega_invariance']:.2e}")
    print(f"taming min eigenvalue  {rep.residuals['taming_min_eigenvalue']:.3f}")

    print("\n== the operator in the meridian/longitude class basis ==")
    mc = hodge.metric_complex(k, h, f)
    basis = np.column_stack([
        hodge.harmonic_representative(mc, grid_cochain(k, m, 1, 0)),
        hodge.harmonic_representative(mc, grid_cochain(k, m, 0, 1)),
    ])
    omega = twisted.parabolic_pairing(k, f, basis)
    print("cup pairing of ([dx], [dy]):")
    print(np.round(omega, 12))
    from parhodge import compat
    res = compat.compatible_complex_structure(
        basis.T @ hodge.m1_apply(mc, basis), omega)
    print("operator matrix (expect [[0, -1], [1, 0]], i.e. [dx] -> [dy]):")
    print(np.round(res.j, 12))

    print("\n== Galerkin star as a refinement diagnostic ==")
    print("flat grid (exact by symmetry) vs doughnut embedding:")
    for mm in (4, 8, 16):
        kk, hh, _ = surface.torus(mm)
        flat = hodge.galerkin_diagnostics(
            hodge.metric_complex(kk, hh, localsys.trivial_system(kk, 1)))
        curved = hodge.galerkin_diagnostics(
            hodge.metric_complex(kk, doughnut_metric(kk, mm),
                                 localsys.trivial_system(kk, 1)))
        print(f"m = {mm:2d}:  flat |J_h^2 + I| = {flat['jsq_on_ccc']:.2e}   "
              f"doughnut |J_h^2 + I| = {curved['jsq_on_ccc']:.3f}")


if __name__ == "__main__":
    main()
