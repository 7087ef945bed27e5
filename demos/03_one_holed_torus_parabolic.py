"""Parabolic cohomology of a one-holed torus with a rotation-valued system.

The one-holed torus has a free surface group on the two handle loops, so
any pair of rotations (A, B) extends to a flat SO(3) system whose boundary
monodromy is the inverse commutator.  Degree-one cohomology is then
3-dimensional and restricting to the boundary circle cuts it down to the
2-dimensional parabolic part, on which the cup pairing is symplectic and
the metric produces the compatible complex structure.

The script also runs the projection route between the Neumann and
Dirichlet harmonic spaces: its exact facts (kernel identification, equal
ranks, trivial intersection) hold at machine precision while its Galerkin
numbers are honest discretization errors.
"""

import numpy as np

from parhodge import localsys, parastar, surface, twisted


def main():
    rng = np.random.default_rng(3)
    k, h, loops = surface.genus_k(1, 1, 1)
    a = localsys.random_rotation(rng, 3)
    b = localsys.random_rotation(rng, 3)
    c = (a @ b @ a.T @ b.T).T
    f = localsys.from_representation(k, loops, {"a1": a, "b1": b, "c1": c})

    print("== topology of the coefficients ==")
    dims = twisted.euler_characteristic_dims(k, f)
    print(f"Betti numbers (deg 0, 1, 2): {dims}; "
          f"alternating sum = {dims[0] - dims[1] + dims[2]} "
          f"= 3 * chi = {3 * k.euler_characteristic}")
    mono = localsys.boundary_monodromies(k, f)[0]
    print(f"boundary monodromy trace {np.trace(mono):.6f} "
          f"(inverse commutator trace {np.trace(c):.6f})")

    print("\n== parabolic classes and the symplectic pairing ==")
    rp = twisted.restriction_and_parabolic(k, f)
    print(f"dim H^1 = {rp['h1'].dim}, boundary H^1 = {rp['boundary_h1_dim']}, "
          f"parabolic = {rp['parabolic_basis'].dim}")
    print(f"kernel of restriction equals image from the relative side: "
          f"{rp['exactness_check']}")
    omega = twisted.parabolic_pairing(k, f, rp["parabolic_basis"].reps)
    print("pairing matrix:")
    print(np.round(omega, 6))

    print("\n== the compatible complex structure ==")
    rep = parastar.parabolic_star(k, h, f)
    print("operator:")
    print(np.round(rep.j_par, 6))
    for key in ("jpar_sq", "omega_invariance", "taming_min_eigenvalue",
                "omega_rep_independence"):
        print(f"{key:24s} {rep.residuals[key]:.3e}")
    eigs = np.linalg.eigvals(rep.j_par)
    print(f"eigenvalues: {np.round(np.sort_complex(eigs), 9)}")

    print("\n== two metrics, one pairing ==")
    h2 = surface.perturbed_metric(k, h, rng, amplitude=0.15)
    rep2 = parastar.parabolic_star(k, h2, f)
    print(f"pairing identical: {np.array_equal(rep.omega_u, rep2.omega_u)}; "
          f"operator moved by {np.abs(rep.j_par - rep2.j_par).max():.3f}; "
          f"both compatible: {rep.theorem_residuals_ok()} / "
          f"{rep2.theorem_residuals_ok()}")

    print("\n== projection route between the harmonic flavors ==")
    amb = parastar.ambient_route_diagnostic(k, h, f)
    for key in ("kernel_check", "rank_equal", "lemma34_trivial_intersection",
                "span_agrees_with_parabolic"):
        print(f"{key:32s} {amb[key]}")
    print(f"span angle vs parabolic space    {amb['span_angle']:.2e}")
    print(f"Galerkin intertwining residual   {amb['p38_residual']:.3f} "
          "(decays under refinement)")

    print("\n== shrinking the hole recovers the closed-torus star ==")
    for subdiv in (1, 2, 3):
        mm = 3 * subdiv
        kk, hh, _ = surface.genus_k(1, 1, subdiv)
        ff = localsys.trivial_system(kk, 1)
        from parhodge import compat, hodge

        def grid(dx, dy):
            u = np.zeros(kk.n_edges)
            for ei, (x, y) in enumerate(kk.ends.tolist()):
                ia, ja = divmod(x, mm)
                ib, jb = divmod(y, mm)
                di = (ib - ia) % mm
                dj = (jb - ja) % mm
                di = di if di <= mm // 2 else di - mm
                dj = dj if dj <= mm // 2 else dj - mm
                u[ei] = dx * di / mm + dy * dj / mm
            return u

        basis = np.column_stack([grid(1, 0), grid(0, 1)])
        omega = twisted.parabolic_pairing(kk, ff, basis)
        mc = hodge.metric_complex(kk, hh, ff)
        harm = np.column_stack([
            hodge.harmonic_representative(mc, basis[:, 0]),
            hodge.harmonic_representative(mc, basis[:, 1]),
        ])
        res = compat.compatible_complex_structure(
            harm.T @ hodge.m1_apply(mc, harm), omega)
        err = np.abs(res.j - np.array([[0.0, -1.0], [1.0, 0.0]])).max()
        print(f"grid {mm:2d}: class pairing = {omega[0, 1]:.12f} "
              f"(intersection number), distance to the star = {err:.5f}")


if __name__ == "__main__":
    main()
