"""Tangent spaces of moduli of flat SU(2) connections, pointwise.

A point of the moduli space is a surface-group representation into SU(2)
with boundary monodromies in prescribed conjugacy classes.  Its adjoint
action gives a flat R^3 system on the surface; the parabolic cohomology is
the tangent space at the point and carries the symplectic pairing.  The
moduli-space convention negates both the pairing and the operator, which
leaves the compatibility untouched.

The script samples one-holed-torus points at a prescribed boundary angle,
shows the rigid three-holed sphere, and exhibits the reducible (singular)
trivial point that carries no canonical structure.
"""

import numpy as np

from parhodge import localsys, moduli
from parhodge.errors import SingularPoint


def main():
    print("== one-holed torus, boundary angle 2.2 ==")
    for seed in range(4):
        p = moduli.sample_point(1, 1, [2.2], seed=seed)
        out = moduli.moduli_acs(p)
        ts, res = out["tangent"], out["compatibility_residuals"]
        angle = localsys.quat_angle(p.phi_images["c1"])
        print(f"seed {seed}: boundary class {angle:.6f}, "
              f"dim = {ts['dim_H1_par']}, pairing rank = {ts['omega_rank']}, "
              f"taming = {res['taming_min_eigenvalue']:.3f}, "
              f"(-J)^2 + I = {res['acs_sq']:.1e}")

    print("\n== the negated pair on one point ==")
    p = moduli.sample_point(1, 1, [2.2], seed=0)
    out = moduli.moduli_acs(p)
    print("negated pairing:")
    print(np.round(out["goldman_omega"], 6))
    print("negated operator (eigenvalues +-i):")
    print(np.round(out["acs"], 6))

    print("\n== rigid pair of pants ==")
    for seed in range(3):
        p = moduli.sample_point(0, 3, [1.1, 1.9, 2.6], seed=seed)
        ts = moduli.tangent_space(p)
        print(f"seed {seed}: dim = {ts['dim_H1_par']} "
              f"(expected count {ts['expected_dim']}), "
              f"attempts used {p.attempts_used}")

    print("\n== the reducible torus point is singular ==")
    p = moduli.sample_point(1, 0, [], seed=0)
    ts = moduli.tangent_space(p)
    print(f"reducible: {ts['reducible_flag']} "
          f"(computed dim {ts['dim_H1_par']}, naive count {ts['expected_dim']})")
    try:
        moduli.moduli_acs(p)
    except SingularPoint as exc:
        print(f"moduli_acs refuses: {exc}")


if __name__ == "__main__":
    main()
