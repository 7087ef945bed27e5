"""Batch front door: run the pipelines on files or builtin examples.

Subcommands
    star    compute the parabolic star report for a mesh + system
    moduli  tangent space and compatible pair at a sampled representation
    verify  invariant sweep over builtin examples, or a refinement table

Exit codes: 0 success, 2 validation error, 3 symplectic degeneracy,
4 singular moduli point, 5 internal error.  The environment variable
PARHODGE_TOL overrides the residual tolerance; --tolerance beats both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import (
    _serialize,
    hodge,
    localsys,
    moduli,
    parastar,
    surface,
    twisted,
)
from .errors import (
    ConditionFailed,
    NotConnectedWarning,
    ParhodgeError,
    SamplingFailed,
    SingularPoint,
)
from .numlin import Tolerance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_SINGULAR = 4
EXIT_INTERNAL = 5

_EXAMPLES = {
    "torus": lambda m: surface.torus(m),
    "annulus": lambda m: surface.annulus(max(m, 3), 2),
    "disk": lambda m: surface.disk(m),
    "genus11": lambda m: surface.genus_k(1, 1, max(m // 3, 1)),
    "pants": lambda m: surface.genus_k(0, 3, max(m // 3, 1)),
    "sphere": lambda m: surface.genus_k(0, 0, max(m // 3, 1)),
}


def _tolerance(args):
    residual = 1e-9
    env = os.environ.get("PARHODGE_TOL")
    if env:
        residual = float(env)
    if args.tolerance is not None:
        residual = args.tolerance
    rank = args.rank_tolerance if args.rank_tolerance is not None else 1e-10
    return Tolerance(rank_tol=rank, residual_tol=residual)


def _emit(args, payload):
    text = _serialize.write_report(payload, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _example(name, m):
    if name not in _EXAMPLES:
        raise ParhodgeError(f"unknown example {name!r}; choose from {sorted(_EXAMPLES)}")
    return _EXAMPLES[name](m)


def _read_json(path, what):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParhodgeError(f"{what} JSON parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ParhodgeError(f"{what} JSON must be an object")
    return data


def _load_inputs(args, tol):
    if args.example:
        k, h, loops = _example(args.example, args.m)
    else:
        if not args.mesh:
            raise ParhodgeError("need --mesh FILE or --example NAME")
        k, h = surface.mesh_from_json(_read_json(args.mesh, "mesh"))
        loops = None
    if args.system:
        f = localsys.system_from_json(k, _read_json(args.system, "system"), loops, tol)
    else:
        f = localsys.trivial_system(k, args.fiber)
    return k, h, loops, f


def cmd_star(args):
    tol = _tolerance(args)
    k, h, _, f = _load_inputs(args, tol)
    report = parastar.parabolic_star(k, h, f, tol)
    _emit(args, report.to_dict())
    return EXIT_OK if report.theorem_residuals_ok(tol) else EXIT_VALIDATION


def cmd_moduli(args):
    tol = _tolerance(args)
    if args.point:
        point = _point_from_json(_read_json(args.point, "point"), tol)
    else:
        if args.sample is None:
            raise ParhodgeError("need --point FILE or --sample G K")
        g, kk = args.sample
        angles = [float(a) for a in args.angles.split(",")] if args.angles else []
        if args.trivial:
            names = moduli._generator_names(g, kk)
            images = {n: np.array([1.0, 0, 0, 0]) for n in names}
            point = moduli.ModuliPoint(g=g, k=kk, boundary_classes=[],
                                       phi_images=images, seed=args.seed, tol=tol)
        else:
            point = moduli.sample_point(g, kk, angles, args.seed)
    acs = moduli.moduli_acs(point, tol=tol)  # raises SingularPoint if reducible
    payload = {
        "point": {
            "g": point.g, "k": point.k, "seed": point.seed,
            "boundary_classes": list(point.boundary_classes),
            "attempts_used": point.attempts_used,
            "phi_images": {n: np.asarray(q, dtype=float).tolist()
                           for n, q in sorted(point.phi_images.items())},
        },
        "tangent": acs["tangent"],
    }
    for key in ("goldman_omega", "acs"):
        payload[key] = np.atleast_2d(acs[key]).astype(float).tolist() if acs[key].size else []
    payload["compatibility_residuals"] = {
        key: float(v) for key, v in acs["compatibility_residuals"].items()
    }
    _emit(args, payload)
    ok = all(
        v > 0 if key == "taming_min_eigenvalue" else v < tol.residual_tol
        for key, v in acs["compatibility_residuals"].items()
    )
    return EXIT_OK if ok else EXIT_VALIDATION


def _point_from_json(data, tol):
    if not {"g", "k"} <= data.keys():
        raise ParhodgeError("point JSON must be an object with 'g' and 'k'")
    images = data.get("phi_images", {})
    if not (all(surface.is_json_array(data.get(key, 0), 0, int)
                for key in ("g", "k", "seed", "subdiv"))
            and surface.is_json_array(data.get("boundary_classes", []), 1)
            and isinstance(images, dict)
            and all(surface.is_json_array(q, 1) for q in images.values())):
        raise ParhodgeError("point needs integer 'g', 'k', 'seed' and 'subdiv', and "
                            "number lists in 'boundary_classes' and 'phi_images'")
    if "phi_images" in data:
        images = {n: np.asarray(q, dtype=float) for n, q in images.items()}
        return moduli.ModuliPoint(
            g=int(data["g"]), k=int(data["k"]),
            boundary_classes=[float(t) for t in data.get("boundary_classes", [])],
            phi_images=images, seed=int(data.get("seed", 0)),
            subdiv=int(data.get("subdiv", 1)), tol=tol,
        )
    return moduli.sample_point(
        int(data["g"]), int(data["k"]),
        [float(t) for t in data.get("boundary_classes", [])],
        int(data.get("seed", 0)), subdiv=int(data.get("subdiv", 1)),
    )


def _verify_case(k, h, f, tol, rng):
    """One invariant sweep; returns a dict of residual numbers and flags.
    Each system's H^1 bases are cut once and shared by every check."""
    out = {}
    n = f.fiber_dim
    bases = twisted.h1_flavors(k, f, tol)
    dims = twisted.euler_characteristic_dims(k, f, tol, bases[0])
    out["betti"] = dims
    out["euler_ok"] = (dims[0] - dims[1] + dims[2]) == n * k.euler_characteristic
    # the star report builds its own metric complex; this one goes first
    rep = hodge.hodge_decomposition(hodge.metric_complex(k, h, f, tol), bases)["report"]
    out["orthogonality_max"] = max(rep["orthogonality"].values())
    out["dim_sum_ok"] = rep["dim_sum_ok"]
    out["harmonic_in_ccc_max"] = max(
        rep["refinement_report"]["H_N_in_CcC_residual"],
        rep["refinement_report"]["H_D_in_CcC_residual"],
    )
    star = parastar.parabolic_star(k, h, f, tol, bases)
    out["dim_H1_par"] = star.dim_h1_par
    out["parabolic_even"] = star.dim_h1_par % 2 == 0
    out["exactness_ok"] = bool(star.residuals["parabolic_exactness"])
    gauges = [localsys.random_rotation(rng, n) for _ in range(k.vertex_count)]
    gauged = localsys.gauge_transform(k, f, gauges)
    gauged_bases = twisted.h1_flavors(k, gauged, tol)
    rp2 = twisted.restriction_and_parabolic(k, gauged, tol, gauged_bases)
    out["gauge_dims_ok"] = (
        rp2["parabolic_basis"].dim == star.dim_h1_par
        and twisted.euler_characteristic_dims(k, gauged, tol, gauged_bases[0]) == dims
    )
    out["theorem_ok"] = star.theorem_residuals_ok(tol)
    out["ok"] = bool(
        out["euler_ok"] and out["dim_sum_ok"] and out["parabolic_even"]
        and out["exactness_ok"] and out["gauge_dims_ok"] and out["theorem_ok"]
        and out["orthogonality_max"] < tol.residual_tol
        and out["harmonic_in_ccc_max"] < tol.residual_tol
    )
    return out


def cmd_verify(args):
    tol = _tolerance(args)
    rng = np.random.default_rng(args.seed)
    if args.refine is not None:
        if args.mesh or args.system:
            raise ParhodgeError("--refine refines a builtin --example; it takes "
                                "no --mesh or --system")
        levels = [int(x) for x in args.refine.split(",")]
        name = args.example or "torus"
        rows = []
        for m in levels:
            k, h, _ = _example(name, m)
            f = localsys.trivial_system(k, args.fiber)
            mc = hodge.metric_complex(k, h, f, tol)
            diag = hodge.galerkin_diagnostics(mc)
            rows.append({"m": m, **{key: diag[key] for key in
                                    ("jsq_on_ccc", "angle_j_hn_vs_hd",
                                     "p38_residual", "skew_residual")}})
        _emit(args, {"example": name, "refinement": rows})
        return EXIT_OK

    if args.mesh or args.example:
        k, h, _, f = _load_inputs(args, tol)
        case = _verify_case(k, h, f, tol, rng)
        _emit(args, {"case": case})
        return EXIT_OK if case["ok"] else EXIT_VALIDATION

    cases = {}
    ok = True
    for name in ("torus", "annulus", "disk", "genus11"):
        k, h, loops = _EXAMPLES[name](6 if name != "genus11" else 3)
        for label, f in (
            ("trivial_R", localsys.trivial_system(k, 1)),
            ("trivial_R3", localsys.trivial_system(k, 3)),
            ("random_SO3", localsys.random_flat_system(k, loops, 3, rng)),
        ):
            case = _verify_case(k, h, f, tol, rng)
            cases[f"{name}/{label}"] = case
            ok = ok and case["ok"]
    _emit(args, {"sweep": cases})
    return EXIT_OK if ok else EXIT_VALIDATION


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="parhodge",
        description="Compatible complex structures on parabolic cohomology "
                    "of triangulated surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tolerance", type=float, default=None,
                       help="residual tolerance (also env PARHODGE_TOL)")
        p.add_argument("--rank-tolerance", dest="rank_tolerance", type=float,
                       default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "text"), default="json")

    star = sub.add_parser("star", help="parabolic star report")
    star.add_argument("--mesh", help="mesh JSON file")
    star.add_argument("--system", help="system JSON file")
    star.add_argument("--example", help="builtin surface name")
    star.add_argument("--m", type=int, default=8, help="grid resolution")
    star.add_argument("--fiber", type=int, default=1,
                      help="trivial-system fiber dimension when no --system")
    common(star)

    mod = sub.add_parser("moduli", help="moduli tangent space report")
    mod.add_argument("--point", help="point JSON file")
    mod.add_argument("--sample", nargs=2, type=int, metavar=("G", "K"))
    mod.add_argument("--angles", default="",
                     help="comma-separated boundary class angles in (0, 2pi)")
    mod.add_argument("--trivial", action="store_true",
                     help="use the trivial representation (singular)")
    common(mod)

    ver = sub.add_parser("verify", help="invariant sweep / refinement table")
    ver.add_argument("--mesh", help="mesh JSON file")
    ver.add_argument("--system", help="system JSON file")
    ver.add_argument("--example", help="builtin surface name")
    ver.add_argument("--m", type=int, default=6)
    ver.add_argument("--fiber", type=int, default=1)
    ver.add_argument("--refine", help="comma-separated resolutions, e.g. 4,8")
    common(ver)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebound cmd_* is the one that runs
    commands = {"star": cmd_star, "moduli": cmd_moduli, "verify": cmd_verify}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConnectedWarning)
            return commands[args.command](args)
    except ConditionFailed as exc:
        print(f"error: ConditionFailed: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (SingularPoint,) as exc:
        print(f"error: SingularPoint: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ParhodgeError, SamplingFailed, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
