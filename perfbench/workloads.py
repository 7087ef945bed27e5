"""Workloads of the parhodge benchmark: inputs, operations and output gates.

Every operation is one call of the program's front door,
`parhodge.cli.main(argv)`, and its report is checked by a gate that knows
the exact answer for that input.  Inputs come only from the workload seed.

star-dense
    `star` on the torus and the one-holed torus (`genus11`) at m = 12, both
    with 1-cochain dimension 1296, each operation on a fresh random SO(3)
    representation written as a system JSON during set-up.  Dense SVD and
    `eigh` in twisted/hodge/numlin do almost all the work, and the Galerkin
    diagnostics most of that.  It covers the closed path and the boundary
    path (the parabolic lift).
moduli-sweep
    `moduli --sample G K` over (1,1), (0,3) and (0,4) at subdivision 1
    (dimensions 81, 189, 279), MODULI_POOL point seeds per surface derived
    from the workload seed and reused cyclically, so that each point is
    timed many times across the run.  Per-call overhead, Python-loop
    assembly, coboundary rebuilds and the sampler's retries and bisection
    dominate; (0,3) takes the dim H^1_par = 0 branch.
galerkin-refine
    `verify --example torus --refine 8,12,16,20` with fiber 1, where the
    Galerkin diagnostics are the product.  The input does not depend on the
    seed, so every operation repeats the same report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from parhodge import cli, localsys

RESIDUAL_TOL = 1e-9
STAR_DIM = 2  # dim H^1_par of a generic SO(3) system on both star meshes
STAR_EXAMPLES = ("torus", "genus11")
STAR_POOL = 64  # systems per example; operations reuse them cyclically
# point seeds per moduli surface; a 30 s run times each point about 15 times
MODULI_POOL = 4
MODULI_SURFACES = ((1, 1, "3.0"), (0, 3, "2.0,2.5,3.0"),
                   (0, 4, "2.0,2.5,3.0,3.5"))
STAR_RESIDUALS = ("jpar_sq", "omega_invariance", "metric_isometry",
                  "omega_rep_independence")
REFINE_FIELDS = ("jsq_on_ccc", "angle_j_hn_vs_hd", "p38_residual",
                 "skew_residual")


@dataclass(frozen=True)
class Op:
    """One front-door call with the exact answer its report must give."""

    key: str  # identifies the input exactly: argv with file contents hashed
    argv: tuple
    check: Callable[[dict, object], list]
    expected: object


def _small(value):
    return isinstance(value, (int, float)) and 0.0 <= value <= RESIDUAL_TOL


def check_star(report, expected_dim):
    problems = []
    if report.get("dim_H1_par") != expected_dim:
        problems.append(f"dim_H1_par {report.get('dim_H1_par')} != {expected_dim}")
    res = report.get("residuals") or {}
    problems += [f"{key} = {res.get(key)!r} above {RESIDUAL_TOL}"
                 for key in STAR_RESIDUALS if not _small(res.get(key))]
    taming = res.get("taming_min_eigenvalue")
    if not (isinstance(taming, float) and taming > 0.0):
        problems.append(f"taming_min_eigenvalue = {taming!r} not positive")
    if res.get("parabolic_exactness") != 1:
        problems.append("parabolic exactness check failed")
    j_par = report.get("J_par") or []
    if len(j_par) != expected_dim or any(len(row) != expected_dim for row in j_par):
        problems.append("J_par has the wrong shape")
    return problems


def check_moduli(report, expected_dim):
    problems = []
    tangent = report.get("tangent") or {}
    for key in ("dim_H1_par", "omega_rank"):
        if tangent.get(key) != expected_dim:
            problems.append(f"{key} {tangent.get(key)} != {expected_dim}")
    if tangent.get("reducible_flag") is not False:
        problems.append("point flagged reducible")
    if tangent.get("exactness_check") is not True:
        problems.append("parabolic exactness check failed")
    res = report.get("compatibility_residuals")
    if res is None:
        return problems + ["no compatibility residuals"]
    if expected_dim:
        problems += [f"{key} = {res.get(key)!r} above {RESIDUAL_TOL}"
                     for key in ("acs_sq", "goldman_invariance")
                     if not _small(res.get(key))]
        taming = res.get("taming_min_eigenvalue")
        if not (isinstance(taming, float) and taming > 0.0):
            problems.append(f"taming_min_eigenvalue = {taming!r} not positive")
    elif res or report.get("acs"):
        problems.append("zero-dimensional tangent space carries a structure")
    acs = report.get("acs") or []
    if len(acs) != expected_dim or any(len(row) != expected_dim for row in acs):
        problems.append("acs has the wrong shape")
    return problems


def check_refine(report, expected_levels):
    """On the flat square torus the Galerkin star is exact, so every
    diagnostic sits at the float-noise floor at every level."""
    rows = report.get("refinement") or []
    problems = []
    if report.get("example") != "torus":
        problems.append(f"example {report.get('example')!r} != 'torus'")
    if [row.get("m") for row in rows] != list(expected_levels):
        problems.append(f"levels {[row.get('m') for row in rows]} != "
                        f"{list(expected_levels)}")
    problems += [f"m={row.get('m')} {key} = {row.get(key)!r} above {RESIDUAL_TOL}"
                 for row in rows for key in REFINE_FIELDS
                 if not _small(row.get(key))]
    return problems


def derived_seed(seed, index):
    """Point seed of operation `index`, a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def star_dense(seed, workdir, tiny):
    m = 6 if tiny else 12
    rng = np.random.default_rng(seed)
    pools = {}
    for example in STAR_EXAMPLES:
        _, _, loops = cli._EXAMPLES[example](m)
        pool = []
        for i in range(STAR_POOL):
            images = localsys.random_images(loops, 3, rng)
            text = json.dumps({"representation": {"images": {
                name: mat.tolist() for name, mat in images.items()}}})
            path = Path(workdir) / f"{example}-{i}.json"
            path.write_text(text)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            pool.append(Op(
                key=f"star --example {example} --m {m} --system sha256:{digest}",
                argv=("star", "--example", example, "--m", str(m),
                      "--system", str(path)),
                check=check_star, expected=STAR_DIM))
        pools[example] = pool
    return lambda i: [pools[ex][i % STAR_POOL] for ex in STAR_EXAMPLES]


def moduli_sweep(seed, workdir, tiny):
    def round_ops(i):
        ops = []
        for j, (g, k, angles) in enumerate(MODULI_SURFACES):
            argv = ("moduli", "--sample", str(g), str(k), "--angles", angles,
                    "--seed", str(derived_seed(
                        seed, len(MODULI_SURFACES) * (i % MODULI_POOL) + j)))
            ops.append(Op(key=" ".join(argv), argv=argv, check=check_moduli,
                          expected=6 * g - 6 + 2 * k))
        return ops
    return round_ops


def galerkin_refine(seed, workdir, tiny):
    levels = (4, 6) if tiny else (8, 12, 16, 20)
    argv = ("verify", "--example", "torus", "--refine",
            ",".join(map(str, levels)), "--fiber", "1")
    op = Op(key=" ".join(argv), argv=argv, check=check_refine, expected=levels)
    return lambda i: [op]


WORKLOADS = {
    "star-dense": star_dense,
    "moduli-sweep": moduli_sweep,
    "galerkin-refine": galerkin_refine,
}
