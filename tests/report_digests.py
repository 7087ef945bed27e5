"""Byte-identity digests of parhodge's reports, one line per input.

    python tests/report_digests.py [LABEL ...] > digests.txt

Each input (all of them, or the given labels) runs in a fresh process,
twice: cold, on meshes that the process has not built yet, and then warm,
reusing them.  The line reads the input's label and the sha256 of the
stdout, stderr and exit code of each run, cold first.  Run it in two
checkouts and `diff` the outputs: each run imports parhodge from the `src`
next to this file.  The system and mesh files are written to a temporary
directory, the same bytes every time, and named relative to it, so no path
reaches a report.

The inputs: `star` on torus, genus11 and pants at m = 6 and 12 with three
seeded SO(3) systems each; on sphere, annulus and disk at fiber 1 and 3;
on a two-component `--mesh` and on a one-holed torus `--mesh` with
perturbed `edge_lengths`, and once as text; `moduli --sample` on (1,1),
(0,3), (0,4) and (0,5) at seeds 0-9, and with `--trivial`; the `verify`
sweep, `verify` on genus11 and pants at m = 6 with fiber 3 and with an
SO(3) system; `verify --refine` on torus, pants, disk and sphere; and
demo 03.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from parhodge import cli, localsys, surface  # noqa: E402

ANGLES = {(1, 1): "3.0", (0, 3): "2.0,2.5,3.0", (0, 4): "2.0,2.5,3.0,3.5",
          (0, 5): "2.0,2.5,3.0,3.5,4.0"}
REFINE = {"torus": "8,12,16,20", "pants": "3,6,12", "disk": "4,8", "sphere": "3,6"}
DEMO = "demos/03_one_holed_torus_parabolic.py"


def _system_file(workdir, name, m, seed):
    """A seeded SO(3) representation of the example's generators."""
    _, _, loops = cli._EXAMPLES[name](m)
    images = localsys.random_images(loops, 3, np.random.default_rng(seed))
    path = f"{name}{m}-s{seed}.json"
    (workdir / path).write_text(json.dumps({"representation": {"images": {
        n: a.tolist() for n, a in images.items()}}}))
    return path


def _mesh_entries(k, lengths, offset=0):
    return ((k.tri_vertices + offset).tolist(),
            [[a + offset, b + offset, float(x)] for (a, b), x in zip(k.ends.tolist(), lengths)])


def _mesh_files(workdir):
    """A two-component mesh (genus11 and an annulus) and a one-holed torus
    whose edge lengths are perturbed off the grid's."""
    k1, h1, _ = cli._EXAMPLES["genus11"](6)
    k2, h2, _ = cli._EXAMPLES["annulus"](6)
    t1, e1 = _mesh_entries(k1, h1.lengths)
    t2, e2 = _mesh_entries(k2, h2.lengths, k1.vertex_count)
    union = {"vertices": k1.vertex_count + k2.vertex_count, "triangles": t1 + t2,
             "edge_lengths": e1 + e2}
    k, h, _ = surface.genus_k(1, 1, 2)
    scale = 1.0 + 0.05 * np.random.default_rng(5).uniform(-1.0, 1.0, k.n_edges)
    t, e = _mesh_entries(k, h.lengths * scale)
    perturbed = {"vertices": k.vertex_count, "triangles": t, "edge_lengths": e}
    for path, mesh in (("union.json", union), ("perturbed.json", perturbed)):
        (workdir / path).write_text(json.dumps(mesh))
    return "union.json", "perturbed.json"


def inputs(workdir):
    """Label -> argv of every input, its files written to `workdir`; the
    argv ["demo"] runs demo 03."""
    out = {}
    for name in ("torus", "genus11", "pants"):
        for m in (6, 12):
            for seed in range(3):
                out[f"star-{name}-m{m}-so3-s{seed}"] = [
                    "star", "--example", name, "--m", str(m),
                    "--system", _system_file(workdir, name, m, seed)]
    for name in ("sphere", "annulus", "disk"):
        for fiber in (1, 3):
            out[f"star-{name}-fiber{fiber}"] = [
                "star", "--example", name, "--m", "6", "--fiber", str(fiber)]
    union, perturbed = _mesh_files(workdir)
    out["star-union-mesh"] = ["star", "--mesh", union, "--fiber", "3"]
    out["star-perturbed-mesh"] = ["star", "--mesh", perturbed, "--fiber", "3"]
    out["star-perturbed-mesh-text"] = ["star", "--mesh", perturbed, "--format", "text"]
    for (g, k), angles in ANGLES.items():
        for seed in range(10):
            out[f"moduli-{g}-{k}-s{seed}"] = [
                "moduli", "--sample", str(g), str(k), "--angles", angles, "--seed", str(seed)]
        out[f"moduli-{g}-{k}-trivial"] = ["moduli", "--sample", str(g), str(k), "--trivial"]
    out["moduli-1-0-trivial"] = ["moduli", "--sample", "1", "0", "--trivial"]
    out["verify-sweep"] = ["verify"]
    for name in ("genus11", "pants"):
        out[f"verify-{name}-fiber3"] = ["verify", "--example", name, "--m", "6", "--fiber", "3"]
        out[f"verify-{name}-so3"] = ["verify", "--example", name, "--m", "6",
                                     "--system", _system_file(workdir, name, 6, 0)]
    for name, levels in REFINE.items():
        out[f"refine-{name}"] = ["verify", "--example", name, "--refine", levels]
    out["demo-03"] = ["demo"]
    return out


def _digest(argv):
    """sha256 of the stdout, stderr and exit code of one run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if argv == ["demo"]:
            runpy.run_path(str(ROOT / DEMO), run_name="__main__")
            code = 0
        else:
            code = cli.main(argv)
    text = json.dumps([stdout.getvalue(), stderr.getvalue(), code])
    return hashlib.sha256(text.encode()).hexdigest()


def main(labels):
    with tempfile.TemporaryDirectory() as tmp:
        table = inputs(Path(tmp))
        unknown = sorted(set(labels) - set(table))
        if unknown:
            raise SystemExit(f"unknown inputs: {unknown}")
        for label in labels or table:
            run = subprocess.run([sys.executable, __file__, "--run", *table[label]],
                                 cwd=tmp, capture_output=True, text=True, check=True)
            print(label, run.stdout.strip(), flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        argv = sys.argv[2:]
        print(_digest(argv), _digest(argv))
    else:
        main(sys.argv[1:])
