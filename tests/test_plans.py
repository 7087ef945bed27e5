"""The builtin meshes are shared across calls and read-only, and the walk
and level plans kept on a mesh change no report: a warm run prints what
a cold one does, bit for bit."""

import json

import numpy as np
import pytest

from parhodge import cli, hodge, localsys, numlin, surface, twisted

_BUILTINS = [(surface.torus, (4,)), (surface.annulus, (4, 2)), (surface.disk, (5,)),
             (surface.sphere, (2,)), (surface.genus_k, (0, 3, 1)),
             (surface.genus_k, (1, 1, 1))]


@pytest.mark.parametrize("make,args", _BUILTINS,
                         ids=[f"{make.__name__}{args}" for make, args in _BUILTINS])
def test_builtin_meshes_are_shared_and_read_only(make, args):
    k, h, loops = make(*args)
    again = make(*args)
    assert again[0] is k and again[1] is h and again[2] is loops
    arrays = [(name, a) for x in (k, h) for name, a in vars(x).items()
              if isinstance(a, np.ndarray)]
    assert {"tri_vertices", "tri_edges", "edge_slots", "ends", "sorted_sign",
            "component_of", "lengths"} <= {name for name, _ in arrays}
    for name, a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_the_shared_meshes_stay_within_their_bound():
    first = surface.torus(3)
    for m in range(3, 3 + 2 * surface._SHARED_MESHES):
        surface.torus(m)
        assert surface._shared.cache_info().currsize <= surface._SHARED_MESHES
    assert surface._shared.cache_info().maxsize == surface._SHARED_MESHES
    # the least recently used mesh went first, and comes back built afresh
    assert surface.torus(3)[0] is not first[0]


def test_a_warm_mesh_plans_its_levels_per_base(monkeypatch):
    # torus(20) at fiber 1 merges depths into levels at the default base,
    # and takes one level per depth at a base of 4 rows
    k, h, _ = surface.torus(20)
    f = localsys.trivial_system(k, 1)
    mc = hodge.metric_complex(k, h, f)
    h0 = twisted.cohomology(k, f, 0)
    u = np.random.default_rng(95).standard_normal((k.n_edges, 2))
    solve, sizes = numlin.block_tridiagonal_solve, []

    def recording(levels, dims, rhs):
        sizes.append(list(dims))
        return solve(levels, dims, rhs)

    monkeypatch.setattr(numlin, "block_tridiagonal_solve", recording)
    kept, depth = np.ones(k.vertex_count, dtype=bool), twisted._walk(k, "absolute").forest.depth
    want = []
    for base in (numlin.BASE_ROWS, 4, numlin.BASE_ROWS):
        monkeypatch.setattr(numlin, "BASE_ROWS", base)
        want.append(hodge._levels(kept, depth, 1)[3].tolist())
        hodge.harmonic_representative(mc, u, h0)
    assert sizes == want and len(want[1]) > len(want[0])


def _system_file(tmp_path, name):
    _, _, loops = cli._EXAMPLES[name](6)
    images = localsys.random_images(loops, 3, np.random.default_rng(96))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"representation": {"images": {
        n: a.tolist() for n, a in images.items()}}}))
    return str(path)


# the workloads' argv shapes at small sizes, on five surfaces; each is run
# between runs of the next, which is another surface, or the same mesh at
# another fiber dimension
_INPUTS = [
    ["star", "--example", "torus", "--m", "6", "--system", "torus"],
    ["star", "--example", "genus11", "--m", "6", "--system", "genus11"],
    ["star", "--example", "pants", "--m", "6", "--system", "pants"],
    ["moduli", "--sample", "1", "1", "--angles", "3.0", "--seed", "5"],
    ["moduli", "--sample", "0", "3", "--angles", "2.0,2.5,3.0", "--seed", "5"],
    ["moduli", "--sample", "0", "4", "--angles", "2.0,2.5,3.0,3.5", "--seed", "5"],
    ["verify", "--example", "torus", "--refine", "4,6", "--fiber", "1"],
]


@pytest.mark.parametrize("index", range(len(_INPUTS)), ids=lambda i: " ".join(_INPUTS[i][:4]))
def test_warm_runs_print_what_a_cold_run_prints(tmp_path, capsys, index):
    files = {}

    def argv(i):
        args = list(_INPUTS[i % len(_INPUTS)])
        if "--system" in args:
            name = args[-1]
            files.setdefault(name, _system_file(tmp_path, name))
            args[-1] = files[name]
        return args

    a, b = argv(index), argv(index + 1)
    surface._shared.cache_clear()
    outs = []
    for args in (a, b, a, b, a):
        assert cli.main(args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[2] == outs[0] and outs[4] == outs[0] and outs[3] == outs[1]
