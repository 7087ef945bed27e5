"""The level-batched forest, the live-set cotree elimination, the
edge-slot gathers, the boundary walk on stored step directions, the masks
read off `edge_slots` and the generator loops' stored steps against their
queue, `np.add.at`, step-by-step and per-path oracles (`walk_oracle`):
equal bit for bit, down to the report bytes.  A mesh keeps its walks, so
every oracle pass runs on fresh meshes."""

import contextlib
import json

import numpy as np
import pytest

from parhodge import cli, hodge, localsys, numlin, surface, twisted

import walk_oracle
from test_twisted import _oracle_cases

_WALKS = ("_flat_forest", "_cotree", "_cocycles_off_tree", "_boundary_walk")


def _use_oracles(monkeypatch):
    """Swap in every oracle; returns the set that collects the names of
    the walks (`_WALKS`) that ran."""
    called = set()

    def counted(name, oracle):
        def wrapped(*args):
            called.add(name)
            return oracle(*args)
        return wrapped

    # the oracle record is the system itself, so the oracle walk recomputes
    # every holonomy and SVD on each call
    for name in ("_flat_forest", "_cotree", "_cocycles_off_tree", "_d0_adjoint",
                 "boundary_record", "_boundary_walk", "interior_edge_mask",
                 "interior_vertex_mask"):
        oracle = getattr(walk_oracle, name)
        monkeypatch.setattr(twisted, name, counted(name, oracle) if name in _WALKS else oracle)
    for name in ("_triangle_apply", "_edge_sums"):
        monkeypatch.setattr(hodge, name, getattr(walk_oracle, name))
    monkeypatch.setattr(localsys, "boundary_monodromies", walk_oracle.boundary_monodromies)
    return called


@contextlib.contextmanager
def _oracle_pass(walks=_WALKS):
    """The oracles swapped in on cold meshes, checking on the way out that
    each of `walks` ran: a mesh keeps its walks, so on a warm one the
    oracles would read the fast walks' plans and test nothing."""
    surface._shared.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        called = _use_oracles(mp)
        yield
    assert set(walks) <= called, set(walks) - called


def _bases(k, f):
    out = []
    for flavor in ("absolute", "relative"):
        for degree in (0, 1, 2):
            basis = twisted.cohomology(k, f, degree, flavor)
            out.append((basis.dim, basis.reps.tobytes()))
            if degree == 1:
                out.append(basis.h0.reps.tobytes())
    return out


def test_cohomology_matches_the_queue_walks_bit_for_bit():
    got = [(label, _bases(k, f)) for label, k, f in _oracle_cases((3, 6, 12))]
    with _oracle_pass(_WALKS[:3]):
        # the same cases on fresh meshes
        for (label, k, f), (want_label, bases) in zip(_oracle_cases((3, 6, 12)), got):
            assert label == want_label and _bases(k, f) == bases, label


def _apply_cases(rng):
    for name in ("torus", "genus11", "pants", "disk"):
        for m in (6, 12):
            k, h, loops = cli._EXAMPLES[name](m)
            for f in (localsys.trivial_system(k, 1),
                      localsys.random_flat_system(k, loops, 3, rng)):
                yield f"{name}{m}/{f.fiber_dim}", hodge.metric_complex(k, h, f)


def test_gathers_match_the_add_at_scatter_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(80)
    for label, mc in _apply_cases(rng):
        x = rng.standard_normal((mc.f.fiber_dim * mc.k.n_edges, 6))
        # a column of signed zeros: the lone -0.0 on a boundary edge
        x[:, 5] = -0.0
        # values on the slots, with signed zeros scattered among them
        y = rng.standard_normal((3 * mc.k.n_triangles + 1, mc.f.fiber_dim, 2))
        y[rng.random(y.shape) < 0.3] = -0.0
        y[-1] = 0.0
        got = [hodge.m1_apply(mc, x), hodge.m1_apply(mc, x[:, 0]),
               hodge.galerkin_operator(mc)(x), hodge.galerkin_operator(mc)(x[:, :1]),
               hodge._edge_sums(mc.k, y), twisted._d0_adjoint(mc.k, mc.f, x),
               twisted._d0_adjoint(mc.k, mc.f, x[:, :0])]
        with monkeypatch.context() as mp:
            # the applies walk nothing, so no walk needs to run here
            _use_oracles(mp)
            want = [hodge.m1_apply(mc, x), hodge.m1_apply(mc, x[:, 0]),
                    hodge.galerkin_operator(mc)(x), hodge.galerkin_operator(mc)(x[:, :1]),
                    hodge._edge_sums(mc.k, y), twisted._d0_adjoint(mc.k, mc.f, x),
                    twisted._d0_adjoint(mc.k, mc.f, x[:, :0])]
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype, label
            assert a.tobytes() == b.tobytes(), label


def _boundary_cases(rng):
    for name in ("annulus", "disk", "genus11", "pants"):
        for m in (3, 6, 12):
            k, _, loops = cli._EXAMPLES[name](m)
            for n in (1, 3):
                yield f"{name}{m}/{n}", k, loops, localsys.random_flat_system(k, loops, n, rng)


def _same_bits(got, want):
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_boundary_walk_and_holonomies_match_their_oracles_bit_for_bit():
    tol, rng = numlin.DEFAULT_TOL, np.random.default_rng(84)
    for label, k, loops, f in _boundary_cases(rng):
        n = f.fiber_dim
        assert twisted.interior_edge_mask(k).tobytes() == \
            walk_oracle.interior_edge_mask(k).tobytes(), label
        assert twisted.interior_vertex_mask(k).tobytes() == \
            walk_oracle.interior_vertex_mask(k).tobytes(), label
        x = rng.standard_normal((n * k.n_edges, 5))
        # one record serves every walk; the oracle recomputes it per walk
        record = twisted.boundary_record(k, f, tol)
        for u in (twisted.cohomology(k, f, 1).reps, x, x[:, :1], x[:, :0]):
            want = walk_oracle._boundary_walk(k, walk_oracle.boundary_record(k, f, tol), u, True)
            assert _same_bits(twisted._boundary_walk(k, record, u, True), want), label
            coords, primitive = twisted._boundary_walk(k, record, u, False)
            assert primitive is None and _same_bits([coords], want[:1]), label
        assert _same_bits(localsys.boundary_monodromies(k, f),
                          walk_oracle.boundary_monodromies(k, f)), label


@pytest.mark.parametrize("name", sorted(cli._EXAMPLES))
def test_generator_loop_steps_fold_as_the_per_path_oracle(name):
    """The holonomy that compiling images checks for each generator loop,
    the fold of the steps stored with the mesh, is the transport along
    the loop's vertex path with a search of its own, bit for bit; the
    transports are not flat, so a wrong edge or direction shows."""
    rng = np.random.default_rng(85)
    for m in (3, 6, 12):
        k, _, loops = cli._EXAMPLES[name](m)
        transports = rng.standard_normal((k.n_edges, 3, 3))
        assert len(loops.steps) == len(loops.loops)
        for (label, path), steps in zip(loops.loops, loops.steps):
            got = localsys._fold(transports.take(steps["edges"], axis=0), steps["forward"])
            want = walk_oracle.path_transport(k, transports, path)
            assert _same_bits([got], [want]), (name, m, label)


def _live_cases():
    yield from _oracle_cases()
    k, _, loops = surface.torus(24)
    yield "torus24/SO3", k, localsys.random_flat_system(k, loops, 3, np.random.default_rng(81))


def _forest_calls(k, f, flavor):
    """The arguments of every `_flat_forest` call that cutting the flavor's
    H^0 and H^2 makes: the vertex graph's and the dual graph's."""
    calls = []
    forest = twisted._flat_forest

    def record(*args):
        calls.append(args)
        return forest(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twisted, "_flat_forest", record)
        twisted.cohomology(k, f, 0, flavor)
        twisted.cohomology(k, f, 2, flavor)
    return calls


def test_walks_match_their_queue_oracles():
    labels = set()
    for label, k, f in _live_cases():
        labels.add(label)
        walks = {flavor: twisted._walk(k, flavor) for flavor in ("absolute", "relative")}
        duals = {flavor: walk.loose for flavor, walk in walks.items()}
        # every edge dual: a corner triangle of pants then lies on two
        # outside edges, and its second one starts no walk
        duals["all"] = np.ones(k.n_edges, dtype=bool)
        for name, dual in duals.items():
            case = (label, name)
            order, parent, up, loops = twisted._cotree(k, dual)
            want = walk_oracle._cotree(k, dual)
            assert order == want[0] and up == want[2], case
            assert np.array_equal(parent, want[1]) and np.array_equal(loops, want[3]), case
        for flavor in ("absolute", "relative"):
            case = (label, flavor)
            # the vertex forest spans the flavor's active edges, with the
            # boundary pinned in the relative flavor
            forest = walks[flavor].forest
            relative = flavor == "relative"
            active = walk_oracle.interior_edge_mask(k) | (not relative)
            assert np.array_equal(forest.ends, k.ends[active]), case
            assert np.array_equal(forest.pinned, ~walk_oracle.interior_vertex_mask(k)
                                  & relative), case
            calls = _forest_calls(k, f, flavor)
            assert len(calls) == 2, case
            for forest, transports, tol in calls:
                got = (forest.loose, *twisted._flat_forest(forest, transports, tol),
                       forest.depth)
                want = walk_oracle.queue_forest(
                    forest.nodes, forest.ends, transports, forest.pinned, tol)
                for a, b in zip(got, want, strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), case
    assert {"pants3/SO3", "pants6/SO3", "union"} <= labels


def test_live_set_is_where_the_elimination_is_nonzero():
    for label, k, f in _live_cases():
        for flavor in ("absolute", "relative"):
            case = (label, flavor)
            walk = twisted._walk(k, flavor)
            order, parent, up, loops = twisted._cotree(k, walk.loose)
            live = np.array(twisted._live_triangles(k, up, loops), dtype=bool)
            # the elimination steps through the live triangles, and past
            # every root triangle
            steps = [s for s in walk.steps if s is not None]
            assert len(steps) == live.sum(), case
            assert len(walk.steps) - len(steps) == (~live & (parent < 0)).sum(), case
            up = np.array(up)
            # closed under the cotree parent
            assert live[up[live & (up >= 0)]].all(), case
            # every triangle with a loop edge is live
            assert live[np.flatnonzero(loops[k.tri_edges].any(axis=1))].all(), case
            # the full elimination is exactly zero off the live triangles:
            # on their parent edges, and on the rows of their roots
            values, rows = walk_oracle.eliminate(k, f, order, parent, loops)
            idle = ~live & (parent >= 0)
            assert not values[parent[idle]].any(), case
            roots = [t for t in reversed(order) if parent[t] < 0]
            rows = rows.reshape(len(roots), f.fiber_dim, rows.shape[1])
            assert not rows[~live[roots]].any(), case
            if label == "torus24/SO3":
                assert live.sum() < k.n_triangles / 4, live.sum()


@pytest.mark.parametrize("argv", [
    ["star", "--example", "torus", "--m", "6", "--system", "SYSTEM"],
    ["star", "--example", "genus11", "--m", "6", "--system", "SYSTEM"],
    ["moduli", "--sample", "1", "1", "--angles", "3.0"],
    ["moduli", "--sample", "0", "4", "--angles", "2.0,2.5,3.0,3.5"],
    ["verify", "--example", "torus", "--refine", "4,6"],
])
def test_reports_are_byte_identical_with_the_walk_oracles(tmp_path, capsys, argv):
    # a refinement table integrates round no boundary
    walks = _WALKS[:3] if "--refine" in argv else _WALKS
    if "SYSTEM" in argv:
        _, _, loops = cli._EXAMPLES[argv[2]](6)
        images = localsys.random_images(loops, 3, np.random.default_rng(82))
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"representation": {"images": {
            name: a.tolist() for name, a in images.items()}}}))
        argv = [str(system) if a == "SYSTEM" else a for a in argv]
    assert cli.main(argv) == 0
    batched = capsys.readouterr().out
    with _oracle_pass(walks):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == batched
