"""The level-batched forest, the live-set cotree elimination and the
edge-slot gathers against their queue and `np.add.at` oracles
(`walk_oracle`): equal bit for bit, down to the report bytes."""

import json

import numpy as np
import pytest

from parhodge import cli, hodge, localsys, numlin, surface, twisted

import walk_oracle
from test_twisted import _oracle_cases


def _use_oracles(monkeypatch):
    for name in ("_flat_forest", "_cotree", "_cocycles_off_tree"):
        monkeypatch.setattr(twisted, name, getattr(walk_oracle, name))
    for name in ("_triangle_apply", "_edge_sums"):
        monkeypatch.setattr(hodge, name, getattr(walk_oracle, name))


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
    cases = list(_oracle_cases((3, 6, 12)))
    got = [_bases(k, f) for _, k, f in cases]
    with pytest.MonkeyPatch.context() as mp:
        _use_oracles(mp)
        for (label, k, f), bases in zip(cases, got):
            assert _bases(k, f) == bases, label


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
               hodge.galerkin_apply(mc, x), hodge.galerkin_apply(mc, x[:, :1]),
               hodge._edge_sums(mc.k, y)]
        with monkeypatch.context() as mp:
            _use_oracles(mp)
            want = [hodge.m1_apply(mc, x), hodge.m1_apply(mc, x[:, 0]),
                    hodge.galerkin_apply(mc, x), hodge.galerkin_apply(mc, x[:, :1]),
                    hodge._edge_sums(mc.k, y)]
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), label


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
        duals = {flavor: twisted._tree_and_flat_sections(k, f, flavor, numlin.DEFAULT_TOL)[0]
                 for flavor in ("absolute", "relative")}
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
            calls = _forest_calls(k, f, flavor)
            assert len(calls) == 2, case
            for args in calls:
                got, want = twisted._flat_forest(*args), walk_oracle._flat_forest(*args)
                for a, b in zip(got, want):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), case
    assert {"pants3/SO3", "pants6/SO3", "union"} <= labels


def test_live_set_is_where_the_elimination_is_nonzero():
    for label, k, f in _live_cases():
        for flavor in ("absolute", "relative"):
            case = (label, flavor)
            loose = twisted._tree_and_flat_sections(k, f, flavor, numlin.DEFAULT_TOL)[0]
            order, parent, up, loops = twisted._cotree(k, loose)
            live = np.array(twisted._live_triangles(k, up, loops), dtype=bool)
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
def test_reports_are_byte_identical_with_the_walk_oracles(tmp_path, monkeypatch, capsys, argv):
    if "SYSTEM" in argv:
        _, _, loops = cli._EXAMPLES[argv[2]](6)
        images = localsys.random_images(loops, 3, np.random.default_rng(82))
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"representation": {"images": {
            name: a.tolist() for name, a in images.items()}}}))
        argv = [str(system) if a == "SYSTEM" else a for a in argv]
    assert cli.main(argv) == 0
    batched = capsys.readouterr().out
    _use_oracles(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == batched
