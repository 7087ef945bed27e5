import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parhodge import _serialize, cli, hodge, localsys, moduli, surface, twisted


def run(args):
    return cli.main(args)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def load_strict(text):
    """Parse as strict JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def test_dumps_is_strict_json():
    obj = {'a"b': [float("inf"), 'x"y'], "n": float("nan")}
    assert load_strict(_serialize.dumps(obj)) == {'a"b': [None, 'x"y'], "n": None}
    back = load_strict(_serialize.dumps({"x": [1.0, -0.0, 1e20, 2], "y": 0.5}))
    assert [type(v) for v in back["x"]] == [float, float, float, int]
    assert back == {"x": [1.0, -0.0, 1e20, 2], "y": 0.5}


def _dumps_per_entry(obj, indent=0):
    """The report layout with every scalar written by `_serialize._fmt`:
    the oracle of the row-template fast path."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}  {json.dumps(str(key))}: {_dumps_per_entry(val, indent + 1)}"
                 for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(_serialize._fmt(v) for v in obj) + "]"
        items = [f"{pad}  {_dumps_per_entry(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _serialize._fmt(obj)


def _text_per_entry(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            lines.extend(_text_per_entry(val, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        for i, val in enumerate(obj):
            lines.extend(_text_per_entry(val, f"{prefix}{i}."))
    else:
        path = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(obj, (list, tuple)):
            value = "[" + ", ".join(_serialize._fmt(v) for v in obj) + "]"
        else:
            value = obj if isinstance(obj, str) else _serialize._fmt(obj)
        lines.append(f"{path}: {value}")
    return lines


def test_float_rows_write_what_fmt_writes_entry_by_entry():
    values = [0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e17, 1e20, 5e-324, -2.5e-16, 1 / 3, 123.0]
    rng = np.random.default_rng(73)
    square = np.array(values[:9]).reshape(3, 3).tolist()
    report = {
        "row": values,
        "matrix": np.reshape(values, (4, 3)).tolist(),
        "column": [[v] for v in values],
        "square": square,
        "nan_row": square[:1] + [[1.0, float("nan"), 2.0]] + square[1:],
        "inf_row": [[float("inf"), -0.0], [1.0, 2.0]],
        "neg_inf": [-float("inf"), 0.0],
        "ints": [[1, 2], [3, 4]],
        "mixed": [[1.0, 2], [3.0, 4.0]],
        "ragged": [[1.0, 2.0], [3.0]],
        "empty_rows": [[], []],
        "numpy_floats": [[np.float64(1.0), np.float64(0.5)]],
        "bools": [True, 1.0],
        "nested": [{"a": [[0.25, 1e16]]}, [[-0.0]]],
        "random": (rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-20, 20, (40, 5))).tolist(),
        "integral": rng.integers(-9, 9, (6, 4)).astype(float).tolist(),
    }
    assert _serialize.write_report(report) == _dumps_per_entry(report) + "\n"
    assert _serialize.write_report(report, "text") == "\n".join(_text_per_entry(report)) + "\n"
    for key, value in report.items():
        assert _serialize.dumps(value, 2) == _dumps_per_entry(value, 2), key


def test_star_torus_example(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["star", "--example", "torus", "--m", "8", "--out", str(out)])
    assert code == 0
    report = load_strict(out.read_text())
    assert report["dim_H1_par"] == 2
    assert report["residuals"]["jpar_sq"] < 1e-9
    assert len(report["J_par"]) == 2


def test_star_boundary_surface_example(tmp_path):
    out = tmp_path / "report.json"
    code = run(["star", "--example", "genus11", "--m", "3", "--out", str(out)])
    assert code == 0
    report = load_strict(out.read_text())
    assert report["dim_H1_rel"] == report["dim_H1_par"] == 2
    assert report["residuals"]["taming_min_eigenvalue"] > 0


def test_star_annulus_zero_dim(tmp_path):
    out = tmp_path / "r.json"
    code = run(["star", "--example", "annulus", "--m", "6", "--out", str(out)])
    assert code == 0
    report = load_strict(out.read_text())
    assert report["dim_H1_par"] == 0
    assert report["J_par"] == []
    assert report["residuals"]["taming_min_eigenvalue"] is None


def test_star_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["star", "--mesh", str(bad)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_star_mesh_and_system_files(tmp_path):
    k, h, loops = surface.annulus(5, 1)
    theta = 0.9
    rot = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    inv = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    mesh = {
        "vertices": k.vertex_count,
        "triangles": k.tri_vertices.tolist(),
        "edge_lengths": [[a, b, float(h.lengths[ei])]
                         for ei, (a, b) in enumerate(k.ends.tolist())],
    }
    f = localsys.from_representation(
        k, loops, {"c1": np.array(rot), "c2": np.array(inv)})
    system = {
        "fiber_dim": 2,
        "transports": [
            {"tail": a, "head": b, "matrix": f.transports[ei].tolist()}
            for ei, (a, b) in enumerate(k.ends.tolist())
        ],
    }
    mesh_file, system_file = tmp_path / "mesh.json", tmp_path / "system.json"
    mesh_file.write_text(json.dumps(mesh))
    system_file.write_text(json.dumps(system))
    out = tmp_path / "rep.json"
    code = run(["star", "--mesh", str(mesh_file), "--system", str(system_file),
                "--out", str(out)])
    assert code == 0
    report = load_strict(out.read_text())
    assert report["inputs"]["fiber_dim"] == 2


def test_star_broken_transport_exit_2(tmp_path, capsys):
    k, h, loops = surface.disk(4)
    mesh = {
        "vertices": k.vertex_count,
        "triangles": k.tri_vertices.tolist(),
        "edge_lengths": [[a, b, float(h.lengths[ei])]
                         for ei, (a, b) in enumerate(k.ends.tolist())],
    }
    transports = [
        {"tail": a, "head": b, "matrix": np.eye(2).tolist()}
        for a, b in k.ends.tolist()
    ]
    transports[0]["matrix"] = [[0.0, -1.0], [1.0, 0.0]]  # breaks flatness
    mesh_file, system_file = tmp_path / "m.json", tmp_path / "s.json"
    mesh_file.write_text(json.dumps(mesh))
    system_file.write_text(json.dumps({"fiber_dim": 2, "transports": transports}))
    code = run(["star", "--mesh", str(mesh_file), "--system", str(system_file)])
    assert code == 2
    assert "NotFlat" in capsys.readouterr().err


def test_verify_broken_transport_names_invariant(tmp_path, capsys):
    k, h, _ = surface.disk(4)
    mesh = {
        "vertices": k.vertex_count,
        "triangles": k.tri_vertices.tolist(),
        "edge_lengths": [[a, b, float(h.lengths[ei])]
                         for ei, (a, b) in enumerate(k.ends.tolist())],
    }
    transports = [
        {"tail": a, "head": b, "matrix": np.eye(2).tolist()}
        for a, b in k.ends.tolist()
    ]
    transports[2]["matrix"] = [[0.0, -1.0], [1.0, 0.0]]
    mesh_file, system_file = tmp_path / "m.json", tmp_path / "s.json"
    mesh_file.write_text(json.dumps(mesh))
    system_file.write_text(json.dumps({"fiber_dim": 2, "transports": transports}))
    code = run(["verify", "--mesh", str(mesh_file), "--system", str(system_file)])
    assert code == 2
    assert "NotFlat" in capsys.readouterr().err


def test_moduli_sample_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code = run(["moduli", "--sample", "1", "1", "--angles", "3.0",
                "--seed", "7", "--out", str(out1)])
    assert code == 0
    report = load_strict(out1.read_text())
    assert report["tangent"]["dim_H1_par"] == 2
    code = run(["moduli", "--sample", "1", "1", "--angles", "3.0",
                "--seed", "7", "--out", str(out2)])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_moduli_trivial_singular_exit_4(capsys):
    code = run(["moduli", "--sample", "1", "0", "--trivial"])
    assert code == 4
    assert "SingularPoint" in capsys.readouterr().err


def test_moduli_point_file(tmp_path):
    point = {"g": 0, "k": 3, "boundary_classes": [1.2, 2.0, 2.5], "seed": 5}
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(point))
    out = tmp_path / "rep.json"
    code = run(["moduli", "--point", str(pfile), "--out", str(out)])
    assert code == 0
    report = load_strict(out.read_text())
    assert report["tangent"]["dim_H1_par"] == 0


def _point_json(g, k, classes, seed):
    """A `--point` object with the images of a sampled point."""
    p = moduli.sample_point(g, k, classes, seed)
    return {"g": g, "k": k, "seed": seed, "boundary_classes": classes,
            "phi_images": {n: q.tolist() for n, q in p.phi_images.items()}}


def _edited(point, **changes):
    """A copy of `point` with top-level fields or images (a1=...) replaced."""
    out = json.loads(json.dumps(point))
    for key, value in changes.items():
        (out if key in out else out["phi_images"])[key] = value
    return out


_PANTS = _point_json(0, 3, [1.2, 2.0, 2.5], 5)
_ONE_HOLED = _point_json(1, 1, [2.5], 11)


@pytest.mark.parametrize("point, message", [
    (_edited(_ONE_HOLED, boundary_classes=[2.5, 1.0]), "2 boundary classes listed for k = 1"),
    (_edited(_PANTS, boundary_classes=[1.2, 2.0]), "2 boundary classes listed for k = 3"),
    (_edited(_ONE_HOLED, a1=[1.0, 0.0]), "image a1 has shape (2,)"),
    (_edited(_ONE_HOLED, a1=[2 * v for v in _ONE_HOLED["phi_images"]["a1"]]),
     "image a1 has norm 2.000000, not 1"),
    (_edited(_ONE_HOLED, boundary_classes=[2.4]), "c1 has class angle 2.500000, expected 2.400000"),
], ids=["more-classes-than-k", "fewer-classes-than-k", "two-entry-image",
        "non-unit-image", "wrong-class"])
def test_malformed_point_file_exits_2_with_its_reason(tmp_path, capsys, point, message):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(point))
    code = run(["moduli", "--point", str(pfile)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: InvalidParameter:") and message in err, err


def test_point_file_lists_all_classes_or_none(tmp_path):
    for point in (_PANTS, _edited(_PANTS, boundary_classes=[])):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(point))
        assert run(["moduli", "--point", str(pfile), "--out", str(tmp_path / "r.json")]) == 0


def test_tolerance_reaches_point_file(tmp_path, capsys):
    # turn a1 by 1e-7 about its own axis: the relation now fails by ~1e-7
    a1 = np.array(_ONE_HOLED["phi_images"]["a1"])
    turned = localsys.quat_mul(a1, localsys.quat_from_axis_angle(a1[1:], 1e-7))
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(_edited(_ONE_HOLED, a1=turned.tolist())))
    assert run(["moduli", "--point", str(pfile)]) == 2
    assert "surface-group relation" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert run(["moduli", "--point", str(pfile), "--tolerance", "1e-5", "--out", str(out)]) == 0
    assert load_strict(out.read_text())["tangent"]["dim_H1_par"] == 2


def test_verify_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(["verify", "--out", str(out), "--seed", "3"])
    assert code == 0
    sweep = load_strict(out.read_text())["sweep"]
    assert "torus/trivial_R" in sweep and "genus11/random_SO3" in sweep
    assert all(case["ok"] for case in sweep.values())


def test_verify_example_case(tmp_path):
    out = tmp_path / "case.json"
    code = run(["verify", "--example", "genus11", "--m", "3", "--out", str(out)])
    assert code == 0
    case = load_strict(out.read_text())["case"]
    assert case["ok"] and case["dim_H1_par"] == 2


def test_verify_refinement_table(tmp_path):
    out = tmp_path / "refine.json"
    code = run(["verify", "--example", "torus", "--refine", "4,8",
                "--out", str(out)])
    assert code == 0
    rows = load_strict(out.read_text())["refinement"]
    assert [r["m"] for r in rows] == [4, 8]
    # the Galerkin star is exact on the flat torus
    for r in rows:
        for key in ("jsq_on_ccc", "angle_j_hn_vs_hd", "p38_residual",
                    "skew_residual"):
            assert r[key] <= 1e-9, (r["m"], key)


def test_verify_refinement_honours_fiber(tmp_path, monkeypatch):
    fibers = []
    diagnostics = hodge.galerkin_diagnostics

    def spy(mc):
        fibers.append(mc.f.fiber_dim)
        return diagnostics(mc)

    monkeypatch.setattr(hodge, "galerkin_diagnostics", spy)
    out = tmp_path / "refine.json"
    code = run(["verify", "--example", "annulus", "--refine", "4,6", "--fiber", "3",
                "--out", str(out)])
    assert code == 0 and fibers == [3, 3]
    rows = load_strict(out.read_text())["refinement"]
    assert [r["m"] for r in rows] == [4, 6]
    assert all(r["skew_residual"] < 1e-9 for r in rows)


def test_main_builds_the_parser_once_and_runs_the_bound_command(monkeypatch, request):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    request.addfinalizer(cli.build_parser.cache_clear)
    assert run(["moduli", "--sample", "1", "0", "--trivial"]) == cli.EXIT_SINGULAR
    ran = []
    monkeypatch.setattr(cli, "cmd_moduli", lambda args: ran.append(args.sample) or 0)
    assert run(["moduli", "--sample", "1", "1"]) == 0
    assert ran == [[1, 1]]
    assert built.count("parhodge") == 1


def test_degenerate_pairing_exits_3(monkeypatch, capsys):
    # the star pairs both of its column blocks in one call
    monkeypatch.setattr(twisted, "parabolic_pairing", lambda k, f, blocks, tol, boundary: [
        np.zeros((u.shape[1], u.shape[1])) for u in blocks])
    code = run(["star", "--example", "torus", "--m", "4"])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("error: ConditionFailed"), err


def test_text_format_mirrors_fields(capsys):
    code = run(["star", "--example", "disk", "--m", "4", "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "dim_H1_par: 0" in text
    assert "residuals.jpar_sq: 0" in text


def test_tolerance_env_and_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("PARHODGE_TOL", "1e-3")
    code = run(["star", "--example", "torus", "--m", "4",
                "--out", str(tmp_path / "x.json")])
    assert code == 0
    # an absurdly tight flag beats the env and makes taming-negative checks
    # impossible to fail here (the flat torus is exact), still exit 0
    code = run(["star", "--example", "torus", "--m", "4", "--tolerance",
                "1e-15", "--out", str(tmp_path / "y.json")])
    assert code == 0


def test_rank_tolerance_flag(capsys):
    star = ["star", "--example", "torus", "--m", "6"]
    assert run(star + ["--rank-tolerance", "0"]) == 2
    assert capsys.readouterr().err == "error: ValueError: tolerances must be strictly positive\n"
    # the default, given explicitly, changes nothing
    assert run(star) == 0
    default = capsys.readouterr().out
    assert run(star + ["--rank-tolerance", "1e-10"]) == 0
    assert capsys.readouterr().out == default


def _triangle(edge_lengths):
    return {"vertices": 3, "triangles": [[0, 1, 2]], "edge_lengths": edge_lengths}


_BARE_VERTEX = {"vertices": [[0, 0], [1, 0], [0, 1], [5, 5]], "triangles": [[0, 1, 2]]}
# the reason an error line names, where a case pins one
_MALFORMED_REASONS = {
    "star-vertex-in-no-triangle": "error: InvalidParameter: vertex 3 lies in no triangle\n",
    "verify-vertex-in-no-triangle": "error: InvalidParameter: vertex 3 lies in no triangle\n",
    # an id beyond int64 is no edge, not an OverflowError; the entry is
    # named low end first
    "edge-length-id-beyond-int64": "error: InvalidParameter: edge_lengths entry "
                                   f"(0, {10 ** 30}) is not an edge\n",
    "edge-length-negative-id": "error: InvalidParameter: edge_lengths entry (-1, 3) "
                               "is not an edge\n",
    "transport-id-beyond-int64": "error: InvalidParameter: "
                                 f"(0, {10 ** 30}) is not an edge of the complex\n",
    "transport-equal-ends": "error: InvalidParameter: (4, 4) is not an edge of the complex\n",
    # refused before the sampler draws anything
    "sample-negative-genus": "error: InvalidParameter: need g >= 0 and k >= 0\n",
}


@pytest.mark.parametrize("argv, files", [
    (["verify", "--example", "foo", "--refine", "4"], {}),
    (["verify", "--mesh", "{mesh}", "--refine", "4"], {"mesh": {}}),
    (["verify", "--system", "{system}", "--refine", "4"], {"system": {}}),
    (["moduli", "--point", "{point}"], {"point": {"k": 3, "seed": 5}}),
    (["moduli", "--point", "{point}"], {"point": [0, 3]}),
    (["star", "--example", "torus", "--m", "4", "--system", "{system}"],
     {"system": {"fiber_dim": 1, "transports": [{"tail": 0, "matrix": [[1.0]]}]}}),
    (["moduli", "--sample", "2", "0"], {}),
    (["moduli", "--point", "{point}"], {"point": {"g": 1, "k": 1, "phi_images": [1, 2]}}),
    (["star", "--mesh", "{mesh}"], {"mesh": 5}),
    (["star", "--mesh", "{mesh}"], {"mesh": {"vertices": 3, "triangles": [5]}}),
    (["star", "--example", "torus", "--m", "4", "--system", "{system}"],
     {"system": {"representation": {"images": [1]}}}),
    (["star", "--example", "torus", "--m", "4", "--system", "{system}"],
     {"system": {"fiber_dim": 1, "transports": 5}}),
    (["star", "--mesh", "{mesh}"],
     {"mesh": _triangle([[0.6, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]])}),
    (["star", "--mesh", "{mesh}"],
     {"mesh": _triangle([[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0], [0, 1, 1.01]])}),
    (["star", "--mesh", "{mesh}"], {"mesh": _triangle([[0, 1], [0, 2, 1.0], [1, 2, 1.0]])}),
    (["star", "--mesh", "{mesh}"], {"mesh": _BARE_VERTEX}),
    (["verify", "--mesh", "{mesh}"], {"mesh": _BARE_VERTEX}),
    (["verify", "--refine", ""], {}),
    (["star", "--mesh", "{mesh}"],
     {"mesh": _triangle([[10 ** 30, 0, 1.0], [0, 2, 1.0], [1, 2, 1.0]])}),
    (["star", "--mesh", "{mesh}"],
     {"mesh": _triangle([[-1, 3, 1.0], [0, 2, 1.0], [1, 2, 1.0]])}),
    (["star", "--example", "torus", "--m", "4", "--system", "{system}"],
     {"system": {"fiber_dim": 1, "transports": [
         {"tail": 0, "head": 10 ** 30, "matrix": [[1.0]]}]}}),
    (["star", "--example", "torus", "--m", "4", "--system", "{system}"],
     {"system": {"fiber_dim": 1, "transports": [{"tail": 4, "head": 4, "matrix": [[1.0]]}]}}),
    (["moduli", "--sample", "-1", "5", "--angles", "1,1,1,1,1"], {}),
], ids=["unknown-refine-example", "refine-with-mesh", "refine-with-system",
        "point-without-g", "point-array", "transport-without-head", "sample-without-boundary", "point-images-array",
        "mesh-number", "mesh-triangle-number", "representation-images-array",
        "transports-number", "edge-length-fractional-id", "edge-length-twice",
        "edge-length-short-row", "star-vertex-in-no-triangle", "verify-vertex-in-no-triangle",
        "refine-empty", "edge-length-id-beyond-int64", "edge-length-negative-id",
        "transport-id-beyond-int64", "transport-equal-ends", "sample-negative-genus"])
def test_malformed_input_exits_2_with_an_error_line(tmp_path, capsys, request, argv, files):
    paths = {}
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    code = run([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:"), err
    assert _MALFORMED_REASONS.get(request.node.callspec.id, "") in err, err


@pytest.mark.parametrize("argv, files", [
    (["star", "--example", "torus", "--m", "3", "--fiber", "0"], {}),
    (["star", "--example", "torus", "--m", "3", "--fiber", "-1"], {}),
    (["star", "--example", "torus", "--m", "3", "--system", "{system}"],
     {"system": {"fiber_dim": -2, "transports": []}}),
], ids=["fiber-zero", "fiber-negative", "system-fiber-negative"])
def test_non_positive_fiber_dimension_exits_2_with_its_reason(tmp_path, capsys, argv, files):
    paths = {}
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    code = run([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: InvalidParameter: fiber dimension must be a positive integer\n", err


def test_report_digests_prints_one_line_per_input():
    # the byte-identity harness: each input's label and the sha256 of its
    # stdout, stderr and exit code, cold and then warm
    labels = ["star-genus11-m6-so3-s0", "moduli-0-4-s0"]
    harness = Path(__file__).with_name("report_digests.py")
    out = subprocess.run([sys.executable, str(harness), *labels], capture_output=True,
                         text=True, check=True, timeout=300).stdout
    lines = [line.split() for line in out.splitlines()]
    assert [line[0] for line in lines] == labels
    for label, cold, warm in lines:
        assert re.fullmatch("[0-9a-f]{64}", cold) and warm == cold, label
