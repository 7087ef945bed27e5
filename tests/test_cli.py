import json

import numpy as np
import pytest

from parhodge import _serialize, cli, localsys, surface


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
        "triangles": [list(t) for t in k.triangles],
        "edge_lengths": [[a, b, float(h.lengths[ei])]
                         for ei, (a, b) in enumerate(k.edges)],
    }
    f = localsys.from_representation(
        k, loops, {"c1": np.array(rot), "c2": np.array(inv)})
    system = {
        "fiber_dim": 2,
        "transports": [
            {"tail": a, "head": b, "matrix": f.transports[ei].tolist()}
            for ei, (a, b) in enumerate(k.edges)
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
        "triangles": [list(t) for t in k.triangles],
        "edge_lengths": [[a, b, float(h.lengths[ei])]
                         for ei, (a, b) in enumerate(k.edges)],
    }
    transports = [
        {"tail": a, "head": b, "matrix": np.eye(2).tolist()}
        for a, b in k.edges
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
        "triangles": [list(t) for t in k.triangles],
        "edge_lengths": [[a, b, float(h.lengths[ei])]
                         for ei, (a, b) in enumerate(k.edges)],
    }
    transports = [
        {"tail": a, "head": b, "matrix": np.eye(2).tolist()}
        for a, b in k.edges
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
    for r in rows:
        assert r["skew_residual"] < 1e-9


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
