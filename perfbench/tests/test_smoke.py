"""Smoke self-test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import parhodge  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True, timeout=600,
                          cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in named}
    assert all(isinstance(entry["value"], float)
               for entry in result["metrics"].values())
    env = record["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1
    assert all(int(n) <= env["nproc"] for n in env["blas_threads"].values())
    assert record["failed_frac"] == 0.0
    assert all(len(op["sha256"]) == 64 for op in record["operations"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_answer_trips_the_gate(workload, tmp_path):
    op = workloads.WORKLOADS[workload](3, tmp_path, True)(0)[0]
    assert run.execute(parhodge, op)[3] == []
    wrong = (op.expected + 1 if isinstance(op.expected, int)
             else op.expected + (8,))
    assert run.execute(parhodge, dataclasses.replace(op, expected=wrong))[3]


def test_strict_parse_rejects_non_finite_numbers():
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', '{"a": inf}'):
        with pytest.raises(ValueError):
            run.strict_loads(text)


def test_same_seed_same_inputs(tmp_path):
    for name in WORKLOADS:
        keys = []
        for copy in ("a", "b"):
            workdir = tmp_path / name / copy
            workdir.mkdir(parents=True)
            keys.append([op.key for op in workloads.WORKLOADS[name](5, workdir, True)(1)])
        assert keys[0] == keys[1]


def test_tracer_rebinds_every_namespace():
    t = tracer.Tracer()
    originals = {id(fn) for fn in t.functions.values()}
    t.patch()
    try:
        escaped = [f"{mod.__name__}.{name}"
                   for mod in tracer._package_namespaces()
                   for name, obj in vars(mod).items() if id(obj) in originals]
        assert escaped == []
        # bindings made by name import are rebound, not only the definitions
        assert parhodge.moduli.quat_mul is parhodge.localsys.quat_mul
        assert parhodge.compat.as_matrix is parhodge.numlin.as_matrix
        assert parhodge.parabolic_star is parhodge.parastar.parabolic_star
        assert hasattr(parhodge.parabolic_star, "__wrapped__")
    finally:
        t.unpatch()
    assert all(getattr(sys.modules[f"parhodge.{qual.split('.')[0]}"],
                       qual.split(".")[1]) is fn
               for qual, fn in t.functions.items())
    assert not hasattr(parhodge.parabolic_star, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_best_per_input_takes_each_inputs_fastest_passing_timing():
    log = [{"key": "a", "mode": "plain", "seconds": 0.3, "problems": []},
           {"key": "a", "mode": "plain", "seconds": 0.2, "problems": []},
           {"key": "a", "mode": "spans", "seconds": 0.1, "problems": []},
           {"key": "b", "mode": "plain", "seconds": 0.5, "problems": []},
           {"key": "c", "mode": "plain", "seconds": 0.1, "problems": []},
           {"key": "c", "mode": "plain", "seconds": 0.4, "problems": ["gate"]}]
    assert run.best_per_input(log) == {"seconds": [0.2, 0.5], "timings": [2, 1]}


def test_moduli_points_repeat_across_rounds(tmp_path):
    make_round = workloads.moduli_sweep(5, tmp_path, True)
    keys = [[op.key for op in make_round(i)]
            for i in range(2 * workloads.MODULI_POOL)]
    assert keys[:workloads.MODULI_POOL] == keys[workloads.MODULI_POOL:]
    assert len({key for round_keys in keys for key in round_keys}) == \
        len(workloads.MODULI_SURFACES) * workloads.MODULI_POOL
