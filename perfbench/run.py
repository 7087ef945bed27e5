"""Benchmark of the parhodge front door, `parhodge.cli.main(argv)`.

    python3 perfbench/run.py --workload star-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

One process per workload.  Set-up imports parhodge from `src/` next to this
directory and generates the inputs from `--seed`; then a closed loop calls
the front door in rounds (one operation per input kind) until `--seconds`
have passed, checks every report and records its sha256.

With `--trace 0` the last stdout line carries the end-to-end metrics.  An
input's time is the best of its timings in the run, as `timeit` takes it:
the work per input is fixed (its report bytes are checked to repeat), so a
slower repeat measures interference from other load on a shared host, which
comes in bursts of seconds.  `op_s_p50` is the median over inputs of that
time, and `ops_per_s` the operations per second one caller gets at it.  With
`--trace 1` rounds cycle through plain, span-traced and memory-traced modes;
the last line carries the per-layer metrics and the tracing overhead (the
span-traced against the plain rounds).  The line before the last is a JSON
record: environment, per-operation hashes, failed_frac, op_s_p90 and the
loop's raw throughput.

Report hashes persist in `.perfbench_out/hashes.json`, keyed by source
digest, BLAS threads and input; an operation whose report differs from an
earlier one of the same key, in this run or an earlier run of this checkout,
counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-CPU host, two threads made star operations
# about 30 % faster but spread them three times wider (about +-10 % against
# +-3 % between back-to-back operations).
BLAS_THREADS = 1
WORKLOAD_NAMES = ("star-dense", "moduli-sweep", "galerkin-refine")
# fresh set-up processes timed before and after the loop, so that one burst
# of load on a shared host does not shift every sample of a run
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 5, 4
PROBE_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile


def pin_blas_threads():
    """Pin every BLAS thread setting to BLAS_THREADS (at most nproc)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def import_program():
    """Import parhodge from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if not (src / "parhodge" / "__init__.py").is_file():
        raise SystemExit(f"error: no parhodge sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import parhodge.cli

    if Path(parhodge.__file__).resolve().parent != src / "parhodge":
        raise SystemExit(f"error: imported parhodge from {parhodge.__file__}")
    return parhodge


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "parhodge").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(nproc, seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "seed": seed,
    }


def strict_loads(data):
    """Parse JSON, rejecting the NaN/Infinity extensions."""
    def reject(name):
        raise ValueError(f"non-finite number {name}")
    return json.loads(data, parse_constant=reject)


def execute(parhodge, op):
    """Run one operation; return (seconds, CPU seconds, report bytes,
    problems)."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = parhodge.cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the program raised: count it, keep measuring
        code = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    data = out.getvalue().encode()
    if code != 0:
        return seconds, cpu, data, [f"exit {code}: {err.getvalue().strip()[:200]}"]
    try:
        report = strict_loads(data)
    except ValueError as exc:
        return seconds, cpu, data, [f"report is not strict JSON: {exc}"]
    if not isinstance(report, dict):
        return seconds, cpu, data, ["report is not a JSON object"]
    return seconds, cpu, data, op.check(report, op.expected)


def probe_setup(args):
    """Seconds from the start of a fresh process until it is ready to time
    its first operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                raise TimeoutError(f"set-up probe silent for {PROBE_TIMEOUT_S} s")
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return ready


class HashStore:
    """Report sha256 per input key, shared by the runs of one checkout."""

    def __init__(self, path):
        self.path = path
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.compared = 0

    def agrees(self, key, sha):
        if key not in self.known:
            self.known[key] = sha
            return True
        self.compared += 1
        return self.known[key] == sha

    def save(self):
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(tmp, self.path)


def measure(args, parhodge, make_round):
    import tracemalloc

    import tracer as tracing

    modes = ("plain", "spans", "memory") if args.trace else ("plain",)
    tracer = tracing.Tracer() if args.trace else None
    store = HashStore(OUT / "hashes.json")
    # identical code, BLAS threading and input must give identical bytes
    prefix = f"{source_sha256()[:16]} blas_threads={os.environ[BLAS_VARS[0]]} "
    op_log, round_seconds = [], {mode: [] for mode in modes}
    start = time.perf_counter()
    index = 0
    while True:
        mode = modes[index % len(modes)]
        if mode != "plain":
            tracer.memory = mode == "memory"
            if tracer.memory:
                tracemalloc.start()
            tracer.patch()
        try:
            busy = 0.0
            for op in make_round(index // len(modes)):
                seconds, cpu, data, problems = execute(parhodge, op)
                if mode == "spans":
                    tracer.finish_op()
                elif mode == "memory":
                    tracer.discard_op()
                sha = hashlib.sha256(data).hexdigest()
                if not store.agrees(prefix + op.key, sha):
                    problems = problems + ["report differs from an earlier "
                                           "report of the same input"]
                busy += seconds
                op_log.append({"key": op.key, "mode": mode,
                               "seconds": seconds, "cpu_seconds": cpu,
                               "sha256": sha, "problems": problems})
        finally:
            if mode != "plain":
                tracer.unpatch()
                if tracer.memory:
                    tracemalloc.stop()
        round_seconds[mode].append(busy)
        index += 1
        if time.perf_counter() - start >= args.seconds and index >= len(modes):
            break
    elapsed = time.perf_counter() - start
    store.save()
    return tracer, op_log, round_seconds, elapsed, store.compared


def run_one(args):
    started = time.perf_counter()
    nproc = pin_blas_threads()
    parhodge = import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        make_round = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        own_setup_s = time.perf_counter() - started
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES_BEFORE)]
        tracer, op_log, round_seconds, elapsed, compared = \
            measure(args, parhodge, make_round)
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES_AFTER)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(op_log)
    plain_seconds = [op["seconds"] for op in op_log if op["mode"] == "plain"]
    failed = sum(1 for op in op_log if op["problems"])
    best = best_per_input(op_log)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(nproc, args.seed),
        "own_setup_s": own_setup_s,
        "setup_samples_s": setup_samples,
        "rounds": {mode: len(times) for mode, times in round_seconds.items()},
        "failed_frac": failed / attempted,
        "op_s_p90": _p90(plain_seconds),
        "loop_ops_per_s": (attempted - failed) / elapsed,
        "timings_per_input": statistics.median(best["timings"] or [0]),
        "determinism_comparisons": compared,
        "failures": [op for op in op_log if op["problems"]][:10],
        "operations": [{k: op[k] for k in
                        ("key", "mode", "seconds", "cpu_seconds", "sha256")}
                       for op in op_log],
    }
    if args.trace:
        plain = statistics.median(round_seconds["plain"])
        spans = statistics.median(round_seconds["spans"])
        metrics = tracer.metrics(spans / plain - 1.0)
        record["star_children_s"] = tracer.star_breakdown()
    else:
        seconds = best["seconds"]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_per_s": {"value": len(seconds) / sum(seconds) if seconds else 0.0,
                          "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(seconds or plain_seconds),
                         "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def best_per_input(op_log):
    """Best plain-mode seconds of each input whose every operation passed,
    and the number of timings behind each."""
    timings, failed = {}, set()
    for op in op_log:
        if op["problems"]:
            failed.add(op["key"])
        elif op["mode"] == "plain":
            timings.setdefault(op["key"], []).append(op["seconds"])
    kept = [times for key, times in timings.items() if key not in failed]
    return {"seconds": [min(times) for times in kept],
            "timings": [len(times) for times in kept]}


def _p90(samples):
    n = len(samples)
    if n < P90_MIN_SAMPLES:
        return {"value": None, "samples": n,
                "reason": f"needs at least {P90_MIN_SAMPLES} samples"}
    ordered = sorted(samples)
    return {"value": ordered[math.ceil(0.9 * n) - 1], "samples": n,
            "beyond": n - math.ceil(0.9 * n), "unit": "s"}


def run_all(args):
    """Every workload in its own process; one table of every metric."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: benchmark failed (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={record['failed_frac']:.4g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}")
        p90 = record["op_s_p90"]
        if p90["value"] is None:
            print(f"  {'op_s_p90':34s} n/a ({p90['samples']} samples; {p90['reason']})")
        else:
            print(f"  {'op_s_p90':34s} {p90['value']:.6g} s "
                  f"({p90['samples']} samples, {p90['beyond']} beyond)")
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        pin_blas_threads()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
