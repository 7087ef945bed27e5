"""Per-layer tracing of parhodge from outside the package.

A `Tracer` wraps every public function of every parhodge module (plus the
factorization helper `numlin._svd`) and rebinds each wrapper in *every*
package namespace that binds the original.  That matters because several
modules import functions by name: `moduli` binds the quaternion helpers of
`localsys`, `compat` binds `numlin.as_matrix`, and `parhodge/__init__`
re-exports `parabolic_star`; patching only the defining module would let
those calls escape the trace.

Each call records a span (name, parent span, start, end).  Spans nest, and a
span's self time is its duration minus the durations of its direct
children.  In memory mode, tracemalloc measures the peak allocation above
the starting level inside the outermost call of each span in `MEMORY_SPANS`.

Factorization counts cover the LAPACK calls issued through `numlin`; the
flop and byte figures are *computed* from the matrix shapes, not measured.
With p = max(rows, cols) and q = min(rows, cols) of the factorized matrix
(Golub & Van Loan, Matrix Computations, 4th ed., operation counts):

    numlin._svd, full U and V (full_matrices=True):  4 p^2 q + 8 p q^2 + 9 q^3
    numlin._svd, values only:                        4 p q^2 - 4 q^3 / 3
    numlin.sym_eig (`eigh` with eigenvectors, n x n): 9 n^3
    numlin.orthonormalize without a Gram matrix
    (Householder QR, thin Q formed):                 8 p q^2 - 8 q^3 / 3

Bytes are 8 times the number of float64 entries read and written: the input
plus the outputs (U, s, Vt; w, V; Q, R).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

PACKAGE = "parhodge"
EXTRA_FUNCTIONS = ("numlin._svd",)

# metric -> functions; the value is the time covered by the outermost spans
# of those functions, per operation
SPAN_METRICS = {
    "surface.build_s": (
        "surface.build", "surface.torus", "surface.annulus", "surface.disk",
        "surface.sphere", "surface.genus_k", "surface.mesh_from_json",
        "surface.metric_from_lengths", "surface.metric_from_positions"),
    "localsys.compile_s": (
        "localsys.from_representation", "localsys.from_edge_transports",
        "localsys.system_from_json", "localsys.trivial_system",
        "localsys.su2_adjoint"),
    "hodge.assembly_s": ("hodge.metric_complex",),
    "twisted.coboundaries_s": ("twisted.coboundaries",),
    "twisted.parabolic_s": ("twisted.restriction_and_parabolic",),
    "hodge.harmonic_s": ("hodge.harmonic_representative",),
    "twisted.pairing_s": ("twisted.parabolic_pairing", "twisted.cup_omega"),
    "compat.core_s": ("compat.compatible_complex_structure",),
    "hodge.diagnostics_s": ("hodge.galerkin_diagnostics",),
    "parastar.star_s": ("parastar.parabolic_star",),
    "moduli.sample_s": ("moduli.sample_point",),
    "moduli.tangent_s": ("moduli.tangent_space",),
    "moduli.acs_s": ("moduli.moduli_acs",),
    "serialize.write_s": ("_serialize.write_report",),
}
# metric -> module; the value is the summed self time of the module's spans
SELF_METRICS = {
    "parastar.self_s": "parastar",
    "numlin.self_s": "numlin",
    "cli.self_s": "cli",
}
CALL_METRICS = {"twisted.coboundaries_calls": "twisted.coboundaries"}
MEMORY_SPANS = {
    "hodge.metric_complex": "hodge.assembly.peak_alloc_mb",
    "twisted.restriction_and_parabolic": "twisted.parabolic.peak_alloc_mb",
    "hodge.harmonic_representative": "hodge.harmonic.peak_alloc_mb",
    "hodge.galerkin_diagnostics": "hodge.diagnostics.peak_alloc_mb",
}
STAR_SPAN = "parastar.parabolic_star"

# per-layer metric name -> unit, in the order they are reported
UNITS = {
    **{name: "s/op" for name in SPAN_METRICS},
    **{name: "s/op" for name in SELF_METRICS},
    "twisted.coboundaries_calls": "calls/op",
    "numlin.factorizations": "calls/op",
    "numlin.max_dim": "rows",
    "numlin.flops_computed": "flop/op",
    "numlin.bytes_computed": "B/op",
    "moduli.sample_yield": "points/try",
    **{name: "MiB" for name in MEMORY_SPANS.values()},
    "trace.overhead_frac": "ratio",
}


_METRICS_OF = defaultdict(list)
for _metric, _names in SPAN_METRICS.items():
    for _name in _names:
        _METRICS_OF[_name].append((_metric, frozenset(_names)))
_SELF_METRIC_OF = {module: metric for metric, module in SELF_METRICS.items()}
_CALL_METRIC_OF = {qual: metric for metric, qual in CALL_METRICS.items()}


def _svd_cost(args, kwargs):
    a = args[0]
    compute_uv = args[1] if len(args) > 1 else kwargs.get("compute_uv", True)
    p, q = max(a.shape), min(a.shape)
    if compute_uv:
        flops = 4 * p * p * q + 8 * p * q * q + 9 * q ** 3
        entries = a.size + a.shape[0] ** 2 + a.shape[1] ** 2 + q
    else:
        flops = 4 * p * q * q - 4 * q ** 3 / 3
        entries = a.size + q
    return flops, 8 * entries, p


def _eigh_cost(args, kwargs):
    n = np.shape(args[0])[0]
    return 9 * n ** 3, 8 * (2 * n * n + n), n


def _qr_cost(args, kwargs):
    m = args[1] if len(args) > 1 else kwargs.get("m")
    if m is not None:
        return None  # the Gram route calls sym_eig, which is counted there
    rows, cols = np.shape(args[0])
    p, q = max(rows, cols), min(rows, cols)
    if q == 0:
        return None
    flops = 8 * p * q * q - 8 * q ** 3 / 3
    return flops, 8 * (rows * cols + rows * q + q * cols), p


FACTORIZATIONS = {
    "numlin._svd": _svd_cost,
    "numlin.sym_eig": _eigh_cost,
    "numlin.orthonormalize": _qr_cost,
}


def _package_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def traced_functions():
    """Map 'module.function' -> function for everything the tracer wraps."""
    out = {}
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        short = info.name
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[f"{short}.{name}"] = obj
    for qual in EXTRA_FUNCTIONS:
        short, name = qual.split(".")
        out[qual] = getattr(importlib.import_module(f"{PACKAGE}.{short}"), name)
    return out


class Tracer:
    """Collects spans of the wrapped package functions for one operation
    at a time; `finish_op` folds them into per-operation totals."""

    def __init__(self):
        self.functions = traced_functions()
        named = {n for names in SPAN_METRICS.values() for n in names}
        named |= set(CALL_METRICS.values()) | set(MEMORY_SPANS) | {STAR_SPAN}
        missing = sorted(named - set(self.functions))
        if missing:
            raise RuntimeError(f"traced names not found in {PACKAGE}: {missing}")
        self.memory = False
        self._spans = []  # [name, parent index, start, end, cost]
        self._stack = []
        self._patches = []
        self._mem_open = None
        self.peaks = defaultdict(float)
        self.totals = defaultdict(float)
        self.max_dim = 0
        self.ops = 0
        self.star_children = defaultdict(float)
        self.sampled_points = 0
        self.sample_attempts = 0

    def _wrap(self, qual, fn):
        spans, stack = self._spans, self._stack
        cost = FACTORIZATIONS.get(qual)
        mem_name = MEMORY_SPANS.get(qual)
        sampler = qual == "moduli.sample_point"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [qual, stack[-1] if stack else -1, 0.0, 0.0,
                    cost(args, kwargs) if cost else None]
            spans.append(span)
            stack.append(index)
            opened = False
            if self.memory and mem_name and self._mem_open is None:
                self._mem_open = mem_name
                opened = True
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if opened:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                    self.peaks[mem_name] = max(self.peaks[mem_name], peak)
                    self._mem_open = None
            if sampler:
                self.sampled_points += 1
                self.sample_attempts += result.attempts_used
            return result

        return wrapper

    def patch(self):
        """Rebind every wrapped function in every package namespace."""
        wrappers = {id(fn): self._wrap(qual, fn)
                    for qual, fn in self.functions.items()}
        for mod in _package_namespaces():
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def unpatch(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def discard_op(self):
        """Forget the spans of an operation (memory rounds keep only peaks)."""
        self._spans.clear()
        self._stack.clear()

    def finish_op(self):
        """Fold the spans of one finished operation into the totals."""
        spans = self._spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end, cost) in enumerate(spans):
            duration = end - start
            for metric, names in _METRICS_OF.get(name, ()):
                if not self._inside(parent, names):
                    self.totals[metric] += duration
            metric = _SELF_METRIC_OF.get(name.split(".")[0])
            if metric:
                self.totals[metric] += duration - child_time[i]
            metric = _CALL_METRIC_OF.get(name)
            if metric:
                self.totals[metric] += 1
            if cost is not None:
                flops, nbytes, dim = cost
                self.totals["numlin.factorizations"] += 1
                self.totals["numlin.flops_computed"] += flops
                self.totals["numlin.bytes_computed"] += nbytes
                self.max_dim = max(self.max_dim, dim)
            if parent >= 0 and spans[parent][0] == STAR_SPAN:
                self.star_children[name] += duration
        self.ops += 1
        self.discard_op()

    def _inside(self, index, names):
        while index >= 0:
            if self._spans[index][0] in names:
                return True
            index = self._spans[index][1]
        return False

    def metrics(self, overhead_frac):
        """Per-layer metrics: per-operation means of the folded totals."""
        ops = max(self.ops, 1)
        values = {name: self.totals[name] / ops for name in UNITS}
        values["numlin.max_dim"] = self.max_dim
        values["moduli.sample_yield"] = (
            self.sampled_points / self.sample_attempts
            if self.sample_attempts else 0.0)
        for name in MEMORY_SPANS.values():
            values[name] = self.peaks[name]
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in UNITS.items()}

    def star_breakdown(self):
        """Mean seconds per operation of each direct child of the star span."""
        ops = max(self.ops, 1)
        return {name: t / ops for name, t in
                sorted(self.star_children.items(), key=lambda kv: -kv[1])}
