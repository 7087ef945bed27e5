"""Deterministic report serialization.

Floats are written with 17 significant digits so reports round-trip exactly
and identical runs produce byte-identical files; non-finite floats are
`null` and `json` escapes strings, so the output is strict JSON.  The text
format mirrors the JSON field order as flattened `path: value` lines.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _fmt(x):
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return format(v, ".17g") if math.isfinite(v) else "null"
    raise TypeError(f"unsupported scalar {type(x)}")


def dumps(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(key))}: {dumps(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        scalar = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if scalar:
            return "[" + ", ".join(_fmt(v) for v in obj) + "]"
        items = [f"{pad}  {dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _fmt(obj)


def to_text(obj, prefix=""):
    """Flatten to `path: value` lines mirroring the JSON field order."""
    lines = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            lines.extend(to_text(val, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)) and any(
        isinstance(v, (dict, list, tuple)) for v in obj
    ):
        for i, val in enumerate(obj):
            lines.extend(to_text(val, f"{prefix}{i}."))
    else:
        path = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(obj, (list, tuple)):
            value = "[" + ", ".join(_fmt(v) for v in obj) + "]"
        elif isinstance(obj, str):
            value = obj
        else:
            value = _fmt(obj)
        lines.append(f"{path}: {value}")
    return lines


def write_report(obj, fmt="json"):
    if fmt == "json":
        return dumps(obj) + "\n"
    return "\n".join(to_text(obj)) + "\n"
