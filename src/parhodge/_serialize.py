"""Deterministic report serialization.

Floats are written with 17 significant digits, and with a decimal point or
an exponent, so reports round-trip exactly, floats read back as floats, and
identical runs produce byte-identical files; non-finite floats are
`null` and `json` escapes strings, so the output is strict JSON.  The text
format mirrors the JSON field order as flattened `path: value` lines.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# an entry of a float row that %.17g printed as an integer, with the "[" or
# " " before it
_INTEGRAL = re.compile(r"([\[ ]-?\d+)(?=[,\]])")


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
        text = format(float(x), ".17g") if math.isfinite(x) else "null"
        # an integral float gets ".0", or it would read back as an integer
        return text + ".0" if text.lstrip("-").isdigit() else text
    raise TypeError(f"unsupported scalar {type(x)}")


def _float_rows(rows, lead):
    """`lead[x, y, ...]` for each row, joined by ",\n", when `rows` is a
    list of equal-length lists of finite floats or a 2-d float array with
    finite entries, else None: one % over a %.17g template, then, if some
    entry is integral, one regex pass that gives those entries their
    ".0", so every entry reads as `_fmt` writes it.  An array's entries
    are checked all at once, with no per-entry type scan."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.dtype != float or not rows.size \
                or not np.isfinite(rows).all():
            return None
        width, flat = rows.shape[1], rows.ravel().tolist()
        integral = bool((np.trunc(rows) == rows).any())
    else:
        if set(map(type, rows)) != {list} or len(set(map(len, rows))) != 1 or not rows[0]:
            return None
        flat = [x for row in rows for x in row]
        if set(map(type, flat)) != {float}:
            return None
        width, integral = len(rows[0]), any(map(float.is_integer, flat))
    template = lead + "[" + ", ".join(["%.17g"] * width) + "]"
    text = ",\n".join([template] * len(rows)) % tuple(flat)
    if "n" in text:  # nan or inf, which `_fmt` writes as null
        return None
    return _INTEGRAL.sub(r"\1.0", text) if integral else text


def _scalars(values):
    """A flat list of scalars as `[a, b, ...]`."""
    return _float_rows([values], "") or "[" + ", ".join(_fmt(v) for v in values) + "]"


def dumps(obj, indent=0):
    """`obj` as JSON in the report layout; an array is written as the list
    `obj.tolist()` is, a 2-d float array with finite entries straight
    from the array (`_float_rows`)."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        matrix = _float_rows(obj, pad + "  ")
        if matrix is None:
            return dumps(obj.tolist(), indent)
        return "[\n" + matrix + "\n" + pad + "]"
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
            return _scalars(obj)
        matrix = _float_rows(obj, pad + "  ")
        if matrix is not None:
            return "[\n" + matrix + "\n" + pad + "]"
        items = [f"{pad}  {dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _fmt(obj)


def to_text(obj, prefix=""):
    """Flatten to `path: value` lines mirroring the JSON field order."""
    lines = []
    if isinstance(obj, np.ndarray):
        matrix = _float_rows(obj, "")
        if matrix is None:
            return to_text(obj.tolist(), prefix)
        lines.extend(f"{prefix}{i}: {row}" for i, row in enumerate(matrix.split(",\n")))
    elif isinstance(obj, dict):
        for key, val in obj.items():
            lines.extend(to_text(val, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)) and any(
        isinstance(v, (dict, list, tuple)) for v in obj
    ):
        matrix = _float_rows(obj, "") if isinstance(obj, list) else None
        if matrix is not None:
            lines.extend(f"{prefix}{i}: {row}" for i, row in enumerate(matrix.split(",\n")))
        else:
            for i, val in enumerate(obj):
                lines.extend(to_text(val, f"{prefix}{i}."))
    else:
        path = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(obj, (list, tuple)):
            value = _scalars(obj)
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
