"""Deterministic JSON and CSV emission for reports and curve files.

Field order is fixed by construction (dicts are emitted in insertion order)
and every float is printed with 17 significant digits, so repeated runs of
the same computation produce byte-identical output.
"""

from __future__ import annotations

import math
from typing import Any


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return f"{value:.17g}"


def _emit(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"JSON has no value for the float {obj!r}")
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            out.append(pad + '  "' + str(key) + '": ')
            _emit(value, out, indent + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for k, value in enumerate(seq):
            out.append(pad + "  ")
            _emit(value, out, indent + 1)
            out.append(",\n" if k < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Serialize nested dicts/lists/scalars to a stable JSON string.

    Keys keep insertion order, floats use :func:`format_float`, and the
    result ends with a single LF.

    Raises:
        ValueError: If a float is infinite or NaN, which JSON cannot hold.
    """
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def canonical_csv(header: list[str], rows: list[list[Any]]) -> str:
    """Render rows as comma-delimited CSV with a header and LF endings.

    Every row goes through one ``%`` template built from its columns: ``%d``
    for a column of ints, ``%.17g`` (:func:`format_float`) for a column of
    floats, nothing for a column of None, and ``%s`` over the cells rendered
    one by one for any other column.
    """
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(header)}"
            )
    formats, columns = [], []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds == {int}:
            formats.append("%d")
            columns.append(column)
        elif kinds == {float}:
            formats.append("%.17g")
            columns.append(column)
        elif kinds == {type(None)}:
            formats.append("")
        else:
            formats.append("%s")
            columns.append([_cell(value) for value in column])
    template = ",".join(formats) + "\n"
    # Without a column to fill, every row is the template itself.
    cells = zip(*columns) if columns else [()] * len(rows)
    return ",".join(header) + "\n" + "".join([template % row for row in cells])
