"""Deterministic CSV emission.

Floats are printed at 17 significant digits so round-tripping the files
reproduces the doubles bit for bit; files are written to a temp name and
renamed into place so a crashed run never leaves a half-written sweep;
a write that fails removes its temp file.
No timestamps or environment echoes: identical inputs give identical
bytes. Writes are column-major: an ndarray of float, bool or int dtype
takes its conversion from the dtype kind, any other column from the one
type its cells share (`fmt` cells are str, so a value shared by many rows
is formatted once); one `%` row template per file streams over Python
scalars (`ndarray.tolist()`), which print faster than numpy's.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

__all__ = ["fmt", "write_csv"]

_FORMATS = {bool: "%s", float: "%.17g", int: "%d", str: "%s"}  # bool before its base int
_KINDS = {"b": bool, "f": float, "i": int, "u": int}  # ndarray dtype kind -> cell type


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # nan, inf and -inf print as such
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str | Path, names, *columns, header_comments=()) -> Path:
    """Write one equal-length column per name atomically, giving `fmt`'s bytes
    for every cell; comment lines start with '# '."""
    path = Path(path)
    if len(names) != len(columns) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"need one equal-length column per name; got names {tuple(names)} "
                         f"for columns of lengths {[len(c) for c in columns]}")
    conversions, cells = [], []
    for name, column in zip(names, columns):
        kind = _KINDS.get(column.dtype.kind) if isinstance(column, np.ndarray) else None
        column = column.tolist() if isinstance(column, np.ndarray) else column
        if kind is None:
            types = {next((b for b in _FORMATS if issubclass(t, b)), t) for t in set(map(type, column))}
            if len(types) > 1 or not types.issubset(_FORMATS):
                raise TypeError(f"column {name!r} holds {' and '.join(sorted(map(str, types)))} cells")
            kind = types.pop() if types else str  # a column with no rows
        conversions.append(_FORMATS[kind])
        cells.append(["true" if v else "false" for v in column] if kind is bool else column)
    template = ",".join(conversions) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in header_comments:
                fh.write(f"# {line}\n")
            fh.write(",".join(names) + "\n")
            fh.writelines(template % r for r in zip(*cells))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
