"""Deterministic CSV emission.

Floats are printed at 17 significant digits so round-tripping the files
reproduces the doubles bit for bit; files are written to a temp name and
renamed into place so a crashed run never leaves a half-written sweep;
a write that fails removes its temp file.
No timestamps or environment echoes: identical inputs give identical
bytes. Writes are column-major: one `%` row template per file, streamed
over Python scalars (`ndarray.tolist()`), which print faster than numpy's.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

__all__ = ["fmt", "table", "write_csv"]

_FORMATS = {bool: "%s", float: "%.17g", int: "%d", str: "%s"}  # bool before its base int


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # nan, inf and -inf print as such
        return f"{value:.17g}"
    return str(value)


def table(*columns) -> np.recarray:
    """`write_csv` rows of equal-length columns; a non-ndarray column keeps its Python cells."""
    return np.rec.fromarrays([c if isinstance(c, np.ndarray) else np.array(c, dtype=object)
                              for c in columns])


def write_csv(path: str | Path, columns, rows, header_comments=()) -> Path:
    """Write `rows` (see `table`) atomically: the one type a column's cells share
    picks its conversion, giving `fmt`'s bytes; comment lines start with '# '."""
    path = Path(path)
    conversions, cells = [], []
    for name, field in zip(columns, rows.dtype.names, strict=True):
        column = rows[field].tolist()
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
            fh.write(",".join(columns) + "\n")
            fh.writelines(template % r for r in zip(*cells))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
