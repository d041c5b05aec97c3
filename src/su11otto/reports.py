"""Deterministic CSV emission.

Floats are printed at 17 significant digits so round-tripping the files
reproduces the doubles bit for bit; files are written to a temp name and
renamed into place so a crashed run never leaves a half-written sweep;
a write that fails removes its temp file.
No timestamps or environment echoes: identical inputs give identical
bytes. Each column's conversion is fixed before the temp file opens: an
ndarray of float, bool or int dtype takes it from the dtype kind, any
other column from the one type its cells share (`fmt` cells are str, so a
value shared by many rows is formatted once). Rows then stream in blocks of
`_BLOCK_ROWS`: each block slices every column, turns only that slice into
Python scalars (`ndarray.tolist()`, which print faster than numpy's) and
prints it through one `%` row template, so the writer holds one block of
cells, not the whole file's: its memory does not grow with rows x columns.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

__all__ = ["fmt", "write_csv"]

_FORMATS = {bool: "%s", float: "%.17g", int: "%d", str: "%s"}  # bool before its base int
_KINDS = {"b": bool, "f": float, "i": int, "u": int}  # ndarray dtype kind -> cell type
_BLOCK_ROWS = 256  # rows converted and printed at a time; writer time is flat from 256 to 4,096


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # nan, inf and -inf print as such
        return f"{value:.17g}"
    return str(value)


def _block(column, start: int, kind):
    """Cells `start` to `start + _BLOCK_ROWS` of `column` as Python scalars; a column
    of one block is read in place, since copying its list raised `oracle`'s peak RSS."""
    cells = column[start:start + _BLOCK_ROWS] if len(column) > _BLOCK_ROWS else column
    cells = cells.tolist() if isinstance(cells, np.ndarray) else cells
    return ["true" if v else "false" for v in cells] if kind is bool else cells


def write_csv(path: str | Path, names, *columns, header_comments=()) -> Path:
    """Write one equal-length column per name atomically, giving `fmt`'s bytes
    for every cell; comment lines start with '# '."""
    path = Path(path)
    if len(names) != len(columns) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"need one equal-length column per name; got names {tuple(names)} "
                         f"for columns of lengths {[len(c) for c in columns]}")
    kinds = []
    for name, column in zip(names, columns):
        kind = _KINDS.get(column.dtype.kind) if isinstance(column, np.ndarray) else None
        if kind is None:
            cells = column.tolist() if isinstance(column, np.ndarray) else column
            types = {next((b for b in _FORMATS if issubclass(t, b)), t) for t in set(map(type, cells))}
            if len(types) > 1 or not types.issubset(_FORMATS):
                raise TypeError(f"column {name!r} holds {' and '.join(sorted(map(str, types)))} cells")
            kind = types.pop() if types else str  # a column with no rows
        kinds.append(kind)
    template = ",".join(_FORMATS[kind] for kind in kinds) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in header_comments:
                fh.write(f"# {line}\n")
            fh.write(",".join(names) + "\n")
            for start in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS):
                block = [_block(c, start, kind) for c, kind in zip(columns, kinds)]
                fh.writelines(template % r for r in zip(*block))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
