"""Deterministic CSV emission.

Floats are printed at 17 significant digits so round-tripping the files
reproduces the doubles bit for bit; files are written to a temp name and
renamed into place so a crashed run never leaves a half-written sweep;
a write that fails removes its temp file.
No timestamps or environment echoes: identical inputs give identical
bytes.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["fmt", "write_csv"]


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # nan, inf and -inf print as such
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str | Path, columns, rows, header_comments=()) -> Path:
    """Write rows atomically; header comment lines start with '# '."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in header_comments:
                fh.write(f"# {line}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
