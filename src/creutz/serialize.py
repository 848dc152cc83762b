"""Writers and readers for the delimited output formats.

CSV files carry ``#``-prefixed metadata lines (``# key = value``), then
a header row, then data rows with 15 significant digits.  JSON files
mirror the same content with explicit field names.  Identical inputs
produce byte-identical files; see docs/formats.md for the per-command
schemas.
"""

from __future__ import annotations

import io
import json
import sys
from typing import Any, Sequence

import numpy as np

from . import __version__

ARTIFACT = "creutz"
# Rows per formatting operation in ``render_csv``: formatting the whole
# table at once would hold every value as a Python float.
_CSV_BLOCK_ROWS = 4096


def format_float(x: float) -> str:
    return f"{x:.15g}"


def _meta_str(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _as_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` as a 2-D float array; a 1-D input is one row, an empty one none."""
    rows = np.asarray(rows, dtype=float)
    return np.atleast_2d(rows) if len(rows) else np.empty((0, 0))


def render_csv(metadata: dict[str, Any], columns: Sequence[str], rows: np.ndarray) -> str:
    """CSV text; each value as ``format_float`` writes it.

    Rows are formatted ``_CSV_BLOCK_ROWS`` at a time with one ``%``
    operation: ``"%.15g" % x`` and ``f"{x:.15g}"`` give the same text.
    """
    out = io.StringIO()
    out.write(f"# {ARTIFACT} v{__version__}\n")
    for key, value in metadata.items():
        out.write(f"# {key} = {_meta_str(value)}\n")
    out.write(",".join(columns) + "\n")
    rows = _as_rows(rows)
    line = ",".join(["%.15g"] * rows.shape[1]) + "\n"
    for lo in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
        block = rows[lo : lo + _CSV_BLOCK_ROWS]
        out.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
    return out.getvalue()


def render_json(metadata: dict[str, Any], columns: Sequence[str], rows: np.ndarray) -> str:
    payload = {
        "artifact": ARTIFACT,
        "version": __version__,
        "metadata": dict(metadata),
        "columns": list(columns),
        "rows": _as_rows(rows).tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def write_table(
    path: str,
    metadata: dict[str, Any],
    columns: Sequence[str],
    rows: np.ndarray,
    fmt: str = "csv",
) -> None:
    """Write one result table to ``path`` (or stdout when path is '-')."""
    if fmt == "csv":
        text = render_csv(metadata, columns, rows)
    elif fmt == "json":
        text = render_json(metadata, columns, rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _parse_meta(value: str) -> Any:
    if value == "true":
        return True
    if value == "false":
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def read_table(path: str) -> tuple[dict[str, Any], list[str], np.ndarray]:
    """Parse a file written by ``write_table`` back into its parts."""
    with open(path) as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        rows = np.asarray(payload["rows"], dtype=float)
        return payload["metadata"], payload["columns"], rows
    metadata: dict[str, Any] = {}
    columns: list[str] = []
    data: list[list[float]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = _parse_meta(value.strip())
            continue
        if not columns:
            columns = line.split(",")
            continue
        data.append([float(cell) for cell in line.split(",")])
    rows = np.asarray(data, dtype=float) if data else np.empty((0, len(columns)))
    return metadata, columns, rows
