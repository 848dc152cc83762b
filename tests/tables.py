"""Test helpers: the ``%.15g`` value text, the CSV text of
``creutz.serialize.write_table`` as one string, and a parser of its tables."""

from __future__ import annotations

import json
from typing import Any, Sequence

import numpy as np

from creutz.serialize import _csv_blocks


def format_float(x: float) -> str:
    """The reference text of one CSV value."""
    return f"{x:.15g}"


def render_csv(metadata: dict[str, Any], columns: Sequence[str], rows: np.ndarray) -> str:
    """CSV text; each value as ``format_float`` writes it.

    The join of the blocks that ``write_table`` streams as each is formatted.
    In a block, numpy formats zero and the values printed in fixed notation,
    the ``%`` operator the rest (non-finite, or |x| below 1e-4 or from 1e15
    after rounding); the texts and separators fill one NUL-padded byte array.
    """
    return b"".join(_csv_blocks(metadata, columns, rows)).decode()


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
