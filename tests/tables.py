"""Test helpers: the ``%.15g`` value text, the CSV and JSON texts of
``creutz.serialize.write_table`` as one string each, a parser of its tables,
and the echo kernel's full-angle form with one ``arctan2`` per element."""

from __future__ import annotations

import json
from typing import Any, Sequence

import numpy as np

from creutz.serialize import _csv_blocks, _json_blocks


def format_float(x: float) -> str:
    """The reference text of one CSV value."""
    return f"{x:.15g}"


def one_block(rows) -> list[list[np.ndarray]]:
    """A table of ``rows`` (2-D, or one row as a 1-D array) as the one block of
    columns that ``write_table`` takes."""
    return [list(np.atleast_2d(np.asarray(rows, dtype=float)).T)]


def render_csv(metadata: dict[str, Any], columns: Sequence[str], rows: np.ndarray) -> str:
    """CSV text of ``rows`` as one block; each value as ``format_float`` writes it.

    The join of the pieces that ``write_table`` streams as each is formatted.
    In a piece, numpy formats zero and the values printed in fixed notation,
    the ``%`` operator the rest (non-finite, or |x| below 1e-4 or from 1e15
    after rounding); the texts and separators fill one NUL-padded byte array.
    """
    return b"".join(_csv_blocks(metadata, columns, one_block(rows))).decode()


def render_json(metadata: dict[str, Any], columns: Sequence[str], rows: np.ndarray) -> str:
    """JSON text of ``rows`` as one block, the join of the pieces that ``write_table`` streams."""
    return b"".join(_json_blocks(metadata, columns, one_block(rows))).decode()


def full_angle_per_element(modes, start, a, b, wide, narrow, log_le, arg=None) -> None:
    """``creutz.quench._DirectModes._full_angle`` on fresh arrays, with the
    amplitude's argument as one ``arctan2`` per mode and time, the reference
    for its products of four factors.  Both sums run over whole rows, the
    modes that pad the group to a multiple of 4 with factors 1 too."""
    z = modes.offsets[a:b] * start
    log_le += 2.0 * np.sum(np.log(z.real + modes.p), axis=-1)
    if arg is not None:
        arg += 2.0 * np.sum(np.arctan2(z.imag, z.real + modes.r), axis=-1)


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
