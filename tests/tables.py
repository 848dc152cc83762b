"""Test helper: parse a table written by ``creutz.serialize.write_table``."""

from __future__ import annotations

import json
from typing import Any

import numpy as np


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
