"""Writers for the delimited output formats.

CSV files carry ``#``-prefixed metadata lines (``# key = value``), then
a header row, then data rows.  Each value is written as printf
``%.15g`` writes it: rounded to 15 significant digits, half to even on
the exact binary value, trailing zeros and a bare point dropped, in
exponent form below 1e-4 and from 1e15.  JSON files mirror the same
content with explicit field names.  Identical inputs produce
byte-identical files; see docs/formats.md for the per-command schemas.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Any, Iterator, Sequence

import numpy as np

from . import __version__

ARTIFACT = "creutz"
# A CSV table is formatted and written a block of rows at a time: the
# temporaries take about 230 bytes a value, so a block of
# ``_CSV_BLOCK_ROWS // columns`` rows holds under 1 MiB of them.
_CSV_BLOCK_ROWS = 4096

# Exact doubles 10**0 .. 10**19, each split into two 26-bit halves for
# Dekker's exact product, and the same powers as integers.
_SPLIT = 2.0**27 + 1.0
_POW10 = np.array([10.0**k for k in range(20)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10**k for k in range(19)], dtype=np.int64)


@functools.cache
def _digit_words() -> np.ndarray:
    """The text of 0000..9999 as little-endian uint32 words, four ASCII digits each.

    Three blocks of 10**4 words: all four digits, then leading zeros as
    NUL bytes, then trailing zeros as NUL bytes (0 is four NULs in both).
    Built on first use, so that importing the package stays as fast.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    text = digits + np.uint8(ord("0"))
    lead = text * (np.maximum.accumulate(digits, axis=1) > 0)
    trail = text * (np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0)
    return np.ascontiguousarray(np.concatenate([text, lead, trail])).view("<u4").ravel()


_LEAD, _TRAIL = 10**4, 2 * 10**4
# Bytes per value in a block: sign, 15 integer digits, point, 18 fraction
# digits and the separator, the nine words the digits fill.  A value of
# the ``%`` fallback takes up to 22 of them.
_SLOT = 36


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


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(14 - x)`` as ``hi + lo`` exactly: Dekker's product, no FMA."""
    k = 14 - x
    hi = a * _POW10[k]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _split(x: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    quotient = x // unit  # a scalar divisor: faster than np.divmod
    return quotient, x - quotient * unit


def _format_values(values: np.ndarray) -> np.ndarray:
    """``"%.15g" % v`` for each float64 v, as ``_SLOT`` bytes a value.

    Each text is NUL-padded within its slot, whose last byte is left for
    the separator.  Zero and the values printed in fixed notation (|v|
    rounds to [1e-4, 1e15)) are formatted here; the rest take the ``%``
    operator.  |v| rounds to r * 10**(X - 14) with r a 15-digit integer:
    r is |v| * 10**(14 - X) rounded half to even, where the exponent X
    is floor(log10 |v|), moved by one where that is off near a power of
    ten, and by one more where r rounds up to 1e15.
    """
    n = values.size
    a = np.abs(values)
    zero = a == 0
    # every value printed in fixed notation, and some not; no inf or nan
    fast = zero | ((a >= 1e-5) & (a < 1e15))
    a = np.where(fast & ~zero, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.intp)
    np.clip(x, -5, 14, out=x)  # the powers of ten stay exact
    hi, lo = _scaled(a, x)
    # Where floor(log10) is one off near a power of ten, move x and scale
    # again.  hi == 1e15 needs no move: it rounds to 1e15, a carry below.
    error = (hi > 1e15).astype(np.intp) - (hi < 1e14)
    redo = np.flatnonzero(error)
    if redo.size:
        x[redo] = np.clip(x[redo] + error[redo], -5, 14)
        hi[redo], lo[redo] = _scaled(a[redo], x[redo])
        fast[redo] &= (hi[redo] >= 1e14) & (hi[redo] <= 1e15)
    # Round half to even: hi's fraction d is a multiple of ulp(hi), and
    # |lo| <= ulp(hi) / 2, so lo only matters at d == 1/2.
    r = np.floor(hi)
    d = hi - r
    odd = r - 2.0 * np.floor(0.5 * r) == 1.0
    r += (d > 0.5) | ((d == 0.5) & ((lo > 0) | ((lo == 0) & odd)))
    carry = r == 1e15
    r[carry] = 1e14
    x += carry
    r[zero] = 0.0
    fast &= (x >= -4) & (x <= 14)
    # Integer part r // 10**k and fraction digits, 18 places left-aligned.
    k = np.clip(14 - x, 0, 18)
    power = _POW10[k]
    whole = np.floor(r / power)  # exact: r < 2**53
    fraction = (r - whole * power).astype(np.int64) * _POW10_INT[18 - k]
    whole = whole.astype(np.int64)
    # Four digits a word, leading zeros of the integer part and trailing
    # zeros of the fraction as NUL: words 0-3 hold the sign and the
    # integer part (3, 4, 4, 4 digits), words 4-8 the point, the fraction
    # (3, 4, 4, 4, 3 digits) and the separator.
    table = _digit_words()
    words = np.empty((n, _SLOT // 4), table.dtype)  # little-endian, as the text
    g0, rest = _split(whole, 10**12)
    g1, rest = _split(rest, 10**8)
    g2, g3 = _split(rest, 10**4)
    words[:, 0] = table[g0 + _LEAD]
    words[:, 1] = table[g1 + _LEAD * (whole < 10**12)]
    words[:, 2] = table[g2 + _LEAD * (whole < 10**8)]
    words[:, 3] = table[g3 + _LEAD * (whole < 10**4)]
    h0, rest = _split(fraction, 10**15)
    words[:, 4] = table[h0 + _TRAIL * (rest == 0)]
    h1, rest = _split(rest, 10**11)
    words[:, 5] = table[h1 + _TRAIL * (rest == 0)]
    h2, rest = _split(rest, 10**7)
    words[:, 6] = table[h2 + _TRAIL * (rest == 0)]
    h3, h4 = _split(rest, 10**3)
    words[:, 7] = table[h3 + _TRAIL * (h4 == 0)]
    words[:, 8] = table[h4 * 10 + _TRAIL]
    text = words.view(np.uint8)
    text[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    text[:, 15] |= ord("0")  # the units digit, NUL when the integer part is 0
    text[:, 16] = (fraction != 0) * np.uint8(ord("."))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = 0
        formatted = np.array(["%.15g" % v for v in values[slow].tolist()], dtype="S22")
        text[slow, :22] = formatted.view(np.uint8).reshape(-1, 22)
    return text


def _csv_blocks(metadata: dict, columns: Sequence[str], rows: np.ndarray) -> Iterator[bytes]:
    """The CSV text as bytes: the metadata and header lines, then each block of rows."""
    lines = [f"# {ARTIFACT} v{__version__}"]
    lines += [f"# {key} = {_meta_str(value)}" for key, value in metadata.items()]
    yield "\n".join([*lines, ",".join(columns), ""]).encode()
    rows = _as_rows(rows)
    n_rows, n_columns = rows.shape
    if not n_columns:  # rows without values
        yield b"\n" * n_rows
        return
    step = max(1, _CSV_BLOCK_ROWS // n_columns)
    for lo in range(0, n_rows, step):
        block = rows[lo : lo + step]
        slots = _format_values(block.ravel()).reshape(block.shape[0], n_columns, _SLOT)
        slots[:, :, -1] = ord(",")
        slots[:, -1, -1] = ord("\n")
        yield slots[slots != 0].tobytes()


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
    """Write one result table to ``path`` (or stdout when path is '-'), CSV a block at a time."""
    if fmt == "csv":
        blocks = _csv_blocks(metadata, columns, rows)
    elif fmt == "json":
        blocks = [render_json(metadata, columns, rows).encode()]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path == "-":
        sys.stdout.writelines(block.decode() for block in blocks)
    else:
        with open(path, "wb") as handle:
            handle.writelines(blocks)  # each block as soon as it is formatted
