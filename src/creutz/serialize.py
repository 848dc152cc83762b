"""Writers for the delimited output formats.

CSV files carry ``#``-prefixed metadata lines (``# key = value``), then
a header row, then data rows.  Each value is written as printf
``%.15g`` writes it: rounded to 15 significant digits, half to even on
the exact binary value, trailing zeros and a bare point dropped, in
exponent form below 1e-4 and from 1e15.  JSON files mirror the same
content with explicit field names.  Identical inputs produce
byte-identical files; see docs/formats.md for the per-command schemas.

A table's rows reach the writer as blocks of columns, each holding one 1-D
column per column name for the next rows; they are formatted and written a
piece of ``_CSV_BLOCK_ROWS`` values at a time from one buffer.  An existing
regular file is rewritten in place and truncated where the table ends, so a
run killed mid-write can leave old bytes after the new ones.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import sys
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import __version__

ARTIFACT = "creutz"
# A table is formatted and written a piece of ``_CSV_BLOCK_ROWS // columns``
# rows at a time: a CSV piece peaks at its text slots, its text and a few
# 8-byte arrays, about 1.5 MiB, and a JSON piece at about 1.7 MiB.
_CSV_BLOCK_ROWS = 16384
_Blocks = Iterable[Sequence[np.ndarray]]  # blocks of 1-D columns, one per column name

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
# Bytes per value in a piece: sign, 15 integer digits, point, 18 fraction
# digits and the separator, the nine words the digits fill.  A value of
# the ``%`` fallback takes up to 22 of them.
_SLOT = 36


def _meta_str(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _product_error(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``a * 10**k`` less its rounded product, exactly: Dekker's product, no FMA."""
    hi = a * _POW10[k]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    return ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _split(x: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    quotient = x // unit  # a scalar divisor: faster than np.divmod
    rest = quotient * unit
    return quotient, np.subtract(x, rest, out=rest)


def _format_values(values: np.ndarray) -> np.ndarray:
    """``"%.15g" % v`` for each float64 v, as ``_SLOT`` bytes a value.

    Each text is NUL-padded within its slot, whose last byte is left for
    the separator.  Zero and the values printed in fixed notation (|v|
    rounds to [1e-4, 1e15)) are formatted here; the rest take the ``%``
    operator.  |v| rounds to r * 10**(-k) with r a 15-digit integer: r
    is |v| * 10**k rounded half to even, where k = 14 - floor(log10 |v|),
    moved by one where that is off near a power of ten, and by one more
    where r rounds up to 1e15.  Each temporary is freed once spent, so a
    piece's peak is its ``_SLOT`` bytes a value and a few arrays more.
    """
    n = values.size
    a = np.abs(values)
    zero = a == 0
    # every value printed in fixed notation, and some not; no inf or nan
    fast = zero | ((a >= 1e-5) & (a < 1e15))
    np.copyto(a, 1.0, where=fast == zero)  # zero and the % values: log10 is 0
    e = np.log10(a)
    np.subtract(14.0, np.floor(e, out=e), out=e)
    k = e.astype(np.intp)
    del e
    np.clip(k, 0, 19, out=k)  # the powers of ten stay exact
    hi = _POW10.take(k)
    hi *= a
    # Where floor(log10) is one off near a power of ten, move k and scale
    # again.  hi == 1e15 needs no move: it rounds to 1e15, a carry below.
    redo = np.flatnonzero((hi < 1e14) | (hi > 1e15))
    if redo.size:
        h = hi[redo]
        k[redo] = np.clip(k[redo] + (h < 1e14) - (h > 1e15), 0, 19)
        hi[redo] = h = a[redo] * _POW10[k[redo]]
        fast[redo] &= (h >= 1e14) & (h <= 1e15)
    # Round half to even: hi's fraction is a multiple of ulp(hi), and the
    # exact product is hi + lo with |lo| <= ulp(hi) / 2, so lo only
    # decides where hi is half way between two integers.
    r = np.rint(hi)
    d = r - hi
    tie = np.flatnonzero(np.abs(d, out=d) == 0.5)
    del d
    if tie.size:
        lo = _product_error(a[tie], k[tie])
        r[tie] = np.where(lo == 0.0, r[tie], hi[tie] + np.copysign(0.5, lo))
    del a, hi
    carry = np.flatnonzero(r == 1e15)
    r[carry] = 1e14
    k[carry] -= 1
    r[zero] = 0.0
    del zero
    fast &= (k >= 0) & (k <= 18)
    # Integer part r // 10**k and fraction digits, 18 places left-aligned.
    np.clip(k, 0, 18, out=k)
    power = _POW10.take(k)
    whole = r / power
    np.floor(whole, out=whole)  # exact: r < 2**53
    r -= np.multiply(whole, power, out=power)
    del power
    fraction = r.astype(np.int64)
    del r
    fraction *= _POW10_INT.take(np.subtract(18, k, out=k))
    del k
    whole = whole.astype(np.int64)
    # Four digits a word, leading zeros of the integer part and trailing
    # zeros of the fraction as NUL: words 0-3 hold the sign and the
    # integer part (3, 4, 4, 4 digits), words 4-8 the point, the fraction
    # (3, 4, 4, 4, 3 digits) and the separator.
    table = _digit_words()
    words = np.empty((n, _SLOT // 4), table.dtype)  # little-endian, as the text
    rest = whole
    for i, unit in enumerate((10**12, 10**8, 10**4)):
        g, rest = _split(rest, unit)
        np.add(g, _LEAD, out=g, where=whole < 10**4 * unit)  # the words before are zero
        words[:, i] = table.take(g)
    np.add(rest, _LEAD, out=rest, where=whole < 10**4)
    words[:, 3] = table.take(rest)
    del whole, g, rest
    for i, unit in enumerate((10**15, 10**11, 10**7, 10**3), 4):
        g, fraction = _split(fraction, unit)
        np.add(g, _TRAIL, out=g, where=fraction == 0)  # the digits after are zero
        words[:, i] = table.take(g)
    del g
    fraction *= 10
    fraction += _TRAIL
    words[:, 8] = table.take(fraction)
    del fraction
    text = words.view(np.uint8)
    text[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    text[:, 15] |= ord("0")  # the units digit, NUL when the integer part is 0
    # the point where a fraction digit is; word 4 is NUL where none is
    text[:, 16] = (words[:, 4] != 0) * np.uint8(ord("."))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = 0
        formatted = np.array(["%.15g" % v for v in values[slow].tolist()], dtype="S22")
        text[slow, :22] = formatted.view(np.uint8).reshape(-1, 22)
    return text


def _pieces(width: int, blocks: _Blocks) -> Iterator[np.ndarray]:
    """The rows of each block of ``width`` columns, as float rows in one buffer of
    ``_CSV_BLOCK_ROWS`` values a piece at a time: a piece is overwritten by the next."""
    step = _CSV_BLOCK_ROWS // width
    buffer = np.empty((step, width))
    for block in blocks:
        n_rows = len(block[0])
        for lo in range(0, n_rows, step):
            piece = buffer[: min(step, n_rows - lo)]
            for j in range(width):
                piece[:, j] = block[j][lo : lo + step]
            yield piece
        del block  # not held while the next block is made: one block at a time


def _csv_rows(piece: np.ndarray) -> bytes:
    """The CSV lines of a 2-D ``piece`` of rows."""
    slots = _format_values(piece.ravel()).reshape(*piece.shape, _SLOT)
    slots[:, :, -1] = ord(",")
    slots[:, -1, -1] = ord("\n")
    return slots[slots != 0].tobytes()


def _csv_blocks(metadata: dict, columns: Sequence[str], blocks: _Blocks) -> Iterator[bytes]:
    """The CSV text as bytes: the metadata and header lines, then each piece of rows.

    A piece's arrays are freed before the next is made: only the caller
    holds its text."""
    lines = [f"# {ARTIFACT} v{__version__}"]
    lines += [f"# {key} = {_meta_str(value)}" for key, value in metadata.items()]
    yield "\n".join([*lines, ",".join(columns), ""]).encode()
    yield from map(_csv_rows, _pieces(len(columns), blocks))


def _json_rows(piece: np.ndarray) -> bytes:
    """The rows of a 2-D ``piece`` as in ``json.dumps`` at indent 2, one value a line."""
    # float.__repr__ is what json.dumps writes for a finite float
    cells = list(map(float.__repr__, piece.ravel().tolist()))
    for i in np.flatnonzero(~np.isfinite(piece.ravel())):
        cells[i] = '"%.15g"' % piece.flat[i]
    width = piece.shape[1]
    texts = ["    [\n      " + ",\n      ".join(cells[i : i + width]) + "\n    ]"
             for i in range(0, len(cells), width)]
    del cells
    return ",\n".join(texts).encode()


def _json_blocks(metadata: dict, columns: Sequence[str], blocks: _Blocks) -> Iterator[bytes]:
    """The bytes of ``json.dumps(payload, indent=2)`` and a newline, the rows a
    piece at a time; a non-finite value is its CSV text, ``"inf"``, ``"-inf"``
    or ``"nan"``, as strict JSON has no Infinity or NaN literal."""
    payload = {"artifact": ARTIFACT, "version": __version__, "metadata": dict(metadata),
               "columns": list(columns), "rows": []}
    head = json.dumps(payload, indent=2)  # ends in '"rows": []\n}'
    before, end = (head[:-3] + "\n").encode(), (head + "\n").encode()
    for piece in _pieces(len(columns), blocks):
        yield before
        yield _json_rows(piece)
        before, end = b",\n", b"\n  ]\n}\n"
    yield end


def write_table(path: str, metadata: dict[str, Any], columns: Sequence[str], blocks: _Blocks,
                fmt: str = "csv") -> None:
    """Write one result table to ``path`` (or stdout when path is '-'), a piece of rows at a time;
    ``blocks`` may be a generator that makes each block of columns as the writer asks for it."""
    if fmt == "csv":
        texts = _csv_blocks(metadata, columns, blocks)
    elif fmt == "json":
        texts = _json_blocks(metadata, columns, blocks)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path == "-":
        sys.stdout.writelines(text.decode() for text in texts)
        return
    # An existing file is rewritten in place and cut at the end: truncating
    # it on open waits for the writeback of its old blocks.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        try:
            handle.writelines(texts)  # each piece as soon as it is formatted
        finally:  # also after a failed piece: the new prefix, none of the old bytes
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # not /dev/null or a FIFO
                handle.truncate()
