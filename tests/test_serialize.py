"""Table writers: the block CSV formatter and the JSON rows, against per-value forms."""

import json
import tracemalloc

import numpy as np
import pytest

from creutz import LadderParams, __version__, allowed_modes, mode_data, serialize
from creutz.serialize import _CSV_BLOCK_ROWS, write_table
from tables import format_float, one_block, render_csv, render_json

# signed zero, non-finite values, the subnormal and overflow ends, and the
# switch to exponent notation between 1e15 and 1e16
SPECIAL = [
    -0.0, 0.0, float("nan"), float("inf"), float("-inf"),
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
    999999999999999.0, 1e15, 9999999999999998.0, 1e16, 1e-5, 1e-4,
    0.1, 1.0 / 3.0, -123456.789012345678, 2.0**53 + 1.0,
]


def reference_csv(columns, rows):
    """render_csv with empty metadata, one ``format_float`` call per value."""
    lines = [f"# creutz v{__version__}", ",".join(columns)]
    lines += [",".join(format_float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def assert_same_text(actual, expected):
    """Equal texts, or a failure naming the first differing line.

    pytest's own diff of two texts of thousands of lines takes minutes.
    """
    if actual != expected:
        pairs = zip(actual.splitlines(), expected.splitlines())
        first = next(((a, e) for a, e in pairs if a != e), "one text is a prefix of the other")
        pytest.fail(f"first difference: {first}")


def table(n_rows, n_cols=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_rows * n_cols) * 10.0 ** rng.integers(-320, 308, n_rows * n_cols)
    values[: len(SPECIAL)] = SPECIAL[: values.size]
    return values.reshape(n_rows, n_cols)


class TestRenderCsv:
    @pytest.mark.parametrize(
        "n_rows",
        sorted({0, 1, 4095, 4096, 4097, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1}),
    )
    def test_byte_identical_to_per_value_format(self, n_rows):
        columns = ["a", "b", "c"]
        rows = table(n_rows)
        assert_same_text(render_csv({}, columns, rows), reference_csv(columns, rows))

    def test_special_values(self):
        rows = np.array(SPECIAL).reshape(-1, 4)
        text = render_csv({}, list("abcd"), rows)
        assert_same_text(text, reference_csv(list("abcd"), rows))
        assert text.splitlines()[2].startswith("-0,0,nan,inf")

    @pytest.mark.parametrize("n_columns", [1, 3, 8])
    def test_block_boundaries(self, n_columns):
        step = _CSV_BLOCK_ROWS // n_columns
        rng = np.random.default_rng(n_columns)
        columns = [f"c{i}" for i in range(n_columns)]
        for n_rows in (step - 1, step, step + 1, 2 * step + 1):
            rows = rng.standard_normal((n_rows, n_columns))
            assert_same_text(render_csv({}, columns, rows), reference_csv(columns, rows))

    @pytest.mark.parametrize("exponents", [(0, 2048), (1023 - 20, 1023 + 55)])
    def test_random_bit_patterns(self, exponents):
        # every sign, mantissa and (biased) exponent in the range: the full
        # range has subnormals, inf and nan of both signs; the narrow one
        # is mostly printed in fixed notation
        rng = np.random.default_rng(exponents[0])
        bits = rng.integers(0, 2**52, 60000, dtype=np.uint64)
        bits |= rng.integers(*exponents, bits.size, dtype=np.uint64) << np.uint64(52)
        bits |= rng.integers(0, 2, bits.size, dtype=np.uint64) << np.uint64(63)
        values = np.concatenate([bits.view(np.float64), [-0.0, 0.0, np.inf, -np.inf, np.nan]])
        values = np.concatenate([values, [np.copysign(np.nan, -1.0)]]).reshape(-1, 3)
        assert_same_text(render_csv({}, list("abc"), values), reference_csv(list("abc"), values))

    def test_half_way_ties_and_neighbours(self):
        # f / 2**j with f odd has exactly j fraction digits; in [10**X, 10**(X+1))
        # with X = 15 - j that is 16 significant digits ending in 5, a tie
        # at the 15th digit (j = 1: 100000000000000.5 and the like)
        rng = np.random.default_rng(5)
        ties = [100000000000000.5, 100000000000001.5, 999999999999999.5, 1234567890123.125]
        for j in range(1, 20):
            lo, hi = 10.0 ** (15 - j) * 2.0**j, 10.0 ** (16 - j) * 2.0**j
            f = rng.integers(int(lo) // 2, int(hi) // 2, 2000) * 2 + 1
            ties.extend(f / 2.0**j)
        # values whose product with 10**14 rounds to a tie that the exact
        # product is not: its low part decides the rounding
        v = rng.uniform(1.0, 10.0, 20000)
        ties.extend(v[np.abs(np.rint(v * 1e14) - v * 1e14) == 0.5])
        ties = np.array(ties)
        values = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
        values = np.concatenate([values, -values]).reshape(-1, 2)
        assert_same_text(render_csv({}, list("ab"), values), reference_csv(list("ab"), values))

    def test_carries_and_notation_switches(self):
        # values that round up across a power of ten at the 15th digit, and
        # the switches to exponent notation below 1e-4 and from 1e15
        edges = [9.9999999999999995e-5, 99999999999999.99, 0.99999999999999995,
                 1e-4, 1e-5, 1e15, 999999999999999.5]
        edges += [(1e15 - 0.5) * 10.0 ** (x - 14) for x in range(-6, 17)]
        edges += [10.0**x for x in range(-6, 17)]
        values = []
        for edge in edges:
            below = above = edge
            for _ in range(40):
                below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
                values += [below, above]
        values = np.array(edges + values)
        values = np.concatenate([values, -values]).reshape(-1, 2)
        assert_same_text(render_csv({}, list("ab"), values), reference_csv(list("ab"), values))

    def test_single_row_from_flat_array(self):
        rows = np.array([1.5, -0.0, 1e16])
        assert_same_text(render_csv({}, list("xyz"), rows), reference_csv(list("xyz"), [rows]))


class TestWriteTable:
    @pytest.mark.parametrize(
        "columns, rows",
        [(list("abc"), table(0)), (list("abc"), table(_CSV_BLOCK_ROWS - 1)),
         (list("abc"), table(_CSV_BLOCK_ROWS + 1)),
         (list("abcd"), np.array(SPECIAL).reshape(-1, 4))],
        ids=["no rows", "block-1", "block+1", "special"],
    )
    def test_file_and_stdout_are_render_csv(self, tmp_path, capsys, columns, rows):
        meta = {"command": "test", "flag": True, "x": 0.1}
        expected = render_csv(meta, columns, rows)
        path = tmp_path / "t.csv"
        write_table(str(path), meta, columns, one_block(rows))
        assert_same_text(path.read_bytes().decode(), expected)
        write_table("-", meta, columns, one_block(rows))
        assert_same_text(capsys.readouterr().out, expected)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_of_any_length_give_the_bytes_of_one(self, tmp_path, fmt):
        # empty blocks, and blocks shorter and longer than a piece, from a
        # generator that yields tuples of integer and float columns
        step = _CSV_BLOCK_ROWS // 3
        rows = table(3 * step + 7)
        rows[:, 0] = np.arange(len(rows))
        cuts = np.cumsum([0, 0, 1, step - 1, step + 2, 0, 5])
        edges = [*cuts, len(rows)]

        def blocks():
            for lo, hi in zip(edges, edges[1:]):
                yield (np.arange(lo, hi), rows[lo:hi, 1].copy(), rows[lo:hi, 2])

        path = tmp_path / f"t.{fmt}"
        write_table(str(path), {"n": 1}, list("abc"), blocks(), fmt=fmt)
        render = render_csv if fmt == "csv" else render_json
        assert path.read_bytes() == render({"n": 1}, list("abc"), rows).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_short_table_over_a_longer_file_leaves_the_new_bytes(self, tmp_path, fmt):
        # an existing file is rewritten in place and cut where the table ends
        path = tmp_path / f"t.{fmt}"
        path.write_bytes(b"x" * 100_000)
        rows = table(3)
        write_table(str(path), {"n": 3}, list("abc"), one_block(rows), fmt=fmt)
        render = render_csv if fmt == "csv" else render_json
        assert path.read_bytes() == render({"n": 3}, list("abc"), rows).encode()

    def test_failed_block_leaves_the_new_prefix_and_no_old_bytes(self, tmp_path, monkeypatch):
        step = _CSV_BLOCK_ROWS // 3
        rows = table(2 * step + 1)
        path = tmp_path / "t.csv"
        path.write_bytes(b"x" * 4 * len(render_csv({}, list("abc"), rows)))
        format_values, calls = serialize._format_values, []

        def second_block_raises(values):
            calls.append(values.size)
            if len(calls) == 2:
                raise MemoryError("second block")
            return format_values(values)

        monkeypatch.setattr(serialize, "_format_values", second_block_raises)
        with pytest.raises(MemoryError):
            write_table(str(path), {}, list("abc"), one_block(rows))
        assert path.read_bytes() == render_csv({}, list("abc"), rows[:step]).encode()

    def test_existing_file_keeps_its_inode_and_mode(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x" * 100_000)
        path.chmod(0o640)
        before = path.stat()
        write_table(str(path), {}, list("abc"), one_block(table(5)))
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        # a new file gets the mode that open(path, "wb") gives it
        fresh, opened = tmp_path / "fresh.csv", tmp_path / "opened.csv"
        write_table(str(fresh), {}, list("abc"), one_block(table(5)))
        opened.open("wb").close()
        assert fresh.stat().st_mode == opened.stat().st_mode

    def test_memory_is_a_block_not_the_text(self, tmp_path):
        # the 200000 x 8 table's text is 29 MB; holding it as a whole, and
        # decoding and encoding it, peaks at 55.7 MiB
        rows = np.random.default_rng(0).standard_normal((200_000, 8))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_table(str(tmp_path / "t.csv"), {}, list("abcdefgh"), one_block(rows))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRenderJson:
    def test_rows_byte_identical_to_per_row_floats(self):
        # the streamed blocks join to the one-shot text: a spectrum table,
        # row counts about the block boundary (with the special values in
        # their first rows) and the special values alone
        params = LadderParams(1.0, 1.0, 1.0, 0.3, 101)
        m = mode_data(params, allowed_modes(params.n_rungs))
        spectrum = ["k", "eps_q", "eps_p", "eps_qp", "gamma", "e_alpha", "e_beta", "gap"]
        step = _CSV_BLOCK_ROWS // 3
        cases = [(spectrum, np.column_stack([getattr(m, name) for name in spectrum])),
                 *((list("abc"), table(n)) for n in (step - 1, step, step + 1, 2 * step)),
                 (list("abcd"), np.array(SPECIAL).reshape(-1, 4))]
        meta = {"command": "spectrum", "n_rungs": 101}
        for columns, rows in cases:
            old_form = {
                "artifact": "creutz",
                "version": __version__,
                "metadata": meta,
                "columns": columns,
                "rows": [[v if np.isfinite(v) else format_float(v) for v in map(float, row)]
                         for row in rows],
            }
            assert render_json(meta, columns, rows) == json.dumps(old_form, indent=2) + "\n"

    def test_empty_table(self):
        payload = json.loads(render_json({}, ["a", "b"], np.empty((0, 2))))
        assert payload["rows"] == []
