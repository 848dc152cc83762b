"""Table writers: the block CSV formatter and the JSON rows, against per-value forms."""

import json
import tracemalloc

import numpy as np
import pytest

from creutz import LadderParams, __version__, allowed_modes, mode_data
from creutz.serialize import _CSV_BLOCK_ROWS, render_json, write_table
from tables import format_float, render_csv

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
        "n_rows", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1]
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
         (list("abc"), table(_CSV_BLOCK_ROWS + 1)), ([], np.empty((5, 0))),
         (list("abcd"), np.array(SPECIAL).reshape(-1, 4))],
        ids=["no rows", "block-1", "block+1", "no columns", "special"],
    )
    def test_file_and_stdout_are_render_csv(self, tmp_path, capsys, columns, rows):
        meta = {"command": "test", "flag": True, "x": 0.1}
        expected = render_csv(meta, columns, rows)
        path = tmp_path / "t.csv"
        write_table(str(path), meta, columns, rows)
        assert_same_text(path.read_bytes().decode(), expected)
        write_table("-", meta, columns, rows)
        assert_same_text(capsys.readouterr().out, expected)

    def test_memory_is_a_block_not_the_text(self, tmp_path):
        # the 200000 x 8 table's text is 29 MB; holding it as a whole, and
        # decoding and encoding it, peaks at 55.7 MiB
        rows = np.random.default_rng(0).standard_normal((200_000, 8))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_table(str(tmp_path / "t.csv"), {}, list("abcdefgh"), rows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestRenderJson:
    def test_rows_byte_identical_to_per_row_floats(self):
        params = LadderParams(1.0, 1.0, 1.0, 0.3, 101)
        m = mode_data(params, allowed_modes(params.n_rungs))
        columns = ["k", "eps_q", "eps_p", "eps_qp", "gamma", "e_alpha", "e_beta", "gap"]
        rows = np.column_stack([getattr(m, name) for name in columns])
        meta = {"command": "spectrum", "n_rungs": 101}
        old_form = {
            "artifact": "creutz",
            "version": __version__,
            "metadata": meta,
            "columns": columns,
            "rows": [list(map(float, row)) for row in rows],
        }
        assert render_json(meta, columns, rows) == json.dumps(old_form, indent=2) + "\n"

    def test_empty_table(self):
        payload = json.loads(render_json({}, ["a", "b"], np.empty((0, 2))))
        assert payload["rows"] == []
