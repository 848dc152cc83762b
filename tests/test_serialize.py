"""Table writers: the block CSV formatter and the JSON rows, against per-value forms."""

import json

import numpy as np
import pytest

from creutz import LadderParams, __version__, allowed_modes, mode_data
from creutz.serialize import _CSV_BLOCK_ROWS, format_float, render_csv, render_json

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

    def test_single_row_from_flat_array(self):
        rows = np.array([1.5, -0.0, 1e16])
        assert_same_text(render_csv({}, list("xyz"), rows), reference_csv(list("xyz"), [rows]))


class TestRenderJson:
    def test_rows_byte_identical_to_per_row_floats(self):
        params = LadderParams(1.0, 1.0, 1.0, 0.3, 101)
        m = mode_data(params, allowed_modes(params.n_rungs).wavenumbers)
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
