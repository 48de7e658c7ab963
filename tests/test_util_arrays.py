"""Tests for ``repro.util.arrays``: the sort-based unique and its use."""

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro.util.arrays import sorted_unique

SRC = pathlib.Path(repro.__file__).parent


class TestSortedUnique:
    @pytest.mark.parametrize("values", [
        np.empty(0, dtype=np.int64),
        np.array([7]),
        np.array([3, 1, 3, 2, 1], dtype=np.int32),
        np.array([-5, 4, -5, 0, -1, 4]),
        np.arange(10),
        np.array([2, 2, 2, 2]),
        np.array([True, False, True]),
        np.array([[3, 1], [1, 0]]),
    ])
    def test_equals_np_unique(self, values):
        expected = np.unique(values)
        got = sorted_unique(values)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_seeded_keys(self):
        keys = np.random.default_rng(3).integers(-1000, 1000, 5000)
        assert np.array_equal(sorted_unique(keys), np.unique(keys))

    def test_input_untouched(self):
        values = np.array([3, 1, 2])
        sorted_unique(values)
        assert values.tolist() == [3, 1, 2]


def _bare_unique_calls(root: pathlib.Path):
    """``np.unique``/``numpy.unique`` calls with no ``return_*`` keyword,
    as ``path:line``."""
    found = []
    for py in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(py.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and not any((kw.arg or "").startswith("return_")
                                for kw in node.keywords)):
                found.append(f"{py.relative_to(root)}:{node.lineno}")
    return found


def test_no_bare_np_unique_in_src():
    # A bare np.unique takes numpy 2.x's hash path, 7-70x slower than the
    # sort in sorted_unique; with a return_* keyword it still sorts.
    offenders = _bare_unique_calls(SRC)
    assert not offenders, (
        "bare np.unique in src/ (use repro.util.arrays.sorted_unique): "
        + ", ".join(offenders)
    )


def test_scan_sees_a_bare_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "a = np.unique(x, return_counts=True)\n"
        "b = np.unique(x)\n"
    )
    assert _bare_unique_calls(tmp_path) == ["mod.py:3"]
