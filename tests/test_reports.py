"""The report writers: one cell rule for every table, plain Python in every document."""

import json
import math

import numpy as np
import pytest

from caplab.reports import document, write_report, write_table


class TestWriteTable:
    def test_cell_rule(self, tmp_path):
        rows = [
            (0, 0.1, None, "nv=12"),
            ("x", np.array([1.0, -2.5]), math.nan, ""),
            (2.0, np.float64(1e300)),
        ]
        path = write_table(tmp_path / "t.csv", ("a", "b", "c", "d"), rows, {"tol": 0.02, "levels": 3})
        assert path.read_bytes() == (
            b"# tol=0.02 levels=3\n"
            b"a,b,c,d\n"
            b"0,0.10000000000000001,,nv=12\n"
            b"x,1;-2.5,nan,\n"
            b"2,1.0000000000000001e+300,,\n"
        )

    def test_numbers_read_back_bit_exact(self, tmp_path):
        values = np.random.default_rng(7).standard_normal(200) * 10.0 ** np.arange(-100, 100)
        path = write_table(tmp_path / "t.csv", ("i", "v"), enumerate(values.tolist()))
        lines = path.read_text().splitlines()[1:]
        assert np.array_equal([float(line.split(",")[1]) for line in lines], values)

    @pytest.mark.parametrize(
        "row, message",
        [((1, 2, 3), "3 cells under 2 columns"), (("a,b", 1), "separator"), (('"q"', 1), "quote")],
    )
    def test_refuses_what_would_not_read_back(self, tmp_path, row, message):
        with pytest.raises(ValueError, match=message):
            write_table(tmp_path / "t.csv", ("a", "b"), [row])


def test_document_is_plain_python():
    body = {
        "x": np.float32(1.5),
        "n": [np.int64(2), (np.bool_(True), np.arange(2))],
        "info": {"deep": {"v": np.array([[0.5]])}},
    }
    doc = document("kind", body)
    assert json.dumps(doc, sort_keys=True) == (
        '{"format": "caplab-report", "info": {"deep": {"v": [[0.5]]}}, "kind": "kind", '
        '"n": [2, [true, [0, 1]]], "version": 1, "x": 1.5}'
    )
    assert type(doc["n"][0]) is int and type(doc["n"][1][0]) is bool


def test_document_writes_nonfinite_numbers_as_null(tmp_path):
    body = {
        "a": np.array([1.0, np.nan]),
        "b": [{"x/y": math.inf}, (np.float64(-np.inf), 2)],
        "c": {"~": math.nan, "d": 0.5},
    }
    doc = document("kind", body)
    assert doc["a"] == [1.0, None] and doc["b"] == [{"x/y": None}, [None, 2]] and doc["c"]["~"] is None
    assert doc["nonfinite"] == ["/a/1", "/b/0/x~1y", "/b/1/0", "/c/~0"]
    text = write_report(tmp_path / "r.json", doc).read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert "nonfinite" not in document("kind", {"a": [1.0, 2.0]})
    with pytest.raises(ValueError):
        write_report(tmp_path / "s.json", {"a": math.nan})
