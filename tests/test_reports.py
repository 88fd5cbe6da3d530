"""The report writers: one cell rule for every table, plain Python in every document."""

import json
import math

import numpy as np
import pytest

from caplab import reports
from caplab.reports import document, write_report, write_table

BLOCK = reports.WRITE_ROWS
SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def reference_table(header, rows, comment=None):
    """The one-string table writer that write_table replaced: every line formatted,
    then joined, then written at once."""
    width = len(header)
    lines = [] if comment is None else ["# " + " ".join(f"{k}={v}" for k, v in comment.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(map(reports._cell, row)) + "," * (width - len(row)))
    return ("\n".join(lines) + "\n").encode()


def every_cell_kind(n):
    """``n`` rows that cycle through every kind of cell and row: numbers alone,
    None and strings, numpy scalars and vectors, short rows and lists."""
    kinds = [
        lambda i: (i, 0.1 * i, -1e300, math.nan),
        lambda i: (i, None, f"nv={i}", ""),
        lambda i: (np.float64(i) / 3, np.array([i, -2.5]), (1.0, math.inf)),
        lambda i: (i,),
        lambda i: [i, 2.5, 3, -0.0],
    ]
    return [kinds[i % len(kinds)](i) for i in range(n)]


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
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("comment", [None, {"tol": 0.02, "levels": 3}])
    @pytest.mark.parametrize("n", SIZES)
    def test_blocks_match_one_string(self, tmp_path, n, comment):
        rows = every_cell_kind(n)
        header = ("a", "b", "c", "d")
        path = write_table(tmp_path / "t.csv", header, (row for row in rows), comment)
        assert path.read_bytes() == reference_table(header, rows, comment)

    @pytest.mark.parametrize("at", [0, BLOCK - 2, 3 * BLOCK + 4])
    @pytest.mark.parametrize("bad", [(1, 2, 3, 4, 5), ("a,b",)])
    def test_refused_row_after_written_blocks_leaves_no_file(self, tmp_path, at, bad):
        rows = every_cell_kind(3 * BLOCK + 5)
        rows[at] = bad
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ("a", "b", "c", "d"), iter(rows), {"tol": 0.02})
        assert list(tmp_path.iterdir()) == []


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
