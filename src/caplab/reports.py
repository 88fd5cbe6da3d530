"""The one writer of caplab's report files: JSON documents and CSV tables.

Every report opens with the same header (``format``, ``version``, ``kind``),
and its body holds plain Python only. JSON files have sorted keys, so
identical inputs give identical bytes, and are strict JSON: a number that is
NaN or infinite is written as ``null``, and the JSON pointers of those values
are listed under a top-level ``nonfinite`` key, which a report of finite
numbers does not have. A table cell is a number as ``%.17g`` (bit-exact on
reading back), None as an empty field, a vector as its numbers joined by
``;``, or a string as is; lines end in LF.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

NUMBER = "%.17g"


def _plain(v, path, nonfinite):
    """``v`` with every numpy scalar or array in it, at any depth, as plain Python, and
    every non-finite number as None, its JSON pointer (``v`` being at the keys
    ``path``) appended to ``nonfinite`` in the order the keys are written."""
    if isinstance(v, dict):
        return {k: _plain(x, (*path, k), nonfinite) for k, x in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_plain(x, (*path, i), nonfinite) for i, x in enumerate(v)]
    if isinstance(v, (np.generic, np.ndarray)):
        return _plain(v.tolist(), path, nonfinite)
    if isinstance(v, float) and not math.isfinite(v):
        nonfinite.append("".join("/" + str(k).replace("~", "~0").replace("/", "~1") for k in path))
        return None
    return v


def document(kind, body):
    """Report of ``kind``: the shared header followed by ``body``, in plain Python."""
    nonfinite = []
    doc = {"format": "caplab-report", "version": 1, "kind": kind, **_plain(body, (), nonfinite)}
    if nonfinite:
        doc["nonfinite"] = nonfinite
    return doc


def write_report(path, doc):
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, str):
        if any(c in v for c in ',"\r\n'):
            raise ValueError(f"table cell {v!r} holds a separator, quote or line end")
        return v
    if isinstance(v, (list, tuple, np.ndarray)):
        return ";".join(NUMBER % x for x in np.ravel(v))
    return NUMBER % v


def write_table(path, header, rows, comment=None):
    """CSV table of ``rows``, sequences of cells, under the column names ``header``; a
    short row ends in empty fields. A ``comment`` dict is a first line ``# key=value ...``."""
    path = Path(path)
    width = len(header)
    lines = [] if comment is None else ["# " + " ".join(f"{k}={v}" for k, v in comment.items())]
    lines.append(",".join(header))
    # a tuple of numbers takes one template of its length, far faster than
    # formatting it cell by cell
    templates = [",".join([NUMBER] * n) + "," * (width - n) for n in range(width + 1)]
    for row in rows:
        try:
            lines.append(templates[len(row)] % row)
        except TypeError:
            lines.append(",".join(map(_cell, row)) + "," * (width - len(row)))
        except IndexError:
            raise ValueError(f"table row of {len(row)} cells under {width} columns") from None
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path
