"""The one writer of caplab's JSON reports.

Every report opens with the same header (``format``, ``version``, ``kind``)
and is written with sorted keys, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def to_jsonable(v):
    """Plain Python value of a numpy scalar or array; anything else as is."""
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def document(kind, body):
    """Report of ``kind``: the shared header followed by ``body``."""
    return {"format": "caplab-report", "version": 1, "kind": kind, **body}


def write_report(path, doc):
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
