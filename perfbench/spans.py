"""Spans around calls into caplab's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules in
every ``caplab.*`` namespace that binds it (``caplab.cli`` imports
``estimate_fields`` by name, so both ``cli.estimate_fields`` and
``discops.estimate_fields`` are wrapped) and ``uninstall`` puts the
originals back. Spans stay in memory as (name, start, end, parent, op id)
and are written out once, at the end.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
import warnings
from collections import defaultdict

MODULES = ("cli", "meshkit", "families", "discops", "identities", "stability", "wedge")


def public_functions(module):
    """Functions a module defines under a name without a leading underscore."""
    return {
        n: v for n, v in vars(module).items()
        if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == module.__name__
    }


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.sizes = defaultdict(float)
        self.warnings = 0
        self.op_id = None
        self.active = False  # spans are recorded only while an operation runs
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        sizer = SIZERS.get(name)
        counts_warnings = name == "stability.solve_spectrum"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
            self._stack.append(index)
            try:
                if counts_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    self.warnings += len(caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if sizer:
                for key, value in sizer(args, result).items():
                    self.sizes[f"{name}_{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        originals = {}
        for short in MODULES:
            module = sys.modules[f"caplab.{short}"]
            for fname, fn in public_functions(module).items():
                originals[fn] = self._wrap(f"{short}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "caplab" and not modname.startswith("caplab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, originals[value])

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layer_totals(self):
        """Per span name: calls, busy seconds, and self seconds (busy minus children)."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        return calls, busy, self_s

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _path_bytes(path):
    return os.stat(path).st_size


SIZERS = {
    "meshkit.load": lambda args, result: {"bytes": _path_bytes(args[0])},
    "meshkit.save": lambda args, result: {"bytes": _path_bytes(result)},
    "meshkit.refine": lambda args, result: {"nv_out": result.nv},
    "families.generate_mesh": lambda args, result: {"nv": result[0].nv},
    "discops.assemble_operators": lambda args, result: {"nnz": result.K.nnz},
    "discops.estimate_fields": lambda args, result: {"nv": args[0].nv},
    "identities.run_suite": lambda args, result: {
        "reports": len(result), "skipped": sum(r.skipped for r in result)
    },
    "stability.solve_spectrum": lambda args, result: {"n": args[0].n},
}
