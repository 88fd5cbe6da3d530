"""Every demo script runs to completion against the current library."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_completes(tmp_path, name):
    # demo 01 writes into output/ beside itself, so each demo runs from a copy
    copy = tmp_path / "demos"
    shutil.copytree(DEMO_DIR, copy, ignore=shutil.ignore_patterns("output", "__pycache__"))
    runpy.run_path(str(copy / name), run_name="__main__")
