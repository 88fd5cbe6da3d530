"""Every command of the README's command-line block exits 0 and writes strict JSON."""

import json
import re
import shlex
from pathlib import Path

from caplab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("caplab ")]


def test_block_found():
    commands = readme_commands()
    assert len(commands) >= 8
    assert {argv[0] for argv in commands} >= {"gen", "identities", "stability", "testfn", "wedge", "sweep"}


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_command_exits_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        assert main(argv) == 0, shlex.join(["caplab", *argv])
    # json.loads accepts NaN and Infinity unless told otherwise
    reports = sorted(tmp_path.rglob("*.json"))
    assert reports
    for path in reports:
        json.loads(path.read_text(), parse_constant=reject_constant)
