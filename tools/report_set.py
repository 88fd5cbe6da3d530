"""Run a fixed list of caplab commands, each into a directory of its own.

    python tools/report_set.py OUT

runs every command of ``COMMANDS`` with the caplab of the checkout this file
belongs to (its ``src``), in order, with OUT as the working directory and
one BLAS thread. Command ``name`` writes its files into ``OUT/name``, next to
its ``stdout``, ``stderr`` and ``exit_code``. The report sets of two
checkouts then compare with ``diff -r OUT_A OUT_B``. OUT must not exist yet.

The list: the README command block, ``gen`` of all five families,
``identities --family`` of each at ``--levels 3`` and of the length-4 tube
(nv 10,496 on its finest level), ``stability`` and
``testfn`` on the cap and the cylinder, ``stability`` on the r-1.3,
length-5.2 tube, past its onset, whose simple lambda_min has entries of
opposite sign tied in size (the sign rule), the ``--mesh`` commands on the
README's res-128 cap, and ``stability``, ``identities``, ``testfn`` and
``wedge`` on a gen'd 120-degree, radius-1.3, res-48 cap and a length-3,
res-48 tube. ``gen`` of the 42-degree res-64 cap writes a rim where
theta * m / m is not theta. The README's ``sweep cylinder`` line is the
default sweep.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the README's res-128 cap, written by the first command
CAP = "readme-gen-cap/cap_r1_a60_res128"


def _mesh_commands(key, gen, stem):
    """``gen`` of a mesh into ``gen-KEY``, then the four ``--mesh`` commands on it."""
    mesh, walls = f"gen-{key}/{stem}.capmesh", f"gen-{key}/{stem}.walls.json"
    return [
        (f"gen-{key}", gen),
        (f"stability-mesh-{key}", ["stability", "--mesh", mesh]),
        (f"identities-mesh-{key}", ["identities", "--mesh", mesh, "--levels", "1"]),
        (f"testfn-mesh-{key}", ["testfn", "--mesh", mesh]),
        (f"wedge-mesh-{key}", ["wedge", "--walls", walls, "--mesh", mesh]),
    ]


COMMANDS = [
    ("readme-gen-cap", ["gen", "cap", "--radius", "1", "--angle-deg", "60", "--res", "128"]),
    ("readme-gen-cylinder", ["gen", "cylinder", "--r", "1", "--length", "4", "--res", "64"]),
    ("readme-identities-cap", ["identities", "--family", "cap", "--radius", "1", "--angle-deg", "60",
                               "--res", "16", "--levels", "3"]),
    ("readme-identities-mesh", ["identities", "--mesh", f"{CAP}.capmesh", "--levels", "1"]),
    ("readme-stability-cap", ["stability", "--family", "cap", "--angle-deg", "90", "--res", "48"]),
    ("readme-testfn-cylinder", ["testfn", "--family", "cylinder", "--length", "2", "--res", "48",
                                "--identity-mode"]),
    ("readme-wedge", ["wedge", "--walls", f"{CAP}.walls.json"]),
    ("readme-sweep-cylinder", ["sweep", "cylinder", "--r", "1", "--lmin", "2", "--lmax", "4", "--step", "0.1",
                               "--res", "32"]),
    ("gen-disk", ["gen", "disk"]),
    ("gen-sphere", ["gen", "sphere"]),
    ("gen-monge", ["gen", "monge"]),
    *((f"identities-{family}", ["identities", "--family", family, "--levels", "3"])
      for family in ("cap", "cylinder", "disk", "sphere", "monge")),
    ("identities-cylinder-l4", ["identities", "--family", "cylinder", "--r", "1", "--length", "4", "--levels", "3"]),
    ("stability-cap", ["stability", "--family", "cap"]),
    ("stability-cylinder", ["stability", "--family", "cylinder"]),
    ("stability-cylinder-neck", ["stability", "--family", "cylinder", "--r", "1.3", "--length", "5.2"]),
    ("testfn-cap", ["testfn", "--family", "cap"]),
    ("testfn-cylinder", ["testfn", "--family", "cylinder", "--identity-mode"]),
    ("stability-mesh", ["stability", "--mesh", f"{CAP}.capmesh"]),
    ("testfn-mesh", ["testfn", "--mesh", f"{CAP}.capmesh"]),
    ("wedge-mesh", ["wedge", "--walls", f"{CAP}.walls.json", "--mesh", f"{CAP}.capmesh"]),
    ("gen-cap42", ["gen", "cap", "--angle-deg", "42", "--res", "64"]),
    *_mesh_commands("cap120", ["gen", "cap", "--radius", "1.3", "--angle-deg", "120", "--res", "48"],
                    "cap_r1.3_a120_res48"),
    *_mesh_commands("tube", ["gen", "cylinder", "--length", "3", "--res", "48"], "cylinder_r1_l3_res48"),
]


def run(out: Path):
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "CAPLAB_OUTDIR"}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failed = []
    for name, args in COMMANDS:
        target = out / name
        target.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "caplab.cli", *args, "--out", name],
            cwd=out, env=env, capture_output=True, text=True,
        )
        (target / "stdout").write_text(done.stdout)
        (target / "stderr").write_text(done.stderr)
        (target / "exit_code").write_text(f"{done.returncode}\n")
        if done.returncode:
            failed.append(f"{name} ({done.returncode})")
    print(f"{len(COMMANDS)} commands into {out}" + (f"; nonzero exit: {', '.join(failed)}" if failed else ""))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run(Path(sys.argv[1]))
