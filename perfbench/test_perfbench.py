"""Self-tests of the benchmark's oracle, checks and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from caplab import cli, discops, families, stability  # noqa: E402

import lanes  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

# `caplab stability --family cap --angle-deg 60 --res 96` at the seed writes
# eigenvalues.csv[4] = 10.3377; the constrained discrete value is 10.2497.
SEED_WRONG_VALUE = 10.3377


@pytest.fixture(scope="module")
def cap60_res96():
    spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=96)
    mesh, fields = families.generate_mesh(spec)
    return mesh, stability.assemble_index_form(mesh, spec.walls(), fields)


def test_oracle_matches_dense_reference(cap60_res96):
    _, system = cap60_res96
    vals, resid = oracle.constrained_lowest(system, lanes.EIG_K)
    dense = oracle.dense_lowest(system, lanes.EIG_K)
    assert np.abs(vals - dense).max() <= 1e-8 * np.abs(dense).max()
    assert resid.max() <= oracle.RESIDUAL_BOUND
    assert vals[4] == pytest.approx(10.2497, abs=1e-4)


def _stability_outcome(tmp_path, values):
    lines = ["index,lambda"] + [f"{i},{v:.17g}" for i, v in enumerate(values)]
    (tmp_path / "eigenvalues.csv").write_text("\n".join(lines) + "\n")
    return lanes.Outcome(out=tmp_path, rc=0)


def test_eigenvalue_check_fails_seed_value_and_passes_correct_spectrum(cap60_res96, tmp_path):
    mesh, system = cap60_res96
    lane = lanes.MeshLane(0, tmp_path)
    rung = lanes.Rung("cap60", 60, 96, 1.0, nv=mesh.nv, scale=float(system.meta["max_sigma_sq"]))
    rung.eigenvalues, _ = oracle.constrained_lowest(system, lanes.EIG_K)
    correct = oracle.dense_lowest(system, lanes.EIG_K)
    assert lane._check_stability(_stability_outcome(tmp_path, correct), rung) is None

    wrong = correct.copy()
    wrong[4] = SEED_WRONG_VALUE
    failure = lane._check_stability(_stability_outcome(tmp_path, wrong), rung)
    assert failure is not None and "eigenvalue 4" in failure.reason
    assert failure.known == "solver-stall"  # nv = 1729 is on the iterative path
    assert lane.eigen.requested == 20 and lane.eigen.matched == 19


@pytest.mark.parametrize(
    "rc, stderr, known, passes",
    [
        (1, "TOLERANCE FAILURE sigma_relation_wall0", "unprojected-refinement", False),
        (2, "error: mesh-mode refinement needs a projector\n", None, True),
        (3, "solver failure: x\n", None, False),
    ],
)
def test_levels2_check(tmp_path, rc, stderr, known, passes):
    failure = lanes.MeshLane._check_identities_l2(lanes.Outcome(out=tmp_path, rc=rc, stderr=stderr))
    assert (failure is None) == passes
    if failure:
        assert failure.known == known


def test_rungs_match_target_vertex_counts():
    for angle in lanes.ANGLES_DEG:
        for target in lanes.MeshLane.TARGET_NV:
            res = lanes.rung_resolution(angle, target)
            mesh, _ = families.generate_mesh(
                families.Cap(R=1.0, theta=math.radians(angle), resolution=res)
            )
            assert abs(mesh.nv - target) <= 0.1 * target
    assert lanes.rung_resolution(60, 1729) == 96


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    original = discops.estimate_fields
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.estimate_fields is discops.estimate_fields is not original
        assert cli.estimate_fields.__wrapped__ is original
        tracer.active = True
        lanes.run_cli(["stability", "--family", "cap", "--angle-deg", "60", "--res", "12"], tmp_path)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert cli.estimate_fields is original and discops.estimate_fields is original
    calls, busy, self_s = tracer.layer_totals()
    assert calls["cli.main"] == 1 and calls["stability.solve_spectrum"] == 1
    assert 0.0 <= self_s["cli.main"] <= busy["cli.main"]
    assert sum(self_s.values()) == pytest.approx(busy["cli.main"], rel=1e-9)
