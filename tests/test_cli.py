"""Command-line contract: exit codes, file outputs, determinism."""

import json
import math

import numpy as np
import pytest

from caplab import meshkit
from caplab.cli import main


def read_json(path):
    return json.loads(path.read_text())


class TestGen:
    def test_cap_generates_valid_files(self, tmp_path):
        rc = main(
            ["gen", "cap", "--radius", "1", "--angle-deg", "60", "--res", "24", "--out", str(tmp_path)]
        )
        assert rc == 0
        mesh_path = tmp_path / "cap_r1_a60_res24.capmesh"
        walls_path = tmp_path / "cap_r1_a60_res24.walls.json"
        assert mesh_path.exists() and walls_path.exists()
        mesh, walls = meshkit.load(mesh_path)
        assert meshkit.validate(mesh, walls).ok
        assert walls.angles[0] == pytest.approx(math.radians(60))

    def test_cylinder_slab_walls(self, tmp_path):
        rc = main(["gen", "cylinder", "--r", "1", "--length", "4", "--res", "16", "--out", str(tmp_path)])
        assert rc == 0
        walls = meshkit.load_walls(tmp_path / "cylinder_r1_l4_res16.walls.json")
        assert len(walls) == 2
        assert walls.walls[0].offset == 0.0
        assert walls.walls[1].offset == 4.0
        assert walls.angles == (math.pi / 2, math.pi / 2)

    @pytest.mark.parametrize(
        "argv, stem, has_walls",
        [
            (["cap", "--angle-deg", "60"], "cap_r1_a60_res12", True),
            (["cylinder", "--length", "4"], "cylinder_r1_l4_res12", True),
            (["disk"], "disk_r1_res12", True),
            (["sphere"], "sphere_r1_res12", False),
            (["monge"], "monge_a0.1_r1_res12", False),
        ],
    )
    def test_file_names(self, tmp_path, argv, stem, has_walls):
        assert main(["gen", *argv, "--res", "12", "--out", str(tmp_path)]) == 0
        names = [f"{stem}.capmesh"] + ([f"{stem}.walls.json"] if has_walls else [])
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        mesh, walls = meshkit.load(tmp_path / names[0])
        assert meshkit.validate(mesh, walls).ok

    def test_invalid_angle_exits_2(self, tmp_path):
        rc = main(["gen", "cap", "--angle-deg", "0", "--out", str(tmp_path)])
        assert rc == 2

    def test_invalid_resolution_exits_2(self, tmp_path):
        rc = main(["gen", "cap", "--res", "2", "--out", str(tmp_path)])
        assert rc == 2


class TestIdentities:
    def test_cap_three_levels_exit_0_and_decreasing(self, tmp_path):
        rc = main(
            [
                "identities", "--family", "cap", "--radius", "1", "--angle-deg", "60",
                "--res", "16", "--levels", "3", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "identities.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        rows = [ln.split(",") for ln in lines[2:]]
        by_name = {}
        for row in rows:
            if row[4]:
                by_name.setdefault(row[0], []).append(float(row[4]))
        assert by_name["normal_integral"] == sorted(by_name["normal_integral"], reverse=True)

    def test_monge_skipped_rows_marked(self, tmp_path):
        rc = main(
            ["identities", "--family", "monge", "--res", "16", "--levels", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = read_json(tmp_path / "identities.json")
        skipped = [r for r in doc["reports"] if r["info"].get("skipped")]
        assert skipped

    def test_corrupted_mesh_exits_2(self, tmp_path):
        bad = tmp_path / "bad.capmesh"
        bad.write_text("CAPMESH 1\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n0 1 9\n")
        rc = main(["identities", "--mesh", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_tolerance_failure_exits_1(self, tmp_path):
        rc = main(
            [
                "identities", "--family", "cap", "--res", "16", "--levels", "1",
                "--tol", "1e-9", "--out", str(tmp_path),
            ]
        )
        assert rc == 1

    def test_mesh_file_mode(self, tmp_path):
        assert main(["gen", "cap", "--res", "24", "--out", str(tmp_path)]) == 0
        rc = main(
            [
                "identities", "--mesh", str(tmp_path / "cap_r1_a90_res24.capmesh"),
                "--levels", "1", "--tol", "0.2", "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == 0


class TestStability:
    def test_hemisphere_verdict(self, tmp_path):
        rc = main(
            ["stability", "--family", "cap", "--angle-deg", "90", "--res", "48", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = read_json(tmp_path / "verdict.json")
        assert doc["stable"] is True
        assert abs(doc["lambda_min"]) <= 0.05
        assert (tmp_path / "eigenvalues.csv").exists()
        assert (tmp_path / "eigenfunction.csv").exists()

    def test_long_cylinder_unstable(self, tmp_path):
        rc = main(
            ["stability", "--family", "cylinder", "--length", "4", "--res", "40", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = read_json(tmp_path / "verdict.json")
        assert doc["stable"] is False

    def test_cap_axisymmetric_mode(self, tmp_path):
        # 1729 vertices; the dense constrained value of slot 4 is 10.2497057
        rc = main(
            ["stability", "--family", "cap", "--angle-deg", "60", "--res", "96", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
        assert lines[0] == "index,lambda"
        assert float(lines[1 + 4].split(",")[1]) == pytest.approx(10.2497057, rel=1e-7)

    def test_verdict_carries_solver_record(self, tmp_path):
        rc = main(
            ["stability", "--family", "cap", "--angle-deg", "60", "--res", "24", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = read_json(tmp_path / "verdict.json")
        solver = doc["info"]["solver"]
        assert solver["method"].startswith("shift-invert Lanczos")
        assert solver["shift"] > -doc["lambda_min"]
        assert len(solver["residuals"]) == len(doc["eigenvalues"])
        assert len(solver["constraint_defects"]) == len(doc["eigenvalues"])
        assert max(solver["residuals"]) <= 1e-8
        assert max(solver["constraint_defects"]) <= 1e-10
        assert solver["certificate"]["mu"] > doc["eigenvalues"][-1]
        assert solver["certificate"]["count_below"] >= len(doc["eigenvalues"])
        assert solver["arpack_tol"] == 1e-10

    def test_mesh_verdict_records_field_estimation(self, tmp_path):
        assert main(["gen", "cap", "--angle-deg", "60", "--res", "24", "--out", str(tmp_path)]) == 0
        args = ["stability", "--mesh", str(tmp_path / "cap_r1_a60_res24.capmesh")]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        verdict = tmp_path / "a" / "verdict.json"
        assert verdict.read_bytes() == (tmp_path / "b" / "verdict.json").read_bytes()
        record = read_json(verdict)["info"]["meta"]["fields"]
        assert set(record) == {
            "flipped", "mean_H", "min_stencil", "max_fit_cond", "nonfinite_boundary"
        }
        assert record["flipped"] is False
        assert record["mean_H"] == pytest.approx(1.0, abs=0.05)
        assert record["min_stencil"] == 11  # boundary vertices of the polar grid
        assert 1.0 < record["max_fit_cond"] < 1e3
        assert record["nonfinite_boundary"] == 0


class TestTestFn:
    def test_cap_identity_follows(self, tmp_path):
        rc = main(
            ["testfn", "--family", "cap", "--angle-deg", "60", "--res", "32", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = read_json(tmp_path / "testfn.json")
        assert doc["max_abs_phi"] <= 1e-10
        assert (tmp_path / "phi.csv").exists()

    def test_cylinder_identity_mode(self, tmp_path):
        rc = main(
            [
                "testfn", "--family", "cylinder", "--length", "2", "--res", "48",
                "--identity-mode", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        doc = read_json(tmp_path / "testfn.json")
        assert doc["index_quadratic"] == pytest.approx(-math.pi, rel=0.02)

    def test_cylinder_without_identity_mode_exits_2(self, tmp_path):
        rc = main(
            ["testfn", "--family", "cylinder", "--res", "16", "--out", str(tmp_path)]
        )
        assert rc == 2  # parallel walls: no capillary vector


class TestWedge:
    def test_orthogonal_pair(self, tmp_path):
        walls_doc = [
            {"normal": [0, 0, -1], "offset": 0.0, "angle_rad": math.pi / 2},
            {"normal": [0, -1, 0], "offset": 0.0, "angle_rad": math.pi / 2},
        ]
        path = tmp_path / "walls.json"
        path.write_text(json.dumps(walls_doc))
        rc = main(["wedge", "--walls", str(path), "--out", str(tmp_path)])
        assert rc == 0
        doc = read_json(tmp_path / "wedge.json")
        assert doc["norm_a"] <= 1e-10
        assert doc["delta_max_rad"] == pytest.approx(math.pi / 4, abs=1e-10)

    @pytest.mark.parametrize("angle", ["60", "120"])
    def test_mesh_lambda_min_matches_stability(self, angle, tmp_path):
        # wedge solves for one pair, stability for ten: the lowest must agree
        assert main(["gen", "cap", "--angle-deg", angle, "--res", "64", "--out", str(tmp_path)]) == 0
        stem = tmp_path / f"cap_r1_a{angle}_res64"
        mesh = ["--mesh", str(stem.with_suffix(".capmesh"))]
        assert main(["stability", *mesh, "--out", str(tmp_path / "s")]) == 0
        walls = ["--walls", str(stem.with_suffix(".walls.json"))]
        assert main(["wedge", *walls, *mesh, "--out", str(tmp_path / "w")]) == 0
        rows = (tmp_path / "s" / "eigenvalues.csv").read_text().splitlines()
        lam = float(rows[1].split(",")[1])
        verdict = read_json(tmp_path / "s" / "verdict.json")
        classification = read_json(tmp_path / "w" / "wedge.json")["classification"]
        assert classification["lambda_min"] == pytest.approx(lam, rel=1e-10)
        assert classification["stable"] == verdict["stable"]

    def test_dependent_normals_exit_2(self, tmp_path):
        walls_doc = [
            {"normal": [0, 0, -1], "offset": 0.0, "angle_rad": math.pi / 2},
            {"normal": [0, 0, 1], "offset": 2.0, "angle_rad": math.pi / 2},
        ]
        path = tmp_path / "walls.json"
        path.write_text(json.dumps(walls_doc))
        rc = main(["wedge", "--walls", str(path), "--out", str(tmp_path)])
        assert rc == 2


class TestSweep:
    def test_nonpositive_step_exits_2(self, tmp_path):
        assert main(["sweep", "cylinder", "--step", "0", "--out", str(tmp_path)]) == 2
        assert main(["sweep", "cylinder", "--step", "-0.1", "--out", str(tmp_path)]) == 2

    def test_coarse_bracket(self, tmp_path):
        rc = main(
            [
                "sweep", "cylinder", "--lmin", "2.9", "--lmax", "3.5", "--step", "0.2",
                "--res", "16", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        doc = read_json(tmp_path / "sweep.json")
        assert doc["bracket"] is not None
        lo, hi = doc["bracket"]
        assert lo <= math.pi <= hi + 0.2  # coarse grid, coarse mesh


class TestReports:
    def test_every_json_report_opens_with_the_header(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["gen", "cap", "--angle-deg", "60", "--res", "16", "--out", str(gen)]) == 0
        mesh, walls = gen / "cap_r1_a60_res16.capmesh", gen / "cap_r1_a60_res16.walls.json"
        runs = [
            ("verdict.json", "stability-verdict", ["stability", "--family", "cap", "--res", "16"]),
            ("identities.json", "identity-suite", ["identities", "--family", "disk", "--levels", "1"]),
            ("testfn.json", "test-function", ["testfn", "--family", "cap", "--res", "16"]),
            ("wedge.json", "wedge", ["wedge", "--walls", str(walls), "--mesh", str(mesh)]),
            ("sweep.json", "sweep", ["sweep", "cylinder", "--lmax", "2.2", "--res", "12"]),
        ]
        for name, kind, argv in runs:
            out = tmp_path / kind
            assert main([*argv, "--out", str(out)]) == 0
            doc = read_json(out / name)
            assert (doc["format"], doc["version"], doc["kind"]) == ("caplab-report", 1, kind)
            if name == "wedge.json":
                inner = doc["classification"]
                assert (inner["format"], inner["version"], inner["kind"]) == (
                    "caplab-report", 1, "classification"
                )


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, tmp_path):
        # loose gate: determinism of the bytes is what is under test here
        args = [
            "identities", "--family", "cap", "--angle-deg", "60",
            "--res", "16", "--levels", "2", "--tol", "0.05",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("identities.csv", "identities.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_byte_identical(self, tmp_path):
        args = ["sweep", "cylinder", "--lmin", "3.0", "--lmax", "3.2", "--step", "0.1", "--res", "12"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPLAB_OUTDIR", str(tmp_path / "envout"))
        rc = main(["gen", "sphere", "--res", "12"])
        assert rc == 0
        assert (tmp_path / "envout" / "sphere_r1_res12.capmesh").exists()
