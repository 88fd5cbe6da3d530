"""Command-line contract: exit codes, file outputs, determinism."""

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from caplab import families, identities, meshkit, stability
from caplab.cli import main
from caplab.errors import SolverFailureError
from conftest import ring_breakers


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


class NoArrays:
    """Stands in for numpy in ``caplab.families``: any array is an error."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the mesh size was checked")


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "--family", "cap"],
            ["stability", "--family", "cap"],
            ["wedge", "--walls", "missing.walls.json"],
        ],
        ids=["identities", "stability", "wedge"],
    )
    @pytest.mark.parametrize(
        "value, message",
        [("nan", "must be finite"), ("inf", "must be finite"), ("-inf", "must be finite"),
         ("-1", "must be nonnegative")],
    )
    def test_bad_tol_exits_2_before_any_input(self, argv, value, message, tmp_path, capsys, monkeypatch):
        # --tol nan wrote "tol_used": NaN, which is not JSON, and never
        # failed; --tol -1 called the hemisphere unstable
        monkeypatch.setattr(families, "generate_mesh", None)
        out = tmp_path / "out"
        assert main([*argv, f"--tol={value}", "--out", str(out)]) == 2
        assert f"error: --tol {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "cylinder", "--length", "inf", "--res", "12"], "Cylinder L must be finite"),
            (["--family", "cap", "--radius", "nan"], "Cap R must be finite"),
            (["--family", "cylinder", "--length", "1e300", "--res", "12"], "at most 2000000 are allowed"),
            (["--family", "cylinder", "--r", "1e-320", "--res", "12"], "at most 2000000 are allowed"),
            (["--family", "cylinder", "--res", "100000000"], "at most 2000000 are allowed"),
            (["--family", "cap", "--angle-deg", "179.9999", "--res", "32"], "at most 2000000 are allowed"),
            # 2,552,001, 2,202,902 and 2,552,001 vertices
            (["--family", "disk", "--res", "4000"], "at most 2000000 are allowed"),
            (["--family", "sphere", "--res", "2100"], "at most 2000000 are allowed"),
            (["--family", "monge", "--res", "4000"], "at most 2000000 are allowed"),
        ],
        ids=[
            "length-inf", "radius-nan", "length-1e300", "r-1e-320", "res-1e8", "angle-179.9999",
            "disk-res-4000", "sphere-res-2100", "monge-res-4000",
        ],
    )
    def test_family_flags_exit_2_before_any_array(self, argv, message, tmp_path, capsys, monkeypatch):
        # these ended in an OverflowError, ran past a minute, or were killed
        # for memory
        monkeypatch.setattr(families, "np", NoArrays())
        start = time.perf_counter()
        assert main(["stability", *argv, "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 0.5
        assert message in capsys.readouterr().err

    def test_zero_contact_angle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "walls.json"
        path.write_text(json.dumps([{"normal": [0, 0, -1], "offset": 0.0, "angle_rad": 0}]))
        assert main(["wedge", "--walls", str(path), "--out", str(tmp_path)]) == 2
        assert "error: contact angle 0.0 outside (0, pi)" in capsys.readouterr().err

    def test_undefined_cotangent_exits_2(self, tmp_path, capsys):
        assert main(["gen", "cap", "--angle-deg", "60", "--res", "12", "--out", str(tmp_path)]) == 0
        path = tmp_path / "tiny.walls.json"
        path.write_text(json.dumps([{"normal": [0, 0, -1], "offset": 0.0, "angle_rad": 1e-16}]))
        mesh = str(tmp_path / "cap_r1_a60_res12.capmesh")
        argv = ["stability", "--mesh", mesh, "--walls", str(path), "--out", str(tmp_path / "s")]
        assert main(argv) == 2
        assert "error: cotangent undefined at theta = 1e-16" in capsys.readouterr().err


class TestIdentities:
    def test_one_sort_of_vertex_pairs_per_mesh(self, tmp_path, topology_builds):
        assert main(["identities", "--family", "cap", "--levels", "3", "--out", str(tmp_path)]) == 0
        # three fresh meshes; the pattern and the boundary read each one's sort
        assert topology_builds["edges"] == 3
        assert topology_builds["pair_pattern"] == 3
        assert topology_builds["boundary_edges"] == 3

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

    def test_corrupted_mesh_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.capmesh"
        bad.write_text("CAPMESH 1\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n0 1 9\n")
        rc = main(["identities", "--mesh", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: line 6: ")

    @pytest.mark.parametrize(
        "counts, what", [("1000000000000 1 0", "vertex coordinates"), ("1 1000000000000 0", "triangle indices")]
    )
    def test_huge_count_exits_2(self, counts, what, tmp_path, capsys):
        bad = tmp_path / "bad.capmesh"
        bad.write_text(f"CAPMESH 1\n{counts}\n0 0 0\n")
        assert main(["stability", "--mesh", str(bad), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: line 4: file truncated, expected {what}\n"

    def test_mesh_with_levels_refused_before_any_work(self, tmp_path, capsys):
        assert main(["gen", "cap", "--res", "12", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        rc = main(["identities", "--mesh", str(tmp_path / "cap_r1_a90_res12.capmesh"), "--levels", "2", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --levels 2 with --mesh")
        assert not out.exists()

    def test_mesh_runs_one_level_by_default(self, tmp_path):
        assert main(["gen", "cap", "--res", "12", "--out", str(tmp_path)]) == 0
        out = tmp_path / "run"
        rc = main(["identities", "--mesh", str(tmp_path / "cap_r1_a90_res12.capmesh"), "--tol", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "identities.csv").read_text().startswith("# levels=1 ")

    def test_tolerance_failure_exits_1(self, tmp_path):
        rc = main(
            [
                "identities", "--family", "cap", "--res", "16", "--levels", "1",
                "--tol", "1e-9", "--out", str(tmp_path),
            ]
        )
        assert rc == 1

    def test_nan_residual_fails_the_gate(self, tmp_path, capsys, monkeypatch):
        # NaN > tol is false, so a NaN residual used to pass and the run exited 0
        run_suite = identities.run_suite

        def with_nan(*args, **kwargs):
            reports = run_suite(*args, **kwargs)
            for r in reports:
                if r.name == "normal_integral":
                    r.rel_residual = math.nan
            return reports

        monkeypatch.setattr(identities, "run_suite", with_nan)
        argv = ["identities", "--family", "cap", "--angle-deg", "60", "--res", "16", "--levels", "3"]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "TOLERANCE FAILURE normal_integral: rel_residual nan is not finite\n"

    def test_largest_family_input_peaks_under_8_mb(self, tmp_path):
        # one level alive at a time, each built without full-size temporaries;
        # 11.0 MB were traced with full-size temporaries and the previous level
        # alive through the next one's build
        argv = ["identities", "--family", "cylinder", "--r", "1", "--length", "4"]
        # imports and one-time caches stay out of the count
        assert main(argv + ["--res", "8", "--levels", "1", "--out", str(tmp_path / "warm")]) == 0
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert main(argv + ["--levels", "3", "--out", str(tmp_path / "run")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 8.0e6

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
        # a family mesh has the ring layout, so its pairs come from the
        # azimuthal blocks
        rc = main(
            ["stability", "--family", "cap", "--angle-deg", "60", "--res", "24", "--out", str(tmp_path)]
        )
        assert rc == 0
        doc = read_json(tmp_path / "verdict.json")
        solver = doc["info"]["solver"]
        assert solver["method"].startswith("azimuthal Fourier blocks")
        assert solver["factorizations"] == 1
        # lambda_min is the double of the horizontal translations, mode 1
        assert len(solver["modes"]) == len(doc["eigenvalues"]) and solver["modes"][:2] == [1, 1]
        assert solver["multiplicity"] == 2
        assert 0 < solver["blocks"]["solved"] < solver["blocks"]["total"] == 13
        assert len(solver["residuals"]) == len(doc["eigenvalues"])
        assert len(solver["constraint_defects"]) == len(doc["eigenvalues"])
        assert max(solver["residuals"]) <= 1e-8
        assert max(solver["constraint_defects"]) <= 1e-10
        assert solver["certificate"]["mu"] > doc["eigenvalues"][-1]
        assert solver["certificate"]["count_below"] >= len(doc["eigenvalues"])

    def test_mesh_without_layout_carries_the_lanczos_record(self, tmp_path):
        # the same cap with its vertices renumbered has no ring layout
        mesh, walls = ring_breakers(tmp_path)["renumbered cap"]
        meshkit.save(mesh, walls, tmp_path / "renumbered.capmesh")
        rc = main(["stability", "--mesh", str(tmp_path / "renumbered.capmesh"), "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = read_json(tmp_path / "out" / "verdict.json")
        solver = doc["info"]["solver"]
        assert solver["method"].startswith("shift-invert Lanczos")
        assert solver["shift"] > -doc["lambda_min"]
        assert len(solver["residuals"]) == len(doc["eigenvalues"])
        assert len(solver["constraint_defects"]) == len(doc["eigenvalues"])
        assert max(solver["residuals"]) <= 1e-8
        assert max(solver["constraint_defects"]) <= 1e-10
        assert solver["certificate"]["mu"] > doc["eigenvalues"][-1]
        assert solver["certificate"]["count_below"] >= len(doc["eigenvalues"])
        assert solver["lanczos_tol"] == 1e-10
        assert "modes" not in solver and "blocks_refused" not in solver

    def test_solver_failure_exits_3_without_a_verdict(self, tmp_path, capsys, monkeypatch):
        def fail(system, k=10):
            raise SolverFailureError("spectrum not certified")

        monkeypatch.setattr(stability, "solve_spectrum", fail)
        argv = ["stability", "--family", "cap", "--angle-deg", "60", "--res", "12", "--out", str(tmp_path)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "solver failure: spectrum not certified\n"
        assert not (tmp_path / "verdict.json").exists()

    def test_mesh_verdict_records_field_estimation(self, tmp_path):
        assert main(["gen", "cap", "--angle-deg", "60", "--res", "24", "--out", str(tmp_path)]) == 0
        args = ["stability", "--mesh", str(tmp_path / "cap_r1_a60_res24.capmesh")]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        verdict = tmp_path / "a" / "verdict.json"
        assert verdict.read_bytes() == (tmp_path / "b" / "verdict.json").read_bytes()
        record = read_json(verdict)["info"]["meta"]["fields"]
        assert set(record) == {
            "flipped", "mean_H", "min_stencil", "max_fit_cond", "fallback_fits", "nonfinite_boundary"
        }
        assert record["flipped"] is False
        assert record["mean_H"] == pytest.approx(1.0, abs=0.05)
        assert record["min_stencil"] == 11  # boundary vertices of the polar grid
        assert 1.0 < record["max_fit_cond"] < 1e3
        assert record["fallback_fits"] == 0
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

    def test_mesh_reads_only_the_named_walls(self, tmp_path):
        # the mesh's own walls document is corrupt; wedge, like stability,
        # reads the one --walls names
        assert main(["gen", "cap", "--angle-deg", "60", "--res", "24", "--out", str(tmp_path)]) == 0
        stem = tmp_path / "cap_r1_a60_res24"
        good = tmp_path / "good.walls.json"
        good.write_text(stem.with_suffix(".walls.json").read_text())
        stem.with_suffix(".walls.json").write_text("{not json")
        inputs = ["--mesh", str(stem.with_suffix(".capmesh")), "--walls", str(good)]
        assert main(["stability", *inputs, "--out", str(tmp_path / "s")]) == 0
        assert main(["wedge", *inputs, "--out", str(tmp_path / "w")]) == 0
        classification = read_json(tmp_path / "w" / "wedge.json")["classification"]
        assert classification["stable"] == read_json(tmp_path / "s" / "verdict.json")["stable"]

    def test_mesh_touching_a_domain_edge_fails_the_hypotheses(self, tmp_path):
        # rim vertices with y < 0 carry wall 1, the plane y = 0, so boundary
        # edges join two walls: the surface touches the edge of the domain
        assert main(["gen", "cap", "--angle-deg", "60", "--res", "24", "--out", str(tmp_path)]) == 0
        stem = tmp_path / "cap_r1_a60_res24"
        mesh, walls = meshkit.load(stem.with_suffix(".capmesh"))
        labels = {v: int(mesh.positions[v, 1] < 0) for v in mesh.boundary_labels}
        meshkit.save(meshkit.LabeledTriMesh(mesh.positions, mesh.triangles, labels), None, stem.with_suffix(".capmesh"))
        doc = [*walls.to_document(), {"normal": [0, -1, 0], "offset": 0.0, "angle_rad": math.pi / 2}]
        path = tmp_path / "two.walls.json"
        path.write_text(json.dumps(doc))
        argv = ["wedge", "--walls", str(path), "--mesh", str(stem.with_suffix(".capmesh"))]
        assert main([*argv, "--out", str(tmp_path / "w")]) == 0
        classification = read_json(tmp_path / "w" / "wedge.json")["classification"]
        assert classification["checks"]["labels_avoid_edges"] is False
        assert classification["hypotheses_met"] is False
        assert "mixed-boundary-edge" in classification["info"]["labels_avoid_edges"]

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

    @pytest.mark.parametrize("flag", ["--r", "--lmin", "--lmax", "--step", "--onset-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_range_exits_2_before_any_mesh(
        self, flag, value, tmp_path, capsys, monkeypatch
    ):
        # --lmax inf looped forever, and nan values wrote empty or
        # meaningless reports with exit 0
        monkeypatch.setattr(families, "generate_mesh", None)
        assert main(["sweep", "cylinder", f"{flag}={value}", "--out", str(tmp_path)]) == 2
        assert f"error: {flag} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()

    def test_one_factorization_per_point(self, tmp_path, factorizations):
        # every tube has the ring layout: each point is solved from its
        # azimuthal blocks and certified on one factor at its cut
        assert main(["sweep", "cylinder", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "sweep.json")
        points = len(doc["parameters"])
        assert points == 21 and len(factorizations) == points
        assert doc["solves"] == {"blocks": 21, "factorizations": 21}

    def test_refused_points_take_lanczos(self, tmp_path, monkeypatch, factorizations):
        # with every block solve refused, each point is solved by Lanczos on
        # its own two factors, a positive shift and the certificate, and the
        # onset curve stays that of the blocks
        assert main(["sweep", "cylinder", "--res", "16", "--out", str(tmp_path / "blocks")]) == 0

        def refuse(system, k):
            raise SolverFailureError("refused")

        monkeypatch.setattr(stability, "_block_pairs", refuse)
        factorizations.clear()
        assert main(["sweep", "cylinder", "--res", "16", "--out", str(tmp_path / "lanczos")]) == 0
        blocks, lanczos = (read_json(tmp_path / run / "sweep.json") for run in ("blocks", "lanczos"))
        assert lanczos["solves"] == {"blocks": 0, "factorizations": 42} and len(factorizations) == 42
        assert lanczos["bracket"] == blocks["bracket"]
        scale = max(abs(lam) for lam in blocks["lambda_min"])
        assert np.allclose(lanczos["lambda_min"], blocks["lambda_min"], rtol=0.0, atol=1e-10 * scale)

    def test_grid_over_the_point_limit_exits_2_before_any_mesh(self, tmp_path, capsys, monkeypatch):
        # about 1e7 points: the parameter list alone took seconds, and the
        # sweep never ended
        monkeypatch.setattr(families, "generate_mesh", None)
        start = time.perf_counter()
        rc = main(["sweep", "cylinder", "--lmax", "1e6", "--res", "8", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 0.5
        assert rc == 2
        assert "error: sweep grid has more than 10000 points" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()

    def test_grid_at_the_point_limit_reaches_its_first_mesh(self, tmp_path, monkeypatch):
        # 2 + 9999 steps of 1e-4 end at 2.9999: exactly the limit, no error
        class FirstMesh(Exception):
            pass

        def first_mesh(**spec):
            raise FirstMesh

        monkeypatch.setattr(families, "Cylinder", first_mesh)
        argv = ["sweep", "cylinder", "--lmax", "2.99995", "--step", "1e-4", "--out", str(tmp_path)]
        with pytest.raises(FirstMesh):
            main(argv)

    def test_negative_onset_tol_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(families, "generate_mesh", None)
        assert main(["sweep", "cylinder", "--onset-tol", "-1", "--out", str(tmp_path)]) == 2
        assert "error: --onset-tol must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_default_threshold_scales_with_curvature(self, r, tmp_path):
        # lambda_min scales like 1/r^2; a fixed threshold of 0.02 put the
        # bracket past the onset L* = pi r: [4.8, 4.95] at r = 1.5
        argv = ["sweep", "cylinder", "--r", repr(r), "--lmin", repr(2 * r), "--lmax", repr(4 * r)]
        assert main(argv + ["--step", repr(0.1 * r), "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "sweep.json")
        assert doc["onset_tol"] == pytest.approx(0.02 / r**2, rel=1e-12)
        lo, hi = doc["bracket"]
        assert lo <= math.pi * r <= hi


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

    def test_no_table_holds_a_carriage_return(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["gen", "cap", "--angle-deg", "60", "--res", "16", "--out", str(gen)]) == 0
        mesh = str(gen / "cap_r1_a60_res16.capmesh")
        runs = {
            "stability-family": ["stability", "--family", "cap", "--res", "16"],
            "stability-mesh": ["stability", "--mesh", mesh],
            "testfn": ["testfn", "--family", "cap", "--angle-deg", "60", "--res", "16"],
            "identities-family": ["identities", "--family", "cap", "--res", "16", "--levels", "1"],
            "identities-mesh": ["identities", "--mesh", mesh, "--levels", "1", "--tol", "1"],
            "sweep": ["sweep", "cylinder", "--lmax", "2.2", "--res", "12"],
        }
        written, with_cr = set(), []
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / name)]) in (0, 1)
            for path in sorted((tmp_path / name).glob("*.csv")):
                written.add(path.name)
                if b"\r" in path.read_bytes():
                    with_cr.append(f"{name}/{path.name}")
        assert with_cr == []
        assert written == {
            "eigenvalues.csv", "eigenfunction.csv", "fields.csv", "phi.csv", "identities.csv", "sweep.csv"
        }


class TestOneOperatorSetPerMesh:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--family", "cap", "--res", "16"],
            ["testfn", "--family", "cap", "--res", "16"],
            ["testfn", "--family", "cylinder", "--res", "16", "--identity-mode"],
        ],
    )
    def test_command_assembles_once(self, argv, tmp_path, assemblies):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert len(assemblies) == 1


def relabeled_cap(tmp_path, wall):
    """A generated 60-degree cap whose boundary labels name ``wall``; (mesh, walls, first label line)."""
    assert main(["gen", "cap", "--angle-deg", "60", "--res", "24", "--out", str(tmp_path)]) == 0
    mesh = tmp_path / "cap_r1_a60_res24.capmesh"
    lines = mesh.read_text().splitlines()
    nv, nf, nb = (int(x) for x in lines[1].split())
    first = 3 + nv + nf
    lines[first - 1 :] = [f"{line.split()[0]} {wall}" for line in lines[first - 1 :]]
    mesh.write_text("\n".join(lines) + "\n")
    return mesh, mesh.with_suffix(".walls.json"), first


WALL_DOCUMENTS = {
    "missing-offset": ('[{"normal": [0, 0, -1]}]', 'wall entry 0: missing "offset"'),
    "not-an-object": ("[1]", "wall entry 0: expected an object, got 1"),
    "null-offset": (
        '[{"normal": [0, 0, -1], "offset": null, "angle_rad": 1.0}]',
        'wall entry 0: "offset" must be a finite number, got null',
    ),
    "infinite-offset": (
        '[{"normal": [0, 0, -1], "offset": Infinity, "angle_rad": 1.0}]',
        'wall entry 0: "offset" must be a finite number, got Infinity',
    ),
    "nan-normal": (
        '[{"normal": [NaN, 0, -1], "offset": 0, "angle_rad": 1.0}]',
        'wall entry 0: "normal" must be 3 finite numbers, got [NaN, 0, -1]',
    ),
}


def folded_tube(tmp_path, jitter=False):
    """A res-16 tube with boundary vertex 14 moved onto vertex 0, saved with its walls.

    The mesh passes ``validate`` and ``load``, but vertex 15, between the
    two on the loop, is left with triangles that fold back on each other.
    With ``jitter`` the interior vertices move by 0.05 N(0, 1) (seed 1).
    """
    spec = families.Cylinder(r=1.0, L=2.0, resolution=16)
    mesh = meshkit.LabeledTriMesh(*spec.build())
    loop = mesh.boundary_loops[0]
    p = mesh.positions.copy()
    p[loop[2]] = p[loop[0]]
    if jitter:
        interior = np.setdiff1d(np.arange(mesh.nv), mesh.boundary_vertices)
        p[interior] += 0.05 * np.random.default_rng(1).standard_normal((len(interior), 3))
    mesh = mesh.with_positions(p)
    assert meshkit.validate(mesh, spec.walls()).ok
    return meshkit.save(mesh, spec.walls(), tmp_path / "folded.capmesh")


class TestDegenerateMeshes:
    """Meshes that pass validation but leave a field undefined end in a named error, never NaN."""

    @pytest.mark.parametrize("command", ["stability", "identities", "testfn"])
    def test_vertex_without_normal_exits_2(self, command, tmp_path, capsys):
        # the zero normal used to reach the fits as NaN, and numpy's RuntimeWarning
        # and "error: SVD did not converge" followed
        mesh = folded_tube(tmp_path)
        meshkit.load(mesh)
        out = tmp_path / "run"
        argv = [command, "--mesh", str(mesh), "--out", str(out)]
        assert main(argv + (["--identity-mode"] if command == "testfn" else [])) == 2
        assert capsys.readouterr().err.startswith("error: vertex 15 has no normal")
        assert not out.exists() or not any(out.iterdir())

    def test_identities_report_is_strict_json(self, tmp_path, capsys):
        # the jittered tube leaves 19 residuals and sides undefined; they were written
        # as NaN, which is not JSON
        mesh = str(folded_tube(tmp_path, jitter=True))
        out = tmp_path / "i"
        assert main(["identities", "--mesh", mesh, "--out", str(out)]) == 1
        undefined = ("normal_integral", "first_integral", "minkowski_wall0", "special_function", "laplacian_position")
        assert capsys.readouterr().err == "".join(
            [f"TOLERANCE FAILURE {name}: rel_residual nan is not finite\n" for name in undefined]
            + [
                "TOLERANCE FAILURE jacobi_u: rel_residual 9.915e-01 > 0.02\n",
                "TOLERANCE FAILURE jacobi_v: rel_residual 4.755e-01 > 0.02\n",
                "TOLERANCE FAILURE jacobi_phi: rel_residual 8.172e-01 > 0.02\n",
            ]
        )

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads((out / "identities.json").read_text(), parse_constant=refuse)
        assert len(doc["nonfinite"]) == 19
        assert doc["nonfinite"][:3] == ["/reports/0/abs_residual", "/reports/0/rel_residual", "/reports/0/rhs/0"]
        for pointer in doc["nonfinite"]:
            value = doc
            for key in pointer.split("/")[1:]:
                value = value[int(key)] if isinstance(value, list) else value[key]
            assert value is None

    def test_free_wall_robin_residual_is_finite(self, tmp_path):
        # vertex 15's conormal is undefined, but its walls are free (cot 0);
        # max_robin_residual used to be written as NaN
        mesh = str(folded_tube(tmp_path, jitter=True))
        assert main(["stability", "--mesh", mesh, "--out", str(tmp_path / "s")]) == 0
        assert read_json(tmp_path / "s" / "verdict.json")["info"]["meta"]["fields"]["nonfinite_boundary"] == 1
        assert main(["testfn", "--mesh", mesh, "--identity-mode", "--out", str(tmp_path / "t")]) == 0

        def refuse(constant):
            raise ValueError(f"testfn.json holds {constant}")

        doc = json.loads((tmp_path / "t" / "testfn.json").read_text(), parse_constant=refuse)
        assert math.isfinite(doc["max_robin_residual"])


class TestInputDocuments:
    """Bad wall documents and labels end in exit 2 and a named error before any report."""

    @pytest.mark.parametrize("command", ["stability", "testfn", "identities", "wedge"])
    def test_label_past_the_wall_set_exits_2(self, command, tmp_path, capsys):
        # before, the boundary term of wall 1 was dropped without a word
        mesh, walls, first = relabeled_cap(tmp_path, 1)
        capsys.readouterr()
        out = tmp_path / "run"
        argv = [command, "--mesh", str(mesh), "--out", str(out)]
        if command == "wedge":
            argv += ["--walls", str(walls)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {first}: label names wall 1, but ")
        assert err.rstrip().endswith("holds walls 0..0")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("case", list(WALL_DOCUMENTS))
    def test_bad_wall_document_exits_2(self, case, tmp_path, capsys):
        text, message = WALL_DOCUMENTS[case]
        walls = tmp_path / "walls.json"
        walls.write_text(text)
        out = tmp_path / "run"
        assert main(["wedge", "--walls", str(walls), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {walls}: {message}\n"
        assert not out.exists() or not any(out.iterdir())

    def test_infinite_offset_never_reaches_a_test_function(self, tmp_path, capsys):
        # it used to write NaN into six fields of testfn.json
        mesh, walls, _ = relabeled_cap(tmp_path, 0)
        walls.write_text(WALL_DOCUMENTS["infinite-offset"][0])
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["testfn", "--mesh", str(mesh), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {walls}: wall entry 0: \"offset\"")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["cap", "--angle-deg", "60"], families.Cap(R=1.0, theta=math.radians(60), resolution=32)),
            (["cylinder", "--length", "3"], families.Cylinder(r=1.0, L=3.0, resolution=32)),
            (["disk"], families.FlatDisk(R=1.0, resolution=32)),
            (["sphere"], families.ClosedSphere(R=1.0, resolution=32)),
            (["monge", "--amplitude", "0.2"], families.MongePatch(amplitude=0.2, R=1.0, resolution=32)),
        ],
        ids=["cap", "cylinder", "disk", "sphere", "monge"],
    )
    def test_gen_builds_no_fields(self, argv, spec, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("gen built exact fields")

        monkeypatch.setattr(families, "exact_fields", refuse)
        assert main(["gen", *argv, "--res", "32", "--out", str(tmp_path)]) == 0
        want = meshkit.LabeledTriMesh(*spec.build())
        got, walls = meshkit.load(tmp_path / f"{spec.slug}.capmesh")
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.triangles, want.triangles)
        assert got.boundary_labels == want.boundary_labels
        # the sphere and the Monge patch meet no wall, so gen writes no wall document
        assert (walls is None) == (spec.walls() is None)
        if walls is not None:
            assert walls.angles == spec.walls().angles


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

    def test_solver_counts_repeat(self, tmp_path):
        # the modes solved, the Lanczos steps of each round and the sweep's
        # block solves are deterministic facts
        mesh, walls = ring_breakers(tmp_path)["renumbered cap"]
        meshkit.save(mesh, walls, tmp_path / "renumbered.capmesh")
        runs = {
            "blocks": ("verdict.json", ["stability", "--family", "cap", "--angle-deg", "120", "--res", "24"]),
            "lanczos": ("verdict.json", ["stability", "--mesh", str(tmp_path / "renumbered.capmesh")]),
            "sweep": ("sweep.json", ["sweep", "cylinder", "--lmin", "3.0", "--lmax", "3.3", "--res", "16"]),
        }
        docs = {}
        for run, (name, args) in runs.items():
            a, b = tmp_path / run / "a", tmp_path / run / "b"
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            assert (a / name).read_bytes() == (b / name).read_bytes()
            docs[run] = read_json(a / name)
        blocks = docs["blocks"]["info"]["solver"]
        assert blocks["blocks"]["solved"] > 0 and all(isinstance(q, int) for q in blocks["modes"])
        steps = docs["lanczos"]["info"]["solver"]["steps"]
        assert steps and all(isinstance(n, int) and n > 0 for n in steps)
        assert docs["sweep"]["solves"]["blocks"] == 4

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
