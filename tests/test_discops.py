"""Operators and estimated fields against closed forms and quadrature."""

import csv
import math
import types

import numpy as np
import pytest
from scipy import integrate

from caplab import discops, families, meshkit, reports
from caplab.errors import DegenerateElementError, FitFailureError, InvalidMeshError
from conftest import decreasing_with_floor, rotate_walls, rotation_matrix


class TestOperators:
    def test_mass_converges_to_area(self, hemisphere):
        errs = []
        for res in (16, 32, 64):
            _, mesh, _ = hemisphere[res]
            ops = discops.assemble_operators(mesh)
            errs.append(abs(ops.area - 2 * math.pi) / (2 * math.pi))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.01

    def test_dirichlet_energy_of_coordinate_on_disk(self, flat_disk):
        # oracle: integral of |grad x|^2 over the unit disk equals its area pi
        _, mesh, _ = flat_disk
        ops = discops.assemble_operators(mesh)
        f = mesh.positions[:, 0]
        assert f @ (ops.K @ f) == pytest.approx(math.pi, rel=0.02)

    def test_boundary_mass_converges_to_circumference(self, hemisphere):
        errs = []
        for res in (16, 32, 64):
            _, mesh, _ = hemisphere[res]
            ops = discops.assemble_operators(mesh)
            errs.append(abs(float(ops.B_all.sum()) - 2 * math.pi))
        assert errs[2] < errs[1] < errs[0]

    def test_constants_in_stiffness_kernel(self, cap_pi3):
        _, mesh, _ = cap_pi3[32]
        ops = discops.assemble_operators(mesh)
        assert np.abs(ops.K @ np.ones(mesh.nv)).max() <= 1e-12
        rng = np.random.default_rng(0)
        f = rng.standard_normal(mesh.nv)
        assert f @ (ops.K @ f) >= 0.0

    def test_mass_row_sum_identity(self, cylinder_l2):
        _, mesh, _ = cylinder_l2[16]
        ops = discops.assemble_operators(mesh)
        ones = np.ones(mesh.nv)
        assert ones @ (ops.M @ ones) == pytest.approx(mesh.area(), rel=1e-12)
        for w, B in ops.B_wall.items():
            assert ones @ (B @ ones) == pytest.approx(mesh.boundary_length(w), rel=1e-12)

    def test_boundary_measures_match_per_edge_loop(self, cylinder_l2, cap_pi3, monge_patch):
        """The per-edge accumulation assemble_operators replaced, bit for bit."""
        for mesh in (cylinder_l2[16][1], cap_pi3[32][1], monge_patch[16][1]):
            p, be, labels = mesh.positions, mesh.boundary_edges, mesh.boundary_labels
            diag_all, diag_wall = np.zeros(mesh.nv), {}
            lengths = np.linalg.norm(p[be[:, 1]] - p[be[:, 0]], axis=1)
            for (a, b), le in zip(be.tolist(), lengths):
                diag_all[a] += 0.5 * le
                diag_all[b] += 0.5 * le
                if labels.get(a) is not None and labels.get(a) == labels.get(b):
                    d = diag_wall.setdefault(labels[a], np.zeros(mesh.nv))
                    d[a] += 0.5 * le
                    d[b] += 0.5 * le
            ops = discops.assemble_operators(mesh)
            assert np.array_equal(ops.B_all.diagonal(), diag_all)
            assert sorted(ops.B_wall) == sorted(diag_wall)
            for w, d in diag_wall.items():
                assert np.array_equal(ops.B_wall[w].diagonal(), d)

    def test_sums_computed_once_with_the_same_reductions(self, cylinder_l2):
        _, mesh, _ = cylinder_l2[16]
        ops = discops.assemble_operators(mesh)
        assert ops.area == float(ops.M.sum())
        assert np.array_equal(ops.lumped_mass, np.asarray(ops.M.sum(axis=1)).ravel())
        assert ops.boundary_lengths == {w: float(B.sum()) for w, B in ops.B_wall.items()}
        assert ops.lumped_mass is ops.lumped_mass
        assert ops.boundary_lengths is ops.boundary_lengths
        assert not ops.lumped_mass.flags.writeable
        with pytest.raises(TypeError):
            ops.boundary_lengths[0] = 0.0

    def test_mesh_owns_one_operator_set(self, topology_builds):
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=16)
        mesh = meshkit.LabeledTriMesh(*spec.build())
        assert mesh.operators is mesh.operators
        moved = mesh.scaled(1.5)
        assert moved.operators is not mesh.operators
        again = discops.assemble_operators(moved)
        for name in ("M", "K", "B_all"):
            assert (getattr(moved.operators, name) != getattr(again, name)).nnz == 0
        assert moved.operators.B_wall.keys() == again.B_wall.keys()
        assert np.array_equal(moved.operators.areas, again.areas)
        # the copy reuses the topology: no pair pattern or boundary is built twice
        assert max(topology_builds.values()) == 1

    def test_mesh_and_operator_arrays_are_read_only(self, cap_pi3):
        _, mesh, _ = cap_pi3[16]
        ops = mesh.operators
        for array in (mesh.positions, mesh.triangles, ops.M.data, ops.K.data, ops.B_all.data, ops.areas):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            ops.B_wall[0].data[0] = 0.0

    def test_mesh_copies_the_arrays_it_is_given(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        triangles = np.array([[0, 1, 2]])
        mesh = meshkit.LabeledTriMesh(positions, triangles)
        positions[0, 0] = 5.0
        triangles[0, 0] = 1
        assert positions.flags.writeable and triangles.flags.writeable
        assert mesh.positions[0, 0] == 0.0 and mesh.triangles[0, 0] == 0

    def test_mesh_adopts_arrays_built_for_it(self):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        triangles = np.array([[0, 1, 2]], dtype=np.int64)
        mesh = meshkit.LabeledTriMesh(positions, triangles, copy=False)
        assert mesh.positions is positions and mesh.triangles is triangles
        assert not positions.flags.writeable and not triangles.flags.writeable
        # a derived mesh copies the positions it is given and shares the triangles
        moved = 2.0 * positions
        copy = mesh.with_positions(moved)
        assert moved.flags.writeable and not np.shares_memory(copy.positions, moved)
        assert copy.triangles is mesh.triangles
        assert mesh.translated([1.0, 0.0, 0.0]).triangles is mesh.triangles

    def test_degenerate_triangle_named(self):
        positions = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0], [0.5, 0.5, 1e-20]]
        tris = [[0, 1, 2], [1, 3, 4]]
        mesh = meshkit.LabeledTriMesh(positions, tris)
        with pytest.raises(DegenerateElementError) as err:
            discops.assemble_operators(mesh)
        assert "1" in str(err.value)

    def test_weighted_mass_matches_plain_for_unit_weight(self, cap_pi3):
        _, mesh, _ = cap_pi3[16]
        ops = discops.assemble_operators(mesh)
        W = discops.weighted_mass(mesh, np.ones(mesh.nv))
        assert abs(W - ops.M).max() <= 1e-14

    def test_weighted_mass_linear_exactness(self, flat_disk):
        # oracle: integral of z * x^2 over the unit disk for z = 1 + x
        _, mesh, _ = flat_disk
        w = 1.0 + mesh.positions[:, 0]
        W = discops.weighted_mass(mesh, w)
        f = mesh.positions[:, 0]
        got = f @ (W @ f)
        exact = integrate.dblquad(
            lambda r, t: (1 + r * math.cos(t)) * (r * math.cos(t)) ** 2 * r,
            0,
            2 * math.pi,
            0,
            1,
        )[0]
        assert got == pytest.approx(exact, rel=0.02)


class TestIntegrate:
    def test_constant_over_hemisphere(self, hemisphere):
        _, mesh, _ = hemisphere[32]
        ops = discops.assemble_operators(mesh)
        assert discops.integrate_scalar(ops.M, np.ones(mesh.nv)) == pytest.approx(
            2 * math.pi, rel=0.01
        )

    def test_height_over_hemisphere(self, hemisphere):
        # oracle: 2 pi int_0^{pi/2} cos(t) sin(t) dt = pi by quadrature
        exact, _ = integrate.quad(lambda t: 2 * math.pi * math.cos(t) * math.sin(t), 0, math.pi / 2)
        assert exact == pytest.approx(math.pi, rel=1e-12)
        _, mesh, _ = hemisphere[32]
        ops = discops.assemble_operators(mesh)
        got = discops.integrate_scalar(ops.M, mesh.positions[:, 2])
        assert got == pytest.approx(exact, rel=0.02)

    def test_boundary_of_sixty_degree_cap(self, cap_pi3):
        _, mesh, _ = cap_pi3[32]
        ops = discops.assemble_operators(mesh)
        got = discops.integrate_scalar(ops.B_wall[0], np.ones(mesh.nv))
        assert got == pytest.approx(2 * math.pi * math.sin(math.pi / 3), rel=0.01)
        assert got == pytest.approx(5.441398092702653, rel=0.01)

    def test_dimension_mismatch(self, flat_disk):
        _, mesh, _ = flat_disk
        ops = discops.assemble_operators(mesh)
        with pytest.raises(ValueError):
            discops.integrate_scalar(ops.M, np.ones(3))
        with pytest.raises(ValueError):
            discops.integrate_vector(ops.M, np.ones((3, 3)))


class TestEstimateFields:
    def test_sphere_curvatures_within_two_percent(self):
        spec = families.ClosedSphere(R=1.0, resolution=64)
        mesh, _ = families.generate_mesh(spec)
        est = discops.estimate_fields(mesh)
        assert np.abs(est.mean_curv - 1.0).max() <= 0.02
        assert np.abs(est.sigma_sq - 2.0).max() <= 0.04  # 2% of the value 2

    def test_cylinder_boundary_sigma_nn_flat(self, cylinder_l2):
        spec, mesh, _ = cylinder_l2[32]
        est = discops.estimate_fields(mesh, spec.walls())
        assert np.abs(est.sigma_nn[mesh.boundary_vertices]).max() <= 0.05

    def test_hemisphere_boundary_curvature(self, hemisphere):
        spec, mesh, _ = hemisphere[32]
        est = discops.estimate_fields(mesh, spec.walls())
        assert np.abs(est.bdry_curv[mesh.boundary_vertices] + 1.0).max() <= 0.02

    def test_normals_flipped_to_positive_mean_curvature(self, unit_sphere):
        _, mesh, exact = unit_sphere
        est = discops.estimate_fields(mesh)
        align = np.einsum("ij,ij->i", est.normal, exact.normal)
        assert align.min() > 0.99

    def test_rounding_level_mean_curvature_keeps_winding(self, monge_patch):
        # the fitted mean H here is -1.5e-18: its sign is summation order
        _, mesh, _ = monge_patch[64]
        est = discops.estimate_fields(mesh)
        assert abs(est.info["mean_H"]) * mesh.bbox_diameter() < 1e-8
        assert est.info["flipped"] is False
        assert est.info["orientation"] == "winding"
        n, p, t = est.normal, mesh.positions, mesh.triangles
        corner_sum = n[t[:, 0]] + n[t[:, 1]] + n[t[:, 2]]
        face = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
        assert np.einsum("ij,ij->i", face, corner_sum).min() > 0

    def test_convergence_to_exact_fields(self, cap_pi3):
        errs_H, errs_ang = [], []
        for res in (16, 32, 64):
            spec, mesh, exact = cap_pi3[res]
            est = discops.estimate_fields(mesh, spec.walls())
            errs_H.append(np.abs(est.mean_curv - 1.0).max())
            errs_ang.append(np.abs(est.angle[mesh.boundary_vertices] - math.pi / 3).max())
        assert decreasing_with_floor(errs_H)
        assert decreasing_with_floor(errs_ang)
        assert errs_H[-1] <= 0.02
        assert errs_ang[-1] <= 0.01

    def test_umbilic_defect_nonnegative(self, cap_pi3, cylinder_l2):
        for fix in (cap_pi3, cylinder_l2):
            spec, mesh, _ = fix[32]
            est = discops.estimate_fields(mesh, spec.walls())
            # |sigma|^2 - 2 H^2 = (k1 - k2)^2 / 2 >= 0 for fitted curvatures
            assert (est.sigma_sq - 2.0 * est.mean_curv**2).min() >= -1e-12

    def test_conormal_orthogonality_and_unit_norms(self, cap_pi3):
        spec, mesh, _ = cap_pi3[32]
        est = discops.estimate_fields(mesh, spec.walls())
        b = mesh.boundary_vertices
        for vecs in (est.normal, est.conormal[b], est.wall_conormal[b]):
            assert np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max() <= 1e-10
        dots = np.einsum("ij,ij->i", est.conormal[b], est.normal[b])
        assert np.abs(dots).max() <= 1e-10
        wall_dots = est.wall_conormal[b] @ spec.walls().walls[0].normal
        assert np.abs(wall_dots).max() <= 1e-12

    def test_rigid_motion_invariance(self, cap_pi3):
        spec, mesh, _ = cap_pi3[16]
        walls = spec.walls()
        R = rotation_matrix([1.0, 2.0, 0.5], 0.93)
        est = discops.estimate_fields(mesh, walls)
        est_rot = discops.estimate_fields(mesh.transformed(R), rotate_walls(walls, R))
        b = mesh.boundary_vertices

        def dev(a, b):
            return (np.abs(a - b) / (1.0 + np.abs(b))).max()

        assert dev(est_rot.mean_curv, est.mean_curv) <= 1e-10
        assert dev(est_rot.sigma_sq, est.sigma_sq) <= 1e-10
        assert dev(est_rot.sigma_nn[b], est.sigma_nn[b]) <= 1e-10
        assert dev(est_rot.bdry_curv[b], est.bdry_curv[b]) <= 1e-10
        assert dev(est_rot.angle[b], est.angle[b]) <= 1e-10
        assert np.abs(est_rot.normal - est.normal @ R.T).max() <= 1e-10

    def test_scaling_covariance(self, cap_pi3):
        spec, mesh, _ = cap_pi3[16]
        walls = spec.walls()
        est = discops.estimate_fields(mesh, walls)
        est2 = discops.estimate_fields(mesh.scaled(2.0), walls)
        b = mesh.boundary_vertices
        assert np.abs(2.0 * est2.mean_curv - est.mean_curv).max() <= 1e-10
        assert np.abs(4.0 * est2.sigma_sq - est.sigma_sq).max() <= 1e-10
        assert np.abs(2.0 * est2.sigma_nn[b] - est.sigma_nn[b]).max() <= 1e-10
        assert np.abs(2.0 * est2.bdry_curv[b] - est.bdry_curv[b]).max() <= 1e-10

    def test_fit_failure_on_tiny_mesh(self):
        mesh = meshkit.LabeledTriMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], {0: 0, 1: 0, 2: 0}
        )
        with pytest.raises(FitFailureError):
            discops.estimate_fields(mesh)

    def test_fit_failure_names_the_vertex(self, cap_pi3):
        spec, mesh, _ = cap_pi3[16]
        # one triangle on three new vertices: each has a 2-point stencil
        far = mesh.positions[:3] + [5.0, 0.0, 0.0]
        nv = mesh.nv
        dangling = meshkit.LabeledTriMesh(
            np.vstack([mesh.positions, far]),
            np.vstack([mesh.triangles, [[nv, nv + 1, nv + 2]]]),
            mesh.boundary_labels,
        )
        with pytest.raises(FitFailureError) as err:
            discops.estimate_fields(dangling, spec.walls())
        assert f"vertex {nv} has a stencil of 2 points" in str(err.value)

    def test_empty_mesh_rejected(self):
        mesh = meshkit.LabeledTriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(InvalidMeshError):
            discops.estimate_fields(mesh)


def reference_fields_csv(mesh, fields, path):
    """The per-vertex csv.writer loop the fields table replaced, with LF line ends."""
    bset = set(mesh.boundary_vertices.tolist())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            [
                "vertex", "x", "y", "z",
                "normal_x", "normal_y", "normal_z", "mean_curv", "sigma_sq",
                "conormal_x", "conormal_y", "conormal_z",
                "wall_conormal_x", "wall_conormal_y", "wall_conormal_z",
                "sigma_nn", "bdry_curv", "angle",
            ]
        )
        for v in range(mesh.nv):
            row = [v, *(f"{c:.17g}" for c in mesh.positions[v])]
            row += [f"{c:.17g}" for c in fields.normal[v]]
            row += [f"{fields.mean_curv[v]:.17g}", f"{fields.sigma_sq[v]:.17g}"]
            if v in bset:
                row += [f"{c:.17g}" for c in fields.conormal[v]]
                row += [f"{c:.17g}" for c in fields.wall_conormal[v]]
                row += [
                    f"{fields.sigma_nn[v]:.17g}",
                    f"{fields.bdry_curv[v]:.17g}",
                    f"{fields.angle[v]:.17g}",
                ]
            else:
                row += [""] * 9
            w.writerow(row)


class TestExport:
    @pytest.mark.parametrize(
        "spec, fields_of, boundary_nan",
        [
            pytest.param(
                families.Cap(R=1.0, theta=math.pi / 3, resolution=32),
                lambda spec, mesh, exact: discops.estimate_fields(mesh, spec.walls()),
                False,
                id="estimated-cap",
            ),
            pytest.param(
                families.Cylinder(r=1.0, L=2.0, resolution=24),
                lambda spec, mesh, exact: exact,
                False,
                id="exact-cylinder",
            ),
            pytest.param(
                families.Cylinder(r=1.0, L=2.0, resolution=24),
                lambda spec, mesh, exact: discops.estimate_fields(mesh),
                True,
                id="estimated-cylinder-without-walls",
            ),
            pytest.param(
                families.MongePatch(amplitude=0.1, R=1.0, resolution=16),
                lambda spec, mesh, exact: exact,
                True,
                id="exact-monge",
            ),
        ],
    )
    def test_fields_csv_matches_reference_writer(self, tmp_path, spec, fields_of, boundary_nan):
        mesh, exact = families.generate_mesh(spec)
        fields = fields_of(spec, mesh, exact)
        want = tmp_path / "reference.csv"
        reference_fields_csv(mesh, fields, want)
        got = reports.write_table(
            tmp_path / "fields.csv", discops.FIELD_COLUMNS, discops.field_rows(mesh, fields)
        )
        assert got.read_bytes() == want.read_bytes()
        assert (b",nan," in want.read_bytes()) == boundary_nan

    def test_fields_csv(self, cap_pi3, tmp_path):
        spec, mesh, fields = cap_pi3[16]
        path = reports.write_table(
            tmp_path / "fields.csv", discops.FIELD_COLUMNS, discops.field_rows(mesh, fields)
        )
        lines = path.read_text().splitlines()
        assert len(lines) == mesh.nv + 1
        assert lines[0].startswith("vertex,x,y,z,normal_x")

    @pytest.mark.parametrize(
        "nv", [0, 1, reports.WRITE_ROWS - 1, reports.WRITE_ROWS, reports.WRITE_ROWS + 1, 3 * reports.WRITE_ROWS + 5]
    )
    def test_field_rows_match_whole_table(self, nv):
        # field_rows converts a block of vertices at a time; the reference
        # converts the whole table at once, as it did before
        rng = np.random.default_rng(nv)
        boundary = np.flatnonzero(rng.random(nv) < 0.3)
        mesh = types.SimpleNamespace(nv=nv, positions=rng.standard_normal((nv, 3)), boundary_vertices=boundary)

        def field(*shape):
            values = np.full((nv, *shape), np.nan)
            values[boundary] = rng.standard_normal((len(boundary), *shape))
            return values

        fields = discops.GeometryFields(
            normal=rng.standard_normal((nv, 3)), mean_curv=rng.standard_normal(nv),
            sigma_sq=rng.random(nv), conormal=field(3), wall_conormal=field(3),
            sigma_nn=field(), bdry_curv=field(), angle=field(),
        )
        columns = (
            mesh.positions, fields.normal, fields.mean_curv, fields.sigma_sq, fields.conormal,
            fields.wall_conormal, fields.sigma_nn, fields.bdry_curv, fields.angle,
        )
        table = np.column_stack(columns).tolist()
        on = set(boundary.tolist())
        want = [(v, *row) if v in on else (v, *row[:8]) for v, row in enumerate(table)]
        # repr tells 1 from 1.0 and reads NaN as equal to NaN
        assert repr(list(discops.field_rows(mesh, fields))) == repr(want)
