"""Integral identities against closed forms and dense-quadrature oracles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from caplab import discops, families, identities, meshkit, stability
from caplab.errors import InvalidMeshError
from caplab.reports import write_table
from conftest import decreasing_with_floor, rotate_walls, rotation_matrix
from test_topology_oracle import BUILD_SPECS, GRID_MESHES


def monge_normal_identity_oracle(spec, samples=4000):
    """Both sides of the normal divergence identity by dense quadrature.

    Bulk side: n * integral of N dA = 2 * iint (-fx, -fy, 1) dx dy over the
    disk (the area весight cancels the normalization of N). Rim side by
    composite trapezoid in the rim parameter.
    """
    lhs = np.zeros(3)
    for comp, fun in enumerate(
        (
            lambda x, y: -spec.gradient(x, y)[0],
            lambda x, y: -spec.gradient(x, y)[1],
            lambda x, y: np.ones_like(x),
        )
    ):
        val, _ = integrate.dblquad(
            lambda r, t: fun(np.asarray(r * math.cos(t)), np.asarray(r * math.sin(t))) * r,
            0,
            2 * math.pi,
            0,
            spec.R,
            epsabs=1e-12,
        )
        lhs[comp] = 2.0 * val

    t = np.linspace(0, 2 * math.pi, samples, endpoint=False)
    x = spec.R * np.cos(t)
    y = spec.R * np.sin(t)
    z = spec.height(x, y)
    psi = np.column_stack([x, y, z])
    fx, fy = spec.gradient(x, y)
    w = np.sqrt(1 + fx * fx + fy * fy)
    N = np.column_stack([-fx / w, -fy / w, 1 / w])
    tx = -spec.R * np.sin(t)
    ty = spec.R * np.cos(t)
    tz = fx * tx + fy * ty
    T = np.column_stack([tx, ty, tz])
    speed = np.linalg.norm(T, axis=1)
    T = T / speed[:, None]
    nu = np.cross(T, N)
    nu /= np.linalg.norm(nu, axis=1)[:, None]
    outward = np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)])
    flip = np.einsum("ij,ij->i", nu, outward) < 0
    nu[flip] = -nu[flip]
    integrand = (
        np.einsum("ij,ij->i", psi, nu)[:, None] * N
        - np.einsum("ij,ij->i", psi, N)[:, None] * nu
    )
    rhs = (integrand * speed[:, None]).sum(axis=0) * (2 * math.pi / samples)
    return lhs, rhs


class TestNormalIntegral:
    def test_closed_sphere_both_sides_zero(self, unit_sphere):
        _, mesh, fields = unit_sphere
        r = identities.check_normal_integral(mesh, fields)
        area = 4 * math.pi
        assert np.linalg.norm(np.asarray(r.lhs)) <= 0.02 * area
        assert np.linalg.norm(np.asarray(r.rhs)) <= 1e-12
        assert r.abs_residual <= 0.02 * area

    def test_flat_disk_value(self, flat_disk):
        _, mesh, fields = flat_disk
        r = identities.check_normal_integral(mesh, fields)
        assert np.allclose(r.lhs, [0, 0, 2 * math.pi], atol=0.05)
        assert np.allclose(r.rhs, [0, 0, 2 * math.pi], atol=0.05)

    def test_monge_against_quadrature_oracle(self, monge_patch):
        spec = monge_patch[16][0]
        lhs, rhs = monge_normal_identity_oracle(spec)
        # the identity itself holds analytically
        assert np.abs(lhs - rhs).max() <= 1e-6
        rels = []
        for res in (16, 32, 64):
            _, mesh, fields = monge_patch[res]
            r = identities.check_normal_integral(mesh, fields)
            rels.append(r.rel_residual)
            if res == 64:
                # discrete sides agree with the analytic quadrature values
                assert np.abs(np.asarray(r.lhs) - lhs).max() <= 0.02 * (1 + np.abs(lhs).max())
        assert decreasing_with_floor(rels)
        assert rels[-1] <= 0.02


class TestFirstIntegral:
    def test_hemisphere_both_sides_vanish(self, hemisphere):
        _, mesh, fields = hemisphere[32]
        r = identities.check_first_integral(mesh, fields)
        assert abs(r.lhs) <= 1e-12
        assert abs(r.rhs) <= 1e-10

    def test_cylinder_value(self, cylinder_l2):
        _, mesh, fields = cylinder_l2[48]
        r = identities.check_first_integral(mesh, fields)
        assert r.lhs == pytest.approx(4 * math.pi, rel=0.02)
        assert r.rhs == pytest.approx(4 * math.pi, rel=0.02)
        assert r.lhs == pytest.approx(r.rhs, rel=1e-12)

    def test_flat_disk_value(self, flat_disk):
        _, mesh, fields = flat_disk
        r = identities.check_first_integral(mesh, fields)
        assert r.lhs == pytest.approx(2 * math.pi, rel=0.02)
        assert r.rhs == pytest.approx(2 * math.pi, rel=0.02)


class TestMinkowskiBoundary:
    def test_hemisphere_rim(self, hemisphere):
        spec, mesh, fields = hemisphere[32]
        r = identities.check_minkowski_boundary(mesh, fields, spec.walls(), 0)
        assert r.lhs == pytest.approx(2 * math.pi, rel=0.01)
        assert r.rel_residual <= 1e-10

    def test_cap_rim(self, cap_pi3):
        spec, mesh, fields = cap_pi3[32]
        r = identities.check_minkowski_boundary(mesh, fields, spec.walls(), 0)
        assert r.lhs == pytest.approx(2 * math.pi * math.sin(math.pi / 3), rel=0.01)
        assert r.rel_residual <= 1e-10

    def test_estimated_fields_converge(self, hemisphere):
        rels = []
        for res in (16, 32, 64):
            spec, mesh, _ = hemisphere[res]
            est = discops.estimate_fields(mesh, spec.walls())
            r = identities.check_minkowski_boundary(mesh, est, spec.walls(), 0)
            rels.append(r.rel_residual)
        assert decreasing_with_floor(rels)


class TestSpecialFunction:
    def test_cylinder_closed_form(self, cylinder_l2):
        # term by term: (2H^2-|sigma|^2)<psi,N> = 1/2 and (H - 0)<psi,nu> = L/2
        # on the top rim, so both sides equal half the area = pi L
        spec, mesh, fields = cylinder_l2[48]
        r = identities.check_special_function(mesh, fields)
        assert r.lhs == pytest.approx(2 * math.pi, rel=0.02)
        assert r.rhs == pytest.approx(2 * math.pi, rel=0.02)

    def test_umbilical_cap_both_sides_vanish(self, cap_pi3):
        _, mesh, fields = cap_pi3[32]
        r = identities.check_special_function(mesh, fields)
        assert abs(r.lhs) <= 1e-12
        assert abs(r.rhs) <= 1e-12

    def test_flat_disk_zero(self, flat_disk):
        _, mesh, fields = flat_disk
        r = identities.check_special_function(mesh, fields)
        assert abs(r.lhs) <= 1e-12 and abs(r.rhs) <= 1e-12

    def test_non_cmc_warning(self, monge_patch):
        spec, mesh, fields = monge_patch[32]
        r = identities.check_special_function(mesh, fields)
        assert r.info.get("warning") == "not-cmc"


class TestBoundarySigmaRelation:
    def test_hemisphere(self, hemisphere):
        spec, mesh, fields = hemisphere[32]
        r = identities.check_boundary_sigma_relation(mesh, fields, spec.walls(), 0)
        # 1 = 2*1 + 1*(-1)
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert r.abs_residual <= 1e-12

    def test_cylinder(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[32]
        for wall in (0, 1):
            r = identities.check_boundary_sigma_relation(mesh, fields, spec.walls(), wall)
            # 0 = 2*(1/2) + (-1)
            assert abs(r.lhs) <= 1e-12
            assert r.abs_residual <= 1e-12

    def test_sixty_degree_cap(self, cap_pi3):
        spec, mesh, fields = cap_pi3[32]
        r = identities.check_boundary_sigma_relation(mesh, fields, spec.walls(), 0)
        # 1 = 2 + sin(pi/3) * (-1/sin(pi/3))
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.abs_residual <= 1e-12

    @staticmethod
    def estimated(spec):
        mesh = meshkit.LabeledTriMesh(*spec.build())
        return mesh, discops.estimate_fields(mesh, spec.walls())

    def test_estimated_tube_residual_is_second_order(self):
        # both sides cancel to zero on a tube: scaled by the larger side, the
        # residual read 0.906, 0.8955 and 0.8948, one discretization error over another
        expected = {24: 0.0568, 48: 0.0146, 96: 0.00368}
        for res, value in expected.items():
            spec = families.Cylinder(r=1.0, L=3.0, resolution=res)
            mesh, fields = self.estimated(spec)
            for wall in (0, 1):
                r = identities.check_boundary_sigma_relation(mesh, fields, spec.walls(), wall)
                assert r.rel_residual == pytest.approx(value, rel=0.01)

    def test_sigma_too_large_fails_on_the_cap(self):
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=48)
        mesh, fields = self.estimated(spec)
        assert identities.check_boundary_sigma_relation(mesh, fields, spec.walls(), 0).rel_residual <= 0.02
        wrong = dataclasses.replace(fields, sigma_nn=1.2 * fields.sigma_nn)
        assert identities.check_boundary_sigma_relation(mesh, wrong, spec.walls(), 0).rel_residual > 0.02

    def test_flipped_mean_curvature_fails_on_the_tube(self):
        spec = families.Cylinder(r=1.0, L=3.0, resolution=48)
        mesh, fields = self.estimated(spec)
        wrong = dataclasses.replace(fields, mean_curv=-fields.mean_curv)
        for wall in (0, 1):
            assert identities.check_boundary_sigma_relation(mesh, wrong, spec.walls(), wall).rel_residual > 0.02

    @pytest.mark.parametrize(
        "name", [name for name in GRID_MESHES if isinstance(BUILD_SPECS.get(name), families.RingFamily)]
    )
    def test_every_labeled_vertex_of_the_grid(self, name):
        # the closed sphere has no labeled vertex; the flat disk lies in its wall, theta = pi
        spec, mesh = BUILD_SPECS[name], GRID_MESHES[name]
        fields = families.exact_fields(spec, mesh)
        verts, labels = np.array(sorted(mesh.boundary_labels.items()), dtype=int).reshape(-1, 2).T
        theta = fields.angle[verts]
        rhs = 2 * fields.mean_curv[verts] + np.sin(theta) * fields.bdry_curv[verts]
        assert np.all(np.abs(fields.sigma_nn[verts] - rhs) <= 1e-14 * (1 + np.abs(fields.bdry_curv[verts])))
        if len(verts):
            cos_theta = np.einsum("ij,ij->i", fields.normal[verts], spec.walls().normals[labels])
            assert np.all(np.abs(cos_theta - np.cos(theta)) <= 1e-14)


class TestLaplacianPosition:
    def test_hemisphere_value(self, hemisphere):
        spec, mesh, fields = hemisphere[64]
        plain, wedge_form = identities.check_laplacian_position(mesh, fields, spec.walls())
        expected = np.array([0, 0, -2 * math.pi])
        for side in (plain.lhs, plain.rhs, wedge_form.rhs):
            assert np.abs(np.asarray(side) - expected).max() <= 0.02 * 2 * math.pi

    def test_cylinder_cancels(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[32]
        plain, wedge_form = identities.check_laplacian_position(mesh, fields, spec.walls())
        assert np.linalg.norm(np.asarray(plain.lhs)) <= 1e-10
        assert np.linalg.norm(np.asarray(wedge_form.rhs)) <= 1e-10

    def test_cap_value(self, cap_pi3):
        spec, mesh, fields = cap_pi3[64]
        plain, wedge_form = identities.check_laplacian_position(mesh, fields, spec.walls())
        expected = np.array([0, 0, -2 * math.pi * math.sin(math.pi / 3) ** 2])
        assert expected[2] == pytest.approx(-1.5 * math.pi, rel=1e-12)
        for side in (plain.lhs, plain.rhs, wedge_form.rhs):
            assert np.abs(np.asarray(side) - expected).max() <= 0.02 * abs(expected[2])


class TestJacobiFields:
    def test_closed_sphere_translation_mode_converges(self):
        rels = []
        for res in (16, 32, 64):
            spec = families.ClosedSphere(R=1.0, resolution=res)
            mesh, fields = families.generate_mesh(spec)
            _, rv, _ = identities.check_jacobi_fields(mesh, fields)
            rels.append(rv.rel_residual)
        assert decreasing_with_floor(rels)
        assert rels[-1] <= 0.02

    def test_cylinder_exact_constants(self, cylinder_l2):
        _, mesh, fields = cylinder_l2[32]
        ru, rv, rphi = identities.check_jacobi_fields(mesh, fields)
        # u = -r and phi = 1/2 are constants: residuals at machine level
        assert ru.abs_residual <= 1e-10
        assert rv.abs_residual <= 1e-10
        assert rphi.abs_residual <= 1e-10

    def test_hemisphere_constant_u(self, hemisphere):
        _, mesh, fields = hemisphere[32]
        ru, _, _ = identities.check_jacobi_fields(mesh, fields)
        assert ru.abs_residual <= 1e-10


class TestRunSuite:
    def test_monge_applicability_routing(self, monge_patch):
        spec, mesh, fields = monge_patch[32]
        reports = identities.run_suite(mesh, spec.walls(), fields)
        ran = [r.name for r in reports if not r.skipped]
        skipped = [r.name for r in reports if r.skipped]
        assert ran == ["normal_integral", "first_integral"]
        assert "special_function" in skipped and "jacobi_fields" in skipped

    def test_cap_all_checks_pass_at_64(self, cap_pi3):
        spec, mesh, fields = cap_pi3[64]
        reports = identities.run_suite(
            mesh, spec.walls(), fields, capillary_vector=[0, 0, math.cos(math.pi / 3)]
        )
        for r in reports:
            if not r.skipped:
                assert r.rel_residual <= 0.02, r.name

    def test_flat_disk_skips_angle_dependent_checks(self, flat_disk):
        spec, mesh, fields = flat_disk
        reports = identities.run_suite(mesh, spec.walls(), fields)
        names = {r.name: r for r in reports}
        assert names["sigma_relation"].skipped
        assert names["laplacian_position_wedge"].skipped
        assert names["claim"].skipped
        assert not names["minkowski_wall0"].skipped
        assert names["minkowski_wall0"].rel_residual <= 0.02

    def test_cylinder_claim_skipped_for_dependent_normals(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[32]
        reports = identities.run_suite(mesh, spec.walls(), fields)
        names = {r.name: r for r in reports}
        assert names["claim"].skipped
        assert "dependent" in names["claim"].info["skipped"]

    def test_cap_claim_runs_and_vanishes(self, cap_pi3):
        spec, mesh, fields = cap_pi3[32]
        reports = identities.run_suite(mesh, spec.walls(), fields)
        names = {r.name: r for r in reports}
        assert not names["claim_wall0"].skipped
        assert names["claim_wall0"].info.get("derived")
        assert names["claim_wall0"].rel_residual <= 1e-10

    def test_empty_mesh_rejected(self):
        mesh = meshkit.LabeledTriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(InvalidMeshError):
            identities.run_suite(mesh, None, None)

    def test_rotation_invariance(self, cap_pi3):
        spec, mesh, fields = cap_pi3[16]
        walls = spec.walls()
        R = rotation_matrix([0.3, 1.0, 0.2], 1.37)
        base = identities.run_suite(mesh, walls, fields)
        rot = identities.run_suite(
            mesh.transformed(R), rotate_walls(walls, R), fields.transformed(R)
        )
        for r0, r1 in zip(base, rot):
            assert r0.name == r1.name
            if not r0.skipped:
                assert abs(r0.rel_residual - r1.rel_residual) <= 1e-10

    @pytest.mark.parametrize(
        "spec, resolution, tag, skips",
        [
            # no walls: every check past the first two is skipped
            (families.MongePatch(amplitude=0.1, R=1.0, resolution=16), "", "nv=65", 6),
            # flat in its wall: the angle-dependent checks are skipped
            (families.FlatDisk(R=1.0, resolution=16), "16", "16", 3),
        ],
    )
    def test_tag_on_every_report_and_one_assembly(self, spec, resolution, tag, skips, assemblies):
        mesh, fields = families.generate_mesh(spec)
        reports = identities.run_suite(mesh, spec.walls(), fields, resolution=resolution)
        assert sum(r.skipped for r in reports) == skips
        assert {r.resolution for r in reports} == {tag}
        assert assemblies == [mesh.nv]

    def test_checks_alone_carry_no_tag(self, cap_pi3):
        spec, mesh, fields = cap_pi3[16]
        assert identities.check_normal_integral(mesh, fields).resolution == ""
        assert all(r.resolution == "" for r in identities.check_jacobi_fields(mesh, fields))

    def test_csv_and_document(self, cap_pi3, tmp_path):
        spec, mesh, fields = cap_pi3[16]
        reports = identities.run_suite(mesh, spec.walls(), fields, resolution="16")
        rows = [r.row() for r in reports]
        path = write_table(tmp_path / "suite.csv", identities.SUITE_COLUMNS, rows, {"tol": 0.02})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# tol=")
        assert lines[1] == "identity,lhs,rhs,abs_residual,rel_residual,resolution"
        assert len(lines) == len(reports) + 2
        doc = identities.suite_to_document(reports)
        assert doc["version"] == 1
        assert len(doc["reports"]) == len(reports)


class TestOneMeanCurvature:
    """The suite, the test function and field estimation read one H-bar: the operator set's mean."""

    @pytest.mark.parametrize("source", ["exact", "estimated"])
    @pytest.mark.parametrize(
        "spec",
        [
            families.Cap(R=1.0, theta=math.pi / 3, resolution=48),
            families.Cylinder(r=1.0, L=2.0, resolution=48),
        ],
        ids=["cap60", "tube"],
    )
    def test_every_mean_is_bit_equal(self, spec, source):
        # the suite and the test function once rounded one mean two ways:
        # 1.0000000000000002 against 1.0 on this cap's exact fields
        mesh, fields = families.generate_mesh(spec)
        walls = spec.walls()
        if source == "estimated":
            fields = discops.estimate_fields(mesh, walls)
            sign = -1.0 if fields.info["flipped"] else 1.0
            assert sign * fields.info["mean_H"] == mesh.operators.mean(fields.mean_curv)
        hbar = mesh.operators.mean(fields.mean_curv)
        means = [r.info["mean_H"] for r in identities.run_suite(mesh, walls, fields) if "mean_H" in r.info]
        assert len(means) >= 4
        assert means == [hbar] * len(means)
        assert stability.build_test_function(mesh, walls, fields).info["mean_H"] == hbar
