"""Closed forms against quadrature oracles; exact fields against derivatives."""

import math

import numpy as np
import pytest
from scipy import integrate

from caplab import discops, families, meshkit
from caplab.errors import (
    DegenerateFamilyError,
    InvalidSpecError,
    UnsupportedFamilyError,
)


class TestCapClosedForms:
    def test_against_quadrature_oracle(self):
        """The zone area and segment volume computed by 1D quadrature."""
        for R, theta in [(1.0, math.pi / 3), (2.0, math.pi / 3), (1.0, 2.2), (0.5, 0.8)]:
            cf = families.cap_closed_forms(R, theta)
            area_quad, _ = integrate.quad(lambda p: 2 * math.pi * R**2 * math.sin(p), 0, theta)
            assert cf.area == pytest.approx(area_quad, rel=1e-12)
            h = -R * math.cos(theta)  # sphere center height
            vol_quad, _ = integrate.quad(
                lambda z: math.pi * (R**2 - (z - h) ** 2), 0.0, h + R
            )
            assert cf.volume == pytest.approx(vol_quad, rel=1e-12)
            assert cf.energy == pytest.approx(cf.area - math.cos(theta) * cf.wetted_area)
            assert cf.mean_curv == pytest.approx(1.0 / R)

    def test_hemisphere_values(self):
        cf = families.cap_closed_forms(1.0, math.pi / 2)
        assert cf.area == pytest.approx(2 * math.pi)
        assert cf.wetted_area == pytest.approx(math.pi)
        assert cf.energy == pytest.approx(2 * math.pi)
        assert cf.boundary_length == pytest.approx(2 * math.pi)

    def test_sixty_degree_cap(self):
        # frozen from the zone-area quadrature above: pi, 3 pi/4, 0.625 pi
        cf = families.cap_closed_forms(1.0, math.pi / 3)
        assert cf.area == pytest.approx(math.pi, rel=1e-12)
        assert cf.wetted_area == pytest.approx(0.75 * math.pi, rel=1e-12)
        assert cf.energy == pytest.approx(0.625 * math.pi, rel=1e-12)
        assert cf.energy == pytest.approx(1.9634954084936207, rel=1e-12)

    def test_scale_covariance(self):
        cf2 = families.cap_closed_forms(2.0, math.pi / 3)
        cf1 = families.cap_closed_forms(1.0, math.pi / 3)
        assert cf2.area == pytest.approx(4 * cf1.area)
        assert cf2.energy == pytest.approx(4 * cf1.energy)
        assert cf2.energy == pytest.approx(2.5 * math.pi, rel=1e-12)
        for theta in np.linspace(0.2, math.pi - 0.2, 9):
            for R in (0.5, 3.0):
                a = families.cap_closed_forms(R, theta)
                b = families.cap_closed_forms(1.0, theta)
                assert a.energy == pytest.approx(R**2 * b.energy, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidSpecError):
            families.cap_closed_forms(-1.0, 1.0)
        with pytest.raises(InvalidSpecError):
            families.cap_closed_forms(1.0, math.pi)


class TestGenerateMesh:
    def test_closed_sphere(self, unit_sphere):
        spec, mesh, fields = unit_sphere
        assert mesh.is_closed()
        assert len(fields.boundary_vertices) == 0
        assert np.allclose(fields.mean_curv, 1.0)
        assert np.allclose(fields.sigma_sq, 2.0)
        # inward normal
        assert np.allclose(fields.normal, -mesh.positions, atol=1e-14)

    def test_hemisphere_center_and_rim(self, hemisphere):
        spec, mesh, fields = hemisphere[32]
        # center at the origin up to the representation of cos(pi/2)
        assert np.linalg.norm(spec.center) <= 1e-15
        rim = np.array(sorted(mesh.boundary_labels))
        assert np.allclose(mesh.positions[rim, 2], 0.0)
        assert np.allclose(np.linalg.norm(mesh.positions[rim, :2], axis=1), 1.0)

    def test_cylinder_fields(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[32]
        assert np.allclose(fields.mean_curv, 0.5)
        assert np.allclose(fields.sigma_sq, 1.0)
        walls = spec.walls()
        assert sorted(set(mesh.boundary_labels.values())) == [0, 1]
        assert walls.angles == (math.pi / 2, math.pi / 2)

    def test_boundary_on_wall_to_machine_precision(self):
        for spec in (
            families.Cap(R=1.0, theta=math.pi / 3, resolution=24),
            families.Cap(R=2.0, theta=2.2, resolution=24),
            families.Cylinder(r=1.0, L=2.0, resolution=24),
            families.FlatDisk(R=1.0, resolution=24),
        ):
            mesh, _ = families.generate_mesh(spec)
            walls = spec.walls()
            worst = 0.0
            for v, w in mesh.boundary_labels.items():
                worst = max(worst, abs(walls.walls[w].signed_distance(mesh.positions[v])))
            assert worst == 0.0

    def test_contact_angle_exact(self):
        for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
            spec = families.Cap(R=1.0, theta=theta, resolution=16)
            mesh, fields = families.generate_mesh(spec)
            n1 = spec.walls().walls[0].normal
            measured = np.arccos(np.clip(fields.normal[fields.boundary_vertices] @ n1, -1, 1))
            assert np.abs(measured - theta).max() <= 1e-12

    def test_area_converges(self):
        for build, exact in [
            (lambda r: families.Cap(R=1.0, theta=math.pi / 3, resolution=r), math.pi),
            (lambda r: families.Cylinder(r=1.0, L=2.0, resolution=r), 4 * math.pi),
        ]:
            errs = []
            for res in (8, 16, 32):
                mesh, _ = families.generate_mesh(build(res))
                errs.append(abs(mesh.area() - exact) / exact)
            assert errs[2] < errs[1] < errs[0]

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            families.Cap(R=1.0, theta=math.pi / 3, resolution=2)
        with pytest.raises(InvalidSpecError):
            families.Cap(R=1.0, theta=0.0, resolution=8)
        with pytest.raises(DegenerateFamilyError):
            families.Cap(R=1.0, theta=1e-12, resolution=8)
        with pytest.raises(InvalidSpecError):
            families.Cylinder(r=-1.0, L=1.0, resolution=8)
        with pytest.raises(InvalidSpecError):
            families.MongePatch(amplitude=-0.1, R=1.0, resolution=8)

    def test_validates_against_induced_walls(self):
        for spec in (
            families.Cap(R=1.0, theta=2 * math.pi / 3, resolution=16),
            families.Cylinder(r=0.7, L=3.0, resolution=16),
            families.FlatDisk(R=1.0, resolution=16),
        ):
            mesh, _ = families.generate_mesh(spec)
            assert meshkit.validate(mesh, spec.walls()).ok


class TestMongeExactFields:
    def test_normal_and_curvatures_against_finite_differences(self):
        """Independent oracle: differentiate the analytic unit normal field."""
        spec = families.MongePatch(amplitude=0.3, R=1.0, resolution=16)

        def normal_at(x, y):
            return spec.normal(np.array([x]), np.array([y]))[0]

        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(12):
            x, y = rng.uniform(-0.6, 0.6, 2)
            fx, fy = spec.gradient(x, y)
            n = normal_at(x, y)
            # tangent basis of the graph
            tu = np.array([1.0, 0.0, fx])
            tv = np.array([0.0, 1.0, fy])
            dn_dx = (normal_at(x + eps, y) - normal_at(x - eps, y)) / (2 * eps)
            dn_dy = (normal_at(x, y + eps) - normal_at(x, y - eps)) / (2 * eps)
            # second fundamental form via sigma(X, Y) = <-D_X N, Y>
            b = np.array(
                [
                    [-dn_dx @ tu, -dn_dx @ tv],
                    [-dn_dy @ tu, -dn_dy @ tv],
                ]
            )
            g = np.array([[tu @ tu, tu @ tv], [tu @ tv, tv @ tv]])
            shape = np.linalg.solve(g, 0.5 * (b + b.T))
            k = np.linalg.eigvals(shape)
            H_fd = 0.5 * k.sum().real
            sig_fd = float((k**2).sum().real)
            H_exact, sig_exact = spec.curvatures(np.array([x]), np.array([y]))
            assert H_exact[0] == pytest.approx(H_fd, abs=5e-5)
            assert sig_exact[0] == pytest.approx(sig_fd, abs=5e-5)

    def test_amplitude_zero_reduces_to_disk(self):
        spec = families.MongePatch(amplitude=0.0, R=1.0, resolution=16)
        mesh, fields = families.generate_mesh(spec)
        assert np.allclose(mesh.positions[:, 2], 0.0)
        assert np.allclose(fields.mean_curv, 0.0)
        assert np.allclose(fields.normal[:, 2], 1.0)


class TestAnalyticTestFunction:
    def test_cap_equality_case(self):
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=24)
        a = [0.0, 0.0, math.cos(math.pi / 3)]
        phi = families.analytic_test_function(spec, a)
        assert np.abs(phi).max() <= 1e-13

    def test_hemisphere_zero_vector(self, hemisphere):
        spec, mesh, _ = hemisphere[16]
        phi = families.analytic_test_function(spec, [0.0, 0.0, 0.0], mesh)
        assert np.abs(phi).max() <= 1e-13

    def test_cylinder_constant_half(self, cylinder_l2):
        spec, mesh, _ = cylinder_l2[16]
        phi = families.analytic_test_function(spec, [0.0, 0.0, 0.0], mesh)
        assert np.allclose(phi, 0.5, atol=1e-14)

    def test_flat_disk_is_one_plus_a_z(self, flat_disk):
        # H = 0 and N = e3 everywhere, so phi = 1 + a_z exactly
        spec, mesh, _ = flat_disk
        phi = families.analytic_test_function(spec, [0.3, -0.2, 0.5], mesh)
        assert np.all(phi == 1.5)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            families.analytic_test_function(
                families.MongePatch(amplitude=0.1, R=1.0, resolution=8), [0, 0, 0]
            )


class TestProjectorRefinement:
    def test_refined_vertices_on_surface_and_walls(self, cap_pi3):
        spec, mesh, _ = cap_pi3[16]
        fine = meshkit.refine(
            mesh, projector=families.surface_projector(spec), walls=spec.walls()
        )
        radii = np.linalg.norm(fine.positions - spec.center, axis=1)
        assert np.abs(radii - spec.R).max() <= 1e-12
        rim = np.array(sorted(fine.boundary_labels))
        assert np.abs(fine.positions[rim, 2]).max() <= 1e-15
        fields = families.exact_fields(spec, fine)
        assert np.allclose(fields.mean_curv, 1.0)

    @pytest.mark.parametrize(
        "spec, distance",
        [
            pytest.param(
                families.Cap(R=1.0, theta=math.pi / 3, resolution=12),
                lambda s, x: np.linalg.norm(x - s.center, axis=1) - s.R,
                id="cap",
            ),
            pytest.param(
                families.Cylinder(r=1.0, L=2.0, resolution=12),
                lambda s, x: np.linalg.norm(x[:, :2], axis=1) - s.r,
                id="cylinder",
            ),
            pytest.param(
                families.FlatDisk(R=1.0, resolution=12),
                lambda s, x: x[:, 2],
                id="disk",
            ),
            pytest.param(
                families.ClosedSphere(R=1.0, resolution=12),
                lambda s, x: np.linalg.norm(x, axis=1) - s.R,
                id="sphere",
            ),
            pytest.param(
                families.MongePatch(amplitude=0.1, R=1.0, resolution=12),
                lambda s, x: x[:, 2] - s.height(x[:, 0], x[:, 1]),
                id="monge",
            ),
        ],
    )
    def test_every_family_refines_onto_surface_and_walls(self, spec, distance):
        mesh, _ = families.generate_mesh(spec)
        walls = spec.walls()
        fine = meshkit.refine(mesh, projector=families.surface_projector(spec), walls=walls)
        assert fine.nv > mesh.nv
        assert np.abs(distance(spec, fine.positions)).max() <= 1e-12
        assert bool(fine.boundary_labels) == (walls is not None)
        for v, wall in fine.boundary_labels.items():
            assert abs(walls.walls[wall].signed_distance(fine.positions[v])) <= 1e-12
