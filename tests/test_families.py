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
        assert np.isnan(fields.conormal).all() and np.isnan(fields.sigma_nn).all()
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
            measured = np.arccos(np.clip(fields.normal[mesh.boundary_vertices] @ n1, -1, 1))
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

    @pytest.mark.parametrize(
        "cls, values",
        [
            (families.Cap, {"R": 1.0, "theta": math.pi / 3}),
            (families.Cylinder, {"r": 1.0, "L": 2.0}),
            (families.FlatDisk, {"R": 1.0}),
            (families.ClosedSphere, {"R": 1.0}),
            (families.MongePatch, {"amplitude": 0.1, "R": 1.0}),
        ],
    )
    def test_non_finite_field_rejected(self, cls, values):
        for name in values:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidSpecError, match=f"{name} must be finite"):
                    cls(**{**values, name: bad}, resolution=8)

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(families.Cap(R=1.0, theta=2.2, resolution=12), id="Cap"),
            pytest.param(families.Cylinder(r=1.0, L=3.0, resolution=12), id="Cylinder"),
            pytest.param(families.FlatDisk(R=1.0, resolution=12), id="FlatDisk"),
            pytest.param(families.ClosedSphere(R=1.0, resolution=12), id="ClosedSphere"),
            pytest.param(families.MongePatch(amplitude=0.1, R=1.0, resolution=12), id="MongePatch"),
            # the smallest ring counts, and a cap whose rings crowd toward its apex
            pytest.param(families.Cap(R=1.0, theta=1.0, resolution=3), id="Cap-res3"),
            pytest.param(families.Cylinder(r=1.0, L=0.5, resolution=3), id="Cylinder-res3"),
            pytest.param(families.FlatDisk(R=1.0, resolution=3), id="FlatDisk-res3"),
            pytest.param(families.ClosedSphere(R=1.0, resolution=3), id="ClosedSphere-res3"),
            pytest.param(families.MongePatch(amplitude=0.1, R=1.0, resolution=3), id="MongePatch-res3"),
            pytest.param(families.Cap(R=1.0, theta=math.radians(175), resolution=12), id="Cap-175deg"),
        ],
    )
    def test_vertex_limit_is_the_exact_count(self, spec, monkeypatch):
        # the count each build checks is the count it builds
        nv = families.generate_mesh(spec)[0].nv
        monkeypatch.setattr(families, "MAX_VERTICES", nv)
        assert families.generate_mesh(spec)[0].nv == nv
        monkeypatch.setattr(families, "MAX_VERTICES", nv - 1)
        with pytest.raises(InvalidSpecError, match=f"{nv} or more vertices"):
            families.generate_mesh(spec)

    @pytest.mark.parametrize(
        "cls, values",
        [
            (families.Cap, {"R": 1.0, "theta": math.pi / 3}),
            (families.Cylinder, {"r": 1.0, "L": 2.0}),
            (families.FlatDisk, {"R": 1.0}),
            (families.ClosedSphere, {"R": 1.0}),
            (families.MongePatch, {"amplitude": 0.1, "R": 1.0}),
        ],
    )
    def test_numpy_integer_resolution(self, cls, values):
        # a library loop such as `for res in 16 * 2 ** np.arange(3)` hands
        # numpy integers to the spec
        want = cls(**values, resolution=32)
        for res in (np.int64(32), np.int32(32)):
            spec = cls(**values, resolution=res)
            assert type(spec.resolution) is int and spec.slug == want.slug and spec == want
            for got, ref in zip(spec.build(), want.build()):
                if isinstance(ref, dict):
                    assert got == ref
                else:
                    assert got.dtype == ref.dtype and np.array_equal(got, ref)
        for bad in (True, 32.0, np.float64(32.0)):
            with pytest.raises(InvalidSpecError, match=f"resolution must be an integer >= 3, got {bad}"):
                cls(**values, resolution=bad)

    def test_validates_against_induced_walls(self):
        for spec in (
            families.Cap(R=1.0, theta=2 * math.pi / 3, resolution=16),
            families.Cylinder(r=0.7, L=3.0, resolution=16),
            families.FlatDisk(R=1.0, resolution=16),
        ):
            mesh, _ = families.generate_mesh(spec)
            assert meshkit.validate(mesh, spec.walls()).ok


@pytest.mark.parametrize(
    "spec",
    [
        families.Cap(R=1.0, theta=math.pi / 3, resolution=16),
        families.Cap(R=2.0, theta=2.5, resolution=16),
        families.Cylinder(r=1.0, L=2.0, resolution=16),
        families.FlatDisk(R=1.0, resolution=16),
        families.ClosedSphere(R=1.0, resolution=16),
        families.MongePatch(amplitude=0.0, R=1.0, resolution=16),
        families.MongePatch(amplitude=0.3, R=1.0, resolution=16),
    ],
    ids=lambda spec: spec.slug,
)
def test_winding_follows_exact_normal(spec):
    """Every face of a family mesh winds counterclockwise around the exact normal N."""
    mesh, fields = families.generate_mesh(spec)
    t = mesh.triangles
    p = mesh.positions
    face = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
    corner_normals = fields.normal[t].sum(axis=1)
    assert np.all(np.einsum("ij,ij->i", face, corner_normals) > 0)


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

    @pytest.mark.parametrize("res", [8, 16, 33, 64, 128, 256])
    @pytest.mark.parametrize("amplitude", [0.0, 0.05, 0.13, 0.5, 2.0])
    def test_boundary_sigma_nn_matches_vertex_by_vertex(self, res, amplitude):
        """The rim's sigma(nu, nu), bit for bit, against one vertex at a time."""
        spec = families.MongePatch(amplitude=amplitude, R=1.2, resolution=res)

        def sigma_nn(x, y, nu):
            fx, fy = spec.gradient(x, y)
            fxx, fxy, fyy = spec.hessian(x, y)
            w = math.sqrt(1.0 + fx * fx + fy * fy)
            a, b = nu[0], nu[1]
            m1 = (1.0 + fx * fx) * a * a + 2.0 * fx * fy * a * b + (1.0 + fy * fy) * b * b
            m2 = (fxx * a * a + 2.0 * fxy * a * b + fyy * b * b) / w
            return m2 / m1 if m1 > 0 else float("nan")

        mesh, fields = families.generate_mesh(spec)
        b = mesh.boundary_vertices
        p, nu = mesh.positions[b], fields.conormal[b]
        want = np.array([sigma_nn(p[i, 0], p[i, 1], nu[i]) for i in range(len(b))])
        got = fields.sigma_nn[b]
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_amplitude_zero_reduces_to_disk(self):
        spec = families.MongePatch(amplitude=0.0, R=1.0, resolution=16)
        mesh, fields = families.generate_mesh(spec)
        assert np.allclose(mesh.positions[:, 2], 0.0)
        assert np.allclose(fields.mean_curv, 0.0)
        assert np.allclose(fields.normal[:, 2], 1.0)


class Catenoid(families.RingFamily):
    """The catenoid rho = a cosh(z / a) between the walls z = -h and z = h, a profile
    defined here only: psi has sin(psi) = 1 / cosh(z / a), cos(psi) = tanh(z / a)."""

    def __init__(self, a, h):
        self.a, self.h = a, h

    @property
    def rims(self):
        radius = self.a * math.cosh(self.h / self.a)
        theta = math.acos(math.tanh(self.h / self.a))
        return ((-1.0, self.h, radius, theta), (1.0, self.h, radius, theta))

    def meridian(self, p):
        u = p[..., 2] / self.a
        rho = np.hypot(p[..., 0], p[..., 1])
        return 1.0 / np.cosh(u) / rho, np.tanh(u), -1.0 / (self.a * np.cosh(u) ** 2)

    def mesh(self, n, m):
        def ring(j):
            z = -self.h + 2.0 * self.h * j / (m - 1)
            return self.a * math.cosh(z / self.a), z

        positions, tris, rings = families._revolution(n, m, ring)
        labels = {int(v): 0 for v in rings[0]} | {int(v): 1 for v in rings[-1]}
        return meshkit.LabeledTriMesh(positions, tris[:, [0, 2, 1]], labels)


class TestRingFamily:
    """The shared exact fields of the surfaces of revolution, driven by a catenoid."""

    @pytest.mark.parametrize("a, h", [(1.0, 1.2), (0.4, 0.3)])
    def test_catenoid_is_minimal(self, a, h):
        spec = Catenoid(a, h)
        mesh = spec.mesh(24, 15)
        fields = families.exact_fields(spec, mesh)
        x, y, z = mesh.positions.T
        assert np.abs(fields.mean_curv).max() <= 1e-14
        assert np.allclose(fields.sigma_sq, 2.0 / (a * a * np.cosh(z / a) ** 4), rtol=1e-14, atol=0)
        # the unit normal of (a cosh u cos t, a cosh u sin t, a u), turned to the axis
        t = np.arctan2(y, x)
        u = z / a
        normal = np.cross(
            np.column_stack([np.sinh(u) * np.cos(t), np.sinh(u) * np.sin(t), np.ones_like(t)]),
            np.column_stack([-np.sin(t), np.cos(t), np.zeros_like(t)]),
        )
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        assert np.abs(fields.normal - normal).max() <= 1e-14

    def test_catenoid_boundary_frame(self):
        spec = Catenoid(1.0, 1.2)
        mesh = spec.mesh(24, 15)
        fields = families.exact_fields(spec, mesh)
        walls = spec.walls()
        verts, labels = np.array(sorted(mesh.boundary_labels.items())).T
        theta = walls.angles[0]
        n = walls.normals[labels]
        nu, nu_bar, N = fields.conormal[verts], fields.wall_conormal[verts], fields.normal[verts]
        assert np.allclose(fields.angle[verts], theta, rtol=0, atol=1e-15)
        assert np.allclose(np.einsum("ij,ij->i", N, n), math.cos(theta), rtol=0, atol=1e-15)
        assert np.allclose(nu, math.cos(theta) * nu_bar + math.sin(theta) * n, rtol=0, atol=1e-15)
        assert np.abs(np.einsum("ij,ij->i", nu, N)).max() <= 1e-15
        # the rim is a circle of radius a cosh(h / a) in its wall, curving toward the axis
        rho_hat = mesh.positions[verts] * [1.0, 1.0, 0.0] / spec.rims[0][2]
        assert np.allclose(nu_bar, rho_hat, rtol=0, atol=1e-15)
        assert np.allclose(fields.bdry_curv[verts], -1.0 / spec.rims[0][2], rtol=1e-15, atol=0)
        assert np.allclose(fields.sigma_nn[verts], -1.0 / math.cosh(1.2) ** 2, rtol=1e-15, atol=0)
        rhs = 2 * fields.mean_curv[verts] + math.sin(theta) * fields.bdry_curv[verts]
        assert np.allclose(fields.sigma_nn[verts], rhs, rtol=0, atol=1e-15)


def analytic_test_function(spec, a, mesh=None):
    """Exact values of phi = 1 + H <psi, N> + <a, N> on a family mesh.

    ``a`` is the capillary vector of the induced wall set; on caps with the
    matching vector this vanishes identically (the equality case).
    """
    if spec.walls() is None:
        raise UnsupportedFamilyError(
            f"analytic test function needs a capillary family, got {type(spec).__name__}"
        )
    if mesh is None:
        mesh, fields = families.generate_mesh(spec)
    else:
        fields = families.exact_fields(spec, mesh)
    a = np.asarray(a, float).reshape(3)
    u = np.einsum("ij,ij->i", mesh.positions, fields.normal)
    return 1.0 + fields.mean_curv * u + fields.normal @ a


class TestAnalyticTestFunction:
    def test_cap_equality_case(self):
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=24)
        a = [0.0, 0.0, math.cos(math.pi / 3)]
        phi = analytic_test_function(spec, a)
        assert np.abs(phi).max() <= 1e-13

    def test_hemisphere_zero_vector(self, hemisphere):
        spec, mesh, _ = hemisphere[16]
        phi = analytic_test_function(spec, [0.0, 0.0, 0.0], mesh)
        assert np.abs(phi).max() <= 1e-13

    def test_cylinder_constant_half(self, cylinder_l2):
        spec, mesh, _ = cylinder_l2[16]
        phi = analytic_test_function(spec, [0.0, 0.0, 0.0], mesh)
        assert np.allclose(phi, 0.5, atol=1e-14)

    def test_flat_disk_is_one_plus_a_z(self, flat_disk):
        # H = 0 and N = e3 everywhere, so phi = 1 + a_z exactly
        spec, mesh, _ = flat_disk
        phi = analytic_test_function(spec, [0.3, -0.2, 0.5], mesh)
        assert np.all(phi == 1.5)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            analytic_test_function(
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
