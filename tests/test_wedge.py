"""Capillary vector algebra: hand oracles, grid oracles, equivariance."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplab import discops, families, meshkit, stability, wedge
from caplab.errors import DependentNormalsError
from conftest import rotation_matrix

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def window_grid_oracle(normals, delta, samples=41):
    """Largest |a| over a grid of angle combinations inside the window."""
    normals = np.asarray(normals, float)
    k = len(normals)
    grid = np.linspace(math.pi / 2 - delta, math.pi / 2 + delta, samples)
    worst = 0.0
    for combo in itertools.product(grid, repeat=k):
        worst = max(worst, wedge.solve_a(normals, combo).norm_a)
    return worst


class TestSolveA:
    def test_right_angles_give_zero(self):
        for normals in ([-E3], [-E3, -E2], [-E3, -E2, -E1]):
            sol = wedge.solve_a(normals, [math.pi / 2] * len(normals))
            assert sol.norm_a <= 1e-10
            assert sol.umbilical_conclusion

    def test_single_wall_reduction(self):
        for theta in (0.4, math.pi / 2, 2.4):
            sol = wedge.solve_a([-E3], [theta])
            assert np.allclose(sol.a, -math.cos(theta) * (-E3), atol=1e-14)
            assert sol.norm_a == pytest.approx(abs(math.cos(theta)), abs=1e-14)
            assert sol.umbilical_conclusion

    def test_orthogonal_pair_hand_oracle(self):
        # G = I: c = -cos(theta) (1, 1), a = -(n1 + n2)/2 at theta = pi/3
        sol = wedge.solve_a([-E3, -E2], [math.pi / 3, math.pi / 3])
        assert np.allclose(sol.a, -0.5 * (-E3 - E2), atol=1e-14)
        assert sol.norm_a == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert sol.umbilical_conclusion

    def test_oblique_pair_symbolic_oracle(self):
        # normals at angle 2 pi/3: G = [[1, -1/2], [-1/2, 1]];
        # equal angles theta give c = (-2 cos, -2 cos) and |a| = 2 |cos(theta)|
        n1 = -E3
        n2 = math.cos(2 * math.pi / 3) * n1 + math.sin(2 * math.pi / 3) * E1
        n2 = n2 / np.linalg.norm(n2)
        assert n1 @ n2 == pytest.approx(-0.5, abs=1e-12)
        for theta in (1.2, math.pi / 2, 1.9):
            sol = wedge.solve_a([n1, n2], [theta, theta])
            assert np.allclose(sol.coefficients, -2 * math.cos(theta) * np.ones(2), atol=1e-12)
            assert sol.norm_a == pytest.approx(2 * abs(math.cos(theta)), abs=1e-12)
        boundary = wedge.solve_a([n1, n2], [math.pi / 3, math.pi / 3])
        assert boundary.norm_a == pytest.approx(1.0, abs=1e-12)
        outside = wedge.solve_a([n1, n2], [math.pi / 3 - 0.01, math.pi / 3 - 0.01])
        assert outside.norm_a > 1.0
        assert not outside.umbilical_conclusion

    def test_defining_equations_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = rng.integers(1, 4)
            normals = rng.standard_normal((k, 3))
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            g = normals @ normals.T
            if np.linalg.cond(g) > 1e6:
                continue
            angles = rng.uniform(0.2, math.pi - 0.2, k)
            sol = wedge.solve_a(normals, angles)
            assert np.abs(normals @ sol.a + np.cos(angles)).max() <= 1e-10
            assert sol.norm_a**2 == pytest.approx(
                float(sol.coefficients @ sol.gram @ sol.coefficients), abs=1e-12
            )

    def test_dependent_normals_rejected(self):
        with pytest.raises(DependentNormalsError):
            wedge.solve_a([-E3, E3], [math.pi / 2, math.pi / 2])
        with pytest.raises(DependentNormalsError):
            wedge.solve_a([E1, E2, E3, -E1], [1.0, 1.0, 1.0, 1.0])


class TestDeltaMax:
    def test_exact_values(self):
        assert wedge.delta_max([-E3, -E2]) == pytest.approx(math.pi / 4, abs=1e-10)
        n1 = -E3
        n2 = math.sin(2 * math.pi / 3) * E1 + math.cos(2 * math.pi / 3) * n1
        assert wedge.delta_max([n1, n2 / np.linalg.norm(n2)]) == pytest.approx(
            math.pi / 6, abs=1e-10
        )
        assert wedge.delta_max([E1, E2, E3]) == pytest.approx(
            math.asin(1 / math.sqrt(3)), abs=1e-10
        )
        assert math.asin(1 / math.sqrt(3)) == pytest.approx(0.6154797086703874)

    def test_single_wall_is_unrestricted(self):
        assert wedge.delta_max([-E3]) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_grid_oracle_brackets_the_window(self):
        for normals in ([-E3, -E2], [E1, E2, E3]):
            delta = wedge.delta_max(normals)
            assert window_grid_oracle(normals, delta - 1e-6) < 1.0
            assert window_grid_oracle(normals, delta + 1e-3, samples=9) >= 1.0 - 5e-3

    def test_monotone_under_principal_extension(self):
        deltas = [
            wedge.delta_max([E1]),
            wedge.delta_max([E1, E2]),
            wedge.delta_max([E1, E2, E3]),
        ]
        assert deltas[0] >= deltas[1] >= deltas[2]

    def test_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.integers(1, 4)
            normals = rng.standard_normal((k, 3))
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            if np.linalg.cond(normals @ normals.T) > 1e6:
                continue
            d = wedge.delta_max(normals)
            assert 0.0 < d <= math.pi / 2


@st.composite
def unit_quaternions(draw):
    q = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    norm = np.linalg.norm(q)
    if norm < 1e-3:
        q = np.array([1.0, 0.0, 0.0, 0.0])
        norm = 1.0
    return q / norm


def quaternion_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestEquivariance:
    @given(unit_quaternions(), st.floats(0.3, math.pi - 0.3), st.floats(0.3, math.pi - 0.3))
    @settings(max_examples=40, deadline=None)
    def test_rotation_equivariance(self, q, t1, t2):
        R = quaternion_matrix(q)
        normals = np.array([-E3, -E2])
        sol = wedge.solve_a(normals, [t1, t2])
        rotated = wedge.solve_a(normals @ R.T, [t1, t2])
        assert np.abs(rotated.a - R @ sol.a).max() <= 1e-12
        assert rotated.norm_a == pytest.approx(sol.norm_a, abs=1e-12)

    @given(st.permutations([0, 1, 2]))
    @settings(max_examples=10, deadline=None)
    def test_permutation_invariance(self, perm):
        normals = np.array([E1, E2, E3])
        angles = np.array([0.9, 1.4, 2.0])
        base = wedge.solve_a(normals, angles)
        shuffled = wedge.solve_a(normals[list(perm)], angles[list(perm)])
        assert shuffled.norm_a == pytest.approx(base.norm_a, abs=1e-12)
        assert wedge.delta_max(normals[list(perm)]) == pytest.approx(
            wedge.delta_max(normals), abs=1e-12
        )


def wedge_supported_cap(theta_offset=0.1, resolution=48):
    """Spherical cap in an orthogonal wedge, both angles pi/2 + offset.

    The sphere center sits over the wedge edge line so the sphere meets both
    wall planes at the same constant angle; the labeled boundary lies on the
    first wall only, the immersion being supported by (not contained in) the
    domain. An edge-avoiding surface meeting both walls near pi/2 does not
    exist (the wall circles would intersect on the edge), so this is the
    configuration the rigidity statement covers.
    """
    theta = math.pi / 2 + theta_offset
    spec = families.Cap(R=1.0, theta=theta, resolution=resolution)
    mesh0, fields = families.generate_mesh(spec)
    mesh = mesh0.translated([0.0, math.sin(theta_offset), 0.0])
    walls = meshkit.WallSet(
        (meshkit.Hyperplane(-E3, 0.0), meshkit.Hyperplane(-E2, 0.0)),
        (theta, theta),
    )
    return spec, mesh, fields, walls


class TestClassify:
    def test_wedge_cap_hypotheses_met(self):
        spec, mesh, fields, walls = wedge_supported_cap()
        assert meshkit.validate(mesh, walls).ok
        system = stability.assemble_index_form(mesh, walls, fields)
        verdict = stability.stability_verdict(system)
        report = wedge.classify(mesh, walls, verdict)
        assert report.hypotheses_met, report.checks
        assert report.sphericity_residual <= 1e-2
        assert not report.planar_excluded
        assert report.sphere_radius == pytest.approx(1.0, abs=1e-6)

    def test_angle_outside_window(self):
        spec, mesh, fields, walls = wedge_supported_cap()
        far = meshkit.WallSet(walls.walls, (math.pi / 2 + 1.0, walls.angles[1]))
        system = stability.assemble_index_form(mesh, far, fields)
        verdict = stability.stability_verdict(system)
        report = wedge.classify(mesh, far, verdict)
        assert not report.hypotheses_met
        assert not report.checks["angles_in_window"]
        assert report.checks["independent_normals"]

    def test_parallel_walls(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[16]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        verdict = stability.stability_verdict(system)
        report = wedge.classify(mesh, spec.walls(), verdict)
        assert not report.hypotheses_met
        assert not report.checks["independent_normals"]

    def test_flat_disk_triggers_planar_exclusion(self, flat_disk):
        spec, mesh, fields = flat_disk
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        verdict = stability.stability_verdict(system)
        report = wedge.classify(mesh, spec.walls(), verdict)
        assert report.hypotheses_met  # k=1: window is all of (0, pi)
        assert report.planar_excluded
        assert report.sphericity_residual is None

    def test_document(self):
        spec, mesh, fields, walls = wedge_supported_cap(resolution=24)
        system = stability.assemble_index_form(mesh, walls, fields)
        verdict = stability.stability_verdict(system)
        doc = wedge.classify(mesh, walls, verdict).to_document()
        assert doc["kind"] == "classification"
        assert set(doc["checks"]) == {
            "independent_normals",
            "labels_avoid_edges",
            "angles_in_window",
            "stable",
        }
