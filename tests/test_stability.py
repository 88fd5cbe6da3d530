"""Index form, constrained spectrum and test function against analytic oracles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh as dense_eigh
from scipy.linalg import null_space

from caplab import discops, families, meshkit, reports, stability, wedge
from caplab.errors import (
    ConstraintViolationError,
    FitFailureError,
    NoCommonOriginError,
    SolverFailureError,
)
from conftest import rotate_walls, rotation_matrix


def slab_mode_oracle(r, L, nz=2000, modes=6):
    """Sturm-Liouville oracle for the tube between two free-boundary walls.

    Separation of variables: eigenvalues are mu_k + (m^2 - 1) / r^2 where
    mu_k are the Neumann eigenvalues of -d^2/dz^2 on [0, L], computed here by
    brute-force finite differences (half-cell mass at the ends keeps the
    natural boundary second-order accurate). Returns the sorted eigenvalues
    over (k, m) != (0, 0).
    """
    h = L / nz
    main = np.full(nz + 1, 2.0)
    main[0] = main[-1] = 1.0
    A = (np.diag(main) - np.diag(np.ones(nz), 1) - np.diag(np.ones(nz), -1)) / h**2
    B = np.eye(nz + 1)
    B[0, 0] = B[-1, -1] = 0.5
    mu = np.sort(dense_eigh(A, B, eigvals_only=True))[:modes]
    mu[0] = max(mu[0], 0.0)
    vals = []
    for k in range(modes):
        for m in range(modes):
            if k == 0 and m == 0:
                continue  # excluded by the mean-zero constraint
            vals.append(mu[k] + (m * m - 1.0) / r**2)
            if m > 0:
                vals.append(mu[k] + (m * m - 1.0) / r**2)  # sin and cos branch
    return np.sort(np.array(vals))


def dense_constrained_spectrum(system, k):
    """Dense oracle: generalized eigh on an orthonormal basis of c's complement."""
    Q = null_space(np.asarray(system.c, float)[None, :])
    A = Q.T @ (system.A @ Q)
    M = Q.T @ (system.M @ Q)
    return dense_eigh(
        0.5 * (A + A.T), 0.5 * (M + M.T), eigvals_only=True, subset_by_index=[0, k - 1]
    )


def cap_system(theta, res):
    spec = families.Cap(R=1.0, theta=theta, resolution=res)
    mesh, fields = families.generate_mesh(spec)
    return stability.assemble_index_form(mesh, spec.walls(), fields)


def max_relative_error(vals, reference):
    return np.abs(vals - reference).max() / np.abs(reference).max()


class TestOracle:
    def test_slab_oracle_matches_closed_forms(self):
        vals = slab_mode_oracle(1.0, 4.0)
        assert vals[0] == pytest.approx(math.pi**2 / 16 - 1, rel=1e-5)
        assert vals[0] == pytest.approx(-0.3831497249319151, rel=1e-5)
        vals2 = slab_mode_oracle(1.0, 2.0)
        assert vals2[0] == pytest.approx(0.0, abs=1e-8)
        assert vals2[2] == pytest.approx(math.pi**2 / 4 - 1, rel=1e-5)
        assert vals2[2] == pytest.approx(1.4674011002723395, rel=1e-5)


class TestAssembly:
    def test_free_boundary_term_vanishes(self, hemisphere):
        spec, mesh, fields = hemisphere[32]
        ops = discops.assemble_operators(mesh)
        system = stability.assemble_index_form(mesh, spec.walls(), fields, ops)
        expected = ops.K - discops.weighted_mass(mesh, fields.sigma_sq)
        assert abs(system.A - expected).max() == 0.0

    def test_cylinder_form_is_stiffness_minus_weighted_mass(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[32]
        ops = discops.assemble_operators(mesh)
        system = stability.assemble_index_form(mesh, spec.walls(), fields, ops)
        expected = ops.K - discops.weighted_mass(mesh, np.ones(mesh.nv))
        assert abs(system.A - expected).max() <= 1e-14

    def test_cap_boundary_coefficient(self, cap_pi3):
        spec, mesh, fields = cap_pi3[32]
        ops = discops.assemble_operators(mesh)
        system = stability.assemble_index_form(mesh, spec.walls(), fields, ops)
        base = ops.K - discops.weighted_mass(mesh, fields.sigma_sq)
        # umbilical sigma(nu, nu) = 1/R: the boundary term is cot(pi/3) B
        expected = base - (1.0 / math.tan(math.pi / 3)) * ops.B_wall[0]
        assert abs(system.A - expected).max() <= 1e-13

    def test_form_is_symmetric_with_nonzero_constraint(self, cap_pi3):
        spec, mesh, fields = cap_pi3[32]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        assert abs(system.A - system.A.T).max() <= 1e-12 * abs(system.A).max()
        assert np.linalg.norm(system.c) > 0

    def test_angle_independence_at_right_angle(self, hemisphere):
        # any wall set with theta = pi/2 assembles the same form
        spec, mesh, fields = hemisphere[16]
        system1 = stability.assemble_index_form(mesh, spec.walls(), fields)
        other = meshkit.WallSet(spec.walls().walls, (math.pi / 2,))
        system2 = stability.assemble_index_form(mesh, other, fields)
        assert abs(system1.A - system2.A).max() == 0.0


class TestSpectrum:
    def test_hemisphere_near_kernel(self, hemisphere):
        spec, mesh, fields = hemisphere[64]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        verdict = stability.stability_verdict(system)
        assert abs(verdict.eigenvalues[0]) <= 0.05
        assert abs(verdict.eigenvalues[1]) <= 0.05
        assert verdict.eigenvalues[2] > 0.5
        # the kernel is spanned by the horizontal translation modes
        for j in (0, 1):
            f = verdict.eigenfunctions[:, j]
            proj = math.hypot(
                stability.mass_correlation(system.M, f, fields.normal[:, 0]),
                stability.mass_correlation(system.M, f, fields.normal[:, 1]),
            )
            assert proj >= 0.95
        # translations are discrete near-Jacobi fields: small form residual
        g = fields.normal[:, 0]
        assert abs(float(g @ (system.A @ g))) <= 0.05
        assert abs(float(system.c @ g)) <= 1e-10

    def test_long_cylinder_unstable_mode(self):
        spec = families.Cylinder(r=1.0, L=4.0, resolution=64)
        mesh, fields = families.generate_mesh(spec)
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        lam, f = stability.min_constrained_eigenpair(system)
        oracle = slab_mode_oracle(1.0, 4.0)[0]
        assert lam == pytest.approx(oracle, rel=0.05)
        g = np.cos(math.pi * mesh.positions[:, 2] / 4.0)
        g = g - float(system.c @ g) / float(system.c @ np.ones(mesh.nv))
        assert stability.mass_correlation(system.M, f, g) >= 0.95

    def test_short_cylinder_spectrum(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[48]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        verdict = stability.stability_verdict(system)
        oracle = slab_mode_oracle(1.0, 2.0)
        assert abs(verdict.eigenvalues[0]) <= 0.05
        assert abs(verdict.eigenvalues[1]) <= 0.05
        # the first axial mode appears next
        assert verdict.eigenvalues[2] == pytest.approx(oracle[2], rel=0.05)

    def test_cylinder_matches_dense_oracle(self):
        spec = families.Cylinder(r=1.0, L=4.0, resolution=40)
        mesh, fields = families.generate_mesh(spec)
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        vals = stability.solve_spectrum(system, k=4)[0]
        assert np.abs(dense_constrained_spectrum(system, 4) - vals).max() <= 1e-8

    def test_eigenfunction_satisfies_constraints(self, cap_pi3):
        spec, mesh, fields = cap_pi3[32]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        lam, f = stability.min_constrained_eigenpair(system)
        assert abs(float(system.c @ f)) <= 1e-8 * np.linalg.norm(system.c) * np.linalg.norm(f)
        assert float(f @ (system.M @ f)) == pytest.approx(1.0, abs=1e-8)

    def test_determinism(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[32]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        v1, f1 = stability.min_constrained_eigenpair(system)
        v2, f2 = stability.min_constrained_eigenpair(system)
        assert v1 == v2
        assert np.array_equal(f1, f2)

    def test_scale_law(self, hemisphere):
        spec, mesh, fields = hemisphere[32]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        lam, _ = stability.min_constrained_eigenpair(system)
        mesh2 = mesh.scaled(2.0)
        system2 = stability.assemble_index_form(mesh2, spec.walls(), fields.scaled(2.0))
        lam2, _ = stability.min_constrained_eigenpair(system2)
        assert 4.0 * lam2 == pytest.approx(lam, rel=0.01, abs=1e-12)


class TestSolverAgainstDense:
    """The production solver against a dense solve on the constraint complement."""

    @pytest.mark.parametrize("res", [64, 96, 128])  # nv 769, 1729, 3201
    def test_cap_matches_dense_oracle(self, res):
        # at res 96 an earlier iterative path stalled at slot 4 (10.3377)
        system = cap_system(math.pi / 3, res)
        vals, _, solver = stability.solve_spectrum(system, k=10)
        assert max_relative_error(vals, dense_constrained_spectrum(system, 10)) <= 1e-8
        # certified on the first solve, without the retry's larger buffer
        assert solver["requested"] == 10 + 2

    def test_double_eigenvalue_at_window_top(self):
        # slots 8 and 9 are one double eigenvalue of the axisymmetric cap
        system = cap_system(math.radians(160), 36)
        dense = dense_constrained_spectrum(system, 10)
        assert dense[9] - dense[8] <= 1e-9 * dense[9]
        spectrum = stability.solve_spectrum(system, k=10)
        assert max_relative_error(spectrum.values, dense) <= 1e-8
        assert spectrum.solver["certificate"]["count_below"] == 10

    def test_certificate_recovers_missed_copy(self, monkeypatch):
        # single-vector Lanczos can return one copy of a double eigenvalue;
        # simulate that miss on the first solve: only the inertia count
        # notices, and the retry with a larger buffer restores the answer
        system = cap_system(math.radians(160), 36)
        lanczos = stability._lanczos
        calls = []

        def miss_first(system, m, s, lu):
            vals, vecs = lanczos(system, m, s, lu)
            calls.append(m)
            if len(calls) == 1:
                vals, vecs = np.delete(vals, 9), np.delete(vecs, 9, axis=1)
            return vals, vecs

        monkeypatch.setattr(stability, "_lanczos", miss_first)
        vals = stability.solve_spectrum(system, k=10)[0]
        assert len(calls) == 2 and calls[1] > calls[0]
        assert max_relative_error(vals, dense_constrained_spectrum(system, 10)) <= 1e-8

    def test_certificate_failure_raises(self, monkeypatch):
        system = cap_system(math.radians(160), 36)
        lanczos = stability._lanczos

        def always_miss(system, m, s, lu):
            vals, vecs = lanczos(system, m, s, lu)
            return np.delete(vals, 9), np.delete(vecs, 9, axis=1)

        monkeypatch.setattr(stability, "_lanczos", always_miss)
        with pytest.raises(SolverFailureError, match="not certified"):
            stability.solve_spectrum(system, k=10)

    def test_uniform_shift_moves_spectrum(self):
        system = cap_system(math.pi / 3, 32)
        t = 1.0e3
        shifted = stability.IndexFormSystem(
            A=(system.A - t * system.M).tocsr(), M=system.M, c=system.c, meta=system.meta
        )
        vals = stability.solve_spectrum(shifted, k=10)[0]
        reference = dense_constrained_spectrum(system, 10) - t
        assert max_relative_error(vals, reference) <= 1e-8

    def test_local_well_forces_shift_doubling(self):
        # a deep well at one vertex barely moves the constant's Rayleigh
        # quotient, so the first shift is far too small and must be doubled
        system = cap_system(math.pi / 3, 32)
        area = float(system.c.sum())
        start = -2.0 * float(system.A.sum()) / area
        well = np.zeros(system.n)
        well[system.n // 2] = 1.0e4 * system.M[system.n // 2, system.n // 2]
        deep = stability.IndexFormSystem(
            A=(system.A - sparse.diags(well)).tocsr(), M=system.M, c=system.c, meta=system.meta
        )
        spectrum = stability.solve_spectrum(deep, k=10)
        assert spectrum.solver["shift"] >= 64.0 * start
        assert max_relative_error(spectrum.values, dense_constrained_spectrum(deep, 10)) <= 1e-8


class TestVerdicts:
    def test_hemisphere_stable(self, hemisphere):
        spec, mesh, fields = hemisphere[48]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        verdict = stability.stability_verdict(system)
        assert verdict.stable
        assert verdict.tol_used == pytest.approx(0.05 * 2.0)

    def test_long_cylinder_unstable(self):
        spec = families.Cylinder(r=1.0, L=4.0, resolution=48)
        mesh, fields = families.generate_mesh(spec)
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        verdict = stability.stability_verdict(system)
        assert not verdict.stable
        assert verdict.lambda_min < -verdict.tol_used

    def test_cap_stable(self, cap_pi3):
        spec, mesh, fields = cap_pi3[48] if 48 in cap_pi3 else cap_pi3[64]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        verdict = stability.stability_verdict(system)
        assert verdict.stable

    def test_verdict_rotation_invariant(self, hemisphere):
        spec, mesh, fields = hemisphere[32]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        lam, _ = stability.min_constrained_eigenpair(system)
        R = rotation_matrix([0.2, 0.5, 1.0], 0.77)
        system2 = stability.assemble_index_form(
            mesh.transformed(R), rotate_walls(spec.walls(), R), fields.transformed(R)
        )
        lam2, _ = stability.min_constrained_eigenpair(system2)
        assert abs(lam - lam2) <= 1e-10


class TestNonFiniteFields:
    def test_nan_sigma_nn_on_contact_wall_is_a_fit_failure(self, cap_pi3):
        spec, mesh, fields = cap_pi3[16]
        sigma_nn = fields.sigma_nn.copy()
        sigma_nn[3] = np.nan
        broken = dataclasses.replace(fields, sigma_nn=sigma_nn)
        with pytest.raises(FitFailureError, match="1 vertices on wall 0"):
            stability.assemble_index_form(mesh, spec.walls(), broken)

    def test_nan_conormal_on_contact_wall_is_a_fit_failure(self, cap_pi3):
        spec, mesh, fields = cap_pi3[16]
        conormal = fields.conormal.copy()
        conormal[[0, 5]] = np.nan
        broken = dataclasses.replace(fields, conormal=conormal)
        with pytest.raises(FitFailureError, match="2 vertices on wall 0"):
            stability.assemble_index_form(mesh, spec.walls(), broken)

    def test_nan_on_free_boundary_wall_is_harmless(self, hemisphere):
        # cot(pi/2) = 0: sigma(nu, nu) never enters the form
        spec, mesh, fields = hemisphere[16]
        sigma_nn = fields.sigma_nn.copy()
        sigma_nn[3] = np.nan
        broken = dataclasses.replace(fields, sigma_nn=sigma_nn)
        system = stability.assemble_index_form(mesh, spec.walls(), broken)
        assert np.all(np.isfinite(system.A.data))


class TestTestFunction:
    def test_cap_equality_case_shrinks(self, cap_pi3):
        values = []
        for res in (32, 64):
            spec, mesh, fields = cap_pi3[res]
            a = wedge.solve_a(spec.walls().normals, spec.walls().angles).a
            report = stability.build_test_function(mesh, spec.walls(), fields, a=a)
            assert np.abs(report.phi).max() <= 1e-12  # exact fields: identically zero
            assert report.mean_residual <= 1e-12
            assert np.max(report.robin_residual) <= 1e-10
            values.append(abs(report.index_quadratic))
        assert values[1] <= values[0] + 1e-15

    def test_cap_equality_case_estimated_fields(self, cap_pi3):
        maxphi, quads = [], []
        for res in (32, 64):
            spec, mesh, _ = cap_pi3[res]
            est = discops.estimate_fields(mesh, spec.walls())
            a = wedge.solve_a(spec.walls().normals, spec.walls().angles).a
            report = stability.build_test_function(mesh, spec.walls(), est, a=a)
            area = report.info["area"]
            cap_scale = 0.05 * area * report.info["max_sigma_sq"]
            assert np.abs(report.phi).max() <= 0.05
            assert abs(report.index_quadratic) <= cap_scale
            maxphi.append(np.abs(report.phi).max())
            quads.append(abs(report.index_quadratic))
        assert maxphi[1] < maxphi[0]
        assert quads[1] < quads[0]

    def test_parallel_walls_have_no_common_origin(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[16]
        with pytest.raises(NoCommonOriginError):
            stability.build_test_function(
                mesh, spec.walls(), fields, a=np.zeros(3)
            )

    def test_cylinder_identity_mode(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[64]
        report = stability.build_test_function(mesh, spec.walls(), fields, a=None)
        target = -math.pi * spec.L / (2.0 * spec.r)
        assert target == pytest.approx(-math.pi)  # r=1, L=2
        assert report.index_quadratic == pytest.approx(target, rel=0.02)
        assert report.index_closed == pytest.approx(target, rel=0.02)
        assert report.match_residual <= 0.02

    def test_umbilical_form_value_tends_to_zero(self, cap_pi3):
        # |sigma|^2 - 2 H^2 -> 0 on caps, so the form value of phi tends to 0
        spec, mesh, fields = cap_pi3[64]
        est = discops.estimate_fields(mesh, spec.walls())
        defect = np.abs(est.sigma_sq - 2.0 * est.mean_curv**2).max()
        assert defect <= 0.1
        report = stability.build_test_function(
            mesh, spec.walls(), est, a=[0, 0, math.cos(math.pi / 3)]
        )
        assert abs(report.index_quadratic) <= 0.05


class TestFirstVariation:
    def test_hemisphere_eigenfunction_direction(self, hemisphere):
        spec, mesh, fields = hemisphere[32]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        _, f = stability.min_constrained_eigenpair(system)
        de = stability.first_variation_energy(mesh, spec.walls(), f, 1e-4, fields)
        assert abs(de) <= 1e-2

    def test_flat_disk_any_mean_zero_direction(self, flat_disk):
        spec, mesh, fields = flat_disk
        f = mesh.positions[:, 0].copy()
        de = stability.first_variation_energy(mesh, spec.walls(), f, 1e-4, fields)
        assert abs(de) <= 1e-2

    def test_constant_violates_constraint(self, flat_disk):
        spec, mesh, fields = flat_disk
        with pytest.raises(ConstraintViolationError):
            stability.first_variation_energy(
                mesh, spec.walls(), np.ones(mesh.nv), 1e-4, fields
            )

    def test_cap_energy_matches_closed_form(self, cap_pi3):
        spec, mesh, _ = cap_pi3[64]
        cf = families.cap_closed_forms(1.0, math.pi / 3)
        e = stability.capillary_energy(mesh, spec.walls())
        assert e == pytest.approx(cf.energy, rel=0.01)


class TestSerialization:
    def test_verdict_document(self, hemisphere, tmp_path):
        spec, mesh, fields = hemisphere[16]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        verdict = stability.stability_verdict(system)
        path = reports.write_report(tmp_path / "verdict.json", verdict.to_document())
        text = path.read_text()
        assert '"kind": "stability-verdict"' in text
        stability.export_eigenfunction_csv(verdict.eigenfunction, tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "vertex,value"
        assert len(lines) == mesh.nv + 1
