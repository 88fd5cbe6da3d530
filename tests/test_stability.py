"""Index form, constrained spectrum and test function against analytic oracles."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

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
from conftest import ring_breakers, rotate_walls, rotation_matrix


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


def no_layout(system):
    """The system without its ring layout, so that the Lanczos finder solves it."""
    return dataclasses.replace(system, mesh=None)


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
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        expected = ops.K - discops.weighted_mass(mesh, fields.sigma_sq)
        assert abs(system.A - expected).max() == 0.0

    def test_cylinder_form_is_stiffness_minus_weighted_mass(self, cylinder_l2):
        spec, mesh, fields = cylinder_l2[32]
        ops = discops.assemble_operators(mesh)
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        expected = ops.K - discops.weighted_mass(mesh, np.ones(mesh.nv))
        assert abs(system.A - expected).max() <= 1e-14

    def test_cap_boundary_coefficient(self, cap_pi3):
        spec, mesh, fields = cap_pi3[32]
        ops = discops.assemble_operators(mesh)
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        base = ops.K - discops.weighted_mass(mesh, fields.sigma_sq)
        # umbilical sigma(nu, nu) = 1/R: the boundary term is cot(pi/3) B
        expected = base - (1.0 / math.tan(math.pi / 3)) * ops.B_wall[0]
        assert abs(system.A - expected).max() <= 1e-13

    def test_form_is_symmetric_with_nonzero_constraint(self, cap_pi3):
        spec, mesh, fields = cap_pi3[32]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        assert abs(system.A - system.A.T).max() <= 1e-12 * abs(system.A).max()
        assert np.linalg.norm(system.c) > 0

    def test_system_refuses_A_and_M_on_two_patterns(self, cap_pi3):
        spec, mesh, fields = cap_pi3[16]
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        # one pair of entries dropped, one pair outside M's pattern added
        A = system.A.tolil()
        A[0, 1] = A[1, 0] = 0.0
        A[0, mesh.nv - 1] = A[mesh.nv - 1, 0] = 1.0
        A = A.tocsr()
        A.eliminate_zeros()
        assert A.nnz == system.M.nnz and not np.array_equal(A.indices, system.M.indices)
        with pytest.raises(ValueError, match="not on one CSR pattern"):
            stability.IndexFormSystem(A=A, M=system.M, c=system.c)
        # the same entries on M's pattern are accepted, and the pencil sums them
        same = stability.IndexFormSystem(A=system.A.copy(), M=system.M, c=system.c)
        t = 3.0
        assert abs(stability._pencil(same, t) - (system.A + t * system.M)).max() == 0.0

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
        system = no_layout(cap_system(math.pi / 3, res))
        vals, _, solver = stability.solve_spectrum(system, k=10)
        assert max_relative_error(vals, dense_constrained_spectrum(system, 10)) <= 1e-8
        # certified on the first solve, with no deflation round
        assert solver["requested"] == 10 + 2 and "deflated" not in solver

    def test_double_eigenvalue_at_window_top(self):
        # slots 8 and 9 are one double eigenvalue of the axisymmetric cap
        system = cap_system(math.radians(160), 36)
        dense = dense_constrained_spectrum(system, 14)
        assert dense[9] - dense[8] <= 1e-9 * dense[9]
        # both finders: Lanczos, and the blocks of the mesh's ring layout
        for finder in (no_layout(system), system):
            spectrum = stability.solve_spectrum(finder, k=10)
            assert max_relative_error(spectrum.values, dense[:10]) <= 1e-8
            # the count is the dense one below the cut, wherever the cut falls
            certificate = spectrum.solver["certificate"]
            assert certificate["count_below"] < len(dense)
            assert np.count_nonzero(dense < certificate["mu"]) == certificate["count_below"]

    def test_certificate_recovers_missed_copy(self, monkeypatch, factorizations):
        # single-vector Lanczos can return one copy of a double eigenvalue;
        # simulate that miss on the first solve: only the inertia count
        # notices, and a deflation round on the same factor restores it
        system = no_layout(cap_system(math.radians(160), 36))
        lanczos = stability._lanczos
        calls = []

        def miss_first(system, m, s, lu, locked=None):
            vals, vecs, steps = lanczos(system, m, s, lu, locked)
            if not calls:
                vals, vecs = np.delete(vals, 9), np.delete(vecs, 9, axis=1)
            calls.append((m, None if locked is None else locked.shape[1], vals))
            return vals, vecs, steps

        monkeypatch.setattr(stability, "_lanczos", miss_first)
        spectrum = stability.solve_spectrum(system, k=10)
        # one copy missing below the cut: the round locks every pair found
        # there and asks for the missing count plus one
        count, mu = (spectrum.solver["certificate"][key] for key in ("count_below", "mu"))
        (first, _, found), (asked, locked, _) = calls
        found = int(np.count_nonzero(found < mu))
        assert first == 12 and found < count
        assert (asked, locked) == (count - found + 1, found)
        assert spectrum.solver["deflated"] == [asked] and spectrum.solver["requested"] == 12
        assert max_relative_error(spectrum.values, dense_constrained_spectrum(system, 10)) <= 1e-8
        assert len(factorizations) == 2

    def test_certificate_failure_raises(self, monkeypatch):
        system = no_layout(cap_system(math.radians(160), 36))
        lanczos = stability._lanczos

        def always_miss(system, m, s, lu, locked=None):
            vals, vecs, steps = lanczos(system, m, s, lu, locked)
            # a deflation round's lowest pair is the missed copy itself
            slot = 9 if locked is None else 0
            return np.delete(vals, slot), np.delete(vecs, slot, axis=1), steps

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
        # each doubling is one more factorization, and the record counts them
        s0 = max(-2.0 * float(deep.A.sum()) / area, 1.0 / area)
        doublings = math.log2(spectrum.solver["shift"] / s0)
        assert doublings == int(doublings)
        assert spectrum.solver["factorizations"] == doublings + 2
        assert max_relative_error(spectrum.values, dense_constrained_spectrum(deep, 10)) <= 1e-8


# sweep points of the tube just below its onset L = pi r (res 32, on the
# sweep's grid of step 0.1r) where the first Lanczos run finds one copy of the
# double lambda_min, the two horizontal translations. The first eleven are
# L = 2.8r to 3.1r; on the last five a deflation round started from the first
# start vector again finds nothing, because what that vector keeps of the
# missed copy after the found one is locked is rounding
MISSED_COPY_POINTS = [
    (0.6, 1.68), (0.6, 1.74), (0.6, 1.8), (0.6, 1.86),
    (1.3, 3.77), (1.3, 3.9), (1.3, 4.03),
    (1.9, 5.32), (1.9, 5.51), (1.9, 5.7), (1.9, 5.89),
    (0.648, 2.0088), (0.917, 2.751), (1.633, 5.0623), (1.857, 5.7567), (1.91, 5.921),
]


class TestDeflation:
    """Copies missed on real meshes, recovered by one round on the same two factors."""

    @pytest.mark.parametrize("r, L", MISSED_COPY_POINTS)
    def test_cylinder_below_onset(self, r, L, factorizations):
        system = no_layout(tube_system(r, L))
        spectrum = stability.solve_spectrum(system, k=1)
        assert spectrum.solver["deflated"] == [2]
        assert spectrum.solver["multiplicity"] == 2
        assert abs(spectrum.values[0] - dense_constrained_spectrum(system, 1)[0]) <= 1e-8
        assert len(factorizations) == 2

    def test_cap_window_top(self, factorizations):
        # the first run misses a copy of the doubles at 10.04 and 10.16, both
        # below its cut: one round asks for three pairs, and the count below
        # that cut is twelve
        system = no_layout(cap_system(math.radians(160), 48))
        spectrum = stability.solve_spectrum(system, k=10)
        assert spectrum.solver["deflated"] == [3]
        assert spectrum.solver["certificate"]["count_below"] == 12
        assert max_relative_error(spectrum.values, dense_constrained_spectrum(system, 10)) <= 1e-8
        assert len(factorizations) == 2


def tube_system(r, L, res=32):
    spec = families.Cylinder(r=r, L=L, resolution=res)
    mesh, fields = families.generate_mesh(spec)
    return stability.assemble_index_form(mesh, spec.walls(), fields)


LANCZOS_SYSTEMS = {
    "tube r1 L2": (lambda: no_layout(tube_system(1.0, 2.0)), 6),
    "tube r1 L4": (lambda: no_layout(tube_system(1.0, 4.0)), 6),
    "tube r0.6 L2": (lambda: no_layout(tube_system(0.6, 2.0)), 6),
    "cap45": (lambda: no_layout(cap_system(math.radians(45), 32)), 10),
    "cap120": (lambda: no_layout(cap_system(math.radians(120), 32)), 10),
    "cap160": (lambda: no_layout(cap_system(math.radians(160), 32)), 10),
}


def tiny_cap():
    """The 25-vertex cap: k = 10 asks for 12 of its 24 constrained pairs."""
    system = no_layout(cap_system(math.pi / 3, 12))
    assert system.n == 25
    return system


class TestLanczos:
    """The shift-invert Lanczos on its own: accuracy, repeatability, its limits."""

    @pytest.mark.parametrize("name", list(LANCZOS_SYSTEMS))
    def test_matches_dense_oracle(self, name, lanczos_rounds):
        make, k = LANCZOS_SYSTEMS[name]
        system = make()
        spectrum = stability.solve_spectrum(system, k=k)
        assert max_relative_error(spectrum.values, dense_constrained_spectrum(system, k)) <= 1e-8
        # the record lists the steps of every round that ran
        assert spectrum.solver["steps"] == lanczos_rounds
        assert all(0 < steps < system.n - 1 for steps in lanczos_rounds)

    def test_repeat_runs_are_bit_identical(self):
        system = no_layout(cap_system(math.radians(120), 32))
        s, lu, _ = stability._positive_shift(system, 1.0)
        first, again = (stability._lanczos(system, 12, s, lu) for _ in range(2))
        assert first[2] == again[2]
        assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
        one, two = (stability.solve_spectrum(system, k=10) for _ in range(2))
        assert one.solver == two.solver
        assert np.array_equal(one.values, two.values) and np.array_equal(one.vectors, two.vectors)

    def test_krylov_space_capped_at_the_constrained_dimension(self, lanczos_rounds):
        # the basis fills c's complement, n - 1 vectors, before every wanted
        # pair meets the tolerance; on the whole space the estimates vanish
        system = tiny_cap()
        spectrum = stability.solve_spectrum(system, k=10)
        assert lanczos_rounds == [system.n - 1] == spectrum.solver["steps"]
        assert max_relative_error(spectrum.values, dense_constrained_spectrum(system, 10)) <= 1e-8

    def test_no_convergence_raises(self, monkeypatch):
        # no estimate is exactly zero, so a zero tolerance is never met
        system = tiny_cap()
        monkeypatch.setattr(stability, "LANCZOS_TOL", 0.0)
        s, lu, _ = stability._positive_shift(system, 1.0)
        with pytest.raises(SolverFailureError, match="did not converge in 24 steps"):
            stability._lanczos(system, 12, s, lu)
        with pytest.raises(SolverFailureError):
            stability.solve_spectrum(system, k=10)


# ring-layout meshes solved by both finders: caps from 10 to 175 degrees and
# tubes on both sides of their onset L = pi r; the first eight (nv <= 800)
# against dense eigh, the last two against Lanczos
BLOCK_SPECS = {
    "cap10": families.Cap(R=1.0, theta=math.radians(10), resolution=32),
    "cap45": families.Cap(R=1.0, theta=math.radians(45), resolution=32),
    "cap90": families.Cap(R=1.0, theta=math.radians(90), resolution=32),
    "cap135": families.Cap(R=1.3, theta=math.radians(135), resolution=32),
    "cap160": families.Cap(R=1.0, theta=math.radians(160), resolution=20),
    "cap175": families.Cap(R=1.0, theta=math.radians(175), resolution=10),
    "tube L2.5": families.Cylinder(r=1.0, L=2.5, resolution=24),
    "tube L4": families.Cylinder(r=1.0, L=4.0, resolution=24),
    "cap60 nv1729": families.Cap(R=1.0, theta=math.radians(60), resolution=96),
    "tube r1.3 L5.2": families.Cylinder(r=1.3, L=5.2, resolution=40),
}


class TestBlocks:
    """The azimuthal-block finder against dense eigh and against Lanczos."""

    @pytest.mark.parametrize("estimated", [False, True], ids=["exact", "estimated"])
    @pytest.mark.parametrize("name", list(BLOCK_SPECS))
    def test_matches_the_reference(self, name, estimated, factorizations):
        spec = BLOCK_SPECS[name]
        mesh, fields = families.generate_mesh(spec)
        if estimated:
            fields = discops.estimate_fields(mesh, spec.walls())
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        spectrum = stability.solve_spectrum(system, k=10)
        solver = spectrum.solver
        assert len(factorizations) == solver["factorizations"] == 1 and "blocks_refused" not in solver
        assert len(solver["modes"]) == 10 and solver["blocks"]["solved"] <= solver["blocks"]["total"]
        count, mu = solver["certificate"]["count_below"], solver["certificate"]["mu"]
        if system.n <= 800:
            reference = dense_constrained_spectrum(system, count + 1)
        else:
            reference = stability.solve_spectrum(no_layout(system), k=count + 1).values
        assert max_relative_error(spectrum.values, reference[:10]) <= 1e-10
        # the certificate's count is the reference's below its cut
        assert np.count_nonzero(reference < mu) == count
        lanczos = stability.solve_spectrum(no_layout(system), k=10)
        assert solver["multiplicity"] == lanczos.solver["multiplicity"]

    def test_closed_sphere_with_both_poles(self):
        # the poles enter mode 0 alone; a wall that meets no vertex leaves
        # the form K - 2 M of the unit sphere, l(l + 1) - 2 in the limit
        spec = families.ClosedSphere(R=1.0, resolution=16)
        mesh, fields = families.generate_mesh(spec)
        away = meshkit.WallSet((meshkit.Hyperplane(np.array([0.0, 0.0, -1.0]), 2.0),), (math.pi / 2,))
        system = stability.assemble_index_form(mesh, away, fields)
        assert system.layout.top == system.layout.bottom == 1
        spectrum = stability.solve_spectrum(system, k=10)
        assert "blocks_refused" not in spectrum.solver
        assert max_relative_error(spectrum.values, dense_constrained_spectrum(system, 10)) <= 1e-10
        # l = 1: the vertical translation (mode 0) and the horizontal pair (mode 1)
        assert sorted(spectrum.solver["modes"][:3]) == [0, 1, 1]

    @pytest.mark.parametrize("k", [1, 10])
    @pytest.mark.parametrize("r, L, res", [(1.3, 5.2, 32), (1.3, 5.2, 40), (0.6, 2.4, 32)])
    def test_both_finders_write_the_same_simple_eigenfunction(self, r, L, res, k):
        # past the onset the neck mode's largest entries, on the bottom and
        # top rims, tie in size with opposite signs, so the largest-entry
        # rule left the sign to rounding: on the first tube Lanczos made the
        # top rim's vertex 643 positive at k = 1 and the bottom rim's vertex
        # 20 at k = 10 (|f| 0.217617406514686, 1.7e-16 and 5.0e-16 apart),
        # and on the other two the finders wrote opposite functions
        system = tube_system(r, L, res)
        blocks = stability.solve_spectrum(system, k=k)
        lanczos = stability.solve_spectrum(no_layout(system), k=k)
        assert blocks.solver["multiplicity"] == lanczos.solver["multiplicity"] == 1
        assert blocks.solver["modes"][0] == 0
        f = blocks.vectors[:, 0]
        assert np.abs(f - lanczos.vectors[:, 0]).max() <= 1e-10
        # the tie goes to the lowest vertex, on the bottom rim
        assert f[0] > 0.0 and np.abs(f).max() - f[0] <= 1e-8 * f[0]

    def test_both_finders_write_the_same_multiple_eigenfunction(self):
        system = cap_system(math.pi / 3, 32)
        blocks = stability.stability_verdict(system)
        lanczos = stability.stability_verdict(no_layout(system))
        assert blocks.info["solver"]["multiplicity"] == 2 and blocks.info["solver"]["modes"][:2] == [1, 1]
        assert np.abs(blocks.eigenfunction - lanczos.eigenfunction).max() <= 1e-8

    def test_the_count_catches_a_skipped_mode(self, monkeypatch, factorizations):
        # with modes 2 and up never solved, values below the cut are missing
        system = cap_system(math.pi / 3, 24)
        lanczos = stability.solve_spectrum(no_layout(system), k=10)
        monkeypatch.setattr(stability._Blocks, "count", property(lambda self: 2))
        factorizations.clear()
        spectrum = stability.solve_spectrum(system, k=10)
        refused = re.fullmatch(
            r"(\d+) constrained eigenvalues below \S+, the blocks of 2 modes found (\d+)",
            spectrum.solver["blocks_refused"],
        )
        assert int(refused[1]) > int(refused[2])
        # the factorization at the blocks' cut, then the cold path's two
        assert len(factorizations) == spectrum.solver["factorizations"] == 3
        assert np.array_equal(spectrum.values, lanczos.values)
        assert np.array_equal(spectrum.vectors, lanczos.vectors)

    def test_a_form_off_the_rotation_is_refused(self):
        # one vertex's |sigma|^2 tripled: the mesh keeps its layout, the form
        # does not, and the residuals against the full A refuse the blocks
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=24)
        mesh, fields = families.generate_mesh(spec)
        sigma_sq = fields.sigma_sq.copy()
        sigma_sq[40] *= 3.0
        system = stability.assemble_index_form(mesh, spec.walls(), dataclasses.replace(fields, sigma_sq=sigma_sq))
        assert system.layout is not None
        spectrum = stability.solve_spectrum(system, k=10)
        lanczos = stability.solve_spectrum(no_layout(system), k=10)
        assert "blocks_refused" in spectrum.solver and spectrum.solver["factorizations"] == 3
        assert np.array_equal(spectrum.values, lanczos.values)
        assert np.array_equal(spectrum.vectors, lanczos.vectors)

    @pytest.mark.parametrize("name", ["monge", "jittered cap", "renumbered cap", "relabeled tube"])
    def test_near_misses_take_lanczos(self, name, tmp_path):
        mesh, walls = ring_breakers(tmp_path)[name]
        system = stability.assemble_index_form(mesh, walls, discops.estimate_fields(mesh, walls))
        assert system.layout is None
        spectrum = stability.solve_spectrum(system, k=10)
        assert spectrum.solver["method"].startswith("shift-invert Lanczos")
        assert "blocks_refused" not in spectrum.solver


@pytest.fixture(scope="module")
def small_systems():
    """Index forms small enough for dense checks: three caps and a cylinder."""
    out = {}
    for deg in (60, 120, 160):
        out[f"cap{deg}"] = cap_system(math.radians(deg), 24)
    spec = families.Cylinder(r=1.0, L=4.0, resolution=12)
    mesh, fields = families.generate_mesh(spec)
    out["cylinder"] = stability.assemble_index_form(mesh, spec.walls(), fields)
    return out


class TestFactorization:
    """The inertia count and the eigenspace written, under the SuperLU settings."""

    @pytest.mark.parametrize("name", ["cap60", "cap120", "cap160", "cylinder"])
    def test_inertia_matches_dense_count(self, name, small_systems):
        system = small_systems[name]
        A, M = system.A.toarray(), system.M.toarray()
        lam = dense_eigh(A, M, eigvals_only=True)
        # -t halfway between distinct eigenvalues: 0, 1, about 6 and about 25
        # negative eigenvalues of A + tM, the last three indefinite
        shifts = [1.0 - lam[0]]
        for j in (0, 5, 24):
            while lam[j + 1] - lam[j] <= 1e-6 * abs(lam[j + 1]):
                j += 1
            shifts.append(-0.5 * (lam[j] + lam[j + 1]))
        counts = []
        for t in shifts:
            _, nonpositive = stability._factor(stability._pencil(system, t))
            dense = int(np.count_nonzero(np.linalg.eigvalsh(A + t * M) < 0.0))
            assert nonpositive == dense
            counts.append(nonpositive)
        assert counts[0] == 0 and counts[1] == 1 and counts[3] > counts[2] > 1

    def test_thousand_factorizations_exit_cleanly(self):
        # SuperLU sized too large (relax = panel_size = 32) crashed the
        # process; a crash here fails this test rather than pytest itself
        script = textwrap.dedent(
            """
            import math
            from caplab import families, stability
            systems = []
            for deg in (45, 60, 90, 120, 160):
                spec = families.Cap(R=1.0, theta=math.radians(deg), resolution=32)
                mesh, fields = families.generate_mesh(spec)
                systems.append(stability.assemble_index_form(mesh, spec.walls(), fields))
            for i in range(1000):
                system = systems[i % len(systems)]
                stability._factor(stability._pencil(system, 20.0 * ((i % 7) - 2)))
            """
        )
        src = str(Path(stability.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-X", "faulthandler", "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    @pytest.mark.parametrize("deg", [60, 120])
    @pytest.mark.parametrize("res", [64, 96, 128])
    def test_eigenfunction_depends_on_the_eigenspace_alone(self, deg, res, monkeypatch):
        # lambda_min is double on caps; the written vector must not depend on
        # where Lanczos stops (its tolerance) or on factorization rounding
        system = no_layout(cap_system(math.radians(deg), res))
        verdict = stability.stability_verdict(system)
        assert verdict.info["solver"]["multiplicity"] == 2
        for name, value in (("LANCZOS_TOL", 1e-13), ("SUPERLU_RELAX", None)):
            with monkeypatch.context() as patch:
                patch.setattr(stability, name, value)
                if value is None:
                    patch.setattr(stability, "SUPERLU_PANEL_SIZE", None)
                other = stability.stability_verdict(system)
            assert np.abs(other.eigenfunction - verdict.eigenfunction).max() <= 1e-8
        f, start = verdict.eigenfunction, stability._start(system.c)
        assert float(f @ (system.M @ f)) == pytest.approx(1.0, abs=1e-12)
        assert float(f @ (system.M @ start)) > 0.0
        # the first two columns still span the eigenspace, M-orthonormally
        V = verdict.eigenfunctions[:, :2]
        assert np.abs(V.T @ (system.M @ V) - np.eye(2)).max() <= 1e-8

    def test_simple_lambda_min_keeps_its_vector(self):
        spec = families.Cylinder(r=1.0, L=4.0, resolution=32)
        mesh, fields = families.generate_mesh(spec)
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        spectrum = stability.solve_spectrum(system, k=1)
        assert spectrum.solver["multiplicity"] == 1
        f = spectrum.vectors[:, 0]
        assert f[np.argmax(np.abs(f))] > 0.0


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
        sigma_nn[mesh.boundary_vertices[3]] = np.nan
        broken = dataclasses.replace(fields, sigma_nn=sigma_nn)
        with pytest.raises(FitFailureError, match="1 vertices on wall 0"):
            stability.assemble_index_form(mesh, spec.walls(), broken)

    def test_nan_conormal_on_contact_wall_is_a_fit_failure(self, cap_pi3):
        spec, mesh, fields = cap_pi3[16]
        conormal = fields.conormal.copy()
        conormal[mesh.boundary_vertices[[0, 5]]] = np.nan
        broken = dataclasses.replace(fields, conormal=conormal)
        with pytest.raises(FitFailureError, match="2 vertices on wall 0"):
            stability.assemble_index_form(mesh, spec.walls(), broken)

    def test_nan_on_free_boundary_wall_is_harmless(self, hemisphere):
        # cot(pi/2) = 0: sigma(nu, nu) never enters the form
        spec, mesh, fields = hemisphere[16]
        sigma_nn = fields.sigma_nn.copy()
        sigma_nn[mesh.boundary_vertices[3]] = np.nan
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

    def test_one_assembly_for_the_function_and_its_index_form(self, assemblies):
        spec = families.Cylinder(r=1.0, L=2.0, resolution=16)
        mesh, fields = families.generate_mesh(spec)
        stability.build_test_function(mesh, spec.walls(), fields)
        assert assemblies == [mesh.nv]

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
        de = stability.first_variation_energy(mesh, spec.walls(), f, fields)
        assert abs(de) <= 1e-2

    def test_flat_disk_any_mean_zero_direction(self, flat_disk):
        spec, mesh, fields = flat_disk
        f = mesh.positions[:, 0].copy()
        de = stability.first_variation_energy(mesh, spec.walls(), f, fields)
        assert abs(de) <= 1e-2

    def test_constant_violates_constraint(self, flat_disk):
        spec, mesh, fields = flat_disk
        with pytest.raises(ConstraintViolationError):
            stability.first_variation_energy(
                mesh, spec.walls(), np.ones(mesh.nv), fields
            )

    def test_perturbed_copies_build_no_topology(self, topology_builds):
        # the two displaced meshes share the triangles and labels, so they
        # reuse the boundary loops the mesh has built (2 rebuilds before)
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=32)
        mesh, fields = families.generate_mesh(spec)
        mesh.operators
        mesh.boundary_loops
        built = dict(topology_builds)
        system = stability.assemble_index_form(mesh, spec.walls(), fields)
        _, f = stability.min_constrained_eigenpair(system)
        stability.first_variation_energy(mesh, spec.walls(), f, fields)
        assert topology_builds == built

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
        reports.write_table(tmp_path / "f.csv", ("vertex", "value"), enumerate(verdict.eigenfunction))
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "vertex,value"
        assert len(lines) == mesh.nv + 1
