"""Acceptance criteria, one test per criterion, printing one line each.

Tolerances are pinned here, from the criteria themselves, not calibrated.
Exact family fields serve as the ground-truth lane; criteria about the
discrete pipeline (equality case, index-form consistency) run on estimated
fields as well.
"""

import math

import numpy as np
import pytest

from caplab import discops, families, identities, meshkit, stability, wedge
from caplab.cli import main as cli_main
from conftest import decreasing_with_floor, rotate_walls, rotation_matrix

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def _announce(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def _suite_families():
    yield "cap", lambda r: families.Cap(R=1.0, theta=math.pi / 3, resolution=r), \
        lambda spec: [0.0, 0.0, math.cos(spec.theta)]
    yield "cylinder", lambda r: families.Cylinder(r=1.0, L=2.0, resolution=r), lambda spec: None
    yield "monge", lambda r: families.MongePatch(amplitude=0.1, R=1.0, resolution=r), \
        lambda spec: None


def test_criterion_1_identity_suite():
    """Every applicable identity <= 2% at resolution 64 and decreasing."""
    failures = []
    for name, build, vec in _suite_families():
        history = {}
        for res in (16, 32, 64):
            spec = build(res)
            mesh, fields = families.generate_mesh(spec)
            reports = identities.run_suite(
                mesh, spec.walls(), fields, resolution=str(res), capillary_vector=vec(spec)
            )
            for r in reports:
                if not r.skipped:
                    history.setdefault(r.name, []).append(r.rel_residual)
        for ident, vals in history.items():
            if vals[-1] > 0.02:
                failures.append(f"{name}/{ident} final {vals[-1]:.3e}")
            if not decreasing_with_floor(vals):
                failures.append(f"{name}/{ident} not decreasing {vals}")
    _announce(
        1,
        not failures,
        "identity suite on cap/cylinder/monge at 16/32/64, all residuals <= 2% and decreasing"
        + ("" if not failures else f" [{'; '.join(failures)}]"),
    )


def test_criterion_2_equality_case():
    """On caps the test function vanishes: phi and its form value shrink."""
    failures = []
    for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        prev_phi = prev_quad = None
        for res in (32, 64):
            spec = families.Cap(R=1.0, theta=theta, resolution=res)
            mesh, _ = families.generate_mesh(spec)
            est = discops.estimate_fields(mesh, spec.walls())
            walls = spec.walls()
            a = wedge.solve_a(walls.normals, walls.angles).a
            report = stability.build_test_function(mesh, walls, est, a=a)
            max_phi = float(np.abs(report.phi).max())
            quad = abs(report.index_quadratic)
            cap_scale = 0.05 * report.info["area"] * report.info["max_sigma_sq"]
            if max_phi > 0.05:
                failures.append(f"theta={theta:.3f} res={res} max|phi|={max_phi:.3f}")
            if quad > cap_scale:
                failures.append(f"theta={theta:.3f} res={res} |I(phi,phi)|={quad:.3f}")
            if prev_phi is not None and not (max_phi < prev_phi and quad < prev_quad):
                failures.append(f"theta={theta:.3f} not shrinking under refinement")
            prev_phi, prev_quad = max_phi, quad
    _announce(
        2,
        not failures,
        "equality case on caps (pi/3, pi/2, 2pi/3): max|phi| <= 0.05, "
        "|I(phi,phi)| <= 0.05 area max|sigma|^2, shrinking"
        + ("" if not failures else f" [{'; '.join(failures)}]"),
    )


def test_criterion_3_index_form_consistency():
    """Identity-mode cylinder: form value and closed form both equal -pi."""
    target = -math.pi
    spec = families.Cylinder(r=1.0, L=2.0, resolution=64)
    mesh, exact = families.generate_mesh(spec)
    failures = []
    for label, fields in (
        ("exact", exact),
        ("estimated", discops.estimate_fields(mesh, spec.walls())),
    ):
        report = stability.build_test_function(mesh, spec.walls(), fields, a=None)
        for side, value in (
            ("quadratic", report.index_quadratic),
            ("closed", report.index_closed),
        ):
            if abs(value - target) > 0.02 * abs(target):
                failures.append(f"{label}/{side} = {value:.5f}")
    _announce(
        3,
        not failures,
        f"cylinder identity mode: I(phi,phi) and -int(|sigma|^2-2H^2)phi = -pi within 2% "
        f"(exact and estimated fields)" + ("" if not failures else f" [{'; '.join(failures)}]"),
    )


@pytest.fixture(scope="module")
def hemisphere_spectrum():
    spec = families.Cap(R=1.0, theta=math.pi / 2, resolution=64)
    mesh, fields = families.generate_mesh(spec)
    system = stability.assemble_index_form(mesh, spec.walls(), fields)
    verdict = stability.stability_verdict(system)
    return spec, mesh, fields, system, verdict


@pytest.fixture(scope="module")
def long_cylinder_spectrum():
    spec = families.Cylinder(r=1.0, L=4.0, resolution=64)
    mesh, fields = families.generate_mesh(spec)
    system = stability.assemble_index_form(mesh, spec.walls(), fields)
    verdict = stability.stability_verdict(system)
    return spec, mesh, fields, system, verdict


def test_criterion_4_stability_spectrum(hemisphere_spectrum, long_cylinder_spectrum):
    failures = []
    _, mesh, fields, system, verdict = hemisphere_spectrum
    lams = verdict.eigenvalues
    if not (-0.05 <= lams[0] <= 0.05 and -0.05 <= lams[1] <= 0.05):
        failures.append(f"hemisphere near-kernel {lams[:2]}")
    if lams[2] <= 0.05:
        failures.append(f"hemisphere kernel not 2-dimensional, lam3 = {lams[2]:.4f}")
    for j in (0, 1):
        f = verdict.eigenfunctions[:, j]
        proj = math.hypot(
            stability.mass_correlation(system.M, f, fields.normal[:, 0]),
            stability.mass_correlation(system.M, f, fields.normal[:, 1]),
        )
        if proj < 0.95:
            failures.append(f"hemisphere mode {j} correlation {proj:.3f}")

    spec, mesh, fields, system, verdict = long_cylinder_spectrum
    target = math.pi**2 / 16 - 1
    if abs(verdict.lambda_min - target) > 0.05 * abs(target):
        failures.append(f"cylinder lambda_min {verdict.lambda_min:.4f} vs {target:.4f}")
    g = np.cos(math.pi * mesh.positions[:, 2] / spec.L)
    g = g - float(system.c @ g) / float(system.c @ np.ones(mesh.nv))
    corr = stability.mass_correlation(system.M, verdict.eigenfunction, g)
    if corr < 0.95:
        failures.append(f"cylinder mode correlation {corr:.3f}")
    _announce(
        4,
        not failures,
        "hemisphere lambda_min in [-0.05, 0.05] with 2-dim near-kernel; "
        "cylinder L=4 lambda_min = pi^2/16 - 1 within 5%, correlation >= 0.95"
        + ("" if not failures else f" [{'; '.join(failures)}]"),
    )


def test_criterion_5_sweep_threshold(tmp_path):
    rc = cli_main(
        [
            "sweep", "cylinder", "--r", "1", "--lmin", "2", "--lmax", "4",
            "--step", "0.1", "--res", "32", "--out", str(tmp_path),
        ]
    )
    import json

    doc = json.loads((tmp_path / "sweep.json").read_text())
    bracket = doc["bracket"]
    ok = (
        rc == 0
        and bracket is not None
        and bracket[0] >= math.pi * 0.98
        and bracket[1] <= math.pi * 1.02
    )
    _announce(
        5,
        ok,
        f"cylinder sweep L in [2,4] brackets the onset at pi within 2%: bracket={bracket}",
    )


def test_criterion_6_wedge_algebra():
    failures = []
    sol = wedge.solve_a([-E3, -E2], [math.pi / 2, math.pi / 2])
    if sol.norm_a > 1e-10:
        failures.append(f"right angles |a| = {sol.norm_a:.2e}")
    for theta in (math.pi / 3, 1.0, 2.0):
        sol = wedge.solve_a([-E3, -E2], [theta, theta])
        if abs(sol.norm_a - math.sqrt(2) * abs(math.cos(theta))) > 1e-10:
            failures.append(f"orthogonal pair theta={theta}")
    if abs(wedge.delta_max([-E3, -E2]) - math.pi / 4) > 1e-10:
        failures.append("delta(orthogonal pair)")
    n1 = -E3
    n2 = math.cos(2 * math.pi / 3) * n1 + math.sin(2 * math.pi / 3) * E1
    if abs(wedge.delta_max([n1, n2 / np.linalg.norm(n2)]) - math.pi / 6) > 1e-10:
        failures.append("delta(2pi/3 pair)")
    if abs(wedge.delta_max([E1, E2, E3]) - math.asin(1 / math.sqrt(3))) > 1e-10:
        failures.append("delta(orthogonal triple)")
    _announce(
        6,
        not failures,
        "wedge algebra exact to 1e-10: a = 0 at right angles, |a| = sqrt(2)|cos|, "
        "delta = pi/4, pi/6, arcsin(1/sqrt(3))"
        + ("" if not failures else f" [{'; '.join(failures)}]"),
    )


def test_criterion_7_verdict_pipeline(hemisphere_spectrum, long_cylinder_spectrum):
    failures = []
    # wedge-supported cap: sphere over the edge line, labeled boundary on one
    # wall, crossing the other wall plane at the same constant angle
    offset = 0.1
    theta = math.pi / 2 + offset
    spec = families.Cap(R=1.0, theta=theta, resolution=48)
    mesh0, fields = families.generate_mesh(spec)
    mesh = mesh0.translated([0.0, math.sin(offset), 0.0])
    walls = meshkit.WallSet(
        (meshkit.Hyperplane(-E3, 0.0), meshkit.Hyperplane(-E2, 0.0)), (theta, theta)
    )
    system = stability.assemble_index_form(mesh, walls, fields)
    verdict = stability.stability_verdict(system)
    report = wedge.classify(mesh, walls, verdict)
    if not report.hypotheses_met:
        failures.append(f"wedge cap hypotheses {report.checks}")
    elif report.sphericity_residual > 1e-2:
        failures.append(f"sphericity {report.sphericity_residual:.2e}")

    _, _, _, _, hemi_verdict = hemisphere_spectrum
    if not hemi_verdict.stable:
        failures.append("hemisphere not reported stable")

    spec_c, mesh_c, _, system_c, cyl_verdict = long_cylinder_spectrum
    if cyl_verdict.stable:
        failures.append("L=4 cylinder not reported unstable")
    g = np.cos(math.pi * mesh_c.positions[:, 2] / spec_c.L)
    g = g - float(system_c.c @ g) / float(system_c.c @ np.ones(mesh_c.nv))
    corr = stability.mass_correlation(system_c.M, cyl_verdict.eigenfunction, g)
    if corr < 0.95:
        failures.append(f"unstable certificate correlation {corr:.3f}")
    _announce(
        7,
        not failures,
        "classify: wedge cap hypotheses met with sphericity <= 1e-2; caps stable; "
        "L=4 cylinder unstable with certificate"
        + ("" if not failures else f" [{'; '.join(failures)}]"),
    )


def test_criterion_8_equivariance_scaling(tmp_path):
    failures = []
    R = rotation_matrix([0.4, 1.1, 0.3], 1.234)

    # identities invariant under joint rigid rotation
    spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=32)
    mesh, fields = families.generate_mesh(spec)
    walls = spec.walls()
    base = identities.run_suite(mesh, walls, fields)
    rotated = identities.run_suite(
        mesh.transformed(R), rotate_walls(walls, R), fields.transformed(R)
    )
    for r0, r1 in zip(base, rotated):
        if not r0.skipped and abs(r0.rel_residual - r1.rel_residual) > 1e-10:
            failures.append(f"identity {r0.name} moved {abs(r0.rel_residual - r1.rel_residual):.2e}")

    # verdict invariant under joint rigid rotation
    system = stability.assemble_index_form(mesh, walls, fields)
    lam, _ = stability.min_constrained_eigenpair(system)
    system_rot = stability.assemble_index_form(
        mesh.transformed(R), rotate_walls(walls, R), fields.transformed(R)
    )
    lam_rot, _ = stability.min_constrained_eigenpair(system_rot)
    if abs(lam - lam_rot) > 1e-10:
        failures.append(f"lambda_min moved {abs(lam - lam_rot):.2e} under rotation")

    # dilation scales the spectrum by 1/s^2
    s = 2.0
    system_scaled = stability.assemble_index_form(mesh.scaled(s), walls, fields.scaled(s))
    lam_scaled, _ = stability.min_constrained_eigenpair(system_scaled)
    if abs(s**2 * lam_scaled - lam) > 0.01 * max(abs(lam), 1e-10):
        failures.append(f"scaling law {s**2 * lam_scaled:.6f} vs {lam:.6f}")

    # file round trip is bit exact
    path = tmp_path / "cap.capmesh"
    meshkit.save(mesh, walls, path)
    again, _ = meshkit.load(path)
    if not np.array_equal(again.positions, mesh.positions):
        failures.append("round trip not bit exact")
    path2 = tmp_path / "cap2.capmesh"
    meshkit.save(again, walls, path2)
    if path.read_bytes() != path2.read_bytes():
        failures.append("second save differs")

    _announce(
        8,
        not failures,
        "rigid-motion invariance <= 1e-10, dilation scales lambda by 1/s^2 within 1%, "
        "round-trip file I/O bit-exact" + ("" if not failures else f" [{'; '.join(failures)}]"),
    )
