#!/usr/bin/env python3
"""The wedge criterion: capillary vector, angle windows, classification.

For walls with independent normals the vector a solving <a, n_i> = -cos(theta_i)
decides rigidity: |a| < 1 forces a stable surface to be a sphere piece. The
admissible angle window around pi/2 follows from maximizing the convex form
t^T G^{-1} t over a cube, attained at a sign vertex.
"""

import math

import numpy as np

from caplab import families, meshkit, stability, wedge

E1, E2, E3 = np.eye(3)

print("=== Angle windows delta around pi/2 ===")
n_oblique = math.cos(2 * math.pi / 3) * (-E3) + math.sin(2 * math.pi / 3) * E1
cases = [
    ("single wall", [-E3]),
    ("orthogonal pair", [-E3, -E2]),
    ("pair at 120 deg", [-E3, n_oblique / np.linalg.norm(n_oblique)]),
    ("orthogonal triple", [E1, E2, E3]),
]
for label, normals in cases:
    delta = wedge.delta_max(normals)
    print(f"{label:20s} delta = {delta:.6f} rad = {math.degrees(delta):7.3f} deg")

print("\n=== Capillary vector for an orthogonal pair ===")
for theta_deg in (90, 80, 60, 46):
    theta = math.radians(theta_deg)
    sol = wedge.solve_a([-E3, -E2], [theta, theta])
    print(
        f"theta = {theta_deg:3d} deg: |a| = {sol.norm_a:.4f}  "
        f"umbilical conclusion: {sol.umbilical_conclusion}"
    )
print("(the window for this pair is pi/4 = 45 deg: at 46 deg from normal incidence")
print(" the bound is about to fail, at 90 deg it is sharpest)")

print("\n=== Classification of a wedge-supported cap ===")
# Sphere over the wedge edge line: meets both wall planes at the same
# constant angle; the labeled boundary lies on the first wall (an immersion
# supported by, not contained in, the domain). Edge-avoiding contact with
# both walls near pi/2 is geometrically impossible for a sphere.
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
print(f"checks: {report.checks}")
print(f"hypotheses met: {report.hypotheses_met}")
print(f"|a| = {report.norm_a:.4f}, window delta = {report.delta:.4f} rad")
print(f"sphericity residual = {report.sphericity_residual:.2e} "
      f"(best sphere R = {report.sphere_radius:.6f})")

print("\n=== Same cap against an out-of-window wall set ===")
far = meshkit.WallSet(walls.walls, (math.pi / 2 + 1.0, theta))
report = wedge.classify(mesh, far, stability.stability_verdict(
    stability.assemble_index_form(mesh, far, fields)))
print(f"checks: {report.checks}")
print(f"hypotheses met: {report.hypotheses_met}")
