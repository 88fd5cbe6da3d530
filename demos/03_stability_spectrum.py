#!/usr/bin/env python3
"""Volume-constrained spectra of the index form: who is stable?

The hemisphere sits at the neutral boundary (a two-dimensional kernel of
horizontal translations), the short slab tube is stable, the long one is not;
the unstable direction is the first axial mode, and the separation of
variables prediction (pi/L)^2 - 1/r^2 lands within a fraction of a percent.
"""

import math

import numpy as np

from caplab import families, stability

print("=== Hemisphere (R = 1, theta = pi/2) ===")
spec = families.Cap(R=1.0, theta=math.pi / 2, resolution=48)
mesh, fields = families.generate_mesh(spec)
system = stability.assemble_index_form(mesh, spec.walls(), fields)
verdict = stability.stability_verdict(system)
print(f"lowest eigenvalues: {np.round(verdict.eigenvalues[:5], 4)}")
print(f"stable: {verdict.stable} (tolerance {verdict.tol_used})")
f0 = verdict.eigenfunctions[:, 0]
corr = math.hypot(
    stability.mass_correlation(system.M, f0, fields.normal[:, 0]),
    stability.mass_correlation(system.M, f0, fields.normal[:, 1]),
)
print(f"first mode lives in the horizontal-translation plane: correlation {corr:.6f}")

for L in (2.0, 4.0):
    print(f"\n=== Slab cylinder r = 1, L = {L} ===")
    spec = families.Cylinder(r=1.0, L=L, resolution=48)
    mesh, fields = families.generate_mesh(spec)
    system = stability.assemble_index_form(mesh, spec.walls(), fields)
    verdict = stability.stability_verdict(system)
    predicted = (math.pi / L) ** 2 - 1.0
    print(f"lowest eigenvalues: {np.round(verdict.eigenvalues[:4], 4)}")
    print(f"axial-mode prediction (pi/L)^2 - 1/r^2 = {predicted:.4f}")
    print(f"stable: {verdict.stable}")
    if not verdict.stable:
        g = np.cos(math.pi * mesh.positions[:, 2] / L)
        g = g - float(system.c @ g) / float(system.c @ np.ones(mesh.nv))
        corr = stability.mass_correlation(system.M, verdict.eigenfunction, g)
        print(f"instability certificate: correlation with cos(pi z / L) = {corr:.6f}")

print("\n=== First variation sanity: equilibria are critical points ===")
spec = families.Cap(R=1.0, theta=math.pi / 2, resolution=32)
mesh, fields = families.generate_mesh(spec)
system = stability.assemble_index_form(mesh, spec.walls(), fields)
_, f = stability.min_constrained_eigenpair(system)
de = stability.first_variation_energy(mesh, spec.walls(), f, fields)
print(f"hemisphere: dE along the lowest constrained mode = {de:.3e}")
