#!/usr/bin/env python3
"""Tour of the analytic families: closed forms vs. the generated meshes.

Generates each family, prints exact quantities next to their discrete
counterparts, and writes CAPMESH + wall-set files you can feed back into the
other demos or the `caplab` command.
"""

import math
from pathlib import Path

import numpy as np

from caplab import discops, families, meshkit

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

print("=== Spherical cap, R = 1, theta = 60 deg ===")
cf = families.cap_closed_forms(1.0, math.pi / 3)
print(f"closed forms: area {cf.area:.6f}  wetted {cf.wetted_area:.6f} "
      f"rim length {cf.boundary_length:.6f}")
print(f"              energy {cf.energy:.6f} (= 0.625 pi)  volume {cf.volume:.6f}  H {cf.mean_curv}")

for res in (16, 32, 64):
    spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=res)
    mesh, fields = families.generate_mesh(spec)
    err = abs(mesh.area() - cf.area) / cf.area
    print(f"res {res:3d}: {mesh.nv:5d} vertices, discrete area {mesh.area():.6f} "
          f"(rel err {err:.2e})")

spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=48)
mesh, fields = families.generate_mesh(spec)
report = meshkit.validate(mesh, spec.walls())
print(f"validation: {report}")
path = meshkit.save(mesh, spec.walls(), OUT / "cap60.capmesh")
print(f"wrote {path} and {meshkit.default_walls_path(path)}")

print()
print("=== Slab cylinder, r = 1, L = 2 (free boundary) ===")
spec = families.Cylinder(r=1.0, L=2.0, resolution=48)
mesh, fields = families.generate_mesh(spec)
print(f"exact H = {fields.mean_curv[0]} (= 1/2r), |sigma|^2 = {fields.sigma_sq[0]} (= 1/r^2)")
print(f"boundary loops: {len(mesh.boundary_loops)} (one circle per wall)")
ops = discops.assemble_operators(mesh)
print(f"discrete area {ops.area:.6f} vs 4 pi = {4 * math.pi:.6f}")

print()
print("=== Monge patch z = 0.1 sin(x) sin(y): not capillary, used for the")
print("    identities that hold for arbitrary immersions ===")
spec = families.MongePatch(amplitude=0.1, R=1.0, resolution=32)
mesh, fields = families.generate_mesh(spec)
print(f"mean curvature range: [{fields.mean_curv.min():.4f}, {fields.mean_curv.max():.4f}]")
print(f"boundary labels: {len(mesh.boundary_labels)} (bare immersion, no walls)")

print()
print("=== Refinement with the analytic projector keeps vertices on the sphere ===")
spec = families.Cap(R=1.0, theta=math.pi / 2, resolution=16)
mesh, _ = families.generate_mesh(spec)
fine = meshkit.refine(mesh, projector=families.surface_projector(spec), walls=spec.walls())
radii = np.linalg.norm(fine.positions - spec.center, axis=1)
print(f"{mesh.nv} -> {fine.nv} vertices, max |r - R| = {np.abs(radii - 1).max():.2e}")
