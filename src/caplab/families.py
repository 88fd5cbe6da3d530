"""Closed-form capillary families with exact geometry and structured meshes.

Conventions, used consistently everywhere: the surface normal N is the one
that makes the mean curvature nonnegative (inward for spheres, caps and
tubes), the supporting wall of a cap is the plane z = 0 with exterior domain
normal -e3, and the sphere center of a cap of angle theta sits at height
-R cos(theta), so that cos(theta) = <N, n1> along the boundary circle. The
wall passes through the origin, which the integral identities rely on.

Each family is one ``FamilySpec`` subclass that carries its own geometry:
its structured mesh, its exact fields, its projector, its file-name slug and,
when it has walls, its wall set and capillary vector. The module functions
below hold only what the families share. Adding a family means one such class
plus one row of ``caplab.cli.FAMILIES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discops import GeometryFields
from .errors import (
    DegenerateFamilyError,
    InvalidSpecError,
    UnsupportedFamilyError,
)
from .meshkit import Hyperplane, LabeledTriMesh, WallSet

__all__ = [
    "FamilySpec",
    "Cap",
    "Cylinder",
    "FlatDisk",
    "ClosedSphere",
    "MongePatch",
    "CapClosedForms",
    "cap_closed_forms",
    "generate_mesh",
    "exact_fields",
    "surface_projector",
    "analytic_test_function",
]

E3 = np.array([0.0, 0.0, 1.0])


# -- structured mesh pieces -----------------------------------------------------


def _ring_indices(base, count):
    return base + np.arange(count)


def _strip(ring_a, ring_b):
    """Quads between two same-length rings, split into triangles."""
    n = len(ring_a)
    ln = np.arange(n)
    lp = (ln + 1) % n
    a, b = ring_a[ln], ring_a[lp]
    d, c = ring_b[ln], ring_b[lp]
    return np.vstack([np.column_stack([a, b, c]), np.column_stack([a, c, d])])


def _fan(apex, ring, reverse=False):
    n = len(ring)
    ln = np.arange(n)
    lp = (ln + 1) % n
    if reverse:
        return np.column_stack([np.full(n, apex), ring[lp], ring[ln]])
    return np.column_stack([np.full(n, apex), ring[ln], ring[lp]])


def _disk_grid(R, n):
    """Polar grid of the disk of radius R in z = 0: n azimuths, rings to match."""
    m = max(2, round(n / (2.0 * math.pi)) + 1)
    alphas = 2.0 * math.pi * np.arange(n) / n
    rows = []
    for j in range(1, m + 1):
        rho = R * j / m
        rows.append(np.column_stack([rho * np.cos(alphas), rho * np.sin(alphas), np.zeros(n)]))
    positions = np.vstack([[0.0, 0.0, 0.0], *rows])
    rings = [_ring_indices(1 + j * n, n) for j in range(m)]
    tris = [_fan(0, rings[0], reverse=True)]
    for j in range(m - 1):
        tris.append(_strip(rings[j], rings[j + 1]))
    return positions, np.vstack(tris), rings


def _radial(q):
    """Unit horizontal direction away from the z axis at each point."""
    out = np.zeros((len(q), 3))
    out[:, :2] = q[:, :2] / np.linalg.norm(q[:, :2], axis=1)[:, None]
    return out


def _onto_circle(q, rows, radius):
    """Move the xy part of the selected rows of q onto the circle of ``radius``."""
    if np.any(rows):
        xy = q[rows, :2]
        xy *= (radius / np.linalg.norm(xy, axis=1))[:, None]
        q[rows, :2] = xy


# -- families -------------------------------------------------------------------


class FamilySpec:
    """Base class of the analytic family specifications.

    A family supplies ``build()`` (positions, triangles, boundary labels),
    ``exact(p, b)`` (normal, H and |sigma|^2 at the points ``p``, and a dict
    of the boundary arrays it knows at the boundary vertex ids ``b``),
    ``project(points, labels)``, ``slug``, and, when it meets walls,
    ``walls()`` and ``capillary_vector()``.
    """

    def _check_resolution(self):
        if not isinstance(self.resolution, int) or self.resolution < 3:
            raise InvalidSpecError(f"resolution must be an integer >= 3, got {self.resolution}")

    def walls(self) -> WallSet | None:
        """Supporting wall set induced by the family, None for bare immersions."""
        return None

    def capillary_vector(self):
        """Vector ``a`` of the identity suite's test function; None means zero."""
        return None


@dataclass(frozen=True)
class Cap(FamilySpec):
    """Spherical cap of radius R meeting the wall z = 0 at contact angle theta."""

    R: float
    theta: float
    resolution: int

    def __post_init__(self):
        self._check_resolution()
        if self.R <= 0:
            raise InvalidSpecError(f"cap radius must be positive, got {self.R}")
        if not 0.0 < self.theta < math.pi:
            raise InvalidSpecError(f"contact angle {self.theta} outside (0, pi)")
        if self.R * math.sin(self.theta) < 1e-8 * self.R:
            raise DegenerateFamilyError("cap boundary circle is numerically degenerate")

    @property
    def center(self):
        return np.array([0.0, 0.0, -self.R * math.cos(self.theta)])

    @property
    def slug(self):
        return f"cap_r{self.R:g}_a{math.degrees(self.theta):g}_res{self.resolution}"

    def walls(self):
        return WallSet((Hyperplane(-E3, 0.0),), (self.theta,))

    def capillary_vector(self):
        return np.array([0.0, 0.0, math.cos(self.theta)])

    def build(self):
        n = self.resolution
        # meridian subdivisions balancing the equatorial azimuthal spacing
        m = max(2, round(n * self.theta / (2.0 * math.pi * math.sin(self.theta))))
        R, theta = self.R, self.theta
        c = self.center
        alphas = 2.0 * math.pi * np.arange(n) / n
        pts = [c + np.array([0.0, 0.0, R])]
        for j in range(1, m + 1):
            phi = theta * j / m
            ring = np.column_stack(
                [
                    R * math.sin(phi) * np.cos(alphas),
                    R * math.sin(phi) * np.sin(alphas),
                    np.full(n, R * math.cos(phi) + c[2]),
                ]
            )
            pts.append(ring)
        positions = np.vstack([pts[0][None, :], *pts[1:]])
        # the last ring sits exactly on z = 0: R cos(theta) - R cos(theta)
        positions[1 + (m - 1) * n :, 2] = R * math.cos(theta) + c[2]

        rings = [_ring_indices(1 + j * n, n) for j in range(m)]
        tris = [_fan(0, rings[0], reverse=True)]
        for j in range(m - 1):
            tris.append(_strip(rings[j], rings[j + 1]))
        return positions, np.vstack(tris), {int(v): 0 for v in rings[-1]}

    def exact(self, p, b):
        nv, nb = len(p), len(b)
        rho_hat = _radial(p[b])
        ct, st = math.cos(self.theta), math.sin(self.theta)
        boundary = {
            "conormal": ct * rho_hat - st * E3,
            "wall_conormal": rho_hat,
            "sigma_nn": np.full(nb, 1.0 / self.R),
            "bdry_curv": np.full(nb, -1.0 / (self.R * st)),
            "angle": np.full(nb, self.theta),
        }
        normal = -((p - self.center) / self.R)
        return normal, np.full(nv, 1.0 / self.R), np.full(nv, 2.0 / self.R**2), boundary

    def project(self, points, labels):
        center = self.center
        q = np.array(points, float)
        d = q - center
        q = center + d * (self.R / np.linalg.norm(d, axis=1))[:, None]
        on_wall = labels == 0
        _onto_circle(q, on_wall, self.R * math.sin(self.theta))
        q[on_wall, 2] = 0.0
        return q


@dataclass(frozen=True)
class Cylinder(FamilySpec):
    """Tube of radius r between the slab walls z = 0 and z = L (free boundary)."""

    r: float
    L: float
    resolution: int

    def __post_init__(self):
        self._check_resolution()
        if self.r <= 0 or self.L <= 0:
            raise InvalidSpecError("cylinder radius and length must be positive")

    @property
    def slug(self):
        return f"cylinder_r{self.r:g}_l{self.L:g}_res{self.resolution}"

    def walls(self):
        return WallSet(
            (Hyperplane(-E3, 0.0), Hyperplane(E3, self.L)),
            (math.pi / 2, math.pi / 2),
        )

    def build(self):
        n = self.resolution
        m = max(2, round(n * self.L / (2.0 * math.pi * self.r)))
        alphas = 2.0 * math.pi * np.arange(n) / n
        rows = []
        for j in range(m + 1):
            z = self.L * j / m
            rows.append(
                np.column_stack([self.r * np.cos(alphas), self.r * np.sin(alphas), np.full(n, z)])
            )
        positions = np.vstack(rows)
        rings = [_ring_indices(j * n, n) for j in range(m + 1)]
        tris = np.vstack([_strip(rings[j], rings[j + 1]) for j in range(m)])
        labels = {int(v): 0 for v in rings[0]}
        labels.update({int(v): 1 for v in rings[-1]})
        return positions, tris, labels

    def exact(self, p, b):
        nv, nb = len(p), len(b)
        q = p[b]
        boundary = {
            "conormal": np.where((q[:, 2] > self.L / 2)[:, None], E3, -E3),
            "wall_conormal": _radial(q),
            "sigma_nn": np.zeros(nb),
            "bdry_curv": np.full(nb, -1.0 / self.r),
            "angle": np.full(nb, math.pi / 2),
        }
        # the inward normal is the radial direction of -p
        return _radial(-p), np.full(nv, 0.5 / self.r), np.full(nv, 1.0 / self.r**2), boundary

    def project(self, points, labels):
        q = np.array(points, float)
        rho = np.linalg.norm(q[:, :2], axis=1)
        q[:, :2] *= (self.r / rho)[:, None]
        q[labels == 0, 2] = 0.0
        q[labels == 1, 2] = self.L
        return q


@dataclass(frozen=True)
class FlatDisk(FamilySpec):
    """Flat disk of radius R in the plane z = 0 (minimal, free boundary)."""

    R: float
    resolution: int

    def __post_init__(self):
        self._check_resolution()
        if self.R <= 0:
            raise InvalidSpecError(f"disk radius must be positive, got {self.R}")

    @property
    def slug(self):
        return f"disk_r{self.R:g}_res{self.resolution}"

    def walls(self):
        return WallSet((Hyperplane(-E3, 0.0),), (math.pi / 2,))

    def build(self):
        positions, tris, rings = _disk_grid(self.R, self.resolution)
        return positions, tris, {int(v): 0 for v in rings[-1]}

    def exact(self, p, b):
        nv, nb = len(p), len(b)
        rho_hat = _radial(p[b])
        boundary = {
            "conormal": rho_hat,
            # orientation rule with n1 = -e3 makes the in-wall normal point inward
            "wall_conormal": -rho_hat,
            "sigma_nn": np.zeros(nb),
            "bdry_curv": np.full(nb, 1.0 / self.R),
            "angle": np.full(nb, math.pi),
        }
        return np.tile(E3, (nv, 1)), np.zeros(nv), np.zeros(nv), boundary

    def project(self, points, labels):
        q = np.array(points, float)
        q[:, 2] = 0.0
        _onto_circle(q, labels == 0, self.R)
        return q


@dataclass(frozen=True)
class ClosedSphere(FamilySpec):
    """Round sphere of radius R centered at the origin, no boundary."""

    R: float
    resolution: int

    def __post_init__(self):
        self._check_resolution()
        if self.R <= 0:
            raise InvalidSpecError(f"sphere radius must be positive, got {self.R}")

    @property
    def slug(self):
        return f"sphere_r{self.R:g}_res{self.resolution}"

    def build(self):
        n = self.resolution
        m = max(3, round(n / 2))
        R = self.R
        alphas = 2.0 * math.pi * np.arange(n) / n
        rows = []
        for j in range(1, m):
            phi = math.pi * j / m
            rows.append(
                np.column_stack(
                    [
                        R * math.sin(phi) * np.cos(alphas),
                        R * math.sin(phi) * np.sin(alphas),
                        np.full(n, R * math.cos(phi)),
                    ]
                )
            )
        positions = np.vstack([[0.0, 0.0, R], *rows, [0.0, 0.0, -R]])
        south = positions.shape[0] - 1
        rings = [_ring_indices(1 + j * n, n) for j in range(m - 1)]
        tris = [_fan(0, rings[0], reverse=True)]
        for j in range(m - 2):
            tris.append(_strip(rings[j], rings[j + 1]))
        tris.append(_fan(south, rings[-1]))
        return positions, np.vstack(tris), {}

    def exact(self, p, b):
        nv = len(p)
        return -p / self.R, np.full(nv, 1.0 / self.R), np.full(nv, 2.0 / self.R**2), {}

    def project(self, points, labels):
        q = np.array(points, float)
        return q * (self.R / np.linalg.norm(q, axis=1))[:, None]


@dataclass(frozen=True)
class MongePatch(FamilySpec):
    """Graph z = amplitude sin(x) sin(y) over the disk of radius R.

    Not capillary; used for identities that hold for arbitrary immersions.
    """

    amplitude: float
    R: float
    resolution: int

    def __post_init__(self):
        self._check_resolution()
        if self.amplitude < 0:
            raise InvalidSpecError("amplitude must be nonnegative")
        if self.R <= 0:
            raise InvalidSpecError(f"patch radius must be positive, got {self.R}")

    @property
    def slug(self):
        return f"monge_a{self.amplitude:g}_r{self.R:g}_res{self.resolution}"

    def height(self, x, y):
        return self.amplitude * np.sin(x) * np.sin(y)

    def gradient(self, x, y):
        a = self.amplitude
        return a * np.cos(x) * np.sin(y), a * np.sin(x) * np.cos(y)

    def hessian(self, x, y):
        a = self.amplitude
        fxx = -a * np.sin(x) * np.sin(y)
        fxy = a * np.cos(x) * np.cos(y)
        return fxx, fxy, fxx

    def normal(self, x, y):
        fx, fy = self.gradient(x, y)
        w = np.sqrt(1.0 + fx * fx + fy * fy)
        return np.column_stack([-fx / w, -fy / w, 1.0 / w])

    def curvatures(self, x, y):
        """Mean curvature H and |sigma|^2 of the graph."""
        fx, fy = self.gradient(x, y)
        fxx, fxy, fyy = self.hessian(x, y)
        w2 = 1.0 + fx * fx + fy * fy
        w = np.sqrt(w2)
        H = ((1.0 + fy * fy) * fxx - 2.0 * fx * fy * fxy + (1.0 + fx * fx) * fyy) / (2.0 * w2 * w)
        K = (fxx * fyy - fxy * fxy) / (w2 * w2)
        return H, 4.0 * H * H - 2.0 * K

    def _sigma_nn(self, x, y, nu):
        """sigma(nu, nu) for a tangent direction nu expressed in ambient coordinates."""
        fx, fy = self.gradient(x, y)
        fxx, fxy, fyy = self.hessian(x, y)
        w = math.sqrt(1.0 + fx * fx + fy * fy)
        # tangent basis (1,0,fx), (0,1,fy): in-plane components of nu are its xy parts
        a, b = nu[0], nu[1]
        m1 = (1.0 + fx * fx) * a * a + 2.0 * fx * fy * a * b + (1.0 + fy * fy) * b * b
        m2 = (fxx * a * a + 2.0 * fxy * a * b + fyy * b * b) / w
        return m2 / m1 if m1 > 0 else float("nan")

    def build(self):
        positions, tris, _ = _disk_grid(self.R, self.resolution)
        positions[:, 2] = self.height(positions[:, 0], positions[:, 1])
        return positions, tris, {}

    def exact(self, p, b):
        x, y = p[:, 0], p[:, 1]
        normal = self.normal(x, y)
        H, sigma_sq = self.curvatures(x, y)
        q = p[b]
        t = np.arctan2(q[:, 1], q[:, 0])
        fx, fy = self.gradient(q[:, 0], q[:, 1])
        # rim tangent d/dt (R cos t, R sin t, f)
        tx = -self.R * np.sin(t)
        ty = self.R * np.cos(t)
        tz = fx * tx + fy * ty
        T = np.column_stack([tx, ty, tz])
        T /= np.linalg.norm(T, axis=1)[:, None]
        nu = np.cross(T, normal[b])
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        outward = np.column_stack([np.cos(t), np.sin(t), np.zeros(len(b))])
        flip = np.einsum("ij,ij->i", nu, outward) < 0
        nu[flip] = -nu[flip]
        sigma_nn = np.array([self._sigma_nn(q[i, 0], q[i, 1], nu[i]) for i in range(len(b))])
        return normal, H, sigma_sq, {"conormal": nu, "sigma_nn": sigma_nn}

    def project(self, points, labels):
        q = np.array(points, float)
        q[:, 2] = self.height(q[:, 0], q[:, 1])
        return q


@dataclass(frozen=True)
class CapClosedForms:
    """Exact geometric quantities of a spherical cap."""

    area: float
    wetted_area: float
    boundary_length: float
    energy: float
    volume: float
    mean_curv: float


def cap_closed_forms(R: float, theta: float) -> CapClosedForms:
    """Closed forms for the cap of radius R and contact angle theta.

    area = 2 pi R^2 (1 - cos theta), wetted area = pi R^2 sin^2 theta,
    energy = area - cos(theta) * wetted area, H = 1/R; the enclosed volume is
    that of the spherical segment above the wall.
    """
    if R <= 0:
        raise InvalidSpecError(f"cap radius must be positive, got {R}")
    if not 0.0 < theta < math.pi:
        raise InvalidSpecError(f"contact angle {theta} outside (0, pi)")
    c = math.cos(theta)
    s = math.sin(theta)
    area = 2.0 * math.pi * R * R * (1.0 - c)
    wetted = math.pi * R * R * s * s
    return CapClosedForms(
        area=area,
        wetted_area=wetted,
        boundary_length=2.0 * math.pi * R * s,
        energy=area - c * wetted,
        volume=math.pi * R**3 * (1.0 - c) ** 2 * (2.0 + c) / 3.0,
        mean_curv=1.0 / R,
    )


# -- shared by every family -------------------------------------------------------


def exact_fields(spec: FamilySpec, mesh: LabeledTriMesh) -> GeometryFields:
    """Analytic geometry fields evaluated at the mesh vertices.

    Positions are assumed to lie on the family surface (as produced by
    ``generate_mesh`` or projector-based refinement). Boundary entries the
    family does not define stay NaN.
    """
    bverts = np.array(sorted(mesh.boundary_vertex_set()), dtype=np.int64)
    nb = len(bverts)
    normal, H, sigma_sq, known = spec.exact(mesh.positions, bverts)
    boundary = {
        "conormal": np.full((nb, 3), np.nan),
        "wall_conormal": np.full((nb, 3), np.nan),
        "sigma_nn": np.full(nb, np.nan),
        "bdry_curv": np.full(nb, np.nan),
        "angle": np.full(nb, np.nan),
        **known,
    }
    return GeometryFields(
        normal=normal,
        mean_curv=np.asarray(H, float),
        sigma_sq=np.asarray(sigma_sq, float),
        boundary_vertices=bverts,
        info={"family": type(spec).__name__},
        **boundary,
    )


def generate_mesh(spec: FamilySpec):
    """Structured mesh with vertices exactly on the analytic surface.

    Returns (mesh, fields) where the fields carry the exact analytic values;
    triangle winding follows the mean-curvature-positive normal.
    """
    positions, tris, labels = spec.build()
    fields = exact_fields(spec, LabeledTriMesh(positions, tris, labels))
    # flip all windings if face normals disagree with the exact normals
    cr = np.cross(
        positions[tris[:, 1]] - positions[tris[:, 0]],
        positions[tris[:, 2]] - positions[tris[:, 0]],
    )
    n = fields.normal
    if float(np.einsum("ij,ij->i", cr, n[tris[:, 0]] + n[tris[:, 1]] + n[tris[:, 2]]).sum()) < 0:
        tris = tris[:, [0, 2, 1]]
    return LabeledTriMesh(positions, tris, labels), fields


def surface_projector(spec: FamilySpec):
    """Projector (points, labels) -> points used by midpoint refinement.

    Labeled points are returned on the intersection of the surface with their
    wall plane; interior points on the surface.
    """
    return spec.project


def analytic_test_function(spec: FamilySpec, a, mesh: LabeledTriMesh | None = None):
    """Exact values of phi = 1 + H <psi, N> + <a, N> on a family mesh.

    ``a`` is the capillary vector of the induced wall set; on caps with the
    matching vector this vanishes identically (the equality case).
    """
    if spec.walls() is None:
        raise UnsupportedFamilyError(
            f"analytic test function needs a capillary family, got {type(spec).__name__}"
        )
    if mesh is None:
        mesh, fields = generate_mesh(spec)
    else:
        fields = exact_fields(spec, mesh)
    a = np.asarray(a, float).reshape(3)
    u = np.einsum("ij,ij->i", mesh.positions, fields.normal)
    return 1.0 + fields.mean_curv * u + fields.normal @ a
