"""Closed-form capillary families with exact geometry and structured meshes.

Conventions, used consistently everywhere: the surface normal N is the one
that makes the mean curvature nonnegative (inward for spheres, caps and
tubes), the supporting wall of a cap is the plane z = 0 with exterior domain
normal -e3, and the sphere center of a cap of angle theta sits at height
-R cos(theta), so that cos(theta) = <N, n1> along the boundary circle. The
wall passes through the origin, which the integral identities rely on.

Each family is one ``FamilySpec`` subclass that carries its own geometry:
its structured mesh, its exact fields, its projector, its file-name slug and,
when it has walls, its wall set and capillary vector; a surface of revolution
has its exact fields and walls from its meridian (``RingFamily``). The module
functions below hold only what the families share. Adding a family means one
such class plus one row of ``caplab.cli.FAMILIES``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .discops import GeometryFields
from .errors import DegenerateFamilyError, InvalidSpecError
from .meshkit import Hyperplane, LabeledTriMesh, WallSet

__all__ = [
    "FamilySpec",
    "RingFamily",
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
]

E3 = np.array([0.0, 0.0, 1.0])

# the most vertices a family mesh may have: 160 times the 12,545 of the
# res-256 cap, the largest mesh the benchmark tables name
MAX_VERTICES = 2_000_000


# -- structured mesh pieces -----------------------------------------------------


def _check_vertices(count):
    """Reject a mesh of more than MAX_VERTICES before any array is allocated."""
    if count > MAX_VERTICES:
        raise InvalidSpecError(
            f"the mesh would have {count} or more vertices; at most {MAX_VERTICES} are allowed"
        )


def _strips(rings):
    """Quads between consecutive rows of the (m, n) ring indices, split into triangles.

    Strip j lists its n triangles (a, b, c), then its n triangles (a, c, d),
    for the quad a = rings[j, i], b = rings[j, i + 1], c = rings[j + 1, i + 1],
    d = rings[j + 1, i], i taken mod n.
    """
    a, d = rings[:-1], rings[1:]
    b, c = np.roll(a, -1, axis=1), np.roll(d, -1, axis=1)
    return np.stack([np.stack([a, b, c], axis=-1), np.stack([a, c, d], axis=-1)], axis=1).reshape(-1, 3)


def _fan(apex, ring, reverse=False):
    n = len(ring)
    ln = np.arange(n)
    lp = (ln + 1) % n
    if reverse:
        return np.column_stack([np.full(n, apex), ring[lp], ring[ln]])
    return np.column_stack([np.full(n, apex), ring[ln], ring[lp]])


def _revolution(n, m, ring, top=None, bottom=None):
    """Surface of revolution about the z axis from m meridian samples.

    ``ring(j) -> (rho_j, z_j)`` places ring j < m at the n points
    (rho_j cos a, rho_j sin a, z_j), a = 2 pi i / n. The poles, at heights
    ``top`` and ``bottom`` on the axis, come before and after the rings. Returns
    the positions, the triangles (top fan, strips, bottom fan) and the (m, n)
    ring indices; each family flips the winding it needs.
    """
    poles = (top is not None) + (bottom is not None)
    _check_vertices(m * n + poles)
    alphas = 2.0 * math.pi * np.arange(n) / n
    rho, z = np.array([ring(j) for j in range(m)], float).T
    start = int(top is not None)
    rings = start + np.arange(m * n).reshape(m, n)
    positions = np.empty((m * n + poles, 3))
    positions[start : start + m * n] = np.column_stack(
        [np.outer(rho, np.cos(alphas)).ravel(), np.outer(rho, np.sin(alphas)).ravel(), np.repeat(z, n)]
    )
    tris = []
    if top is not None:
        positions[0] = 0.0, 0.0, top
        tris.append(_fan(0, rings[0], reverse=True))
    tris.append(_strips(rings))
    if bottom is not None:
        positions[-1] = 0.0, 0.0, bottom
        tris.append(_fan(len(positions) - 1, rings[-1]))
    return positions, np.vstack(tris), rings


def _disk(R, n):
    """Polar grid of the disk of radius R in z = 0: n azimuths, rings to match.

    Triangles wind counterclockwise around +e3.
    """
    m = max(2, round(n / (2.0 * math.pi)) + 1)
    positions, tris, rings = _revolution(n, m, lambda j: (R * (j + 1) / m, 0.0), top=0.0)
    return positions, tris[:, [0, 2, 1]], rings


def _onto_circle(q, rows, radius):
    """Move the xy part of the selected rows of q onto the circle of ``radius``."""
    if np.any(rows):
        xy = q[rows, :2]
        xy *= (radius / np.linalg.norm(xy, axis=1))[:, None]
        q[rows, :2] = xy


# -- families -------------------------------------------------------------------


class FamilySpec:
    """Base class of the analytic family specifications.

    A family supplies ``build()`` (positions, triangles wound around the
    normal N, boundary labels), ``exact(p, b)`` (normal, H and |sigma|^2 at
    the points ``p``, and a dict of the boundary arrays it knows at the
    boundary vertex ids ``b``),
    ``project(points, labels)``, ``slug``, and, when it meets walls,
    ``walls()`` and ``capillary_vector()``; a ``RingFamily`` supplies
    ``meridian(p)`` and ``rims`` and has ``exact`` and ``walls`` from them.
    """

    def _check_numbers(self):
        """Reject a resolution off the integers 3 to MAX_VERTICES, and any non-finite field.

        An integral resolution of another type, such as ``np.int64``, is kept as an int.
        """
        res = self.resolution
        if isinstance(res, bool) or not isinstance(res, numbers.Integral) or res < 3:
            raise InvalidSpecError(f"resolution must be an integer >= 3, got {res}")
        object.__setattr__(self, "resolution", int(res))
        _check_vertices(self.resolution)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise InvalidSpecError(f"{type(self).__name__} {f.name} must be finite, got {value}")

    def walls(self) -> WallSet | None:
        """Supporting wall set induced by the family, None for bare immersions."""
        return None

    def capillary_vector(self):
        """Vector ``a`` of the identity suite's test function; None means zero."""
        return None


class RingFamily(FamilySpec):
    """A surface of revolution about the z axis with walls z = const.

    Its meridian makes the angle psi with the horizontal: N = -sin(psi) rho_hat
    + cos(psi) e3 at distance rho from the axis. ``meridian(p)`` gives, at the
    surface points ``p``, the curvatures kappa_p = sin(psi) / rho of the
    parallel (kappa_m on the axis) and kappa_m of the meridian, and cos psi.
    ``rims`` holds one (n_z, offset, radius, angle) per wall in label order:
    the wall <x, n_z e3> = offset, the radius at which the meridian meets it
    and the contact angle the wall set prescribes (pi/2 on a free boundary).
    """

    rims = ()

    def walls(self):
        if not self.rims:
            return None
        planes = tuple(Hyperplane(nz * E3, offset) for nz, offset, _, _ in self.rims)
        return WallSet(planes, tuple(angle for *_, angle in self.rims))

    def exact(self, p, b):
        """N = -kappa_p (x, y, 0) + cos(psi) e3, H = (kappa_m + kappa_p) / 2 and
        |sigma|^2 = kappa_m^2 + kappa_p^2; a boundary vertex takes the frame of
        the nearest wall's rim, where sin(psi) = kappa_p rho. From
        N = -sin(theta) nu_bar + cos(theta) n and nu = cos(theta) nu_bar +
        sin(theta) n: nu_bar = s rho_hat with s the sign of sin psi (where it is
        0 the surface lies in the wall inside its rim: s = sign(n_z cos psi)),
        nu = s n_z (cos(psi) rho_hat + sin(psi) e3), theta = atan2(|sin psi|,
        n_z cos psi), H_bdry = -s / rho and sigma(nu, nu) = kappa_m.
        """
        kappa_p, cos_psi, kappa_m = self.meridian(p)
        normal = p * np.asarray(-kappa_p)[..., None]
        normal[:, 2] = cos_psi
        H = np.full(len(p), (kappa_m + kappa_p) / 2)
        sigma_sq = np.full(len(p), kappa_m * kappa_m + kappa_p * kappa_p)
        if not len(b):
            return normal, H, sigma_sq, {}
        frames = []
        for nz, offset, radius, _ in self.rims:
            kappa_pr, cos_r, kappa_r = self.meridian(np.array([radius, 0.0, nz * offset]))
            sin_r = kappa_pr * radius
            s = math.copysign(1.0, sin_r if sin_r else nz * cos_r)
            angle = math.atan2(abs(sin_r), nz * cos_r)
            frames.append((nz * offset, s * nz, cos_r, sin_r, s, kappa_r, -s / radius, angle))
        frames = np.array(frames)
        if len(frames) > 1:
            frames = frames[np.argmin(np.abs(p[b, 2, None] - frames[:, 0]), axis=1)]
        _, side, cos_r, sin_r, s, kappa_r, curv, angle = frames.T
        rho_hat = p[b]
        rho_hat[:, 2] = 0.0
        rho_hat /= np.sqrt(rho_hat[:, 0] * rho_hat[:, 0] + rho_hat[:, 1] * rho_hat[:, 1])[:, None]
        return normal, H, sigma_sq, {
            "conormal": side[:, None] * (cos_r[:, None] * rho_hat + sin_r[:, None] * E3),
            "wall_conormal": s[:, None] * rho_hat, "sigma_nn": kappa_r, "bdry_curv": curv, "angle": angle,
        }


@dataclass(frozen=True)
class Cap(RingFamily):
    """Spherical cap of radius R meeting the wall z = 0 at contact angle theta."""

    R: float
    theta: float
    resolution: int

    def __post_init__(self):
        self._check_numbers()
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

    @property
    def rims(self):
        return ((-1.0, 0.0, self.R * math.sin(self.theta), self.theta),)

    def capillary_vector(self):
        return np.array([0.0, 0.0, math.cos(self.theta)])

    def build(self):
        n = self.resolution
        # meridian subdivisions balancing the equatorial azimuthal spacing
        m = max(2, round(n * self.theta / (2.0 * math.pi * math.sin(self.theta))))
        R, theta = self.R, self.theta
        c2 = -R * math.cos(theta)

        def ring(j):
            # the last ring takes theta itself: on the wall circle, at z = 0 exactly
            phi = theta if j == m - 1 else theta * (j + 1) / m
            return R * math.sin(phi), R * math.cos(phi) + c2

        positions, tris, rings = _revolution(n, m, ring, top=c2 + R)
        return positions, tris, {int(v): 0 for v in rings[-1]}

    def meridian(self, p):
        return 1.0 / self.R, (-self.R * math.cos(self.theta) - p[..., 2]) / self.R, 1.0 / self.R

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
class Cylinder(RingFamily):
    """Tube of radius r between the slab walls z = 0 and z = L (free boundary)."""

    r: float
    L: float
    resolution: int

    def __post_init__(self):
        self._check_numbers()
        if self.r <= 0 or self.L <= 0:
            raise InvalidSpecError("cylinder radius and length must be positive")

    @property
    def slug(self):
        return f"cylinder_r{self.r:g}_l{self.L:g}_res{self.resolution}"

    @property
    def rims(self):
        return ((-1.0, 0.0, self.r, math.pi / 2), (1.0, self.L, self.r, math.pi / 2))

    def build(self):
        n = self.resolution
        # clipped: an infinite L / r then stays an integer and fails the check
        m = max(2, round(min(n * self.L / (2.0 * math.pi * self.r), MAX_VERTICES)))
        positions, tris, rings = _revolution(n, m + 1, lambda j: (self.r, self.L * j / m))
        labels = {int(v): 0 for v in rings[0]}
        labels.update({int(v): 1 for v in rings[-1]})
        # the strips wind around the outward normal; the tube's is inward
        return positions, tris[:, [0, 2, 1]], labels

    def meridian(self, p):
        return 1.0 / self.r, 0.0, 0.0

    def project(self, points, labels):
        q = np.array(points, float)
        rho = np.linalg.norm(q[:, :2], axis=1)
        q[:, :2] *= (self.r / rho)[:, None]
        q[labels == 0, 2] = 0.0
        q[labels == 1, 2] = self.L
        return q


@dataclass(frozen=True)
class FlatDisk(RingFamily):
    """Flat disk of radius R in the plane z = 0 (minimal, free boundary)."""

    R: float
    resolution: int

    def __post_init__(self):
        self._check_numbers()
        if self.R <= 0:
            raise InvalidSpecError(f"disk radius must be positive, got {self.R}")

    @property
    def slug(self):
        return f"disk_r{self.R:g}_res{self.resolution}"

    @property
    def rims(self):
        return ((-1.0, 0.0, self.R, math.pi / 2),)

    def build(self):
        positions, tris, rings = _disk(self.R, self.resolution)
        return positions, tris, {int(v): 0 for v in rings[-1]}

    def meridian(self, p):
        return 0.0, 1.0, 0.0

    def project(self, points, labels):
        q = np.array(points, float)
        q[:, 2] = 0.0
        _onto_circle(q, labels == 0, self.R)
        return q


@dataclass(frozen=True)
class ClosedSphere(RingFamily):
    """Round sphere of radius R centered at the origin, no boundary."""

    R: float
    resolution: int

    def __post_init__(self):
        self._check_numbers()
        if self.R <= 0:
            raise InvalidSpecError(f"sphere radius must be positive, got {self.R}")

    @property
    def slug(self):
        return f"sphere_r{self.R:g}_res{self.resolution}"

    def build(self):
        n = self.resolution
        m = max(3, round(n / 2))
        R = self.R

        def ring(j):
            phi = math.pi * (j + 1) / m
            return R * math.sin(phi), R * math.cos(phi)

        positions, tris, _ = _revolution(n, m - 1, ring, top=R, bottom=-R)
        return positions, tris, {}

    def meridian(self, p):
        return 1.0 / self.R, -p[..., 2] / self.R, 1.0 / self.R

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
        self._check_numbers()
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

    def build(self):
        positions, tris, _ = _disk(self.R, self.resolution)
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
        # sigma(nu, nu) in the tangent basis (1,0,fx), (0,1,fy): nu's in-plane
        # components are its xy parts
        fxx, fxy, fyy = self.hessian(q[:, 0], q[:, 1])
        w = np.sqrt(1.0 + fx * fx + fy * fy)
        nx, ny = nu[:, 0], nu[:, 1]
        m1 = (1.0 + fx * fx) * nx * nx + 2.0 * fx * fy * nx * ny + (1.0 + fy * fy) * ny * ny
        m2 = (fxx * nx * nx + 2.0 * fxy * nx * ny + fyy * ny * ny) / w
        sigma_nn = np.divide(m2, m1, out=np.full(len(b), np.nan), where=m1 > 0)
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
    ``generate_mesh`` or projector-based refinement). The boundary fields
    are NaN off the boundary and wherever the family does not define them.
    """
    b = mesh.boundary_vertices
    normal, H, sigma_sq, known = spec.exact(mesh.positions, b)
    nan, nan3 = np.full(mesh.nv, np.nan), np.full((mesh.nv, 3), np.nan)
    boundary = dict(conormal=nan3, wall_conormal=nan3.copy(), sigma_nn=nan, bdry_curv=nan.copy(), angle=nan.copy())
    for name, values in known.items():
        boundary[name][b] = values
    info = {"family": type(spec).__name__}
    return GeometryFields(normal=normal, mean_curv=H, sigma_sq=sigma_sq, info=info, **boundary)


def generate_mesh(spec: FamilySpec):
    """Structured mesh with vertices exactly on the analytic surface.

    Returns (mesh, fields) where the fields carry the exact analytic values;
    each family's ``build()`` winds its triangles around the
    mean-curvature-positive normal.
    """
    mesh = LabeledTriMesh(*spec.build(), copy=False)
    return mesh, exact_fields(spec, mesh)


def surface_projector(spec: FamilySpec):
    """Projector (points, labels) -> points used by midpoint refinement.

    Labeled points are returned on the intersection of the surface with their
    wall plane; interior points on the surface.
    """
    return spec.project
