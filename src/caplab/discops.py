"""Discrete differential operators on labeled triangle meshes.

Sign conventions are pinned to make a sphere with inward normal have positive
curvatures: the second fundamental form is sigma(X, Y) = <-D_X N, Y>, the mean
curvature is the average H = (k1 + k2) / 2, and the orientation of the vertex
normal field is flipped globally whenever the mean discrete H comes out
negative, so that H >= 0 on constant-mean-curvature input; a mean H at
rounding level leaves the orientation of the mesh winding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import DegenerateElementError, FitFailureError, InvalidMeshError
from .meshkit import LabeledTriMesh, WallSet

logger = logging.getLogger(__name__)

# ambient formulas are written for surface dimension n = 2 but keep the factor
# symbolic where the general statement has one
NDIM = 2

__all__ = [
    "NDIM",
    "GeometryFields",
    "OperatorSet",
    "assemble_operators",
    "weighted_mass",
    "estimate_fields",
    "integrate_scalar",
    "integrate_vector",
    "principal_direction_residual",
    "export_fields_csv",
]


@dataclass
class GeometryFields:
    """Per-vertex geometry of an immersed mesh.

    ``normal``, ``mean_curv`` (H) and ``sigma_sq`` (|sigma|^2) cover every
    vertex. The remaining arrays are aligned with ``boundary_vertices`` (sorted
    vertex ids): exterior conormal ``conormal`` (nu), in-wall normal
    ``wall_conormal`` (nu-bar), ``sigma_nn`` = sigma(nu, nu), signed boundary
    curvature ``bdry_curv`` (w.r.t. nu-bar) and measured contact ``angle``.
    Wall-dependent entries are NaN for meshes without supporting walls.
    """

    normal: np.ndarray
    mean_curv: np.ndarray
    sigma_sq: np.ndarray
    boundary_vertices: np.ndarray
    conormal: np.ndarray
    wall_conormal: np.ndarray
    sigma_nn: np.ndarray
    bdry_curv: np.ndarray
    angle: np.ndarray
    info: dict = field(default_factory=dict)

    @property
    def nv(self):
        return self.normal.shape[0]

    def boundary_index(self, vertices):
        idx = np.searchsorted(self.boundary_vertices, vertices)
        if np.any(idx >= len(self.boundary_vertices)) or np.any(
            self.boundary_vertices[np.minimum(idx, len(self.boundary_vertices) - 1)] != vertices
        ):
            raise KeyError("vertex is not a boundary vertex")
        return idx

    def full(self, name, fill=0.0):
        """Boundary array scattered to vertex length, ``fill`` off-boundary."""
        values = getattr(self, name)
        out_shape = (self.nv,) + values.shape[1:]
        out = np.full(out_shape, fill, dtype=float)
        out[self.boundary_vertices] = values
        return out

    def transformed(self, matrix):
        """Fields of the mesh rotated by an orthogonal ``matrix``."""
        R = np.asarray(matrix, float)
        return GeometryFields(
            normal=self.normal @ R.T,
            mean_curv=self.mean_curv.copy(),
            sigma_sq=self.sigma_sq.copy(),
            boundary_vertices=self.boundary_vertices.copy(),
            conormal=self.conormal @ R.T,
            wall_conormal=self.wall_conormal @ R.T,
            sigma_nn=self.sigma_nn.copy(),
            bdry_curv=self.bdry_curv.copy(),
            angle=self.angle.copy(),
            info=dict(self.info),
        )

    def scaled(self, s):
        """Fields of the mesh dilated by ``s``: curvatures scale like 1/s."""
        s = float(s)
        return GeometryFields(
            normal=self.normal.copy(),
            mean_curv=self.mean_curv / s,
            sigma_sq=self.sigma_sq / s**2,
            boundary_vertices=self.boundary_vertices.copy(),
            conormal=self.conormal.copy(),
            wall_conormal=self.wall_conormal.copy(),
            sigma_nn=self.sigma_nn / s,
            bdry_curv=self.bdry_curv / s,
            angle=self.angle.copy(),
            info=dict(self.info),
        )


@dataclass
class OperatorSet:
    """Mass, stiffness and boundary line-measure matrices of a mesh.

    ``M`` is the consistent Galerkin surface mass matrix, ``K`` the standard
    piecewise-linear Dirichlet form with natural boundary treatment, ``B_wall``
    maps a wall index to the diagonal matrix lumping half of each of its
    boundary edges onto the endpoints, and ``B_all`` does the same for the
    whole boundary regardless of labels.
    """

    M: sparse.csr_matrix
    K: sparse.csr_matrix
    B_wall: dict
    B_all: sparse.csr_matrix

    @property
    def nv(self):
        return self.M.shape[0]

    @property
    def area(self):
        return float(self.M.sum())

    def boundary_lengths(self):
        return {w: float(B.sum()) for w, B in self.B_wall.items()}

    def lumped_mass(self):
        return np.asarray(self.M.sum(axis=1)).ravel()


def _triangle_geometry(mesh):
    p = mesh.positions
    t = mesh.triangles
    cr = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
    areas = 0.5 * np.linalg.norm(cr, axis=1)
    if len(areas):
        floor = 1e-14 * areas.mean()
        bad = np.nonzero(areas < floor)[0]
        if len(bad):
            raise DegenerateElementError(
                f"triangle {int(bad[0])} has area {areas[bad[0]]:.3g} below {floor:.3g}"
            )
    return areas


def assemble_operators(mesh: LabeledTriMesh) -> OperatorSet:
    """Assemble mass, cotangent stiffness and boundary measures."""
    if mesh.nv == 0 or mesh.nf == 0:
        raise InvalidMeshError("cannot assemble operators on an empty mesh")
    p = mesh.positions
    t = mesh.triangles
    areas = _triangle_geometry(mesh)
    nv = mesh.nv

    # consistent mass: A/6 on the diagonal, A/12 off-diagonal per triangle
    ii, jj, vv = [], [], []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        ii.append(t[:, a])
        jj.append(t[:, b])
        vv.append(areas / 12.0)
        ii.append(t[:, b])
        jj.append(t[:, a])
        vv.append(areas / 12.0)
    for a in range(3):
        ii.append(t[:, a])
        jj.append(t[:, a])
        vv.append(areas / 6.0)
    M = sparse.csr_matrix(
        (np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))), shape=(nv, nv)
    )

    # cotangent stiffness: for the corner opposite an edge, cot = <u, v>/(2A),
    # and each triangle adds cot/2 to its opposite edge weight
    ii, jj, vv = [], [], []
    for corner, (a, b) in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        u = p[t[:, a]] - p[t[:, corner]]
        w = p[t[:, b]] - p[t[:, corner]]
        half_cot = np.einsum("ij,ij->i", u, w) / (4.0 * areas)
        ii.extend([t[:, a], t[:, b], t[:, a], t[:, b]])
        jj.extend([t[:, b], t[:, a], t[:, a], t[:, b]])
        vv.extend([-half_cot, -half_cot, half_cot, half_cot])
    K = sparse.csr_matrix(
        (np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))), shape=(nv, nv)
    )

    be = mesh.boundary_edges()
    diag_all = np.zeros(nv)
    diag_wall = {}
    labels = mesh.boundary_labels
    if len(be):
        lengths = np.linalg.norm(p[be[:, 1]] - p[be[:, 0]], axis=1)
        for (a, b), le in zip(be, lengths):
            diag_all[a] += 0.5 * le
            diag_all[b] += 0.5 * le
            la, lb = labels.get(int(a)), labels.get(int(b))
            if la is not None and la == lb:
                d = diag_wall.setdefault(la, np.zeros(nv))
                d[a] += 0.5 * le
                d[b] += 0.5 * le
    B_wall = {w: sparse.diags(d).tocsr() for w, d in sorted(diag_wall.items())}
    return OperatorSet(M=M, K=K, B_wall=B_wall, B_all=sparse.diags(diag_all).tocsr())


def weighted_mass(mesh: LabeledTriMesh, weights) -> sparse.csr_matrix:
    """Consistent mass matrix of the piecewise-linear weight function.

    Entries are exact integrals of w * phi_i * phi_j with w interpolating the
    per-vertex ``weights``.
    """
    w = np.asarray(weights, float)
    if w.shape != (mesh.nv,):
        raise ValueError("need one weight per vertex")
    t = mesh.triangles
    areas = _triangle_geometry(mesh)
    wt = w[t]
    ii, jj, vv = [], [], []
    for a in range(3):
        others = wt.sum(axis=1) - wt[:, a]
        ii.append(t[:, a])
        jj.append(t[:, a])
        vv.append(areas * (wt[:, a] / 10.0 + others / 30.0))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        c = 3 - a - b
        val = areas * ((wt[:, a] + wt[:, b]) / 30.0 + wt[:, c] / 60.0)
        ii.extend([t[:, a], t[:, b]])
        jj.extend([t[:, b], t[:, a]])
        vv.extend([val, val])
    return sparse.csr_matrix(
        (np.concatenate(vv), (np.concatenate(ii), np.concatenate(jj))), shape=(mesh.nv, mesh.nv)
    )


def integrate_scalar(matrix, values) -> float:
    """1^T (matrix) f, realizing the surface or line integral of f."""
    f = np.asarray(values, float)
    if f.shape != (matrix.shape[1],):
        raise ValueError(f"expected {matrix.shape[1]} values, got shape {f.shape}")
    return float((matrix @ f).sum())


def integrate_vector(matrix, values) -> np.ndarray:
    """Componentwise 1^T (matrix) F for per-vertex vectors F."""
    f = np.asarray(values, float)
    if f.ndim != 2 or f.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected ({matrix.shape[1]}, d) values, got shape {f.shape}")
    return np.asarray((matrix @ f).sum(axis=0)).ravel()


# -- field estimation -----------------------------------------------------------


def _vertex_normals(mesh):
    """Angle-weighted average of incident triangle normals."""
    p = mesh.positions
    t = mesh.triangles
    fn = mesh.triangle_normals()
    ang = np.empty((3, mesh.nf))
    for corner in range(3):
        a = p[t[:, (corner + 1) % 3]] - p[t[:, corner]]
        b = p[t[:, (corner + 2) % 3]] - p[t[:, corner]]
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        cosang = np.clip(np.einsum("ij,ij->i", a, b) / np.maximum(na * nb, 1e-300), -1, 1)
        ang[corner] = np.arccos(cosang)
    # each vertex sums its corners in a fixed order: corner 0 of every triangle, then 1, then 2
    corners = t.T.ravel()
    acc = np.column_stack(
        [np.bincount(corners, weights=(ang * fn[:, j]).ravel(), minlength=mesh.nv) for j in range(3)]
    )
    nrm = np.linalg.norm(acc, axis=1)
    nrm[nrm == 0] = 1.0
    return acc / nrm[:, None]


def _two_rings(mesh):
    adj = mesh.adj_sym.copy()
    adj.data[:] = 1
    ring2 = (adj + adj @ adj).tocsr()
    ring2.data[:] = 1
    return ring2


# vertices per batched fit: bounds the (block, stencil, 6) design arrays, so a
# large bucket of regular vertices costs no more memory than the cap apex
FIT_BLOCK = 1024

# past this ratio of |R_ii| the triangle may hide a singular value that a
# truncated-SVD least-squares solve drops; such stencils are solved that way
_COND_LIMIT = 1.0 / math.sqrt(np.finfo(float).eps)


class _Fits(NamedTuple):
    """Quadric fits at a list of vertices, one row each.

    ``m1`` and ``m2`` are the first and second fundamental forms as symmetric
    2x2 entries (xx, xy, yy) in the tangent frame ``(t1, t2)``; sigma(X, X) =
    x^T M2 x / x^T M1 x for a tangent direction with frame coordinates x.
    ``normal`` is the fitted surface normal, ``size`` the number of stencil
    points and ``cond`` the ratio of the largest to the smallest |R_ii| of
    the least-squares triangle.
    """

    m1: np.ndarray
    m2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    normal: np.ndarray
    size: np.ndarray
    cond: np.ndarray


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _form(m, q):
    """q^T M q for rows of symmetric 2x2 entries (xx, xy, yy)."""
    return (q[:, 0] * m[:, 0] + q[:, 1] * m[:, 1]) * q[:, 0] + (
        q[:, 0] * m[:, 1] + q[:, 1] * m[:, 2]
    ) * q[:, 1]


def _tangent_frames(n):
    axis = np.zeros_like(n)
    axis[np.arange(len(n)), np.argmin(np.abs(n), axis=1)] = 1.0
    t1 = np.cross(n, axis)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    return t1, np.cross(n, t1)


def _quadric_pass(d, w, n):
    """Weighted least-squares height fits over a block of equal-size stencils.

    ``d`` holds (b, c, 3) offsets from the centers, ``w`` their weights and
    ``n`` the normals fixing each tangent frame. Fits z = p1 x + p2 y +
    (fxx x^2 + 2 fxy x y + fyy y^2) / 2 and returns (t1, t2, coef, cond) with
    coef = (p1, p2, fxx, fxy, fyy).
    """
    t1, t2 = _tangent_frames(n)
    x = np.einsum("bcj,bj->bc", d, t1)
    y = np.einsum("bcj,bj->bc", d, t2)
    z = np.einsum("bcj,bj->bc", d, n)
    A = np.stack([x, y, 0.5 * x * x, x * y, 0.5 * y * y, z], axis=2) * w[:, :, None]
    # A = QR: the leading 5x5 triangle against the sixth column of R is the
    # least-squares system, so Q is never formed
    R = np.linalg.qr(A, mode="r")
    U, rhs = R[:, :5, :5], R[:, :5, 5:]
    diag = np.abs(np.diagonal(U, axis1=1, axis2=2))
    dmax, dmin = diag.max(axis=1), diag.min(axis=1)
    cond = np.divide(dmax, dmin, out=np.full(len(d), np.inf), where=dmin > 0)
    coef = np.empty((len(d), 5))
    good = cond < _COND_LIMIT
    coef[good] = np.linalg.solve(U[good], rhs[good])[:, :, 0]
    if not good.all():
        bad = ~good
        cutoff = np.finfo(float).eps * A.shape[1]
        coef[bad] = (np.linalg.pinv(A[bad, :, :5], rcond=cutoff) @ A[bad, :, 5:])[:, :, 0]
    return t1, t2, coef, cond


def _fit_quadrics(mesh, verts, normals, passes):
    """Quadric fits over the 2-ring stencils of ``verts``.

    The first pass works in the tangent plane of ``normals``; each further
    pass uses the plane regressed by the one before, which removes the
    one-sided bias of averaged normals at the boundary. Stencils are grouped
    by size and fitted FIT_BLOCK vertices at a time, so nothing is padded.
    """
    # stencil of v: its 2-ring without v, as cols[starts[v] : starts[v] + counts[v]]
    rings = _two_rings(mesh)
    rows = np.repeat(np.arange(mesh.nv), np.diff(rings.indptr))
    keep = rings.indices != rows
    cols = rings.indices[keep]
    counts = np.bincount(rows[keep], minlength=mesh.nv)
    starts = np.cumsum(counts) - counts
    size = counts[verts]
    small = np.flatnonzero(size < 5)
    if len(small):
        v = int(verts[small[0]])
        raise FitFailureError(
            f"vertex {v} has a stencil of {int(counts[v])} points, too small for a "
            "quadric fit (valence too low)"
        )
    p = mesh.positions
    scale = mesh.bbox_diameter()
    k = len(verts)
    m1, m2 = np.empty((k, 3)), np.empty((k, 3))
    t1, t2, normal = np.empty((k, 3)), np.empty((k, 3)), np.empty((k, 3))
    cond = np.empty(k)
    for c in np.unique(size):
        group = np.flatnonzero(size == c)
        for lo in range(0, len(group), FIT_BLOCK):
            sel = group[lo : lo + FIT_BLOCK]
            v = verts[sel]
            d = p[cols[starts[v][:, None] + np.arange(c)]] - p[v][:, None, :]
            w = 1.0 / (np.linalg.norm(d, axis=2) + 1e-8 * scale)
            n = normals[sel]
            for _ in range(passes):
                f1, f2, coef, kappa = _quadric_pass(d, w, n)
                p1, p2 = coef[:, 0], coef[:, 1]
                W = np.sqrt(1.0 + p1 * p1 + p2 * p2)
                n = (n - p1[:, None] * f1 - p2[:, None] * f2) / W[:, None]
            m1[sel] = np.column_stack([1.0 + p1 * p1, p1 * p2, 1.0 + p2 * p2])
            m2[sel] = coef[:, 2:] / W[:, None]
            t1[sel], t2[sel], normal[sel], cond[sel] = f1, f2, n, kappa
    return _Fits(m1, m2, t1, t2, normal, size, cond)


def _pencil_curvatures(m1, m2):
    """Roots k1 <= k2 of det(M2 - k M1) = 0 per row (M1 positive)."""
    a2 = m1[:, 0] * m1[:, 2] - m1[:, 1] ** 2
    a1 = -(m2[:, 0] * m1[:, 2] + m2[:, 2] * m1[:, 0] - 2.0 * m2[:, 1] * m1[:, 1])
    a0 = m2[:, 0] * m2[:, 2] - m2[:, 1] ** 2
    r = np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * a0, 0.0))
    return (-a1 - r) / (2 * a2), (-a1 + r) / (2 * a2)


def estimate_fields(mesh: LabeledTriMesh, walls: WallSet | None = None) -> GeometryFields:
    """Estimate all geometry fields from the raw mesh.

    Normals start as angle-weighted averages of triangle normals. The shape
    operator comes from a weighted least-squares quadric fit over the 2-ring
    of each vertex (one-sided at the boundary), done twice: the second fit
    works in the tangent plane regressed by the first, and its normal is the
    vertex normal. The fits are batched: stencils of equal size are solved
    together, at most ``FIT_BLOCK`` at a time, by a QR of the weighted design
    matrix. Normals are flipped globally if the mean H comes out negative,
    unless |mean H| * diameter < 1e-8: that sign is rounding, so the normals
    keep the mesh winding and ``info`` gains ``orientation: "winding"``.
    Boundary quantities come from each boundary loop and the wall data.

    ``info`` records ``flipped`` and ``mean_H``, and where estimation
    struggled: ``min_stencil`` (fewest fit points), ``max_fit_cond`` (worst
    max/min |R_ii| of the second fits) and ``nonfinite_boundary`` (boundary
    vertices whose conormal or sigma(nu, nu) is undefined).
    """
    if mesh.nv == 0 or mesh.nf == 0:
        raise InvalidMeshError("cannot estimate fields on an empty mesh")
    p = mesh.positions
    nv = mesh.nv
    scale = mesh.bbox_diameter()
    fits = _fit_quadrics(mesh, np.arange(nv), _vertex_normals(mesh), passes=2)
    normals = fits.normal
    k1, k2 = _pencil_curvatures(fits.m1, fits.m2)
    H = 0.5 * (k1 + k2)
    sigma_sq = k1 * k1 + k2 * k2

    areas_lumped = np.bincount(
        mesh.triangles.ravel(), weights=np.repeat(mesh.triangle_areas() / 3.0, 3), minlength=nv
    )
    mean_H = float(H @ areas_lumped / areas_lumped.sum())
    # a mean H at rounding level has no sign to follow: keep the winding
    winding = abs(mean_H) * scale < 1e-8
    flipped = mean_H < 0 and not winding
    if flipped:
        normals = -normals
        H = -H
    if winding:
        logger.warning("mean curvature is numerically zero; normals follow the mesh winding")

    # boundary structure
    loops = mesh.boundary_loops()
    bverts = np.array(sorted({v for loop in loops for v in loop}), dtype=np.int64)
    nb = len(bverts)
    conormal = np.full((nb, 3), np.nan)
    wall_conormal = np.full((nb, 3), np.nan)
    sigma_nn = np.full(nb, np.nan)
    bdry_curv = np.full(nb, np.nan)
    angle = np.full(nb, np.nan)

    if loops:
        v = np.concatenate(loops)
        prev = np.concatenate([np.roll(loop, 1) for loop in loops])
        nxt = np.concatenate([np.roll(loop, -1) for loop in loops])
        # a zero tangent or a tangent along the normal leaves the entry NaN
        T = p[nxt] - p[prev]
        tn = np.linalg.norm(T, axis=1)
        keep = tn != 0
        v, prev, nxt, T = v[keep], prev[keep], nxt[keep], T[keep] / tn[keep, None]
        N = normals[v]
        nu = np.cross(T, N)
        nu -= N * _dot(nu, N)[:, None]
        nrm = np.linalg.norm(nu, axis=1)
        keep = nrm != 0
        v, prev, nxt, T, N = v[keep], prev[keep], nxt[keep], T[keep], N[keep]
        nu = nu[keep] / nrm[keep, None]
        adj = mesh.adj_sym
        ring1 = sparse.csr_matrix((np.ones(adj.nnz), adj.indices, adj.indptr), shape=adj.shape)[v]
        interior_dir = ring1 @ p / np.diff(adj.indptr)[v][:, None] - p[v]
        nu[_dot(nu, interior_dir) > 0] *= -1.0
        i = np.searchsorted(bverts, v)
        conormal[i] = nu

        q = np.column_stack([_dot(nu, fits.t1[v]), _dot(nu, fits.t2[v])])
        denom = _form(fits.m1[v], q)
        pos = denom > 0
        m2 = -fits.m2[v[pos]] if flipped else fits.m2[v[pos]]
        sigma_nn[i[pos]] = _form(m2, q[pos]) / denom[pos]

        if walls is not None:
            labels = mesh.boundary_labels
            label = np.full(nv, -1)
            label[list(labels)] = list(labels.values())
            w = label[v]
            on = (w >= 0) & (w < len(walls))
            v, prev, nxt, T, N, nu, i = (a[on] for a in (v, prev, nxt, T, N, nu, i))
            n_i = walls.normals[w[on]]
            angle[i] = np.arccos(np.clip(_dot(N, n_i), -1.0, 1.0))
            nb_raw = np.cross(n_i, T)
            nrm = np.linalg.norm(nb_raw, axis=1)
            keep = nrm > 0
            v, prev, nxt, T, N, nu, i, n_i = (
                a[keep] for a in (v, prev, nxt, T, N, nu, i, n_i)
            )
            nb_vec = nb_raw[keep] / nrm[keep, None]
            s_surface = _dot(np.cross(N, nu), T)
            s_wall = _dot(np.cross(n_i, nb_vec), T)
            nb_vec[s_surface * s_wall < 0] *= -1.0
            wall_conormal[i] = nb_vec
            # circumscribed-circle curvature of the boundary polyline
            a = p[prev] - p[v]
            b = p[nxt] - p[v]
            area2 = np.linalg.norm(np.cross(a, b), axis=1)
            denom = (
                np.linalg.norm(a, axis=1)
                * np.linalg.norm(b, axis=1)
                * np.linalg.norm(p[nxt] - p[prev], axis=1)
            )
            kappa = np.divide(2.0 * area2, denom, out=np.zeros(len(v)), where=denom > 0)
            bdry_curv[i] = np.where(kappa > 0, np.copysign(kappa, _dot(a + b, nb_vec)), 0.0)

    nonfinite = ~np.isfinite(conormal).all(axis=1) | ~np.isfinite(sigma_nn)
    return GeometryFields(
        normal=normals,
        mean_curv=H,
        sigma_sq=sigma_sq,
        boundary_vertices=bverts,
        conormal=conormal,
        wall_conormal=wall_conormal,
        sigma_nn=sigma_nn,
        bdry_curv=bdry_curv,
        angle=angle,
        info={
            "flipped": flipped,
            "mean_H": mean_H,
            "min_stencil": int(fits.size.min()),
            "max_fit_cond": float(fits.cond.max()),
            "nonfinite_boundary": int(nonfinite.sum()),
            **({"orientation": "winding"} if winding else {}),
        },
    )


def principal_direction_residual(mesh: LabeledTriMesh, walls: WallSet | None = None):
    """Check that the conormal is a principal direction at the boundary.

    Returns per-boundary-vertex ||S nu - (nu^T S nu) nu|| / ||S|| measured in
    the frame of a quadric fitted about the estimated normal; small values
    confirm the boundary principal direction property of capillary
    immersions.
    """
    fields = estimate_fields(mesh, walls)
    out = np.full(len(fields.boundary_vertices), np.nan)
    live = np.flatnonzero(np.isfinite(fields.conormal).all(axis=1))
    if not len(live):
        return fields.boundary_vertices, out
    v = fields.boundary_vertices[live]
    fits = _fit_quadrics(mesh, v, fields.normal[v], passes=1)
    m2 = -fits.m2 if fields.info["flipped"] else fits.m2

    def square(m):
        return np.stack([m[:, :2], m[:, 1:]], axis=1)

    # shape operator in the frame: S = M1^{-1} M2
    S = np.linalg.solve(square(fits.m1), square(m2))
    nu = fields.conormal[live]
    q = np.column_stack([_dot(nu, fits.t1), _dot(nu, fits.t2)])
    qn = np.linalg.norm(q, axis=1)
    keep = qn != 0
    S, q = S[keep], q[keep] / qn[keep, None]
    Sq = np.einsum("bij,bj->bi", S, q)
    resid = np.linalg.norm(Sq - _dot(q, Sq)[:, None] * q, axis=1)
    norm_S = np.linalg.norm(S, 2, axis=(1, 2))
    out[live[keep]] = np.divide(resid, norm_S, out=np.zeros(len(S)), where=norm_S > 0)
    return fields.boundary_vertices, out


def export_fields_csv(mesh: LabeledTriMesh, fields: GeometryFields, path):
    """Per-vertex CSV of every field (boundary columns empty off-boundary).

    Numbers are written with ``%.17g`` and lines end in CRLF, the csv
    module's default dialect.
    """
    path = Path(path)
    table = np.full((mesh.nv, 17), np.nan)
    table[:, :8] = np.column_stack(
        [mesh.positions, fields.normal, fields.mean_curv, fields.sigma_sq]
    )
    b = fields.boundary_vertices
    table[b, 8:] = np.column_stack(
        [fields.conormal, fields.wall_conormal, fields.sigma_nn, fields.bdry_curv, fields.angle]
    )
    on_boundary = np.zeros(mesh.nv, dtype=bool)
    on_boundary[b] = True
    boundary_row = "%d" + ",%.17g" * 17
    interior_row = "%d" + ",%.17g" * 8 + "," * 9
    lines = [
        "vertex,x,y,z,normal_x,normal_y,normal_z,mean_curv,sigma_sq,"
        "conormal_x,conormal_y,conormal_z,wall_conormal_x,wall_conormal_y,wall_conormal_z,"
        "sigma_nn,bdry_curv,angle"
    ]
    for v, (row, full) in enumerate(zip(table.tolist(), on_boundary.tolist())):
        lines.append(boundary_row % (v, *row) if full else interior_row % (v, *row[:8]))
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    return path
