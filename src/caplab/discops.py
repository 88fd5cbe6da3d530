"""Discrete differential operators on labeled triangle meshes.

Sign conventions are pinned to make a sphere with inward normal have positive
curvatures: the second fundamental form is sigma(X, Y) = <-D_X N, Y>, the mean
curvature is the average H = (k1 + k2) / 2, and the orientation of the vertex
normal field is flipped globally whenever the mean discrete H comes out
negative, so that H >= 0 on constant-mean-curvature input; a mean H at
rounding level leaves the orientation of the mesh winding.

The mass, stiffness and weighted-mass matrices are summed from 3x3 element
matrices with ``np.bincount`` into the mesh's cached ``pair_pattern``: no
per-matrix COO build or index sort, one shared set of index arrays, and
exact symmetry. The triangle areas and cotangents come from the corner
edges gathered one coordinate plane at a time; the weighted mass reuses the
areas of the mesh's ``operators``. The boundary measures are diagonal CSR
matrices built directly.
``OperatorSet.mean`` is the one mean of a vertex field, and so the one H-bar.
Field estimation takes its 1-ring, the mesh's one adjacency, from the same
pattern without its diagonal, its normals from the same corner edges, and
its curvatures from one two-pass quadric fit per vertex, solved from the
normal equations of an equilibrated design; where those fail, the same
design is solved by QR, its triangle pseudo-inverted after unscaling.
The columns of the per-vertex fields table are chosen here, as
``FIELD_COLUMNS`` and the rows of ``field_rows``; ``reports.write_table``
formats and writes it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
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
    "FIELD_COLUMNS",
    "field_rows",
]


@dataclass
class GeometryFields:
    """Per-vertex geometry of an immersed mesh: every array has one row per vertex.

    ``normal``, ``mean_curv`` (H) and ``sigma_sq`` (|sigma|^2) cover every
    vertex. The boundary fields are NaN off the boundary: exterior conormal
    ``conormal`` (nu), in-wall normal ``wall_conormal`` (nu-bar),
    ``sigma_nn`` = sigma(nu, nu), signed boundary curvature ``bdry_curv``
    (w.r.t. nu-bar) and measured contact ``angle``. They are read through the
    boundary measures, which store no interior entries, or at boundary
    vertices, so the NaN never reaches a sum. Wall-dependent entries are NaN
    for meshes without supporting walls.
    """

    normal: np.ndarray
    mean_curv: np.ndarray
    sigma_sq: np.ndarray
    conormal: np.ndarray
    wall_conormal: np.ndarray
    sigma_nn: np.ndarray
    bdry_curv: np.ndarray
    angle: np.ndarray
    info: dict = field(default_factory=dict)

    def transformed(self, matrix):
        """Fields of the mesh rotated by an orthogonal ``matrix``."""
        R = np.asarray(matrix, float)
        return replace(
            self,
            normal=self.normal @ R.T,
            conormal=self.conormal @ R.T,
            wall_conormal=self.wall_conormal @ R.T,
        )

    def scaled(self, s):
        """Fields of the mesh dilated by ``s``: curvatures scale like 1/s."""
        s = float(s)
        return replace(
            self,
            mean_curv=self.mean_curv / s,
            sigma_sq=self.sigma_sq / s**2,
            sigma_nn=self.sigma_nn / s,
            bdry_curv=self.bdry_curv / s,
        )


@dataclass
class OperatorSet:
    """Mass, stiffness and boundary line-measure matrices of a mesh.

    ``M`` is the consistent Galerkin surface mass matrix, ``K`` the standard
    piecewise-linear Dirichlet form with natural boundary treatment, ``B_wall``
    maps a wall index to the diagonal matrix lumping half of each of its
    boundary edges onto the endpoints, and ``B_all`` does the same for the
    whole boundary regardless of labels. ``areas`` holds the triangle areas
    the matrices were summed from. The total area, the row sums of ``M`` and
    the wall lengths are computed on first use, once. A mesh keeps its set
    as ``LabeledTriMesh.operators``, so every array here is read-only.
    """

    M: sparse.csr_matrix
    K: sparse.csr_matrix
    B_wall: dict
    B_all: sparse.csr_matrix
    areas: np.ndarray

    @cached_property
    def area(self):
        return float(self.M.sum())

    @cached_property
    def boundary_lengths(self):
        """Length of each wall's boundary, by wall index."""
        return MappingProxyType({w: float(B.sum()) for w, B in self.B_wall.items()})

    @cached_property
    def lumped_mass(self):
        """Row sums of ``M`` (read-only)."""
        lumped = np.asarray(self.M.sum(axis=1)).ravel()
        lumped.flags.writeable = False
        return lumped

    def mean(self, values):
        """Mean of per-vertex ``values`` under the lumped-mass weights."""
        lumped = self.lumped_mass
        return float(values @ (lumped / lumped.sum()))


def _corner_products(mesh, lengths=False):
    """Products of the edges u, w from each triangle corner c to corners c + 1 and c + 2.

    Returns ``dots``, <u, w> at every corner, ``cross``, the three
    coordinates of u x w at corner 0 (twice the area vector), and with
    ``lengths`` |u| |w| at every corner, else None. The edges are gathered
    one coordinate of the positions at a time, and only corner 0's outlive
    their coordinate. Every sum runs in the order ``einsum``, ``np.cross``
    and ``np.linalg.norm`` run it on a (nf, 3, 3) corner array, so areas,
    angles and normals keep every bit: <u, w> adds x, z, then y.
    """
    dots, u0, w0, squares = None, {}, {}, {}
    for i in (0, 2, 1):
        corners = mesh.positions[:, i][mesh.triangles]
        u = corners[:, _NEXT]
        u -= corners
        w = np.subtract(corners[:, _PREV], corners, out=corners)
        u0[i], w0[i] = u[:, 0].copy(), w[:, 0].copy()
        if lengths:
            squares[i] = u * u, w * w
        if dots is None:
            dots = np.multiply(u, w, out=u)
        else:
            dots += np.multiply(u, w, out=u)
    cross = [u0[(i + 1) % 3] * w0[(i + 2) % 3] - u0[(i + 2) % 3] * w0[(i + 1) % 3] for i in range(3)]
    if not lengths:
        return dots, cross, None
    u_len, w_len = (np.sqrt(x + y + z) for x, y, z in zip(squares[0], squares[1], squares[2]))
    return dots, cross, u_len * w_len


def _norm(planes):
    """Euclidean length of vectors given as three coordinate planes."""
    x, y, z = planes
    return np.sqrt(x * x + y * y + z * z)


def _element_geometry(mesh):
    """Triangle areas and the half-cotangents of their corners.

    ``half_cot[:, c]`` is <u, w> / (4 A) for the edges u, w leaving corner c:
    half the cotangent of its angle.
    """
    half_cot, cross, _ = _corner_products(mesh)
    areas = 0.5 * _norm(cross)
    if len(areas):
        floor = 1e-14 * areas.mean()
        bad = np.nonzero(areas < floor)[0]
        if len(bad):
            raise DegenerateElementError(
                f"triangle {int(bad[0])} has area {areas[bad[0]]:.3g} below {floor:.3g}"
            )
    half_cot /= (4.0 * areas)[:, None]
    return areas, half_cot


def _symmetric(local, diagonal, pairs):
    """``local`` (nf, 3, 3) filled with symmetric element matrices.

    ``diagonal[:, k]`` goes to (k, k) and ``pairs[:, k]`` to (k, k + 1) and
    (k + 1, k), the pair of corners opposite corner k + 2.
    """
    local[:, _CORNER, _CORNER] = diagonal
    local[:, _CORNER, _NEXT] = pairs
    local[:, _NEXT, _CORNER] = pairs
    return local


_CORNER = np.arange(3)
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _diagonal(values):
    """The diagonal CSR matrix of ``values``, storing their nonzeros only; read-only."""
    on = values != 0
    indptr = np.zeros(len(values) + 1, dtype=np.int32)
    np.cumsum(on, out=indptr[1:])
    rows = np.flatnonzero(on).astype(np.int32)
    return _frozen(sparse.csr_matrix((values[rows], rows, indptr), shape=(len(values), len(values))))


def _frozen(matrix):
    """``matrix`` with its arrays made read-only."""
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


def assemble_operators(mesh: LabeledTriMesh) -> OperatorSet:
    """Assemble mass, cotangent stiffness and boundary measures.

    ``M`` and ``K`` are summed from 3x3 element matrices on the mesh's
    ``pair_pattern``, so they share its index arrays and are exactly
    symmetric. Both come from the same corner gathers and are formed in
    turn in one (nf, 3, 3) buffer. Callers read ``mesh.operators``, which
    calls this once per mesh.
    """
    if mesh.nv == 0 or mesh.nf == 0:
        raise InvalidMeshError("cannot assemble operators on an empty mesh")
    p = mesh.positions
    areas, half_cot = _element_geometry(mesh)
    nv = mesh.nv
    pattern = mesh.pair_pattern
    # freed before the boundary measures are built
    local = np.empty((mesh.nf, 3, 3))

    # cotangent stiffness: a triangle puts -cot/2 of its third corner on each
    # pair of corners and the cot/2 of the other two corners on each
    # corner's diagonal. The half-cotangents go once they are in the buffer
    for c, (a, b) in enumerate(zip(_NEXT, _PREV)):
        np.add(half_cot[:, a], half_cot[:, b], out=local[:, c, c])
        np.negative(half_cot[:, c], out=local[:, a, b])
        local[:, b, a] = local[:, a, b]
    del half_cot
    K = _frozen(pattern.assemble(local))

    # consistent mass: A/6 on the diagonal, A/12 off-diagonal per triangle
    M = _frozen(pattern.assemble(_symmetric(local, (areas / 6.0)[:, None], (areas / 12.0)[:, None])))
    del local

    # half of each boundary edge onto both ends, summed in edge order
    be = mesh.boundary_edges
    half = np.repeat(0.5 * np.linalg.norm(p[be[:, 1]] - p[be[:, 0]], axis=1), 2)
    ends = mesh.vertex_wall[be]
    edge_wall = np.repeat(np.where(ends[:, 0] == ends[:, 1], ends[:, 0], -1), 2)
    B_wall = {}
    for w in np.unique(edge_wall[edge_wall >= 0]).tolist():
        on = edge_wall == w
        B_wall[w] = _diagonal(np.bincount(be.ravel()[on], half[on], minlength=nv))
    # numpy counts an empty edge list in integers
    B_all = _diagonal(np.bincount(be.ravel(), half, minlength=nv).astype(float, copy=False))
    areas.flags.writeable = False
    return OperatorSet(M=M, K=K, B_wall=B_wall, B_all=B_all, areas=areas)


def weighted_mass(mesh: LabeledTriMesh, weights) -> sparse.csr_matrix:
    """Consistent mass matrix of the piecewise-linear weight function.

    Entries are exact integrals of w * phi_i * phi_j with w interpolating the
    per-vertex ``weights``, summed from the triangle areas of
    ``mesh.operators`` on the pattern of its ``M`` and ``K``.
    """
    w = np.asarray(weights, float)
    if w.shape != (mesh.nv,):
        raise ValueError("need one weight per vertex")
    wt = w[mesh.triangles]
    areas = mesh.operators.areas[:, None]
    # w_k / 10 + (the other two) / 30 at (k, k); (w_k + w_k+1) / 30 + w_k+2 / 60 at (k, k + 1)
    diagonal = wt.sum(axis=1)[:, None] - wt
    diagonal /= 30.0
    diagonal += wt / 10.0
    diagonal *= areas
    pairs = wt + wt[:, _NEXT]
    pairs /= 30.0
    pairs += wt[:, _PREV] / 60.0
    pairs *= areas
    return mesh.pair_pattern.assemble(_symmetric(np.empty((mesh.nf, 3, 3)), diagonal, pairs))


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
    dots, cross, lengths = _corner_products(mesh, lengths=True)
    nrm = _norm(cross)
    nrm[nrm == 0] = 1.0
    cosang = dots / np.maximum(lengths, 1e-300)
    ang = np.arccos(np.clip(cosang, -1, 1)).T
    # each vertex sums its corners in a fixed order: corner 0 of every triangle, then 1, then 2
    corners = mesh.triangles.T.ravel()
    acc = np.column_stack(
        [np.bincount(corners, weights=(ang * (c / nrm)).ravel(), minlength=mesh.nv) for c in cross]
    )
    nrm = np.linalg.norm(acc, axis=1)
    nrm[nrm == 0] = 1.0
    return acc / nrm[:, None]


def _one_ring(mesh):
    """Edge adjacency: the pair pattern without its diagonal, every entry 1."""
    pattern = mesh.pair_pattern
    data = np.ones(len(pattern.indices))
    data[pattern.diagonal[pattern.diagonal >= 0]] = 0.0
    adj = pattern.csr(data).copy()
    adj.eliminate_zeros()
    return adj


def _two_rings(adj):
    """The 2-ring of each vertex, itself included, as the pattern of adj + adj^2."""
    return adj + adj @ adj


# vertices per batched fit: bounds the (6, stencil, block) design arrays, so
# a large group of regular vertices costs no more memory than the cap apex
FIT_BLOCK = 512

# the normal equations lose cond^2 times the unit roundoff, 1e-11 at this
# ratio of |R_ii| of the equilibrated design; a stencil past it, or with a
# pivot that is not positive, is fitted by QR instead
_GRAM_COND_LIMIT = 300.0


class _Fits(NamedTuple):
    """Quadric fits, one row per vertex.

    ``m1`` and ``m2`` are the first and second fundamental forms as symmetric
    2x2 entries (xx, xy, yy) in the tangent frame ``(t1, t2)``; sigma(X, X) =
    x^T M2 x / x^T M1 x for a tangent direction with frame coordinates x.
    ``normal`` is the fitted surface normal, ``cond`` the ratio of the
    largest to the smallest |R_ii| of the least-squares triangle of the
    second fit and ``size`` the number of stencil points. ``fallback``
    counts the fits of both passes solved by QR.
    """

    m1: np.ndarray
    m2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    normal: np.ndarray
    cond: np.ndarray
    size: np.ndarray
    fallback: int


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


def _stencils(planes, cols, starts, v, c, scale):
    """Offsets and weights of the ``c``-point stencils of the vertices ``v``.

    Returns d, the (3, c, b) offsets of the stencil points from their
    centers; w, their (c, b) weights; and h, the RMS distance of each
    stencil from its center.
    """
    d = np.take(planes, np.take(cols, starts[v] + np.arange(c)[:, None]), axis=1)
    d -= planes[:, None, v]
    dist2 = np.einsum("jcb,jcb->cb", d, d)
    w = 1.0 / (np.sqrt(dist2) + 1e-8 * scale)
    return d, w, np.sqrt(dist2.sum(axis=0) / c)


def _design(d, w, h, frames):
    """The weighted, equilibrated (6, c, b) design of a block of stencils.

    ``frames`` holds the coordinates of (t1, t2, n) as (3, 3, b) rows. The
    columns are (x, y, x^2/2h, xy/h, y^2/2h, z), each times the weights:
    dividing the quadratic columns by h brings every column to the size of
    its weight times a length.
    """
    A = np.empty((6,) + w.shape)
    x, y = np.empty(w.shape), np.empty(w.shape)
    for out, f in zip((x, y, A[5]), frames):
        np.einsum("jb,jcb->cb", f, d, out=out)
    A[5] *= w
    np.multiply(w, x, out=A[0])
    np.multiply(w, y, out=A[1])
    s = w / (2.0 * h)
    np.multiply(s, x, out=A[3])
    np.multiply(A[3], x, out=A[2])
    A[3] *= y
    A[3] *= 2.0
    s *= y
    np.multiply(s, y, out=A[4])
    return A


def _gram_rows(A, gram):
    """Gram entries of the designs ``A``: ``gram[i, j]`` gets entry (i, j) for
    i < 5 and j >= i, one row over the block."""
    for i in range(5):
        np.einsum("cb,jcb->jb", A[i], A[i:], out=gram[i, i:])


def _qr_solve(A, h):
    """Minimum-norm least squares of the designs ``A`` of ``_design`` by QR.

    The leading 5x5 triangle of R, its quadratic columns multiplied back by
    h, is a triangle of the unscaled design; its pseudo-inverse against the
    sixth column of R gives the unscaled coefficients, the minimum-norm ones
    where the design is rank-deficient, and Q is never formed. Returns the
    (5, b) coefficients and the (5, b) unscaled |R_ii|.
    """
    R = np.linalg.qr(A.transpose(2, 1, 0), mode="r")
    U = R[:, :5, :5].copy()
    U[:, :, 2:] *= h[:, None, None]
    coef = np.linalg.pinv(U) @ R[:, :5, 5:]
    return coef[:, :, 0].T, np.abs(np.diagonal(U, axis1=1, axis2=2)).T


def _cholesky_solve(R):
    """Least squares from the Gram entries ``R`` of ``_gram_rows``, in place.

    Turns R into the first five rows of the Cholesky factor, the triangle a
    QR of the design would give, one row at a time with every entry a row
    over the vertices, and solves its leading 5x5 triangle against its last
    column. Returns the (5, nv) solutions and whether every pivot was
    positive.
    """
    ok = np.ones(R.shape[2], dtype=bool)
    for i in range(5):
        R[i, i:] -= (R[:i, i, None] * R[:i, i:]).sum(axis=0)
        ok &= R[i, i] > 0
        np.sqrt(R[i, i], out=R[i, i])
        R[i, i + 1 :] /= R[i, i]
    coef = np.empty((5, R.shape[2]))
    for i in range(4, -1, -1):
        np.divide(R[i, 5] - (R[i, i + 1 : 5] * coef[i + 1 :]).sum(axis=0), R[i, i], out=coef[i])
    return coef, ok


def _fit_quadrics(mesh, adj, normals):
    """Quadric fits over the 2-ring stencil of every vertex in the 1-ring ``adj``.

    The first pass works in the tangent plane of ``normals``; the second
    uses the plane regressed by the first, which removes the one-sided bias
    of averaged normals at the boundary. Each pass fits z = p1 x + p2 y +
    (fxx x^2 + 2 fxy x y + fyy y^2) / 2 by weighted least squares from the
    normal equations of the design whose quadratic columns are divided by
    h, the RMS distance of the stencil from its center. Their triangle is R
    D with R the unscaled QR triangle and D = diag(1, 1, 1/h, 1/h, 1/h),
    which gives the unscaled |R_ii| and the coefficients back.

    The normal equations lose cond^2 times the unit roundoff, so a stencil
    with a pivot that is not positive, or whose largest |R_ii| of the scaled
    design is more than ``_GRAM_COND_LIMIT`` times its smallest, is gathered
    again and its same design solved by ``_qr_solve``: a QR, pseudo-inverted
    after unscaling. The Gram entries are summed over stencils of equal
    size, FIT_BLOCK vertices at a time, and the solve runs over every vertex
    at once.
    """
    nv = mesh.nv
    # stencil of v: its 2-ring without v, as cols[starts[v] : starts[v] + counts[v]]
    rings = _two_rings(adj)
    rows = np.repeat(np.arange(nv), np.diff(rings.indptr))
    keep = rings.indices != rows
    cols = rings.indices[keep]
    counts = np.bincount(rows[keep], minlength=nv)
    starts = np.cumsum(counts) - counts
    small = np.flatnonzero(counts < 5)
    if len(small):
        v = int(small[0])
        raise FitFailureError(
            f"vertex {v} has a stencil of {int(counts[v])} points, too small for a "
            "quadric fit (valence too low)"
        )
    # incident triangles that fold back can cancel an angle-weighted normal
    flat = np.flatnonzero(~normals.any(axis=1))
    if len(flat):
        raise FitFailureError(f"vertex {int(flat[0])} has no normal: its triangle normals cancel")
    planes = np.ascontiguousarray(mesh.positions.T)
    scale = mesh.bbox_diameter()
    # the vertices by stencil size, cut into blocks [lo, hi) of equal size
    order = np.argsort(counts, kind="stable")
    size = counts[order]
    cuts = [0, *(np.flatnonzero(np.diff(size)) + 1).tolist(), nv]
    blocks = [
        (lo, min(lo + FIT_BLOCK, end))
        for start, end in zip(cuts, cuts[1:])
        for lo in range(start, end, FIT_BLOCK)
    ]
    n = normals[order]
    R, h = np.empty((5, 6, nv)), np.empty(nv)
    fallback = 0
    for _ in range(2):
        t1, t2 = _tangent_frames(n)
        frames = np.stack([t1, t2, n]).transpose(0, 2, 1).copy()
        with np.errstate(all="ignore"):
            for lo, hi in blocks:
                d, w, h[lo:hi] = _stencils(planes, cols, starts, order[lo:hi], size[lo], scale)
                _gram_rows(_design(d, w, h[lo:hi], frames[:, :, lo:hi]), R[:, :, lo:hi])
            coef, ok = _cholesky_solve(R)
            diag = R[range(5), range(5)]
            qr = ~(ok & (diag.max(axis=0) <= _GRAM_COND_LIMIT * diag.min(axis=0)))
            coef[2:] /= h
            diag[2:] *= h
            for c in np.unique(size[qr]).tolist():
                at = np.flatnonzero(qr & (size == c))
                d, w, _ = _stencils(planes, cols, starts, order[at], c, scale)
                coef[:, at], diag[:, at] = _qr_solve(_design(d, w, h[at], frames[:, :, at]), h[at])
            cond = diag.max(axis=0) / diag.min(axis=0)
        coef = coef.T
        fallback += int(qr.sum())
        p1, p2 = coef[:, 0], coef[:, 1]
        W = np.sqrt(1.0 + p1 * p1 + p2 * p2)
        n = (n - p1[:, None] * t1 - p2[:, None] * t2) / W[:, None]
    m1 = np.column_stack([1.0 + p1 * p1, p1 * p2, 1.0 + p2 * p2])
    m2 = coef[:, 2:] / W[:, None]
    # back from block order to vertex order
    back = np.argsort(order)
    return _Fits(*(a[back] for a in (m1, m2, t1, t2, n, cond)), counts, fallback)


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
    vertex normal. The fits are batched over every vertex (see
    ``_fit_quadrics``): each is solved from the normal equations of its
    weighted design with the quadratic columns scaled by the stencil size,
    or, where those equations are too ill-conditioned, from a QR of that
    same design whose triangle is pseudo-inverted once unscaled.
    Normals are flipped globally if the mean H (``OperatorSet.mean`` of the
    fitted H) comes out negative, unless |mean H| * diameter < 1e-8: that
    sign is rounding, so the normals keep the mesh winding and ``info``
    gains ``orientation: "winding"``. Boundary quantities come from each
    boundary loop and the wall data.

    ``info`` records ``flipped`` and ``mean_H`` (before any flip), and where
    estimation struggled: ``min_stencil`` (fewest fit points),
    ``max_fit_cond`` (worst max/min |R_ii| of the unscaled design of the
    second fits), ``fallback_fits`` (fits of either pass solved by QR) and
    ``nonfinite_boundary`` (boundary vertices whose conormal or sigma(nu, nu)
    is undefined).
    """
    if mesh.nv == 0 or mesh.nf == 0:
        raise InvalidMeshError("cannot estimate fields on an empty mesh")
    p = mesh.positions
    nv = mesh.nv
    scale = mesh.bbox_diameter()
    adj = _one_ring(mesh)
    fits = _fit_quadrics(mesh, adj, _vertex_normals(mesh))
    normals = fits.normal
    k1, k2 = _pencil_curvatures(fits.m1, fits.m2)
    H = 0.5 * (k1 + k2)
    sigma_sq = k1 * k1 + k2 * k2

    mean_H = mesh.operators.mean(H)
    # a mean H at rounding level has no sign to follow: keep the winding
    winding = abs(mean_H) * scale < 1e-8
    flipped = mean_H < 0 and not winding
    if flipped:
        normals = -normals
        H = -H
    if winding:
        logger.warning("mean curvature is numerically zero; normals follow the mesh winding")

    # boundary structure
    loops = mesh.boundary_loops
    conormal = np.full((nv, 3), np.nan)
    wall_conormal = np.full((nv, 3), np.nan)
    sigma_nn = np.full(nv, np.nan)
    bdry_curv = np.full(nv, np.nan)
    angle = np.full(nv, np.nan)

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
        interior_dir = adj[v] @ p / np.diff(adj.indptr)[v][:, None] - p[v]
        nu[_dot(nu, interior_dir) > 0] *= -1.0
        conormal[v] = nu

        q = np.column_stack([_dot(nu, fits.t1[v]), _dot(nu, fits.t2[v])])
        denom = _form(fits.m1[v], q)
        pos = denom > 0
        m2 = -fits.m2[v[pos]] if flipped else fits.m2[v[pos]]
        sigma_nn[v[pos]] = _form(m2, q[pos]) / denom[pos]

        if walls is not None:
            w = mesh.vertex_wall[v]
            on = (w >= 0) & (w < len(walls))
            v, prev, nxt, T, N, nu = (a[on] for a in (v, prev, nxt, T, N, nu))
            n_i = walls.normals[w[on]]
            angle[v] = np.arccos(np.clip(_dot(N, n_i), -1.0, 1.0))
            nb_raw = np.cross(n_i, T)
            nrm = np.linalg.norm(nb_raw, axis=1)
            keep = nrm > 0
            v, prev, nxt, T, N, nu, n_i = (a[keep] for a in (v, prev, nxt, T, N, nu, n_i))
            nb_vec = nb_raw[keep] / nrm[keep, None]
            s_surface = _dot(np.cross(N, nu), T)
            s_wall = _dot(np.cross(n_i, nb_vec), T)
            nb_vec[s_surface * s_wall < 0] *= -1.0
            wall_conormal[v] = nb_vec
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
            bdry_curv[v] = np.where(kappa > 0, np.copysign(kappa, _dot(a + b, nb_vec)), 0.0)

    bverts = mesh.boundary_vertices
    nonfinite = ~np.isfinite(conormal[bverts]).all(axis=1) | ~np.isfinite(sigma_nn[bverts])
    return GeometryFields(
        normal=normals,
        mean_curv=H,
        sigma_sq=sigma_sq,
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
            "fallback_fits": fits.fallback,
            "nonfinite_boundary": int(nonfinite.sum()),
            **({"orientation": "winding"} if winding else {}),
        },
    )


FIELD_COLUMNS = (
    "vertex", "x", "y", "z", "normal_x", "normal_y", "normal_z", "mean_curv", "sigma_sq",
    "conormal_x", "conormal_y", "conormal_z", "wall_conormal_x", "wall_conormal_y", "wall_conormal_z",
    "sigma_nn", "bdry_curv", "angle",
)


def field_rows(mesh: LabeledTriMesh, fields: GeometryFields):
    """One row of ``FIELD_COLUMNS`` per vertex, made as it is read; an interior
    row stops before the boundary columns."""
    table = np.column_stack(
        [
            mesh.positions, fields.normal, fields.mean_curv, fields.sigma_sq,
            fields.conormal, fields.wall_conormal, fields.sigma_nn, fields.bdry_curv, fields.angle,
        ]
    )
    on_boundary = np.zeros(mesh.nv, dtype=bool)
    on_boundary[mesh.boundary_vertices] = True
    return (
        (v, *row) if full else (v, *row[:8])
        for v, (row, full) in enumerate(zip(table.tolist(), on_boundary.tolist()))
    )
