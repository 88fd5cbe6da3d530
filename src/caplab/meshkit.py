"""Labeled triangle meshes with supporting walls: validation, refinement, file I/O.

A mesh is the discrete stand-in for an immersed surface patch: positions may
self-intersect in space, only the combinatorics must be manifold and
consistently oriented. Boundary vertices carry the index of the wall that
supports them; a boundary loop with mixed labels is rejected because it would
have to cross an intersection line of two walls. A mesh with an empty label
map is a bare immersion (no supporting walls); plane-incidence checks then do
not apply.

A mesh sorts the vertex pairs of its triangle sides once (``edges``). The
pair pattern, the boundary, validation and refinement all read that sort and
sort no pairs again. The pair pattern, the sparsity of every assembled
matrix, is the mesh's one adjacency: edge neighbours are its off-diagonal
entries.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import (
    InvalidAngleError,
    InvalidMeshError,
    MeshValidationError,
    ParseError,
)
from .reports import NUMBER, write_report

# plane-incidence tolerance per unit of bounding-box diameter
PLANE_TOL_FACTOR = 1e-9
# how far a vertex may sit from its place in a ring layout, per unit of
# bounding-box diameter
RING_TOL_FACTOR = 1e-12

CAPMESH_MAGIC = "CAPMESH"
CAPMESH_VERSION = 1

__all__ = [
    "Hyperplane",
    "WallSet",
    "LabeledTriMesh",
    "Edges",
    "PairPattern",
    "RingLayout",
    "ValidationIssue",
    "ValidationReport",
    "validate",
    "refine",
    "save",
    "load",
    "save_walls",
    "load_walls",
]


@dataclass(frozen=True)
class Hyperplane:
    """Plane {x : <x, normal> = offset}; the normal points out of the domain."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3).copy()
        offset = float(self.offset)
        if not (np.all(np.isfinite(n)) and math.isfinite(offset)):
            raise ValueError("hyperplane normal and offset must be finite")
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("hyperplane normal must have unit length (within 1e-12)")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)

    def signed_distance(self, points):
        return np.asarray(points, dtype=float) @ self.normal - self.offset

    def project(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        q = p - np.outer(self.signed_distance(p), self.normal)
        return q if np.ndim(points) == 2 else q[0]


@dataclass(frozen=True)
class WallSet:
    """Ordered supporting planes with one contact angle per plane (radians)."""

    walls: tuple
    angles: tuple

    def __post_init__(self):
        walls = tuple(self.walls)
        angles = tuple(float(a) for a in self.angles)
        if not walls:
            raise ValueError("wall set must contain at least one wall")
        if len(walls) != len(angles):
            raise ValueError("one contact angle per wall required")
        for a in angles:
            if not 0.0 < a < math.pi:
                raise InvalidAngleError(f"contact angle {a} outside (0, pi)")
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "angles", angles)

    def __len__(self):
        return len(self.walls)

    @property
    def normals(self):
        return np.array([w.normal for w in self.walls])

    @property
    def offsets(self):
        return np.array([w.offset for w in self.walls])

    def to_document(self):
        return [
            {
                "normal": [float(x) for x in w.normal],
                "offset": float(w.offset),
                "angle_rad": float(a),
            }
            for w, a in zip(self.walls, self.angles)
        ]

    @classmethod
    def from_document(cls, doc):
        """The wall set of a list of {"normal", "offset", "angle_rad"} entries.

        ParseError names the first entry, and its key, that is not an object
        or holds anything but finite numbers (three for the normal).
        """
        walls = []
        angles = []
        for i, entry in enumerate(doc):
            if not isinstance(entry, dict):
                raise ParseError(f"wall entry {i}: expected an object, got {json.dumps(entry)}")
            normal = _finite(entry, i, "normal", 3)
            offset = _finite(entry, i, "offset")
            try:
                walls.append(Hyperplane(normal, offset))
            except ValueError as exc:
                raise ParseError(f"wall entry {i}: {exc}") from None
            angles.append(_finite(entry, i, "angle_rad"))
        return cls(tuple(walls), tuple(angles))


def _finite(entry, i, key, size=None):
    """entry[key]: a list of ``size`` finite numbers, or one number if ``size`` is None."""
    if key not in entry:
        raise ParseError(f'wall entry {i}: missing "{key}"')
    value = entry[key]
    items = value if size else [value]
    # a bool is no number, and NaN fails the comparison
    if not (
        isinstance(items, list)
        and len(items) == (size or 1)
        and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in items)
    ):
        what = f"{size} finite numbers" if size else "a finite number"
        raise ParseError(f'wall entry {i}: "{key}" must be {what}, got {json.dumps(value)}')
    return [float(x) for x in items] if size else float(value)


def save_walls(walls: WallSet, path):
    write_report(path, walls.to_document())


def load_walls(path) -> WallSet:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ParseError(f"wall-set document must be a JSON list: {path}")
    try:
        return WallSet.from_document(doc)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_only(array):
    array.flags.writeable = False
    return array


# the corner after corner k of a triangle: side k runs from corner k to corner _NEXT[k]
_NEXT = np.array([1, 2, 0])
# row-major places 3 a + b of a triangle's (corner a, corner b) pairs: the
# diagonal (k, k), along side k (k, k + 1) and against it (k + 1, k), k = 0, 1, 2
_DIAGONAL, _ALONG, _AGAINST = np.array([[0, 4, 8], [1, 5, 6], [3, 7, 2]])


class Edges(NamedTuple):
    """The undirected edges of a mesh, sorted by their ends (lo, hi), lo < hi.

    ``side[f, k]`` is the edge of side k of triangle f, which runs from
    corner k to corner k + 1 (mod 3). ``count[e]`` is the number of
    triangle sides on edge e (1 on the boundary, 2 inside a manifold), and
    ``forward[e]`` the number of them that run from lo to hi. All five
    arrays are int32, like the pair pattern's CSR arrays.
    """

    lo: np.ndarray
    hi: np.ndarray
    side: np.ndarray
    count: np.ndarray
    forward: np.ndarray


class PairPattern(NamedTuple):
    """CSR pattern of the vertex pairs that share a triangle, diagonal included.

    Row v lists v and its edge neighbours, sorted, in
    ``indices[indptr[v]:indptr[v + 1]]``. ``slots[f, a, b]`` is the position
    in ``indices`` of the pair (triangles[f, a], triangles[f, b]) and
    ``diagonal[v]`` that of (v, v), -1 for a vertex on no triangle.
    ``slots`` holds np.intp, the index type ``np.bincount`` reads; the other
    three arrays hold int32.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    diagonal: np.ndarray

    def csr(self, data):
        """The matrix with ``data`` on this pattern; the index arrays are shared."""
        n = len(self.indptr) - 1
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def assemble(self, local):
        """Sum per-triangle (nf, 3, 3) entries into their slots, triangle by triangle.

        Entry (i, j) and entry (j, i) add the same terms in the same order, so
        symmetric element matrices give an exactly symmetric result.
        """
        # np.bincount copies an index array it may not write to. The slots
        # are a read-only view of an array that only this pattern refers to,
        # so a writable view of that array goes in, and bincount reads it as is
        slots = self.slots.reshape(-1)
        slots.flags.writeable = True
        return self.csr(np.bincount(slots, np.ravel(local), minlength=len(self.indices)))


def _pair_layout(lo, hi, nv):
    """The CSR layout of the edges (lo, hi), their transposes and the diagonal.

    Row v lists the lo of each edge (lo, v), then v, then the hi of each edge
    (v, hi). Returns indptr, indices, the slot of each (v, v) (-1 for a
    vertex on no edge) and ``ends``, where ``ends[2 e]`` is the slot of edge
    e's (lo, hi) and ``ends[2 e + 1]`` that of its (hi, lo).
    """
    right = np.bincount(lo, minlength=nv)
    left = np.bincount(hi, minlength=nv)
    used = right + left > 0
    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(left + used + right, out=indptr[1:])
    diagonal = np.where(used, indptr[:-1] + left, -1)
    # in (lo, hi) order the edges fill the right of row lo one by one; in
    # (hi, lo) order, the transpose, they fill the left of row hi
    rank = np.arange(len(lo))
    upper = rank + np.repeat(diagonal + 1 - np.cumsum(right) + right, right)
    lower = np.empty(len(lo), dtype=np.int64)
    lower[np.argsort(hi, kind="stable")] = rank + np.repeat(indptr[:-1] - np.cumsum(left) + left, left)
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[upper] = hi
    indices[lower] = lo
    indices[diagonal[used]] = np.flatnonzero(used)
    return indptr, indices, diagonal, np.column_stack([upper, lower]).ravel()


class RingLayout(NamedTuple):
    """A vertex order that the rotation by 2 pi / n about the z axis maps onto itself.

    ``top`` and ``bottom`` (0 or 1) count the poles on the axis that come
    first and last; between them lie ``rings`` rings of ``n`` vertices,
    vertex i of ring j at index top + j n + i and at the angle 2 pi i / n.
    The rotation takes vertex i of each ring to vertex i + 1 (mod n), fixes
    the poles, and maps the triangles and the wall labels onto themselves.
    """

    top: int
    bottom: int
    rings: int
    n: int

    def shift(self, nv):
        """The image of each vertex under the rotation by 2 pi / n."""
        image = np.arange(nv)
        ring = image[self.top : self.top + self.rings * self.n].reshape(self.rings, self.n)
        ring[:] = np.roll(ring, -1, axis=1)
        return image


def _canonical_triangles(triangles, nv):
    """Sorted keys of the triangles, each read in its winding from its lowest vertex.

    Of the three readings (a, b, c), (b, c, a) and (c, a, b), the one led by
    the lowest vertex has the smallest key (first * nv + second) * nv + third.
    """
    a, b, c = triangles.T
    keys = np.minimum((a * nv + b) * nv + c, (b * nv + c) * nv + a)
    return np.sort(np.minimum(keys, (c * nv + a) * nv + b, out=keys))


class LabeledTriMesh:
    """Oriented triangle mesh; boundary vertices labeled by supporting wall.

    Parameters
    ----------
    positions : (nv, 3) float array
        Vertex coordinates (values of the immersion at the vertices).
    triangles : (nf, 3) int array
        Consistently wound vertex index triples.
    boundary_labels : dict vertex index -> wall index, optional
        Empty for bare immersions without supporting walls.

    ``vertex_wall`` holds the same labels as one array (-1: no wall). The
    edges, the pair pattern and the boundary edges, loops and vertices are
    built once, on first use, and shared by every copy
    ``with_positions`` makes. The operator set (``operators``) is assembled
    once, on first use, and stays with this mesh. All are read-only, as are
    ``positions`` and ``triangles``: instances are immutable and operations
    return new meshes. A triangle that repeats a vertex is rejected.

    The arrays passed in are copied. With ``copy=False`` a float positions
    array and an int64 triangles array are adopted instead, and made
    read-only: for arrays built for this mesh alone, as the families'
    ``build``, ``load``, ``refine`` and the derived meshes build theirs.
    """

    def __init__(self, positions, triangles, boundary_labels=None, *, copy=True):
        convert = np.array if copy else np.asarray
        positions = convert(positions, dtype=float)
        triangles = convert(triangles, dtype=np.int64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise InvalidMeshError("positions must have shape (nv, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise InvalidMeshError("triangles must have shape (nf, 3)")
        if not np.all(np.isfinite(positions)):
            raise InvalidMeshError("positions contain non-finite values")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(positions)):
            raise InvalidMeshError("triangle index out of range")
        a, b, c = triangles.T
        repeated = np.flatnonzero((a == b) | (b == c) | (c == a))
        if len(repeated):
            raise InvalidMeshError(f"triangle {repeated[0]} repeats a vertex")
        self.positions = _read_only(positions)
        self.triangles = _read_only(triangles)
        self.boundary_labels = {int(k): int(v) for k, v in (boundary_labels or {}).items()}
        vertices, wall = np.array(list(self.boundary_labels.items()), dtype=np.int64).reshape(-1, 2).T
        out = vertices[(vertices < 0) | (vertices >= len(positions))]
        if len(out):
            raise InvalidMeshError(f"label references vertex {out[0]} out of range")
        if np.any(wall < 0):
            raise InvalidMeshError(f"vertex {vertices[wall < 0][0]} has negative wall label")
        self.vertex_wall = np.full(len(positions), -1, dtype=np.int64)
        self.vertex_wall[vertices] = wall
        _read_only(self.vertex_wall)

    # -- basic counts ------------------------------------------------------

    @property
    def nv(self):
        return self.positions.shape[0]

    @property
    def nf(self):
        return self.triangles.shape[0]

    # -- adjacency ---------------------------------------------------------

    @cached_property
    def edges(self):
        """The one sort of vertex pairs a mesh makes (see Edges).

        Every other topology property reads it: the pair pattern, the
        boundary and refinement. The pair keys lo * nv + hi are sorted into
        the buffer that held the heads of the sides, and each edge's ends are
        read back from its key.
        """
        nv = self.nv
        # side k of each triangle, from tail t[k] to head t[k + 1]
        t = self.triangles.T
        head = t[_NEXT]
        up = (t < head).ravel()
        keys = np.minimum(t, head, out=np.empty(head.shape, dtype=np.int64))
        keys *= nv
        keys += np.maximum(t, head, out=head)
        keys = keys.ravel()
        # stable: a structured mesh lists its sides in long sorted runs
        order = np.argsort(keys, kind="stable")
        # "clip" writes straight into out ("raise" fills a buffer first); an
        # argsort holds no index to clip
        keys = np.take(keys, order, out=head.reshape(-1), mode="clip")
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        count = np.diff(starts, append=len(keys))
        side = np.empty(len(keys), dtype=np.int32)
        side[order] = np.repeat(np.arange(len(starts), dtype=np.int32), count)
        forward = np.bincount(side[up], minlength=len(starts))
        # an edge's key is lo * nv + hi
        hi = keys[starts]
        lo = hi // nv
        hi -= lo * nv
        return Edges(
            *(
                _read_only(x.astype(np.int32, copy=False))
                for x in (lo, hi, side.reshape(3, -1).T, count, forward)
            )
        )

    @cached_property
    def pair_pattern(self):
        """Sparsity of every matrix assembled over the triangles (see PairPattern).

        Laid out from ``edges`` with no further sort of pairs (see _pair_layout).
        """
        lo, hi, side, _, _ = self.edges
        # the layout's temporaries are gone before the slots are filled
        indptr, indices, diagonal, ends = _pair_layout(lo, hi, self.nv)
        t = self.triangles
        # side k of a triangle on edge e puts its pair (t[k], t[k + 1]) in
        # ends[2 e] where t[k] is the lo, else in ends[2 e + 1]
        along = np.multiply(side, 2, dtype=np.intp)
        along += t > t[:, _NEXT]
        # in the index type np.bincount reads, so assembly converts nothing
        slots = np.empty((self.nf, 9), dtype=np.intp)
        slots[:, _DIAGONAL] = diagonal[t]
        slots[:, _ALONG] = ends[along]
        along ^= 1
        slots[:, _AGAINST] = ends[along]
        return PairPattern(
            *(
                _read_only(x)
                for x in (indptr.astype(np.int32), indices, slots.reshape(-1, 3, 3), diagonal.astype(np.int32))
            )
        )

    def is_manifold(self):
        return not np.any(self.edges.count > 2)

    def is_oriented(self):
        edges = self.edges
        return not np.any((edges.forward > 1) | (edges.count - edges.forward > 1))

    def is_closed(self):
        return not np.any(self.edges.count == 1)

    def euler_characteristic(self):
        return self.nv - len(self.edges.lo) + self.nf

    # -- boundary structure --------------------------------------------------

    @cached_property
    def boundary_edges(self):
        """Directed boundary edges (a, b), wound as in their unique triangle, sorted."""
        lo, hi, _, count, forward = self.edges
        alone = count == 1
        run = forward[alone] == 1
        a, b = np.where(run, lo[alone], hi[alone]), np.where(run, hi[alone], lo[alone])
        order = np.lexsort((b, a))
        return _read_only(np.column_stack([a[order], b[order]]).astype(np.int64))

    @cached_property
    def boundary_vertices(self):
        """Sorted ids of the vertices on a boundary edge."""
        return _read_only(np.unique(self.boundary_edges))

    @cached_property
    def boundary_loops(self):
        """Boundary loops as vertex index arrays, following edge winding."""
        succ = {}
        for a, b in self.boundary_edges.tolist():
            if a in succ:
                raise InvalidMeshError(f"boundary is not a union of simple loops at vertex {a}")
            succ[a] = b
        loops = []
        remaining = set(succ)
        while remaining:
            start = min(remaining)
            loop = [start]
            remaining.discard(start)
            v = succ[start]
            while v != start:
                if v not in remaining:
                    raise InvalidMeshError(f"boundary walk stuck at vertex {v}")
                loop.append(v)
                remaining.discard(v)
                v = succ[v]
            loops.append(_read_only(np.array(loop, dtype=np.int64)))
        return tuple(loops)

    # -- operators -------------------------------------------------------------

    @cached_property
    def operators(self):
        """The mass, stiffness and boundary matrices (``caplab.discops.OperatorSet``).

        They depend on the positions, so ``with_positions`` copies do not
        share them.
        """
        from . import discops  # discops imports this module

        return discops.assemble_operators(self)

    @cached_property
    def ring_layout(self):
        """The mesh's ``RingLayout``, or None when it has none.

        The poles are vertices on the z axis at index 0 and nv - 1; ring j's
        vertex i must lie within RING_TOL_FACTOR of the diameter of
        (rho_j cos a, rho_j sin a, z_j), a = 2 pi i / n, with rho_j and z_j
        those of its vertex 0 and n set by the angle of vertex 1 of the
        first ring. The family meshes and the CAPMESH files ``gen`` writes
        have this layout.
        """
        p, nv = self.positions, self.nv
        # the triangle keys below hold three vertex ids in an int64
        if not 3 <= nv < 1 << 21:
            return None
        tol = RING_TOL_FACTOR * self.bbox_diameter()
        on_axis = np.abs(p[[0, -1], :2]).max(axis=1) <= tol
        top = int(on_axis[0])
        bottom = int(on_axis[1]) if nv > top + 1 else 0
        if nv - top - bottom < 3:
            return None
        # a ring of n <= nv vertices steps by 2 pi / n; a far smaller step
        # (down to a subnormal) would also overflow 2 pi / angle
        angle = math.atan2(p[top + 1, 1], p[top + 1, 0])
        n = round(2.0 * math.pi / angle) if angle > math.pi / nv else 0
        if n < 3 or (nv - top - bottom) % n:
            return None
        layout = RingLayout(top, bottom, (nv - top - bottom) // n, n)
        rings = p[top : nv - bottom].reshape(layout.rings, n, 3)
        rho, z = rings[:, 0, 0], rings[:, 0, 2]
        alphas = 2.0 * math.pi * np.arange(n) / n
        off = np.abs(rings[..., 0] - np.outer(rho, np.cos(alphas))).max()
        off = max(off, np.abs(rings[..., 1] - np.outer(rho, np.sin(alphas))).max())
        off = max(off, np.abs(rings[..., 2] - z[:, None]).max())
        if not (off <= tol and rho.min() > tol):
            return None
        image = layout.shift(nv)
        if not np.array_equal(self.vertex_wall[image], self.vertex_wall):
            return None
        before = _canonical_triangles(self.triangles, nv)
        if not np.array_equal(before, _canonical_triangles(image[self.triangles], nv)):
            return None
        return layout

    # -- geometry helpers ----------------------------------------------------

    def bbox_diameter(self):
        if self.nv == 0:
            return 0.0
        span = self.positions.max(axis=0) - self.positions.min(axis=0)
        d = float(np.linalg.norm(span))
        return d if d > 0 else 1.0

    def triangle_areas(self):
        p = self.positions
        t = self.triangles
        cr = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
        return 0.5 * np.linalg.norm(cr, axis=1)

    def area(self):
        return float(self.triangle_areas().sum())

    def boundary_length(self, wall=None):
        be = self.boundary_edges
        if wall is not None:
            be = be[np.all(self.vertex_wall[be] == wall, axis=1)]
        seg = self.positions[be[:, 1]] - self.positions[be[:, 0]]
        return float(np.linalg.norm(seg, axis=1).sum())

    # -- derived meshes --------------------------------------------------------

    def with_positions(self, positions):
        """The mesh on a copy of ``positions``; the topology built so far carries over."""
        return self._moved(np.array(positions, dtype=float))

    def translated(self, vector):
        return self._moved(self.positions + np.asarray(vector, float))

    def transformed(self, matrix):
        return self._moved(self.positions @ np.asarray(matrix, float).T)

    def scaled(self, s):
        return self._moved(self.positions * float(s))

    def _moved(self, positions):
        """The mesh on ``positions``, which it adopts, sharing triangles and topology."""
        mesh = LabeledTriMesh(positions, self.triangles, self.boundary_labels, copy=False)
        mesh.__dict__.update({k: v for k, v in self.__dict__.items() if k in _TOPOLOGY})
        return mesh


# cached properties that depend on the triangles and labels only
_TOPOLOGY = frozenset(("edges", "pair_pattern", "boundary_edges", "boundary_vertices", "boundary_loops"))


@dataclass
class ValidationIssue:
    check: str
    message: str
    indices: tuple = ()


@dataclass
class ValidationReport:
    ok: bool
    issues: list = field(default_factory=list)

    def failed_checks(self):
        return sorted({i.check for i in self.issues})

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(f"{i.check}: {i.message}" for i in self.issues)


def validate(mesh: LabeledTriMesh, walls: WallSet | None = None) -> ValidationReport:
    """Check every mesh invariant, reporting all violations with offending indices.

    With ``walls`` the full capillary invariants apply (label coverage and
    plane incidence); without, a labeled mesh is checked combinatorially and a
    bare mesh (empty label map) only structurally.
    """
    issues = []

    lo, hi, _, count, forward = mesh.edges
    over = count > 2
    if over.any():
        bad = tuple(zip(lo[over].tolist(), hi[over].tolist()))
        issues.append(ValidationIssue("manifold", f"{len(bad)} edges in more than 2 triangles", bad))

    # a directed edge met twice: (lo, hi) by forward sides, (hi, lo) by the others
    up, down = forward > 1, count - forward > 1
    if up.any() or down.any():
        a, b = np.r_[lo[up], hi[down]], np.r_[hi[up], lo[down]]
        order = np.lexsort((b, a))
        bad = tuple(zip(a[order].tolist(), b[order].tolist()))
        issues.append(
            ValidationIssue("orientation", f"{len(bad)} directed edges repeated (inconsistent winding)", bad)
        )

    if not issues:
        try:
            mesh.boundary_loops  # the walk raises on a boundary that is not simple loops
        except InvalidMeshError as exc:
            issues.append(ValidationIssue("boundary-loops", str(exc)))

    wall = mesh.vertex_wall
    labeled = np.flatnonzero(wall >= 0)
    if len(labeled) or walls is not None:
        missing = np.setdiff1d(mesh.boundary_vertices, labeled)
        if len(missing):
            issues.append(
                ValidationIssue("labels-missing", f"{len(missing)} boundary vertices without wall label", tuple(missing.tolist()))
            )
        interior = np.setdiff1d(labeled, mesh.boundary_vertices)
        if len(interior):
            issues.append(
                ValidationIssue("label-on-interior", f"{len(interior)} interior vertices carry a label", tuple(interior.tolist()))
            )
        be = mesh.boundary_edges
        ends = wall[be]
        mixed = be[(ends >= 0).all(axis=1) & (ends[:, 0] != ends[:, 1])]
        if len(mixed):
            issues.append(
                ValidationIssue(
                    "mixed-boundary-edge",
                    f"{len(mixed)} boundary edges join differently labeled vertices (mesh touches a domain edge)",
                    tuple(map(tuple, mixed.tolist())),
                )
            )

    if walls is not None and len(labeled):
        k = len(walls)
        out_of_range = labeled[wall[labeled] >= k]
        if len(out_of_range):
            issues.append(
                ValidationIssue("label-wall-range", f"labels reference walls outside 0..{k - 1}", tuple(out_of_range.tolist()))
            )
        tol = PLANE_TOL_FACTOR * mesh.bbox_diameter()
        off = []
        for w, plane in enumerate(walls.walls):
            v = np.flatnonzero(wall == w)
            off.extend(v[np.abs(plane.signed_distance(mesh.positions[v])) > tol].tolist())
        if off:
            issues.append(
                ValidationIssue("plane-incidence", f"{len(off)} labeled vertices off their wall plane (tol {tol:.3g})", tuple(sorted(off)))
            )

    return ValidationReport(ok=not issues, issues=issues)


def refine(mesh: LabeledTriMesh, projector=None, walls: WallSet | None = None) -> LabeledTriMesh:
    """Midpoint 1-to-4 subdivision.

    New midpoints of boundary edges inherit the shared wall label (they lie on
    the wall plane automatically, the plane being affine). If ``projector`` is
    given it receives (points, labels) for all new vertices, labels being -1
    for interior ones, and must return points on the analytic surface without
    breaking wall incidence.
    """
    report = validate(mesh, walls)
    if not report.ok:
        raise MeshValidationError(f"refusing to refine invalid mesh: {report}", report)

    # one new vertex per edge, numbered in edge order
    lo, hi, side, count, _ = mesh.edges
    nv = mesh.nv
    mid = 0.5 * (mesh.positions[lo] + mesh.positions[hi])

    # wall labels for midpoints of boundary edges with matching endpoint labels
    la, lb = mesh.vertex_wall[lo], mesh.vertex_wall[hi]
    mid_label_arr = np.where((count == 1) & (la == lb), la, -1)

    if walls is not None:
        for w, plane in enumerate(walls.walls):
            on = mid_label_arr == w
            mid[on] = plane.project(mid[on])
    if projector is not None:
        mid = projector(mid, mid_label_arr)

    t = mesh.triangles
    e01, e12, e20 = (nv + side).T
    t1 = np.column_stack([t[:, 0], e01, e20])
    t2 = np.column_stack([t[:, 1], e12, e01])
    t3 = np.column_stack([t[:, 2], e20, e12])
    t4 = np.column_stack([e01, e12, e20])
    tris = np.vstack([t1, t2, t3, t4])

    positions = np.vstack([mesh.positions, mid])
    new = np.flatnonzero(mid_label_arr >= 0)
    labels = {**mesh.boundary_labels, **dict(zip((nv + new).tolist(), mid_label_arr[new].tolist()))}
    return LabeledTriMesh(positions, tris, labels, copy=False)


# -- CAPMESH file format -------------------------------------------------------
#
#   line 1: CAPMESH 1
#   line 2: <nv> <nf> <nb>
#   nv lines: x y z           (decimal, 17 significant digits)
#   nf lines: i j k           (0-based, counterclockwise around the mesh normal)
#   nb lines: v w             (boundary vertex v supported by wall w, one line per v)


def save(mesh: LabeledTriMesh, walls: WallSet | None, path):
    """Write mesh to ``path`` and, if given, walls to the sibling document."""
    path = Path(path)
    labels = sorted(mesh.boundary_labels.items())
    text = (
        f"{CAPMESH_MAGIC} {CAPMESH_VERSION}\n{mesh.nv} {mesh.nf} {len(labels)}\n"
        + f"{NUMBER} {NUMBER} {NUMBER}\n" * mesh.nv % tuple(mesh.positions.ravel().tolist())
        + "%d %d %d\n" * mesh.nf % tuple(mesh.triangles.ravel().tolist())
        + "%d %d\n" * len(labels) % tuple(x for row in labels for x in row)
    )
    path.write_text(text)
    if walls is not None:
        save_walls(walls, default_walls_path(path))
    return path


def default_walls_path(mesh_path):
    return Path(mesh_path).with_suffix(".walls.json")


def _tokens(lines, lineno, expect, what):
    if lineno > len(lines):
        raise ParseError(f"file truncated, expected {what}", lineno)
    toks = lines[lineno - 1].split()
    if len(toks) != expect:
        raise ParseError(f"expected {expect} fields for {what}, got {len(toks)}", lineno)
    return toks


def _read_blocks(lines, nv, nf, nb):
    """The vertex, face and label blocks through numpy's C reader.

    Returns None when numpy refuses a block or a range rule fails. numpy's
    DeprecationWarning for an integer written as a float (``1.0``) is made
    an error, so that line is refused rather than truncated.
    """
    if len(lines) < 2 + nv + nf + nb:
        return None
    spans = ((2, nv, 3, float), (2 + nv, nf, 3, np.int64), (2 + nv + nf, nb, 2, np.int64))
    blocks = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for first, count, width, dtype in spans:
            if count == 0:
                blocks.append(np.empty((0, width), dtype=dtype))
                continue
            try:
                rows = np.loadtxt(lines[first : first + count], dtype=dtype, comments=None, ndmin=2)
            except (ValueError, OverflowError):
                return None
            if rows.shape != (count, width):
                return None
            blocks.append(rows)
    positions, faces, labels = blocks
    v, w = labels.T
    valid = (
        np.all((faces >= 0) & (faces < nv))
        and np.all((v >= 0) & (v < nv))
        and np.all(w >= 0)
        and len(np.unique(v)) == nb
    )
    return (positions, faces, dict(labels.tolist())) if valid else None


def _read_lines(lines, nv, nf, nb):
    """The blocks line by line: raises at the first bad line, in file order.

    Also reads the literals only Python's ``int`` and ``float`` accept (``1_000``).
    Arrays are sized by the lines present: a count past the end is a truncation.
    """
    positions = np.empty((min(nv, len(lines)), 3))
    for i in range(nv):
        lineno = 3 + i
        toks = _tokens(lines, lineno, 3, "vertex coordinates")
        try:
            positions[i] = [float(x) for x in toks]
        except ValueError:
            raise ParseError(f"bad coordinate in {lines[lineno - 1]!r}", lineno) from None

    triangles = np.empty((min(nf, len(lines)), 3), dtype=np.int64)
    for i in range(nf):
        lineno = 3 + nv + i
        toks = _tokens(lines, lineno, 3, "triangle indices")
        try:
            tri = [int(x) for x in toks]
        except ValueError:
            raise ParseError(f"bad index in {lines[lineno - 1]!r}", lineno) from None
        for v in tri:
            if not 0 <= v < nv:
                raise ParseError(f"face references vertex {v}, valid range is 0..{nv - 1}", lineno)
        triangles[i] = tri

    labels = {}
    for i in range(nb):
        lineno = 3 + nv + nf + i
        toks = _tokens(lines, lineno, 2, "boundary label")
        try:
            v, w = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError(f"bad label in {lines[lineno - 1]!r}", lineno) from None
        if not 0 <= v < nv:
            raise ParseError(f"label references vertex {v}, valid range is 0..{nv - 1}", lineno)
        if w < 0:
            raise ParseError(f"negative wall index {w}", lineno)
        if v in labels:
            raise ParseError(f"vertex {v} is labeled twice", lineno)
        labels[v] = w
    return positions, triangles, labels


def load(path, walls_path=None):
    """Read a CAPMESH file; returns (mesh, walls), walls None if no document."""
    path = Path(path)
    lines = path.read_text().splitlines()

    head = _tokens(lines, 1, 2, "header")
    if head[0] != CAPMESH_MAGIC or head[1] != str(CAPMESH_VERSION):
        raise ParseError(f"bad header {lines[0]!r}, expected '{CAPMESH_MAGIC} {CAPMESH_VERSION}'", 1)
    counts = _tokens(lines, 2, 3, "counts")
    try:
        nv, nf, nb = (int(c) for c in counts)
    except ValueError as exc:
        raise ParseError(f"counts must be integers: {exc}", 2) from None
    if nv < 0 or nf < 0 or nb < 0:
        raise ParseError("counts must be nonnegative", 2)

    # the per-line read names the bad line, or reads what numpy refused
    positions, triangles, labels = _read_blocks(lines, nv, nf, nb) or _read_lines(lines, nv, nf, nb)

    extra = 2 + nv + nf + nb
    for lineno in range(extra + 1, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise ParseError("unexpected trailing content", lineno)

    mesh = LabeledTriMesh(positions, triangles, labels, copy=False)
    labeled = np.fromiter(labels, np.int64, len(labels))
    interior = np.flatnonzero(~np.isin(labeled, mesh.boundary_vertices))
    if len(interior):
        i = int(interior[0])
        raise ParseError(f"label on non-boundary vertex {labeled[i]}", 3 + nv + nf + i)

    wp = Path(walls_path) if walls_path else default_walls_path(path)
    walls = load_walls(wp) if wp.exists() else None
    if walls is not None:
        # a label past the wall set would drop that boundary's terms
        wall = np.fromiter(labels.values(), np.int64, len(labels))
        past = np.flatnonzero(wall >= len(walls))
        if len(past):
            i = int(past[0])
            raise ParseError(
                f"label names wall {wall[i]}, but {wp} holds walls 0..{len(walls) - 1}", 3 + nv + nf + i
            )
    return mesh, walls
