"""Labeled triangle meshes with supporting walls: validation, refinement, file I/O.

A mesh is the discrete stand-in for an immersed surface patch: positions may
self-intersect in space, only the combinatorics must be manifold and
consistently oriented. Boundary vertices carry the index of the wall that
supports them; a boundary loop with mixed labels is rejected because it would
have to cross an intersection line of two walls. A mesh with an empty label
map is a bare immersion (no supporting walls); plane-incidence checks then do
not apply.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import (
    InvalidAngleError,
    InvalidMeshError,
    MeshValidationError,
    ParseError,
)

# plane-incidence tolerance per unit of bounding-box diameter
PLANE_TOL_FACTOR = 1e-9

CAPMESH_MAGIC = "CAPMESH"
CAPMESH_VERSION = 1

__all__ = [
    "Hyperplane",
    "WallSet",
    "LabeledTriMesh",
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
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("hyperplane normal must have unit length (within 1e-12)")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

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
        walls = []
        angles = []
        for entry in doc:
            walls.append(Hyperplane(np.asarray(entry["normal"], float), entry["offset"]))
            angles.append(float(entry["angle_rad"]))
        return cls(tuple(walls), tuple(angles))


def save_walls(walls: WallSet, path):
    Path(path).write_text(json.dumps(walls.to_document(), indent=2, sort_keys=True) + "\n")


def load_walls(path) -> WallSet:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ParseError(f"wall-set document must be a JSON list: {path}")
    return WallSet.from_document(doc)


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

    Instances are treated as immutable; operations return new meshes.
    """

    def __init__(self, positions, triangles, boundary_labels=None):
        positions = np.asarray(positions, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise InvalidMeshError("positions must have shape (nv, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise InvalidMeshError("triangles must have shape (nf, 3)")
        if not np.all(np.isfinite(positions)):
            raise InvalidMeshError("positions contain non-finite values")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(positions)):
            raise InvalidMeshError("triangle index out of range")
        self.positions = positions
        self.triangles = triangles
        self.boundary_labels = {int(k): int(v) for k, v in (boundary_labels or {}).items()}
        for v in self.boundary_labels:
            if not 0 <= v < len(positions):
                raise InvalidMeshError(f"label references vertex {v} out of range")
        self._adj_sym = None
        self._adj_dir = None

    # -- basic counts ------------------------------------------------------

    @property
    def nv(self):
        return self.positions.shape[0]

    @property
    def nf(self):
        return self.triangles.shape[0]

    # -- adjacency ---------------------------------------------------------

    @property
    def adj_dir(self):
        """Directed edge adjacency; entry counts occurrences of edge (i, j)."""
        if self._adj_dir is None:
            t = self.triangles
            i = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
            j = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
            dat = np.ones(i.shape, dtype=np.int64)
            self._adj_dir = sparse.csr_matrix((dat, (i, j)), shape=(self.nv, self.nv))
        return self._adj_dir

    @property
    def adj_sym(self):
        """Undirected edge adjacency; entry counts incident triangles."""
        if self._adj_sym is None:
            a = self.adj_dir
            self._adj_sym = (a + a.T).tocsr()
        return self._adj_sym

    def is_manifold(self):
        return self.adj_sym.nnz == 0 or self.adj_sym.data.max() <= 2

    def is_oriented(self):
        return self.adj_dir.nnz == 0 or self.adj_dir.data.max() == 1

    def is_closed(self):
        return self.adj_sym.nnz == 0 or 1 not in self.adj_sym.data

    def euler_characteristic(self):
        ne = self.adj_sym.nnz // 2
        return self.nv - ne + self.nf

    # -- boundary structure --------------------------------------------------

    def boundary_edges(self):
        """Directed boundary edges (a, b), wound as in their unique triangle."""
        a = self.adj_dir.tocoo()
        back = self.adj_dir.T.tocsr()
        rows, cols = a.row, a.col
        has_back = np.asarray(back[rows, cols]).ravel() if len(rows) else np.array([])
        mask = (a.data == 1) & (has_back == 0)
        return np.column_stack([rows[mask], cols[mask]]).astype(np.int64)

    def boundary_vertex_set(self):
        be = self.boundary_edges()
        return set(np.unique(be)) if len(be) else set()

    def boundary_loops(self):
        """Boundary loops as lists of vertex indices, following edge winding."""
        be = self.boundary_edges()
        if len(be) == 0:
            return []
        succ = {}
        for a, b in be:
            if a in succ:
                raise InvalidMeshError(f"boundary is not a union of simple loops at vertex {a}")
            succ[int(a)] = int(b)
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
            loops.append(loop)
        return loops

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

    def triangle_normals(self):
        p = self.positions
        t = self.triangles
        cr = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
        nrm = np.linalg.norm(cr, axis=1)
        nrm[nrm == 0] = 1.0
        return cr / nrm[:, None]

    def area(self):
        return float(self.triangle_areas().sum())

    def boundary_length(self, wall=None):
        be = self.boundary_edges()
        if len(be) == 0:
            return 0.0
        if wall is not None:
            lab = self.boundary_labels
            keep = [k for k, (a, b) in enumerate(be) if lab.get(int(a)) == wall and lab.get(int(b)) == wall]
            be = be[keep] if keep else be[:0]
        seg = self.positions[be[:, 1]] - self.positions[be[:, 0]] if len(be) else np.zeros((0, 3))
        return float(np.linalg.norm(seg, axis=1).sum())

    # -- derived meshes --------------------------------------------------------

    def with_positions(self, positions):
        return LabeledTriMesh(positions, self.triangles, self.boundary_labels)

    def translated(self, vector):
        return self.with_positions(self.positions + np.asarray(vector, float))

    def transformed(self, matrix):
        return self.with_positions(self.positions @ np.asarray(matrix, float).T)

    def scaled(self, s):
        return self.with_positions(self.positions * float(s))


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


def validate(mesh: LabeledTriMesh, walls: WallSet | None = None, plane_tol=None) -> ValidationReport:
    """Check every mesh invariant, reporting all violations with offending indices.

    With ``walls`` the full capillary invariants apply (label coverage and
    plane incidence); without, a labeled mesh is checked combinatorially and a
    bare mesh (empty label map) only structurally.
    """
    issues = []

    sym = mesh.adj_sym.tocoo()
    over = sym.data > 2
    if over.any():
        bad = np.column_stack([sym.row[over], sym.col[over]])
        bad = tuple(map(tuple, bad[bad[:, 0] < bad[:, 1]]))
        issues.append(ValidationIssue("manifold", f"{len(bad)} edges in more than 2 triangles", bad))

    dd = mesh.adj_dir.tocoo()
    dup = dd.data > 1
    if dup.any():
        bad = tuple(map(tuple, np.column_stack([dd.row[dup], dd.col[dup]])))
        issues.append(
            ValidationIssue("orientation", f"{len(bad)} directed edges repeated (inconsistent winding)", bad)
        )

    boundary = mesh.boundary_vertex_set()
    if not issues:
        try:
            mesh.boundary_loops()
        except InvalidMeshError as exc:
            issues.append(ValidationIssue("boundary-loops", str(exc)))

    labels = mesh.boundary_labels
    check_labels = bool(labels) or walls is not None
    if check_labels:
        missing = sorted(boundary - set(labels))
        if missing:
            issues.append(
                ValidationIssue("labels-missing", f"{len(missing)} boundary vertices without wall label", tuple(missing))
            )
        interior = sorted(set(labels) - boundary)
        if interior:
            issues.append(
                ValidationIssue("label-on-interior", f"{len(interior)} interior vertices carry a label", tuple(interior))
            )
        mixed = []
        for a, b in mesh.boundary_edges():
            la, lb = labels.get(int(a)), labels.get(int(b))
            if la is not None and lb is not None and la != lb:
                mixed.append((int(a), int(b)))
        if mixed:
            issues.append(
                ValidationIssue(
                    "mixed-boundary-edge",
                    f"{len(mixed)} boundary edges join differently labeled vertices (mesh touches a domain edge)",
                    tuple(mixed),
                )
            )

    if walls is not None and labels:
        k = len(walls)
        out_of_range = sorted(v for v, w in labels.items() if not 0 <= w < k)
        if out_of_range:
            issues.append(
                ValidationIssue("label-wall-range", f"labels reference walls outside 0..{k - 1}", tuple(out_of_range))
            )
        tol = plane_tol if plane_tol is not None else PLANE_TOL_FACTOR * mesh.bbox_diameter()
        off = []
        for v, w in labels.items():
            if 0 <= w < k:
                d = abs(float(walls.walls[w].signed_distance(mesh.positions[v])))
                if d > tol:
                    off.append(v)
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

    adjtriu = sparse.triu(mesh.adj_sym, k=1, format="csr")
    n_edges = adjtriu.nnz
    nv = mesh.nv
    numbering = adjtriu.copy()
    numbering.data = np.arange(nv, nv + n_edges)
    rows, cols = numbering.nonzero()
    mid = 0.5 * (mesh.positions[rows] + mesh.positions[cols])

    # wall labels for midpoints of boundary edges with matching endpoint labels
    face_counts = np.asarray(adjtriu[rows, cols]).ravel()
    labels = mesh.boundary_labels
    new_labels = {}
    mid_label_arr = -np.ones(n_edges, dtype=np.int64)
    for e, (a, b, c) in enumerate(zip(rows, cols, face_counts)):
        if c == 1:
            la, lb = labels.get(int(a)), labels.get(int(b))
            if la is not None and la == lb:
                new_labels[nv + e] = la
                mid_label_arr[e] = la

    if walls is not None:
        for e in np.nonzero(mid_label_arr >= 0)[0]:
            mid[e] = walls.walls[mid_label_arr[e]].project(mid[e])
    if projector is not None:
        mid = projector(mid, mid_label_arr)

    numbering_sym = (numbering + numbering.T).tocsr()
    t = mesh.triangles
    e01 = np.asarray(numbering_sym[t[:, 0], t[:, 1]]).ravel()
    e12 = np.asarray(numbering_sym[t[:, 1], t[:, 2]]).ravel()
    e20 = np.asarray(numbering_sym[t[:, 2], t[:, 0]]).ravel()
    t1 = np.column_stack([t[:, 0], e01, e20])
    t2 = np.column_stack([t[:, 1], e12, e01])
    t3 = np.column_stack([t[:, 2], e20, e12])
    t4 = np.column_stack([e01, e12, e20])
    tris = np.vstack([t1, t2, t3, t4])

    positions = np.vstack([mesh.positions, mid])
    all_labels = dict(mesh.boundary_labels)
    all_labels.update(new_labels)
    return LabeledTriMesh(positions, tris, all_labels)


# -- CAPMESH file format -------------------------------------------------------
#
#   line 1: CAPMESH 1
#   line 2: <nv> <nf> <nb>
#   nv lines: x y z           (decimal, 17 significant digits)
#   nf lines: i j k           (0-based, counterclockwise around the mesh normal)
#   nb lines: v w             (boundary vertex v supported by wall w, one line per v)


def save(mesh: LabeledTriMesh, walls: WallSet | None, path, walls_path=None):
    """Write mesh to ``path`` and, if given, walls to the sibling document."""
    path = Path(path)
    labels = sorted(mesh.boundary_labels.items())
    text = (
        f"{CAPMESH_MAGIC} {CAPMESH_VERSION}\n{mesh.nv} {mesh.nf} {len(labels)}\n"
        + "%.17g %.17g %.17g\n" * mesh.nv % tuple(mesh.positions.ravel().tolist())
        + "%d %d %d\n" * mesh.nf % tuple(mesh.triangles.ravel().tolist())
        + "%d %d\n" * len(labels) % tuple(x for row in labels for x in row)
    )
    path.write_text(text)
    if walls is not None:
        save_walls(walls, walls_path or default_walls_path(path))
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
    """
    positions = np.empty((nv, 3))
    for i in range(nv):
        lineno = 3 + i
        toks = _tokens(lines, lineno, 3, "vertex coordinates")
        try:
            positions[i] = [float(x) for x in toks]
        except ValueError:
            raise ParseError(f"bad coordinate in {lines[lineno - 1]!r}", lineno) from None

    triangles = np.empty((nf, 3), dtype=np.int64)
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

    mesh = LabeledTriMesh(positions, triangles, labels)
    boundary = mesh.boundary_vertex_set()
    for i, v in enumerate(labels):
        if v not in boundary:
            raise ParseError(f"label on non-boundary vertex {v}", 3 + nv + nf + i)

    wp = Path(walls_path) if walls_path else default_walls_path(path)
    walls = load_walls(wp) if wp.exists() else None
    return mesh, walls
