"""Per-mesh set-up against the builders it replaced, bit for bit.

The references below are the former builders: the pair pattern from one
stable argsort of all 9 nf (corner, corner) keys, the adjacency matrices as
COO -> CSR builds, the boundary edges looked up in the directed adjacency,
refinement numbered through the upper triangle of the adjacency, the family
meshes built one ring and one ring pair at a time, and the element matrices
formed corner by corner with the B matrices as ``sparse.diags(...).tocsr()``.
The mesh now sorts its vertex pairs once (``LabeledTriMesh.edges``) and reads
everything else off that sort, assembly gathers the corners once, and one
ring builder lays out every family mesh; the arithmetic is the same, so every
array must be equal, dtypes included.

The exact fields of the surfaces of revolution were closed forms per family;
they now follow from each family's meridian. Products and quotients are
rounded in another order, so each field must stay within 4 ulp of the former
closed form, or within 1e-15 where that was an exact 0 or +-1.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from caplab import discops, families, meshkit

SPECS = {
    "cap60-16": families.Cap(R=1.0, theta=math.pi / 3, resolution=16),
    "cap120-40": families.Cap(R=0.7, theta=math.radians(120), resolution=40),
    "cylinder-12": families.Cylinder(r=1.0, L=3.0, resolution=12),
    "cylinder-33": families.Cylinder(r=0.8, L=2.0, resolution=33),
    "disk-8": families.FlatDisk(R=1.0, resolution=8),
    "disk-30": families.FlatDisk(R=2.0, resolution=30),
    "sphere-9": families.ClosedSphere(R=1.0, resolution=9),
    "sphere-24": families.ClosedSphere(R=1.5, resolution=24),
    "monge-10": families.MongePatch(amplitude=0.1, R=1.0, resolution=10),
    "monge-36": families.MongePatch(amplitude=0.15, R=1.0, resolution=36),
}


def _cap_variants():
    spec = SPECS["cap60-16"]
    mesh, _ = families.generate_mesh(spec)
    refined = mesh
    for _ in range(2):
        refined = meshkit.refine(refined, families.surface_projector(spec), walls=spec.walls())
    reversed_winding = meshkit.LabeledTriMesh(mesh.positions, mesh.triangles[:, ::-1], mesh.boundary_labels)
    return {"cap60-16-refined-twice": refined, "cap60-16-reversed": reversed_winding}


MESHES = {name: families.generate_mesh(spec)[0] for name, spec in SPECS.items()} | _cap_variants()


def _build_grid():
    """Family specs over the ring counts from the smallest to nearly 100k vertices."""
    grid = {}
    for res in (3, 4, 12, 33, 64, 128):
        # at 42 degrees and res 64 or 128, theta * m / m is not theta: the
        # last ring must take its height and radius from theta itself
        for deg in (5, 10, 42, 45, 60, 90, 120, 150, 170, 175):
            grid[f"cap{deg}-r1.3-{res}"] = families.Cap(R=1.3, theta=math.radians(deg), resolution=res)
        for R in (0.5, 1.904):
            for deg in (45, 120):
                grid[f"cap{deg}-r{R}-{res}"] = families.Cap(R=R, theta=math.radians(deg), resolution=res)
        for L in (0.01, 0.5, 4.0, 40.0):
            grid[f"cylinder-l{L}-{res}"] = families.Cylinder(r=1.0, L=L, resolution=res)
        grid[f"disk-r1.3-{res}"] = families.FlatDisk(R=1.3, resolution=res)
        grid[f"sphere-r0.5-{res}"] = families.ClosedSphere(R=0.5, resolution=res)
        grid[f"monge-a0.13-{res}"] = families.MongePatch(amplitude=0.13, R=1.2, resolution=res)
    return grid


# the build references alone run on the wider grid; MESHES stays small
BUILD_SPECS = SPECS | _build_grid()

# triangle lists that break one mesh invariant each, on 7 random points
INVALID = {
    "non-manifold-edge": [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
    "inconsistent-orientation": [[0, 1, 2], [0, 1, 3], [1, 3, 4]],
    "isolated-vertex": [[0, 1, 2], [2, 1, 3], [3, 1, 4]],
    "all-three": [[0, 1, 2], [1, 0, 3], [0, 1, 4], [4, 5, 1], [4, 5, 2]],
}


def invalid_mesh(name):
    return meshkit.LabeledTriMesh(np.random.default_rng(7).uniform(size=(7, 3)), INVALID[name])


# -- the former builders ---------------------------------------------------------


# THIRD[a, b]: the corner of a triangle that is neither a nor b (a != b)
THIRD = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]])


def reference_pair_pattern(mesh):
    t, nv = mesh.triangles, mesh.nv
    keys = (np.repeat(t, 3, axis=1) * nv + np.tile(t, 3)).ravel()
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    slots = np.empty(len(keys), dtype=np.int32)
    slots[order] = np.cumsum(first) - 1
    pairs = ordered[first]
    indptr = np.searchsorted(pairs, np.arange(nv + 1) * nv).astype(np.int32)
    slots = slots.reshape(-1, 3, 3)
    diagonal = np.full(nv, -1, dtype=np.int32)
    diagonal[t] = slots[:, [0, 1, 2], [0, 1, 2]]
    return indptr, (pairs % nv).astype(np.int32), slots, diagonal


def reference_adjacency(mesh):
    t = mesh.triangles
    i = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    j = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    adj_dir = sparse.csr_matrix((np.ones(i.shape, dtype=np.int64), (i, j)), shape=(mesh.nv, mesh.nv))
    return adj_dir, (adj_dir + adj_dir.T).tocsr()


def reference_boundary_edges(mesh):
    adj_dir, _ = reference_adjacency(mesh)
    a = adj_dir.tocoo()
    has_back = np.asarray(adj_dir[a.col, a.row]).ravel() if a.nnz else np.array([])
    mask = (a.data == 1) & (has_back == 0)
    return np.column_stack([a.row[mask], a.col[mask]]).astype(np.int64)


def reference_structure_issues(mesh):
    adj_dir, adj_sym = reference_adjacency(mesh)
    issues = []
    sym = adj_sym.tocoo()
    over = sym.data > 2
    if over.any():
        bad = np.column_stack([sym.row[over], sym.col[over]])
        bad = tuple(map(tuple, bad[bad[:, 0] < bad[:, 1]]))
        issues.append(("manifold", f"{len(bad)} edges in more than 2 triangles", bad))
    dd = adj_dir.tocoo()
    dup = dd.data > 1
    if dup.any():
        bad = tuple(map(tuple, np.column_stack([dd.row[dup], dd.col[dup]])))
        issues.append(("orientation", f"{len(bad)} directed edges repeated (inconsistent winding)", bad))
    return issues


def reference_refine(mesh):
    """Midpoint subdivision numbered through the upper triangle of adj_sym (no projector)."""
    _, adj_sym = reference_adjacency(mesh)
    adjtriu = sparse.triu(adj_sym, k=1, format="csr")
    nv = mesh.nv
    numbering = adjtriu.copy()
    numbering.data = np.arange(nv, nv + adjtriu.nnz)
    rows, cols = numbering.nonzero()
    mid = 0.5 * (mesh.positions[rows] + mesh.positions[cols])
    face_counts = np.asarray(adjtriu[rows, cols]).ravel()
    la, lb = mesh.vertex_wall[rows], mesh.vertex_wall[cols]
    mid_label = np.where((face_counts == 1) & (la == lb), la, -1)
    numbering_sym = (numbering + numbering.T).tocsr()
    t = mesh.triangles
    e01 = np.asarray(numbering_sym[t[:, 0], t[:, 1]]).ravel()
    e12 = np.asarray(numbering_sym[t[:, 1], t[:, 2]]).ravel()
    e20 = np.asarray(numbering_sym[t[:, 2], t[:, 0]]).ravel()
    tris = np.vstack(
        [
            np.column_stack([t[:, 0], e01, e20]),
            np.column_stack([t[:, 1], e12, e01]),
            np.column_stack([t[:, 2], e20, e12]),
            np.column_stack([e01, e12, e20]),
        ]
    )
    new = np.flatnonzero(mid_label >= 0)
    labels = {**mesh.boundary_labels, **dict(zip((nv + new).tolist(), mid_label[new].tolist()))}
    return np.vstack([mesh.positions, mid]), tris, labels


def _strip(ring_a, ring_b):
    n = len(ring_a)
    ln = np.arange(n)
    lp = (ln + 1) % n
    a, b = ring_a[ln], ring_a[lp]
    d, c = ring_b[ln], ring_b[lp]
    return np.vstack([np.column_stack([a, b, c]), np.column_stack([a, c, d])])


def _ring(alphas, rho, z):
    n = len(alphas)
    return np.column_stack([rho * np.cos(alphas), rho * np.sin(alphas), np.full(n, z)])


def reference_build(spec):
    """The family's mesh built one ring, and one ring pair, at a time."""
    n = spec.resolution
    alphas = 2.0 * math.pi * np.arange(n) / n
    if isinstance(spec, families.Cylinder):
        m = max(2, round(min(n * spec.L / (2.0 * math.pi * spec.r), families.MAX_VERTICES)))
        positions = np.vstack([_ring(alphas, spec.r, spec.L * j / m) for j in range(m + 1)])
        rings = [j * n + np.arange(n) for j in range(m + 1)]
        tris = np.vstack([_strip(rings[j], rings[j + 1]) for j in range(m)])[:, [0, 2, 1]]
        return positions, tris, {**dict.fromkeys(rings[0].tolist(), 0), **dict.fromkeys(rings[-1].tolist(), 1)}
    if isinstance(spec, families.Cap):
        R, theta = spec.R, spec.theta
        m = max(2, round(n * theta / (2.0 * math.pi * math.sin(theta))))
        c = spec.center
        phis = [*(theta * j / m for j in range(1, m)), theta]
        rows = [_ring(alphas, R * math.sin(phi), R * math.cos(phi) + c[2]) for phi in phis]
        positions = np.vstack([(c + np.array([0.0, 0.0, R]))[None, :], *rows])
        positions[1 + (m - 1) * n :, 2] = R * math.cos(theta) + c[2]
    elif isinstance(spec, families.ClosedSphere):
        R = spec.R
        m = max(3, round(n / 2))
        rows = [_ring(alphas, R * math.sin(math.pi * j / m), R * math.cos(math.pi * j / m)) for j in range(1, m)]
        positions = np.vstack([[0.0, 0.0, R], *rows, [0.0, 0.0, -R]])
    else:
        # the polar grid of the flat disk and of the Monge patch
        m = max(2, round(n / (2.0 * math.pi)) + 1)
        positions = np.vstack([[0.0, 0.0, 0.0], *[_ring(alphas, spec.R * j / m, 0.0) for j in range(1, m + 1)]])
        if isinstance(spec, families.MongePatch):
            positions[:, 2] = spec.height(positions[:, 0], positions[:, 1])
    nv = len(positions)
    closed = isinstance(spec, families.ClosedSphere)
    rings = [1 + j * n + np.arange(n) for j in range((nv - 1 - closed) // n)]
    tris = [families._fan(0, rings[0], reverse=True)]
    tris += [_strip(rings[j], rings[j + 1]) for j in range(len(rings) - 1)]
    if closed:
        tris.append(families._fan(nv - 1, rings[-1]))
    tris = np.vstack(tris)
    if isinstance(spec, (families.FlatDisk, families.MongePatch)):
        tris = tris[:, [0, 2, 1]]
    walled = isinstance(spec, (families.Cap, families.FlatDisk))
    return positions, tris, dict.fromkeys(rings[-1].tolist(), 0) if walled else {}


def reference_geometry(mesh):
    """Triangle areas and half-cotangents, each corner's edges gathered on their own."""
    p, t = mesh.positions, mesh.triangles
    cr = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
    areas = 0.5 * np.linalg.norm(cr, axis=1)
    half_cot = np.empty((mesh.nf, 3))
    for corner in range(3):
        u = p[t[:, (corner + 1) % 3]] - p[t[:, corner]]
        w = p[t[:, (corner + 2) % 3]] - p[t[:, corner]]
        half_cot[:, corner] = np.einsum("ij,ij->i", u, w) / (4.0 * areas)
    return areas, half_cot


def reference_corner_geometry(mesh):
    """Areas, half-cotangents and vertex normals from one (nf, 3, 3) gather of the corners."""
    corners = np.take(mesh.positions, mesh.triangles, axis=0)
    u = np.take(corners, [1, 2, 0], axis=1) - corners
    w = np.take(corners, [2, 0, 1], axis=1) - corners
    cr = np.cross(u[:, 0], w[:, 0])
    nrm = np.linalg.norm(cr, axis=1)
    areas = 0.5 * nrm
    half_cot = np.einsum("fcj,fcj->fc", u, w) / (4.0 * areas)[:, None]
    fn = cr / np.where(nrm == 0, 1.0, nrm)[:, None]
    lengths = np.linalg.norm(u, axis=2) * np.linalg.norm(w, axis=2)
    cosang = np.einsum("fcj,fcj->fc", u, w) / np.maximum(lengths, 1e-300)
    ang = np.arccos(np.clip(cosang, -1, 1)).T
    corner_vertices = mesh.triangles.T.ravel()
    acc = np.column_stack(
        [np.bincount(corner_vertices, weights=(ang * fn[:, j]).ravel(), minlength=mesh.nv) for j in range(3)]
    )
    nrm = np.linalg.norm(acc, axis=1)
    nrm[nrm == 0] = 1.0
    return areas, half_cot, acc / nrm[:, None]


def _radial(q):
    out = np.zeros((len(q), 3))
    out[:, :2] = q[:, :2] / np.linalg.norm(q[:, :2], axis=1)[:, None]
    return out


def reference_exact(spec, p, b):
    """N, H, |sigma|^2 and the boundary arrays at ``b`` from each family's former closed forms."""
    nv, nb = len(p), len(b)
    e3 = np.array([0.0, 0.0, 1.0])
    if isinstance(spec, families.Cap):
        rho_hat = _radial(p[b])
        ct, st = math.cos(spec.theta), math.sin(spec.theta)
        boundary = {
            "conormal": ct * rho_hat - st * e3,
            "wall_conormal": rho_hat,
            "sigma_nn": np.full(nb, 1.0 / spec.R),
            "bdry_curv": np.full(nb, -1.0 / (spec.R * st)),
            "angle": np.full(nb, spec.theta),
        }
        return -((p - spec.center) / spec.R), np.full(nv, 1.0 / spec.R), np.full(nv, 2.0 / spec.R**2), boundary
    if isinstance(spec, families.Cylinder):
        q = p[b]
        boundary = {
            "conormal": np.where((q[:, 2] > spec.L / 2)[:, None], e3, -e3),
            "wall_conormal": _radial(q),
            "sigma_nn": np.zeros(nb),
            "bdry_curv": np.full(nb, -1.0 / spec.r),
            "angle": np.full(nb, math.pi / 2),
        }
        return _radial(-p), np.full(nv, 0.5 / spec.r), np.full(nv, 1.0 / spec.r**2), boundary
    if isinstance(spec, families.FlatDisk):
        rho_hat = _radial(p[b])
        boundary = {
            "conormal": rho_hat,
            "wall_conormal": -rho_hat,
            "sigma_nn": np.zeros(nb),
            "bdry_curv": np.full(nb, 1.0 / spec.R),
            "angle": np.full(nb, math.pi),
        }
        return np.tile(e3, (nv, 1)), np.zeros(nv), np.zeros(nv), boundary
    assert isinstance(spec, families.ClosedSphere)
    return -p / spec.R, np.full(nv, 1.0 / spec.R), np.full(nv, 2.0 / spec.R**2), {}


def reference_boundary_measures(mesh):
    """B_all and B_wall through a DIA matrix, from the reference boundary edges."""
    p, nv = mesh.positions, mesh.nv
    be = reference_boundary_edges(mesh)
    half = np.repeat(0.5 * np.linalg.norm(p[be[:, 1]] - p[be[:, 0]], axis=1), 2)
    ends = mesh.vertex_wall[be]
    edge_wall = np.repeat(np.where(ends[:, 0] == ends[:, 1], ends[:, 0], -1), 2)
    B_wall = {}
    for w in np.unique(edge_wall[edge_wall >= 0]).tolist():
        on = edge_wall == w
        B_wall[w] = sparse.diags(np.bincount(be.ravel()[on], half[on], minlength=nv)).tocsr()
    B_all = sparse.diags(np.bincount(be.ravel(), half, minlength=nv).astype(float, copy=False)).tocsr()
    return B_wall, B_all


# -- comparisons -----------------------------------------------------------------


def assert_identical(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert np.array_equal(new, old)


def assert_same_csr(new, old):
    for name in ("indptr", "indices", "data"):
        assert_identical(getattr(new, name), getattr(old, name))


def check_topology(mesh):
    indptr, indices, slots, diagonal = reference_pair_pattern(mesh)
    # the slots are held in the index type np.bincount reads
    for new, old in zip(mesh.pair_pattern, (indptr, indices, slots.astype(np.intp), diagonal)):
        assert_identical(new, old)
    adj_dir, adj_sym = reference_adjacency(mesh)
    assert_identical(mesh.boundary_edges, reference_boundary_edges(mesh))
    assert mesh.is_manifold() == (adj_sym.nnz == 0 or adj_sym.data.max() <= 2)
    assert mesh.is_oriented() == (adj_dir.nnz == 0 or adj_dir.data.max() == 1)
    assert mesh.is_closed() == (adj_sym.nnz == 0 or 1 not in adj_sym.data)
    assert mesh.euler_characteristic() == mesh.nv - adj_sym.nnz // 2 + mesh.nf


@pytest.mark.parametrize("name", list(MESHES))
def test_topology_matches_former_builders(name):
    check_topology(MESHES[name])


@pytest.mark.parametrize("name", list(INVALID))
def test_invalid_mesh_topology_and_counts(name):
    mesh = invalid_mesh(name)
    check_topology(mesh)
    report = meshkit.validate(mesh)
    structure = [(i.check, i.message, i.indices) for i in report.issues if i.check in ("manifold", "orientation")]
    assert structure == reference_structure_issues(mesh)
    assert report.ok == (name == "isolated-vertex")


@pytest.mark.parametrize("name", list(MESHES))
def test_refine_matches_former_numbering(name):
    mesh = MESHES[name]
    fine = meshkit.refine(mesh)
    positions, triangles, labels = reference_refine(mesh)
    assert_identical(fine.positions, positions)
    assert_identical(fine.triangles, triangles)
    assert fine.boundary_labels == labels


@pytest.mark.parametrize("name", list(BUILD_SPECS))
def test_family_strips_match_ring_by_ring(name):
    spec = BUILD_SPECS[name]
    positions, triangles, labels = spec.build()
    ref_positions, ref_triangles, ref_labels = reference_build(spec)
    assert positions.dtype == ref_positions.dtype == np.float64
    assert_identical(positions.view(np.uint64), ref_positions.view(np.uint64))
    assert_identical(triangles, ref_triangles)
    assert labels == ref_labels
    assert all(type(v) is int and type(w) is int for v, w in labels.items())
    if isinstance(spec, families.Cap):
        assert np.all(positions[list(labels), 2] == 0.0)


@pytest.mark.parametrize("name", [name for name, spec in BUILD_SPECS.items() if isinstance(spec, families.Cap)])
def test_cap_rim_lies_on_the_wall_circle(name):
    # a rim radius of R sin(theta * m / m) sat up to 42 ulp off the circle
    spec = BUILD_SPECS[name]
    positions, _, labels = spec.build()
    rim = positions[list(labels)]
    radius = spec.R * math.sin(spec.theta)
    assert np.abs(np.hypot(rim[:, 0], rim[:, 1]) - radius).max() <= np.spacing(radius)


GRID_MESHES = {
    name: meshkit.LabeledTriMesh(*spec.build()) for name, spec in _build_grid().items()
} | _cap_variants()


@pytest.mark.parametrize("name", list(GRID_MESHES))
def test_corner_planes_match_corner_array(name):
    # one gather per coordinate plane, the same products and sums
    mesh = GRID_MESHES[name]
    areas, half_cot, normals = reference_corner_geometry(mesh)
    new_areas, new_half_cot = discops._element_geometry(mesh)
    assert_identical(new_areas, areas)
    assert_identical(new_half_cot, half_cot)
    assert_identical(discops._vertex_normals(mesh), normals)


@pytest.mark.parametrize("name", list(MESHES))
def test_assembly_matches_corner_by_corner(name):
    mesh = MESHES[name]
    areas, half_cot = discops._element_geometry(mesh)
    ref_areas, ref_half_cot = reference_geometry(mesh)
    assert_identical(areas, ref_areas)
    assert_identical(half_cot, ref_half_cot)

    ops = discops.assemble_operators(mesh)
    pattern = mesh.pair_pattern
    M = np.repeat(ref_areas / 12.0, 9).reshape(-1, 3, 3)
    M[:, [0, 1, 2], [0, 1, 2]] = (ref_areas / 6.0)[:, None]
    K = -ref_half_cot[:, THIRD]
    K[:, [0, 1, 2], [0, 1, 2]] = ref_half_cot[:, [1, 2, 0]] + ref_half_cot[:, [2, 0, 1]]
    assert_same_csr(ops.M, pattern.assemble(M))
    assert_same_csr(ops.K, pattern.assemble(K))

    B_wall, B_all = reference_boundary_measures(mesh)
    assert_same_csr(ops.B_all, B_all)
    assert sorted(ops.B_wall) == sorted(B_wall)
    for w, B in B_wall.items():
        assert_same_csr(ops.B_wall[w], B)

    w = np.random.default_rng(11).uniform(-1.0, 2.0, mesh.nv)
    wt = w[mesh.triangles]
    local = (wt[:, :, None] + wt[:, None, :]) / 30.0 + wt[:, THIRD] / 60.0
    local[:, [0, 1, 2], [0, 1, 2]] = wt / 10.0 + (wt.sum(axis=1)[:, None] - wt) / 30.0
    assert_same_csr(discops.weighted_mass(mesh, w), pattern.assemble(ref_areas[:, None, None] * local))


# the Monge patch keeps its own closed forms; every other family is a surface of revolution
RING_SPECS = [name for name, spec in BUILD_SPECS.items() if isinstance(spec, families.RingFamily)]


@pytest.mark.parametrize("name", RING_SPECS)
def test_exact_fields_match_former_closed_forms(name):
    spec = BUILD_SPECS[name]
    mesh = GRID_MESHES[name] if name in GRID_MESHES else MESHES[name]
    fields = families.exact_fields(spec, mesh)
    b = mesh.boundary_vertices
    normal, mean_curv, sigma_sq, boundary = reference_exact(spec, mesh.positions, b)
    former = {"normal": normal, "mean_curv": mean_curv, "sigma_sq": sigma_sq}
    for field in ("conormal", "wall_conormal", "sigma_nn", "bdry_curv", "angle"):
        former[field] = np.full(getattr(fields, field).shape, np.nan)
        if field in boundary:
            former[field][b] = boundary[field]
    for field, old in former.items():
        new = getattr(fields, field)
        assert new.shape == old.shape
        nan = np.isnan(old)
        assert np.array_equal(np.isnan(new), nan), field
        new, old = new[~nan], old[~nan]
        exact = (old == 0) | (np.abs(old) == 1)
        assert np.all(np.abs(new - old)[exact] <= 1e-15), field
        assert np.all(np.abs(new - old)[~exact] <= 4 * np.spacing(np.abs(old[~exact]))), field
