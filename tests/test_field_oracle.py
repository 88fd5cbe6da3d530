"""Batched field estimation against a per-vertex scalar reference.

The reference below fits one vertex at a time: a tangent frame, the weighted
quadric height fit solved by ``np.linalg.lstsq`` twice (the second pass in
the plane regressed by the first), the curvature pencil, and a walk along
every boundary loop vertex by vertex. ``estimate_fields`` solves the same
least-squares problems another way: from the normal equations of the design
whose quadratic columns are divided by the stencil's RMS distance h, by a
Cholesky factor taken over a block of stencils at once, so the sums and their
rounding differ. The normal equations lose cond^2 times the unit roundoff,
where cond is the ratio of the largest to the smallest |R_ii| of that
scaled design; any stencil with cond past 300 is fitted by QR instead, so
that loss stays near 1e-11 and every field must still agree to 1e-10 of
its largest entry. The meshes below span the conditioning seen so far: the
60-degree cap at res 256 reaches 2,082 unscaled and 55 scaled, and a cap
squashed to 1e-3 of its height is nearly flat; no family mesh takes the QR
path, and a cap compressed 33-fold across does. Two cases are compared
otherwise, each where it arises: a surface whose mean H is at rounding
level, whose orientation is arbitrary, and a rank-deficient fit, which
also takes the QR path.
"""

import collections
import math

import numpy as np
import pytest

from caplab import discops, families, meshkit
from caplab.errors import FitFailureError
from conftest import edge_adjacency

TOL = 1e-10
FIELDS = (
    "normal", "mean_curv", "sigma_sq", "conormal",
    "wall_conormal", "sigma_nn", "bdry_curv", "angle",
)


def _tangent_frame(n):
    axis = np.zeros(3)
    axis[np.argmin(np.abs(n))] = 1.0
    t1 = np.cross(n, axis)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return t1, t2


def _fit_shape(points, center, normal, scale):
    if len(points) < 5:
        raise FitFailureError(f"stencil of {len(points)} points too small for a quadric fit")
    t1, t2 = _tangent_frame(normal)
    d = points - center
    x = d @ t1
    y = d @ t2
    z = d @ normal
    dist = np.linalg.norm(d, axis=1)
    w = 1.0 / (dist + 1e-8 * scale)
    A = np.column_stack([x, y, 0.5 * x * x, x * y, 0.5 * y * y]) * w[:, None]
    coef, *_ = np.linalg.lstsq(A, z * w, rcond=None)
    p1, p2, fxx, fxy, fyy = coef
    W = math.sqrt(1.0 + p1 * p1 + p2 * p2)
    M1 = np.array([[1.0 + p1 * p1, p1 * p2], [p1 * p2, 1.0 + p2 * p2]])
    M2 = np.array([[fxx, fxy], [fxy, fyy]]) / W
    n_fit = (normal - p1 * t1 - p2 * t2) / W
    return M1, M2, t1, t2, n_fit


def _pencil_curvatures(M1, M2):
    a2 = M1[0, 0] * M1[1, 1] - M1[0, 1] ** 2
    a1 = -(M2[0, 0] * M1[1, 1] + M2[1, 1] * M1[0, 0] - 2.0 * M2[0, 1] * M1[0, 1])
    a0 = M2[0, 0] * M2[1, 1] - M2[0, 1] ** 2
    disc = max(a1 * a1 - 4.0 * a2 * a0, 0.0)
    r = math.sqrt(disc)
    return ((-a1 - r) / (2 * a2), (-a1 + r) / (2 * a2))


def _two_rings(adj):
    """The 2-ring of each vertex, itself included, as the float product adj + adj @ adj:
    the former construction of the fit stencils, whose order they keep."""
    return adj + adj @ adj


def _stencil(rings, v):
    idx = rings.indices[rings.indptr[v] : rings.indptr[v + 1]]
    return idx[idx != v]


def reference_fields(mesh, walls=None):
    """Per-vertex loop estimate of every field (the former implementation)."""
    p = mesh.positions
    nv = mesh.nv
    scale = mesh.bbox_diameter()
    normals = discops._vertex_normals(mesh)
    adj = edge_adjacency(mesh)
    rings = _two_rings(adj)
    H = np.zeros(nv)
    sigma_sq = np.zeros(nv)
    fits = {}
    for v in range(nv):
        idx = _stencil(rings, v)
        _, _, _, _, n_fit = _fit_shape(p[idx], p[v], normals[v], scale)
        M1, M2, t1, t2, n_fit = _fit_shape(p[idx], p[v], n_fit, scale)
        normals[v] = n_fit
        k1, k2 = _pencil_curvatures(M1, M2)
        H[v] = 0.5 * (k1 + k2)
        sigma_sq[v] = k1 * k1 + k2 * k2
        fits[v] = (M1, M2, t1, t2)

    areas_lumped = np.zeros(nv)
    np.add.at(areas_lumped, mesh.triangles.ravel(), np.repeat(mesh.triangle_areas() / 3.0, 3))
    mean_H = float(H @ areas_lumped / areas_lumped.sum())
    flipped = mean_H < 0
    if flipped:
        normals = -normals
        H = -H

    loops = mesh.boundary_loops
    conormal = np.full((nv, 3), np.nan)
    wall_conormal = np.full((nv, 3), np.nan)
    sigma_nn = np.full(nv, np.nan)
    bdry_curv = np.full(nv, np.nan)
    angle = np.full(nv, np.nan)
    labels = mesh.boundary_labels
    for loop in loops:
        m = len(loop)
        for li, v in enumerate(loop):
            prev = loop[li - 1]
            nxt = loop[(li + 1) % m]
            T = p[nxt] - p[prev]
            tn = np.linalg.norm(T)
            if tn == 0:
                continue
            T = T / tn
            N = normals[v]
            nu = np.cross(T, N)
            nu -= N * (nu @ N)
            nrm = np.linalg.norm(nu)
            if nrm == 0:
                continue
            nu /= nrm
            ring1 = adj.indices[adj.indptr[v] : adj.indptr[v + 1]]
            interior_dir = p[ring1].mean(axis=0) - p[v]
            if nu @ interior_dir > 0:
                nu = -nu
            conormal[v] = nu

            M1, M2, t1, t2 = fits[v]
            if flipped:
                M2 = -M2
            q = np.array([nu @ t1, nu @ t2])
            denom = q @ M1 @ q
            if denom > 0:
                sigma_nn[v] = float(q @ M2 @ q) / float(denom)

            w = labels.get(v)
            if walls is not None and w is not None and 0 <= w < len(walls):
                n_i = walls.walls[w].normal
                nb_raw = np.cross(n_i, T)
                nrm = np.linalg.norm(nb_raw)
                if nrm > 0:
                    nb_vec = nb_raw / nrm
                    s_surface = np.cross(N, nu) @ T
                    s_wall = np.cross(n_i, nb_vec) @ T
                    if s_surface * s_wall < 0:
                        nb_vec = -nb_vec
                    wall_conormal[v] = nb_vec
                    a = p[prev] - p[v]
                    b = p[nxt] - p[v]
                    chord = p[nxt] - p[prev]
                    area2 = np.linalg.norm(np.cross(a, b))
                    denom = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(chord)
                    kappa = 2.0 * area2 / denom if denom > 0 else 0.0
                    bend = a + b
                    bdry_curv[v] = math.copysign(kappa, bend @ nb_vec) if kappa > 0 else 0.0
                angle[v] = math.acos(float(np.clip(N @ n_i, -1.0, 1.0)))

    return discops.GeometryFields(
        normal=normals,
        mean_curv=H,
        sigma_sq=sigma_sq,
        conormal=conormal,
        wall_conormal=wall_conormal,
        sigma_nn=sigma_nn,
        bdry_curv=bdry_curv,
        angle=angle,
        info={"flipped": flipped, "mean_H": mean_H},
    )


def assert_same(got, want, tol=TOL):
    """Identical NaN masks and agreement to ``tol`` of the largest entry."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(want)
    if finite.any():
        scale = max(np.abs(want[finite]).max(), 1e-300)
        assert np.abs(got[finite] - want[finite]).max() <= tol * scale


def reoriented(fields):
    """The same fields under the opposite global normal orientation."""
    return discops.GeometryFields(
        normal=-fields.normal,
        mean_curv=-fields.mean_curv,
        sigma_sq=fields.sigma_sq,
        conormal=fields.conormal,
        wall_conormal=-fields.wall_conormal,
        sigma_nn=-fields.sigma_nn,
        bdry_curv=-fields.bdry_curv,
        angle=math.pi - fields.angle,
        info={**fields.info, "flipped": not fields.info["flipped"]},
    )


def assert_fields_match(mesh, walls, tol=TOL):
    got = discops.estimate_fields(mesh, walls)
    want = reference_fields(mesh, walls)
    if got.info["flipped"] != want.info["flipped"]:
        # with mean H at rounding level the orientation is arbitrary (and
        # logged as such); only then may the two disagree on it
        for f in (got, want):
            assert abs(f.info["mean_H"]) * mesh.bbox_diameter() < 1e-8
        want = reoriented(want)
    for name in FIELDS:
        assert_same(getattr(got, name), getattr(want, name), tol)
    return got


def _family(kind, res):
    if kind == "cap60":
        return families.Cap(R=1.0, theta=math.pi / 3, resolution=res)
    if kind == "cap120":
        return families.Cap(R=1.0, theta=2 * math.pi / 3, resolution=res)
    if kind == "hemisphere":
        return families.Cap(R=1.0, theta=math.pi / 2, resolution=res)
    if kind == "cylinder":
        return families.Cylinder(r=1.0, L=2.0, resolution=res)
    if kind == "sphere":
        return families.ClosedSphere(R=1.0, resolution=res)
    return families.MongePatch(amplitude=0.1, R=1.0, resolution=res)


# cylinder and sphere at res 64 have 1088 and 1728 vertices whose stencil has
# 18 points, so their largest group spans several fitting blocks
@pytest.mark.parametrize("res", [16, 32, 64])
@pytest.mark.parametrize("kind", ["cap60", "cap120", "hemisphere", "cylinder", "sphere", "monge"])
def test_family_meshes_match_reference(kind, res):
    spec = _family(kind, res)
    mesh, _ = families.generate_mesh(spec)
    got = assert_fields_match(mesh, spec.walls())
    assert got.info["fallback_fits"] == 0


@pytest.mark.parametrize("res", [128, 256])
def test_fine_caps_match_reference(res):
    # the finest stencils relative to the curvature: the unscaled design
    # reaches cond 2,082 at res 256
    spec = _family("cap60", res)
    mesh, _ = families.generate_mesh(spec)
    got = assert_fields_match(mesh, spec.walls())
    assert got.info["fallback_fits"] == 0
    if res == 256:
        assert got.info["max_fit_cond"] > 2000


def test_squashed_cap_matches_reference():
    # heights 1e-3 of the cap's: the quadratic columns nearly vanish
    spec = _family("cap60", 32)
    mesh, _ = families.generate_mesh(spec)
    flat = meshkit.LabeledTriMesh(mesh.positions * [1.0, 1.0, 1e-3], mesh.triangles, mesh.boundary_labels)
    got = assert_fields_match(flat, spec.walls())
    assert got.info["fallback_fits"] == 0


def test_anisotropic_cap_takes_the_qr_path():
    # x compressed 33-fold: the scaled design of some stencils reaches cond
    # 3.6e3, past the 300 the normal equations are trusted to, so those fits
    # go through QR and still match
    spec = _family("cap60", 32)
    mesh, _ = families.generate_mesh(spec)
    thin = meshkit.LabeledTriMesh(mesh.positions * [0.03, 1.0, 1.0], mesh.triangles, mesh.boundary_labels)
    got = assert_fields_match(thin, spec.walls())
    assert got.info["fallback_fits"] > 0


def test_projected_refinement_matches_reference():
    # two midpoint refinements projected to the sphere: valences 4 to 6 and
    # the apex give stencils of many sizes, some held by a few vertices
    spec = _family("cap60", 16)
    mesh, _ = families.generate_mesh(spec)
    walls = spec.walls()
    for _ in range(2):
        mesh = meshkit.refine(mesh, families.surface_projector(spec), walls=walls)
    sizes = discops._two_rings(edge_adjacency(mesh))[1]
    assert len(np.unique(sizes)) >= 6 and np.bincount(sizes)[sizes].min() == 1
    got = assert_fields_match(mesh, walls)
    assert got.info["fallback_fits"] == 0


@pytest.mark.parametrize("kind, res, points", [("cylinder", 64, 18), ("cap60", 128, 135)])
def test_block_boundary_is_crossed(kind, res, points):
    # the regular stencils of the tube, and the ring next to the cap's apex
    # (whose fields test_fine_caps_match_reference checks), each hold more
    # stencil points than one fitting block
    mesh, _ = families.generate_mesh(_family(kind, res))
    counts = discops._two_rings(edge_adjacency(mesh))[1]
    assert np.bincount(counts)[points] * points > discops.FIT_POINTS


def _renumbered(mesh):
    perm = np.random.default_rng(5).permutation(mesh.nv)
    new = np.argsort(perm)
    labels = {int(new[v]): w for v, w in mesh.boundary_labels.items()}
    return meshkit.LabeledTriMesh(mesh.positions[perm], new[mesh.triangles], labels)


@pytest.mark.parametrize("case", ["cap", "refined", "renumbered", "strip"])
def test_stencils_keep_the_order_of_the_float_product(case):
    # the order of a stencil's points sets the rounding of its fit sums, so
    # the boolean pattern without its diagonal lists every 2-ring as the
    # float product did
    if case == "strip":
        mesh = _strip()
    else:
        spec = _family("cap60", 32)
        mesh, _ = families.generate_mesh(spec)
        if case == "refined":
            mesh = meshkit.refine(mesh, families.surface_projector(spec), walls=spec.walls())
        if case == "renumbered":
            mesh = _renumbered(mesh)
    adj = discops._one_ring(mesh)
    cols, counts = discops._two_rings(adj)
    rings = _two_rings(adj.astype(float))
    want = [_stencil(rings, v) for v in range(mesh.nv)]
    assert np.array_equal(counts, [len(idx) for idx in want])
    assert np.array_equal(cols, np.concatenate(want))


def test_unprojected_refinement_matches_reference():
    # flat facets after two midpoint refinements, valences 4 to 6 mixed
    spec = _family("cap60", 16)
    mesh, _ = families.generate_mesh(spec)
    walls = spec.walls()
    for _ in range(2):
        mesh = meshkit.refine(mesh, walls=walls)
    assert len(np.unique(np.diff(edge_adjacency(mesh).indptr))) >= 3
    assert_fields_match(mesh, walls)


def test_reversed_orientation_matches_reference():
    # reversed winding makes the fitted H negative, so both flip the normals
    spec = _family("cap60", 32)
    mesh, _ = families.generate_mesh(spec)
    rev = meshkit.LabeledTriMesh(mesh.positions, mesh.triangles[:, ::-1], mesh.boundary_labels)
    got = assert_fields_match(rev, spec.walls())
    assert got.info["flipped"]


def _strip():
    """A bent strip two vertices wide, 18 vertices in all."""
    n, h = 9, 0.5
    x = np.arange(n, dtype=float)
    z = 0.3 * x + 0.05 * x * x
    positions = np.concatenate([np.c_[x, 0 * x, z], np.c_[x, 0 * x + h, z]])
    tris = []
    for i in range(n - 1):
        if i % 2 == 0:
            tris += [[i, i + 1, n + i + 1], [i, n + i + 1, n + i]]
        else:
            tris += [[i, i + 1, n + i], [i + 1, n + i + 1, n + i]]
    return meshkit.LabeledTriMesh(positions, tris)


def test_rank_deficient_strip_matches_reference():
    # every stencil of the strip lies on the lines y = 0 and y = h of its
    # frame, so the columns y and y^2/2 are dependent: the normal equations
    # meet pivots that are not positive or a cond far past 300, and the QR
    # path and the reference both drop that singular value. The kept solution then carries the
    # rounding of two different SVD routines, seen up to 2e-8 relative
    # here; the triangle solved as is gives NaN and errors of 0.08.
    got = assert_fields_match(_strip(), None, tol=1e-6)
    assert np.isfinite(got.sigma_sq).all() and np.isfinite(got.normal).all()
    assert got.info["max_fit_cond"] > 1e15
    assert got.info["min_stencil"] == 5
    # both passes of every vertex
    assert got.info["fallback_fits"] == 36


def _random_stencils(deficient):
    """Offsets, weights, RMS radii and frames of 40 random 12-point stencils.

    A deficient stencil lies on the lines y = 0 and y = 0.07 of an
    axis-aligned frame, so its columns y and y^2/2 are dependent.
    """
    rng = np.random.default_rng(7 if deficient else 3)
    c, b = 12, 40
    x = 0.1 * rng.standard_normal((c, b))
    if deficient:
        y = 0.07 * rng.integers(0, 2, (c, b))
        frames = np.repeat(np.eye(3)[:, :, None], b, axis=2)
    else:
        y = 0.1 * rng.standard_normal((c, b))
        frames = np.stack([np.linalg.qr(rng.standard_normal((3, 3)))[0].T for _ in range(b)], axis=2)
    z = 0.8 * x * x - 0.3 * x * y + 1.5 * y * y + 1e-3 * rng.standard_normal((c, b))
    d = np.einsum("kcb,kjb->jcb", np.stack([x, y, z]), frames)
    dist = np.sqrt((d * d).sum(axis=0))
    return d, 1.0 / dist, np.sqrt((dist * dist).sum(axis=0) / c), frames


@pytest.mark.parametrize("deficient", [False, True])
def test_qr_solve_is_unscaled_least_squares(deficient):
    # the minimum-norm solution of the unscaled design, which differs from
    # that of the equilibrated design where the design is rank-deficient
    d, w, h, frames = _random_stencils(deficient)
    coef, diag = discops._qr_solve(discops._design(d, w, h, frames), h)
    for s in range(d.shape[2]):
        x, y, z = frames[:, :, s] @ d[:, :, s]
        A = np.column_stack([x, y, 0.5 * x * x, x * y, 0.5 * y * y, z]) * w[:, s, None]
        want = np.linalg.lstsq(A[:, :5], A[:, 5], rcond=None)[0]
        r = np.abs(np.diagonal(np.linalg.qr(A, mode="r")))[:5]
        assert np.abs(coef[:, s] - want).max() <= 1e-10 * np.abs(want).max()
        assert np.abs(diag[:, s] - r).max() <= 1e-12 * r.max()
        assert (r.max() / r.min() > 1e12) == deficient


@pytest.mark.parametrize("case", ["bench cap", "strip"])
def test_per_stencil_lapack_only_on_fallback(case, monkeypatch):
    # a fall-back to per-stencil LAPACK calls shows in these counts before
    # it shows in any timing
    calls = collections.Counter()
    for name in ("qr", "solve", "pinv"):
        def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    if case == "strip":
        got = discops.estimate_fields(_strip())
        assert got.info["fallback_fits"] > 0
        assert calls["qr"] >= 1
    else:
        # the middle mesh-lane rung: 1,729 vertices
        spec = _family("cap60", 96)
        mesh, _ = families.generate_mesh(spec)
        got = discops.estimate_fields(mesh, spec.walls())
        assert got.info["fallback_fits"] == 0
        assert sum(calls.values()) == 0
