"""Pattern assembly of M, K and the weighted mass against COO references.

The references below are the former builders: every triangle's entries as
COO triplets, converted to CSR, which sorts each row and sums duplicates.
``assemble_operators`` and ``weighted_mass`` sum the same per-triangle terms
with ``np.bincount`` on the mesh's cached pair pattern, so only summation
order differs: the patterns must be identical and the entries agree to 1e-14
of the largest. The index form built on that pattern must be exactly
symmetric.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from caplab import discops, families, stability
from conftest import edge_adjacency

TOL = 1e-14

SPECS = {
    "cap60": families.Cap(R=1.0, theta=math.pi / 3, resolution=32),
    "cap160": families.Cap(R=1.0, theta=math.radians(160), resolution=24),
    "cylinder": families.Cylinder(r=1.0, L=3.0, resolution=32),
    "disk": families.FlatDisk(R=1.0, resolution=16),
    "sphere": families.ClosedSphere(R=1.0, resolution=16),
    "monge": families.MongePatch(amplitude=0.1, R=1.0, resolution=16),
}


def reference_operators(mesh):
    """Consistent mass and cotangent stiffness from COO triplets."""
    p = mesh.positions
    t = mesh.triangles
    nv = mesh.nv
    areas = mesh.triangle_areas()
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
    return M, K


def reference_weighted_mass(mesh, w):
    t = mesh.triangles
    areas = mesh.triangle_areas()
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


def assert_matches(new, old):
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    assert np.abs(new.data - old.data).max() <= TOL * np.abs(old.data).max()


@pytest.fixture(scope="module", params=list(SPECS))
def family_mesh(request):
    spec = SPECS[request.param]
    mesh, fields = families.generate_mesh(spec)
    return spec, mesh, fields


def test_pattern_is_the_adjacency_with_its_diagonal(family_mesh):
    _, mesh, _ = family_mesh
    pattern = mesh.pair_pattern
    t = mesh.triangles
    expected = (edge_adjacency(mesh) + sparse.identity(mesh.nv, format="csr")).tocsr()
    expected.sort_indices()
    assert np.array_equal(pattern.indptr, expected.indptr)
    assert np.array_equal(pattern.indices, expected.indices)
    rows = np.searchsorted(pattern.indptr, pattern.slots, side="right") - 1
    assert np.array_equal(rows, np.broadcast_to(t[:, :, None], pattern.slots.shape))
    assert np.array_equal(pattern.indices[pattern.slots], np.broadcast_to(t[:, None, :], pattern.slots.shape))
    assert np.array_equal(pattern.indices[pattern.diagonal], np.arange(mesh.nv))


def test_mass_and_stiffness_match_reference(family_mesh):
    _, mesh, _ = family_mesh
    ops = discops.assemble_operators(mesh)
    M, K = reference_operators(mesh)
    assert_matches(ops.M, M)
    assert_matches(ops.K, K)


def test_weighted_mass_matches_reference(family_mesh):
    _, mesh, fields = family_mesh
    rng = np.random.default_rng(3)
    for w in (fields.sigma_sq, rng.uniform(-1.0, 2.0, mesh.nv)):
        assert_matches(discops.weighted_mass(mesh, w), reference_weighted_mass(mesh, w))


@pytest.mark.parametrize("name", ["cap60", "cap160", "cylinder", "disk"])
def test_index_form_exactly_symmetric(name):
    spec = SPECS[name]
    mesh, fields = families.generate_mesh(spec)
    system = stability.assemble_index_form(mesh, spec.walls(), fields)
    assert (system.A != system.A.T).nnz == 0
    assert np.shares_memory(system.A.indices, system.M.indices)
