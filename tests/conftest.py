"""Shared fixtures: cached family meshes at the standard resolutions."""

import collections
import functools
import math

import numpy as np
import pytest
from scipy import sparse

from caplab import discops, families, meshkit, stability
from caplab.meshkit import _TOPOLOGY as TOPOLOGY


@pytest.fixture(scope="session")
def cap_pi3():
    """cap(R=1, theta=pi/3) meshes with exact fields at 16/32/64."""
    out = {}
    for res in (16, 32, 64):
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=res)
        mesh, fields = families.generate_mesh(spec)
        out[res] = (spec, mesh, fields)
    return out


@pytest.fixture(scope="session")
def hemisphere():
    out = {}
    for res in (16, 32, 48, 64):
        spec = families.Cap(R=1.0, theta=math.pi / 2, resolution=res)
        mesh, fields = families.generate_mesh(spec)
        out[res] = (spec, mesh, fields)
    return out


@pytest.fixture(scope="session")
def cylinder_l2():
    out = {}
    for res in (16, 32, 48, 64):
        spec = families.Cylinder(r=1.0, L=2.0, resolution=res)
        mesh, fields = families.generate_mesh(spec)
        out[res] = (spec, mesh, fields)
    return out


@pytest.fixture(scope="session")
def monge_patch():
    out = {}
    for res in (16, 32, 64):
        spec = families.MongePatch(amplitude=0.1, R=1.0, resolution=res)
        mesh, fields = families.generate_mesh(spec)
        out[res] = (spec, mesh, fields)
    return out


@pytest.fixture(scope="session")
def unit_sphere():
    spec = families.ClosedSphere(R=1.0, resolution=32)
    mesh, fields = families.generate_mesh(spec)
    return spec, mesh, fields


@pytest.fixture(scope="session")
def flat_disk():
    spec = families.FlatDisk(R=1.0, resolution=32)
    mesh, fields = families.generate_mesh(spec)
    return spec, mesh, fields


@pytest.fixture
def topology_builds(monkeypatch):
    """Counter of the builds of each cached topology property of any mesh."""
    counts = collections.Counter()
    for name in TOPOLOGY:
        build = getattr(meshkit.LabeledTriMesh, name).func

        def counted(self, build=build, name=name):
            counts[name] += 1
            return build(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(meshkit.LabeledTriMesh, name)
        monkeypatch.setattr(meshkit.LabeledTriMesh, name, prop)
    return counts


@pytest.fixture
def factorizations(monkeypatch):
    """Orders of the matrices the eigensolver factors, one entry per factorization."""
    orders = []
    factor = stability._factor

    def counted(K):
        orders.append(K.shape[0])
        return factor(K)

    monkeypatch.setattr(stability, "_factor", counted)
    return orders


@pytest.fixture
def assemblies(monkeypatch):
    """Vertex counts of the meshes whose operators are assembled, one entry per assembly."""
    counts = []
    assemble = discops.assemble_operators

    def counted(mesh):
        counts.append(mesh.nv)
        return assemble(mesh)

    monkeypatch.setattr(discops, "assemble_operators", counted)
    return counts


@pytest.fixture
def lanczos_rounds(monkeypatch):
    """Steps of each Lanczos round the eigensolver runs, one entry per round."""
    steps = []
    lanczos = stability._lanczos

    def counted(*args, **kwargs):
        vals, vecs, taken = lanczos(*args, **kwargs)
        steps.append(taken)
        return vals, vecs, taken

    monkeypatch.setattr(stability, "_lanczos", counted)
    return steps


def decreasing_with_floor(values, floor=1e-4):
    """True when each step decreases, tiny plateaus excepted.

    A non-decreasing step is tolerated only when both its values are at or
    below ``floor`` (the identity is then verified to near machine anyway).
    """
    return all(b < a or max(a, b) <= floor for a, b in zip(values, values[1:]))


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def rotate_walls(walls, R):
    from caplab.meshkit import Hyperplane, WallSet

    return WallSet(
        tuple(Hyperplane(R @ w.normal, w.offset) for w in walls.walls), walls.angles
    )


def edge_adjacency(mesh):
    """Edge neighbours from the triangles: a COO -> CSR build over both directions of every side."""
    t = mesh.triangles
    i, j = t.ravel(), t[:, [1, 2, 0]].ravel()
    adj = sparse.csr_matrix((np.ones(2 * len(i)), (np.r_[i, j], np.r_[j, i])), shape=(mesh.nv, mesh.nv))
    adj.data[:] = 1
    return adj


def gen_and_load(tmp_path, argv):
    """``caplab gen ARGV`` into tmp_path, read back: the mesh and its wall set."""
    from caplab import cli

    assert cli.main(["gen", *argv, "--name", "ring", "--out", str(tmp_path)]) == 0
    return meshkit.load(tmp_path / "ring.capmesh")


def ring_breakers(tmp_path):
    """Meshes near a ring layout that must not take the blocks, with their wall sets.

    The Monge patch (rings off a plane), a gen'd cap with one vertex moved
    1e-9 of its radius, the same cap with its vertices renumbered, and a
    tube with one rim vertex labeled for the other wall.
    """
    cap, cap_walls = gen_and_load(tmp_path, ["cap", "--angle-deg", "60", "--res", "16"])
    moved = np.array(cap.positions)
    moved[40, 2] += 1e-9
    order = np.random.default_rng(0).permutation(cap.nv)
    new_index = np.argsort(order)
    renumbered = meshkit.LabeledTriMesh(
        cap.positions[order], new_index[cap.triangles],
        {int(new_index[v]): w for v, w in cap.boundary_labels.items()},
    )
    spec = families.Cylinder(r=1.0, L=2.0, resolution=16)
    tube, _ = families.generate_mesh(spec)
    labels = dict(tube.boundary_labels)
    labels[0] = 1
    monge, _ = families.generate_mesh(families.MongePatch(amplitude=0.1, R=1.0, resolution=16))
    free = meshkit.WallSet((meshkit.Hyperplane(np.array([0.0, 0.0, -1.0]), 1.0),), (math.pi / 2,))
    return {
        "monge": (monge, free),
        "jittered cap": (cap.with_positions(moved), cap_walls),
        "renumbered cap": (renumbered, cap_walls),
        "relabeled tube": (meshkit.LabeledTriMesh(tube.positions, tube.triangles, labels), spec.walls()),
    }
