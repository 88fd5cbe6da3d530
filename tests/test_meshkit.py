"""Mesh structure, validation, refinement and CAPMESH round trips."""

import math
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplab import families, meshkit
from caplab.errors import InvalidMeshError, MeshValidationError, ParseError
from caplab.reports import WRITE_ROWS
from conftest import TOPOLOGY, gen_and_load, ring_breakers, rotation_matrix


# -- reference CAPMESH reader and writer: the per-line loops meshkit replaced --


def reference_save(mesh, path):
    """The per-row f-string writer (mesh file only)."""
    nb = len(mesh.boundary_labels)
    lines = [f"{meshkit.CAPMESH_MAGIC} {meshkit.CAPMESH_VERSION}", f"{mesh.nv} {mesh.nf} {nb}"]
    lines.extend(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in mesh.positions)
    lines.extend(f"{t[0]} {t[1]} {t[2]}" for t in mesh.triangles)
    lines.extend(f"{v} {w}" for v, w in sorted(mesh.boundary_labels.items()))
    Path(path).write_text("\n".join(lines) + "\n")


def reference_load(path):
    """The per-line reader (mesh only), line for line."""
    lines = Path(path).read_text().splitlines()

    def tokens(lineno, expect, what):
        if lineno > len(lines):
            raise ParseError(f"file truncated, expected {what}", lineno)
        toks = lines[lineno - 1].split()
        if len(toks) != expect:
            raise ParseError(f"expected {expect} fields for {what}, got {len(toks)}", lineno)
        return toks

    head = tokens(1, 2, "header")
    if head[0] != meshkit.CAPMESH_MAGIC or head[1] != str(meshkit.CAPMESH_VERSION):
        raise ParseError(f"bad header {lines[0]!r}, expected 'CAPMESH 1'", 1)
    counts = tokens(2, 3, "counts")
    try:
        nv, nf, nb = (int(c) for c in counts)
    except ValueError as exc:
        raise ParseError(f"counts must be integers: {exc}", 2) from None
    if nv < 0 or nf < 0 or nb < 0:
        raise ParseError("counts must be nonnegative", 2)

    positions = np.empty((nv, 3))
    for i in range(nv):
        lineno = 3 + i
        toks = tokens(lineno, 3, "vertex coordinates")
        try:
            positions[i] = [float(x) for x in toks]
        except ValueError:
            raise ParseError(f"bad coordinate in {lines[lineno - 1]!r}", lineno) from None

    triangles = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        lineno = 3 + nv + i
        toks = tokens(lineno, 3, "triangle indices")
        try:
            tri = [int(x) for x in toks]
        except ValueError:
            raise ParseError(f"bad index in {lines[lineno - 1]!r}", lineno) from None
        for v in tri:
            if not 0 <= v < nv:
                raise ParseError(f"face references vertex {v}, valid range is 0..{nv - 1}", lineno)
        triangles[i] = tri

    labels = {}
    label_lines = {}
    for i in range(nb):
        lineno = 3 + nv + nf + i
        toks = tokens(lineno, 2, "boundary label")
        try:
            v, w = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError(f"bad label in {lines[lineno - 1]!r}", lineno) from None
        if not 0 <= v < nv:
            raise ParseError(f"label references vertex {v}, valid range is 0..{nv - 1}", lineno)
        if w < 0:
            raise ParseError(f"negative wall index {w}", lineno)
        labels[v] = w
        label_lines[v] = lineno

    extra = 2 + nv + nf + nb
    for lineno in range(extra + 1, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise ParseError("unexpected trailing content", lineno)

    mesh = meshkit.LabeledTriMesh(positions, triangles, labels)
    boundary = set(mesh.boundary_vertices.tolist())
    for v in labels:
        if v not in boundary:
            raise ParseError(f"label on non-boundary vertex {v}", label_lines[v])
    return mesh


def single_triangle():
    positions = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    labels = {0: 0, 1: 0, 2: 0}
    return meshkit.LabeledTriMesh(positions, [[0, 1, 2]], labels)


def hexagon_fan():
    """Center vertex is interior, ring of 6 on z = 0 is the boundary."""
    ring = [
        [math.cos(2 * math.pi * k / 6), math.sin(2 * math.pi * k / 6), 0.0]
        for k in range(6)
    ]
    positions = [[0.0, 0.0, 0.0]] + ring
    tris = [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)]
    labels = {1 + k: 0 for k in range(6)}
    return meshkit.LabeledTriMesh(positions, tris, labels)


class TestHyperplane:
    def test_requires_unit_normal(self):
        with pytest.raises(ValueError):
            meshkit.Hyperplane(np.array([0.0, 0.0, 2.0]), 0.0)

    @pytest.mark.parametrize("normal, offset", [([math.nan, 0.0, 1.0], 0.0), ([0.0, 0.0, 1.0], math.inf)])
    def test_requires_finite_normal_and_offset(self, normal, offset):
        # abs(nan - 1) > 1e-12 is False: the unit-length check alone let a NaN normal through
        with pytest.raises(ValueError, match="must be finite"):
            meshkit.Hyperplane(np.array(normal), offset)

    def test_projection(self):
        plane = meshkit.Hyperplane(np.array([0.0, 0.0, 1.0]), 2.0)
        q = plane.project(np.array([1.0, 1.0, 5.0]))
        assert np.allclose(q, [1, 1, 2])
        assert plane.signed_distance([[0, 0, 3]]) == pytest.approx(1.0)


class TestWallSet:
    def test_angle_range(self):
        with pytest.raises(ValueError):
            meshkit.WallSet((meshkit.Hyperplane(np.array([0, 0, -1.0]), 0.0),), (0.0,))

    def test_document_round_trip(self, tmp_path):
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=8)
        walls = spec.walls()
        path = tmp_path / "walls.json"
        meshkit.save_walls(walls, path)
        again = meshkit.load_walls(path)
        assert np.array_equal(again.normals, walls.normals)
        assert again.angles == walls.angles


class TestValidate:
    def test_family_mesh_passes(self, hemisphere):
        spec, mesh, _ = hemisphere[32]
        assert meshkit.validate(mesh, spec.walls()).ok

    def test_displaced_boundary_vertex_fails_plane_incidence(self, hemisphere):
        spec, mesh, _ = hemisphere[16]
        v = next(iter(mesh.boundary_labels))
        positions = mesh.positions.copy()
        positions[v, 2] += 1e-3
        bad = meshkit.LabeledTriMesh(positions, mesh.triangles, mesh.boundary_labels)
        report = meshkit.validate(bad, spec.walls())
        assert not report.ok
        assert "plane-incidence" in report.failed_checks()
        issue = [i for i in report.issues if i.check == "plane-incidence"][0]
        assert v in issue.indices

    def test_flipped_triangle_fails_orientation(self, hemisphere):
        spec, mesh, _ = hemisphere[16]
        tris = mesh.triangles.copy()
        tris[5] = tris[5][[0, 2, 1]]
        bad = meshkit.LabeledTriMesh(mesh.positions, tris, mesh.boundary_labels)
        report = meshkit.validate(bad, spec.walls())
        assert not report.ok
        assert "orientation" in report.failed_checks()

    def test_mixed_labels_rejected(self):
        mesh = hexagon_fan()
        labels = dict(mesh.boundary_labels)
        labels[1] = 1
        mixed = meshkit.LabeledTriMesh(mesh.positions, mesh.triangles, labels)
        report = meshkit.validate(mixed)
        assert not report.ok
        assert "mixed-boundary-edge" in report.failed_checks()

    def test_bare_mesh_is_structural_only(self, monge_patch):
        _, mesh, _ = monge_patch[16]
        assert not mesh.boundary_labels
        assert meshkit.validate(mesh).ok

    def test_label_beyond_wall_set_reported(self, hemisphere):
        spec, mesh, _ = hemisphere[16]
        v = min(mesh.boundary_labels)
        labels = {**mesh.boundary_labels, v: 1}
        report = meshkit.validate(meshkit.LabeledTriMesh(mesh.positions, mesh.triangles, labels), spec.walls())
        assert "label-wall-range" in report.failed_checks()
        issue = [i for i in report.issues if i.check == "label-wall-range"][0]
        assert issue.indices == (v,)


class TestRefine:
    def test_subdivision_combinatorics(self, hemisphere):
        spec, mesh, _ = hemisphere[16]
        fine = meshkit.refine(mesh, walls=spec.walls())
        assert fine.nf == 4 * mesh.nf
        assert fine.euler_characteristic() == mesh.euler_characteristic()
        assert len(fine.boundary_loops) == len(mesh.boundary_loops)
        assert set(fine.boundary_labels.values()) == set(mesh.boundary_labels.values())
        assert meshkit.validate(fine, spec.walls()).ok

    def test_projector_returns_to_sphere(self, hemisphere):
        spec, mesh, _ = hemisphere[16]
        fine = meshkit.refine(mesh, projector=families.surface_projector(spec), walls=spec.walls())
        radii = np.linalg.norm(fine.positions - spec.center, axis=1)
        assert np.abs(radii - spec.R).max() <= 1e-12
        assert meshkit.validate(fine, spec.walls()).ok

    def test_chordal_refinement_stays_below_true_area(self, cylinder_l2):
        spec, mesh, _ = cylinder_l2[16]
        fine = meshkit.refine(mesh)
        true_area = 2 * math.pi * spec.r * spec.L
        assert fine.area() < true_area
        # chords subdivide to chords: the limit is the polyhedron, not the tube
        assert fine.area() == pytest.approx(mesh.area(), rel=1e-9)

    def test_invalid_input_rejected(self, hemisphere):
        spec, mesh, _ = hemisphere[16]
        tris = mesh.triangles.copy()
        tris[0] = tris[0][[0, 2, 1]]
        bad = meshkit.LabeledTriMesh(mesh.positions, tris, mesh.boundary_labels)
        with pytest.raises(MeshValidationError):
            meshkit.refine(bad)


class TestCapmeshIO:
    def test_round_trip_bit_exact(self, hemisphere, tmp_path):
        spec, mesh, _ = hemisphere[32]
        path = tmp_path / "hemi.capmesh"
        meshkit.save(mesh, spec.walls(), path)
        again, walls = meshkit.load(path)
        assert np.array_equal(again.positions, mesh.positions)
        assert np.array_equal(again.triangles, mesh.triangles)
        assert again.boundary_labels == mesh.boundary_labels
        assert walls is not None and walls.angles == spec.walls().angles
        # a second save must be byte-identical
        path2 = tmp_path / "hemi2.capmesh"
        meshkit.save(again, walls, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_validate_survives_round_trip(self, cap_pi3, tmp_path):
        spec, mesh, _ = cap_pi3[16]
        path = tmp_path / "cap.capmesh"
        meshkit.save(mesh, spec.walls(), path)
        again, walls = meshkit.load(path)
        assert meshkit.validate(again, walls).ok

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "tri.capmesh"
        path.write_text(
            "CAPMESH 1\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n0 1 2\n0 0\n1 0\n2 0\n"
        )
        mesh, walls = meshkit.load(path)
        assert mesh.nv == 3 and mesh.nf == 1
        assert walls is None
        assert meshkit.validate(mesh).ok

    def test_face_index_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.capmesh"
        path.write_text("CAPMESH 1\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n0 1 3\n")
        with pytest.raises(ParseError) as err:
            meshkit.load(path)
        assert err.value.line == 6

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.capmesh"
        path.write_text("CAPMESH 9\n0 0 0\n")
        with pytest.raises(ParseError) as err:
            meshkit.load(path)
        assert err.value.line == 1

    def test_label_on_interior_vertex_names_line(self, tmp_path):
        mesh = hexagon_fan()
        lines = ["CAPMESH 1", "7 6 7"]
        lines += [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in mesh.positions]
        lines += [f"{t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
        lines += [f"{v} 0" for v in range(7)]  # vertex 0 is interior
        path = tmp_path / "bad.capmesh"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            meshkit.load(path)
        assert err.value.line == 2 + 7 + 6 + 1

    @given(
        st.lists(
            st.floats(
                allow_nan=False,
                allow_infinity=False,
                min_value=-1e12,
                max_value=1e12,
            ),
            min_size=9,
            max_size=9,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_seventeen_digits_round_trip_any_coordinates(self, tmp_path_factory, coords):
        positions = np.array(coords, float).reshape(3, 3)
        # avoid degenerate duplicate vertices; the format does not care, the
        # loader does not either, but validation of loops would
        mesh = meshkit.LabeledTriMesh(positions, [[0, 1, 2]], {0: 0, 1: 0, 2: 0})
        path = tmp_path_factory.mktemp("io") / "t.capmesh"
        meshkit.save(mesh, None, path)
        again, _ = meshkit.load(path)
        assert np.array_equal(again.positions, mesh.positions)
        assert np.array_equal(again.positions, reference_load(path).positions)


FAMILY_SPECS = {
    "cap": families.Cap(R=1.0, theta=math.pi / 3, resolution=24),
    "cylinder": families.Cylinder(r=1.0, L=2.0, resolution=24),
    "disk": families.FlatDisk(R=1.0, resolution=24),
    "sphere": families.ClosedSphere(R=1.0, resolution=24),
    "monge": families.MongePatch(amplitude=0.1, R=1.0, resolution=24),
}


def fan_lines():
    """The hexagon fan as CAPMESH lines: vertices on lines 3-9, faces 10-15, labels 16-21."""
    mesh = hexagon_fan()
    return (
        ["CAPMESH 1", "7 6 6"]
        + [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in mesh.positions]
        + [f"{t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
        + [f"{v} 0" for v in range(1, 7)]
    )


def edit(lines, lineno, text):
    out = list(lines)
    out[lineno - 1] = text
    return out


def insert(lines, lineno, text):
    return lines[: lineno - 1] + [text] + lines[lineno - 1 :]


MALFORMED = {
    "truncated-vertices": fan_lines()[:6],
    "truncated-faces": fan_lines()[:12],
    "truncated-labels": fan_lines()[:18],
    "vertex-2-tokens": edit(fan_lines(), 5, "1 0"),
    "vertex-4-tokens": edit(fan_lines(), 5, "1 0 0 0"),
    "face-2-tokens": edit(fan_lines(), 11, "0 2"),
    "face-4-tokens": edit(fan_lines(), 11, "0 2 3 4"),
    "label-1-token": edit(fan_lines(), 17, "2"),
    "label-3-tokens": edit(fan_lines(), 17, "2 0 0"),
    "hash-in-coordinate": edit(fan_lines(), 4, "1 0 #0"),
    "hash-comment-after-coordinates": edit(fan_lines(), 4, "1 0 0 # apex"),
    "blank-in-vertices": insert(fan_lines(), 6, ""),
    "blank-in-faces": insert(fan_lines(), 12, "   "),
    "blank-in-labels": insert(fan_lines(), 18, ""),
    "float-face-index": edit(fan_lines(), 10, "0 1.0 2"),
    "fractional-face-index": edit(fan_lines(), 10, "0 2.7 3"),
    "fractional-wall": edit(fan_lines(), 18, "3 0.5"),
    "face-out-of-range": edit(fan_lines(), 12, "0 3 7"),
    "face-negative": edit(fan_lines(), 12, "0 -1 4"),
    "face-beyond-int64": edit(fan_lines(), 12, "0 3 99999999999999999999"),
    "label-out-of-range": edit(fan_lines(), 18, "7 0"),
    "label-negative-vertex": edit(fan_lines(), 18, "-3 0"),
    "negative-wall": edit(fan_lines(), 18, "3 -1"),
    "label-on-interior": edit(fan_lines(), 18, "0 0"),
    "trailing-content": fan_lines() + ["", "7 0"],
    "range-error-before-token-error": edit(edit(fan_lines(), 11, "0 2 9"), 13, "0 4"),
    "token-error-before-range-error": edit(edit(fan_lines(), 11, "0 2"), 13, "0 4 9"),
    "truncated-after-bad-face": edit(fan_lines(), 10, "0 1 8")[:12],
}

STILL_VALID = {
    "crlf": "\r\n".join(fan_lines()) + "\r\n",
    "tabs": "\n".join(line.replace(" ", "\t") for line in fan_lines()) + "\n",
    "plus-signs": "\n".join(edit(edit(fan_lines(), 3, "+0 +0 +0"), 10, "+0 +1 +2")) + "\n",
    "underscores": "\n".join(edit(edit(fan_lines(), 4, "1_000 0 0"), 16, "1 1_0")) + "\n",
    "trailing-blank-lines": "\n".join(fan_lines()) + "\n\n  \n",
}


class TestCapmeshReaderParity:
    """meshkit.load against the per-line reference reader."""

    @staticmethod
    def assert_same_mesh(mesh, reference):
        assert np.array_equal(mesh.positions, reference.positions)
        assert np.array_equal(mesh.triangles, reference.triangles)
        assert mesh.triangles.dtype == reference.triangles.dtype
        assert mesh.boundary_labels == reference.boundary_labels

    @pytest.mark.parametrize("family", list(FAMILY_SPECS))
    def test_family_meshes(self, family, tmp_path):
        spec = FAMILY_SPECS[family]
        mesh, _ = families.generate_mesh(spec)
        path = tmp_path / "m.capmesh"
        meshkit.save(mesh, spec.walls(), path)
        again, _ = meshkit.load(path)
        self.assert_same_mesh(again, reference_load(path))
        self.assert_same_mesh(again, mesh)

    @pytest.mark.parametrize("case", list(STILL_VALID))
    def test_literals_python_accepts_still_load(self, case, tmp_path):
        path = tmp_path / "m.capmesh"
        path.write_bytes(STILL_VALID[case].encode())
        mesh, _ = meshkit.load(path)
        self.assert_same_mesh(mesh, reference_load(path))

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_files_fail_alike(self, case, tmp_path):
        path = tmp_path / "m.capmesh"
        path.write_text("\n".join(MALFORMED[case]) + "\n")
        with pytest.raises(ParseError) as expected:
            reference_load(path)
        with pytest.raises(ParseError) as err:
            meshkit.load(path)
        assert str(err.value) == str(expected.value)
        assert err.value.line == expected.value.line

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("case", ["float-face-index", "fractional-face-index", "fractional-wall"])
    def test_float_index_fails_under_default_warning_filters(self, case, tmp_path):
        # numpy only warns when it truncates "1.0" to an int; the command line
        # hides that warning, so the reader must refuse the line by itself
        self.test_malformed_files_fail_alike(case, tmp_path)

    def test_nan_coordinate_is_invalid_mesh(self, tmp_path):
        path = tmp_path / "m.capmesh"
        path.write_text("\n".join(edit(fan_lines(), 5, "nan 0 0")) + "\n")
        with pytest.raises(InvalidMeshError) as expected:
            reference_load(path)
        with pytest.raises(InvalidMeshError) as err:
            meshkit.load(path)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize(
        "counts, what", [("1000000000000 1 0", "vertex coordinates"), ("1 1000000000000 0", "triangle indices")]
    )
    def test_huge_count_is_a_truncated_file(self, counts, what, tmp_path):
        # the reader sized its arrays from the header alone and ran out of
        # memory; the reference reader still does, so the message is spelled out
        path = tmp_path / "m.capmesh"
        path.write_text(f"CAPMESH 1\n{counts}\n0 0 0\n")
        with pytest.raises(ParseError) as err:
            meshkit.load(path)
        assert str(err.value) == f"line 4: file truncated, expected {what}"
        assert err.value.line == 4

    def test_vertex_labeled_twice_names_second_line(self, tmp_path):
        # the per-line reader kept the last wall silently
        lines = fan_lines()
        lines[1] = "7 6 7"
        lines.insert(19, "2 1")  # vertex 2 is labeled on line 17 already
        path = tmp_path / "m.capmesh"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="vertex 2 is labeled twice") as err:
            meshkit.load(path)
        assert err.value.line == 20

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1e"])
    def test_other_line_breaks_separate_fields_on_both_paths(self, separator, tmp_path):
        # lines end at "\n", "\r" and "\r\n" for numpy's reader and the
        # per-line one alike; the other breaks str.splitlines knows are
        # whitespace to both, so no line number moves
        lines = edit(fan_lines(), 4, fan_lines()[3].replace(" ", separator))
        path = tmp_path / "m.capmesh"
        path.write_text("\n".join(lines) + "\n")
        mesh, _ = meshkit.load(path)
        assert np.array_equal(mesh.positions, hexagon_fan().positions)
        # an underscore that numpy refuses sends the file to the per-line reader
        path.write_text("\n".join(edit(lines, 16, "1 0_0")) + "\n")
        again, _ = meshkit.load(path)
        assert np.array_equal(again.positions, mesh.positions)
        assert again.boundary_labels == mesh.boundary_labels
        path.write_text("\n".join(edit(lines, 12, "0 3 x")) + "\n")
        with pytest.raises(ParseError, match="bad index in '0 3 x'") as err:
            meshkit.load(path)
        assert err.value.line == 12

    def test_load_peaks_under_5_mib(self, tmp_path):
        # a block at a time from the open file: 4.55 MiB traced on the
        # res-256 cap (nv 12,545), 7.66 MiB with the file text and a list of its lines
        gen_and_load(tmp_path, ["cap", "--radius", "1", "--angle-deg", "60", "--res", "256"])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            mesh, _ = meshkit.load(tmp_path / "ring.capmesh")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert mesh.nv == 12545
        assert peak <= 5 * 2**20


class TestCapmeshWriter:
    @pytest.mark.parametrize("family", ["cap", "cylinder", "monge"])
    def test_bytes_match_reference_writer(self, family, tmp_path):
        spec = FAMILY_SPECS[family]
        mesh, _ = families.generate_mesh(spec)
        meshkit.save(mesh, None, tmp_path / "new.capmesh")
        reference_save(mesh, tmp_path / "old.capmesh")
        assert (tmp_path / "new.capmesh").read_bytes() == (tmp_path / "old.capmesh").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, 3 * WRITE_ROWS + 5])
    def test_blocks_match_reference_writer(self, n, tmp_path):
        # save formats WRITE_ROWS vertex or face lines at a time; n vertices
        # and n + 1 faces put the two blocks' ends at different rows
        rng = np.random.default_rng(n)
        positions = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        if n >= 2:
            positions[:2, 0] = -0.0, 1e-320
        mesh = types.SimpleNamespace(
            nv=n, nf=n + 1, positions=positions,
            triangles=rng.integers(0, max(n, 1), (n + 1, 3)),
            boundary_labels={int(v): int(v) % 3 for v in rng.permutation(n)[: min(n, 7)]},
        )
        meshkit.save(mesh, None, tmp_path / "new.capmesh")
        reference_save(mesh, tmp_path / "old.capmesh")
        assert (tmp_path / "new.capmesh").read_bytes() == (tmp_path / "old.capmesh").read_bytes()


class TestBoundaryStructure:
    def test_single_triangle_all_boundary(self):
        mesh = single_triangle()
        assert mesh.boundary_vertices.tolist() == [0, 1, 2]
        assert len(mesh.boundary_loops) == 1

    def test_cylinder_two_loops(self, cylinder_l2):
        _, mesh, _ = cylinder_l2[16]
        loops = mesh.boundary_loops
        assert len(loops) == 2
        labels = {frozenset(mesh.vertex_wall[loop].tolist()) for loop in loops}
        assert labels == {frozenset({0}), frozenset({1})}

    @pytest.mark.parametrize("triangle", [[0, 0, 1], [0, 1, 1], [1, 0, 1]])
    def test_triangle_repeating_a_vertex_rejected(self, triangle):
        with pytest.raises(InvalidMeshError, match="triangle 1 repeats a vertex"):
            meshkit.LabeledTriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2], triangle])

    def test_negative_wall_label_rejected(self):
        with pytest.raises(InvalidMeshError, match="negative wall label"):
            meshkit.LabeledTriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], {0: 0, 1: -1, 2: 0})

    def test_vertex_wall_mirrors_labels(self, cylinder_l2):
        _, mesh, _ = cylinder_l2[16]
        expected = np.full(mesh.nv, -1)
        for v, w in mesh.boundary_labels.items():
            expected[v] = w
        assert mesh.vertex_wall.dtype == np.int64
        assert np.array_equal(mesh.vertex_wall, expected)

    def test_boundary_arrays_cached_and_read_only(self, cylinder_l2):
        _, mesh, _ = cylinder_l2[16]
        arrays = [mesh.vertex_wall, mesh.boundary_edges, mesh.boundary_vertices, *mesh.boundary_loops]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert mesh.boundary_edges is mesh.boundary_edges
        assert mesh.boundary_vertices is mesh.boundary_vertices
        assert mesh.boundary_loops is mesh.boundary_loops

    def test_copies_share_the_topology(self, topology_builds):
        spec = families.Cap(R=1.0, theta=math.pi / 3, resolution=16)
        mesh = meshkit.LabeledTriMesh(*spec.build())
        built = {name: getattr(mesh, name) for name in TOPOLOGY}
        assert topology_builds == {name: 1 for name in TOPOLOGY}
        copies = [
            mesh.with_positions(2.0 * mesh.positions),
            mesh.translated([1.0, 2.0, 3.0]),
            mesh.transformed(rotation_matrix([1, 1, 0], 0.3)),
            mesh.scaled(0.5),
        ]
        for copy in copies:
            for name in TOPOLOGY:
                assert getattr(copy, name) is built[name]
        assert topology_builds == {name: 1 for name in TOPOLOGY}

    def test_closed_sphere_no_boundary(self, unit_sphere):
        _, mesh, _ = unit_sphere
        assert mesh.is_closed()
        assert mesh.boundary_loops == ()
        assert mesh.euler_characteristic() == 2


class TestRingLayout:
    """The rotation-invariant vertex order the azimuthal blocks need."""

    @pytest.mark.parametrize(
        "argv, spec, poles",
        [
            (["cap", "--angle-deg", "60", "--res", "16"], families.Cap(R=1.0, theta=math.pi / 3, resolution=16), (1, 0)),
            (["cylinder", "--res", "16"], families.Cylinder(r=1.0, L=2.0, resolution=16), (0, 0)),
            (["disk", "--res", "16"], families.FlatDisk(R=1.0, resolution=16), (1, 0)),
            (["sphere", "--res", "16"], families.ClosedSphere(R=1.0, resolution=16), (1, 1)),
        ],
        ids=["cap", "tube", "disk", "sphere"],
    )
    def test_family_meshes_have_it_before_and_after_gen(self, argv, spec, poles, tmp_path):
        mesh, _ = families.generate_mesh(spec)
        layout = mesh.ring_layout
        assert (layout.top, layout.bottom, layout.n) == (*poles, 16)
        assert layout.top + layout.rings * layout.n + layout.bottom == mesh.nv
        loaded, _ = gen_and_load(tmp_path, argv)
        assert loaded.ring_layout == layout
        # the disk's pole lies in the plane of its rings
        if layout.top:
            assert np.abs(mesh.positions[0, :2]).max() == 0.0

    def test_rotation_maps_the_mesh_onto_itself(self):
        mesh, _ = families.generate_mesh(families.Cap(R=1.3, theta=math.radians(120), resolution=12))
        layout = mesh.ring_layout
        image = layout.shift(mesh.nv)
        turn = 2.0 * math.pi / layout.n
        rotation = np.array([[math.cos(turn), -math.sin(turn), 0.0], [math.sin(turn), math.cos(turn), 0.0], [0, 0, 1]])
        assert np.abs(mesh.positions @ rotation.T - mesh.positions[image]).max() <= 1e-14
        assert sorted(map(tuple, np.sort(image[mesh.triangles], axis=1))) == sorted(
            map(tuple, np.sort(mesh.triangles, axis=1))
        )

    def test_a_subnormal_first_step_has_none(self):
        # 2 pi over the angle of vertex 1 overflowed to infinity
        p = np.array([[1.0, 0.0, 0.0], [1.0, 1e-320, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        assert meshkit.LabeledTriMesh(p, [[0, 1, 2], [0, 2, 3]]).ring_layout is None

    @pytest.mark.parametrize("name", ["monge", "jittered cap", "renumbered cap", "relabeled tube"])
    def test_near_misses_have_none(self, name, tmp_path):
        mesh, _ = ring_breakers(tmp_path)[name]
        assert mesh.ring_layout is None
