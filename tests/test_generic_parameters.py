"""Off-unit parameters through the full pipeline: no hidden R=1 assumptions."""

import math

import numpy as np
import pytest

from caplab import discops, families, identities, meshkit, stability
from caplab.errors import ParseError
from conftest import decreasing_with_floor


def test_generic_cap_identity_suite_converges():
    history = {}
    for res in (16, 32, 64):
        spec = families.Cap(R=2.0, theta=2.2, resolution=res)
        mesh, fields = families.generate_mesh(spec)
        reports = identities.run_suite(
            mesh, spec.walls(), fields, resolution=str(res),
            capillary_vector=[0.0, 0.0, math.cos(2.2)],
        )
        for r in reports:
            if not r.skipped:
                history.setdefault(r.name, []).append(r.rel_residual)
    for name, vals in history.items():
        assert decreasing_with_floor(vals), (name, vals)
        assert vals[-1] <= 0.02, (name, vals)


def test_generic_cylinder_spectrum_and_identity_mode():
    r, L = 0.7, 3.0
    spec = families.Cylinder(r=r, L=L, resolution=48)
    mesh, fields = families.generate_mesh(spec)
    system = stability.assemble_index_form(mesh, spec.walls(), fields)
    lam, _ = stability.min_constrained_eigenpair(system)
    theory = (math.pi / L) ** 2 - 1.0 / r**2
    assert lam == pytest.approx(theory, rel=0.01)
    report = stability.build_test_function(mesh, spec.walls(), fields, a=None)
    target = -math.pi * L / (2.0 * r)
    assert report.index_quadratic == pytest.approx(target, rel=0.02)
    assert report.index_closed == pytest.approx(target, rel=0.02)


def test_generic_monge_identities_converge():
    rels = []
    for res in (16, 32, 64):
        spec = families.MongePatch(amplitude=0.25, R=1.4, resolution=res)
        mesh, fields = families.generate_mesh(spec)
        reports = identities.run_suite(mesh, None, fields, resolution=str(res))
        rels.append(max(r.rel_residual for r in reports if not r.skipped))
    assert decreasing_with_floor(rels)
    assert rels[-1] <= 0.02


def test_scaled_cap_estimated_pipeline():
    # same shape at two scales: estimated verdicts and residuals must agree
    for scale in (0.25, 4.0):
        spec = families.Cap(R=scale, theta=math.pi / 2, resolution=32)
        mesh, _ = families.generate_mesh(spec)
        est = discops.estimate_fields(mesh, spec.walls())
        system = stability.assemble_index_form(mesh, spec.walls(), est)
        lam, _ = stability.min_constrained_eigenpair(system)
        # lambda scales like 1/scale^2; the unit-scale value is about -0.12
        assert abs(lam * scale**2) <= 0.3


class TestSmallPaths:
    def test_wallset_document_must_be_list(self, tmp_path):
        path = tmp_path / "walls.json"
        path.write_text('{"normal": [0, 0, -1]}')
        with pytest.raises(ParseError):
            meshkit.load_walls(path)

    def test_boundary_fields_are_nan_exactly_off_the_boundary(self, cap_pi3):
        spec, mesh, exact = cap_pi3[16]
        on = np.zeros(mesh.nv, bool)
        on[mesh.boundary_vertices] = True
        for fields in (exact, discops.estimate_fields(mesh, spec.walls())):
            for name in ("conormal", "wall_conormal", "sigma_nn", "bdry_curv", "angle"):
                values = getattr(fields, name).reshape(mesh.nv, -1)
                assert np.isfinite(values[on]).all(), name
                assert np.isnan(values[~on]).all(), name

    def test_refine_closed_sphere(self, unit_sphere):
        spec, mesh, _ = unit_sphere
        fine = meshkit.refine(mesh, projector=families.surface_projector(spec))
        assert fine.is_closed()
        assert fine.euler_characteristic() == 2
        assert np.abs(np.linalg.norm(fine.positions, axis=1) - 1.0).max() <= 1e-12

    def test_cli_stability_needs_walls(self, tmp_path):
        from caplab.cli import main

        rc = main(["stability", "--family", "sphere", "--res", "16", "--out", str(tmp_path)])
        assert rc == 2
