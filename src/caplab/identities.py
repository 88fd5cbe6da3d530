"""Numerical verification of the integral and pointwise identities behind the
stability proofs.

Each check evaluates both sides of one identity with the supplied geometry
fields (exact family fields or estimated ones) and reports absolute and
relative residuals. Relative residuals are measured against the larger of the
two sides, the L1 size of the integrands (so that identities whose sides
cancel to zero by symmetry are not reported as large), and the floor
1e-12 * area.

Identities that assume a constant mean curvature or an origin on the wall
plane translate coordinates internally and attach the H dispersion of the
input, so a failure can be attributed to non-CMC data rather than to the
identity itself.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .discops import (
    NDIM,
    assemble_operators,
    integrate_scalar,
    integrate_vector,
)
from .errors import InvalidMeshError
from .reports import document, to_jsonable

__all__ = [
    "IdentityReport",
    "check_normal_integral",
    "check_first_integral",
    "check_minkowski_boundary",
    "check_special_function",
    "check_boundary_sigma_relation",
    "check_laplacian_position",
    "check_jacobi_fields",
    "run_suite",
    "suite_to_csv",
    "suite_to_document",
]

SCALE_FLOOR_FACTOR = 1e-12


@dataclass
class IdentityReport:
    """One verified identity: both sides and their residuals."""

    name: str
    lhs: object
    rhs: object
    abs_residual: float
    rel_residual: float
    resolution: str = ""
    info: dict = field(default_factory=dict)

    @property
    def skipped(self):
        return bool(self.info.get("skipped"))

    def row(self):
        def fmt(v):
            if isinstance(v, (list, tuple, np.ndarray)):
                return ";".join(f"{float(x):.17g}" for x in np.ravel(v))
            return f"{float(v):.17g}" if v is not None else ""

        return [
            self.name,
            fmt(self.lhs),
            fmt(self.rhs),
            f"{self.abs_residual:.17g}" if self.abs_residual is not None else "",
            f"{self.rel_residual:.17g}" if self.rel_residual is not None else "",
            self.resolution,
        ]


def _norm(v):
    return float(np.linalg.norm(np.atleast_1d(np.asarray(v, float))))


def _report(name, lhs, rhs, area, natural_scale=0.0, resolution="", info=None):
    abs_res = _norm(np.asarray(lhs, float) - np.asarray(rhs, float))
    scale = max(_norm(lhs), _norm(rhs), natural_scale, SCALE_FLOOR_FACTOR * area)
    return IdentityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=abs_res / scale,
        resolution=resolution,
        info=info or {},
    )


def _mean_curvature_stats(fields, ops):
    lumped = ops.lumped_mass()
    w = lumped / lumped.sum()
    mean = float(fields.mean_curv @ w)
    var = float(((fields.mean_curv - mean) ** 2) @ w)
    spread = math.sqrt(max(var, 0.0)) / max(abs(mean), 1e-300)
    return mean, spread


def _position_dot_normal(mesh, fields):
    return np.einsum("ij,ij->i", mesh.positions, fields.normal)


def check_normal_integral(mesh, fields, operators=None, resolution=""):
    """Divergence identity for the normal of an arbitrary immersion.

    Compares n * integral of N over the surface with the boundary integral of
    <psi, nu> N - <psi, N> nu; no contact-angle structure is needed.
    """
    ops = operators or assemble_operators(mesh)
    lhs = NDIM * integrate_vector(ops.M, fields.normal)
    u = _position_dot_normal(mesh, fields)
    w = np.einsum("ij,ij->i", mesh.positions, fields.full("conormal"))
    integrand = w[:, None] * fields.normal - u[:, None] * fields.full("conormal")
    rhs = integrate_vector(ops.B_all, integrand)
    scale = NDIM * ops.area + integrate_scalar(ops.B_all, np.linalg.norm(integrand, axis=1))
    return _report("normal_integral", lhs, rhs, ops.area, scale, resolution)


def check_first_integral(mesh, fields, operators=None, resolution=""):
    """Integrated tangential-divergence identity of the position field.

    Boundary integral of <psi, nu> against n * integral of (1 + H <psi, N>),
    with the pointwise H field; holds for arbitrary immersions.
    """
    ops = operators or assemble_operators(mesh)
    w = np.einsum("ij,ij->i", mesh.positions, fields.full("conormal"))
    lhs = integrate_scalar(ops.B_all, w)
    u = _position_dot_normal(mesh, fields)
    bulk = 1.0 + fields.mean_curv * u
    rhs = NDIM * integrate_scalar(ops.M, bulk)
    # gross magnitudes: the two bulk contributions cancel pointwise on a
    # hemisphere, which must not inflate the relative residual
    scale = integrate_scalar(ops.B_all, np.abs(w)) + NDIM * integrate_scalar(
        ops.M, 1.0 + np.abs(fields.mean_curv * u)
    )
    return _report("first_integral", lhs, rhs, ops.area, scale, resolution)


def check_minkowski_boundary(mesh, fields, walls, wall, operators=None, resolution=""):
    """Minkowski formula of the boundary curve inside its wall plane.

    |Gamma_i| against minus the integral of H_bdry <psi, nu-bar>, with the
    position measured from an origin translated into the wall plane.
    """
    ops = operators or assemble_operators(mesh)
    if wall not in ops.B_wall:
        return IdentityReport(
            f"minkowski_wall{wall}", None, None, None, None, resolution, {"skipped": "no boundary on wall"}
        )
    plane = walls.walls[wall]
    shifted = mesh.positions - plane.offset * plane.normal
    w = np.einsum("ij,ij->i", shifted, fields.full("wall_conormal"))
    B = ops.B_wall[wall]
    lhs = float(B.sum())
    integrand = fields.full("bdry_curv") * w
    rhs = -integrate_scalar(B, integrand)
    scale = lhs + integrate_scalar(B, np.abs(integrand))
    return _report(f"minkowski_wall{wall}", lhs, rhs, ops.area, scale, resolution)


def check_special_function(mesh, fields, operators=None, resolution=""):
    """Divergence identity of H |psi|^2 + 2 <psi, N> for CMC immersions.

    Integral of (n H^2 - |sigma|^2) <psi, N> against the boundary integral of
    (H - sigma(nu, nu)) <psi, nu>, using the area-averaged H.
    """
    ops = operators or assemble_operators(mesh)
    hbar, spread = _mean_curvature_stats(fields, ops)
    info = {"mean_H": hbar, "H_rel_spread": spread}
    if spread > 0.05:
        info["warning"] = "not-cmc"
    u = _position_dot_normal(mesh, fields)
    bulk = (NDIM * hbar * hbar - fields.sigma_sq) * u
    lhs = integrate_scalar(ops.M, bulk)
    w = np.einsum("ij,ij->i", mesh.positions, fields.full("conormal"))
    integrand = (hbar - fields.full("sigma_nn")) * w
    rhs = integrate_scalar(ops.B_all, integrand)
    # umbilical input cancels both integrands pointwise; scale by the split
    # term magnitudes so the report stays meaningful in the equality case
    scale = integrate_scalar(ops.M, (NDIM * hbar * hbar + fields.sigma_sq) * np.abs(u)) + \
        integrate_scalar(ops.B_all, (abs(hbar) + np.abs(fields.full("sigma_nn"))) * np.abs(w))
    return _report("special_function", lhs, rhs, ops.area, scale, resolution, info)


def check_boundary_sigma_relation(mesh, fields, walls, wall, operators=None, resolution=""):
    """Pointwise boundary relation sigma(nu, nu) = n H + (n-1) sin(theta) H_bdry."""
    ops = operators or assemble_operators(mesh)
    verts = np.array(
        sorted(v for v, w in mesh.boundary_labels.items() if w == wall), dtype=np.int64
    )
    if len(verts) == 0:
        return IdentityReport(
            f"sigma_relation_wall{wall}", None, None, None, None, resolution, {"skipped": "no boundary on wall"}
        )
    idx = fields.boundary_index(verts)
    theta = walls.angles[wall]
    lhs_v = fields.sigma_nn[idx]
    rhs_v = NDIM * fields.mean_curv[verts] + (NDIM - 1) * math.sin(theta) * fields.bdry_curv[idx]
    resid = np.abs(lhs_v - rhs_v)
    scale = max(np.abs(lhs_v).max(), np.abs(rhs_v).max(), SCALE_FLOOR_FACTOR * ops.area)
    return IdentityReport(
        name=f"sigma_relation_wall{wall}",
        lhs=float(lhs_v.mean()),
        rhs=float(rhs_v.mean()),
        abs_residual=float(resid.max()),
        rel_residual=float(resid.max() / scale),
        resolution=resolution,
        info={"mean_abs_residual": float(resid.mean())},
    )


def check_laplacian_position(mesh, fields, walls=None, operators=None, resolution=""):
    """Integrated form of Delta psi = n H N, plus its wall decomposition.

    First report: boundary integral of nu against n H * integral of N.
    Second (walls present): n H * integral of N against the sum of
    sin(theta_i) |Gamma_i| n_i; requires every boundary component labeled.
    """
    ops = operators or assemble_operators(mesh)
    hbar, spread = _mean_curvature_stats(fields, ops)
    info = {"mean_H": hbar, "H_rel_spread": spread}
    lhs = integrate_vector(ops.B_all, fields.full("conormal"))
    n_int = integrate_vector(ops.M, fields.normal)
    rhs = NDIM * hbar * n_int
    boundary_len = float(ops.B_all.sum())
    scale = boundary_len + NDIM * abs(hbar) * ops.area
    reports = [_report("laplacian_position", lhs, rhs, ops.area, scale, resolution, info)]
    if walls is not None:
        decomposition = np.zeros(3)
        mag = 0.0
        for i in range(len(walls)):
            if i in ops.B_wall:
                gamma_len = float(ops.B_wall[i].sum())
                term = math.sin(walls.angles[i]) * gamma_len
                decomposition += term * walls.walls[i].normal
                mag += term
        reports.append(
            _report(
                "laplacian_position_wedge",
                rhs,
                decomposition,
                ops.area,
                mag + NDIM * abs(hbar) * ops.area,
                resolution,
                info,
            )
        )
    return reports


def _dual_norm(residual, interior, lumped):
    r = residual[interior]
    return float(np.sqrt((r * r / lumped[interior]).sum()))


def check_jacobi_fields(mesh, fields, operators=None, a=None, resolution="", direction=None):
    """Weak residuals of the structure equations of the support functions.

    For u = <psi, N>, the normal component v = <N, direction> (the direction
    defaults to e3 and is taken as the first wall normal by the suite, the
    covariant choice), and the test function phi = 1 + H u + <a, N> (a = 0
    when no capillary vector applies), measures
    || K f - M (|sigma|^2 f + source) || over interior test functions in the
    lumped-mass dual norm; the strong equations need no boundary condition so
    boundary rows are excluded.
    """
    ops = operators or assemble_operators(mesh)
    hbar, spread = _mean_curvature_stats(fields, ops)
    interior = np.ones(mesh.nv, dtype=bool)
    interior[fields.boundary_vertices] = False
    lumped = ops.lumped_mass()
    sig = fields.sigma_sq
    a = np.zeros(3) if a is None else np.asarray(a, float).reshape(3)
    direction = (
        np.array([0.0, 0.0, 1.0]) if direction is None else np.asarray(direction, float)
    )

    u = _position_dot_normal(mesh, fields)
    v = fields.normal @ direction
    phi = 1.0 + hbar * u + fields.normal @ a

    out = []
    cases = [
        ("jacobi_u", u, -NDIM * hbar * np.ones(mesh.nv)),
        ("jacobi_v", v, np.zeros(mesh.nv)),
        ("jacobi_phi", phi, (sig - NDIM * hbar * hbar)),
    ]
    coeff_scale = _dual_norm(ops.M @ sig, interior, lumped)
    for name, f, source in cases:
        # weak form of Delta f + |sigma|^2 f = source against interior hats;
        # the coefficient functional |sigma|^2 sets the scale when f itself is
        # the near-zero equality-case function
        residual = -(ops.K @ f) + ops.M @ (sig * f) - ops.M @ source
        term_scale = max(
            _dual_norm(ops.K @ f, interior, lumped),
            _dual_norm(ops.M @ (sig * f), interior, lumped),
            _dual_norm(ops.M @ source, interior, lumped),
            coeff_scale,
            1e-9 * (1.0 + ops.area),
        )
        r = _dual_norm(residual, interior, lumped)
        out.append(
            IdentityReport(
                name=name,
                lhs=r,
                rhs=0.0,
                abs_residual=r,
                rel_residual=r / term_scale,
                resolution=resolution,
                info={"mean_H": hbar, "H_rel_spread": spread},
            )
        )
    return out


def _claim_reports(mesh, fields, walls, ops, resolution):
    """Derived line: the per-wall claim combining the Minkowski formula with
    the wall decomposition, integral of (H + sin(theta) H_bdry) <psi, nu-bar>."""
    hbar, _ = _mean_curvature_stats(fields, ops)
    out = []
    for i in range(len(walls)):
        if i not in ops.B_wall:
            continue
        plane = walls.walls[i]
        shifted = mesh.positions - plane.offset * plane.normal
        w = np.einsum("ij,ij->i", shifted, fields.full("wall_conormal"))
        integrand = (hbar + math.sin(walls.angles[i]) * fields.full("bdry_curv")) * w
        val = integrate_scalar(ops.B_wall[i], integrand)
        scale = integrate_scalar(ops.B_wall[i], np.abs(integrand)) + abs(hbar) * float(
            ops.B_wall[i].sum()
        )
        out.append(
            _report(
                f"claim_wall{i}", val, 0.0, ops.area, scale, resolution, {"derived": True}
            )
        )
    return out


def _is_capillary(mesh, walls):
    if walls is None or not mesh.boundary_labels:
        return False
    return mesh.boundary_vertex_set() == set(mesh.boundary_labels)


ANGLE_MATCH_TOL = 0.15  # rad; estimated contact angles at coarse resolution stay well inside


def _angles_genuine(mesh, walls, fields):
    """True when the measured contact angle matches the configured one per wall.

    A surface lying inside its own wall (the flat disk) carries a degenerate
    measured angle; the angle-dependent identities do not apply to it.
    """
    for i in range(len(walls)):
        verts = np.array(
            sorted(v for v, w in mesh.boundary_labels.items() if w == i), dtype=np.int64
        )
        if len(verts) == 0:
            continue
        measured = fields.angle[fields.boundary_index(verts)]
        if not np.all(np.isfinite(measured)):
            return False
        if np.abs(measured - walls.angles[i]).max() > ANGLE_MATCH_TOL:
            return False
    return True


def _normals_independent(walls):
    g = walls.normals @ walls.normals.T
    return np.linalg.cond(g) < 1e12


def run_suite(mesh, walls, fields, operators=None, resolution="", capillary_vector=None):
    """Run every applicable identity check in declaration order.

    Checks that need contact-angle structure are skipped (with a marker
    report) on meshes without a full wall labeling; checks that additionally
    require the configured angles to be the measured ones, or the wall normals
    to be independent, are skipped when those preconditions fail.
    ``capillary_vector`` overrides the vector used in the test-function
    residual; by default it is zero, the identity-mode choice valid for any
    capillary family.
    """
    if mesh.nv == 0 or mesh.nf == 0:
        raise InvalidMeshError("cannot run the identity suite on an empty mesh")
    ops = operators or assemble_operators(mesh)
    resolution = resolution or f"nv={mesh.nv}"
    capillary = _is_capillary(mesh, walls)

    reports = [
        check_normal_integral(mesh, fields, ops, resolution),
        check_first_integral(mesh, fields, ops, resolution),
    ]

    def skip(name, why):
        reports.append(IdentityReport(name, None, None, None, None, resolution, {"skipped": why}))

    if not capillary:
        for name in (
            "minkowski_boundary",
            "special_function",
            "sigma_relation",
            "laplacian_position",
            "jacobi_fields",
            "claim",
        ):
            skip(name, "not capillary")
        return reports

    genuine = _angles_genuine(mesh, walls, fields)
    independent = _normals_independent(walls)

    for i in range(len(walls)):
        reports.append(check_minkowski_boundary(mesh, fields, walls, i, ops, resolution))
    reports.append(check_special_function(mesh, fields, ops, resolution))
    if genuine:
        for i in range(len(walls)):
            reports.append(
                check_boundary_sigma_relation(mesh, fields, walls, i, ops, resolution)
            )
        reports.extend(check_laplacian_position(mesh, fields, walls, ops, resolution))
    else:
        skip("sigma_relation", "measured angle differs from configured angle")
        reports.extend(check_laplacian_position(mesh, fields, None, ops, resolution))
        skip("laplacian_position_wedge", "measured angle differs from configured angle")
    reports.extend(
        check_jacobi_fields(
            mesh, fields, ops, capillary_vector, resolution, direction=walls.walls[0].normal
        )
    )
    if genuine and independent:
        reports.extend(_claim_reports(mesh, fields, walls, ops, resolution))
    elif not independent:
        skip("claim", "dependent wall normals")
    else:
        skip("claim", "measured angle differs from configured angle")
    return reports


def suite_to_csv(reports, path, header_info=None):
    path = Path(path)
    with path.open("w", newline="") as fh:
        if header_info:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in sorted(header_info.items())) + "\n")
        w = csv.writer(fh)
        w.writerow(["identity", "lhs", "rhs", "abs_residual", "rel_residual", "resolution"])
        for r in reports:
            w.writerow(r.row())
    return path


def suite_to_document(reports, extra=None):
    body = {
        "reports": [
            {
                "name": r.name,
                "lhs": np.asarray(r.lhs, float).tolist() if r.lhs is not None else None,
                "rhs": np.asarray(r.rhs, float).tolist() if r.rhs is not None else None,
                "abs_residual": r.abs_residual,
                "rel_residual": r.rel_residual,
                "resolution": r.resolution,
                "info": {k: to_jsonable(v) for k, v in r.info.items()},
            }
            for r in reports
        ],
        **(extra or {}),
    }
    return document("identity-suite", body)
