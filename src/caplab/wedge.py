"""Linear algebra of the wedge rigidity criterion.

For walls with unit normals n_1..n_k and contact angles theta_i, the capillary
vector a is the unique element of span{n_i} with <a, n_i> = -cos(theta_i);
|a| < 1 is the sufficient condition for the stable surface to be umbilical.
The angle window radius delta is the largest half-width around pi/2 such that
|a| < 1 for every admissible angle combination; since |a|^2 = t^T G^{-1} t
with t_i = cos(theta_i) is convex, its maximum over the cube |t_i| <= sin(delta)
sits at a cube vertex, so the window follows from enumerating sign vectors.
The computed delta is a lower bound for the true rigidity window, being
derived from this sufficient condition only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DependentNormalsError
from .meshkit import LabeledTriMesh, WallSet, validate
from .reports import document

__all__ = [
    "WedgeSolution",
    "solve_a",
    "delta_max",
    "ClassificationReport",
    "classify",
    "fit_sphere",
]

COND_LIMIT = 1e12


@dataclass(frozen=True)
class WedgeSolution:
    """Capillary vector data for one wall configuration."""

    coefficients: np.ndarray
    a: np.ndarray
    norm_a: float
    umbilical_conclusion: bool
    gram: np.ndarray


def _gram(normals):
    normals = np.atleast_2d(np.asarray(normals, float))
    k, dim = normals.shape
    if not 1 <= k <= dim:
        raise DependentNormalsError(f"{k} normals cannot be independent in dimension {dim}")
    norms = np.linalg.norm(normals, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-10):
        raise ValueError("wall normals must have unit length")
    g = normals @ normals.T
    if np.linalg.cond(g) > COND_LIMIT:
        raise DependentNormalsError("wall normals are numerically dependent")
    return normals, g


def solve_a(normals, angles) -> WedgeSolution:
    """Solve <a, n_i> = -cos(theta_i) for a in the span of the normals.

    For a single wall this reduces to a = -cos(theta) n_1, the vector used in
    the half-space (single supporting plane) setting.
    """
    normals, g = _gram(normals)
    angles = np.atleast_1d(np.asarray(angles, float))
    if len(angles) != len(normals):
        raise ValueError("one angle per normal required")
    t = -np.cos(angles)
    c = np.linalg.solve(g, t)
    a = normals.T @ c
    norm_sq = float(c @ g @ c)
    norm_a = math.sqrt(max(norm_sq, 0.0))
    return WedgeSolution(
        coefficients=c,
        a=a,
        norm_a=norm_a,
        umbilical_conclusion=bool(norm_a < 1.0),
        gram=g,
    )


def delta_max(normals) -> float:
    """Largest delta with |a| < 1 whenever every theta_i is within delta of pi/2.

    Equals arcsin(1/sqrt(mu)) with mu the maximum of s^T G^{-1} s over sign
    vectors s; capped at pi/2 (a single wall never obstructs: |a| = |cos| < 1).
    """
    normals, g = _gram(normals)
    g_inv = np.linalg.inv(g)
    k = len(normals)
    mu = max(float(s @ g_inv @ s) for s in itertools.product((-1.0, 1.0), repeat=k))
    return math.asin(min(1.0, 1.0 / math.sqrt(mu)))


def fit_sphere(points):
    """Algebraic least-squares sphere; returns (center, radius, rms_distance)."""
    p = np.asarray(points, float)
    A = np.column_stack([2.0 * p, np.ones(len(p))])
    b = np.einsum("ij,ij->i", p, p)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:3]
    r_sq = sol[3] + center @ center
    radius = math.sqrt(max(r_sq, 0.0))
    rms = float(np.sqrt(np.mean((np.linalg.norm(p - center, axis=1) - radius) ** 2)))
    return center, radius, rms


def _fit_plane_rms(points):
    p = np.asarray(points, float)
    centered = p - p.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return float(s[-1] / math.sqrt(len(p)))


@dataclass
class ClassificationReport:
    """Outcome of the numerical hypotheses of the wedge rigidity statement; its
    document holds every field."""

    checks: dict
    hypotheses_met: bool
    delta: float | None
    norm_a: float | None
    sphericity_residual: float | None
    planar_excluded: bool
    sphere_center: np.ndarray | None
    sphere_radius: float | None
    lambda_min: float
    stable: bool
    info: dict = field(default_factory=dict)

    def to_document(self):
        return document("classification", vars(self))


def classify(mesh: LabeledTriMesh, walls: WallSet, verdict) -> ClassificationReport:
    """Check the rigidity hypotheses numerically and measure sphericity.

    Hypotheses: independent wall normals, boundary labels that avoid the
    domain edges, every contact angle inside the admissible window around
    pi/2, and a stable verdict. When they hold the rigidity statement predicts
    a sphere piece, quantified by the best-fit sphere RMS distance over the
    bounding radius; a planar best fit is flagged instead, planes being
    excluded (they would meet the domain edges).
    """
    checks = {}
    info = {}

    try:
        _gram(walls.normals)
        checks["independent_normals"] = True
    except DependentNormalsError as exc:
        checks["independent_normals"] = False
        info["independent_normals"] = str(exc)

    report = validate(mesh, walls)
    checks["labels_avoid_edges"] = report.ok
    if not report.ok:
        info["labels_avoid_edges"] = str(report)

    delta = None
    if checks["independent_normals"]:
        delta = delta_max(walls.normals)
        margins = [abs(t - math.pi / 2) for t in walls.angles]
        checks["angles_in_window"] = all(m < delta for m in margins)
        info["angle_margins"] = margins
    else:
        checks["angles_in_window"] = False

    checks["stable"] = bool(verdict.stable)
    met = all(checks.values())

    norm_a = None
    if checks["independent_normals"]:
        norm_a = solve_a(walls.normals, walls.angles).norm_a

    sphericity = None
    planar = False
    center = None
    radius = None
    if met:
        bounding = mesh.bbox_diameter() / 2.0
        plane_rms = _fit_plane_rms(mesh.positions)
        if plane_rms < 1e-9 * bounding:
            planar = True
        else:
            center, radius, rms = fit_sphere(mesh.positions)
            sphericity = rms / bounding

    return ClassificationReport(
        checks=checks,
        hypotheses_met=met,
        delta=delta,
        norm_a=norm_a,
        sphericity_residual=sphericity,
        planar_excluded=planar,
        sphere_center=center,
        sphere_radius=radius,
        lambda_min=float(verdict.lambda_min),
        stable=bool(verdict.stable),
        info=info,
    )
