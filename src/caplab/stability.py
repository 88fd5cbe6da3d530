"""Discrete index form, constrained spectrum, verdicts and the test function.

The quadratic form is the integrated-by-parts second variation
    I(f, f) = int |grad f|^2 - int |sigma|^2 f^2 - sum_i cot(theta_i)
              int_{Gamma_i} sigma(nu, nu) f^2,
realized as f^T A f with A = K - M_sigma - sum_i q_i B_i, and stability means
nonnegativity of the smallest eigenvalue of A relative to the mass M over the
mean-zero subspace c^T f = 0, c = M 1.

The constrained spectrum has one solver: shift-invert Lanczos (ARPACK) on a
single sparse factorization of A + sM, with the shift s doubled until that
factorization is positive definite, so the pairs nearest -s are the lowest.
The constraint enters the inverse as a rank-one Schur correction, never as a
saddle system. Each answer is certified by the projected residual of every
pair and by an inertia count (Sylvester, Haynsworth) of the constrained
eigenvalues below a cut past the last one reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .discops import (
    NDIM,
    GeometryFields,
    assemble_operators,
    estimate_fields,
    integrate_scalar,
    weighted_mass,
)
from .errors import (
    ConstraintViolationError,
    FitFailureError,
    InvalidAngleError,
    NoCommonOriginError,
    SolverFailureError,
)
from .meshkit import LabeledTriMesh, WallSet
from .reports import document, to_jsonable

__all__ = [
    "IndexFormSystem",
    "Spectrum",
    "StabilityVerdict",
    "TestFunctionReport",
    "assemble_index_form",
    "solve_spectrum",
    "min_constrained_eigenpair",
    "stability_verdict",
    "build_test_function",
    "first_variation_energy",
    "capillary_energy",
    "mass_correlation",
]

RESIDUAL_BOUND = 1e-8
# ARPACK's relative Ritz-value accuracy: two orders inside the residual
# bound instead of its default of machine precision
ARPACK_TOL = 1e-2 * RESIDUAL_BOUND
MAX_SHIFT_DOUBLINGS = 60
# extra pairs requested beyond k, the second try after a failed certificate
CERTIFICATE_BUFFERS = (2, 8)


@dataclass
class IndexFormSystem:
    """Matrices realizing the index form on the discrete function space."""

    A: sparse.csr_matrix
    M: sparse.csr_matrix
    c: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.A.shape[0]


class Spectrum(NamedTuple):
    """Constrained eigenpairs, ascending, with the solver's deterministic facts."""

    values: np.ndarray
    vectors: np.ndarray
    solver: dict


@dataclass
class StabilityVerdict:
    lambda_min: float
    eigenfunction: np.ndarray
    stable: bool
    tol_used: float
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    info: dict = field(default_factory=dict)

    def to_document(self):
        return document(
            "stability-verdict",
            {
                "lambda_min": float(self.lambda_min),
                "stable": bool(self.stable),
                "tol_used": float(self.tol_used),
                "eigenvalues": [float(v) for v in self.eigenvalues],
                "info": {k: to_jsonable(v) for k, v in self.info.items()},
            },
        )


@dataclass
class TestFunctionReport:
    phi: np.ndarray
    mean_residual: float
    robin_residual: np.ndarray
    index_quadratic: float
    index_closed: float
    match_residual: float
    info: dict = field(default_factory=dict)

    def to_document(self):
        robin = self.robin_residual
        return document(
            "test-function",
            {
                "mean_residual": float(self.mean_residual),
                "max_robin_residual": float(np.max(robin)) if len(robin) else 0.0,
                "index_quadratic": float(self.index_quadratic),
                "index_closed": float(self.index_closed),
                "match_residual": float(self.match_residual),
                "max_abs_phi": float(np.abs(self.phi).max()),
                "info": {k: to_jsonable(v) for k, v in self.info.items()},
            },
        )


def _cot(theta):
    c = math.cos(theta)
    # free-boundary angles must kill the term identically
    if abs(c) < 4 * np.finfo(float).eps:
        return 0.0
    s = math.sin(theta)
    if abs(s) < 1e-15:
        raise InvalidAngleError(f"cotangent undefined at theta = {theta}")
    return c / s


def assemble_index_form(
    mesh: LabeledTriMesh, walls: WallSet, fields: GeometryFields, operators=None
) -> IndexFormSystem:
    """A = K - M_{|sigma|^2} - sum_i cot(theta_i) sigma(nu,nu) B_i and c = M 1."""
    ops = operators or assemble_operators(mesh)
    A = ops.K - weighted_mass(mesh, fields.sigma_sq)
    sigma_nn_full = fields.full("sigma_nn")
    conormal_full = fields.full("conormal")
    for i, theta in enumerate(walls.angles):
        if i not in ops.B_wall:
            continue
        cot = _cot(theta)
        if cot == 0.0:
            continue
        on_wall = ops.B_wall[i].diagonal() != 0.0
        bad = ~np.isfinite(sigma_nn_full[on_wall]) | ~np.isfinite(conormal_full[on_wall]).all(axis=1)
        if bad.any():
            raise FitFailureError(
                f"{int(bad.sum())} vertices on wall {i} have a non-finite sigma(nu, nu) "
                "or conormal; the boundary term of the index form is undefined"
            )
        q = cot * sigma_nn_full
        A = A - ops.B_wall[i].multiply(q[None, :])
    A = (0.5 * (A + A.T)).tocsr()
    M = ops.M.tocsr()
    c = np.asarray(M @ np.ones(mesh.nv))
    meta = {
        "area": ops.area,
        "max_sigma_sq": float(np.max(fields.sigma_sq)),
        "boundary_lengths": ops.boundary_lengths(),
        "fields": dict(fields.info),
    }
    return IndexFormSystem(A=A, M=M, c=c, meta=meta)


def _factor(K):
    """Symmetric-mode LU of K and its number of nonpositive pivots.

    With no off-diagonal pivoting P K P^T = L D L^T and U = D L^T, so by
    Sylvester's law the signs of diag(U) are the inertia of K.
    """
    try:
        lu = splu(
            K.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular
        raise SolverFailureError(f"factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverFailureError("factorization pivoted off the diagonal; no inertia")
    return lu, int(np.count_nonzero(~(lu.U.diagonal() > 0.0)))


def _positive_shift(system, s):
    """Smallest s * 2^j making A + sM positive definite, with its factor.

    Every constrained eigenvalue then lies above -s (Sylvester's law and
    interlacing), so the pairs nearest -s are the lowest ones.
    """
    for _ in range(MAX_SHIFT_DOUBLINGS):
        lu, nonpositive = _factor(system.A + s * system.M)
        if nonpositive == 0:
            return s, lu
        s *= 2.0
    raise SolverFailureError(f"no shift up to {s:.3e} makes A + sM positive definite")


def _lanczos(system, m, s, lu):
    """m pairs of the constrained pencil nearest -s by shift-invert Lanczos.

    The inverse is restricted to c^T x = 0 by a rank-one Schur correction
    (Golub, SIAM Rev. 15, 1973): x -> K^{-1} x - w (c^T K^{-1} x) / (c^T w)
    with K = A + sM and w = K^{-1} c.
    """
    n, c = system.n, system.c
    w = lu.solve(c)
    cw = float(c @ w)

    def apply(x):
        y = lu.solve(np.asarray(x, float))
        return y - w * (float(c @ y) / cw)

    op = LinearOperator((n, n), matvec=apply, dtype=float)
    v0 = np.cos(np.arange(n, dtype=float))
    v0 -= c * (float(c @ v0) / float(c @ c))
    try:
        vals, vecs = eigsh(
            system.A, k=m, M=system.M, sigma=-s, OPinv=op, v0=v0, tol=ARPACK_TOL
        )
    except ArpackError as exc:
        raise SolverFailureError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _certify(system, vals, k, s):
    """A cut mu past the k-th value, the inertia count below it, and the pairs found.

    mu lies halfway to the next distinct value found, so a missed copy of a
    multiple eigenvalue at the top of the window makes count and pairs
    disagree. The count is Haynsworth's: the bordered matrix
    [[A - mu M, c], [c^T, 0]] has one more negative eigenvalue than the
    constrained pencil, and its Schur complement -c^T (A - mu M)^{-1} c
    carries the rest.
    """
    gap = 1e-6 * (vals[k - 1] + s)
    above = vals[k:][vals[k:] > vals[k - 1] + gap]
    mu = 0.5 * (vals[k - 1] + above[0]) if len(above) else vals[k - 1] + gap
    lu, nonpositive = _factor(system.A - mu * system.M)
    count = nonpositive + int(float(system.c @ lu.solve(system.c)) > 0.0) - 1
    return float(mu), count, int(np.count_nonzero(vals < mu))


def solve_spectrum(system: IndexFormSystem, k=10) -> Spectrum:
    """Lowest k eigenpairs of f^T A f over {c^T f = 0, f^T M f = 1}, certified.

    One shift-invert Lanczos solve on a single factorization of A + sM, with
    s doubled until that factorization is positive definite. Every answer is
    certified twice: each pair by its residual projected onto c^T f = 0, and
    the set by an inertia count showing that no constrained eigenvalue below
    the k-th was missed. Raises SolverFailureError when either fails.
    Deterministic for fixed inputs.
    """
    n = system.n
    k = max(1, min(k, n - 2))
    A, M, c = system.A, system.M, system.c
    scale = float(abs(A).sum(axis=1).max())
    # the constant's Rayleigh quotient (cot term included) sits just above
    # the lowest unconstrained eigenvalue on every family
    area = float(c.sum())
    s, lu = _positive_shift(system, max(-2.0 * float(A.sum()) / area, 1.0 / area))
    for buffer in CERTIFICATE_BUFFERS:
        m = min(k + buffer, n - 2)
        vals, vecs = _lanczos(system, m, s, lu)
        mu, count, found = _certify(system, vals, k, s)
        if count == found:
            break
    else:
        raise SolverFailureError(
            f"spectrum not certified: {count} constrained eigenvalues below {mu:.6g}, "
            f"solver found {found}"
        )
    vals, vecs = vals[:k], vecs[:, :k]
    # normalize: f^T M f = 1 and a fixed sign
    vecs = vecs / np.sqrt(np.einsum("ij,ij->j", vecs, M @ vecs))
    vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)])
    cn = c / np.linalg.norm(c)
    R = A @ vecs - (M @ vecs) * vals
    R -= np.outer(cn, cn @ R)
    resid = np.linalg.norm(R, axis=0) / max(scale, 1e-300)
    worst = float(resid.max())
    if not np.all(np.isfinite(vals)) or not worst <= RESIDUAL_BOUND or vals[0] <= -s:
        raise SolverFailureError(
            f"eigensolver did not converge (projected relative residual {worst:.3e})",
            residual=worst,
        )
    solver = {
        "method": "shift-invert Lanczos, rank-one constraint correction",
        "shift": s,
        "requested": m,
        "arpack_tol": ARPACK_TOL,
        "residuals": [float(r) for r in resid],
        "constraint_defects": [float(d) for d in np.abs(c @ vecs)],
        "certificate": {"mu": mu, "count_below": count},
    }
    return Spectrum(vals, vecs, solver)


def min_constrained_eigenpair(system: IndexFormSystem):
    """Smallest constrained eigenvalue and its mass-normalized eigenfunction."""
    vals, vecs, _ = solve_spectrum(system, k=1)
    return float(vals[0]), vecs[:, 0]


def stability_verdict(system: IndexFormSystem, tol=None, k=10) -> StabilityVerdict:
    """Stable iff lambda_min >= -tol; default tol is discretization-scaled.

    The tolerance used is always reported; the default is
    0.05 * max |sigma|^2, the natural curvature scale of the problem.
    """
    if tol is None:
        tol = 0.05 * system.meta.get("max_sigma_sq", 1.0)
    vals, vecs, solver = solve_spectrum(system, k=k)
    lam = float(vals[0])
    return StabilityVerdict(
        lambda_min=lam,
        eigenfunction=vecs[:, 0],
        stable=bool(lam >= -tol),
        tol_used=float(tol),
        eigenvalues=vals,
        eigenfunctions=vecs,
        info={"k": len(vals), "meta": dict(system.meta), "solver": solver},
    )


def mass_correlation(M, f, g):
    """|<f, g>_M| normalized; used for eigenfunction certificates."""
    num = abs(float(f @ (M @ g)))
    den = math.sqrt(float(f @ (M @ f)) * float(g @ (M @ g)))
    return num / den if den > 0 else 0.0


def common_wall_point(walls: WallSet):
    """A point on every wall plane, or an error if none exists."""
    N = walls.normals
    d = walls.offsets
    x0, residuals, *_ = np.linalg.lstsq(N, d, rcond=None)
    gap = float(np.abs(N @ x0 - d).max())
    scale = 1.0 + float(np.abs(d).max())
    if gap > 1e-9 * scale:
        raise NoCommonOriginError(
            f"wall planes share no common point (best residual {gap:.3e})"
        )
    return x0


def _mean_curvature_bar(fields, ops):
    lumped = ops.lumped_mass()
    return float(fields.mean_curv @ lumped / lumped.sum())


def build_test_function(
    mesh: LabeledTriMesh,
    walls: WallSet,
    fields: GeometryFields,
    a=None,
    operators=None,
    system=None,
) -> TestFunctionReport:
    """Build phi = 1 + H <psi, N> + <a, N> and validate its three properties.

    With a capillary vector ``a`` the coordinates are translated so the origin
    lies on every wall plane (error if none exists); ``a = None`` runs the
    identity mode phi = 1 + H <psi, N> that needs no common origin. Reports
    the discrete mean of phi, the weak per-vertex Robin defect
    |d(phi)/d(nu) - q phi|, and the agreement between the quadratic form value
    and the closed-form integral -int (|sigma|^2 - n H^2) phi.
    """
    ops = operators or assemble_operators(mesh)
    sys_ = system or assemble_index_form(mesh, walls, fields, ops)
    if a is None:
        a = np.zeros(3)
        psi = mesh.positions
        identity_mode = True
    else:
        a = np.asarray(a, float).reshape(3)
        psi = mesh.positions - common_wall_point(walls)
        identity_mode = False

    hbar = _mean_curvature_bar(fields, ops)
    u = np.einsum("ij,ij->i", psi, fields.normal)
    phi = 1.0 + hbar * u + fields.normal @ a

    area = ops.area
    mean_residual = abs(float(sys_.c @ phi)) / area

    # weak Robin defect: (K phi)_v carries the conormal flux plus the volume
    # term, which is removed through the structure equation for Delta phi
    lap_model = -fields.sigma_sq * phi + (fields.sigma_sq - NDIM * hbar * hbar)
    flux = ops.K @ phi + ops.M @ lap_model
    bverts = fields.boundary_vertices
    q_full = np.zeros(mesh.nv)
    sigma_nn_full = fields.full("sigma_nn")
    for i, theta in enumerate(walls.angles):
        cot = _cot(theta)
        verts = [v for v, w in mesh.boundary_labels.items() if w == i]
        if verts:
            q_full[verts] = cot * sigma_nn_full[verts]
    b_diag = np.asarray(ops.B_all.diagonal())
    robin = np.zeros(len(bverts))
    if len(bverts):
        denom = np.maximum(b_diag[bverts], 1e-300)
        robin = np.abs(flux[bverts] - q_full[bverts] * b_diag[bverts] * phi[bverts]) / denom

    quad = float(phi @ (sys_.A @ phi))
    closed = -integrate_scalar(ops.M, (fields.sigma_sq - NDIM * hbar * hbar) * phi)
    floor = 1e-12 * area
    match = abs(quad - closed) / max(abs(quad), abs(closed), floor)

    return TestFunctionReport(
        phi=phi,
        mean_residual=mean_residual,
        robin_residual=robin,
        index_quadratic=quad,
        index_closed=closed,
        match_residual=match,
        info={
            "mean_H": hbar,
            "a": a,
            "identity_mode": identity_mode,
            "area": area,
            "max_sigma_sq": sys_.meta.get("max_sigma_sq"),
        },
    )


# -- energy and its first variation ------------------------------------------------


def _loop_plane_area(points, plane):
    """Unsigned area enclosed by a loop after projection into the plane."""
    n = plane.normal
    axis = np.zeros(3)
    axis[np.argmin(np.abs(n))] = 1.0
    u = np.cross(n, axis)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    proj = points - np.outer(points @ n - plane.offset, n)
    x = proj @ u
    y = proj @ v
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def capillary_energy(mesh: LabeledTriMesh, walls: WallSet | None) -> float:
    """E = |Sigma| - sum_i cos(theta_i) |W_i|.

    Wetted areas are the in-plane areas enclosed by the projected boundary
    loops of each wall (disks and annuli for the families).
    """
    e = mesh.area()
    if walls is None:
        return e
    loops = mesh.boundary_loops()
    labels = mesh.boundary_labels
    for i, (plane, theta) in enumerate(zip(walls.walls, walls.angles)):
        cos_t = math.cos(theta)
        if abs(cos_t) < 4 * np.finfo(float).eps:
            continue
        wetted = 0.0
        for loop in loops:
            if all(labels.get(v) == i for v in loop):
                wetted += _loop_plane_area(mesh.positions[loop], plane)
        e -= cos_t * wetted
    return e


def first_variation_energy(mesh, walls, f, h, fields=None, operators=None):
    """Central difference of E(psi + t f N) at t = 0 with step h.

    Requires mean-zero f (volume-preserving direction to first order); for
    capillary equilibria this tends to zero as mesh size and step shrink
    together.
    """
    f = np.asarray(f, float)
    if f.shape != (mesh.nv,):
        raise ConstraintViolationError("need one value per vertex")
    ops = operators or assemble_operators(mesh)
    c = np.asarray(ops.M @ np.ones(mesh.nv))
    fscale = float(np.abs(f).max())
    if fscale == 0:
        return 0.0
    if abs(float(c @ f)) > 1e-8 * ops.area * fscale:
        raise ConstraintViolationError(
            "deformation is not mean-zero (volume constraint violated)"
        )
    if fields is None:
        fields = estimate_fields(mesh, walls)
    step = f[:, None] * fields.normal
    e_plus = capillary_energy(mesh.with_positions(mesh.positions + h * step), walls)
    e_minus = capillary_energy(mesh.with_positions(mesh.positions - h * step), walls)
    return (e_plus - e_minus) / (2.0 * h)


# -- serialization helpers -----------------------------------------------------------


def export_eigenfunction_csv(values, path):
    path = Path(path)
    lines = ["vertex,value"]
    lines += [f"{i},{v:.17g}" for i, v in enumerate(np.asarray(values, float))]
    path.write_text("\n".join(lines) + "\n")
    return path
