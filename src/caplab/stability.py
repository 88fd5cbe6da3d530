"""Discrete index form, constrained spectrum, verdicts and the test function.

The quadratic form is the integrated-by-parts second variation
    I(f, f) = int |grad f|^2 - int |sigma|^2 f^2 - sum_i cot(theta_i)
              int_{Gamma_i} sigma(nu, nu) f^2,
realized as f^T A f with A = K - M_sigma - sum_i q_i B_i, and stability means
nonnegativity of the smallest eigenvalue of A relative to the mass M over the
mean-zero subspace c^T f = 0, c = M 1.

The constrained spectrum has one certified solve and two pair finders. Every
answer is certified by the projected residual of every pair, against the
full A and M, and by an inertia count (Sylvester, Haynsworth) of the
constrained eigenvalues below a cut past the last one reported, from a
factorization of A - mu M, which the pairs found below the cut must meet.
The constraint never enters a saddle system.

On a mesh with a ring layout (``meshkit.RingLayout``: every family mesh and
every CAPMESH file ``gen`` writes) A, M and c commute with the rotation by
2 pi / n, and the problem splits exactly into one dense block per azimuthal
mode (Fassler and Stiefel, Group Theoretical Methods and Their Applications,
1992; Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986). The blocks are
read from the rows of each ring's vertex 0 and solved in real arithmetic,
mode by mode from q = 0, until a mode's lowest value lies above the k + 2
lowest found; the count at the cut catches a mode skipped too soon. That
count is the solve's one factorization. When the count or a residual fails,
the solve falls back to the other finder, on factorizations of its own.

The other finder, for every other mesh, is shift-invert Lanczos (Ericsson
and Ruhe, Math. Comp. 35, 1980), written here in numpy with full
reorthogonalization and no restart, on a single sparse factorization of
A + sM, with the shift s doubled until that factorization is positive
definite, so the pairs nearest -s are the lowest. The constraint enters the
inverse as a rank-one Schur correction.

Single-vector Lanczos can return one copy of a multiple eigenvalue, and the
lab's symmetric surfaces have many (lambda_min of every cap is double). When
the count exceeds the pairs found below the cut, the pairs found are locked
and Lanczos runs again on their M-orthogonal complement, from a second fixed
start, on the same factorization; the cut and the count stand. A Lanczos
solve thus factors twice, plus any shift doublings, whether or not a copy
was missed.

A and M live on one CSR pattern, the mesh's pairs of vertices that share a
triangle, so each matrix factored, A + sM or A - mu M, is a sum of their data
arrays; SuperLU runs with the supernode relaxation and panel size
(``SUPERLU_RELAX``, ``SUPERLU_PANEL_SIZE``) that suit such surface meshes.
The first eigenfunction reported involves no arbitrary choice: when lambda_min
is multiple, it is the projection of the fixed Lanczos start onto the
certified eigenspace, and when it is simple, its sign makes its largest entry
positive, ties within ``SIGN_TIE`` going to the lowest vertex index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dstev, dsygvx
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

from .discops import NDIM, GeometryFields, estimate_fields, integrate_scalar, weighted_mass
from .errors import (
    ConstraintViolationError,
    FitFailureError,
    InvalidAngleError,
    NoCommonOriginError,
    SolverFailureError,
)
from .meshkit import LabeledTriMesh, RingLayout, WallSet
from .reports import document

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
# Lanczos's relative Ritz-value accuracy: two orders inside the residual
# bound instead of machine precision
LANCZOS_TOL = 1e-2 * RESIDUAL_BOUND
# a Gram-Schmidt pass that leaves less than this share of a vector's norm is
# repeated, as ARPACK's is
DGKS_RATIO = 1.0 / math.sqrt(2.0)
MAX_SHIFT_DOUBLINGS = 60
# entries within this share of a vector's largest entry, in size, tie for the
# entry whose sign is made positive
SIGN_TIE = 1e-8
ENERGY_STEP = 1e-4  # first_variation_energy's central-difference step
# SuperLU's supernode relaxation and panel size (Demmel, Eisenstat, Gilbert,
# Li and Liu, SIAM J. Matrix Anal. Appl. 20, 1999). The defaults merge small
# subtrees into relaxed supernodes and update in wide panels, which on these
# surface-mesh matrices costs each factorization 1.2-2.0 times as much
# (nv 433-12,545)
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 1


@dataclass
class IndexFormSystem:
    """Matrices realizing the index form on the discrete function space.

    A and M are held as CSR matrices on one pattern, so that every shifted
    matrix A + tM the solver factors is a sum of their data arrays; a pair
    on two patterns is refused. ``mesh`` is the mesh the form was assembled
    on, or None; its ring layout, detected when a spectrum is first solved,
    chooses the pair finder.
    """

    A: sparse.csr_matrix
    M: sparse.csr_matrix
    c: np.ndarray
    meta: dict = field(default_factory=dict)
    mesh: LabeledTriMesh | None = None

    def __post_init__(self):
        A, M = sparse.csr_matrix(self.A), sparse.csr_matrix(self.M)
        if not (np.array_equal(A.indptr, M.indptr) and np.array_equal(A.indices, M.indices)):
            raise ValueError(
                f"A ({A.nnz} entries) and M ({M.nnz} entries) are not on one CSR pattern; "
                "build both on the mesh's pair_pattern"
            )
        self.A, self.M = A, M

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def layout(self) -> RingLayout | None:
        """The mesh's ring layout, or None: with one, the pairs come from the azimuthal blocks."""
        return None if self.mesh is None else self.mesh.ring_layout


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
                "lambda_min": self.lambda_min,
                "stable": self.stable,
                "tol_used": self.tol_used,
                "eigenvalues": self.eigenvalues,
                "info": self.info,
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
                "mean_residual": self.mean_residual,
                "max_robin_residual": np.max(robin) if len(robin) else 0.0,
                "index_quadratic": self.index_quadratic,
                "index_closed": self.index_closed,
                "match_residual": self.match_residual,
                "max_abs_phi": np.abs(self.phi).max(),
                "info": self.info,
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


def _robin_coefficients(mesh, walls, fields):
    """cot(theta_i) sigma(nu, nu) at each vertex of wall i: 0 on a free wall (cot 0) and off
    the walls; a non-finite sigma(nu, nu) or conormal on any other wall is a FitFailureError."""
    q = np.zeros(mesh.nv)
    for i, theta in enumerate(walls.angles):
        cot = _cot(theta)
        if cot == 0.0:
            continue
        on = mesh.vertex_wall == i
        bad = ~np.isfinite(fields.sigma_nn[on]) | ~np.isfinite(fields.conormal[on]).all(axis=1)
        if bad.any():
            raise FitFailureError(
                f"{int(bad.sum())} vertices on wall {i} have a non-finite sigma(nu, nu) "
                "or conormal; the boundary term of the index form is undefined"
            )
        q[on] = cot * fields.sigma_nn[on]
    return q


def assemble_index_form(mesh: LabeledTriMesh, walls: WallSet, fields: GeometryFields) -> IndexFormSystem:
    """A = K - M_{|sigma|^2} - sum_i cot(theta_i) sigma(nu,nu) B_i and c = M 1."""
    ops = mesh.operators
    # K, M and the weighted mass share the mesh's pair pattern, and A is
    # formed on it: exactly symmetric, since each entry pair sums alike
    data = ops.K.data - weighted_mass(mesh, fields.sigma_sq).data
    diagonal = mesh.pair_pattern.diagonal
    q = _robin_coefficients(mesh, walls, fields)
    for B in ops.B_wall.values():
        b = B.diagonal()
        on_wall = b != 0.0
        data[diagonal[on_wall]] -= q[on_wall] * b[on_wall]
    A = mesh.pair_pattern.csr(data)
    M = ops.M
    c = np.asarray(M @ np.ones(mesh.nv))
    meta = {
        "area": ops.area,
        "max_sigma_sq": float(np.max(fields.sigma_sq)),
        "boundary_lengths": dict(ops.boundary_lengths),
        "fields": dict(fields.info),
    }
    return IndexFormSystem(A=A, M=M, c=c, meta=meta, mesh=mesh)


def _pencil(system, t):
    """A + tM, summed on the pattern A and M share, in the CSC form SuperLU takes.

    A and M are symmetric, so their CSR arrays read as CSC are the same
    matrix, and no transposing copy is made.
    """
    A = system.A
    return sparse.csc_matrix((A.data + t * system.M.data, A.indices, A.indptr), shape=A.shape)


def _factor(K):
    """Symmetric-mode LU of K and its number of nonpositive pivots.

    With no off-diagonal pivoting P K P^T = L D L^T and U = D L^T, so by
    Sylvester's law the signs of diag(U) are the inertia of K.
    """
    try:
        lu = splu(
            K,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            relax=SUPERLU_RELAX,
            panel_size=SUPERLU_PANEL_SIZE,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular
        raise SolverFailureError(f"factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverFailureError("factorization pivoted off the diagonal; no inertia")
    return lu, int(np.count_nonzero(~(lu.U.diagonal() > 0.0)))


def _positive_shift(system, s):
    """Smallest s * 2^j making A + sM positive definite, its factor, and j + 1.

    Every constrained eigenvalue then lies above -s (Sylvester's law and
    interlacing), so the pairs nearest -s are the lowest ones.
    """
    for tries in range(1, MAX_SHIFT_DOUBLINGS + 1):
        lu, nonpositive = _factor(_pencil(system, s))
        if nonpositive == 0:
            return s, lu, tries
        s *= 2.0
    raise SolverFailureError(f"no shift up to {s:.3e} makes A + sM positive definite")


def _start(c, wave=np.cos):
    """A fixed Lanczos start vector, wave(0), wave(1), ... made c-orthogonal."""
    v0 = wave(np.arange(len(c), dtype=float))
    return v0 - c * (float(c @ v0) / float(c @ c))


def _gap(value, s):
    """Distance within which found values count as copies of ``value``."""
    return 1e-6 * (value + s)


def _lanczos(system, m, s, lu, locked=None):
    """m pairs of the constrained pencil nearest -s by shift-invert Lanczos.

    The spectral transformation of Ericsson and Ruhe (Math. Comp. 35,
    1980): Lanczos in the M inner product on x -> (A + sM)^{-1} M x, whose
    eigenvalues theta = 1 / (lambda + s) are largest in modulus for the
    lambda nearest -s. Each step takes one solve and the three-term
    recurrence; a classical Gram-Schmidt pass against the whole basis,
    repeated when it removed most of the vector, then keeps the basis
    M-orthonormal, so no restart is needed. A step costs two mass products
    (three when the pass repeats), and only the basis itself is stored. It
    stops on ARPACK's rule: every wanted Ritz pair's estimate
    beta_j |s_ji| is within LANCZOS_TOL |theta_i|, the wanted pairs being the
    m with the largest |theta|. The returned vectors are purified by one step
    of the operator, as ARPACK's are. Raises SolverFailureError when the
    Krylov space fills the search space before that. Returns the values
    ascending, the vectors as columns and the number of steps taken.

    The inverse is restricted to c^T x = 0 by a rank-one Schur correction
    (Golub, SIAM Rev. 15, 1973): x -> y - w (c^T y) / (c^T w) with
    y = K^{-1} x, K = A + sM and w = K^{-1} c.

    With ``locked`` pairs F (M-orthonormal columns) the inverse is also
    restricted to their M-orthogonal complement, which deflates them
    (Lehoucq and Sorensen, SIAM J. Matrix Anal. Appl. 17, 1996): the
    correction becomes rank 1 + j, x -> y - W (C^T W)^{-1} C^T y with
    C = [c, M F] and W = K^{-1} C. Such a round starts from a second fixed
    vector. The first start's projection onto an eigenspace is the copy
    already found, so it has no weight on a copy that was missed.
    """
    n, c, M = system.n, system.c, system.M
    # C and W are held by rows, C^T and W^T in the formulas above
    if locked is None:
        C, W = c[None, :], lu.solve(c)[None, :]
        v0 = _start(c)
    else:
        C = np.vstack([c, (M @ locked).T])
        W = np.ascontiguousarray(lu.solve(C.T).T)
        v0 = _start(c, np.sin)
    # the rows of W premultiplied by (W C^T)^{-1}, once
    W = np.linalg.solve(W @ C.T, W)

    def apply(x):
        y = lu.solve(x)
        y -= np.dot(np.dot(C, y), W)
        return y

    def mass(x):
        # the CSR kernel skips scipy's sparse dispatch, with the same arithmetic
        y = np.zeros(n)
        csr_matvec(n, n, M.indptr, M.indices, M.data, x, y)
        return y

    # the search space, c's complement less the locked pairs, bounds the
    # steps. The basis is sized past the steps measured runs take (12-27 at
    # m = 3, 42-60 at m = 12) and doubled when a run needs more
    most = n - 1 - (0 if locked is None else locked.shape[1])
    Q = np.empty((min(most, 3 * m + 30), n))
    alpha, beta = np.empty(most), np.empty(most)
    # the start is taken into the operator's range, as ARPACK does
    r = apply(mass(v0))
    Mr = mass(r)
    b = math.sqrt(float(r @ Mr))
    for j in range(most):
        if j == len(Q):
            Q = np.concatenate([Q, Q])[:most]
        q, Mq = np.divide(r, b, out=Q[j]), Mr / b
        r = apply(Mq)
        alpha[j] = float(Mq @ r)
        r -= alpha[j] * q
        if j:
            r -= beta[j - 1] * Q[j - 1]
        # rounding in the recurrence, relative to what it removed, can leave
        # the constrained space; the correction takes it back
        r -= np.dot(np.dot(C, r), W)
        Mr = mass(r)
        norm = math.sqrt(float(r @ Mr))
        # full reorthogonalization in the M inner product, repeated when it
        # removed most of r (Daniel, Gragg, Kaufman and Stewart, Math. Comp.
        # 30, 1976); holding no M Q keeps the basis at one vector per step
        for _ in range(2):
            basis = Q[: j + 1]
            g = np.dot(basis, Mr)
            r -= np.dot(g, basis)
            alpha[j] += g[j]
            Mr = mass(r)
            b = math.sqrt(max(float(r @ Mr), 0.0))
            if b > DGKS_RATIO * norm:
                break
            norm = b
        beta[j] = b
        steps = j + 1
        # a tridiagonal eigensolve costs more than a step once the basis is
        # long, so the test runs every third step and wherever Lanczos must stop
        if (steps < m or steps % 3) and steps < most and b > 0.0:
            continue
        theta, S, info = dstev(alpha[:steps], beta[: max(steps - 1, 1)])
        if info:
            raise SolverFailureError(f"tridiagonal eigensolve failed (LAPACK info {info})")
        wanted = np.argsort(-np.abs(theta), kind="stable")[:m]
        theta, S = theta[wanted], S[:, wanted]
        if np.all(b * np.abs(S[-1]) <= LANCZOS_TOL * np.abs(theta)):
            break
    else:
        raise SolverFailureError(
            f"shift-invert Lanczos did not converge in {most} steps, the whole search space"
        )
    # Ritz vectors, purified by one step of the operator as ARPACK's are
    X = np.dot(S.T, Q[:steps]) + np.outer(S[-1] / theta, r)
    vals = 1.0 / theta - s
    order = np.argsort(vals)
    return vals[order], X[order].T, steps


def _inertia(system, mu):
    """The number of constrained eigenvalues below mu, from one factorization of A - mu M.

    The count is Haynsworth's: the bordered matrix [[A - mu M, c], [c^T, 0]]
    has one more negative eigenvalue than the constrained pencil, and its
    Schur complement -c^T w, w = (A - mu M)^{-1} c, carries the rest.
    """
    lu, nonpositive = _factor(_pencil(system, -mu))
    return nonpositive + int(float(system.c @ lu.solve(system.c)) > 0.0) - 1


def _cut(vals, k, s):
    """The certificate's cut: halfway from the k-th value to the next distinct one.

    A missed copy of a multiple eigenvalue at the top of the window then
    makes the count below the cut and the pairs found there disagree.
    """
    gap = _gap(vals[k - 1], s)
    above = vals[k:][vals[k:] > vals[k - 1] + gap]
    return float(0.5 * (vals[k - 1] + above[0]) if len(above) else vals[k - 1] + gap)


def _normalized(vecs, M):
    """Columns scaled to f^T M f = 1, each with its largest entry positive.

    Entries within SIGN_TIE of the largest in size tie, and the lowest
    vertex index among them decides: on a symmetric mesh entries of
    opposite sign can tie to rounding, which would otherwise pick the sign.
    """
    vecs = vecs / np.sqrt(np.einsum("ij,ij->j", vecs, M @ vecs))
    size = np.abs(vecs)
    lead = np.argmax(size >= (1.0 - SIGN_TIE) * size.max(axis=0), axis=0)
    return vecs * np.sign(vecs[lead, np.arange(vecs.shape[1])])


def _canonical_basis(V, M, c):
    """An M-orthonormal basis of span V led by the projection of the Lanczos start.

    The first vector is the M-orthogonal projection of ``_start(c)`` onto the
    span, so it depends on the eigenspace alone, not on where Lanczos stopped.
    Its sign is the projection's own, a positive M-product with the start.
    A Householder reflection of the coefficients carries the rest of the
    basis along.
    """
    V = _normalized(V, M)
    u = (M @ V).T @ _start(c)
    u /= np.linalg.norm(u)
    u[0] -= 1.0
    if u @ u > 0.0:
        V = V - np.outer(V @ u, u) * (2.0 / (u @ u))
    V[:, 1:] = _normalized(V[:, 1:], M)
    V[:, 0] /= math.sqrt(float(V[:, 0] @ (M @ V[:, 0])))
    return V


def solve_spectrum(system: IndexFormSystem, k=10) -> Spectrum:
    """Lowest k eigenpairs of f^T A f over {c^T f = 0, f^T M f = 1}, certified.

    Every answer is certified twice: each pair by its residual projected
    onto c^T f = 0, and the set by an inertia count showing that no
    constrained eigenvalue below the k-th was missed. The input's layout
    chooses the pair finder. Raises SolverFailureError when a check fails.
    Deterministic for fixed inputs.

    With a ring layout the pairs come from the azimuthal blocks
    (``_block_pairs``), and the count at the cut is the solve's one
    factorization: ``solver["factorizations"]`` is 1, ``solver["modes"]``
    gives each reported pair's azimuthal mode q (0 <= q <= n / 2) and
    ``solver["blocks"]`` the modes solved, of how many, and the ring count.
    When the count or a residual check fails, the solve falls back to
    Lanczos below, whose record then carries the reason as
    ``solver["blocks_refused"]``, and the factorization at the cut counts.

    Otherwise: one shift-invert Lanczos solve on a single factorization of
    A + sM, with s doubled until that factorization is positive definite.
    When the count exceeds the pairs found, deflation rounds on the same
    factorization search the complement of the pairs found, each asking for
    the missing count plus one, and ``solver["deflated"]`` lists those
    requests. A round that adds nothing below the cut fails the solve.
    ``solver["steps"]`` lists the Lanczos steps of each round, the first
    run and any deflation rounds. ``solver["factorizations"]`` is recorded
    whenever a Lanczos solve did not factor exactly twice: more after shift
    doublings or a refusal of the blocks.

    ``solver["multiplicity"]`` counts the pairs found within the
    certificate's gap of lambda_min. Above 1, the vectors of that eigenspace
    are replaced, after the residual checks, by the basis of
    ``_canonical_basis``: the first is the M-projection of the Lanczos start,
    the same whatever the finder, tolerance or rounding it ran with.
    """
    k = max(1, min(k, system.n - 2))
    # the constant's Rayleigh quotient (cot term included) sits just above
    # the lowest unconstrained eigenvalue on every family
    area = float(system.c.sum())
    s0 = max(-2.0 * float(system.A.sum()) / area, 1.0 / area)
    if system.layout is None:
        return _solve(system, k, s0)
    try:
        pairs = _block_pairs(system, k)
    except SolverFailureError as exc:
        refused, factored = str(exc), 0
    else:
        try:
            return _certify_blocks(system, k, s0, *pairs)
        except SolverFailureError as exc:
            # the count at the blocks' cut was factored
            refused, factored = str(exc), 1
    spectrum = _solve(system, k, s0, factored)
    spectrum.solver["blocks_refused"] = refused
    return spectrum


def _solve(system, k, s0, factored=0):
    """The certified Lanczos solve from the starting shift s0, after ``factored`` factorizations."""
    n = system.n
    s, lu, tries = _positive_shift(system, s0)
    # two pairs past the k-th, so that the certificate's cut has a next
    # distinct value to sit below
    m = min(k + 2, n - 2)
    vals, vecs, steps = _lanczos(system, m, s, lu)
    mu = _cut(vals, k, s)
    count = _inertia(system, mu)
    factored += tries + 1
    found = int(np.count_nonzero(vals < mu))
    # Lanczos missed a copy of a multiple eigenvalue: lock the pairs below mu
    # and search their complement on the same factor. mu and the count stand,
    # so no new factorization is needed
    deflated, steps = [], [steps]
    while found < count:
        below = vals < mu
        deflated.append(min(count - found + 1, n - 2))
        more, extra, taken = _lanczos(system, deflated[-1], s, lu, vecs[:, below])
        steps.append(taken)
        vals = np.concatenate([vals[below], more])
        order = np.argsort(vals)
        vals, vecs = vals[order], np.column_stack([vecs[:, below], extra])[:, order]
        found, before = int(np.count_nonzero(vals < mu)), found
        if found == before:
            break
    if found != count:
        raise SolverFailureError(
            f"spectrum not certified: {count} constrained eigenvalues below {mu:.6g}, "
            f"solver found {found}"
        )
    solver = {
        "method": "shift-invert Lanczos, rank-one constraint correction",
        "shift": s,
        "requested": m,
        "lanczos_tol": LANCZOS_TOL,
        "steps": steps,
        "certificate": {"mu": mu, "count_below": count},
    }
    if deflated:
        solver["deflated"] = deflated
    if factored != 2:
        solver["factorizations"] = factored
    # a value at or below the positive-definite shift -s would be spurious
    return _checked(system, vals, vecs, k, s, solver, spurious=vals[0] <= -s)


def _checked(system, vals, vecs, k, gap_shift, solver, spurious=False):
    """The lowest k of the certified pairs, M-normalized and residual-checked.

    lambda_min's eigenspace is the pairs found within the certificate's gap
    of it, all below the certified cut; its multiplicity, the residuals and
    the constraint defects go into ``solver``. Raises SolverFailureError
    when a residual exceeds RESIDUAL_BOUND, a value is not finite, or the
    finder calls its answer ``spurious``.
    """
    A, M, c = system.A, system.M, system.c
    eigenspace = vecs[:, vals <= vals[0] + _gap(vals[0], gap_shift)]
    vals, vecs = vals[:k], _normalized(vecs[:, :k], M)
    cn = c / np.linalg.norm(c)
    R = A @ vecs - (M @ vecs) * vals
    R -= np.outer(cn, cn @ R)
    # the largest absolute row sum of A
    scale = float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())
    resid = np.linalg.norm(R, axis=0) / max(scale, 1e-300)
    worst = float(resid.max())
    if not np.all(np.isfinite(vals)) or not worst <= RESIDUAL_BOUND or spurious:
        raise SolverFailureError(
            f"eigensolver did not converge (projected relative residual {worst:.3e})",
            residual=worst,
        )
    solver["residuals"] = [float(r) for r in resid]
    solver["constraint_defects"] = [float(d) for d in np.abs(c @ vecs)]
    solver["multiplicity"] = eigenspace.shape[1]
    if eigenspace.shape[1] > 1:
        basis = _canonical_basis(eigenspace, M, c)
        vecs[:, : basis.shape[1]] = basis[:, :k]
    return Spectrum(vals, vecs, solver)


# -- the azimuthal blocks ------------------------------------------------------------


class _Blocks:
    """The index form's azimuthal Fourier blocks on a ring layout.

    A and M commute with the rotation, so for each mode 0 < q < n / 2 the
    functions x_j cos(t q i) + y_j sin(t q i), t = 2 pi / n, on ring j (vertex
    i) span an invariant subspace. In that basis, scaled by sqrt(2 / n), both
    matrices restrict to [[C, S], [-S, C]], with
        C_jl = sum_d a_jl(d) cos(t q d),  S_jl = sum_d a_jl(d) sin(t q d),
    where a_jl(d) is the entry in row (j, 0) and column (l, d) of A or M. Mode
    n / 2 keeps the cosines alone (C, m x m). Mode 0, the ring constants
    scaled by 1 / sqrt(n), also holds the poles and the constraint c, and is
    solved on c's complement. Every entry is read from the rows of each
    ring's vertex 0, which A and M share.
    """

    def __init__(self, system):
        self.layout = top, bottom, m, n = system.layout
        A, M, c = system.A, system.M, system.c
        rows = top + n * np.arange(m)
        start, length = A.indptr[rows], np.diff(A.indptr)[rows]
        slots = np.arange(length.sum()) + np.repeat(start - np.cumsum(length) + length, length)
        ring = np.repeat(np.arange(m), length)
        col = A.indices[slots] - top
        a, b = A.data[slots], M.data[slots]
        on = (col >= 0) & (col < m * n)
        # the ring-ring entries by flat block place j m + l and offset d
        self.place, self.offset = ring[on] * m + col[on] // n, col[on] % n
        self.a, self.b = a[on], b[on]
        angles = (2.0 * math.pi / n) * np.arange(n)
        self.cos, self.sin = np.cos(angles), np.sin(angles)
        # mode 0: the ring constants, then the poles
        poles = [0] * top + [system.n - 1] * bottom
        size = m + len(poles)
        A0, M0 = np.zeros((size, size)), np.zeros((size, size))
        A0[:m, :m], M0[:m, :m] = self._sums(np.ones(len(self.a)))
        # a ring row's pole entries: the top pole at m, the bottom one after it
        near, pole = ring[~on], m + np.where(col[~on] < 0, 0, top)
        root = math.sqrt(n)
        A0[near, pole] = A0[pole, near] = root * a[~on]
        M0[near, pole] = M0[pole, near] = root * b[~on]
        for i, v in enumerate(poles):
            lo, hi = A.indptr[v], A.indptr[v + 1]
            for j, w in enumerate(poles):
                hit = lo + np.flatnonzero(A.indices[lo:hi] == w)
                if len(hit):
                    A0[m + i, m + j], M0[m + i, m + j] = A.data[hit[0]], M.data[hit[0]]
        # a Householder reflection that takes c to e_1: its other columns span
        # c's complement
        u = np.concatenate([root * c[rows], c[poles]])
        u /= np.linalg.norm(u)
        u0 = u[0]
        u[0] += math.copysign(1.0, u0)
        self.complement = Z = np.eye(size)[:, 1:] - np.outer(u, u[1:] / (1.0 + abs(u0)))
        self.zero = Z.T @ A0 @ Z, Z.T @ M0 @ Z

    @property
    def count(self):
        """The number of modes, 0 to n / 2."""
        return self.layout.n // 2 + 1

    def _sums(self, weight):
        """sum_d a_jl(d) weight_d for A and M, as m x m matrices."""
        m = self.layout.rings
        return (
            np.bincount(self.place, self.a * weight, m * m).reshape(m, m),
            np.bincount(self.place, self.b * weight, m * m).reshape(m, m),
        )

    def mode(self, q):
        """The blocks of A and M for mode q."""
        if q == 0:
            return self.zero
        turn = (q * self.offset) % self.layout.n
        CA, CM = self._sums(self.cos[turn])
        if 2 * q == self.layout.n:
            return CA, CM
        SA, SM = self._sums(self.sin[turn])
        return np.block([[CA, SA], [-SA, CA]]), np.block([[CM, SM], [-SM, CM]])

    def vectors(self, q, z):
        """The M-normalized functions of mode q's block vectors, the columns of z."""
        top, bottom, m, n = self.layout
        if q == 0:
            z = self.complement @ z
            rings = np.repeat(z[:m] / math.sqrt(n), n, axis=0)
            return np.concatenate([z[m : m + top], rings, z[m + top :]])
        turn = (q * np.arange(n)) % n
        if 2 * q == n:
            wave = z[:, None, :] * (self.cos[turn] / math.sqrt(n))[:, None]
        else:
            scale = math.sqrt(2.0 / n)
            wave = z[:m, None, :] * (scale * self.cos[turn])[:, None]
            wave += z[m:, None, :] * (scale * self.sin[turn])[:, None]
        out = np.zeros((top + m * n + bottom, z.shape[1]))
        out[top : top + m * n] = wave.reshape(m * n, -1)
        return out


def _block_pairs(system, k):
    """The lowest constrained pairs, mode by mode, from the azimuthal blocks.

    Modes are solved from q = 0 up, each for its lowest k + 2 values (made
    even in the modes whose values come in cos/sin pairs), until the first
    mode whose lowest value lies above the k + 2 lowest found before it: the
    lowest value of a mode rises with q on these surfaces, and the count at
    the certificate's cut catches a mode where it does not. Returns every
    value found, ascending, the mode and block column each came from, the
    blocks, and each solved mode's block vectors.
    """
    blocks = _Blocks(system)
    want = min(k + 2, system.n - 2)
    found, solved, values = np.empty(0), {}, []
    for q in range(blocks.count):
        Aq, Mq = blocks.mode(q)
        if not len(Aq):  # mode 0 of a single ring holds only the constant
            continue
        pairs = want + want % 2 if 0 < 2 * q < blocks.layout.n else want
        w, z, got, _, info = dsygvx(Aq, Mq, range="I", il=1, iu=min(pairs, len(Aq)))
        if info:
            raise SolverFailureError(f"the block of mode {q} failed (LAPACK dsygvx info {info})")
        values.append(w[:got])
        solved[q] = z[:, :got]
        last = len(found) >= want and w[0] > found[want - 1]
        found = np.sort(np.concatenate([found, w[:got]]))
        if last:
            break
    order = np.argsort(np.concatenate(values), kind="stable")
    modes = np.concatenate([np.full(len(w), q) for q, w in zip(solved, values)])
    columns = np.concatenate([np.arange(len(w)) for w in values])
    return found, modes[order], columns[order], blocks, solved


def _certify_blocks(system, k, s0, vals, modes, columns, blocks, solved):
    """The block pairs certified by the count at their cut, the solve's one factorization.

    Raises SolverFailureError when the blocks' count below the cut is not
    the inertia count there, or when a residual check fails.
    """
    # the gap's scale is the cold Lanczos path's starting shift, doubled
    # while it leaves lambda_min at or below zero
    s = s0
    while vals[0] + s <= 0.0:
        s *= 2.0
    mu = _cut(vals, k, s)
    count = _inertia(system, mu)
    found = int(np.count_nonzero(vals < mu))
    if found != count:
        raise SolverFailureError(
            f"{count} constrained eigenvalues below {mu:.6g}, the blocks of "
            f"{len(solved)} modes found {found}"
        )
    # the vectors reported, and those of lambda_min's eigenspace
    keep = max(k, int(np.count_nonzero(vals <= vals[0] + _gap(vals[0], s))))
    vecs = np.empty((system.n, keep))
    for q in np.unique(modes[:keep]):
        which = np.flatnonzero(modes[:keep] == q)
        vecs[:, which] = blocks.vectors(q, solved[q][:, columns[which]])
    solver = {
        "method": "azimuthal Fourier blocks, dense per mode",
        "modes": modes[:k].tolist(),
        "blocks": {"solved": len(solved), "total": blocks.count, "rings": blocks.layout.rings},
        "certificate": {"mu": mu, "count_below": count},
        "factorizations": 1,
    }
    return _checked(system, vals[:keep], vecs, k, s, solver)


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


def build_test_function(
    mesh: LabeledTriMesh, walls: WallSet, fields: GeometryFields, a=None
) -> TestFunctionReport:
    """Build phi = 1 + H <psi, N> + <a, N> and validate its three properties.

    With a capillary vector ``a`` the coordinates are translated so the origin
    lies on every wall plane (error if none exists); ``a = None`` runs the
    identity mode phi = 1 + H <psi, N> that needs no common origin. Reports
    the discrete mean of phi, the weak per-vertex Robin defect
    |d(phi)/d(nu) - q phi|, and the agreement between the quadratic form value
    and the closed-form integral -int (|sigma|^2 - n H^2) phi.
    """
    ops = mesh.operators
    system = assemble_index_form(mesh, walls, fields)
    if a is None:
        a = np.zeros(3)
        psi = mesh.positions
        identity_mode = True
    else:
        a = np.asarray(a, float).reshape(3)
        psi = mesh.positions - common_wall_point(walls)
        identity_mode = False

    hbar = ops.mean(fields.mean_curv)
    u = np.einsum("ij,ij->i", psi, fields.normal)
    phi = 1.0 + hbar * u + fields.normal @ a

    area = ops.area
    mean_residual = abs(float(system.c @ phi)) / area

    # weak Robin defect: (K phi)_v carries the conormal flux plus the volume
    # term, which is removed through the structure equation for Delta phi
    lap_model = -fields.sigma_sq * phi + (fields.sigma_sq - NDIM * hbar * hbar)
    flux = ops.K @ phi + ops.M @ lap_model
    bverts = mesh.boundary_vertices
    q_full = _robin_coefficients(mesh, walls, fields)
    b_diag = np.asarray(ops.B_all.diagonal())
    denom = np.maximum(b_diag[bverts], 1e-300)
    robin = np.abs(flux[bverts] - q_full[bverts] * b_diag[bverts] * phi[bverts]) / denom

    quad = float(phi @ (system.A @ phi))
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
            "max_sigma_sq": system.meta.get("max_sigma_sq"),
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
    for i, (plane, theta) in enumerate(zip(walls.walls, walls.angles)):
        cos_t = math.cos(theta)
        if abs(cos_t) < 4 * np.finfo(float).eps:
            continue
        wetted = 0.0
        for loop in mesh.boundary_loops:
            if np.all(mesh.vertex_wall[loop] == i):
                wetted += _loop_plane_area(mesh.positions[loop], plane)
        e -= cos_t * wetted
    return e


def first_variation_energy(mesh, walls, f, fields=None):
    """Central difference of E(psi + t f N) at t = 0 with step ``ENERGY_STEP``.

    Requires mean-zero f (volume-preserving direction to first order); for
    capillary equilibria this tends to zero as mesh size and step shrink
    together.
    """
    f = np.asarray(f, float)
    if f.shape != (mesh.nv,):
        raise ConstraintViolationError("need one value per vertex")
    ops = mesh.operators
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
    step = ENERGY_STEP * (f[:, None] * fields.normal)
    e_plus = capillary_energy(mesh.with_positions(mesh.positions + step), walls)
    e_minus = capillary_energy(mesh.with_positions(mesh.positions - step), walls)
    return (e_plus - e_minus) / (2.0 * ENERGY_STEP)
