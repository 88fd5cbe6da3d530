"""Reference solvers for the constrained index-form spectrum.

The benchmark checks every eigenvalue a command writes against these, so
neither may call ``caplab.stability.solve_spectrum``. Both solve
    A x = lambda M x,  c^T x = 0
for the lowest k pairs of an ``IndexFormSystem``.

``constrained_lowest`` is the fast oracle used during runs: shift-invert
Lanczos (ARPACK through ``eigsh``) whose inverse operator is restricted to
the constraint by a rank-one Schur correction (Golub, SIAM Rev. 15, 1973).
``dense_lowest`` is the slow reference it is tested against: a dense
generalized ``eigh`` on an orthonormal basis of the constraint complement.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh, null_space
from scipy.sparse.linalg import LinearOperator, eigsh, splu

RESIDUAL_BOUND = 1e-8


class OracleError(RuntimeError):
    """The reference solve did not certify its own answer."""


def _negative_pivots(K):
    """Negative eigenvalues of the symmetric matrix K, by Sylvester's law.

    A symmetric permutation without pivoting gives P K P^T = L D L^T, and the
    diagonal of U = D L^T carries the signs of D.
    """
    lu = splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return lu, int(np.count_nonzero(lu.U.diagonal() <= 0.0))


def constrained_lowest(system, k):
    """Lowest k constrained eigenvalues, ascending, with projected residuals.

    The shift s is raised until A + sM is positive definite, so every
    constrained eigenvalue lies above -s and the k nearest to -s are the k
    smallest. Each pair is certified by its residual projected onto the
    constraint, relative to the row-sum norm of A.
    """
    A, M, c = system.A.tocsr(), system.M.tocsr(), np.asarray(system.c, float)
    n = A.shape[0]
    k = max(1, min(k, n - 2))
    scale = float(abs(A).sum(axis=1).max())
    area = float(c.sum())
    s = scale / area
    for _ in range(60):
        lu, negative = _negative_pivots(A + s * M)
        if negative == 0:
            break
        s *= 2.0
    else:
        raise OracleError("no shift makes A + sM positive definite")
    w = lu.solve(c)
    cw = float(c @ w)

    def apply(x):
        y = lu.solve(np.asarray(x, float))
        return y - w * (float(c @ y) / cw)

    op = LinearOperator((n, n), matvec=apply, dtype=float)
    v0 = 1.0 + np.linspace(-1.0, 1.0, n) ** 2  # fixed start, projected onto c^T x = 0
    v0 -= c * (float(c @ v0) / float(c @ c))
    vals, vecs = eigsh(A, k=k, M=M, sigma=-s, OPinv=op, v0=v0, which="LM", tol=1e-13)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    cn = c / np.linalg.norm(c)
    R = A @ vecs - (M @ vecs) * vals
    R -= np.outer(cn, cn @ R)
    resid = np.linalg.norm(R, axis=0) / (scale * np.sqrt((vecs * (M @ vecs)).sum(axis=0)))
    if not np.all(np.isfinite(vals)) or resid.max() > RESIDUAL_BOUND or vals.min() <= -s:
        raise OracleError(f"reference solve not certified: residual {resid.max():.2e}")
    return vals, resid


def dense_lowest(system, k):
    """Lowest k constrained eigenvalues by a dense solve on the complement of c."""
    Q = null_space(np.asarray(system.c, float)[None, :])
    A = Q.T @ (system.A @ Q)
    M = Q.T @ (system.M @ Q)
    return eigh(0.5 * (A + A.T), 0.5 * (M + M.T), eigvals_only=True, subset_by_index=[0, k - 1])
