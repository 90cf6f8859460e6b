"""Dense numerical kernels used by every other module.

Thin wrappers over numpy.linalg that add input validation and a
deterministic sign convention for factor columns. Every dense solve and
factor of the fits goes through numpy's LAPACK, not scipy's: scipy bundles
its own OpenBLAS with its own thread pool, and handing work from one pool
to the other costs about 10 ms per switch on 2 vCPUs.
"""

import numpy as np

from .errors import InvalidInputError, SingularMatrixError


def _as_matrix(A, name="matrix"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return A


def _require_symmetric(A, name="matrix"):
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {A.shape}")
    scale = max(1.0, float(np.max(np.abs(A)))) if A.size else 1.0
    if A.size and float(np.max(np.abs(A - A.T))) > 1e-10 * scale:
        raise InvalidInputError(f"{name} is not symmetric")


def fix_signs(U, *companions):
    """Flip factor columns so the largest-magnitude entry of each is positive.

    Ties break at the lowest row index. Companion matrices receive the
    same flips, so products like U @ diag(d) @ V.T are unchanged. The
    results are C-ordered copies.
    """
    top = np.argmax(np.abs(U), axis=0)
    sign = np.where(U[top, np.arange(U.shape[1])] < 0, -1.0, 1.0)
    flipped = [np.multiply(A, sign, order="C") for A in (U, *companions)]
    return tuple(flipped) if companions else flipped[0]


def thin_svd(A):
    """Thin singular value decomposition with the deterministic sign rule.

    Returns (U, d, V) with A = U @ diag(d) @ V.T, d non-negative and
    non-increasing, and U, V orthonormal in columns.
    """
    A = _as_matrix(A, "A")
    U, d, Vt = np.linalg.svd(A, full_matrices=False)
    U, V = fix_signs(U, Vt.T)
    return U, d, V


def polar(A):
    """(U V^T, d) for the thin SVD A = U diag(d) V^T: the polar factor of A,
    which maximizes Tr(A^T P) over orthonormal-column P, and A's singular values.
    Flipping a column of U and of V together leaves U V^T as it is, so no
    sign rule runs; V stays C-ordered, as BLAS rounds U @ Vt differently."""
    U, d, Vt = np.linalg.svd(_as_matrix(A, "A"), full_matrices=False)
    return U @ np.ascontiguousarray(Vt.T).T, d


def spd_solve(A, Y):
    """Solve A @ Z = Y for symmetric positive-definite A.

    Z comes from the two triangular systems in the Cholesky factor
    A = L L^T; a matrix with no such factor raises SingularMatrixError.
    """
    A = _as_matrix(A, "A")
    Y = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise InvalidInputError("right-hand side contains non-finite entries")
    _require_symmetric(A, "A")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is not positive-definite") from None
    return np.linalg.solve(L.T, np.linalg.solve(L, Y))

