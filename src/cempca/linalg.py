"""Dense numerical kernels used by every other module.

Thin wrappers over numpy.linalg that add input validation, a deterministic
sign convention for factor columns, and log-space determinants (raw
determinants are never formed). Every dense solve and factor of the fits
goes through numpy's LAPACK, not scipy's: scipy bundles its own OpenBLAS
with its own thread pool, and handing work from one pool to the other
costs about 10 ms per switch on 2 vCPUs.
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
    same flips, so products like U @ diag(d) @ V.T are unchanged.
    """
    U = U.copy()
    companions = [C.copy() for C in companions]
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
            for C in companions:
                C[:, j] = -C[:, j]
    if companions:
        return (U, *companions)
    return U


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
    which maximizes Tr(A^T P) over orthonormal-column P, and A's singular values."""
    U, d, V = thin_svd(A)
    return U @ V.T, d


def spd_solve(A, Y):
    """Solve A @ Z = Y for symmetric positive-definite A.

    Returns (Z, logdet) where logdet is log det A read off the Cholesky
    factor A = L L^T, and Z comes from the two triangular systems in L.
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
    Z = np.linalg.solve(L.T, np.linalg.solve(L, Y))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return Z, logdet

