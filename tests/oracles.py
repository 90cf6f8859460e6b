"""Single-point references for the library's batched kernels.

They are written on scipy.linalg, which the library itself never calls, so
a test compares two independent LAPACK paths.
"""

import numpy as np
import scipy.linalg

from cempca.errors import SingularMatrixError

LOG_2PI = float(np.log(2.0 * np.pi))


def log_gaussian(x, mean, cov):
    """Log density of x under a Gaussian with the given mean and SPD covariance.

    Factors the covariance on every call; it is the single-point reference
    for the cached mixture kernel behind log_joint.
    """
    x = np.asarray(x, dtype=float)
    cov = np.asarray(cov, dtype=float)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("covariance is not positive-definite") from None
    sol = scipy.linalg.solve_triangular(L, x - np.asarray(mean, dtype=float), lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(-0.5 * (x.size * LOG_2PI + logdet + sol @ sol))
