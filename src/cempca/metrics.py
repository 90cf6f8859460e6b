"""External clustering agreement: matched accuracy, NMI, and ARI."""

import numpy as np

from .errors import InvalidInputError
from .mixture import Partition


def _labels(partition):
    if isinstance(partition, Partition):
        arr = np.asarray(partition.assignments, dtype=int)
        if arr.size and not 0 <= arr.min() <= arr.max() < partition.g:
            raise InvalidInputError(f"a Partition's labels must be in [0, {partition.g})")
        return arr, partition.g
    arr = np.asarray(partition, dtype=int)
    if arr.size and arr.min() < 0:
        raise InvalidInputError(f"labels must be >= 0, got {arr.min()}")
    return arr, int(arr.max()) + 1 if arr.size else 0


def contingency(truth, pred):
    """Exact cross-tabulation of two equal-length partitions: the int64
    (g_true, g_pred) array of counts."""
    t, gt = _labels(truth)
    p, gp = _labels(pred)
    if t.shape[0] != p.shape[0]:
        raise InvalidInputError(
            f"partitions have different lengths: {t.shape[0]} vs {p.shape[0]}")
    return np.bincount(t * gp + p, minlength=gt * gp).reshape(gt, gp)


def accuracy(truth, pred):
    """Fraction of rows agreeing under the best one-to-one label mapping.

    Partitions with unequal cluster counts are matched on the rectangular
    table: the surplus clusters of either side match nothing.
    """
    from scipy.optimize import linear_sum_assignment   # imported on first use
    counts = contingency(truth, pred)
    if counts.sum() == 0:
        raise InvalidInputError("accuracy needs at least 1 row")
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return float(counts[rows, cols].sum() / counts.sum())


def nmi(truth, pred):
    """Mutual information normalized by the geometric mean of the two
    label entropies (natural log); 0 when either partition has a single
    cluster."""
    counts = contingency(truth, pred)
    n = int(counts.sum())
    if n == 0:
        raise InvalidInputError("nmi needs at least 1 row")
    row_sums, col_sums = counts.sum(axis=1), counts.sum(axis=0)
    mi = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            c = counts[i, j]
            if c > 0:
                mi += (c / n) * np.log(n * c / (row_sums[i] * col_sums[j]))
    pk = row_sums[row_sums > 0] / n
    pl = col_sums[col_sums > 0] / n
    hu = float(-(pk * np.log(pk)).sum())
    hv = float(-(pl * np.log(pl)).sum())
    if hu <= 0.0 or hv <= 0.0:
        return 0.0
    return float(mi / np.sqrt(hu * hv))


def ari(truth, pred):
    """Pair-counting agreement corrected for chance.

    Returns 1 when the expected and maximum indices coincide (identical
    single-cluster or all-singleton partitions).
    """
    counts = contingency(truth, pred)
    n = int(counts.sum())
    if n < 2:
        raise InvalidInputError("ari needs at least 2 rows")

    def comb2(values):
        values = np.asarray(values, dtype=np.int64)
        return int((values * (values - 1) // 2).sum())

    together = comb2(counts.ravel())
    a = comb2(counts.sum(axis=1))
    b = comb2(counts.sum(axis=0))
    total = n * (n - 1) // 2
    expected = a * b / total
    maximum = (a + b) / 2.0
    if maximum == expected:
        return 1.0
    return float((together - expected) / (maximum - expected))
