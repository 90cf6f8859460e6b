"""External clustering agreement: matched accuracy, NMI, and ARI."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError
from .mixture import Partition


@dataclass
class ContingencyTable:
    """Cross-tabulation of two partitions with its marginals."""

    counts: np.ndarray       # (g_true, g_pred) non-negative integers
    row_sums: np.ndarray
    col_sums: np.ndarray
    n: int


def _labels(partition):
    if isinstance(partition, Partition):
        return np.asarray(partition.assignments, dtype=int), partition.g
    arr = np.asarray(partition, dtype=int)
    if arr.size and arr.min() < 0:
        raise InvalidInputError(f"labels must be >= 0, got {arr.min()}")
    return arr, int(arr.max()) + 1 if arr.size else 0


def contingency(truth, pred):
    """Exact cross-tabulation of two equal-length partitions."""
    t, gt = _labels(truth)
    p, gp = _labels(pred)
    if t.shape[0] != p.shape[0]:
        raise InvalidInputError(
            f"partitions have different lengths: {t.shape[0]} vs {p.shape[0]}")
    counts = np.zeros((gt, gp), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return ContingencyTable(counts=counts, row_sums=counts.sum(axis=1),
                            col_sums=counts.sum(axis=0), n=int(t.shape[0]))


def hungarian(cost):
    """Optimal square assignment; returns the minimizing column permutation."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise InvalidInputError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise InvalidInputError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[0], dtype=int)
    perm[rows] = cols
    return perm


def accuracy(truth, pred):
    """Fraction of rows agreeing under the best one-to-one label mapping.

    The contingency table is padded to square with zeros so partitions
    with unequal cluster counts remain comparable.
    """
    table = contingency(truth, pred)
    size = max(table.counts.shape)
    padded = np.zeros((size, size))
    padded[:table.counts.shape[0], :table.counts.shape[1]] = table.counts
    perm = hungarian(-padded)
    matched = padded[np.arange(size), perm].sum()
    return float(matched / table.n)


def nmi(truth, pred):
    """Mutual information normalized by the geometric mean of the two
    label entropies (natural log); 0 when either partition has a single
    cluster."""
    table = contingency(truth, pred)
    n = table.n
    counts = table.counts
    mi = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            c = counts[i, j]
            if c > 0:
                mi += (c / n) * np.log(n * c / (table.row_sums[i] * table.col_sums[j]))
    pk = table.row_sums[table.row_sums > 0] / n
    pl = table.col_sums[table.col_sums > 0] / n
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
    table = contingency(truth, pred)
    if table.n < 2:
        raise InvalidInputError("ari needs at least 2 rows")

    def comb2(values):
        values = np.asarray(values, dtype=np.int64)
        return int((values * (values - 1) // 2).sum())

    together = comb2(table.counts.ravel())
    a = comb2(table.row_sums)
    b = comb2(table.col_sums)
    total = table.n * (table.n - 1) // 2
    expected = a * b / total
    maximum = (a + b) / 2.0
    if maximum == expected:
        return 1.0
    return float((together - expected) / (maximum - expected))
