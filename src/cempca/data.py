"""Dataset ingestion, standardization, synthetic generators, and graph smoothing."""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, InvalidInputError, ParseError
from .mixture import _check_entries, _check_ints, _check_matrix, _check_seed, _is_int

FCPS_SHAPES = ("atom", "chainlink", "hepta", "lsun3d", "tetra")
FCPS_CLASS_COUNTS = {"atom": 2, "chainlink": 2, "hepta": 7, "lsun3d": 4, "tetra": 4}
FCPS_DEFAULT_SIZES = {"atom": 800, "chainlink": 1000, "hepta": 212, "lsun3d": 404, "tetra": 400}

# seed-stream tags so different generators never share a random stream
_GEN_TAGS = {"chang": 0, "atom": 1, "chainlink": 2, "hepta": 3, "lsun3d": 4, "tetra": 5}


@dataclass
class LabeledDataset:
    """A numeric data matrix with optional integer class labels."""

    X: np.ndarray
    labels: Optional[np.ndarray]
    name: str = ""

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    @property
    def n_classes(self):
        if self.labels is None or self.labels.size == 0:
            return 0
        return int(self.labels.max()) + 1


def load_csv(path, label_column=None, has_header=True):
    """Load a numeric CSV dataset; this is the one CSV reader.

    With no label_column, a column headed `label` holds the labels.
    label_column names another column, by header name or by zero-based
    index (an int or a string of digits). The label column is removed from
    the features and encoded by _encode_labels. has_header=None takes the
    first row as a header when any of its cells is not a number. A leading
    UTF-8 byte-order mark, as spreadsheet exports write, is dropped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            raw = [r for r in csv.reader(fh) if r]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not raw:
        raise ParseError(f"{path} is empty")

    if has_header is None:
        has_header = not all(_is_number(c) for c in raw[0])
    header = None
    offset = 1
    if has_header:
        header = [c.strip() for c in raw[0]]
        raw = raw[1:]
        offset = 2
        if not raw:
            raise ParseError(f"{path} has a header but no data rows")
        if label_column is None and "label" in header:
            label_column = "label"
    if isinstance(label_column, str) and label_column.lstrip("-").isdigit():
        label_column = int(label_column)

    ncol = len(raw[0])
    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise InvalidInputError("label column by name requires a header")
            if label_column not in header:
                raise InvalidInputError(f"no column named {label_column!r} in header")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < ncol:
                raise InvalidInputError(f"label column index {label_idx} out of range")

    features = []
    label_values = []
    for i, row in enumerate(raw):
        if len(row) != ncol:
            raise ParseError(f"ragged row: expected {ncol} cells, got {len(row)}",
                             row=i + offset, column=len(row) + 1)
        vals = []
        for j, cell in enumerate(row):
            if j == label_idx:
                label_values.append(cell.strip())
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise ParseError(f"cannot parse {cell.strip()!r} as a number",
                                 row=i + offset, column=j + 1) from None
        features.append(vals)

    X = np.asarray(features, dtype=float)
    labels = None
    if label_idx is not None:
        labels = _encode_labels(label_values)
    return LabeledDataset(X=X, labels=labels, name=str(path))


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _encode_labels(values):
    # canonical 0..K-1 integer labels pass through; anything else is
    # re-encoded in order of first appearance
    try:
        ints = [int(v) for v in values]
    except ValueError:
        ints = None
    if ints is not None and set(ints) == set(range(max(ints) + 1)) and min(ints) >= 0:
        return np.asarray(ints, dtype=int)
    seen = {}
    return np.asarray([seen.setdefault(v, len(seen)) for v in values], dtype=int)


def save_csv(dataset, path):
    """Write a dataset as CSV with an x0..x{d-1} header and a trailing label column."""
    cols = [f"x{j}" for j in range(dataset.d)]
    if dataset.labels is not None:
        cols.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.X[i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def standardize(X):
    """Center each column and scale to unit sample variance (ddof=1).

    Zero-variance columns are centered but left unscaled. A NaN or
    infinite cell, or one too large to square, would make its column's
    deviation non-finite, so it is rejected (mixture._check_entries).
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise InvalidInputError("standardize needs at least 2 rows")
    _check_entries(X)
    mu = X.mean(axis=0)
    sd = X.std(axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    return (X - mu) / sd


def _split_counts(n, g):
    counts = [n // g] * g
    for i in range(n - sum(counts)):
        counts[i] += 1
    return counts


def _chang_covariance():
    # Two strongly correlated variable blocks (1-8 and 9-15) with weak
    # cross-block ties. One within-block contrast direction is squeezed
    # far below the 0.1 eigenvalue shared by all other contrasts, so the
    # class offset placed along it stays in the last principal component
    # of the mixed data (0.004 * (1 + 9) = 0.04 < 0.1).
    C = np.full((15, 15), 0.1)
    C[:8, :8] = 0.9
    C[8:, 8:] = 0.9
    np.fill_diagonal(C, 1.0)
    v = np.zeros(15)
    v[0], v[1] = 1.0, -1.0
    v /= np.sqrt(2.0)
    lam_v = 0.004
    return C - (0.1 - lam_v) * np.outer(v, v), v, lam_v


def _generator_rng(name, seed):
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence((_GEN_TAGS[name], int(seed))))


def gen_chang(n=None, seed=0):
    """Two 15-dimensional Gaussian classes whose separation hides in a
    trailing principal component; n=None means the standard 1000 rows.

    The leading two components carry block variance only; the class mean
    offset lies along the within-class direction of smallest variance
    (6 sigma apart), so a plane through the last component separates the
    classes while the leading-component plane does not.
    """
    n = 1000 if n is None else n
    _check_ints(n=n)
    if n % 2 != 0 or n < 4:
        raise InvalidInputError("n must be even and >= 4")
    cov, v, lam_v = _chang_covariance()
    rng = _generator_rng("chang", seed)
    L = np.linalg.cholesky(cov)
    X = rng.standard_normal((n, 15)) @ L.T
    offset = 3.0 * np.sqrt(lam_v) * v
    m = n // 2
    X[:m] -= offset
    X[m:] += offset
    labels = np.repeat([0, 1], m)
    return LabeledDataset(X=X, labels=labels, name="chang")


def _gen_atom(rng, counts):
    core = rng.standard_normal((counts[0], 3)) * 0.1
    u = rng.standard_normal((counts[1], 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    shell = u * (1.0 + 0.02 * rng.standard_normal((counts[1], 1)))
    return np.vstack([core, shell])


def _gen_chainlink(rng, counts):
    # two interlocked rings of radius 1 in perpendicular planes, centers
    # one radius apart; closest approach between the circles is 1.0
    t1 = rng.uniform(0.0, 2.0 * np.pi, counts[0])
    t2 = rng.uniform(0.0, 2.0 * np.pi, counts[1])
    ring1 = np.stack([np.cos(t1), np.sin(t1), np.zeros_like(t1)], axis=1)
    ring2 = np.stack([1.0 + np.cos(t2), np.zeros_like(t2), np.sin(t2)], axis=1)
    ring1 += rng.standard_normal(ring1.shape) * 0.05
    ring2 += rng.standard_normal(ring2.shape) * 0.05
    return np.vstack([ring1, ring2])


def _gen_hepta(rng, counts):
    centers = np.vstack([[0.0, 0.0, 0.0], 3.0 * np.eye(3), -3.0 * np.eye(3)])
    return np.vstack([centers[k] + rng.standard_normal((counts[k], 3)) * 0.3
                      for k in range(7)])


def _gen_lsun3d(rng, counts):
    bar_x = np.stack([rng.uniform(0.0, 3.0, counts[0]),
                      rng.normal(0.0, 0.1, counts[0]),
                      rng.normal(0.0, 0.1, counts[0])], axis=1)
    bar_y = np.stack([rng.normal(0.0, 0.1, counts[1]),
                      rng.uniform(1.0, 4.0, counts[1]),
                      rng.normal(0.0, 0.1, counts[1])], axis=1)
    ball_a = np.array([4.0, 4.0, 0.0]) + rng.standard_normal((counts[2], 3)) * 0.25
    ball_b = np.array([4.0, 4.0, 2.5]) + rng.standard_normal((counts[3], 3)) * 0.25
    return np.vstack([bar_x, bar_y, ball_a, ball_b])


def _gen_tetra(rng, counts):
    vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                        dtype=float) / np.sqrt(3.0)
    return np.vstack([vertices[k] + rng.standard_normal((counts[k], 3)) * 0.22
                      for k in range(4)])


_FCPS_BUILDERS = {
    "atom": _gen_atom,
    "chainlink": _gen_chainlink,
    "hepta": _gen_hepta,
    "lsun3d": _gen_lsun3d,
    "tetra": _gen_tetra,
}


def gen_fcps(shape, n=None, seed=0):
    """Generate a 3-d benchmark point cloud of the named topology.

    atom: dense ball inside a hollow sphere shell; chainlink: two
    interlocked rings; hepta: seven well-separated blobs; lsun3d: two
    perpendicular bars plus two balls; tetra: four tangent blobs at
    tetrahedron vertices.
    """
    if shape not in _FCPS_BUILDERS:
        raise InvalidInputError(f"unknown shape {shape!r}; choose from {FCPS_SHAPES}")
    g = FCPS_CLASS_COUNTS[shape]
    if n is None:
        n = FCPS_DEFAULT_SIZES[shape]
    _check_ints(n=n)
    if n < 10 * g:
        raise InvalidInputError(f"{shape} needs n >= {10 * g}, got {n}")
    counts = _split_counts(n, g)
    rng = _generator_rng(shape, seed)
    X = _FCPS_BUILDERS[shape](rng, counts)
    labels = np.repeat(np.arange(g), counts)
    return LabeledDataset(X=X, labels=labels, name=shape)


def knn_graph(X, k):
    """Directed k-nearest-neighbor graph with Gaussian kernel weights, as
    the (n, k) arrays (idx, w) that smooth takes, each row in index order.

    w[i, j] = exp(-||x_i - x_idx[i, j]||^2) over the k nearest neighbors of
    i, scaled to sum to one across the row. A row-constant kernel shift
    keeps exp in range and cancels in the normalization.

    Neighbors are the first k points j != i by (distance, index), so ties
    go to the lowest index. They come from one k-d tree over each distinct
    point's first k + 1 rows (+ 0.0 makes -0.0 a copy of 0.0), since no row
    needs more of another point's copies: _group_neighbors gives each
    distinct point its first k + 1 rows by (distance, index), and a row
    takes its point's list without itself, or the first k of it when it is
    not in the list. Time is O(n log n) for low-dimensional X and memory is
    O(n k), however many copies a point has; no n x n array is formed.
    An X with a non-finite entry or one too large to square, an X that is
    not 2-D with a column, and a k that is not an integer are rejected.
    """
    X = np.asarray(X, dtype=float)
    _check_matrix(X)
    n = X.shape[0]
    if not _is_int(k) or not 1 <= k <= n - 1:
        raise InvalidInputError(f"k must be an integer in [1, {n - 1}], got {k!r}")
    _check_entries(X)
    uniq, group, size = np.unique(X + 0.0, axis=0, return_inverse=True,
                                  return_counts=True)
    group = group.ravel()
    near, near_d = _group_neighbors(uniq, group, size, k)
    near, near_d = near[group], near_d[group]
    keep = near != np.arange(n)[:, None]
    keep[keep.all(axis=1), k] = False
    idx = near[keep].reshape(n, k)
    dist = near_d[keep].reshape(n, k)
    del near, near_d, keep
    d2 = dist * dist
    w = np.exp(-(d2 - d2.min(axis=1, keepdims=True)))
    w /= w.sum(axis=1, keepdims=True)
    order = np.argsort(idx, axis=1)
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(w, order, axis=1)


def _group_neighbors(uniq, group, size, k):
    """First k + 1 rows by (distance, index) from each distinct point.

    uniq holds the distinct points, group maps each row to its point and
    size counts its rows. The tree holds each point's k + 1 lowest-index
    rows. Each point asks it for q rows, q = k + 2 at first. A point is
    done once its (k + 1)-th kept distance is below the farthest one
    returned, since every row not returned is at least that far, or once
    every row was returned; the rest ask again for twice as many. Returns
    the (m, k + 1) row indices and their distances.
    """
    from scipy.spatial import cKDTree   # imported here: most fits build no graph
    m = uniq.shape[0]
    # each row's rank among its point's rows, taken in index order
    members = np.argsort(group, kind="stable")
    rank = np.arange(group.size) - np.repeat(np.cumsum(size) - size, size)
    rows = members[rank <= k]
    tree = cKDTree(uniq[group[rows]])
    near = np.empty((m, k + 1), dtype=np.intp)
    near_d = np.empty((m, k + 1))
    todo = np.arange(m)
    q = min(k + 2, rows.size)
    while todo.size:
        d, j = tree.query(uniq[todo], q)
        d, j = d.reshape(todo.size, q), rows[j].reshape(todo.size, q)
        order = np.lexsort((j, d))[:, :k + 1]
        near[todo] = np.take_along_axis(j, order, axis=1)
        near_d[todo] = kept_d = np.take_along_axis(d, order, axis=1)
        todo = todo[(kept_d[:, -1] >= d[:, -1]) & (q < rows.size)]
        q = min(2 * q, rows.size)
    return near, near_d


def smooth(X, graph, m):
    """Neighborhood averaging with the knn_graph arrays (idx, w) applied m
    times: returns W^m X, each row's k terms summed from zero in ascending
    neighbor order, as a sparse row-times-matrix product sums them."""
    X = np.asarray(X, dtype=float)
    if not _is_int(m) or m < 0:
        raise InvalidInputError(f"smoothing power must be an integer >= 0, got {m!r}")
    idx, w = graph
    if idx.shape[0] != X.shape[0]:
        raise InvalidInputError(f"graph has {idx.shape[0]} rows but X has {X.shape[0]}")
    out = X.copy()
    for _ in range(m):
        out = sum(w[:, j, None] * out[idx[:, j]] for j in range(idx.shape[1]))
    return out
