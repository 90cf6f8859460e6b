import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from cempca.data import (FCPS_CLASS_COUNTS, LabeledDataset, gen_chang,
                         gen_fcps, knn_graph, load_csv, save_csv, smooth,
                         standardize)
from cempca.errors import DataError, InvalidInputError, ParseError
from cempca.mixture import kmeans


def test_load_csv_with_label_index(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1,2,a\n3,4,a\n5,6,b\n")
    ds = load_csv(path, label_column=2, has_header=False)
    assert ds.X.shape == (3, 2)
    assert np.array_equal(ds.labels, [0, 0, 1])


def test_load_csv_header_no_label(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,y\n1,2\n3,4\n")
    ds = load_csv(path)
    assert ds.labels is None and ds.n_classes == 0
    assert ds.n == 2


def test_load_csv_label_by_name(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,label\n1,red\n2,blue\n3,red\n")
    ds = load_csv(path, label_column="label")
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert ds.X.shape == (3, 1)



def test_load_csv_takes_a_label_header_as_labels(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,label,y\n1,red,2\n3,blue,4\n5,red,6\n")
    ds = load_csv(path)
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert np.array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # spreadsheet exports start with one; kept, it would hide a leading
    # label header, and the labels would be clustered as a feature
    text = "label,x,y\n1,1,2\n0,3,4\n1,5,6\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(text, encoding="utf-8")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    expected, got = load_csv(plain), load_csv(bom)
    assert np.array_equal(got.X, expected.X) and got.X.shape == (3, 2)
    assert np.array_equal(got.labels, expected.labels)


def test_load_csv_detects_a_header(tmp_path):
    text = tmp_path / "text.csv"
    text.write_text("x,y\n1,2\n3,4\n")
    numeric = tmp_path / "numeric.csv"
    numeric.write_text("1,2\n3,4\n")
    for path in (text, numeric):
        ds = load_csv(path, has_header=None)
        assert np.array_equal(ds.X, [[1, 2], [3, 4]]) and ds.labels is None


def test_load_csv_label_column_digit_string_is_an_index(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1,a,2\n3,b,4\n5,a,6\n")
    ds = load_csv(path, label_column="1", has_header=False)
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert np.array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])

def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    original = LabeledDataset(X=rng.standard_normal((10, 4)),
                              labels=rng.integers(0, 3, 10), name="rt")
    path = tmp_path / "rt.csv"
    save_csv(original, path)
    loaded = load_csv(path, label_column="label")
    assert np.allclose(loaded.X, original.X, atol=1e-12)
    assert np.array_equal(loaded.labels, original.labels)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "absent.csv")


@pytest.mark.parametrize("text, kwargs, error, message", [
    ("", {}, ParseError, "is empty$"),
    ("x,y\n", {}, ParseError, "has a header but no data rows$"),
    ("1,2\n3,4\n", {"label_column": 2, "has_header": False}, InvalidInputError,
     "^label column index 2 out of range$"),
], ids=["empty", "header-only", "label-index-out-of-range"])
def test_load_csv_refusals(tmp_path, text, kwargs, error, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(error, match=message):
        load_csv(path, **kwargs)


def test_load_csv_ragged_row_reports_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, has_header=False)
    assert err.value.row == 2


def test_load_csv_unparseable_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, has_header=False)
    assert err.value.row == 2 and err.value.column == 2


def test_standardize_two_point_column():
    out = standardize(np.array([[1.0], [3.0]]))
    assert np.allclose(out[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_standardize_constant_column():
    out = standardize(np.array([[5.0], [5.0], [5.0]]))
    assert np.allclose(out, 0.0, atol=1e-14)


def test_standardize_moment_oracle():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((20, 3)) * 4.0 + 2.5
    out = standardize(X)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-10)


def test_standardize_needs_two_rows():
    with pytest.raises(InvalidInputError):
        standardize(np.ones((1, 3)))


def test_gen_chang_shape_and_counts():
    ds = gen_chang(1000, seed=0)
    assert ds.X.shape == (1000, 15)
    assert np.array_equal(np.bincount(ds.labels), [500, 500])


def test_gen_chang_defaults_to_its_standard_size():
    # n=None is the 1000 rows that used to be the default value of n
    for seed in (0, 5):
        ds, standard = gen_chang(seed=seed), gen_chang(1000, seed=seed)
        assert ds.X.tobytes() == standard.X.tobytes()
        assert ds.labels.tobytes() == standard.labels.tobytes()


def test_gen_chang_minimal():
    ds = gen_chang(4, seed=0)
    assert ds.X.shape == (4, 15)
    assert np.array_equal(np.bincount(ds.labels), [2, 2])


def test_gen_chang_rejects_odd_or_tiny():
    with pytest.raises(InvalidInputError):
        gen_chang(7)
    with pytest.raises(InvalidInputError):
        gen_chang(2)


def _axis_pair_accuracy(ds, cols):
    # 2-means on a pair of unit-scale principal axes
    Xs = standardize(ds.X)
    Xc = Xs - Xs.mean(axis=0)
    U, _, _ = np.linalg.svd(Xc, full_matrices=False)
    fit = kmeans(U[:, list(cols)], 2, restarts=10, seed=0)
    agree = np.mean(fit.partition.assignments == ds.labels)
    return max(agree, 1.0 - agree)


def test_gen_chang_projection_phenomenon():
    # the leading-component plane misses the classes; a plane through the
    # trailing component separates them
    ds = gen_chang(1000, seed=3)
    acc_leading = _axis_pair_accuracy(ds, (0, 1))
    acc_trailing = _axis_pair_accuracy(ds, (0, 14))
    assert acc_leading < acc_trailing
    assert acc_trailing >= 0.95
    assert acc_leading <= 0.7


@pytest.mark.parametrize("shape,n,g", [("atom", 800, 2), ("chainlink", 1000, 2),
                                       ("hepta", 212, 7), ("lsun3d", 404, 4),
                                       ("tetra", 400, 4)])
def test_gen_fcps_shapes(shape, n, g):
    ds = gen_fcps(shape, n, seed=2)
    assert ds.X.shape == (n, 3)
    assert ds.n_classes == g
    assert FCPS_CLASS_COUNTS[shape] == g


def test_gen_fcps_unknown_shape():
    with pytest.raises(InvalidInputError):
        gen_fcps("torus", 100)


def test_gen_fcps_tetra_centroid_symmetry():
    ds = gen_fcps("tetra", 400, seed=4)
    centroids = np.vstack([ds.X[ds.labels == k].mean(axis=0) for k in range(4)])
    dists = [np.linalg.norm(centroids[i] - centroids[j])
             for i in range(4) for j in range(i + 1, 4)]
    assert max(dists) / min(dists) <= 1.1


@pytest.mark.parametrize("shape", ["hepta", "tetra"])
def test_gen_fcps_nearest_centroid_consistency(shape):
    ds = gen_fcps(shape, seed=7)
    g = ds.n_classes
    centroids = np.vstack([ds.X[ds.labels == k].mean(axis=0) for k in range(g)])
    d2 = ((ds.X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.mean(np.argmin(d2, axis=1) == ds.labels) >= 0.9


def test_generators_deterministic_per_seed():
    for make in (lambda s: gen_chang(100, seed=s),
                 lambda s: gen_fcps("atom", 100, seed=s)):
        a, b, c = make(9), make(np.int64(9)), make(10)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.X, c.X)


@pytest.mark.parametrize("make, message", [
    (lambda: gen_chang(n=10, seed=-1), "seed must be >= 0"),
    (lambda: gen_fcps("tetra", 40, seed=-2), "seed must be >= 0"),
    # a float seed is refused rather than truncated to another seed's data,
    # and a float size is named rather than failing inside numpy
    (lambda: gen_chang(seed=0.9), "seed must be an integer, got 0.9"),
    (lambda: gen_fcps("tetra", seed=2.5), "seed must be an integer, got 2.5"),
    (lambda: gen_chang(n=100.0), "n must be an integer, got 100.0"),
    (lambda: gen_fcps("tetra", n=100.5), "n must be an integer, got 100.5"),
    (lambda: gen_fcps("tetra", seed=True), "seed must be an integer, got True"),
    (lambda: gen_fcps("tetra", n=30), "tetra needs n >= 40, got 30"),
], ids=["chang", "fcps", "chang-float-seed", "fcps-float-seed", "chang-float-n",
        "fcps-float-n", "fcps-bool-seed", "fcps-small-n"])
def test_generators_reject_negative_seed(make, message):
    with pytest.raises(InvalidInputError, match=message):
        make()


def test_knn_graph_collinear_points():
    X = np.array([[0.0], [1.0], [10.0]])
    idx, w = knn_graph(X, 1)
    assert idx.tolist() == [[1], [0], [1]]
    assert w.tolist() == [[1.0], [1.0], [1.0]]


def test_knn_graph_duplicate_points():
    idx, w = knn_graph(np.array([[1.0, 2.0], [1.0, 2.0]]), 1)
    assert idx.tolist() == [[1], [0]] and w.tolist() == [[1.0], [1.0]]


def test_knn_graph_brute_force_oracle():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 2))
    k = 5
    idx, _ = knn_graph(X, k)
    for i in range(30):
        dists = sorted((np.sum((X[i] - X[j]) ** 2), j) for j in range(30) if j != i)
        assert list(idx[i]) == sorted(j for _, j in dists[:k])


def test_knn_graph_rows_sum_to_one():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((25, 3))
    for k in (1, 4, 24):
        idx, w = knn_graph(X, k)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert idx.shape == w.shape == (25, k)


def test_knn_graph_k_out_of_range():
    X = np.zeros((4, 2))
    for k in (0, 4, 2.5, 2.0, True):
        with pytest.raises(InvalidInputError):
            knn_graph(X, k)


def _knn_oracle(X, k):
    """Neighbor lists by brute-force (squared distance, index) order, self excluded."""
    n = X.shape[0]
    return [[j for _, j in sorted((float(np.sum((X[i] - X[j]) ** 2)), j)
                                  for j in range(n) if j != i)[:k]]
            for i in range(n)]


def _assert_matches_oracle(X, k):
    idx, w = knn_graph(X, k)
    for i, expected in enumerate(_knn_oracle(X, k)):
        assert list(idx[i]) == sorted(expected)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


@st.composite
def _grid_cases(draw):
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, 2), min_size=n * d, max_size=n * d))
    return np.array(cells, dtype=float).reshape(n, d), draw(st.integers(1, n - 1))


@settings(max_examples=200, deadline=None)
@given(_grid_cases())
def test_knn_graph_tie_rule_on_integer_grids(case):
    _assert_matches_oracle(*case)


def test_knn_graph_more_copies_than_candidates():
    # nine copies of one point: the tree holds only its k + 1 = 3
    # lowest-index copies
    X = np.vstack([np.zeros((9, 2)), [[5.0, 5.0]]])
    idx, _ = knn_graph(X, 2)
    assert idx[[0, 5, 9]].tolist() == [[1, 2], [0, 1], [0, 1]]
    _assert_matches_oracle(X, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_knn_graph_rejects_non_finite(bad):
    X = np.arange(12, dtype=float).reshape(6, 2)
    X[3, 1] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        knn_graph(X, 2)


@pytest.mark.parametrize("make", [standardize, lambda X: knn_graph(X, 3)],
                         ids=["standardize", "knn_graph"])
def test_data_too_large_to_square_is_rejected_before_any_work(make):
    # the bound is sqrt(max / (4 n d)); an entry at it passes, and one just
    # above it is refused without a RuntimeWarning
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 3))
    bound = math.sqrt(np.finfo(float).max / (4 * X.size))
    X *= 0.5 * bound / np.abs(X).max()
    X[4, 1] = -bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make(X)
        X[4, 1] = np.nextafter(-bound, -np.inf)
        with pytest.raises(InvalidInputError, match="over its 20 rows would overflow float64"):
            make(X)


def test_knn_graph_memory_is_not_quadratic():
    # a dense n x n float64 distance matrix at n = 6000 alone is 288 MB
    X = gen_fcps("chainlink", 6000, seed=11).X
    tracemalloc.start()
    try:
        knn_graph(X, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_knn_graph_many_copies_of_one_point():
    # 3000 copies: widening the tree query until it holds every copy would
    # cost O(m^2) time and memory (about 400 MB here)
    rng = np.random.default_rng(12)
    X = np.vstack([np.zeros((3000, 3)), rng.standard_normal((3000, 3))])
    tracemalloc.start()
    try:
        found, _ = knn_graph(X, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    for start in range(0, len(X), 250):
        # brute force: a stable sort by squared distance breaks ties by index
        d2 = ((X[start:start + 250, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        d2[np.arange(d2.shape[0]), start + np.arange(d2.shape[0])] = np.inf
        expected = np.argsort(d2, axis=1, kind="stable")[:, :15]
        assert np.array_equal(found[start:start + 250], np.sort(expected, axis=1))


def test_knn_graph_tie_with_a_copy_group_matches_oracle():
    # every unit vector is at distance 1 from the 300 copies of the origin
    # and farther from every other unit vector, so its k-th candidate ties
    # with the whole copy group; row 0, at distance 1 from row 301, joins
    # that row's tie at the lowest index
    rng = np.random.default_rng(13)
    U = rng.standard_normal((200, 50))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    X = np.vstack([2.0 * U[:1], np.zeros((300, 50)), U])
    found, _ = knn_graph(X, 15)
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    # a stable sort by squared distance breaks ties by index
    expected = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :15], axis=1)
    assert np.array_equal(found, expected)
    assert 0 in found[301]


def test_knn_graph_copy_groups_match_oracle():
    # -0.0 is a copy of 0.0; a point 1e-200 away is also at distance 0
    # once its square underflows, so it ties with the copies by index
    signed = np.zeros((12, 2))
    signed[::2] = -0.0
    signed[3, 1] = -0.0
    _assert_matches_oracle(np.vstack([signed, [[1.0, 1.0], [-0.0, 0.0]]]), 3)
    near = np.vstack([np.zeros((5, 1)), [[1e-200]], np.zeros((3, 1)), [[1.0]]])
    for k in (2, 7, 8):
        _assert_matches_oracle(near, k)


def _two_copy_groups(size, lone):
    """Copies of -e1 and e1, interleaved, then 2u for unit vectors u orthogonal
    to e1: each 2u is sqrt(5) from both groups."""
    rng = np.random.default_rng(14)
    U = rng.standard_normal((lone, 50))
    U[:, 0] = 0.0
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    e1 = np.eye(50)[0]
    return np.vstack([np.tile([-e1, e1], (size, 1)), 2.0 * U])


@pytest.mark.parametrize("X, k", [
    # a row whose k-th distance ties with two copy groups larger than k + 1
    (_two_copy_groups(6, 4), 3),
    (np.vstack([[[0.0, 2.0]], np.tile([[1.0, 0.0], [-1.0, 0.0]], (5, 1)),
                [[0.0, -2.0]]]), 3),
    # copy groups of size exactly k and k + 1
    (np.vstack([[[0.0, 0.0]] * 3, [[1.0, 0.0]] * 4, [[0.0, 1.0], [2.0, 0.0]]]), 3),
    (np.vstack([[[1.0, 1.0]] * 4, [[0.0, 0.0]] * 5, [[1.0, 0.0], [0.0, 1.0]]]), 4),
    # all rows identical: one distinct point
    (np.ones((6, 2)), 1),
    (np.ones((6, 2)), 5),
], ids=["two-groups-50d", "two-groups-2d", "groups-k-and-k+1", "groups-k-and-k+1-b",
        "identical-k1", "identical-k5"])
def test_knn_graph_copy_group_edges_match_oracle(X, k):
    _assert_matches_oracle(X, k)


def test_knn_graph_tie_with_two_copy_groups():
    # a 2u row's k-th distance ties with both copy groups, 3000 rows in all;
    # widening its tree query past both would cost O(m^2) (about 114 MB here)
    X = _two_copy_groups(1500, 1000)
    tracemalloc.start()
    try:
        found, _ = knn_graph(X, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    # brute force from rows 0, 1 and 3000 on: a copy's distances are its group's
    distinct = np.r_[0, 1, 3000:4000]
    d2 = np.vstack([((X[distinct[s:s + 20], None, :] - X[None, :, :]) ** 2).sum(axis=2)
                    for s in range(0, distinct.size, 20)])
    point = np.r_[np.tile([0, 1], 1500), 2:1002]
    for start in range(0, len(X), 250):
        block = d2[point[start:start + 250]]
        block[np.arange(block.shape[0]), start + np.arange(block.shape[0])] = np.inf
        # a stable sort by squared distance breaks ties by index
        expected = np.argsort(block, axis=1, kind="stable")[:, :15]
        assert np.array_equal(found[start:start + 250], np.sort(expected, axis=1))
    # the ties take the lowest-index members of both groups
    assert np.isin([0, 1], found[3000:]).all()


def test_smooth_zero_power_is_identity():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((12, 3))
    graph = knn_graph(X, 3)
    assert np.array_equal(smooth(X, graph, 0), X)


def test_smooth_permutation_graph_swaps_rows():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    graph = knn_graph(X, 1)
    assert np.allclose(smooth(X, graph, 1), X[::-1], atol=1e-14)


def test_smooth_composition_oracle():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((15, 4))
    graph = knn_graph(X, 4)
    twice = smooth(smooth(X, graph, 1), graph, 1)
    assert np.allclose(smooth(X, graph, 2), twice, atol=1e-12)
    assert smooth(X, graph, 3).shape == X.shape


@pytest.mark.parametrize("shape, n, m", [("atom", None, 2), ("hepta", None, 2),
                                         ("lsun3d", None, 3), ("chainlink", 2000, 2)])
def test_smooth_matches_the_sparse_product_bit_for_bit(shape, n, m):
    # scipy's CSR product sums each row's terms from zero in ascending
    # column order, as smooth does
    X = standardize(gen_fcps(shape, n, seed=11).X)
    idx, w = graph = knn_graph(X, 15)
    rows = np.repeat(np.arange(len(X)), 15)
    W = scipy.sparse.csr_matrix((w.ravel(), (rows, idx.ravel())), shape=(len(X), len(X)))
    expected = X
    for _ in range(m):
        expected = W @ expected
    assert smooth(X, graph, m).tobytes() == expected.tobytes()


def test_smooth_dimension_mismatch():
    X = np.zeros((5, 2))
    graph = knn_graph(X + np.arange(5)[:, None], 2)
    with pytest.raises(InvalidInputError):
        smooth(np.zeros((4, 2)), graph, 1)
    for m in (-1, 1.5, True):
        with pytest.raises(InvalidInputError, match="smoothing power"):
            smooth(X, graph, m)
