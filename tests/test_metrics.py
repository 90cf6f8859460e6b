import itertools

import numpy as np
import pytest

from cempca.errors import InvalidInputError
from cempca.metrics import accuracy, ari, contingency, nmi
from cempca.mixture import Partition


def test_contingency_identical():
    counts = contingency([0, 0, 1, 1], [0, 0, 1, 1])
    assert np.array_equal(counts, [[2, 0], [0, 2]])
    assert counts.dtype == np.int64 and counts.sum() == 4


def test_contingency_constant_prediction():
    counts = contingency([0, 0, 1, 1, 1], [0, 0, 0, 0, 0])
    assert np.array_equal(counts, [[2], [3]])
    assert np.array_equal(counts.sum(axis=1), [2, 3])


def test_contingency_loop_oracle():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 3, 50)
    p = rng.integers(0, 4, 50)
    t[:3] = [0, 1, 2]
    p[:4] = [0, 1, 2, 3]
    counts = contingency(t, p)
    for i in range(3):
        for j in range(4):
            assert counts[i, j] == sum(
                1 for a, b in zip(t, p) if a == i and b == j)


def test_contingency_length_mismatch():
    with pytest.raises(InvalidInputError):
        contingency([0, 1], [0, 1, 1])


def test_accuracy_relabeled_perfect():
    truth = np.array([0, 1, 2, 0, 1, 2])
    pred = np.array([2, 0, 1, 2, 0, 1])
    assert accuracy(truth, pred) == 1.0


def test_accuracy_half():
    assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5


def test_accuracy_of_partitions():
    truth = Partition(assignments=np.array([0, 0, 1, 1]), g=2)
    # a Partition's g sizes the table, so an unused label still counts
    pred = Partition(assignments=np.array([1, 1, 0, 0]), g=3)
    assert accuracy(truth, pred) == 1.0
    assert contingency(truth, pred).shape == (2, 3)


def test_contingency_rejects_a_partition_label_outside_its_g():
    # such a label would fall into another cell of the table
    for labels in ([2, 0, 1], [-1, 0, 1]):
        with pytest.raises(InvalidInputError, match=r"must be in \[0, 2\)"):
            contingency([0, 1, 1], Partition(assignments=np.array(labels), g=2))


def test_accuracy_rectangular_padding():
    # more predicted clusters than true classes
    assert np.isclose(accuracy([0, 0, 1, 1], [0, 1, 2, 2]), 0.75)


def test_accuracy_needs_a_row():
    # 0 / 0 agreeing rows would be nan, with a numpy warning
    with pytest.raises(InvalidInputError, match="at least 1 row"):
        accuracy([], [])


def test_nmi_needs_a_row():
    # with no rows there is no partition to score; 0.0 would read as one
    with pytest.raises(InvalidInputError, match="nmi needs at least 1 row"):
        nmi([], [])


def test_nmi_identical():
    assert np.isclose(nmi([0, 0, 1, 1], [0, 0, 1, 1]), 1.0, atol=1e-12)


def test_nmi_independent():
    assert np.isclose(nmi([0, 0, 1, 1], [0, 1, 0, 1]), 0.0, atol=1e-12)


def test_nmi_single_cluster_is_zero():
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [0, 0, 0]) == 0.0


def _entropy_nmi(truth, pred):
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    n = len(truth)

    def entropy(labels):
        counts = np.bincount(labels)
        probs = counts[counts > 0] / n
        return float(-(probs * np.log(probs)).sum())

    hu, hv = entropy(truth), entropy(pred)
    joint = {}
    for a, b in zip(truth, pred):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    hj = -sum((c / n) * np.log(c / n) for c in joint.values())
    mi = hu + hv - hj
    if hu <= 0 or hv <= 0:
        return 0.0
    return mi / np.sqrt(hu * hv)


def test_nmi_entropy_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        t = rng.integers(0, 3, 30)
        p = rng.integers(0, 3, 30)
        assert np.isclose(nmi(t, p), _entropy_nmi(t, p), atol=1e-12)


def _pair_count_ari(truth, pred):
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    n = len(truth)
    together = same_t = same_p = 0
    for i in range(n):
        for j in range(i + 1, n):
            st = truth[i] == truth[j]
            sp = pred[i] == pred[j]
            same_t += st
            same_p += sp
            together += st and sp
    total = n * (n - 1) // 2
    expected = same_t * same_p / total
    maximum = (same_t + same_p) / 2
    if maximum == expected:
        return 1.0
    return (together - expected) / (maximum - expected)


def test_ari_identical():
    assert ari([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0


def test_ari_constant_prediction_zero():
    assert np.isclose(ari([0, 0, 1, 1], [0, 0, 0, 0]), 0.0, atol=1e-12)


def test_ari_pair_enumeration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        t = rng.integers(0, 3, 20)
        p = rng.integers(0, 3, 20)
        assert np.isclose(ari(t, p), _pair_count_ari(t, p), atol=1e-12)


def test_ari_degenerate_cases():
    assert ari([0, 0, 0], [0, 0, 0]) == 1.0
    assert ari([0, 1, 2], [0, 1, 2]) == 1.0
    with pytest.raises(InvalidInputError):
        ari([0], [0])


def test_metrics_relabel_invariance():
    rng = np.random.default_rng(4)
    t = rng.integers(0, 3, 40)
    p = rng.integers(0, 3, 40)
    t[:3] = [0, 1, 2]
    p[:3] = [0, 1, 2]
    remap = np.array([2, 0, 1])
    for fn in (accuracy, nmi, ari):
        assert np.isclose(fn(t, p), fn(remap[t], p), atol=1e-12)
        assert np.isclose(fn(t, p), fn(t, remap[p]), atol=1e-12)


def test_metrics_symmetry():
    rng = np.random.default_rng(5)
    t = rng.integers(0, 3, 30)
    p = rng.integers(0, 3, 30)
    t[:3] = [0, 1, 2]
    p[:3] = [0, 1, 2]
    assert np.isclose(nmi(t, p), nmi(p, t), atol=1e-12)
    assert np.isclose(ari(t, p), ari(p, t), atol=1e-12)
    assert np.isclose(accuracy(t, p), accuracy(p, t), atol=1e-12)


def test_metrics_perfect_self_agreement():
    rng = np.random.default_rng(6)
    t = rng.integers(0, 3, 25)
    t[:3] = [0, 1, 2]
    assert accuracy(t, t) == 1.0
    assert np.isclose(nmi(t, t), 1.0, atol=1e-12)
    assert ari(t, t) == 1.0


def _brute_force_accuracy(truth, pred):
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    g = max(truth.max(), pred.max()) + 1
    best = 0.0
    for pi in itertools.permutations(range(g)):
        mapped = np.array([pi[v] for v in pred])
        best = max(best, float(np.mean(mapped == truth)))
    return best


def test_accuracy_brute_force_small():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        t = rng.integers(0, 3, n)
        p = rng.integers(0, 3, n)
        assert np.isclose(accuracy(t, p), _brute_force_accuracy(t, p),
                          atol=1e-12)


@pytest.mark.parametrize("metric", [nmi, ari, accuracy])
def test_metrics_reject_negative_labels(metric):
    # a negative label would index the contingency table from its end
    with pytest.raises(InvalidInputError, match="labels must be >= 0"):
        metric([0, 0, 1, 1], [-1, -1, 0, 0])
    with pytest.raises(InvalidInputError, match="labels must be >= 0"):
        metric([-1, -1, 0, 0], [0, 0, 1, 1])
