import time

import numpy as np
import pytest

from cempca import baselines
from cempca.baselines import kmeans_pca, reduced_kmeans
from cempca.data import gen_chang, gen_fcps, standardize
from cempca.errors import InvalidInputError
from cempca.metrics import accuracy, ari, nmi
from cempca.mixture import kmeans


def test_kmeans_pca_full_dimension_matches_plain_kmeans():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.standard_normal((30, 4)) + c
                   for c in (0.0, 8.0, 16.0)])
    X -= X.mean(axis=0)
    full = kmeans_pca(X, 3, 4, restarts=5, seed=3)
    plain = kmeans(X, 3, restarts=5, seed=3)
    assert np.array_equal(full.partition.assignments,
                          plain.partition.assignments)
    assert ari(full.partition.assignments, plain.partition.assignments) == 1.0


def test_kmeans_pca_chang_leading_plane_misses_classes():
    ds = gen_chang(1000, seed=1)
    fit = kmeans_pca(standardize(ds.X), 2, 2, restarts=10, seed=0)
    acc = accuracy(ds.labels, fit.partition.assignments)
    assert acc <= 0.85


def test_kmeans_pca_hepta():
    ds = gen_fcps("hepta", 212, seed=5)
    fit = kmeans_pca(standardize(ds.X), 7, 3, restarts=10, seed=0)
    assert nmi(ds.labels, fit.partition.assignments) >= 0.95


def test_kmeans_pca_returns_bundle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 5))
    fit = kmeans_pca(X, 2, 3, restarts=2, seed=0)
    assert fit.bundle.B.shape == (20, 3)
    assert fit.bundle.Q.shape == (5, 3)
    assert np.allclose(fit.bundle.B.T @ fit.bundle.B, np.eye(3), atol=1e-10)


def test_kmeans_pca_wall_time_includes_the_pca(monkeypatch):
    axes = baselines._principal_axes

    def slow_axes(X, p):
        time.sleep(0.05)
        return axes(X, p)

    monkeypatch.setattr(baselines, "_principal_axes", slow_axes)
    X = np.random.default_rng(2).standard_normal((20, 5))
    assert kmeans_pca(X, 2, 3, restarts=1, seed=0).wall_time >= 0.05


def test_kmeans_pca_takes_p_by_keyword():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 5))
    fit = kmeans_pca(X, 2, p=3, restarts=2, seed=0)
    assert fit.bundle.B.shape == (20, 3)
    with pytest.raises(InvalidInputError, match=r"^p must be in \[1, 5\], got 6$"):
        kmeans_pca(X, 2, p=6)


@pytest.mark.parametrize("fit", [kmeans_pca, reduced_kmeans])
def test_baselines_default_p_is_min_of_10_and_d(fit):
    for X in (standardize(gen_chang(200, seed=1).X), gen_fcps("tetra", 80, seed=1).X):
        g = 2
        default = fit(X, g, restarts=3, seed=4)
        explicit = fit(X, g, min(10, X.shape[1]), restarts=3, seed=4)
        assert default.bundle.B.shape[1] == min(10, X.shape[1])
        assert np.array_equal(default.partition.assignments,
                              explicit.partition.assignments)
        assert default.objective_trace == explicit.objective_trace


def test_kmeans_pca_rejects_large_p():
    with pytest.raises(InvalidInputError):
        kmeans_pca(np.zeros((6, 3)), 2, 5)


def _planted_instance(rng, n=40, g=3, p=2, d=6):
    Z = rng.integers(0, g, n)
    Z[:g] = np.arange(g)
    S = rng.standard_normal((g, p)) * 5.0
    Q, _ = np.linalg.qr(rng.standard_normal((d, p)))
    return S[Z] @ Q.T, Z


def test_reduced_kmeans_planted_factorization():
    rng = np.random.default_rng(3)
    X, truth = _planted_instance(rng)
    fit = reduced_kmeans(X, 3, 2, restarts=5, seed=0)
    assert fit.objective_trace[-1] <= 1e-8
    assert ari(truth, fit.partition.assignments) == 1.0


def test_reduced_kmeans_full_dimension_matches_plain_kmeans():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.standard_normal((25, 3)) + c for c in (0.0, 9.0)])
    X -= X.mean(axis=0)
    fit = reduced_kmeans(X, 2, 3, restarts=4, seed=7)
    plain = kmeans(X, 2, restarts=4, seed=7)
    assert ari(fit.partition.assignments, plain.partition.assignments) == 1.0


def test_reduced_kmeans_objective_monotone():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 5))
    fit = reduced_kmeans(X, 3, 2, restarts=3, seed=1)
    tr = fit.objective_trace
    assert all(tr[i + 1] <= tr[i] + 1e-8 for i in range(len(tr) - 1))


def test_reduced_kmeans_brute_force_small_instance():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 3))
    fit = reduced_kmeans(X, 2, 1, restarts=40, seed=0)

    def best_objective_for_partition(mask):
        best = np.inf
        Z = mask.astype(int)
        # alternate S, Q to optimality for this fixed partition
        Q = np.linalg.svd(X - X.mean(axis=0))[2][:1].T
        for _ in range(200):
            sc = X @ Q
            S = np.vstack([sc[Z == k].mean(axis=0) for k in range(2)])
            G = X.T @ S[Z]
            U, _, Vt = np.linalg.svd(G, full_matrices=False)
            Q = U @ Vt
            obj = np.linalg.norm(X - S[Z] @ Q.T) ** 2
            if np.isclose(obj, best, atol=1e-12):
                break
            best = min(best, obj)
        return best

    brute = min(best_objective_for_partition(
        np.array([(m >> i) & 1 for i in range(10)], dtype=bool))
        for m in range(1, 2 ** 10 - 1)
        if 0 < bin(m).count("1") < 10)
    assert fit.objective_trace[-1] <= brute + 1e-6


def test_reduced_kmeans_identity_at_each_iterate():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 5))
    fit = reduced_kmeans(X, 3, 2, restarts=2, seed=2)
    assert fit.step_trace
    for entry in fit.step_trace:
        Q, S, assign = entry["Q"], entry["S"], entry["assignments"]
        lhs = np.linalg.norm(X - S[assign] @ Q.T) ** 2
        rhs = (np.linalg.norm(X - X @ Q @ Q.T) ** 2
               + np.linalg.norm(X @ Q - S[assign]) ** 2)
        assert abs(lhs - rhs) <= 1e-8
