"""Sequential and joint reference methods: K-means on principal components,
and the clustered low-rank factorization baseline."""

import operator
import time
from dataclasses import replace

import numpy as np

from . import mixture
from .cempca import EmbeddingBundle, _principal_axes
from .linalg import fix_signs, polar
from .mixture import FitResult, Partition


def kmeans_pca(X, g, p=None, restarts=20, seed=0, max_iter=100, tol=1e-6):
    """K-means on the leading p principal-component scores (singular-value
    weighted); p=None means min(10, d)."""
    Xc, B, s, _ = _principal_axes(X, p)
    scores = B * s
    km = mixture.kmeans(scores, g, max_iter=max_iter, tol=tol,
                        restarts=restarts, seed=seed)
    bundle = EmbeddingBundle(B=B, Q=Xc.T @ B, M=scores)
    return replace(km, bundle=bundle)


def reduced_kmeans(X, g, p=None, restarts=20, seed=0, max_iter=100, tol=1e-6):
    """Alternating fit of the clustered factorization || X - Z S Q^T ||^2.

    Given the partition and centroids, Q is the polar factor of X^T (Z S);
    given Q, warm-started Lloyd rounds on the scores X Q refit Z and S.
    Both half-steps minimize their block, so the objective never increases.
    Q starts at the leading p principal axes, p=None meaning min(10, d).
    Best of `restarts` runs by final objective. step_trace holds one
    {"Q", "S", "assignments"} entry per iteration.
    """
    X = np.asarray(X, dtype=float)
    mixture._check_fit_args(X, g, tol)
    start = time.perf_counter()
    _, _, _, Q0 = _principal_axes(X, p)
    scores0 = X @ Q0

    def fit_one(r):
        # seed exactly like kmeans restart r so the p = d case reproduces
        # the plain K-means partition for equal seeds
        centers = mixture._seed_centers(scores0, g, mixture.restart_rng(seed, r))
        assign, S, _, _ = mixture.lloyd(scores0, centers, max_iter=max_iter, tol=tol)
        Q = Q0
        trace = [_rkm_objective(X, assign, S, Q)]
        history = []
        iterations = 0
        for _ in range(max_iter):
            iterations += 1
            Q, _ = polar(X.T @ S[assign])
            scores = X @ Q
            centers = np.vstack([scores[assign == k].mean(axis=0) for k in range(g)])
            assign, S, _, _ = mixture.lloyd(scores, centers, max_iter=max_iter, tol=tol)
            trace.append(_rkm_objective(X, assign, S, Q))
            history.append({"Q": Q, "S": S, "assignments": assign})
            if mixture._converged(trace[-2], trace[-1], tol):
                break
        part = Partition(assignments=assign, g=g)
        return FitResult(partition=part, params=None, objective_trace=trace,
                         iterations=iterations, seed=int(seed),
                         bundle=_rkm_bundle(X, Q, part, S), step_trace=history)

    return mixture.best_of_restarts(fit_one, restarts, operator.lt, start)


def _rkm_objective(X, assign, S, Q):
    resid = X - S[assign] @ Q.T
    return float(np.sum(resid * resid))


def _rkm_bundle(X, Q, partition, S):
    B, _ = np.linalg.qr(X @ Q)
    B = fix_signs(B)
    return EmbeddingBundle(B=B, Q=Q, M=S[partition.assignments])
