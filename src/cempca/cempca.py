"""Joint clustering and embedding by alternating minimization.

The objective couples a low-rank reconstruction term, an orthonormal
embedding B tied to a clustered representation M, and the complete-data
log-likelihood of M under a Gaussian mixture:

    || X - B Q^T ||^2  +  delta || B - M ||^2  -  sum_ik z_ik log(pi_k phi(m_i | s_k, Sigma_k))

Each sweep updates M row-wise in closed form, refines the partition and
mixture parameters with hard-assignment EM on M, recomputes B as the polar
factor of X Q + delta M, and sets Q = X^T B.
"""

import math
import operator
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import mixture
from .data import knn_graph, smooth, standardize
from .errors import DegenerateUpdateError, InvalidInputError, SettingError
from .linalg import polar, spd_solve, thin_svd
from .mixture import FitResult, Partition


@dataclass
class EmbeddingBundle:
    """Orthonormal embedding B, loadings Q, and clustered representation M."""

    B: np.ndarray                # (n, p), B^T B = I
    Q: np.ndarray                # (d, p)
    M: np.ndarray                # (n, p)


@dataclass
class CempcaConfig:
    """Settings for the joint fit.

    p defaults to min(10, d) when left unset. neighbors and smoothing
    control the nearest-neighbor graph used to replace X by W^m X before
    fitting; smoothing=0 skips the graph entirely. max_iter caps the outer
    sweeps; max_iter=0 keeps the mixture fitted on the principal embedding.
    """

    g: int
    p: Optional[int] = None
    delta: float = 1e-6
    neighbors: int = 15
    smoothing: int = 2
    restarts: int = 20
    max_iter: int = 40
    tol: float = 1e-6
    model: str = "full"
    standardize: bool = True


def _principal_axes(X, p):
    """(Xc, U, s, V): column-centered X and its thin SVD cut to p columns.

    p=None means min(10, d); otherwise 1 <= p <= min(n - 1, d).
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if p is None:
        p = min(10, d)
    if not 1 <= p <= min(n - 1, d):
        raise SettingError("p", f"must be in [1, {min(n - 1, d)}], got {p}")
    Xc = X - X.mean(axis=0)
    U, s, V = thin_svd(Xc)
    return Xc, U[:, :p], s[:p], V[:, :p]


def pca_embed(X, p=None):
    """Leading-p principal embedding of the column-centered data.

    Returns (B, Q): B holds the first p left singular vectors (orthonormal,
    deterministic signs) and Q = Xc^T B the matching loadings. p=None means
    min(10, d).
    """
    Xc, B, _, _ = _principal_axes(X, p)
    return B, Xc.T @ B


def update_Q(X, B):
    """Loadings update: the unconstrained minimizer Q = X^T B."""
    X = np.asarray(X, dtype=float)
    B = np.asarray(B, dtype=float)
    if X.shape[0] != B.shape[0]:
        raise InvalidInputError(
            f"X has {X.shape[0]} rows but B has {B.shape[0]}")
    return X.T @ B


def update_B(X, Q, M, delta):
    """Orthonormal embedding update: the polar factor of X Q + delta M.

    With U D V^T the thin SVD of that matrix, B = U V^T maximizes
    Tr((X Q + delta M) B^T) over orthonormal-column B.
    """
    X = np.asarray(X, dtype=float)
    Q = np.asarray(Q, dtype=float)
    M = np.asarray(M, dtype=float)
    B, s = polar(X @ Q + delta * M)
    if s[0] <= 0.0 or s[-1] <= s[0] * 1e-12:
        raise DegenerateUpdateError("X Q + delta M is rank-deficient")
    return B


def update_M(B, partition, params, delta):
    """Closed-form update of the clustered representation, one cluster at a time.

    Every row assigned to cluster k solves the SPD system
    (Sigma_k^{-1} + delta I) m = delta b + Sigma_k^{-1} s_k, handled in the
    equivalent form (I + delta Sigma_k) m = s_k + delta Sigma_k b, which
    stays well-conditioned when Sigma_k is nearly singular.
    """
    B = np.asarray(B, dtype=float)
    n, p = B.shape
    M = np.empty_like(B)
    eye = np.eye(p)
    for k in range(params.g):
        rows = np.where(partition.assignments == k)[0]
        if rows.size == 0:
            continue
        cov = params.covariances[k]
        rhs = B[rows] @ (delta * cov) + params.means[k][None, :]
        sol, _ = spd_solve(eye + delta * cov, rhs.T)
        M[rows] = sol.T
    return M


def objective(X, bundle, partition, params, delta):
    """Reconstruction error plus coupling penalty minus the complete-data
    log-likelihood of M."""
    X = np.asarray(X, dtype=float)
    resid = X - bundle.B @ bundle.Q.T
    gap = bundle.B - bundle.M
    ll = mixture.complete_log_likelihood(bundle.M, partition, params)
    return float(np.sum(resid * resid) + delta * np.sum(gap * gap) - ll)


def prepare_features(X, cfg):
    """Standardize and graph-smooth the raw data according to the config.

    The result is column-centered: neighborhood averaging with a
    row-stochastic weight matrix shifts column means, and the loop's B
    update is only a fixed point of the principal basis on centered data.
    """
    X = np.asarray(X, dtype=float)
    if cfg.standardize:
        X = standardize(X)
    if cfg.smoothing > 0:
        X = smooth(X, knn_graph(X, cfg.neighbors), cfg.smoothing)
    return X - X.mean(axis=0)


def _seed_partition(B, g, restart, seed):
    """Seeding partition for the hard-assignment mixture on B.

    Restarts cycle through three styles: a uniformly random partition, a
    K-means partition, and a K-means partition of a single embedding
    column scanned from the trailing end (cluster structure that PCA
    ranks last is exactly what the joint fit is meant to recover).
    """
    n, p = B.shape
    rng = mixture.restart_rng(seed, restart)
    style = restart % 3
    if style == 0:
        return Partition(assignments=mixture.random_partition(n, g, rng), g=g)
    if style == 2:
        B = B[:, [p - 1 - ((restart // 3) % p)]]
    return mixture.kmeans(B, g, restarts=1,
                          seed=mixture.child_seed(seed, restart)).partition


def _fit_single(X, B, Q, cfg, seed, restart):
    """One restart from the principal embedding B and its loadings Q."""
    part = _seed_partition(B, cfg.g, restart, seed)
    params = mixture.m_step(B, part.one_hot(), cfg.model)
    part, params, _, _ = mixture.cem_refine(B, part, params, tol=cfg.tol)
    bundle = EmbeddingBundle(B=B, Q=Q, M=B.copy())
    trace = [objective(X, bundle, part, params, cfg.delta)]
    steps = []
    iterations = 0
    for _ in range(cfg.max_iter):
        iterations += 1
        M = update_M(bundle.B, part, params, cfg.delta)
        bundle = replace(bundle, M=M)
        current = objective(X, bundle, part, params, cfg.delta)
        steps.append(("M", current))
        # The mixture step clusters the embedding rows, continuing the
        # warm state from initialization. Refitting on M instead would be
        # degenerate at small delta: the closed-form M sits numerically on
        # the centroids, so the covariances collapse to the ridge floor
        # and the objective stops seeing cluster geometry. Because the
        # refinement tracks the embedding rather than M, it is not an
        # exact minimizer of the joint objective; the candidate state is
        # kept only when it does not increase that objective.
        cand_part, cand_params, _, _ = mixture.cem_refine(
            bundle.B, part, params, tol=cfg.tol)
        cand = objective(X, bundle, cand_part, cand_params, cfg.delta)
        if cand <= current:
            part, params, current = cand_part, cand_params, cand
        steps.append(("cem", current))
        B = update_B(X, bundle.Q, M, cfg.delta)
        bundle = replace(bundle, B=B)
        steps.append(("B", objective(X, bundle, part, params, cfg.delta)))
        bundle = replace(bundle, Q=update_Q(X, B))
        value = objective(X, bundle, part, params, cfg.delta)
        steps.append(("Q", value))
        trace.append(value)
        if mixture._converged(trace[-2], trace[-1], cfg.tol):
            break
    return FitResult(partition=part, params=params, objective_trace=trace,
                     iterations=iterations, seed=int(seed), bundle=bundle,
                     step_trace=steps)


def fit_cempca(X_raw, cfg, seed=0):
    """Run the alternating joint fit; keep the restart with the lowest objective.

    The pipeline standardizes and graph-smooths the input per the config,
    initializes B and Q from the principal embedding, seeds the mixture by
    a partition that varies per restart, then sweeps the four block updates
    until the objective stalls. step_trace holds the objective after every
    block update, as ("M" | "cem" | "B" | "Q", value), four per sweep.
    Restarts that hit a degenerate update are skipped and listed in
    failed_restarts; the fit fails only if every restart does. A setting
    out of range raises SettingError, naming it, before any work.
    """
    # Every setting is checked here, by its own name, before any work: a
    # bad one would otherwise surface from a kernel under the kernel's name.
    X = np.asarray(X_raw, dtype=float)
    n = X.shape[0]
    mixture._check_fit_args(X, cfg.g, cfg.tol)
    if not (math.isfinite(cfg.delta) and cfg.delta >= 0):
        raise SettingError("delta", f"must be finite and >= 0, got {cfg.delta}")
    for name in ("smoothing", "max_iter"):
        if getattr(cfg, name) < 0:
            raise SettingError(name, "must be >= 0")
    if cfg.smoothing > 0 and not 1 <= cfg.neighbors <= n - 1:
        raise SettingError("neighbors", f"must be in [1, {n - 1}], got {cfg.neighbors}")
    start = time.perf_counter()
    X = prepare_features(X, cfg)
    # The principal embedding and its loadings depend only on X and p, so
    # every restart starts from the same pair.
    B, _ = pca_embed(X, cfg.p)
    Q = update_Q(X, B)
    return mixture.best_of_restarts(
        lambda r: _fit_single(X, B, Q, cfg, seed, r),
        cfg.restarts, operator.lt, start)
