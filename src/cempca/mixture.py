"""Gaussian mixture machinery: densities, E/C/M steps, EM, CEM, and K-means."""

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (EmptyClusterError, InvalidInputError, NumericalError,
                     SettingError, SingularMatrixError)

COV_MODELS = ("full", "diagonal", "spherical", "spherical-tied")

_LOG_2PI = float(np.log(2.0 * np.pi))
_COV_EPS = 1e-6


@dataclass
class MixtureParams:
    """Weights, means, and per-cluster covariances of a Gaussian mixture."""

    weights: np.ndarray          # (g,)
    means: np.ndarray            # (g, p)
    covariances: np.ndarray      # (g, p, p), each SPD after regularization
    model: str = "full"

    @property
    def g(self):
        return self.weights.shape[0]

    @property
    def p(self):
        return self.means.shape[1]


def _factors(params):
    """(log weights, inverse Cholesky factors, log determinants), per component."""
    try:
        L = np.linalg.cholesky(params.covariances)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("covariance is not positive-definite") from None
    # One batched inverse for all components; the inverse of a lower
    # factor is lower, and tril drops the rounding above the diagonal.
    inv_chol = np.tril(np.linalg.inv(L))
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    return np.log(params.weights), inv_chol, logdet


@dataclass
class Partition:
    """Hard assignment of n rows to g clusters."""

    assignments: np.ndarray      # (n,) ints in [0, g)
    g: int

    @property
    def n(self):
        return self.assignments.shape[0]


@dataclass
class FitResult:
    """Return envelope shared by all fitting routines.

    objective_trace holds the per-iteration objective of the method that
    produced it: within-cluster sum of squares for K-means, log-likelihood
    for the mixture fits, and the three-term joint objective for the
    alternating embedding fit (non-increasing there). step_trace is set by
    fit_cempca (the objective after every block update) and reduced_kmeans
    (the iterates). A fit's one best_of_restarts loop sets restart_index,
    wall_time (seconds for the whole fit) and failed_restarts (the restarts
    that raised, as (restart index, "ErrorType: message")). A restart whose
    start repeats an earlier successful start, up to relabelling for label
    starts, is skipped and appears nowhere. fit_cempca's start is the
    partition CEM refines from the seeding labels, so a restart whose
    refined partition relabels an earlier one is skipped too. So is a
    fit_cempca restart whose joint loop provably cannot win: once a
    restart has succeeded, a lower bound on the loop's final objective,
    recon0 - ceiling, formed from the start's m_step and valid when a
    one-sweep guard holds, above the kept objective skips the loop. It
    appears nowhere, as a repeat does, and it could not have failed.
    """

    partition: Partition
    params: Optional[MixtureParams]
    objective_trace: list
    restart_index: int = 0
    wall_time: float = 0.0
    bundle: "object" = None      # EmbeddingBundle when the method produces one
    step_trace: Optional[list] = None
    failed_restarts: list = field(default_factory=list)

    @property
    def iterations(self):
        """Iterations run: each fit's trace holds its initial state, then one
        entry per iteration."""
        return len(self.objective_trace) - 1


def derive_seed(seed, *key):
    """Counter-based seed for `key`: a restart index, or a suite cell's
    dataset and method indices. It is stable as the counts grow."""
    _check_seed(seed)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(map(int, key)))


def restart_rng(seed, restart):
    return np.random.default_rng(derive_seed(seed, restart))


def child_seed(seed, *key):
    """Integer seed for a nested fit inside restart `key`, or for suite cell `key`."""
    return int(derive_seed(seed, *key).generate_state(1)[0])


def best_of_restarts(start, tail, restarts, better, t0):
    """Keep the best FitResult of tail(start(r)) over the restarts r.

    Each fit's one restart loop, run once restarts >= 1 is checked. start(r)
    gives restart r's starting array (integer labels, or K-means centres)
    and tail(array, incumbent) the fit from it, which must depend on the
    start alone. So a restart whose start repeats one whose tail succeeded
    is skipped without being recorded: labels repeat up to relabelling,
    centres byte for byte (_start_key). A relabelled start would only tie
    with the earlier run, and ties keep the lowest restart index. Only the
    starts' keys are kept; no result is cached or copied.

    incumbent is the kept result's final objective so far, None before the
    first success. It is a decision input, not a fitted value: a tail may
    return None when it proves that its fit would succeed and end strictly
    worse than the incumbent (fit_cempca's lower bound), and the other fits'
    tails ignore it. Such a start counts as done, so its repeats are
    skipped, and it is recorded nowhere, as a repeat is not; the kept
    result is the one the full run would keep.

    better(a, b) compares final objectives (operator.lt to minimize,
    operator.gt to maximize); a restart replaces the kept one only when it
    is strictly better, so ties go to the lowest restart index. A restart
    whose start or tail raises a NumericalError is listed in
    failed_restarts, and a later repeat of its start runs (and is listed)
    again; if every restart fails, NumericalError is raised from the last
    error. The kept result gets restart_index and wall_time (from t0).
    """
    best = None
    done = set()
    failed = []
    for r in range(restarts):
        try:
            init = start(r)
            key = _start_key(init)
            if key in done:
                continue
            result = tail(init, None if best is None else best.objective_trace[-1])
        except NumericalError as exc:
            failed.append((r, f"{type(exc).__name__}: {exc}"))
            last_error = exc
            continue
        done.add(key)
        if result is None:
            continue
        if best is None or better(result.objective_trace[-1], best.objective_trace[-1]):
            best, kept = result, r
    if best is None:
        raise NumericalError(f"all {restarts} restarts failed: {failed[-1][1]}") from last_error
    best.restart_index = kept
    best.failed_restarts = failed
    best.wall_time = time.perf_counter() - t0
    return best


def _start_key(init):
    """best_of_restarts' key for a start: integer labels renumbered in order
    of first appearance, so that the label vectors of one partition share
    it; the bytes of any other start (K-means centres)."""
    if init.dtype.kind not in "iu":
        return init.tobytes()
    # each label's first row (n if unused), then its rank among those rows;
    # g scans of n labels, and no sort, whose code pages alone would add
    # about 0.4 MB to the peak RSS of a fit that sorts nothing else
    first = np.array([np.argmax(init == k) if count else init.size
                      for k, count in enumerate(np.bincount(init))])
    rank = (first[None, :] < first[:, None]).sum(axis=1)
    return rank[init].tobytes()


def _converged(prev, cur, tol):
    return abs(cur - prev) <= tol * (1.0 + abs(prev))


def _feature_major(X):
    """(p, n) contiguous copy of the rows of X. The kernels work on it, so
    each numpy call sweeps n contiguous values rather than n rows of p.
    The transposed view of such a copy is not copied again. X must be 2-D
    with a column; only its shape is read, since every kernel call passes
    here."""
    X = np.asarray(X, dtype=float)
    _check_matrix(X)
    return np.ascontiguousarray(X.T)


def _check_matrix(X):
    """InvalidInputError naming the shape unless X is 2-D with at least one column."""
    if X.ndim != 2 or X.shape[1] < 1:
        raise InvalidInputError(f"X must be 2-D with at least one column, got shape {X.shape}")


def _check_entries(X):
    """InvalidInputError unless every entry of X is finite and small enough
    to square: any sum of squares of entries or of their differences stays
    finite when |x| <= sqrt(max / (4 * X.size)). Nothing is squared here."""
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("X contains non-finite entries")
    top = float(np.abs(X).max(initial=0.0))
    bound = math.sqrt(np.finfo(float).max / (4 * max(X.size, 1)))
    if top > bound:
        raise InvalidInputError(f"X has an entry of magnitude {top:.3g}, above {bound:.3g}: a "
                                f"sum of squares over its {X.shape[0]} rows would overflow float64")


def _check_columns(p, params):
    """InvalidInputError naming both sizes unless X's p columns are params'."""
    if p != params.p:
        raise InvalidInputError(f"X has {p} columns, but the params have p={params.p}")


def _cluster_sizes(partition, n, g):
    """Rows per cluster of a partition of X's n rows into g clusters, from
    one pass over its labels. InvalidInputError names both sizes unless it
    has g clusters, n labels and every label in [0, g)."""
    if partition.g != g:
        raise InvalidInputError(f"the partition has g={partition.g}, but the params have g={g}")
    if partition.n != n:
        raise InvalidInputError(f"the partition labels {partition.n} rows, but X has {n}")
    try:
        sizes = np.bincount(partition.assignments, minlength=g)
    except (TypeError, ValueError):
        raise InvalidInputError(f"labels must be integers in [0, {g})") from None
    if sizes.size > g:
        raise InvalidInputError(f"label {sizes.size - 1} is out of range for g={g} clusters")
    return sizes


def _first_best(scores, better):
    """Index of the best of the g rows of a (g, n) score array, per column:
    better is np.less for the minimum, np.greater for the maximum. The
    comparison is strict, so a tie goes to the lowest index, as with
    np.argmin and np.argmax."""
    if scores.shape[0] == 1:
        return np.zeros(scores.shape[1], dtype=np.intp)
    won = better(scores[1], scores[0])
    index = won.astype(np.intp)
    best = scores[0]
    # the running best is formed only when a third component is compared;
    # np.where costs less than a masked write at a random half of n
    for k in range(2, scores.shape[0]):
        best = np.where(won, scores[k - 1], best)
        won = better(scores[k], best)
        index = np.where(won, k, index)
    return index


def log_joint(X, params):
    """Matrix of log pi_k + log phi_k(x_i), one column per component; X
    needs params.p columns (InvalidInputError otherwise). Every score of
    the package, the complete log-likelihood's included, is read off it.

    The (n, g) matrix is column-contiguous: the transpose of the (g, n)
    array one product over the (g, p, n) residuals fills. A row far outside
    a near-singular component overflows, unwarned, to a -inf score (zero
    density); e_step reports a row that all components score so.
    """
    XT = _feature_major(X)
    _check_columns(XT.shape[0], params)
    log_w, inv_chol, logdet = _factors(params)
    with np.errstate(over="ignore"):
        sol = inv_chol @ (XT - params.means[:, :, None])
        sol *= sol
        lp = log_w[:, None] - 0.5 * (params.p * _LOG_2PI + logdet[:, None] + sol.sum(axis=1))
    return lp.T


def _own_sum(lp, assign):
    """Sum of each row's own entry lp[i, assign[i]] of a log_joint matrix,
    read off its contiguous (g, n) transpose at assign * n + i. The row-order
    sum does not depend on the labels, so relabelled restarts tie exactly."""
    n = lp.shape[0]
    return float(lp.T.ravel().take(np.asarray(assign, dtype=np.intp) * n + np.arange(n)).sum())


def e_step(X, params):
    """Posterior cluster probabilities per row, stabilized via log-sum-exp."""
    return _posterior(log_joint(X, params))[1]


def _posterior(lp):
    """(row log-densities, posterior) of a log_joint matrix, from one exp.

    The log-density is log-sum-exp over each row, summed as scipy's
    logsumexp sums it: the terms at the row maximum are counted rather
    than added, so the value matches scipy's bit for bit. A row scoring
    -inf everywhere raises NumericalError naming it.
    """
    top = lp.max(axis=1)
    bad = ~np.isfinite(top)
    if np.any(bad):
        raise NumericalError(
            f"all components degenerate for row {int(np.where(bad)[0][0])}")
    e = np.exp(lp - top[:, None])
    at_top = lp == top[:, None]
    count = at_top.sum(axis=1)
    rest = np.where(at_top, 0.0, e).sum(axis=1)
    density = np.log1p(rest / count) + np.log(count) + top
    return density, e / e.sum(axis=1, keepdims=True)


def c_step(resp):
    """MAP hard assignment: argmax responsibility per row, lowest index on ties."""
    resp = np.asarray(resp, dtype=float)
    return Partition(assignments=np.argmax(resp, axis=1), g=resp.shape[1])


def m_step(X, weights, model="full"):
    """Parameter update from soft responsibilities or a hard Partition.

    weights is an (n, g) responsibility matrix whose rows sum to one, its
    scatters formed over the whole (g, p, n) stack at once, or a Partition
    of the n rows, read as its labels: each cluster's ragged set of rows is
    gathered in turn, as columns of a feature-major copy of X, so no n x g
    one-hot matrix is formed, and the result equals the one-hot matrix's up
    to rounding. An empty cluster raises EmptyClusterError; weights for
    other than n rows, or a label outside [0, g), InvalidInputError.

    Covariances are the weighted scatter divided by the column weight sum,
    ridge-regularized with eps * (trace / p) * I (eps = 1e-6), then
    constrained to the requested family. The ridge scale is floored at a
    thousandth of X's mean feature variance (and at 1e-12): a cluster whose
    points coincide (a singleton, or a representation pulled onto its
    centroid) would otherwise shrink its covariance below floating-point
    resolution and poison every later Mahalanobis term. By the law of total
    variance, n * p times that variance is sum_k n_k (tr C_k + |mu_k - mu|^2)
    over the column weight sums n_k, scatters C_k and means mu_k, with mu
    their weighted mean: no pass over X, and no offset in X cancels.
    """
    XT = _feature_major(X)
    _check_model(model)
    p, n = XT.shape
    # C-order means on both paths, so the floor's sums over a mean's p
    # features run in one order whatever form the weights take
    if isinstance(weights, Partition):
        g = weights.g
        totals = _nonempty(_cluster_sizes(weights, n, g).astype(float))
        means, covs = np.empty((g, p)), np.empty((g, p, p))
        for k in range(g):
            cols = XT.take(np.flatnonzero(weights.assignments == k), axis=1)
            means[k] = cols @ np.ones(cols.shape[1]) / totals[k]
            diff = cols - means[k][:, None]
            covs[k] = diff @ diff.T / totals[k]
    else:
        W = np.asarray(weights, dtype=float)
        g = W.shape[1]
        if W.shape[0] != n:
            raise InvalidInputError(f"weights are given for {W.shape[0]} rows, but X has {n}")
        totals = _nonempty(W.sum(axis=0))
        means = np.ascontiguousarray((XT @ W).T) / totals[:, None]
        diff = XT - means[:, :, None]
        covs = (diff * W.T[:, None, :]) @ diff.transpose(0, 2, 1) / totals[:, None, None]
    pi = totals / n
    # Symmetrize, then add the ridge, for the whole (g, p, p) stack at once
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    trace = np.trace(covs, axis1=1, axis2=2)
    dev = means - totals @ means / n
    spread = float(totals @ (trace + (dev * dev).sum(axis=1)))
    scale = np.maximum(trace / p, max(1e-3 * spread / (n * p), 1e-12))
    covs += (_COV_EPS * scale)[:, None, None] * np.eye(p)
    if model == "diagonal":
        diagonal = np.arange(p)
        covs, full = np.zeros((g, p, p)), covs
        covs[:, diagonal, diagonal] = full[:, diagonal, diagonal]
    elif model == "spherical":
        covs = (np.trace(covs, axis1=1, axis2=2) / p)[:, None, None] * np.eye(p)
    elif model == "spherical-tied":
        lam = float(np.sum(totals * np.trace(covs, axis1=1, axis2=2) / p)) / n
        covs = np.repeat((lam * np.eye(p))[None, :, :], g, axis=0)
    return MixtureParams(weights=pi, means=means, covariances=covs, model=model)


def _nonempty(totals):
    """totals, or EmptyClusterError naming the first cluster whose weight sum is not positive."""
    empty = np.flatnonzero(totals <= 0.0)
    if empty.size:
        raise EmptyClusterError(int(empty[0]))
    return totals


def complete_log_likelihood(X, partition, params):
    """Sum over rows of log pi_{z_i} + log phi_{z_i}(x_i): each row's own
    entry of log_joint, summed in row order (_own_sum), as cem_refine
    scores its trace. X's columns, the partition's rows and labels and
    params must agree, or InvalidInputError names both sizes.
    """
    XT = _feature_major(X)
    _cluster_sizes(partition, XT.shape[1], params.g)
    return _own_sum(log_joint(XT.T, params), partition.assignments)


def log_likelihood(X, params):
    """Observed-data log-likelihood: row-wise log-sum-exp over components.

    A row that no component explains raises NumericalError, as in e_step.
    """
    return float(_posterior(log_joint(X, params))[0].sum())


# ---------------------------------------------------------------------------
# K-means


def _seed_centers(X, g, rng):
    """k-means++ centers: each drawn with probability proportional to its
    squared distance from the nearest center chosen so far."""
    n = X.shape[0]
    centers = np.empty((g, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.inf  # each row's running squared distance to its nearest center
    for k in range(1, g):
        d2 = np.minimum(d2, ((X - centers[k - 1]) ** 2).sum(axis=1))
        total = d2.sum()
        if total > 0:
            centers[k] = X[rng.choice(n, p=d2 / total)]
        else:
            centers[k] = X[rng.integers(n)]
    return centers


def random_partition(n, g, rng):
    """Uniform random labels for n rows, with g distinct rows forced to 0..g-1
    so that no cluster starts empty."""
    assign = rng.integers(0, g, n)
    for k, i in enumerate(rng.permutation(n)[:g]):
        assign[i] = k
    return assign


def lloyd(X, centers, max_iter=100, tol=1e-6):
    """Lloyd rounds from the given centers until assignments stabilize.

    Returns (assignments, centers, wcss_trace, iterations), centers (g, p).
    _repair_empty refills an empty cluster, farthest point from its center
    first, and the cluster is centered on that point, so the objective
    cannot increase. The rounds work on the (p, n) feature-major copy of X:
    a squared distance sums its p terms in feature order, and a tie between
    centers goes to the lowest index.
    """
    if max_iter < 1:
        raise SettingError("max_iter", "must be >= 1")
    XT = _feature_major(X)
    centers = np.array(centers, dtype=float)
    g = centers.shape[0]
    # _repair_empty can refill at most one cluster per row
    if g > XT.shape[1]:
        raise InvalidInputError(f"need at least {g} rows for {g} centers, got {XT.shape[1]}")
    trace = []
    prev_assign = None
    for _ in range(max_iter):
        D = XT[None] - centers[:, :, None]
        D *= D
        dist = D.sum(axis=1)
        assign = _first_best(dist, np.less)
        for k, i in _repair_empty(assign, lambda: -dist[assign, np.arange(len(assign))], g):
            centers[k] = XT[:, i]
        trace.append(_wcss(XT, centers, assign))
        centers = _centroids(XT.T, assign, g)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if len(trace) >= 2 and _converged(trace[-2], trace[-1], tol):
            break
        prev_assign = assign
    trace.append(_wcss(XT, centers, assign))
    return assign, centers, trace, len(trace) - 1


def _wcss(XT, centers, assign):
    """Within-cluster sum of squares of the feature-major XT about centers."""
    resid = XT - centers.T.take(assign, axis=1)
    resid *= resid
    return float(resid.sum())


def _centroids(X, assign, g):
    """(g, p) matrix of each cluster's mean row; every cluster must be
    non-empty. It sums one feature at a time, so X may be a transposed
    view of the feature-major data."""
    sums = np.stack([np.bincount(assign, weights=col, minlength=g) for col in X.T], axis=1)
    return sums / np.bincount(assign, minlength=g)[:, None]


def kmeans(X, g, max_iter=100, tol=1e-6, restarts=20, seed=0):
    """Lloyd's algorithm from k-means++ centers, best of `restarts` runs by
    within-cluster sum of squares."""
    X = np.asarray(X, dtype=float)
    _check_fit_args(X, g, tol, seed, restarts, max_iter)
    t0 = time.perf_counter()

    def tail(centers, incumbent=None):
        assign, _, trace, _ = lloyd(X, centers, max_iter=max_iter, tol=tol)
        return FitResult(partition=Partition(assignments=assign, g=g), params=None,
                         objective_trace=trace)

    return best_of_restarts(lambda r: _seed_centers(X, g, restart_rng(seed, r)), tail,
                            restarts, operator.lt, t0)


def kmeans_labels(X, g, seed, restart, max_iter=100, tol=1e-6):
    """Restart `restart` of kmeans(X, g, max_iter, tol, seed=seed) as labels:
    one Lloyd run from k-means++ centres. It seeds em_gmm, cem,
    reduced_kmeans and fit_cempca, which have checked X."""
    centers = _seed_centers(X, g, restart_rng(seed, restart))
    return lloyd(X, centers, max_iter=max_iter, tol=tol)[0]


# ---------------------------------------------------------------------------
# EM and CEM


def em_gmm(X, g, max_iter=100, tol=1e-6, restarts=20, seed=0, model="full"):
    """Fit a Gaussian mixture by EM, initialized from a K-means partition.

    Keeps the restart with the highest observed-data log-likelihood; the
    final hard partition applies the MAP rule to the last E-step.
    """
    X = np.asarray(X, dtype=float)
    _check_fit_args(X, g, tol, seed, restarts, max_iter, model)
    t0 = time.perf_counter()
    # one feature-major copy per call, as in cem_refine; the seeding reads rows
    XF = _feature_major(X).T

    def tail(labels, incumbent=None):
        params = m_step(XF, Partition(assignments=labels, g=g), model)
        # One score matrix and one reduction of it per parameter set: they
        # give the trace entry, the next E-step and, for the last set, the
        # MAP partition.
        density, resp = _posterior(log_joint(XF, params))
        trace = [float(density.sum())]
        for _ in range(max_iter):
            params = m_step(XF, resp, model)
            density, resp = _posterior(log_joint(XF, params))
            trace.append(float(density.sum()))
            if _converged(trace[-2], trace[-1], tol):
                break
        return FitResult(partition=c_step(resp), params=params, objective_trace=trace)

    return best_of_restarts(lambda r: kmeans_labels(X, g, child_seed(seed, r), 0, max_iter),
                            tail, restarts, operator.gt, t0)


def _repair_empty(assign, score, g):
    """Refill in place each cluster the assignment step left empty, in
    increasing order: it takes the first point by (score(), index) whose
    cluster keeps another member. score, one value per point (lowest fits
    worst), is called only if a cluster is empty. Returns the moved
    (cluster, point) pairs."""
    counts = np.bincount(assign, minlength=g)
    if counts.all():
        return []
    # a point passed over stays its cluster's last member, so the scan
    # for the next empty cluster resumes where this one stopped
    order = iter(np.argsort(score(), kind="stable"))
    moved = []
    for k in np.flatnonzero(counts == 0):
        for i in order:
            donor = assign[i]
            if counts[donor] > 1:
                counts[donor] -= 1
                counts[k] += 1
                assign[i] = k
                moved.append((k, i))
                break
    return moved


def cem_refine(X, partition, model, max_iter=100, tol=1e-6):
    """Run C and M rounds from a partition until it stabilizes.

    Round 0 fits the covariance model to the partition (m_step) and scores
    it; each later round takes the C-step of the last fit, then fits and
    scores the partition it returns. Returns (partition, params,
    complete-log-likelihood trace, iterations), params the m_step of the
    returned partition. Each entry is read off the round's log_joint matrix
    by _own_sum, so it equals complete_log_likelihood of that state bit for
    bit; the trace is non-decreasing up to the covariance regularization
    slack. m_step raises InvalidInputError unless the partition labels X.

    It stops when a C-step returns the partition the last round fitted, the
    given one included: that round reuses the last score without refitting
    or rescoring and appends the last trace value again; every other round
    appends a new value.
    """
    # One feature-major copy for the whole refinement: log_joint and m_step
    # get its transposed view, and their own _feature_major copies nothing.
    X = _feature_major(X).T
    params = m_step(X, partition, model)
    # One score matrix per parameter set: it gives the trace entry for the
    # partition it was fitted to and the C-step of the next iteration.
    lp = log_joint(X, params)
    trace = [_own_sum(lp, partition.assignments)]
    for _ in range(max_iter):
        assign = _first_best(lp.T, np.greater)
        _repair_empty(assign, lambda: _posterior(lp)[0], partition.g)
        if np.array_equal(assign, partition.assignments):
            trace.append(trace[-1])
            break
        partition = Partition(assignments=assign, g=partition.g)
        params = m_step(X, partition, model)
        lp = log_joint(X, params)
        trace.append(_own_sum(lp, assign))
        if _converged(trace[-2], trace[-1], tol):
            break
    return partition, params, trace, len(trace) - 1


def cem(X, g, max_iter=100, tol=1e-6, restarts=20, seed=0, model="full"):
    """Hard-assignment EM: a classification step between E and M.

    Maximizes the complete-data log-likelihood. Each restart is cem_refine
    from a K-means partition, whose round 0 fits that partition. A cluster
    left empty by the C-step is refilled by _repair_empty, lowest mixture
    density first. Best restart by final complete-data log-likelihood.
    """
    X = np.asarray(X, dtype=float)
    _check_fit_args(X, g, tol, seed, restarts, max_iter, model)
    t0 = time.perf_counter()
    # one feature-major copy per call, as in em_gmm
    XF = _feature_major(X).T

    def tail(labels, incumbent=None):
        partition, params, trace, _ = cem_refine(XF, Partition(assignments=labels, g=g), model,
                                                 max_iter=max_iter, tol=tol)
        return FitResult(partition=partition, params=params, objective_trace=trace)

    return best_of_restarts(lambda r: kmeans_labels(X, g, child_seed(seed, r), 0, max_iter),
                            tail, restarts, operator.gt, t0)


def _check_fit_args(X, g, tol, seed, restarts, max_iter, model="full", min_iter=1):
    """Check the settings every fit shares, before any work: a bad seed,
    restarts or max_iter would surface only at the first start, a negative
    or non-finite tol would never let _converged hold, and a non-finite cell
    of X, or one too large to square, would spread through or overflow a
    sum. X needs a column to cluster on.
    fit_cempca's max_iter may be 0."""
    _check_ints(g=g, restarts=restarts, max_iter=max_iter)
    if g < 1:
        raise SettingError("g", "must be >= 1")
    _check_matrix(X)
    if X.shape[0] < g:
        raise InvalidInputError(f"need at least g={g} rows, got {X.shape[0]}")
    _check_entries(X)
    _check_nonnegative(tol=tol)
    _check_seed(seed)
    if restarts < 1:
        raise SettingError("restarts", "must be >= 1")
    if max_iter < min_iter:
        raise SettingError("max_iter", f"must be >= {min_iter}")
    _check_model(model)


def _is_int(value):
    """The count rule: an integer, numpy's included, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_ints(**settings):
    """SettingError naming the first setting that is not an integer."""
    for name, value in settings.items():
        if not _is_int(value):
            raise SettingError(name, f"must be an integer, got {value!r}")


def _check_bool(**settings):
    """SettingError naming the first setting that is not a bool (numpy's included)."""
    for name, value in settings.items():
        if not isinstance(value, (bool, np.bool_)):
            raise SettingError(name, f"must be bool, got {value!r}")


def _check_nonnegative(**settings):
    """SettingError naming the first setting that is not a finite number >= 0."""
    for name, value in settings.items():
        number = (isinstance(value, (int, float, np.integer, np.floating))
                  and not isinstance(value, bool))
        if not (number and math.isfinite(value) and value >= 0):
            shown = value if number else repr(value)
            raise SettingError(name, f"must be finite and >= 0, got {shown}")


def _check_seed(seed):
    """SettingError unless seed is an integer >= 0 (a float is refused, not truncated)."""
    _check_ints(seed=seed)
    if seed < 0:
        raise SettingError("seed", f"must be >= 0, got {seed}")


def _check_model(model):
    if model not in COV_MODELS:
        raise SettingError("model", f"must be one of {COV_MODELS}, got {model!r}")
