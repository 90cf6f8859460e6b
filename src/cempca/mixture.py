"""Gaussian mixture machinery: densities, E/C/M steps, EM, CEM, and K-means."""

import math
import operator
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .errors import (NUMERICAL_ERRORS, EmptyClusterError, InvalidInputError,
                     NumericalError, SettingError, SingularMatrixError)

COV_MODELS = ("full", "diagonal", "spherical", "spherical-tied")

_LOG_2PI = float(np.log(2.0 * np.pi))
_COV_EPS = 1e-6


@dataclass
class MixtureParams:
    """Weights, means, and per-cluster covariances of a Gaussian mixture.

    The arrays are treated as immutable once the parameters are scored:
    the first density evaluation factors every covariance and caches the
    result on the instance, outside repr and ==. To change a value, build a
    new instance (dataclasses.replace does, and starts with no cache)
    rather than writing into the arrays.
    """

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

    @cached_property
    def _factors(self):
        """(log weights, inverse Cholesky factors, log determinants), per component."""
        try:
            L = np.linalg.cholesky(self.covariances)
        except np.linalg.LinAlgError:
            raise SingularMatrixError("covariance is not positive-definite") from None
        # One batched inverse for all components; the inverse of a lower
        # factor is lower, and tril drops the rounding above the diagonal.
        inv_chol = np.tril(np.linalg.inv(L))
        logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        return np.log(self.weights), inv_chol, logdet


@dataclass
class Partition:
    """Hard assignment of n rows to g clusters."""

    assignments: np.ndarray      # (n,) ints in [0, g)
    g: int

    @property
    def n(self):
        return self.assignments.shape[0]

    def one_hot(self):
        Z = np.zeros((self.n, self.g))
        Z[np.arange(self.n), self.assignments] = 1.0
        return Z

    def counts(self):
        return np.bincount(self.assignments, minlength=self.g)


@dataclass
class FitResult:
    """Return envelope shared by all fitting routines.

    objective_trace holds the per-iteration objective of the method that
    produced it: within-cluster sum of squares for K-means, log-likelihood
    for the mixture fits, and the three-term joint objective for the
    alternating embedding fit (non-increasing there). step_trace is set by
    fit_cempca (the objective after every block update) and reduced_kmeans
    (the iterates). best_of_restarts sets restart_index (the kept restart),
    wall_time (seconds for all restarts) and failed_restarts (the restarts
    that were skipped, as (restart index, "ErrorType: message")).
    """

    partition: Partition
    params: Optional[MixtureParams]
    objective_trace: list
    iterations: int
    seed: int
    restart_index: int = 0
    wall_time: float = 0.0
    bundle: "object" = None      # EmbeddingBundle when the method produces one
    step_trace: Optional[list] = None
    failed_restarts: list = field(default_factory=list)


def derive_seed(seed, *key):
    """Counter-based seed for `key`: a restart index, or a suite cell's
    dataset and method indices. It is stable as the counts grow."""
    if int(seed) < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(map(int, key)))


def restart_rng(seed, restart):
    return np.random.default_rng(derive_seed(seed, restart))


def child_seed(seed, *key):
    """Integer seed for a nested fit inside restart `key`, or for suite cell `key`."""
    return int(derive_seed(seed, *key).generate_state(1)[0])


def best_of_restarts(fit_one, restarts, better, start):
    """Run fit_one(r) for each restart r and keep the best FitResult.

    better(a, b) compares final objectives (operator.lt to minimize,
    operator.gt to maximize); a restart replaces the kept one only when it
    is strictly better, so ties go to the lowest restart index. A restart
    that raises one of NUMERICAL_ERRORS is skipped and recorded in
    failed_restarts; if every restart fails, NumericalError is raised from
    the last error. The kept result gets restart_index and wall_time (from `start`).
    """
    if restarts < 1:
        raise SettingError("restarts", "must be >= 1")
    best = None
    failed = []
    for r in range(restarts):
        try:
            result = fit_one(r)
        except NUMERICAL_ERRORS as exc:
            failed.append((r, f"{type(exc).__name__}: {exc}"))
            last_error = exc
            continue
        result.restart_index = r
        if best is None or better(result.objective_trace[-1], best.objective_trace[-1]):
            best = result
    if best is None:
        raise NumericalError(f"all {restarts} restarts failed: {failed[-1][1]}") from last_error
    best.failed_restarts = failed
    best.wall_time = time.perf_counter() - start
    return best


def _converged(prev, cur, tol):
    return abs(cur - prev) <= tol * (1.0 + abs(prev))


def _component_log_joint(X, params, k):
    """log pi_k + log phi_k(x_i) for every row of X, from the cached factors.

    A row far outside a near-singular component overflows to a -inf score
    (zero density) rather than warning; e_step reports such rows.
    """
    log_w, inv_chol, logdet = params._factors
    with np.errstate(over="ignore"):
        sol = (X - params.means[k]) @ inv_chol[k].T
        maha = np.einsum("ij,ij->i", sol, sol)
    return log_w[k] - 0.5 * (params.p * _LOG_2PI + logdet[k] + maha)


def log_joint(X, params):
    """Matrix of log pi_k + log phi_k(x_i), one column per component."""
    X = np.asarray(X, dtype=float)
    lp = np.empty((X.shape[0], params.g))
    for k in range(params.g):
        lp[:, k] = _component_log_joint(X, params, k)
    return lp


def e_step(X, params):
    """Posterior cluster probabilities per row, stabilized via log-sum-exp."""
    return _posterior(log_joint(X, params))


def _posterior(lp):
    """Row-normalized exp of a log_joint matrix; a row scoring -inf everywhere raises."""
    top = lp.max(axis=1)
    bad = ~np.isfinite(top)
    if np.any(bad):
        raise NumericalError(
            f"all components degenerate for row {int(np.where(bad)[0][0])}")
    resp = np.exp(lp - top[:, None])
    resp /= resp.sum(axis=1, keepdims=True)
    return resp


def c_step(resp):
    """MAP hard assignment: argmax responsibility per row, lowest index on ties."""
    resp = np.asarray(resp, dtype=float)
    return Partition(assignments=np.argmax(resp, axis=1), g=resp.shape[1])


def m_step(X, weights, model="full"):
    """Weighted parameter update for soft responsibilities or one-hot weights.

    Covariances are the weighted scatter divided by the column weight sum,
    ridge-regularized with eps * (trace / p) * I (eps = 1e-6), then
    constrained to the requested family. The ridge scale is floored at a
    thousandth of the mean feature variance of X: a cluster whose points
    coincide (a singleton, or a representation pulled onto its centroid)
    would otherwise shrink its covariance below floating-point resolution
    and poison every later Mahalanobis term.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(weights, dtype=float)
    if model not in COV_MODELS:
        raise InvalidInputError(f"unknown covariance model {model!r}")
    n, p = X.shape
    g = W.shape[1]
    totals = W.sum(axis=0)
    for k in range(g):
        if totals[k] <= 0.0:
            raise EmptyClusterError(k)
    pi = totals / n
    means = (W.T @ X) / totals[:, None]
    floor = max(1e-3 * float(np.mean(np.var(X, axis=0))), 1e-12)
    covs = np.empty((g, p, p))
    for k in range(g):
        diff = X - means[k]
        cov = (diff * W[:, k:k + 1]).T @ diff / totals[k]
        cov = 0.5 * (cov + cov.T)
        t = max(float(np.trace(cov)) / p, floor)
        covs[k] = cov + _COV_EPS * t * np.eye(p)
    if model == "diagonal":
        for k in range(g):
            covs[k] = np.diag(np.diag(covs[k]))
    elif model == "spherical":
        for k in range(g):
            covs[k] = (np.trace(covs[k]) / p) * np.eye(p)
    elif model == "spherical-tied":
        lam = float(np.sum(totals * np.trace(covs, axis1=1, axis2=2) / p)) / n
        covs = np.repeat((lam * np.eye(p))[None, :, :], g, axis=0)
    return MixtureParams(weights=pi, means=means, covariances=covs, model=model)


def complete_log_likelihood(X, partition, params):
    """Sum over rows of log pi_{z_i} + log phi_{z_i}(x_i).

    Each row is scored only under its own cluster.
    """
    X = np.asarray(X, dtype=float)
    assign = partition.assignments
    own = np.empty(X.shape[0])
    for k in range(params.g):
        rows = assign == k
        own[rows] = _component_log_joint(X[rows], params, k)
    # Summing in row order keeps the value independent of the cluster
    # labels, so restarts that reach one partition under different labels
    # tie exactly and the lowest restart index wins.
    return float(own.sum())


def log_likelihood(X, params):
    """Observed-data log-likelihood: row-wise log-sum-exp over components."""
    return _log_likelihood(log_joint(X, params))


def _log_likelihood(lp):
    return float(logsumexp(lp, axis=1).sum())


# ---------------------------------------------------------------------------
# K-means


def _seed_centers(X, g, rng):
    """k-means++ centers: each drawn with probability proportional to its
    squared distance from the nearest center chosen so far."""
    n = X.shape[0]
    centers = np.empty((g, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    for k in range(1, g):
        d2 = np.min(((X[:, None, :] - centers[None, :k, :]) ** 2).sum(axis=2),
                    axis=1)
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

    Returns (assignments, centers, wcss_trace, iterations). Empty clusters
    are reseeded with the point farthest from its own centroid (which then
    becomes that cluster's center, so the objective cannot increase).
    """
    if max_iter < 1:
        raise SettingError("max_iter", "must be >= 1")
    X = np.asarray(X, dtype=float)
    centers = np.array(centers, dtype=float)
    n = X.shape[0]
    g = centers.shape[0]
    trace = []
    prev_assign = None
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        taken = set()
        for k in range(g):
            if np.any(assign == k):
                continue
            own = d2[np.arange(n), assign].copy()
            own[list(taken)] = -np.inf
            far = int(np.argmax(own))
            assign[far] = k
            centers[k] = X[far]
            d2[:, k] = ((X - centers[k]) ** 2).sum(axis=1)
            taken.add(far)
        wcss = float(((X - centers[assign]) ** 2).sum())
        trace.append(wcss)
        centers = np.vstack([X[assign == k].mean(axis=0) for k in range(g)])
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if len(trace) >= 2 and _converged(trace[-2], trace[-1], tol):
            break
        prev_assign = assign
    wcss = float(((X - centers[assign]) ** 2).sum())
    trace.append(wcss)
    return assign, centers, trace, iterations


def _kmeans_params(X, partition, centers, wcss):
    n, p = X.shape
    counts = partition.counts()
    lam = wcss / (n * p)
    if lam <= 0.0:
        lam = max(float(np.mean(np.var(X, axis=0))), 1e-12) * _COV_EPS
    covs = np.repeat((lam * np.eye(p))[None, :, :], partition.g, axis=0)
    return MixtureParams(weights=counts / n, means=centers, covariances=covs,
                         model="spherical-tied")


def kmeans(X, g, max_iter=100, tol=1e-6, restarts=20, seed=0):
    """Lloyd's algorithm from k-means++ centers, best of `restarts` runs by
    within-cluster sum of squares."""
    X = np.asarray(X, dtype=float)
    _check_fit_args(X, g, tol)
    start = time.perf_counter()

    def fit_one(r):
        centers = _seed_centers(X, g, restart_rng(seed, r))
        assign, centers, trace, iters = lloyd(X, centers, max_iter=max_iter, tol=tol)
        part = Partition(assignments=assign, g=g)
        return FitResult(partition=part,
                         params=_kmeans_params(X, part, centers, trace[-1]),
                         objective_trace=trace, iterations=iters, seed=int(seed))

    return best_of_restarts(fit_one, restarts, operator.lt, start)


# ---------------------------------------------------------------------------
# EM and CEM


def em_gmm(X, g, max_iter=100, tol=1e-6, restarts=20, seed=0, model="full"):
    """Fit a Gaussian mixture by EM, initialized from a K-means partition.

    Keeps the restart with the highest observed-data log-likelihood; the
    final hard partition applies the MAP rule to the last E-step.
    """
    X = np.asarray(X, dtype=float)
    _check_fit_args(X, g, tol)
    start = time.perf_counter()

    def fit_one(r):
        km = kmeans(X, g, max_iter=max_iter, restarts=1, seed=child_seed(seed, r))
        params = m_step(X, km.partition.one_hot(), model)
        # One score matrix per parameter set: it gives the trace entry, the
        # next E-step and, for the last set, the MAP partition.
        lp = log_joint(X, params)
        trace = [_log_likelihood(lp)]
        iterations = 0
        for _ in range(max_iter):
            iterations += 1
            params = m_step(X, _posterior(lp), model)
            lp = log_joint(X, params)
            trace.append(_log_likelihood(lp))
            if _converged(trace[-2], trace[-1], tol):
                break
        return FitResult(partition=c_step(_posterior(lp)), params=params,
                         objective_trace=trace, iterations=iterations,
                         seed=int(seed))

    return best_of_restarts(fit_one, restarts, operator.gt, start)


def _repair_empty(assign, lp, g):
    """Seize the lowest-density points for clusters that came out empty."""
    present = np.bincount(assign, minlength=g)
    empties = np.where(present == 0)[0]
    if empties.size == 0:
        return assign
    density = logsumexp(lp, axis=1)
    order = np.argsort(density, kind="stable")
    assign = assign.copy()
    used = 0
    for k in empties:
        while used < order.size:
            i = order[used]
            used += 1
            donor = assign[i]
            if np.bincount(assign, minlength=g)[donor] > 1:
                assign[i] = k
                break
    return assign


def cem_refine(X, partition, params, max_iter=100, tol=1e-6):
    """Run E/C/M rounds from a warm state until the partition stabilizes.

    Every M-step refits the covariance model of the given params (params.model).
    Returns (partition, params, complete-log-likelihood trace, iterations).
    The trace is non-decreasing up to the covariance regularization slack.
    """
    X = np.asarray(X, dtype=float)
    rows = np.arange(X.shape[0])
    # One score matrix per parameter set: it gives the trace entry for the
    # partition it was fitted to and the C-step of the next iteration.
    lp = log_joint(X, params)
    trace = [float(lp[rows, partition.assignments].sum())]
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        assign = _repair_empty(np.argmax(lp, axis=1), lp, partition.g)
        new_part = Partition(assignments=assign, g=partition.g)
        params = m_step(X, new_part.one_hot(), params.model)
        lp = log_joint(X, params)
        trace.append(float(lp[rows, assign].sum()))
        unchanged = np.array_equal(new_part.assignments, partition.assignments)
        partition = new_part
        if unchanged or _converged(trace[-2], trace[-1], tol):
            break
    return partition, params, trace, iterations


def cem(X, g, max_iter=100, tol=1e-6, restarts=20, seed=0, model="full"):
    """Hard-assignment EM: a classification step between E and M.

    Maximizes the complete-data log-likelihood; empty clusters are repaired
    by reseeding them with the lowest-density point. Best restart by final
    complete-data log-likelihood.
    """
    X = np.asarray(X, dtype=float)
    _check_fit_args(X, g, tol)
    start = time.perf_counter()

    def fit_one(r):
        km = kmeans(X, g, max_iter=max_iter, restarts=1, seed=child_seed(seed, r))
        params = m_step(X, km.partition.one_hot(), model)
        partition, params, trace, iterations = cem_refine(
            X, km.partition, params, max_iter=max_iter, tol=tol)
        return FitResult(partition=partition, params=params,
                         objective_trace=trace, iterations=iterations,
                         seed=int(seed))

    return best_of_restarts(fit_one, restarts, operator.gt, start)


def _check_fit_args(X, g, tol):
    """Check g, the row count and tol, the arguments every fit shares.

    A negative or non-finite tol would never let _converged hold, so the
    fit would run to max_iter without a word.
    """
    if g < 1:
        raise SettingError("g", "must be >= 1")
    if X.shape[0] < g:
        raise InvalidInputError(f"need at least g={g} rows, got {X.shape[0]}")
    if not (math.isfinite(tol) and tol >= 0):
        raise SettingError("tol", f"must be finite and >= 0, got {tol}")
