"""Plain references for the library's batched kernels and restart loops.

The density references are written on scipy.linalg, which the library itself
never calls, so a test compares two independent LAPACK paths. The Lloyd
reference works row-major, on the (n, p) rows, where the library works on
one feature-major (p, n) copy. The k-means++ reference recomputes every
row's distances to all earlier centres at each draw, where the library keeps
a running nearest distance. The restart references run every restart in
full and tell a relabelled start by its contingency table rather than by a
renumbering. The joint-fit references fit and score every partition anew:
the M-step one component at a time, every CEM round rescored, and every
block update's objective computed in full. The sign rule flips one factor
column at a time, where the library flips all columns at once. The scoring
and M-row references loop over the components, where the library works on
the (g, p, n) stack: log_joint one component's rows at a time, update_M one
cluster's rows at a time, in the solve's (I + delta Sigma_k) m = s_k +
delta Sigma_k b form.
"""

import operator
import time
from dataclasses import replace

import numpy as np
import scipy.linalg

from cempca import cempca as core
from cempca import mixture
from cempca.errors import (EmptyClusterError, NumericalError, SettingError,
                           SingularMatrixError)
from cempca.linalg import spd_solve

LOG_2PI = float(np.log(2.0 * np.pi))
COV_EPS = 1e-6


def log_gaussian(x, mean, cov):
    """Log density of x under a Gaussian with the given mean and SPD covariance.

    Factors the covariance on every call; it is the single-point reference
    for the batched mixture kernel behind log_joint, which factors all g
    covariances at once.
    """
    x = np.asarray(x, dtype=float)
    cov = np.asarray(cov, dtype=float)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("covariance is not positive-definite") from None
    sol = scipy.linalg.solve_triangular(L, x - np.asarray(mean, dtype=float), lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(-0.5 * (x.size * LOG_2PI + logdet + sol @ sol))


def log_joint(X, params):
    """mixture.log_joint one component at a time, on the library's batched
    factors: each fills its own contiguous row of the (g, n) array."""
    XT = mixture._feature_major(X)
    log_w, inv_chol, logdet = mixture._factors(params)
    lp = np.empty((params.g, XT.shape[1]))
    with np.errstate(over="ignore"):
        for k in range(params.g):
            sol = inv_chol[k] @ (XT - params.means[k][:, None])
            sol *= sol
            lp[k] = log_w[k] - 0.5 * (params.p * LOG_2PI + logdet[k] + sol.sum(axis=0))
    return lp.T


def update_M(B, partition, params, delta):
    """cempca.update_M one cluster at a time: each non-empty cluster's rows
    are gathered and solve (I + delta Sigma_k) m = s_k + delta Sigma_k b
    through spd_solve, and are scattered back."""
    B = np.asarray(B, dtype=float)
    M = np.empty_like(B)
    eye = np.eye(B.shape[1])
    for k in range(params.g):
        rows = np.where(partition.assignments == k)[0]
        if rows.size == 0:
            continue
        cov = params.covariances[k]
        rhs = B[rows] @ (delta * cov) + params.means[k][None, :]
        M[rows] = spd_solve(eye + delta * cov, rhs.T).T
    return M


def fix_signs(U, *companions):
    """linalg.fix_signs one column at a time: a column whose first
    largest-magnitude entry is negative flips, in U and in every companion."""
    U = U.copy()
    companions = [C.copy() for C in companions]
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
            for C in companions:
                C[:, j] = -C[:, j]
    if companions:
        return (U, *companions)
    return U


def relabels(a, b):
    """Whether the label vectors a and b name one partition: their
    contingency table has one nonzero cell in each used row and column."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=int)
    np.add.at(table, (a, b), 1)
    nonzero = table > 0
    return bool(np.all(nonzero.sum(axis=1)[nonzero.any(axis=1)] == 1)
                and np.all(nonzero.sum(axis=0)[nonzero.any(axis=0)] == 1))


def best_of_restarts(start, tail, restarts, better, t0, relabelled_compete=False):
    """The restart rule with no sharing: every restart runs tail(start(r)),
    a repeated start included, and the first restart with the strictly best
    final objective is kept. A restart whose integer labels relabel the
    start of an earlier successful restart does not compete, unless
    relabelled_compete (the rule before starts were compared up to
    relabelling). It takes mixture.best_of_restarts' arguments and fills the
    same fields of the kept result."""
    if restarts < 1:
        raise SettingError("restarts", "must be >= 1")
    done, starts, failed, errors = [], [], [], []
    for r in range(restarts):
        try:
            init = start(r)
            result = tail(init)
        except NumericalError as exc:
            failed.append((r, f"{type(exc).__name__}: {exc}"))
            errors.append(exc)
            continue
        labels = init.dtype.kind in "iu" and not relabelled_compete
        if not (labels and any(relabels(init, earlier) for earlier in starts)):
            done.append((r, result))
        starts.append(init)
    if not done:
        raise NumericalError(f"all {restarts} restarts failed: {failed[-1][1]}") from errors[-1]
    kept, best = done[0]
    for r, result in done[1:]:
        if better(result.objective_trace[-1], best.objective_trace[-1]):
            kept, best = r, result
    best.restart_index = kept
    best.failed_restarts = failed
    best.wall_time = time.perf_counter() - t0
    return best


def fit_cempca(X_raw, cfg, seed=0, relabelled_compete=False):
    """fit_cempca with no sharing between restarts, under best_of_restarts
    above: every restart seeds and refines by CEM on B, which gives its start
    (the refined partition), then runs the joint loop from the m_step of
    that partition. The refinement, the M-step, the joint loop and the
    objective are the references below, not the library's. It skips the
    settings checks, so it takes valid settings only."""
    t0 = time.perf_counter()
    X = core.prepare_features(np.asarray(X_raw, dtype=float), cfg)
    B, _ = core.pca_embed(X, cfg.p)
    Q = core.update_Q(X, B)

    def start(r):
        part = mixture.Partition(assignments=core._seed_partition(B, cfg.g, r, seed),
                                 g=cfg.g)
        return cem_refine(B, part, m_step(B, part, cfg.model), tol=cfg.tol)[0].assignments

    def tail(labels):
        return fit_single(X, B, Q, cfg, mixture.Partition(assignments=labels, g=cfg.g))

    return best_of_restarts(start, tail, cfg.restarts, operator.lt, t0, relabelled_compete)


def fit_single(X, B, Q, cfg, part):
    """The joint loop from the m_step below of the partition on B, with
    every block update scored in full by objective below (four objective
    calls in a one-sweep loop). The first sweep's mixture step is the
    refinement that gave the partition, so it runs none; every later one
    refines by cem_refine below, from the m_step of the partition on the
    current B."""
    params = m_step(B, part, cfg.model)
    bundle = core.EmbeddingBundle(B=B, Q=Q, M=B.copy())
    trace = [objective(X, bundle, part, params, cfg.delta)]
    steps = []
    for sweep in range(cfg.max_iter):
        start_part, start_B = part, bundle.B
        M = core.update_M(bundle.B, part, params, cfg.delta)
        bundle = replace(bundle, M=M)
        current = objective(X, bundle, part, params, cfg.delta)
        steps.append(("M", current))
        if sweep > 0:
            cand_part, cand_params, _, _ = cem_refine(
                bundle.B, part, m_step(bundle.B, part, cfg.model), tol=cfg.tol)
            cand = objective(X, bundle, cand_part, cand_params, cfg.delta)
            if cand <= current:
                part, params, current = cand_part, cand_params, cand
        steps.append(("cem", current))
        B = core.update_B(X, bundle.Q, M, cfg.delta)
        bundle = replace(bundle, B=B)
        steps.append(("B", objective(X, bundle, part, params, cfg.delta)))
        bundle = replace(bundle, Q=core.update_Q(X, B))
        value = objective(X, bundle, part, params, cfg.delta)
        steps.append(("Q", value))
        trace.append(value)
        fixed = (np.array_equal(part.assignments, start_part.assignments)
                 and np.linalg.norm(B - start_B) <= cfg.tol * np.linalg.norm(start_B))
        if fixed or mixture._converged(trace[-2], trace[-1], cfg.tol):
            break
    return mixture.FitResult(partition=part, params=params, objective_trace=trace,
                             bundle=bundle, step_trace=steps)


def objective(X, bundle, partition, params, delta):
    """The joint objective in one expression, every term recomputed."""
    X = np.asarray(X, dtype=float)
    resid = X - bundle.B @ bundle.Q.T
    gap = bundle.B - bundle.M
    ll = mixture.complete_log_likelihood(bundle.M, partition, params)
    return float(np.sum(resid * resid) + delta * np.sum(gap * gap) - ll)


def cem_refine(X, partition, params, max_iter=100, tol=1e-6):
    """mixture.cem_refine from params fitted to the partition, with every
    round's M-step (m_step below) and scoring run, the round that returns
    the partition it was given included. It returns the same (partition,
    params, trace, iterations) as mixture.cem_refine(X, partition,
    params.model, max_iter, tol) when params is the m_step of the
    partition on X."""
    XT = mixture._feature_major(X)
    X = XT.T
    n = XT.shape[1]
    rows = np.arange(n)
    lp = mixture.log_joint(X, params)
    trace = [float(lp.T.ravel().take(np.asarray(partition.assignments) * n + rows).sum())]
    for _ in range(max_iter):
        assign = mixture._first_best(lp.T, np.greater)
        mixture._repair_empty(assign, lambda: mixture._posterior(lp)[0], partition.g)
        new_part = mixture.Partition(assignments=assign, g=partition.g)
        params = m_step(X, new_part, params.model)
        lp = mixture.log_joint(X, params)
        trace.append(float(lp.T.ravel().take(assign * n + rows).sum()))
        unchanged = np.array_equal(new_part.assignments, partition.assignments)
        partition = new_part
        if unchanged or mixture._converged(trace[-2], trace[-1], tol):
            break
    return partition, params, trace, len(trace) - 1


def m_step(X, weights, model="full"):
    """mixture.m_step one component at a time: each covariance is
    symmetrized, ridged and constrained on its own, and each component's
    share of the ridge floor (its scatter's trace plus its mean's squared
    distance from the weighted mean) is formed on its own. The weighted
    sums over components are the library's dot products, so the floor
    matches bit for bit. It takes m_step's arguments."""
    XT = mixture._feature_major(X)
    p, n = XT.shape
    hard = isinstance(weights, mixture.Partition)
    if hard:
        g = weights.g
        totals = np.bincount(weights.assignments, minlength=g).astype(float)
    else:
        W = np.asarray(weights, dtype=float)
        g = W.shape[1]
        totals = W.sum(axis=0)
    for k in range(g):
        if totals[k] <= 0.0:
            raise EmptyClusterError(k)
    pi = totals / n
    means = np.empty((g, p)) if hard else np.ascontiguousarray((XT @ W).T) / totals[:, None]
    covs = np.empty((g, p, p))
    traces = np.empty(g)
    for k in range(g):
        if hard:
            cols = XT.take(np.flatnonzero(weights.assignments == k), axis=1)
            means[k] = cols @ np.ones(cols.shape[1]) / totals[k]
            diff = cols - means[k][:, None]
            cov = diff @ diff.T / totals[k]
        else:
            diff = XT - means[k][:, None]
            cov = (diff * W[:, k]) @ diff.T / totals[k]
        covs[k] = 0.5 * (cov + cov.T)
        traces[k] = np.trace(covs[k])
    centre = totals @ means / n
    shares = np.array([traces[k] + float(np.sum((means[k] - centre) ** 2)) for k in range(g)])
    floor = max(1e-3 * float(totals @ shares) / (n * p), 1e-12)
    for k in range(g):
        covs[k] = covs[k] + COV_EPS * max(traces[k] / p, floor) * np.eye(p)
    if model == "diagonal":
        for k in range(g):
            covs[k] = np.diag(np.diag(covs[k]))
    elif model == "spherical":
        for k in range(g):
            covs[k] = (np.trace(covs[k]) / p) * np.eye(p)
    elif model == "spherical-tied":
        lam = float(np.sum(totals * np.trace(covs, axis1=1, axis2=2) / p)) / n
        covs = np.repeat((lam * np.eye(p))[None, :, :], g, axis=0)
    return mixture.MixtureParams(weights=pi, means=means, covariances=covs, model=model)


def lloyd(X, centers, max_iter=100, tol=1e-6):
    """Lloyd rounds on the (n, p) rows: the squared distances are summed per
    row and np.argmin picks the nearest centre. It takes mixture.lloyd's
    arguments, refills empty clusters by the same rule, and returns the same
    (assignments, centers, wcss_trace, iterations)."""
    X = np.asarray(X, dtype=float)
    centers = np.array(centers, dtype=float)
    g = centers.shape[0]
    trace = []
    prev_assign = None
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        for k, i in mixture._repair_empty(assign, lambda: -d2.min(axis=1), g):
            centers[k] = X[i]
        trace.append(float(((X - centers[assign]) ** 2).sum()))
        centers = centroids(X, assign, g)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if len(trace) >= 2 and mixture._converged(trace[-2], trace[-1], tol):
            break
        prev_assign = assign
    trace.append(float(((X - centers[assign]) ** 2).sum()))
    return assign, centers, trace, len(trace) - 1


def seed_centers(X, g, rng):
    """k-means++ centres as mixture._seed_centers draws them, from an (n, k, p)
    array of each row's distances to the k centres chosen so far."""
    n = X.shape[0]
    centers = np.empty((g, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    for k in range(1, g):
        d2 = np.min(((X[:, None, :] - centers[None, :k, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total > 0:
            centers[k] = X[rng.choice(n, p=d2 / total)]
        else:
            centers[k] = X[rng.integers(n)]
    return centers


def centroids(X, assign, g):
    """(g, p) matrix of each cluster's mean row of the (n, p) rows X."""
    return np.vstack([X.take(np.flatnonzero(assign == k), axis=0).mean(axis=0)
                      for k in range(g)])
