"""Property tests for the batched-factor mixture kernel against the
single-point log_gaussian reference and scipy's triangular solve, for
log_joint's product over the (g, p, n) stack and update_M's closed form
against the per-component loops they replaced, for
complete_log_likelihood against cem_refine's trace entry, for m_step's
stacked ridge against the per-component reference, for cem_refine,
which fits and scores each partition once, against the reference that
rescores every round, for the one log-sum-exp reduction against scipy's,
for the feature-major Lloyd
kernel and its tie rule against the row-major reference and numpy's
argmin/argmax, for the k-means++ running distance against the broadcast
reference, for the restart engine and its sharing of repeated and
relabelled starts, for the start key against a contingency table, for
fit_cempca's one joint loop per refined partition against the reference
that runs every restart in full, also when it skips the loops whose lower
bound the kept objective beats, for both against the rule under which a
relabelled start competed, for fit_cempca at max_iter=0 against CEM
on the embedding and at max_iter=1, whose first sweep refines no start
again, and for the one empty-cluster repair that Lloyd and CEM share."""

import dataclasses
import functools
import operator
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.special

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cempca import baselines, mixture  # noqa: E402
from cempca import cempca as core  # noqa: E402
from cempca.data import gen_chang, gen_fcps, standardize  # noqa: E402
from cempca.errors import (DegenerateUpdateError,  # noqa: E402
                           EmptyClusterError, InvalidInputError,
                           NumericalError, SingularMatrixError)
from cempca.mixture import (COV_MODELS, FitResult, MixtureParams,  # noqa: E402
                            Partition, _posterior, _repair_empty,
                            best_of_restarts, cem, complete_log_likelihood,
                            e_step, kmeans, log_joint, m_step)
from oracles import best_of_restarts as every_restart  # noqa: E402
from oracles import relabels  # noqa: E402
from oracles import centroids, log_gaussian, lloyd as row_major_lloyd  # noqa: E402
from oracles import seed_centers as broadcast_seed_centers  # noqa: E402
from oracles import fit_cempca as every_joint_loop  # noqa: E402
import oracles  # noqa: E402

LOG_2PI = np.log(2 * np.pi)
SETTINGS = settings(max_examples=60, deadline=None)


def _covariances(rng, model, g, p):
    if model == "full":
        A = rng.standard_normal((g, p, p))
        return A @ A.transpose(0, 2, 1) / p + rng.uniform(0.1, 1.0, (g, 1, 1)) * np.eye(p)
    if model == "diagonal":
        return np.stack([np.diag(d) for d in rng.uniform(0.1, 3.0, (g, p))])
    if model == "spherical":
        return rng.uniform(0.1, 3.0, (g, 1, 1)) * np.eye(p)
    return np.repeat(rng.uniform(0.1, 3.0) * np.eye(p)[None], g, axis=0)


def _instance(seed, model, g, p, n=12):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.05, 1.0, g)
    params = MixtureParams(weights=weights / weights.sum(),
                           means=rng.standard_normal((g, p)) * rng.uniform(0.1, 5.0),
                           covariances=_covariances(rng, model, g, p), model=model)
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0)
    return params, X, rng


def _oracle(X, params):
    return np.array([[np.log(params.weights[k])
                      + log_gaussian(x, params.means[k], params.covariances[k])
                      for k in range(params.g)] for x in X])


def _assert_close(got, expected, p):
    # relative to the value, floored by the constant term so that entries
    # near zero (where the summands cancel) are not held to an absolute 0
    scale = np.abs(expected) + p * LOG_2PI
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


models = st.sampled_from(COV_MODELS)
seeds = st.integers(0, 2**32 - 1)


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 9), p=st.integers(1, 15))
def test_log_joint_matches_log_gaussian(seed, model, g, p):
    params, X, _ = _instance(seed, model, g, p)
    _assert_close(log_joint(X, params), _oracle(X, params), p)


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 9), p=st.integers(1, 15),
       repeated=st.booleans())
def test_log_joint_matches_the_per_component_reference(seed, model, g, p, repeated):
    # one product over the (g, p, n) stack scores as the per-component
    # loop does, byte for byte; the last row lies so far out that its
    # squared whitened residual overflows, unwarned, to a -inf score
    params, X, rng = _instance(seed, model, g, p)
    if repeated:
        X = X[rng.integers(0, 4, len(X))]
    X = np.vstack([X, np.full((1, p), 1e200)])
    got = log_joint(X, params)
    _assert_identical(got, oracles.log_joint(X, params))
    assert np.all(got[-1] == -np.inf)


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 9), p=st.integers(1, 15),
       delta=st.floats(0.0, 10.0), unused=st.booleans())
def test_update_M_matches_the_per_cluster_reference(seed, model, g, p, delta, unused):
    # m = b - (I + delta Sigma_k)^{-1} (b - s_k) for all rows at once, against
    # the per-cluster solve of (I + delta Sigma_k) m = s_k + delta Sigma_k b;
    # with unused, label 0 labels no row, and the reference skips it
    params, B, rng = _instance(seed, model, g, p, n=30)
    assign = rng.integers(0, g, len(B))
    if unused and g > 1:
        assign[assign == 0] = 1
    part = Partition(assignments=assign, g=g)
    got = core.update_M(B, part, params, delta)
    expected = oracles.update_M(B, part, params, delta)
    _assert_rel_close(got, expected)


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 9), p=st.integers(1, 15))
def test_complete_log_likelihood_matches_log_gaussian(seed, model, g, p):
    params, X, rng = _instance(seed, model, g, p)
    assign = rng.integers(0, g, X.shape[0])
    terms = _oracle(X, params)[np.arange(X.shape[0]), assign]
    got = complete_log_likelihood(X, Partition(assignments=assign, g=g), params)
    assert abs(got - terms.sum()) <= 1e-12 * (np.abs(terms).sum() + X.shape[0] * p * LOG_2PI)


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 9), p=st.integers(1, 15),
       repeated=st.booleans(), refit=st.booleans(),
       dtype=st.sampled_from([np.uint8, np.int32, np.int64]))
def test_complete_log_likelihood_is_the_cem_refine_trace_entry(seed, model, g, p,
                                                               repeated, refit, dtype):
    # one path scores a partition: complete_log_likelihood equals the trace
    # entry cem_refine computes for the same state bit for bit, whatever
    # the labels' integer type, and the same partition under other labels,
    # its components permuted to match, ties exactly
    rng = np.random.default_rng(seed)
    n = int(rng.integers(g, 60))
    X = rng.standard_normal((n, p)) * rng.uniform(0.01, 100.0)
    if repeated:
        X = X[rng.integers(0, max(g, n // 3), n)]
    part = Partition(assignments=mixture.random_partition(n, g, rng), g=g)
    last, last_params, trace, _ = mixture.cem_refine(X, part, model)
    labels = Partition(assignments=part.assignments.astype(dtype), g=g)
    assert complete_log_likelihood(X, labels, m_step(X, part, model)) == trace[0]
    assert complete_log_likelihood(X, last, last_params) == trace[-1]
    # params fitted on X, or on other rows as after B moved
    params = m_step(X + 0.1 * rng.standard_normal(X.shape) if refit else X, part, model)
    new = rng.permutation(g)          # label k becomes new[k]
    old = np.argsort(new)             # component j was component old[j]
    relabelled = MixtureParams(weights=params.weights[old], means=params.means[old],
                               covariances=params.covariances[old], model=model)
    assert complete_log_likelihood(X, Partition(assignments=new[part.assignments], g=g),
                                   relabelled) == complete_log_likelihood(X, labels, params)


def _rank_deficient_clusters(seed, g, p):
    """(X, assignments) for g clusters on subspaces of rank 0 to p - 1, so
    every m_step covariance is a rank-deficient scatter lifted by the ridge
    (a cluster of coincident rows keeps only the ridge floor)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(g):
        rank = int(rng.integers(0, p))
        basis = rng.standard_normal((rank, p)) * rng.uniform(0.1, 10.0)
        blocks.append(rng.standard_normal(p) * 5.0
                      + rng.standard_normal((int(rng.integers(2, 9)), rank)) @ basis)
    return np.vstack(blocks), np.repeat(np.arange(g), [len(b) for b in blocks])


def _ridge_floored(seed, model, g, p):
    X, assign = _rank_deficient_clusters(seed, g, p)
    return m_step(X, Partition(assignments=assign, g=g), model)


def _assert_rel_close(got, expected):
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected).max())


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 9), p=st.integers(1, 15),
       shuffle=st.booleans())
def test_m_step_on_a_partition_matches_one_hot_weights(seed, model, g, p, shuffle):
    X, assign = _rank_deficient_clusters(seed, g, p)
    if shuffle:
        order = np.random.default_rng(seed).permutation(len(assign))
        X, assign = X[order], assign[order]
    hard = m_step(X, Partition(assignments=assign, g=g), model)
    soft = m_step(X, np.eye(g)[assign], model)
    assert hard.model == soft.model == model
    _assert_rel_close(hard.weights, soft.weights)
    _assert_rel_close(hard.means, soft.means)
    for k in range(g):
        _assert_rel_close(hard.covariances[k], soft.covariances[k])


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 9), p=st.integers(1, 15),
       data=st.data())
def test_m_step_reports_the_empty_cluster_in_both_forms(seed, model, g, p, data):
    X, assign = _rank_deficient_clusters(seed, g, p)
    empty = data.draw(st.integers(0, g))
    assign = assign + (assign >= empty)
    for weights in (Partition(assignments=assign, g=g + 1), np.eye(g + 1)[assign]):
        with pytest.raises(EmptyClusterError) as err:
            m_step(X, weights, model)
        assert err.value.cluster == empty


def _with_coincident_cluster(X, labels, g, rng, soft):
    """X with three coincident rows appended as cluster g, and the weights
    of the g + 1 clusters: the Partition of labels and g, or Dirichlet rows
    over the first g clusters and weight one on cluster g for the three.
    That cluster has no scatter, so its covariance is the ridge alone."""
    n = len(X)
    X = np.vstack([X, np.repeat(X[:1] + 1.0, 3, axis=0)])
    if not soft:
        return X, Partition(assignments=np.append(labels, [g] * 3), g=g + 1)
    weights = np.zeros((n + 3, g + 1))
    weights[:n, :g] = rng.dirichlet(np.ones(g), n)
    weights[n:, g] = 1.0
    return X, weights


@SETTINGS
@given(seed=seeds, g=st.integers(1, 9), p=st.integers(1, 15),
       form=st.sampled_from(["one-hot", "soft", "one cluster", "shifted"]))
def test_m_step_ridge_floor_is_the_mean_feature_variance(seed, g, p, form):
    # a cluster of coincident rows has zero scatter, so its covariance is
    # the ridge alone: 1e-6 times the floor, times I. The floor is a
    # thousandth of X's mean feature variance, at least 1e-12, for hard
    # labels, one-hot rows and soft responsibilities alike. One cluster of
    # coincident integer rows has no variance, so its floor is 1e-12. On X
    # shifted by 1e6 a mean rounds at about 1e-10 absolute, so the floor is
    # held to 1e-8 relative, which one centred pass over X also meets.
    rng = np.random.default_rng(seed)
    if form == "one cluster":
        # g coincident rows in a single cluster
        X = np.repeat(rng.integers(-50, 50, (1, p)).astype(float), g, axis=0)
        forms, k = [Partition(assignments=np.zeros(g, dtype=int), g=1), np.ones((g, 1))], 0
    else:
        X, assign = _rank_deficient_clusters(seed, g, p)
        if form == "shifted":
            X = X + 1e6
        _, soft = _with_coincident_cluster(X, assign, g, rng, soft=True)
        X, hard = _with_coincident_cluster(X, assign, g, rng, soft=False)
        forms = [soft] if form == "soft" else [hard, np.eye(g + 1)[hard.assignments]]
        k = g
    floor = max(1e-3 * np.mean(np.var(X, axis=0)), 1e-12)
    rel = 1e-8 if form == "shifted" else 1e-12
    for weights in forms:
        cov = m_step(X, weights).covariances[k]
        assert np.all(np.abs(cov - 1e-6 * floor * np.eye(p)) <= rel * 1e-6 * floor)


@st.composite
def _partitioned_rows(draw):
    """(X, partition, rng): n rows in p = 1 to 18 dimensions, some of them
    repeated, under a random partition into g = 1 to 9 non-empty clusters."""
    rng = np.random.default_rng(draw(seeds))
    g, p = draw(st.integers(1, 9)), draw(st.integers(1, 18))
    n = draw(st.integers(g, 60))
    X = rng.standard_normal((n, p)) * rng.uniform(0.01, 100.0)
    if draw(st.booleans()):
        X = X[rng.integers(0, max(g, n // 3), n)]
    return X, Partition(assignments=mixture.random_partition(n, g, rng), g=g), rng


@SETTINGS
@given(case=_partitioned_rows(), model=models, soft=st.booleans())
def test_m_step_matches_the_per_component_reference(case, model, soft):
    # the (g, p, p) stack is symmetrized, ridged and constrained at once;
    # the reference does each component on its own. The appended cluster
    # of coincident rows makes the ridge floor bind on every draw.
    X, part, rng = case
    X, weights = _with_coincident_cluster(X, part.assignments, part.g, rng, soft)
    _assert_identical(m_step(X, weights, model), oracles.m_step(X, weights, model))


@SETTINGS
@given(case=_partitioned_rows(), model=models,
       max_iter=st.sampled_from([1, 2, 3, 100]), tol=st.sampled_from([0.0, 1e-6, 1e-2]))
def test_cem_refine_matches_the_reference_that_rescores_every_round(case, model, max_iter,
                                                                     tol):
    # the reference starts from the m_step of the partition on X, which
    # cem_refine's round 0 fits
    X, part, _ = case
    got = _outcome(lambda: mixture.cem_refine(X, part, model, max_iter, tol))
    _assert_identical(got, _outcome(lambda: oracles.cem_refine(
        X, part, m_step(X, part, model), max_iter, tol)))
    if not isinstance(got, str) and got[2][-1] is got[2][-2]:
        # a repeated trace object marks a fixed point: the reference's
        # refinement from the returned state returns it unchanged
        again = oracles.cem_refine(X, got[0], got[1], max_iter, tol)
        _assert_identical(again[:2], got[:2])


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 7), p=st.integers(1, 15),
       floored=st.booleans())
def test_inverse_factors_match_the_triangular_solve(seed, model, g, p, floored):
    params = (_ridge_floored(seed, model, g, p) if floored
              else _instance(seed, model, g, p)[0])
    _, inv_chol, _ = mixture._factors(params)
    assert inv_chol.shape == (g, p, p)
    assert np.all(np.triu(inv_chol, 1) == 0.0)
    for k in range(g):
        L = np.linalg.cholesky(params.covariances[k])
        expected = scipy.linalg.solve_triangular(L, np.eye(p), lower=True)
        assert np.all(np.abs(inv_chol[k] - expected) <= 1e-12 * np.abs(expected).max())


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 7), p=st.integers(1, 15),
       data=st.data())
def test_non_spd_covariance_raises(seed, model, g, p, data):
    params, X, rng = _instance(seed, model, g, p)
    k = data.draw(st.integers(0, g - 1))
    covs = params.covariances.copy()
    v = rng.standard_normal(p)
    # push one eigenvalue below zero along v
    covs[k] -= (np.linalg.eigvalsh(covs[k])[-1] + 1.0) * np.outer(v, v) / (v @ v)
    bad = replace(params, covariances=covs)
    part = Partition(assignments=np.arange(X.shape[0]) % g, g=g)
    for score in (lambda: log_joint(X, bad), lambda: e_step(X, bad),
                  lambda: complete_log_likelihood(X, part, bad)):
        with pytest.raises(SingularMatrixError):
            score()


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 7), p=st.integers(1, 15))
def test_replace_never_scores_with_stale_factors(seed, model, g, p):
    params, X, rng = _instance(seed, model, g, p)
    before = log_joint(X, params)
    other, _, _ = _instance(seed + 1, model, g, p)
    for changed in (replace(params, covariances=other.covariances),
                    replace(params, means=other.means),
                    replace(params, weights=other.weights)):
        _assert_close(log_joint(X, changed), _oracle(X, changed), p)
    assert np.array_equal(log_joint(X, params), before)


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 7), p=st.integers(1, 15))
def test_in_place_writes_score_as_a_fresh_instance(seed, model, g, p):
    # every scoring factors the arrays it is given, so writing into them
    # after a first score leaves nothing stale behind
    params, X, rng = _instance(seed, model, g, p)
    part = Partition(assignments=np.arange(X.shape[0]) % g, g=g)
    log_joint(X, params)
    params.covariances *= 2.0
    params.weights *= rng.uniform(0.05, 1.0, g)
    params.weights /= params.weights.sum()
    fresh = MixtureParams(weights=params.weights.copy(), means=params.means.copy(),
                          covariances=params.covariances.copy(), model=model)
    assert np.array_equal(log_joint(X, params), log_joint(X, fresh))
    assert np.array_equal(e_step(X, params), e_step(X, fresh))
    assert complete_log_likelihood(X, part, params) == complete_log_likelihood(X, part, fresh)


@st.composite
def _score_matrices(draw):
    """Score matrices whose rows tie at the maximum and hold -inf entries,
    with at least one finite entry per row."""
    n, g = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(seeds))
    lp = rng.standard_normal((n, g)) * 10.0 ** draw(st.integers(-3, 4)) + draw(
        st.floats(-1e4, 1e4))
    for i in range(n):
        kind = np.array(draw(st.lists(st.sampled_from(("draw", "top", "-inf")),
                                      min_size=g, max_size=g)))
        top = lp[i].max()
        lp[i, kind == "top"] = top
        lp[i, kind == "-inf"] = -np.inf
        if np.all(np.isneginf(lp[i])):
            lp[i, draw(st.integers(0, g - 1))] = top
    return lp


@SETTINGS
@given(lp=_score_matrices(), fortran=st.booleans())
def test_posterior_density_matches_scipy_logsumexp(lp, fortran):
    # a tolerance, not bitwise equality: older scipy releases sum the
    # terms in another order; log_joint's matrices are column-contiguous
    if fortran:
        lp = np.asfortranarray(lp)
    density, resp = _posterior(lp)
    assert np.allclose(density, scipy.special.logsumexp(lp, axis=1), rtol=1e-12, atol=1e-12)
    assert np.allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(resp[np.isneginf(lp)] == 0.0)


@SETTINGS
@given(lp=_score_matrices())
def test_first_best_breaks_ties_as_numpy(lp):
    # lp's rows tie at the maximum and hold repeated -inf entries, so both
    # directions meet ties; the helper scans the (g, n) transpose
    for better, reference in ((np.greater, np.argmax), (np.less, np.argmin)):
        index = mixture._first_best(lp.T, better)
        assert index.dtype == np.intp
        assert np.array_equal(index, reference(lp, axis=1))


def test_first_best_of_one_component_is_zero():
    # with g = 1 there is nothing to compare: every column picks row 0
    scores = np.array([[np.nan, -np.inf, 0.0, 3.5]])
    for better in (np.greater, np.less):
        index = mixture._first_best(scores, better)
        assert index.dtype == np.intp and index.tolist() == [0, 0, 0, 0]


@st.composite
def _lloyd_inputs(draw):
    """Rows, some repeated, and centres drawn from the rows with replacement,
    so that coincident centres leave clusters for the repair.

    The rows are normal draws rounded to 10 bits and scaled by a power of
    two, so every centroid sum is exact in any order: the two kernels' centres
    agree, and rows that tie about a centre (the two values of a two-value
    cluster, or copies split across clusters) tie in both. What differs is
    the order of each distance's p terms.
    """
    p, g = draw(st.integers(1, 16)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(seeds))
    X = np.ldexp(np.round(rng.standard_normal((draw(st.integers(1, 40)), p)) * 1024.0),
                 draw(st.integers(-12, -6)))
    X = np.vstack([X, X[rng.integers(0, X.shape[0], draw(st.integers(0, 20)))]])
    X = np.tile(X, (-(-g // X.shape[0]), 1))
    X = X[rng.permutation(X.shape[0])]
    return X, X[rng.integers(0, X.shape[0], g)]


@SETTINGS
@given(case=_lloyd_inputs())
def test_lloyd_matches_the_row_major_reference(case):
    # the feature-major kernel sums each distance in another order, so the
    # values agree to rounding and the assignments exactly
    X, centers = case
    assign, got_centers, trace, iterations = mixture.lloyd(X, centers)
    ref_assign, ref_centers, ref_trace, ref_iterations = row_major_lloyd(X, centers)
    assert np.array_equal(assign, ref_assign)
    assert iterations == ref_iterations
    _assert_rel_close(got_centers, ref_centers)
    _assert_rel_close(np.array(trace), np.array(ref_trace))
    _assert_rel_close(mixture._centroids(X, assign, centers.shape[0]),
                      centroids(X, assign, centers.shape[0]))


@SETTINGS
@given(seed=seeds, g=st.integers(1, 9), p=st.integers(1, 16), n=st.integers(1, 40),
       copies=st.integers(0, 20), layout=st.sampled_from(["C", "F", "strided"]))
def test_seed_centers_match_the_broadcast_reference(seed, g, p, n, copies, layout):
    # the running nearest distance sums each row's p terms as the (n, k, p)
    # array does, and the minimum is exact, so every draw is the same
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0)
    X = np.vstack([X, X[rng.integers(0, n, copies)]])
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        wide = np.zeros((X.shape[0], 2 * p))
        wide[:, ::2] = X
        X = wide[:, ::2]
    got = mixture._seed_centers(X, g, np.random.default_rng(seed))
    expected = broadcast_seed_centers(X, g, np.random.default_rng(seed))
    assert got.tobytes() == expected.tobytes()


def test_factor_cache_outside_repr_and_fields():
    params, X, _ = _instance(0, "full", 2, 3)
    text = repr(params)
    log_joint(X, params)
    assert repr(params) == text
    assert [f.name for f in MixtureParams.__dataclass_fields__.values()] == [
        "weights", "means", "covariances", "model"]


# One of each error type that skips a restart, built from a start's key.
SKIPPABLE = (lambda key: DegenerateUpdateError(f"degenerate from start {key}"),
             EmptyClusterError,
             lambda key: NumericalError(f"overflow from start {key}"),
             lambda key: SingularMatrixError(f"singular from start {key}"))


def _restart_result(value):
    return FitResult(partition=Partition(assignments=np.zeros(1, dtype=int), g=1),
                     params=None, objective_trace=[float(value)])


def _labels(key):
    """Labels for start key in [0, 8): row key in cluster 1 and the other
    seven rows in cluster 0, so no two keys' labels relabel each other."""
    return (np.arange(8) == key).astype(np.intp)


def _key(labels):
    return int(np.flatnonzero(labels)[0])


@SETTINGS
@given(outcomes=st.lists(st.tuples(st.integers(-2, 2), st.booleans()), min_size=1,
                         max_size=4),
       keys=st.lists(st.integers(0, 3), min_size=1, max_size=10),
       better=st.sampled_from([operator.lt, operator.gt]))
def test_best_of_restarts_keeps_first_strict_optimum(outcomes, keys, better):
    # restart r starts from key keys[r], and a start's tail always gives
    # its outcome: (final objective, whether it raises)
    keys = [key % len(outcomes) for key in keys]
    tails = []
    raised = []
    kept = []        # the kept final objective after each success

    def tail(init, incumbent=None):
        # the incumbent is the kept objective so far, None before a success
        assert incumbent == (kept[-1] if kept else None)
        key = _key(init)
        tails.append(key)
        value, fails = outcomes[key]
        if fails:
            raised.append(SKIPPABLE[key % len(SKIPPABLE)](key))
            raise raised[-1]
        kept.append(value if not kept or better(value, kept[-1]) else kept[-1])
        return _restart_result(value)

    def start(r):
        return _labels(keys[r])

    t0 = time.perf_counter()
    ok = [r for r, key in enumerate(keys) if not outcomes[key][1]]
    bad = [r for r, key in enumerate(keys) if outcomes[key][1]]
    # a failing start runs again at every repeat, a successful one only once
    expected_tails = [key for r, key in enumerate(keys) if r in bad or key not in keys[:r]]
    if not ok:
        with pytest.raises(NumericalError, match=f"all {len(keys)} restarts failed") as err:
            best_of_restarts(start, tail, len(keys), better, t0)
        assert err.value.__cause__ is raised[-1]
        assert tails == expected_tails
        return
    result = best_of_restarts(start, tail, len(keys), better, t0)
    assert tails == expected_tails
    target = (min if better is operator.lt else max)(outcomes[keys[r]][0] for r in ok)
    assert result.restart_index == next(r for r in ok if outcomes[keys[r]][0] == target)
    assert result.failed_restarts == [
        (r, f"{type(exc).__name__}: {exc}") for r, exc in zip(bad, raised)]
    assert result.wall_time >= 0.0


def test_best_of_restarts_stamps_the_kept_restart():
    # only the kept result gets restart_index: the others keep the default
    results = []

    def tail(init, incumbent=None):
        results.append(_restart_result(abs(_key(init) - 2)))
        return results[-1]

    result = best_of_restarts(lambda r: _labels(r + 1), tail, 5, operator.lt,
                              time.perf_counter())
    assert result is results[1]
    assert result.restart_index == 1 and result.objective_trace == [0.0]
    assert [res.restart_index for res in results] == [0, 1, 0, 0, 0]


def test_best_of_restarts_lists_a_failing_start():
    def start(r):
        if r == 1:
            raise NumericalError("no seed for restart 1")
        return _labels(r)

    result = best_of_restarts(start, lambda init, incumbent: _restart_result(-_key(init)), 3,
                              operator.lt, time.perf_counter())
    assert result.restart_index == 2
    assert result.failed_restarts == [(1, "NumericalError: no seed for restart 1")]


def test_best_of_restarts_counts_a_declined_tail_as_done():
    # a tail that returns None, as fit_cempca's does when its bound is
    # beaten, is recorded nowhere and its repeats are skipped; the kept
    # result and the incumbents the later tails see are those of the
    # restarts that ran
    seen = []

    def tail(init, incumbent=None):
        key = _key(init)
        seen.append((key, incumbent))
        return None if key == 2 else _restart_result(key)

    keys = [3, 2, 2, 1, 2, 4]
    result = best_of_restarts(lambda r: _labels(keys[r]), tail, len(keys), operator.lt,
                              time.perf_counter())
    assert seen == [(3, None), (2, 3.0), (1, 3.0), (4, 1.0)]
    assert result.restart_index == 3 and result.objective_trace == [1.0]
    assert result.failed_restarts == []


@st.composite
def _label_pairs(draw):
    """Two label vectors of one length: the second is the first with its
    values mapped one to one onto [0, 6), which can leave values unused, or
    drawn on its own, which is mostly another partition."""
    n = draw(st.integers(1, 12))
    a = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.intp)
    if draw(st.booleans()):
        values = draw(st.permutations(range(6)))
        b = np.array(values, dtype=np.intp)[a]
    else:
        b = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                     dtype=np.intp)
    return a, b


@SETTINGS
@given(pair=_label_pairs())
def test_start_keys_match_exactly_when_the_labels_relabel(pair):
    # the key is a renumbering; the reference reads the contingency table
    a, b = pair
    assert (mixture._start_key(a) == mixture._start_key(b)) == relabels(a, b)


def test_start_keys_of_centres_are_their_bytes():
    centres = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert mixture._start_key(centres) == centres.tobytes()
    assert mixture._start_key(centres[::-1]) != centres.tobytes()


def test_best_of_restarts_lets_other_errors_through():
    def tail(init, incumbent=None):
        raise InvalidInputError("bad argument")

    with pytest.raises(InvalidInputError, match="bad argument"):
        best_of_restarts(lambda r: np.array([r]), tail, 3, operator.lt,
                         time.perf_counter())


@SETTINGS
@given(seed=seeds, g=st.integers(1, 5), n=st.integers(5, 30), d=st.integers(1, 3),
       max_iter=st.integers(1, 5))
def test_kmeans_labels_are_a_one_restart_kmeans(seed, g, n, d, max_iter):
    # the identity that the starts of em_gmm, cem, reduced_kmeans and
    # fit_cempca rely on: the helper's restart 0 is kmeans(restarts=1)
    X = np.random.default_rng(seed).standard_normal((n, d)).round(1)
    expected = kmeans(X, g, max_iter=max_iter, restarts=1, seed=seed)
    got = mixture.kmeans_labels(X, g, seed, 0, max_iter)
    assert np.array_equal(got, expected.partition.assignments)


def _repair_reference(assign, score, g):
    """Fill each empty label in increasing order with the first row, by
    (score, index), that is not the last member of its cluster."""
    assign = list(assign)
    moved = []
    for k in range(g):
        if k in assign:
            continue
        for i in sorted(range(len(assign)), key=lambda i: (score[i], i)):
            if assign.count(assign[i]) > 1:
                assign[i] = k
                moved.append((k, i))
                break
    return assign, moved


@st.composite
def _labels_and_scores(draw):
    """n >= g labels drawn from a subset of range(g), and scores drawn from
    a few values so that rows tie."""
    g = draw(st.integers(1, 7))
    n = draw(st.integers(g, 15))
    used = draw(st.lists(st.integers(0, g - 1), min_size=1, max_size=g, unique=True))
    assign = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
    score = draw(st.lists(st.sampled_from([-2.5, -1.0, 0.0, 1.0, 3.0]),
                          min_size=n, max_size=n))
    return np.array(assign), np.array(score), g


@SETTINGS
@given(case=_labels_and_scores())
def test_repair_empty_matches_the_plain_rule(case):
    assign, score, g = case
    calls = []

    def lazy_score():
        calls.append(1)
        return score

    expected, expected_moved = _repair_reference(assign, score, g)
    got = assign.copy()
    moved = _repair_empty(got, lazy_score, g)
    assert got.tolist() == expected
    assert [(int(k), int(i)) for k, i in moved] == expected_moved
    assert sorted(set(got.tolist())) == list(range(g))
    # the score is computed only when some cluster is empty
    assert len(calls) == (len(set(assign.tolist())) < g)


@st.composite
def _coincident_rows(draw):
    """Integer-grid rows with fewer distinct values than clusters, each
    value on at least one row and the columns not all constant."""
    g = draw(st.integers(3, 5))
    d = draw(st.integers(1, 3))
    distinct = draw(st.integers(2, g - 1))
    grid = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                         min_size=distinct, max_size=distinct, unique_by=tuple))
    extra = draw(st.lists(st.integers(0, distinct - 1), min_size=g - distinct,
                          max_size=12))
    X = np.array(grid + [grid[j] for j in extra], dtype=float)
    return X[draw(st.permutations(range(X.shape[0])))], g


COINCIDENT_FITS = {
    "kmeans": lambda X, g, seed: kmeans(X, g, restarts=2, seed=seed),
    "cem": lambda X, g, seed: cem(X, g, restarts=2, seed=seed),
    "kmeans_pca": lambda X, g, seed: baselines.kmeans_pca(X, g, 1, restarts=2, seed=seed),
    "reduced_kmeans": lambda X, g, seed: baselines.reduced_kmeans(
        X, g, 1, restarts=2, seed=seed),
    "fit_cempca": lambda X, g, seed: core.fit_cempca(
        X, core.CempcaConfig(g=g, p=1, smoothing=0, restarts=2), seed=seed),
}


@SETTINGS
@given(case=_coincident_rows(), seed=st.integers(0, 3))
@pytest.mark.parametrize("method", list(COINCIDENT_FITS))
def test_fits_fill_every_cluster_when_rows_coincide(method, case, seed):
    # k-means++ runs out of distinct rows and seeds coincident centres, so
    # the assignment step leaves clusters empty; the repair must refill
    # them without emptying another (pytest turns numpy's empty-slice
    # RuntimeWarning into an error)
    X, g = case
    fit = COINCIDENT_FITS[method](X, g, seed)
    assert np.all(np.isfinite(fit.objective_trace))
    assert sorted(set(fit.partition.assignments.tolist())) == list(range(g))


def test_kmeans_fills_every_cluster_on_two_distinct_rows():
    fit = kmeans(np.array([[0.0], [1.0], [1.0]]), 3, restarts=1)
    assert sorted(fit.partition.assignments.tolist()) == [0, 1, 2]
    assert fit.objective_trace == [0.0, 0.0, 0.0]


SHARED_FITS = {
    "kmeans": lambda X, g, restarts, seed: kmeans(X, g, restarts=restarts, seed=seed),
    **{f"em_gmm-{model}": lambda X, g, restarts, seed, model=model: mixture.em_gmm(
        X, g, restarts=restarts, seed=seed, model=model) for model in COV_MODELS},
    **{f"cem-{model}": lambda X, g, restarts, seed, model=model: mixture.cem(
        X, g, restarts=restarts, seed=seed, model=model) for model in COV_MODELS},
    "reduced_kmeans": lambda X, g, restarts, seed: baselines.reduced_kmeans(
        X, g, 1, restarts=restarts, seed=seed),
    # p = 1 and no graph, so that the grid data's few rows are enough
    "fit_cempca": lambda X, g, restarts, seed: core.fit_cempca(
        X, core.CempcaConfig(g=g, p=1, smoothing=0, restarts=restarts), seed=seed),
}


def _assert_identical(a, b):
    """Equal bit for bit: every field of a dataclass but wall_time, every
    element of a list, tuple or dict, and every array's dtype, shape and bytes."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.name != "wall_time":
                _assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_identical(a[k], b[k])
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    else:
        assert a == b


def _outcome(fit):
    try:
        return fit()
    except NumericalError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_sharing_changes_nothing(fit):
    shared = _outcome(fit)
    with pytest.MonkeyPatch.context() as mp:
        # the fits look the loop up through the module when they run
        mp.setattr(mixture, "best_of_restarts", every_restart)
        alone = _outcome(fit)
    _assert_identical(shared, alone)


@st.composite
def _grid_rows(draw):
    """A few distinct integer-grid rows, each on one row or more, so that
    K-means restarts often reach the same partition."""
    g = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    grid = draw(st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                         min_size=2, max_size=6, unique_by=tuple))
    extra = draw(st.lists(st.integers(0, len(grid) - 1),
                          min_size=max(0, g - len(grid)), max_size=20))
    X = np.array(grid + [grid[j] for j in extra], dtype=float)
    return X[draw(st.permutations(range(X.shape[0])))], g


@settings(max_examples=15, deadline=None)
@given(case=_grid_rows(), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("method", list(SHARED_FITS))
def test_sharing_starts_changes_no_fit_on_grid_data(method, case, seed):
    X, g = case
    _assert_sharing_changes_nothing(lambda: SHARED_FITS[method](X, g, 6, seed))


TETRA = standardize(gen_fcps("tetra", seed=11).X)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
@pytest.mark.parametrize("method", list(SHARED_FITS))
def test_sharing_starts_changes_no_fit_on_tetra(method, seed):
    _assert_sharing_changes_nothing(lambda: SHARED_FITS[method](TETRA, 4, 10, seed))


# A tolerance of 1e-2 stops many refinements on tol, short of a fixed point;
# at 1e-6 every start on tetra ends at one. Either way the start's refinement
# is the first sweep's mixture step, and that sweep runs no CEM step.
tols = st.sampled_from([1e-6, 1e-2])


@settings(max_examples=15, deadline=None)
@given(case=_grid_rows(), seed=st.integers(0, 2**16), model=models, tol=tols)
def test_fit_cempca_matches_every_restart_in_full_on_grid_data(case, seed, model, tol):
    # fit_cempca runs the joint loop once per refined partition, refines a
    # seeding partition once and fits and scores each partition once; the
    # reference runs every restart in full, rescoring all. Neither runs a
    # CEM step in the first sweep.
    X, g = case
    cfg = core.CempcaConfig(g=g, p=1, smoothing=0, restarts=6, model=model, tol=tol)
    _assert_identical(_outcome(lambda: core.fit_cempca(X, cfg, seed=seed)),
                      _outcome(lambda: every_joint_loop(X, cfg, seed=seed)))


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), model=models, tol=tols)
def test_fit_cempca_matches_every_restart_in_full_on_tetra(seed, model, tol):
    cfg = core.CempcaConfig(g=4, p=2, restarts=10, model=model, tol=tol)
    _assert_identical(_outcome(lambda: core.fit_cempca(TETRA, cfg, seed=seed)),
                      _outcome(lambda: every_joint_loop(TETRA, cfg, seed=seed)))


CHANG = gen_chang(300, seed=5).X


@pytest.mark.parametrize("model, tol", [("spherical-tied", 1e-2), ("spherical", 1e-1)])
def test_fit_cempca_matches_every_restart_in_full_on_chang(model, tol):
    # at fit seed 3 some starts' refinements stop on tol, short of a fixed
    # point, and the first sweep still refines none of them again
    cfg = core.CempcaConfig(g=2, p=2, smoothing=0, restarts=10, model=model, tol=tol)
    _assert_identical(core.fit_cempca(CHANG, cfg, seed=3),
                      every_joint_loop(CHANG, cfg, seed=3))


# Data for the old rule, under which a relabelled start competed: tetra's
# four classes and chang's two, the latter at p = 15 = d with no graph
OLD_RULE_DATA = {"tetra": (TETRA, 4, core.CempcaConfig(g=4, p=2, restarts=10)),
                 "chang": (standardize(gen_chang(300, seed=5).X), 2,
                           core.CempcaConfig(g=2, p=15, smoothing=0, restarts=10))}


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
@pytest.mark.parametrize("data", list(OLD_RULE_DATA))
@pytest.mark.parametrize("method", [name for name in SHARED_FITS
                                    if name not in ("kmeans", "fit_cempca")])
def test_skipping_relabelled_starts_keeps_the_fit_of_the_old_rule(method, data, seed):
    # A relabelled start ends at a relabelled fit. Its objective ties with
    # the earlier one's, except that em_gmm's log-sum-exp over components
    # runs in label order: under a model that is not full, the old rule
    # could then keep another labelling of the same partition, by 1-2 ulp.
    X, g, _ = OLD_RULE_DATA[data]
    fit = _outcome(lambda: SHARED_FITS[method](X, g, 10, seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixture, "best_of_restarts",
                   functools.partial(every_restart, relabelled_compete=True))
        old = _outcome(lambda: SHARED_FITS[method](X, g, 10, seed))
    if isinstance(fit, str) or isinstance(old, str):
        assert fit == old
    elif method.startswith("em_gmm-") and method != "em_gmm-full":
        assert relabels(fit.partition.assignments, old.partition.assignments)
        assert fit.objective_trace[-1] == pytest.approx(old.objective_trace[-1],
                                                        rel=1e-12)
    else:
        _assert_identical(fit, old)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), model=st.sampled_from(["full", "spherical-tied"]))
@pytest.mark.parametrize("data", list(OLD_RULE_DATA))
def test_fit_cempca_keeps_the_fit_of_the_old_rule(data, seed, model):
    X, _, cfg = OLD_RULE_DATA[data]
    cfg = replace(cfg, model=model)
    _assert_identical(
        _outcome(lambda: core.fit_cempca(X, cfg, seed=seed)),
        _outcome(lambda: every_joint_loop(X, cfg, seed=seed, relabelled_compete=True)))


def _near_degenerate(n=100, gap=1e-12):
    """n centred rows whose singular values are sqrt(n) (3, 2, 2 (1 - gap),
    1): at p = 2 the second and third nearly tie, so the computed
    principal axes tilt within their plane."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, 4))
    U, _ = np.linalg.qr(A - A.mean(axis=0))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return (U * (np.sqrt(n) * np.array([3.0, 2.0, 2.0 * (1.0 - gap), 1.0]))) @ V.T


SMALL_TETRA = gen_fcps("tetra", n=100, seed=11).X
# Data for the pruning bound: tetra, where it prunes; tetra with a copied
# column at p = d, where s_p = 0 and the guard must refuse; and p < d with
# s_p and s_{p+1} nearly tied
PRUNING_DATA = {
    "tetra": (SMALL_TETRA, core.CempcaConfig(g=4, restarts=8)),
    "copied-column": (np.column_stack([SMALL_TETRA, SMALL_TETRA[:, 0]]),
                      core.CempcaConfig(g=4, p=4, restarts=8)),
    "near-degenerate": (_near_degenerate(),
                        core.CempcaConfig(g=3, p=2, smoothing=0, standardize=False,
                                          restarts=8)),
}


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**16))
@pytest.mark.parametrize("max_iter", [0, 1, 40])
@pytest.mark.parametrize("tol", [0.0, 1e-6, 1e-2])
@pytest.mark.parametrize("delta", [1e-6, 1e-2, 1.0])
@pytest.mark.parametrize("data", list(PRUNING_DATA))
def test_fit_cempca_prunes_only_loops_that_cannot_win(data, delta, tol, max_iter, seed):
    # fit_cempca skips a joint loop whose lower bound beats the kept
    # objective; the reference runs every loop in full, so the partition,
    # restart_index, both traces, the bundle and failed_restarts agree
    X, cfg = PRUNING_DATA[data]
    cfg = replace(cfg, delta=delta, tol=tol, max_iter=max_iter)
    _assert_identical(_outcome(lambda: core.fit_cempca(X, cfg, seed=seed)),
                      _outcome(lambda: every_joint_loop(X, cfg, seed=seed)))


def _start_floor(X, cfg):
    """The floor of the joint loop from restart 0's refined partition."""
    X = core.prepare_features(X, cfg)
    B, _ = core.pca_embed(X, cfg.p)
    part = mixture.cem_refine(B, Partition(assignments=core._seed_partition(B, cfg.g, 0, 0),
                                           g=cfg.g), cfg.model)[0]
    floor = core._objective_floor(X, B, core.update_Q(X, B), cfg)
    return floor(part, m_step(B, part, cfg.model))


@pytest.mark.parametrize("data, max_iter, finite", [
    ("copied-column", 0, True), ("copied-column", 1, False),
    ("near-degenerate", 1, True), ("tetra", 1, True)])
def test_objective_floor_guard(data, max_iter, finite):
    # s_p = 0 leaves the guard nothing to prove the first sweep's move with,
    # while max_iter = 0 needs no guard; a near tie of s_p and s_{p+1}
    # still lets it hold at the defaults
    X, cfg = PRUNING_DATA[data]
    assert np.isfinite(_start_floor(X, replace(cfg, max_iter=max_iter))) == finite


def test_fit_cempca_runs_update_B_only_in_loops_that_can_win(monkeypatch):
    # one entry per joint loop, the number of update_B calls it made: at
    # the defaults some loops are pruned before any block update; at
    # delta = 1 the guard never holds and every loop runs
    loops = []
    real_single, real_update_B = core._fit_single, core.update_B
    monkeypatch.setattr(core, "_fit_single",
                        lambda *args: loops.append(0) or real_single(*args))

    def update_B(*args):
        loops[-1] += 1
        return real_update_B(*args)

    monkeypatch.setattr(core, "update_B", update_B)
    ran = {}
    for delta in (1e-6, 1.0):
        loops.clear()
        core.fit_cempca(TETRA, core.CempcaConfig(g=4, delta=delta), seed=1)
        ran[delta] = (sum(1 for calls in loops if calls), len(loops))
    assert 0 < ran[1e-6][0] < ran[1e-6][1]
    assert ran[1.0][0] == ran[1.0][1] > 1


# (start, model, log_joint and m_step calls). The K-means start is a fixed
# point: round 0 fits and scores it, and the first C-step returns it. The
# random start takes several rounds, each an M-step and a scoring, and its
# last round returns the partition just fitted and calls neither.
@pytest.mark.parametrize("start_labels,model,calls", [
    *[("kmeans", model, 2) for model in COV_MODELS],
    ("random", "full", 28), ("random", "diagonal", 26), ("random", "spherical", 16),
    ("random", "spherical-tied", 20)])
def test_cem_refine_ignores_the_memory_layout_of_its_data(monkeypatch, start_labels, model,
                                                          calls):
    # C-order, Fortran-order and every other column of a wider array: the
    # one feature-major copy makes them the same data, and log_joint and
    # m_step get a view of that copy, so they copy nothing more
    wide = np.zeros((TETRA.shape[0], 2 * TETRA.shape[1]))
    wide[:, ::2] = TETRA
    labels = (mixture.kmeans_labels(TETRA, 4, 0, 0) if start_labels == "kmeans"
              else mixture.random_partition(len(TETRA), 4, np.random.default_rng(0)))
    start = Partition(assignments=labels, g=4)
    expected = mixture.cem_refine(TETRA, start, model)
    for X in (np.ascontiguousarray(TETRA), np.asfortranarray(TETRA), wide[:, ::2]):
        seen = []
        with monkeypatch.context() as mp:
            for name in ("log_joint", "m_step"):
                real = getattr(mixture, name)
                mp.setattr(mixture, name, lambda Y, *args, real=real, **kw: seen.append(Y)
                           or real(Y, *args, **kw))
            got = mixture.cem_refine(X, start, model)
        _assert_identical(got, expected)
        assert len(seen) == calls
        assert all(Y.T.flags.c_contiguous and Y.base is seen[0].base for Y in seen)


@pytest.mark.parametrize("model", COV_MODELS)
def test_cem_refine_returns_the_m_step_of_its_partition(model):
    # cem_refine's last M-step is the one it returns: bit for bit the
    # parameters of m_step on the returned partition
    for seed in range(3):
        start = Partition(assignments=mixture.kmeans_labels(TETRA, 4, seed, 0), g=4)
        partition, params, _, _ = mixture.cem_refine(TETRA, start, model)
        _assert_identical(params, m_step(TETRA, partition, model))


def _two_blobs(rng):
    return np.vstack([rng.standard_normal((24, 2)),
                      rng.standard_normal((6, 2)) + [40.0, 0.0]])


# Two far-apart blobs of 24 and 6 rows. At fit seed 6, every restart's
# k-means++ draws its first center from the same blob (checked below), so
# all five restarts start from one partition.
BLOBS = _two_blobs(np.random.default_rng(0))
BLOB_SEED = 6


@pytest.mark.parametrize("fit, module, counted", [
    (mixture.em_gmm, mixture, "m_step"),
    (mixture.cem, mixture, "cem_refine"),
    (baselines.reduced_kmeans, baselines, "polar"),
])
def test_a_repeated_start_runs_its_tail_once(monkeypatch, fit, module, counted):
    calls = []
    real = getattr(module, counted)
    monkeypatch.setattr(module, counted,
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    once = fit(BLOBS, 2, restarts=1, seed=BLOB_SEED)
    calls_once = len(calls)

    # the starts of each restart loop, the fit's own first (em_gmm's and
    # cem's starts run a one-restart kmeans loop each)
    loops = []
    real_loop = mixture.best_of_restarts

    def recording(start, tail, restarts, better, t0):
        starts = []
        loops.append(starts)
        return real_loop(lambda r: starts.append(start(r)) or starts[-1], tail,
                         restarts, better, t0)

    monkeypatch.setattr(mixture, "best_of_restarts", recording)
    calls.clear()
    result = fit(BLOBS, 2, restarts=5, seed=BLOB_SEED)
    starts = loops[0]
    assert len(starts) == 5 and all(np.array_equal(s, starts[0]) for s in starts)
    assert len(calls) == calls_once > 0
    assert result.restart_index == 0
    _assert_identical(result, once)


def _relabelling_classes(label_vectors):
    """The first label vector of each class of vectors that relabel each other."""
    firsts = []
    for labels in label_vectors:
        if not any(relabels(labels, first) for first in firsts):
            firsts.append(labels)
    return firsts


@pytest.mark.parametrize("model", ["full", "spherical-tied"])
def test_fit_cempca_refines_a_start_and_runs_a_loop_once(monkeypatch, model):
    # On BLOBS at fit seed 0 some of the six seeding partitions repeat or
    # relabel an earlier one, and distinct ones refine to one partition up
    # to relabelling (checked below). A fit must refine one seeding
    # partition per relabelling class and run the joint loop once per
    # class of refined partitions.
    cfg = core.CempcaConfig(g=2, p=1, smoothing=0, restarts=6, model=model)
    B, _ = core.pca_embed(core.prepare_features(BLOBS, cfg), cfg.p)
    starts = [core._seed_partition(B, 2, r, 0) for r in range(cfg.restarts)]
    seeding = _relabelling_classes(starts)
    refined = []
    for labels in seeding:
        part = Partition(assignments=labels, g=2)
        refined.append(mixture.cem_refine(B, part, model)[0].assignments)
    refined = _relabelling_classes(refined)
    assert len(refined) < len(seeding) < len({s.tobytes() for s in starts}) < cfg.restarts

    calls = {"update_B": 0, "cem_refine": 0}
    for module, name in ((core, "update_B"), (mixture, "cem_refine")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name, **kw: (
            calls.__setitem__(name, calls[name] + 1) or real(*args, **kw)))
    # no sweep: the only refines are the starts'
    core.fit_cempca(BLOBS, replace(cfg, max_iter=0), seed=0)
    assert calls == {"update_B": 0, "cem_refine": len(seeding)}
    # one sweep: one update_B per loop, and no more refines, since a
    # start's refinement is the mixture step for the first sweep's B
    calls.update(update_B=0, cem_refine=0)
    core.fit_cempca(BLOBS, replace(cfg, max_iter=1), seed=0)
    assert calls == {"update_B": len(refined), "cem_refine": len(seeding)}


def _cem_on_the_embedding(X, cfg, seed):
    """Best-of-restarts CEM on the principal embedding B of X's features
    from _seed_partition's labels: each restart refines them as
    fit_cempca's start does. The kept restart has the lowest
    ||X - B Q^T||^2 minus the complete log-likelihood of B, summed as
    fit_cempca sums its objective, ties going to the lowest restart. A
    restart whose refined partition relabels an earlier one does not
    compete."""
    X = core.prepare_features(X, cfg)
    B, _ = core.pca_embed(X, cfg.p)
    recon = core._sq(X - B @ core.update_Q(X, B).T)

    def start(r):
        part = Partition(assignments=core._seed_partition(B, cfg.g, r, seed), g=cfg.g)
        return mixture.cem_refine(B, part, cfg.model, tol=cfg.tol)[0].assignments

    def tail(labels):
        part = Partition(assignments=labels, g=cfg.g)
        params = m_step(B, part, cfg.model)
        ll = complete_log_likelihood(B, part, params)
        return FitResult(partition=part, params=params,
                         objective_trace=[core._total(recon, 0.0, ll, cfg.delta)])

    return every_restart(start, tail, cfg.restarts, operator.lt, time.perf_counter())


@st.composite
def _small_blobs(draw):
    """g Gaussian blobs of 3 to 10 rows in d = 1 to 3 dimensions, and p."""
    g, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    X = np.vstack([c + rng.standard_normal((draw(st.integers(3, 10)), d))
                   for c in rng.uniform(-6.0, 6.0, (g, d))])
    return X, g, draw(st.integers(1, d))


_fits_data = st.one_of(_small_blobs(), _grid_rows().map(lambda case: (*case, 1)))


@settings(max_examples=40, deadline=None)
@given(case=_fits_data, seed=st.integers(0, 2**16), model=models)
# two refined partitions whose log-likelihoods differ in the last bit
# tie once ||X - B Q^T||^2 is added: the lowest restart is kept
@example(case=(np.array([[1, 0], [2, 0], [1, 1], [1, 2], [0, 0], [0, 1], [1, 2], [1, 2]],
                        dtype=float), 2, 1), seed=0, model="full")
def test_fit_cempca_without_sweeps_keeps_the_cem_restart_on_the_embedding(case, seed,
                                                                          model):
    # At max_iter=0 the objective is ||X - B Q^T||^2, the same for every
    # restart, minus the complete log-likelihood of B (M = B), so the kept
    # restart is the one CEM on B keeps when it ranks restarts by that sum
    X, g, p = case
    cfg = core.CempcaConfig(g=g, p=p, smoothing=0, restarts=6, max_iter=0, model=model)
    fit = _outcome(lambda: core.fit_cempca(X, cfg, seed=seed))
    cem_fit = _outcome(lambda: _cem_on_the_embedding(X, cfg, seed))
    if isinstance(fit, str) or isinstance(cem_fit, str):
        assert fit == cem_fit
        return
    assert fit.restart_index == cem_fit.restart_index
    assert np.array_equal(fit.partition.assignments, cem_fit.partition.assignments)
    assert fit.failed_restarts == cem_fit.failed_restarts


@settings(max_examples=20, deadline=None)
@given(case=_fits_data, seed=st.integers(0, 2**16), model=models, tol=tols)
def test_fit_cempca_first_sweep_refines_no_start_again(case, seed, model, tol):
    # a start's refinement is the mixture step for the first sweep's B, so
    # a one-sweep fit calls cem_refine only for the starts, as a fit with no
    # sweep does, whether the refinements stopped at a fixed point or on tol
    X, g, p = case
    calls = []
    real = mixture.cem_refine
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixture, "cem_refine",
                   lambda *args, **kw: calls.append(1) or real(*args, **kw))
        for max_iter in (0, 1):
            calls.clear()
            cfg = core.CempcaConfig(g=g, p=p, smoothing=0, restarts=6, max_iter=max_iter,
                                    model=model, tol=tol)
            _outcome(lambda: core.fit_cempca(X, cfg, seed=seed))
            counts.append(len(calls))
    assert counts[0] == counts[1]
