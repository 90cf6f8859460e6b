"""Property tests for the cached-factor mixture kernel against the
single-point log_gaussian reference and scipy's triangular solve, and for
the restart engine."""

import operator
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cempca.errors import (DegenerateUpdateError,  # noqa: E402
                           EmptyClusterError, InvalidInputError,
                           NumericalError, SingularMatrixError)
from cempca.mixture import (COV_MODELS, FitResult, MixtureParams,  # noqa: E402
                            Partition, best_of_restarts,
                            complete_log_likelihood, e_step, log_joint, m_step)
from oracles import log_gaussian  # noqa: E402

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
@given(seed=seeds, model=models, g=st.integers(1, 7), p=st.integers(1, 15))
def test_log_joint_matches_log_gaussian(seed, model, g, p):
    params, X, _ = _instance(seed, model, g, p)
    _assert_close(log_joint(X, params), _oracle(X, params), p)


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 7), p=st.integers(1, 15))
def test_complete_log_likelihood_matches_log_gaussian(seed, model, g, p):
    params, X, rng = _instance(seed, model, g, p)
    assign = rng.integers(0, g, X.shape[0])
    terms = _oracle(X, params)[np.arange(X.shape[0]), assign]
    got = complete_log_likelihood(X, Partition(assignments=assign, g=g), params)
    assert abs(got - terms.sum()) <= 1e-12 * (np.abs(terms).sum() + X.shape[0] * p * LOG_2PI)


def _ridge_floored(seed, model, g, p):
    """m_step params whose clusters lie on subspaces of rank 0 to p - 1, so
    every covariance is a rank-deficient scatter lifted by m_step's ridge
    (a cluster of coincident rows keeps only the ridge floor)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(g):
        rank = int(rng.integers(0, p))
        basis = rng.standard_normal((rank, p)) * rng.uniform(0.1, 10.0)
        blocks.append(rng.standard_normal(p) * 5.0
                      + rng.standard_normal((int(rng.integers(2, 9)), rank)) @ basis)
    X = np.vstack(blocks)
    assign = np.repeat(np.arange(g), [len(b) for b in blocks])
    return m_step(X, Partition(assignments=assign, g=g).one_hot(), model)


@SETTINGS
@given(seed=seeds, model=models, g=st.integers(1, 7), p=st.integers(1, 15),
       floored=st.booleans())
def test_inverse_factors_match_the_triangular_solve(seed, model, g, p, floored):
    params = (_ridge_floored(seed, model, g, p) if floored
              else _instance(seed, model, g, p)[0])
    _, inv_chol, _ = params._factors
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


def test_factor_cache_outside_repr_and_fields():
    params, X, _ = _instance(0, "full", 2, 3)
    text = repr(params)
    log_joint(X, params)
    assert repr(params) == text
    assert [f.name for f in MixtureParams.__dataclass_fields__.values()] == [
        "weights", "means", "covariances", "model"]


# One of each error type that skips a restart, built from the restart index.
SKIPPABLE = (lambda r: DegenerateUpdateError(f"degenerate at restart {r}"),
             EmptyClusterError,
             lambda r: NumericalError(f"overflow at restart {r}"),
             lambda r: SingularMatrixError(f"singular at restart {r}"))


def _restart_result(value, r):
    return FitResult(partition=Partition(assignments=np.zeros(1, dtype=int), g=1),
                     params=None, objective_trace=[float(value)], iterations=1,
                     seed=0, restart_index=r, wall_time=0.0)


@SETTINGS
@given(runs=st.lists(st.tuples(st.integers(-2, 2), st.booleans()), min_size=1,
                     max_size=10),
       better=st.sampled_from([operator.lt, operator.gt]))
def test_best_of_restarts_keeps_first_strict_optimum(runs, better):
    raised = []

    def fit_one(r):
        value, fails = runs[r]
        if fails:
            raised.append(SKIPPABLE[r % len(SKIPPABLE)](r))
            raise raised[-1]
        return _restart_result(value, r)

    start = time.perf_counter()
    ok = [r for r, (_, fails) in enumerate(runs) if not fails]
    if not ok:
        with pytest.raises(NumericalError, match=f"all {len(runs)} restarts failed") as err:
            best_of_restarts(fit_one, len(runs), better, start)
        assert err.value.__cause__ is raised[-1]
        return
    result = best_of_restarts(fit_one, len(runs), better, start)
    target = (min if better is operator.lt else max)(runs[r][0] for r in ok)
    assert result.restart_index == next(r for r in ok if runs[r][0] == target)
    assert result.failed_restarts == [
        (r, f"{type(exc).__name__}: {exc}")
        for r, exc in zip([r for r, (_, fails) in enumerate(runs) if fails], raised)]
    assert result.wall_time >= 0.0


def test_best_of_restarts_stamps_the_kept_restart():
    # a fit built without restart_index gets the index of the restart kept
    def fit_one(r):
        return FitResult(partition=Partition(assignments=np.zeros(1, dtype=int), g=1),
                         params=None, objective_trace=[float(abs(r - 2))],
                         iterations=1, seed=0)

    result = best_of_restarts(fit_one, 5, operator.lt, time.perf_counter())
    assert result.restart_index == 2 and result.objective_trace == [0.0]


def test_best_of_restarts_lets_other_errors_through():
    def fit_one(r):
        raise InvalidInputError("bad argument")

    with pytest.raises(InvalidInputError, match="bad argument"):
        best_of_restarts(fit_one, 3, operator.lt, time.perf_counter())
    with pytest.raises(InvalidInputError, match="restarts must be >= 1"):
        best_of_restarts(lambda r: _restart_result(0, r), 0, operator.lt,
                         time.perf_counter())
