"""Property tests for the cached-factor mixture kernel against the
single-point log_gaussian reference."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cempca.errors import SingularMatrixError  # noqa: E402
from cempca.mixture import (COV_MODELS, MixtureParams, Partition,  # noqa: E402
                            complete_log_likelihood, e_step, log_gaussian,
                            log_joint)

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
