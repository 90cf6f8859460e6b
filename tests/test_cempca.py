import hashlib
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cempca import cempca as core
from cempca import mixture
from cempca.baselines import kmeans_pca, reduced_kmeans
from cempca.cempca import (CempcaConfig, EmbeddingBundle, fit_cempca,
                           objective, pca_embed, prepare_features, update_B,
                           update_M, update_Q)
from cempca.data import (FCPS_CLASS_COUNTS, FCPS_SHAPES, gen_chang, gen_fcps,
                         knn_graph, standardize)
from cempca.errors import (DegenerateUpdateError, InvalidInputError,
                           NumericalError, SettingError, SingularMatrixError)
from cempca.linalg import thin_svd
from cempca.metrics import ari
from cempca.mixture import (MixtureParams, Partition, complete_log_likelihood,
                            m_step)


def _random_spd(rng, p, ridge=1.0):
    R = rng.standard_normal((p, p))
    return R @ R.T / p + ridge * np.eye(p)


def test_pca_embed_axis_aligned():
    rng = np.random.default_rng(0)
    X = np.zeros((20, 2))
    X[:, 0] = rng.standard_normal(20) * 3.0
    B, Q = pca_embed(X, 1)
    assert abs(Q[1, 0]) <= 1e-10
    assert np.allclose(B.T @ B, 1.0, atol=1e-12)


def test_pca_embed_full_rank_reconstruction():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((15, 4))
    B, Q = pca_embed(X, 4)
    Xc = X - X.mean(axis=0)
    assert np.linalg.norm(Xc - B @ Q.T) <= 1e-9


def test_pca_embed_truncation_error_matches_svd():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 6))
    B, Q = pca_embed(X, 3)
    Xc = X - X.mean(axis=0)
    _, s, _ = thin_svd(Xc)
    err = np.linalg.norm(Xc - B @ Q.T) ** 2
    assert np.isclose(err, np.sum(s[3:] ** 2), atol=1e-8)


def test_pca_embed_rejects_large_p():
    with pytest.raises(InvalidInputError):
        pca_embed(np.zeros((5, 3)), 4)


def test_update_Q_identity_case():
    X = np.eye(3)
    B = np.eye(3)[:, :2]
    assert np.allclose(update_Q(X, B), np.eye(3)[:, :2], atol=1e-14)


def test_update_Q_pythagoras_identity():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 5))
    B, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    Q = update_Q(X, B)
    lhs = np.linalg.norm(X - B @ Q.T) ** 2
    rhs = np.linalg.norm(X) ** 2 - np.linalg.norm(Q) ** 2
    assert np.isclose(lhs, rhs, atol=1e-9)


def test_update_Q_product_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 4))
    B = rng.standard_normal((10, 2))
    expected = np.array([[X[:, j] @ B[:, k] for k in range(2)] for j in range(4)])
    assert np.allclose(update_Q(X, B), expected, atol=1e-12)


def test_update_Q_rejects_mismatched_rows():
    with pytest.raises(InvalidInputError, match="^X has 4 rows but B has 3$"):
        update_Q(np.zeros((4, 2)), np.zeros((3, 2)))


def test_update_B_polar_identity():
    rng = np.random.default_rng(5)
    T, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    # X Q + delta M = T, already column-orthonormal
    B = update_B(T, np.eye(3), np.zeros((12, 3)), 0.0)
    assert np.allclose(B, T, atol=1e-10)


def test_update_B_delta_zero_ignores_M():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 4))
    Q = rng.standard_normal((4, 2))
    M1 = rng.standard_normal((10, 2))
    M2 = rng.standard_normal((10, 2))
    assert np.allclose(update_B(X, Q, M1, 0.0), update_B(X, Q, M2, 0.0),
                       atol=1e-12)


def test_update_B_orthonormal_and_optimal():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((25, 6))
    Q = rng.standard_normal((6, 2))
    M = rng.standard_normal((25, 2))
    delta = 0.3
    B = update_B(X, Q, M, delta)
    assert np.allclose(B.T @ B, np.eye(2), atol=1e-10)
    T = X @ Q + delta * M
    star = np.trace(T @ B.T)
    for _ in range(200):
        R, _ = np.linalg.qr(rng.standard_normal((25, 2)))
        assert star >= np.trace(T @ R.T)


def test_update_B_rank_deficient():
    with pytest.raises(DegenerateUpdateError):
        update_B(np.zeros((5, 3)), np.zeros((3, 2)), np.zeros((5, 2)), 1e-6)


def _hard_params(means, covs, g):
    return MixtureParams(weights=np.full(g, 1.0 / g),
                         means=np.asarray(means, dtype=float),
                         covariances=np.asarray(covs, dtype=float))


def test_update_M_identity_cov_unit_delta():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((6, 2))
    means = rng.standard_normal((2, 2))
    params = _hard_params(means, [np.eye(2), np.eye(2)], 2)
    part = Partition(assignments=np.array([0, 0, 1, 1, 0, 1]), g=2)
    M = update_M(B, part, params, 1.0)
    expected = 0.5 * (B + means[part.assignments])
    assert np.allclose(M, expected, atol=1e-12)


def test_update_M_delta_zero_returns_centroids():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((5, 3))
    means = rng.standard_normal((2, 3))
    params = _hard_params(means, [np.eye(3), 2 * np.eye(3)], 2)
    part = Partition(assignments=np.array([0, 1, 0, 1, 1]), g=2)
    M = update_M(B, part, params, 0.0)
    assert np.allclose(M, means[part.assignments], atol=1e-12)


def test_update_M_linear_system_oracle():
    rng = np.random.default_rng(10)
    for _ in range(25):
        p, g, n = 4, 3, 12
        B = rng.standard_normal((n, p))
        means = rng.standard_normal((g, p))
        covs = [_random_spd(rng, p) for _ in range(g)]
        params = _hard_params(means, covs, g)
        assign = rng.integers(0, g, n)
        assign[:g] = np.arange(g)
        part = Partition(assignments=assign, g=g)
        delta = float(10 ** rng.uniform(-6, 0))
        M = update_M(B, part, params, delta)
        for i in range(n):
            k = assign[i]
            inv = np.linalg.inv(covs[k])
            lhs = inv + delta * np.eye(p)
            rhs = delta * B[i] + inv @ means[k]
            assert np.allclose(M[i], np.linalg.solve(lhs, rhs), atol=1e-9)


def _update_M_case():
    """(B, partition, params) of two clusters of three rows each in p = 2."""
    rng = np.random.default_rng(12)
    params = _hard_params(rng.standard_normal((2, 2)), [_random_spd(rng, 2)] * 2, 2)
    return rng.standard_normal((6, 2)), Partition(assignments=np.arange(6) % 2, g=2), params


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["B", "mean"])
@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_update_M_rejects_a_non_finite_B_or_mean(bad, where, delta):
    B, part, params = _update_M_case()
    if where == "B":
        B[4, 1] = bad
    else:
        params.means[1, 0] = bad
    # a solve that multiplies an infinite entry by zero warns first; the
    # refusal is the InvalidInputError
    with pytest.raises(InvalidInputError), np.errstate(invalid="ignore"):
        update_M(B, part, params, delta)


@pytest.mark.parametrize("bad", ["asymmetric", "nan", "inf"])
def test_update_M_rejects_a_covariance_that_is_not_finite_and_symmetric(bad):
    B, part, params = _update_M_case()
    covs = params.covariances.copy()
    covs[1, 0, 1] += {"asymmetric": 1.0, "nan": np.nan, "inf": np.inf}[bad]
    with pytest.raises(InvalidInputError):
        update_M(B, part, replace(params, covariances=covs), 1.0)


def test_update_M_rejects_a_system_that_is_not_positive_definite():
    # I + delta Sigma_1 = I - 2 I at delta = 1
    B, part, params = _update_M_case()
    covs = params.covariances.copy()
    covs[1] = -2.0 * np.eye(2)
    with pytest.raises(SingularMatrixError):
        update_M(B, part, replace(params, covariances=covs), 1.0)


@pytest.mark.parametrize("update", ["update_M", "update_B"])
@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, -1.0])
def test_block_updates_check_delta_by_the_tolerance_rule(update, delta):
    # as fit_cempca does: a NaN delta used to surface as a non-finite
    # matrix the caller never passed, and a negative one went through
    B, part, params = _update_M_case()
    call = {"update_M": lambda: update_M(B, part, params, delta),
            "update_B": lambda: update_B(B, np.eye(2), B, delta)}[update]
    with pytest.raises(SettingError, match="^delta must be finite and >= 0") as err:
        call()
    assert err.value.setting == "delta"


def test_objective_vanishing_first_terms():
    rng = np.random.default_rng(11)
    B, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    Q = rng.standard_normal((4, 2))
    X = B @ Q.T
    part = Partition(assignments=rng.integers(0, 2, 10), g=2)
    part.assignments[:2] = [0, 1]
    params = m_step(B, part)
    bundle = EmbeddingBundle(B=B, Q=Q, M=B.copy())
    val = objective(X, bundle, part, params, 0.7)
    assert np.isclose(val, -complete_log_likelihood(B, part, params), atol=1e-9)


def test_objective_delta_zero_ignores_gap():
    rng = np.random.default_rng(12)
    B, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    Q = rng.standard_normal((3, 2))
    X = rng.standard_normal((8, 3))
    part = Partition(assignments=np.array([0, 1] * 4), g=2)
    params = m_step(B, part)
    M1 = rng.standard_normal((8, 2))
    b1 = EmbeddingBundle(B=B, Q=Q, M=M1)
    b2 = EmbeddingBundle(B=B, Q=Q, M=M1 + 5.0)
    diff = objective(X, b1, part, params, 0.0) - objective(X, b2, part, params, 0.0)
    term3 = (complete_log_likelihood(b2.M, part, params)
             - complete_log_likelihood(b1.M, part, params))
    assert np.isclose(diff, term3, atol=1e-9)


def test_objective_term_by_term_oracle():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((9, 4))
    B, _ = np.linalg.qr(rng.standard_normal((9, 2)))
    Q = rng.standard_normal((4, 2))
    M = rng.standard_normal((9, 2))
    part = Partition(assignments=rng.integers(0, 2, 9), g=2)
    part.assignments[:2] = [0, 1]
    params = m_step(M, part)
    bundle = EmbeddingBundle(B=B, Q=Q, M=M)
    delta = 0.2
    t1 = sum((X[i, j] - B[i] @ Q[j]) ** 2 for i in range(9) for j in range(4))
    t2 = delta * sum((B[i, j] - M[i, j]) ** 2 for i in range(9) for j in range(2))
    t3 = -complete_log_likelihood(M, part, params)
    assert np.isclose(objective(X, bundle, part, params, delta), t1 + t2 + t3,
                      atol=1e-9)


def test_fit_single_cluster_runs_and_monotone():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((40, 5))
    res = fit_cempca(X, CempcaConfig(g=1, p=3, restarts=2, smoothing=0), seed=0)
    tr = res.objective_trace
    assert np.all(res.partition.assignments == 0)
    assert all(tr[i + 1] <= tr[i] + 1e-8 for i in range(len(tr) - 1))


@pytest.mark.parametrize("restarts", [1, 4, 9])
def test_fit_embeds_once_for_all_restarts(monkeypatch, restarts):
    rng = np.random.default_rng(16)
    X = rng.standard_normal((50, 4))
    calls = []
    real = core.pca_embed
    monkeypatch.setattr(core, "pca_embed",
                        lambda X, p: calls.append(p) or real(X, p))
    fit_cempca(X, CempcaConfig(g=2, p=3, restarts=restarts, smoothing=0), seed=0)
    assert calls == [3]


def test_no_tail_on_the_gate_hepta_refines_again_in_its_first_sweep(monkeypatch):
    # A start's refinement is the mixture step for the first sweep's B, so
    # a one-sweep fit on the gate's hepta runs only the starts'
    # refinements, as a fit with no sweep does.
    X = gen_fcps("hepta", seed=11).X
    calls = []
    real = mixture.cem_refine
    monkeypatch.setattr(mixture, "cem_refine",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    counts = []
    for max_iter in (0, 1):
        calls.clear()
        fit_cempca(X, CempcaConfig(g=7, max_iter=max_iter), seed=1)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _failing_update_B(monkeypatch, failures):
    """Make the first `failures` calls of update_B raise, as a degenerate
    polar factor would; restart r makes its first call before restart r+1."""
    calls = []
    real = core.update_B

    def update_B(X, Q, M, delta):
        calls.append(1)
        if len(calls) <= failures:
            raise DegenerateUpdateError("X Q + delta M is rank-deficient")
        return real(X, Q, M, delta)

    monkeypatch.setattr(core, "update_B", update_B)


def test_fit_skips_and_records_a_degenerate_restart(monkeypatch):
    rng = np.random.default_rng(17)
    X = rng.standard_normal((50, 4))
    cfg = CempcaConfig(g=2, p=3, restarts=3, smoothing=0)
    _failing_update_B(monkeypatch, 1)
    res = fit_cempca(X, cfg, seed=0)
    assert res.failed_restarts == [
        (0, "DegenerateUpdateError: X Q + delta M is rank-deficient")]
    assert res.restart_index != 0
    monkeypatch.undo()
    assert fit_cempca(X, cfg, seed=0).failed_restarts == []


def test_fit_fails_when_every_restart_fails(monkeypatch):
    rng = np.random.default_rng(18)
    X = rng.standard_normal((50, 4))
    _failing_update_B(monkeypatch, 2)
    with pytest.raises(NumericalError, match="all 2 restarts failed") as err:
        fit_cempca(X, CempcaConfig(g=2, p=3, restarts=2, smoothing=0), seed=0)
    assert isinstance(err.value.__cause__, DegenerateUpdateError)


def test_fit_orthonormal_embedding():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((30, 4))
    res = fit_cempca(X, CempcaConfig(g=2, p=2, restarts=2, smoothing=0), seed=1)
    B = res.bundle.B
    assert np.allclose(B.T @ B, np.eye(2), atol=1e-8)


def test_fit_delta_zero_recovers_principal_subspace():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((40, 6)) * np.array([4, 3, 2, 1, 0.5, 0.25])
    cfg = CempcaConfig(g=2, p=3, delta=0.0, smoothing=0, restarts=2)
    res = fit_cempca(X, cfg, seed=0)
    B = res.bundle.B
    Bp, _ = pca_embed(prepare_features(X, cfg), 3)
    P1 = B @ B.T @ Bp @ Bp.T
    assert np.linalg.norm(P1 - Bp @ Bp.T) <= 1e-6


@pytest.mark.parametrize("X, g", [
    (gen_fcps("hepta", seed=11).X, 7),
    (gen_fcps("tetra", seed=11).X, 4),
    (gen_chang(1000, seed=5).X, 2),
], ids=["hepta", "tetra", "chang"])
def test_full_cem_on_the_whitened_scores_matches_cem_on_the_data(X, g):
    # At p = d the whitened PCA scores B are an invertible affine map of the
    # centred data, and full-covariance CEM is equivariant under such maps,
    # so the C-steps on B and on Xc agree. The ridge eps * t * I and the
    # variance floor in m_step are not equivariant, so this pins the gate
    # data rather than stating a property for all data.
    Xc, B, _, _ = core._principal_axes(standardize(X), X.shape[1])
    for seed in range(20):
        start = mixture.random_partition(X.shape[0], g, np.random.default_rng(seed))
        parts = []
        for Y in (B, Xc):
            part = Partition(assignments=start.copy(), g=g)
            parts.append(mixture.cem_refine(Y, part, "full")[0])
        assert np.array_equal(parts[0].assignments, parts[1].assignments), seed


# starts, of 20, from which cem_refine with the fitted proportions keeps the
# K-means partition; chainlink (1 of 20) is left unpinned
KMEANS_PARTITIONS_KEPT = {"atom": 0, "hepta": 20, "lsun3d": 20, "tetra": 20}


@pytest.mark.parametrize("shape", FCPS_SHAPES)
def test_spherical_tied_c_step_with_equal_proportions_is_kmeans(shape):
    # On each gate shape's B under the default config, a spherical-tied
    # mixture fitted to the Lloyd labels of K-means seeds 0-19, with its
    # proportions set equal, scores every point by its squared distance to
    # the cluster means: its C-step moves no point. m_step fits the
    # proportions, though, and their log pi_k term is what moves points.
    # On atom it moves some from every start, and cem_refine then leaves
    # the K-means partition on all 20.
    g = FCPS_CLASS_COUNTS[shape]
    cfg = CempcaConfig(g=g)
    B, _ = pca_embed(prepare_features(gen_fcps(shape, seed=11).X, cfg), cfg.p)
    kept = 0
    for seed in range(20):
        labels = mixture.kmeans_labels(B, g, seed, 0)
        part = Partition(assignments=labels, g=g)
        params = m_step(B, part, "spherical-tied")
        equal = replace(params, weights=np.full(g, 1.0 / g))
        assert np.array_equal(np.argmax(mixture.log_joint(B, equal), axis=1), labels)
        fitted = np.argmax(mixture.log_joint(B, params), axis=1)
        if shape == "atom":
            assert not np.array_equal(fitted, labels), seed
        kept += np.array_equal(mixture.cem_refine(B, part, "spherical-tied")[0].assignments,
                               labels)
    assert kept == KMEANS_PARTITIONS_KEPT.get(shape, kept)


def test_fit_deterministic():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((30, 4))
    cfg = CempcaConfig(g=2, p=2, restarts=3, smoothing=0)
    a = fit_cempca(X, cfg, seed=9)
    # numpy integers are counts too
    b = fit_cempca(X, CempcaConfig(g=np.int64(2), p=np.int32(2), restarts=np.int64(3),
                                   smoothing=np.int64(0)), seed=np.uint8(9))
    assert np.array_equal(a.partition.assignments, b.partition.assignments)
    assert a.objective_trace == b.objective_trace
    assert np.array_equal(a.bundle.B, b.bundle.B)


def test_fit_separated_blobs():
    rng = np.random.default_rng(18)
    X = np.vstack([rng.standard_normal((40, 3)),
                   rng.standard_normal((40, 3)) + 12.0])
    y = np.repeat([0, 1], 40)
    res = fit_cempca(X, CempcaConfig(g=2, p=2, restarts=4, smoothing=0), seed=0)
    assert ari(y, res.partition.assignments) == 1.0


def test_fit_block_monotonicity_with_step_trace():
    rng = np.random.default_rng(19)
    for t in range(10):
        n = int(rng.integers(50, 120))
        d = int(rng.integers(3, 10))
        g = int(rng.integers(2, 5))
        X = rng.standard_normal((n, d))
        cfg = CempcaConfig(g=g, p=min(3, d), restarts=2, smoothing=0,
                           delta=float(10 ** rng.uniform(-6, -5)))
        res = fit_cempca(X, cfg, seed=t)
        values = [res.objective_trace[0]] + [v for _, v in res.step_trace]
        for i in range(len(values) - 1):
            assert values[i + 1] <= values[i] + 1e-8


def test_default_fit_records_every_block_step():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((60, 5))
    res = fit_cempca(X, CempcaConfig(g=3, p=3, restarts=2, smoothing=0), seed=4)
    names = [name for name, _ in res.step_trace]
    assert names == ["M", "cem", "B", "Q"] * res.iterations
    assert [v for _, v in res.step_trace[3::4]] == res.objective_trace[1:]


def test_a_sweep_that_keeps_the_partition_ends_the_fit():
    # the gate's tetra fit: its first sweep keeps the seeded partition and
    # moves B only by rounding, so the fit stops there rather than spending
    # a second sweep on the same refinement
    ds = gen_fcps("tetra", seed=11)
    res = fit_cempca(ds.X, CempcaConfig(g=4), seed=1)
    assert res.iterations == 1
    assert [name for name, _ in res.step_trace] == ["M", "cem", "B", "Q"]
    assert len(res.objective_trace) == 2
    # the assignments max_iter=40 gave when every fit ran a second sweep
    data = np.ascontiguousarray(res.partition.assignments, dtype=np.int64).tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == "67170d1652fc2c36"


def test_fit_atom_replica_all_metrics():
    from cempca.metrics import accuracy, nmi as nmi_score
    from cempca.metrics import ari as ari_score

    ds = gen_fcps("atom", 800, seed=3)
    res = fit_cempca(ds.X, CempcaConfig(g=2, restarts=20), seed=2)
    pred = res.partition.assignments
    assert nmi_score(ds.labels, pred) >= 0.95
    assert ari_score(ds.labels, pred) >= 0.95
    assert accuracy(ds.labels, pred) >= 0.95


def test_fit_rejects_bad_config():
    X = np.zeros((10, 3))
    with pytest.raises(InvalidInputError):
        fit_cempca(X, CempcaConfig(g=2, delta=-1.0, smoothing=0), seed=0)
    with pytest.raises(InvalidInputError):
        fit_cempca(np.zeros((3, 2)), CempcaConfig(g=5, smoothing=0), seed=0)
    for name in ("max_iter", "smoothing"):
        with pytest.raises(InvalidInputError, match=f"{name} must be >= 0"):
            fit_cempca(X, CempcaConfig(g=2, **{name: -1}), seed=0)


def test_fit_max_iter_zero_keeps_the_initial_fit():
    rng = np.random.default_rng(41)
    X = np.vstack([rng.standard_normal((20, 3)), rng.standard_normal((20, 3)) + 6.0])
    res = fit_cempca(X, CempcaConfig(g=2, p=2, restarts=2, smoothing=0, max_iter=0),
                     seed=0)
    assert res.iterations == 0 and len(res.objective_trace) == 1
    assert res.step_trace == []


# Each of the six fits, on two clusters, with the given tol.
FITS = {
    "fit_cempca": lambda X, tol: fit_cempca(
        X, CempcaConfig(g=2, restarts=1, smoothing=0, tol=tol), seed=0),
    "kmeans": lambda X, tol: mixture.kmeans(X, 2, restarts=1, tol=tol),
    "em_gmm": lambda X, tol: mixture.em_gmm(X, 2, restarts=1, tol=tol),
    "cem": lambda X, tol: mixture.cem(X, 2, restarts=1, tol=tol),
    "kmeans_pca": lambda X, tol: kmeans_pca(X, 2, restarts=1, tol=tol),
    "reduced_kmeans": lambda X, tol: reduced_kmeans(X, 2, restarts=1, tol=tol),
}


@pytest.mark.parametrize("fit", FITS)
def test_fit_rejects_a_negative_or_non_finite_tol(fit):
    # such a tol never lets the convergence test hold, so the fit would
    # run to max_iter without a word
    rng = np.random.default_rng(5)
    X = np.vstack([rng.standard_normal((15, 3)), rng.standard_normal((15, 3)) + 5.0])
    # nor is a value that is not a number, a bool included
    for tol in (-1.0, -1e-12, np.nan, np.inf, "x", None, True):
        with pytest.raises(SettingError, match="tol must be finite and >= 0") as err:
            FITS[fit](X, tol)
        assert err.value.setting == "tol"
    # a string that reads as a number is quoted, so the message shows why
    with pytest.raises(SettingError, match="tol must be finite and >= 0, got '1e-3'$"):
        FITS[fit](X, "1e-3")
    result = FITS[fit](X, 0.0)
    assert result.partition.n == 30
    # every trace starts at the initial state, then one entry per iteration
    assert result.iterations == len(result.objective_trace) - 1


@pytest.mark.parametrize("fit", FITS)
def test_fit_rejects_non_finite_X(fit):
    # a NaN or infinite cell spreads through every sum of the fit, which
    # then fails as a numerical error or returns a meaningless partition
    rng = np.random.default_rng(6)
    for cell in (np.nan, np.inf, -np.inf):
        X = rng.standard_normal((30, 3))
        X[7, 1] = cell
        with pytest.raises(InvalidInputError, match="X contains non-finite entries"):
            FITS[fit](X, 1e-6)


def _two_blobs(scale):
    """Two 25-row 3-d blobs 8 apart, times scale."""
    rng = np.random.default_rng(7)
    return scale * np.vstack([rng.standard_normal((25, 3)), rng.standard_normal((25, 3)) + 8.0])


# the fits above, and the joint fit on raw data through the neighbor graph
RAW_FITS = {**FITS, "fit_cempca raw": lambda X, tol: fit_cempca(
    X, CempcaConfig(g=2, restarts=1, standardize=False, tol=tol), seed=0)}


@pytest.mark.parametrize("fit", RAW_FITS)
def test_fit_rejects_X_too_large_to_square(fit):
    # at 1e200 a sum of squares overflows float64: standardize would divide
    # by an infinite deviation and fit all-zero features, and a raw fit
    # would draw k-means++ centres from NaN probabilities
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="would overflow float64"):
            RAW_FITS[fit](_two_blobs(1e200), 1e-6)


@pytest.mark.parametrize("fit", RAW_FITS)
def test_fit_just_inside_the_magnitude_bound_warns_about_nothing(fit):
    # the check's bound leaves room for every sum of squares a fit forms
    X = _two_blobs(1.0)
    X *= 0.999 * math.sqrt(np.finfo(float).max / (4 * X.size)) / np.abs(X).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert RAW_FITS[fit](X, 1e-6).partition.n == 50


@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("shape", [(40, 0), (40,), (2, 3, 4)])
def test_fit_rejects_X_without_feature_columns(fit, shape):
    # a fit has no column to cluster on, and the check names the shape
    # rather than a setting nobody gave
    message = f"X must be 2-D with at least one column, got shape {shape}"
    with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
        FITS[fit](np.zeros(shape), 1e-6)


ONE_COMPONENT = MixtureParams(weights=np.ones(1), means=np.zeros((1, 1)),
                              covariances=np.ones((1, 1, 1)))
BUILDING_BLOCKS = {
    "m_step": lambda X: mixture.m_step(X, Partition(assignments=np.zeros(len(X), int), g=1)),
    "log_joint": lambda X: mixture.log_joint(X, ONE_COMPONENT),
    "complete_log_likelihood": lambda X: complete_log_likelihood(
        X, Partition(assignments=np.zeros(len(X), int), g=1), ONE_COMPONENT),
    "lloyd": lambda X: mixture.lloyd(X, np.zeros((1, 1))),
    "knn_graph": lambda X: knn_graph(X, 3),
    "pca_embed": core.pca_embed,
}


@pytest.mark.parametrize("block", BUILDING_BLOCKS)
@pytest.mark.parametrize("shape", [(40, 0), (40,), (2, 3, 4)])
def test_building_blocks_reject_X_without_feature_columns(block, shape):
    # the public building blocks check the shape themselves, outside the
    # fits' check, and name it (pca_embed's p is not at fault)
    message = f"X must be 2-D with at least one column, got shape {shape}"
    with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
        BUILDING_BLOCKS[block](np.zeros(shape))


@pytest.mark.parametrize("field, value, message", [
    ("delta", np.nan, "delta must be finite and >= 0, got nan"),
    ("delta", np.inf, "delta must be finite and >= 0, got inf"),
    ("delta", -1.0, "delta must be finite and >= 0, got -1.0"),
    ("neighbors", 0, "neighbors must be in [1, 9], got 0"),
    ("neighbors", 10, "neighbors must be in [1, 9], got 10"),
    ("smoothing", -1, "smoothing must be >= 0"),
    ("max_iter", -1, "max_iter must be >= 0"),
    ("tol", np.nan, "tol must be finite and >= 0, got nan"),
    ("delta", "x", "delta must be finite and >= 0, got 'x'"),
    ("neighbors", True, "neighbors must be an integer, got True"),
    ("smoothing", True, "smoothing must be an integer, got True"),
    ("standardize", "no", "standardize must be bool, got 'no'"),
])
def test_fit_checks_each_setting_by_name_before_any_work(monkeypatch, field, value,
                                                         message):
    def no_work(*args):
        raise AssertionError("a setting was checked after the work started")

    monkeypatch.setattr(core, "prepare_features", no_work)
    with pytest.raises(SettingError) as err:
        fit_cempca(np.zeros((10, 3)), CempcaConfig(g=2, **{field: value}), seed=0)
    assert (str(err.value), err.value.setting) == (message, field)


@pytest.mark.parametrize("field, value, message", [
    ("model", "bogus", "model must be one of ('full', 'diagonal', 'spherical', "
                       "'spherical-tied'), got 'bogus'"),
    ("model", "diag", "model must be one of ('full', 'diagonal', 'spherical', "
                      "'spherical-tied'), got 'diag'"),
    ("restarts", 0, "restarts must be >= 1"),
    ("p", 50, "p must be in [1, 3], got 50"),
    ("neighbors", 2.5, "neighbors must be an integer, got 2.5"),
    ("smoothing", 1.5, "smoothing must be an integer, got 1.5"),
])
def test_fit_checks_each_setting_before_the_graph(monkeypatch, field, value, message):
    def no_graph(*args):
        raise AssertionError("the graph was built before a setting was checked")

    monkeypatch.setattr(core, "knn_graph", no_graph)
    X = np.random.default_rng(7).standard_normal((40, 3))
    with pytest.raises(SettingError) as err:
        fit_cempca(X, CempcaConfig(g=2, **{field: value}), seed=0)
    assert (str(err.value), err.value.setting) == (message, field)


@pytest.mark.parametrize("fit", [mixture.em_gmm, mixture.cem])
def test_mixture_fits_check_the_model_before_any_work(monkeypatch, fit):
    def no_work(*args, **kwargs):
        raise AssertionError("the model was checked after the work started")

    monkeypatch.setattr(mixture, "_seed_centers", no_work)
    X = np.random.default_rng(8).standard_normal((40, 3))
    with pytest.raises(SettingError) as err:
        fit(X, 2, model="bogus")
    assert err.value.setting == "model"


@pytest.mark.parametrize("fit", [
    lambda X, seed: fit_cempca(X, CempcaConfig(g=2), seed=seed),
    lambda X, seed: kmeans_pca(X, 2, seed=seed),
    lambda X, seed: reduced_kmeans(X, 2, seed=seed),
], ids=["fit_cempca", "kmeans_pca", "reduced_kmeans"])
def test_fits_reject_a_negative_seed_before_any_work(monkeypatch, fit):
    def no_work(*args, **kwargs):
        raise AssertionError("the seed was checked after the work started")

    monkeypatch.setattr(core, "knn_graph", no_work)
    monkeypatch.setattr(core, "thin_svd", no_work)
    X = np.random.default_rng(9).standard_normal((40, 3))
    with pytest.raises(SettingError) as err:
        fit(X, -1)
    assert (str(err.value), err.value.setting) == ("seed must be >= 0, got -1", "seed")


SETTING_FITS = {
    "fit_cempca": lambda X, g=2, seed=0, **kw: fit_cempca(X, CempcaConfig(g=g, **kw),
                                                          seed=seed),
    "kmeans": lambda X, g=2, **kw: mixture.kmeans(X, g, **kw),
    "em_gmm": lambda X, g=2, **kw: mixture.em_gmm(X, g, **kw),
    "cem": lambda X, g=2, **kw: mixture.cem(X, g, **kw),
    "kmeans_pca": lambda X, g=2, **kw: kmeans_pca(X, g, **kw),
    "reduced_kmeans": lambda X, g=2, **kw: reduced_kmeans(X, g, **kw),
}


@pytest.mark.parametrize("fit, field, value, message", [
    *((fit, "restarts", 0, "restarts must be >= 1") for fit in SETTING_FITS),
    *((fit, "g", 0, "g must be >= 1") for fit in SETTING_FITS),
    *((fit, "max_iter", 0, "max_iter must be >= 1") for fit in SETTING_FITS
      if fit != "fit_cempca"),  # fit_cempca's max_iter=0 skips the sweeps
    # a count that is not an integer, numpy's float and a bool included
    *((fit, field, value, f"{field} must be an integer, got {value!r}")
      for fit in SETTING_FITS
      for field, value in (("restarts", 2.5), ("max_iter", 2.5), ("g", 2.5),
                           ("seed", 2.5), ("seed", np.float64(2.0)),
                           ("restarts", True), ("max_iter", True), ("g", True),
                           ("seed", True))),
    *((fit, "p", 2.5, "p must be an integer, got 2.5")
      for fit in ("fit_cempca", "kmeans_pca", "reduced_kmeans")),
])
def test_fits_reject_restarts_and_max_iter_before_any_work(monkeypatch, fit, field,
                                                           value, message):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{field} was checked after the work started")

    monkeypatch.setattr(core, "knn_graph", no_work)
    monkeypatch.setattr(core, "thin_svd", no_work)
    monkeypatch.setattr(mixture, "_seed_centers", no_work)
    X = np.random.default_rng(9).standard_normal((40, 3))
    with pytest.raises(SettingError) as err:
        SETTING_FITS[fit](X, **{field: value})
    assert (str(err.value), err.value.setting) == (message, field)


def test_fit_reads_neighbors_only_when_it_builds_the_graph():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.standard_normal((10, 3)), rng.standard_normal((10, 3)) + 5.0])
    res = fit_cempca(X, CempcaConfig(g=2, restarts=1, smoothing=0, neighbors=0), seed=0)
    assert res.partition.n == 20
    # its type is checked all the same
    with pytest.raises(SettingError, match="neighbors must be an integer, got True"):
        fit_cempca(X, CempcaConfig(g=2, smoothing=0, neighbors=True), seed=0)
