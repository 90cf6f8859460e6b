import numpy as np
import pytest

from cempca import cempca as core
from cempca import mixture
from cempca.baselines import kmeans_pca, reduced_kmeans
from cempca.cempca import (CempcaConfig, EmbeddingBundle, fit_cempca,
                           objective, pca_embed, prepare_features, update_B,
                           update_M, update_Q)
from cempca.errors import (DegenerateUpdateError, InvalidInputError,
                           NumericalError, SettingError)
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


def test_objective_vanishing_first_terms():
    rng = np.random.default_rng(11)
    B, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    Q = rng.standard_normal((4, 2))
    X = B @ Q.T
    part = Partition(assignments=rng.integers(0, 2, 10), g=2)
    part.assignments[:2] = [0, 1]
    params = m_step(B, part.one_hot())
    bundle = EmbeddingBundle(B=B, Q=Q, M=B.copy())
    val = objective(X, bundle, part, params, 0.7)
    assert np.isclose(val, -complete_log_likelihood(B, part, params), atol=1e-9)


def test_objective_scores_rows_only_under_their_own_cluster(monkeypatch):
    rng = np.random.default_rng(15)
    B, _ = np.linalg.qr(rng.standard_normal((12, 2)))
    part = Partition(assignments=np.arange(12) % 3, g=3)
    params = m_step(B, part.one_hot())
    bundle = EmbeddingBundle(B=B, Q=rng.standard_normal((4, 2)), M=B.copy())
    expected = objective(B @ bundle.Q.T, bundle, part, params, 0.5)

    def no_full_scoring(X, params):
        raise AssertionError("objective built the full score matrix")

    monkeypatch.setattr(mixture, "log_joint", no_full_scoring)
    assert objective(B @ bundle.Q.T, bundle, part, params, 0.5) == expected


def test_objective_delta_zero_ignores_gap():
    rng = np.random.default_rng(12)
    B, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    Q = rng.standard_normal((3, 2))
    X = rng.standard_normal((8, 3))
    part = Partition(assignments=np.array([0, 1] * 4), g=2)
    params = m_step(B, part.one_hot())
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
    params = m_step(M, part.one_hot())
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


def test_fit_deterministic():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((30, 4))
    cfg = CempcaConfig(g=2, p=2, restarts=3, smoothing=0)
    a = fit_cempca(X, cfg, seed=9)
    b = fit_cempca(X, cfg, seed=9)
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


def test_fit_atom_replica_all_metrics():
    from cempca.data import gen_fcps
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
    for tol in (-1.0, -1e-12, np.nan, np.inf):
        with pytest.raises(SettingError, match="tol must be finite and >= 0") as err:
            FITS[fit](X, tol)
        assert err.value.setting == "tol"
    assert FITS[fit](X, 0.0).partition.n == 30


@pytest.mark.parametrize("field, value, message", [
    ("delta", np.nan, "delta must be finite and >= 0, got nan"),
    ("delta", np.inf, "delta must be finite and >= 0, got inf"),
    ("delta", -1.0, "delta must be finite and >= 0, got -1.0"),
    ("neighbors", 0, "neighbors must be in [1, 9], got 0"),
    ("neighbors", 10, "neighbors must be in [1, 9], got 10"),
    ("smoothing", -1, "smoothing must be >= 0"),
    ("max_iter", -1, "max_iter must be >= 0"),
    ("tol", np.nan, "tol must be finite and >= 0, got nan"),
])
def test_fit_checks_each_setting_by_name_before_any_work(monkeypatch, field, value,
                                                         message):
    def no_work(*args):
        raise AssertionError("a setting was checked after the work started")

    monkeypatch.setattr(core, "prepare_features", no_work)
    with pytest.raises(SettingError) as err:
        fit_cempca(np.zeros((10, 3)), CempcaConfig(g=2, **{field: value}), seed=0)
    assert (str(err.value), err.value.setting) == (message, field)


def test_fit_reads_neighbors_only_when_it_builds_the_graph():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.standard_normal((10, 3)), rng.standard_normal((10, 3)) + 5.0])
    res = fit_cempca(X, CempcaConfig(g=2, restarts=1, smoothing=0, neighbors=0), seed=0)
    assert res.partition.n == 20
