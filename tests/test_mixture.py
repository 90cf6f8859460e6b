import numpy as np
import pytest

from cempca import mixture
from cempca.cempca import update_M
from cempca.errors import EmptyClusterError, InvalidInputError, SettingError
from cempca.metrics import ari
from cempca.mixture import (MixtureParams, Partition, c_step, cem, cem_refine,
                            complete_log_likelihood, e_step, em_gmm, kmeans,
                            m_step)
from oracles import log_gaussian

LOG_2PI = np.log(2 * np.pi)


def _random_spd(rng, p, ridge=1.0):
    R = rng.standard_normal((p, p))
    return R @ R.T / p + ridge * np.eye(p)


def _params(weights, means, covs, model="full"):
    return MixtureParams(weights=np.asarray(weights, dtype=float),
                         means=np.asarray(means, dtype=float),
                         covariances=np.asarray(covs, dtype=float), model=model)


def test_log_gaussian_at_mean():
    val = log_gaussian([0.0, 0.0], [0.0, 0.0], np.eye(2))
    assert np.isclose(val, -LOG_2PI, atol=1e-12)


def test_log_gaussian_unit_offset():
    val = log_gaussian([1.0, 0.0], [0.0, 0.0], np.eye(2))
    assert np.isclose(val, -LOG_2PI - 0.5, atol=1e-12)


def test_log_gaussian_dense_formula_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(2, 6))
        x = rng.standard_normal(p)
        mu = rng.standard_normal(p)
        cov = _random_spd(rng, p)
        direct = (-0.5 * (p * LOG_2PI + np.log(np.linalg.det(cov))
                          + (x - mu) @ np.linalg.inv(cov) @ (x - mu)))
        assert np.isclose(log_gaussian(x, mu, cov), direct, atol=1e-9)


def test_e_step_single_component():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 2))
    params = _params([1.0], [[0.0, 0.0]], [np.eye(2)])
    assert np.allclose(e_step(X, params), 1.0, atol=1e-15)


def test_e_step_symmetric_components():
    params = _params([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]],
                     [np.eye(2), np.eye(2)])
    resp = e_step(np.array([[0.0, 3.0]]), params)
    assert np.allclose(resp, [[0.5, 0.5]], atol=1e-12)


def test_e_step_linear_space_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((15, 3))
    params = _params([0.3, 0.7],
                     rng.standard_normal((2, 3)),
                     [_random_spd(rng, 3), _random_spd(rng, 3)])
    resp = e_step(X, params)
    dens = np.zeros((15, 2))
    for k in range(2):
        cov = params.covariances[k]
        inv = np.linalg.inv(cov)
        det = np.linalg.det(cov)
        for i in range(15):
            diff = X[i] - params.means[k]
            dens[i, k] = params.weights[k] * np.exp(-0.5 * diff @ inv @ diff) / \
                np.sqrt((2 * np.pi) ** 3 * det)
    assert np.allclose(resp, dens / dens.sum(axis=1, keepdims=True), atol=1e-9)
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)


def test_e_step_degenerate_row_reports_index():
    from cempca.errors import NumericalError

    params = _params([0.5, 0.5], [[0.0], [0.0]],
                     [[[1e-300]], [[1e-300]]])
    # log_likelihood reads the same reduction, so it raises rather than
    # returning -inf for the row no component explains
    for score in (e_step, mixture.log_likelihood):
        with pytest.raises(NumericalError, match="row 1"):
            score(np.array([[0.0], [1e200]]), params)


def test_c_step_examples():
    assert c_step(np.array([[0.2, 0.8]])).assignments[0] == 1
    assert c_step(np.array([[0.5, 0.5]])).assignments[0] == 0


def test_c_step_scan_oracle():
    rng = np.random.default_rng(3)
    resp = rng.random((40, 4))
    resp /= resp.sum(axis=1, keepdims=True)
    part = c_step(resp)
    for i in range(40):
        best = max(range(4), key=lambda k: (resp[i, k], -k))
        assert part.assignments[i] == best


def test_m_step_singleton_clusters():
    X = np.array([[1.0, 2.0], [5.0, 6.0]])
    W = np.eye(2)
    params = m_step(X, W)
    assert np.allclose(params.means, X, atol=1e-14)
    for k in range(2):
        eig = np.linalg.eigvalsh(params.covariances[k])
        assert np.all(eig > 0)
        assert np.all(eig < 1e-6)  # near-zero but positive-definite


def test_m_step_two_point_scatter():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    params = m_step(X, np.ones((2, 1)))
    assert np.allclose(params.means[0], [0.0, 0.0], atol=1e-14)
    assert np.isclose(params.covariances[0][0, 0], 1.0, atol=1e-5)


def test_m_step_moment_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3))
    W = rng.random((30, 2))
    W /= W.sum(axis=1, keepdims=True)
    params = m_step(X, W)
    for k in range(2):
        tot = W[:, k].sum()
        mu = (W[:, k:k + 1] * X).sum(axis=0) / tot
        assert np.allclose(params.means[k], mu, atol=1e-12)
        diff = X - mu
        scatter = (W[:, k:k + 1] * diff).T @ diff / tot
        assert np.allclose(params.covariances[k], scatter, atol=1e-5)
    assert np.allclose(params.weights, W.sum(axis=0) / 30, atol=1e-12)


def test_m_step_hard_weights_reproduce_cluster_means():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((25, 4))
    assign = rng.integers(0, 3, 25)
    assign[:3] = [0, 1, 2]
    part = Partition(assignments=assign, g=3)
    params = m_step(X, part)
    for k in range(3):
        assert np.allclose(params.means[k], X[assign == k].mean(axis=0),
                           atol=1e-12)


def test_m_step_covariance_families():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 3))
    W = rng.random((40, 2))
    W /= W.sum(axis=1, keepdims=True)
    diag = m_step(X, W, model="diagonal")
    for cov in diag.covariances:
        assert np.allclose(cov, np.diag(np.diag(cov)))
    sph = m_step(X, W, model="spherical")
    for cov in sph.covariances:
        assert np.allclose(cov, cov[0, 0] * np.eye(3))
    tied = m_step(X, W, model="spherical-tied")
    assert np.allclose(tied.covariances[0], tied.covariances[1])


def test_m_step_empty_cluster():
    X = np.zeros((4, 2))
    W = np.zeros((4, 2))
    W[:, 0] = 1.0
    with pytest.raises(EmptyClusterError) as err:
        m_step(X, W)
    assert err.value.cluster == 1


def test_complete_log_likelihood_single_zero_row():
    params = _params([1.0], [[0.0, 0.0]], [np.eye(2)])
    part = Partition(assignments=np.array([0]), g=1)
    val = complete_log_likelihood(np.zeros((1, 2)), part, params)
    assert np.isclose(val, -LOG_2PI, atol=1e-12)


def test_complete_log_likelihood_additivity():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 2))
    params = _params([0.4, 0.6], rng.standard_normal((2, 2)),
                     [_random_spd(rng, 2), _random_spd(rng, 2)])
    assign = rng.integers(0, 2, 6)
    one = complete_log_likelihood(X, Partition(assign, 2), params)
    double = complete_log_likelihood(np.vstack([X, X]),
                                     Partition(np.concatenate([assign, assign]), 2),
                                     params)
    assert np.isclose(double, 2 * one, atol=1e-9)


def test_complete_log_likelihood_per_term_oracle():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((12, 3))
    params = _params([0.5, 0.5], rng.standard_normal((2, 3)),
                     [_random_spd(rng, 3), _random_spd(rng, 3)])
    assign = rng.integers(0, 2, 12)
    expected = sum(np.log(params.weights[assign[i]])
                   + log_gaussian(X[i], params.means[assign[i]],
                                  params.covariances[assign[i]])
                   for i in range(12))
    got = complete_log_likelihood(X, Partition(assign, 2), params)
    assert np.isclose(got, expected, atol=1e-9)


def _blobs(rng, n_per, centers, scale=1.0):
    X = np.vstack([c + scale * rng.standard_normal((n_per, len(c)))
                   for c in centers])
    y = np.repeat(np.arange(len(centers)), n_per)
    return X, y


def test_em_gmm_separated_blobs():
    rng = np.random.default_rng(9)
    X, y = _blobs(rng, 40, [(0.0, 0.0), (20.0, 0.0)])
    fit = em_gmm(X, 2, restarts=3, seed=0)
    assert ari(y, fit.partition.assignments) == 1.0


def test_em_gmm_single_component_closed_form():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((50, 3)) + 2.0
    fit = em_gmm(X, 1, seed=0)
    assert fit.iterations == 1
    assert np.allclose(fit.params.means[0], X.mean(axis=0), atol=1e-10)
    centered = X - X.mean(axis=0)
    assert np.allclose(fit.params.covariances[0], centered.T @ centered / 50,
                       atol=1e-4)


def test_em_gmm_loglik_monotone():
    rng = np.random.default_rng(11)
    for t in range(20):
        X = rng.standard_normal((40, 3))
        fit = em_gmm(X, int(rng.integers(1, 4)), restarts=1, seed=t)
        trace = fit.objective_trace
        assert all(trace[i + 1] >= trace[i] - 1e-8 for i in range(len(trace) - 1))


def test_em_gmm_rejects_too_few_rows():
    with pytest.raises(InvalidInputError):
        em_gmm(np.zeros((2, 2)), 3)


def test_cem_separated_blobs_fast():
    rng = np.random.default_rng(12)
    X, y = _blobs(rng, 50, [(0.0, 0.0), (20.0, 0.0)])
    fit = cem(X, 2, restarts=3, seed=0)
    assert ari(y, fit.partition.assignments) == 1.0
    assert fit.iterations <= 20


def test_cem_refine_fixed_point():
    rng = np.random.default_rng(13)
    X, _ = _blobs(rng, 30, [(0.0, 0.0), (10.0, 0.0)])
    fit = cem(X, 2, restarts=1, seed=1)
    part, params, trace, iterations = cem_refine(X, fit.partition, "full")
    assert iterations == 1
    assert np.array_equal(part.assignments, fit.partition.assignments)


@pytest.mark.parametrize("model", mixture.COV_MODELS)
def test_cem_refine_fits_the_covariance_model_it_is_given(model):
    rng = np.random.default_rng(15)
    X, _ = _blobs(rng, 30, [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
    part = Partition(assignments=mixture.random_partition(len(X), 3, rng), g=3)
    part, params, _, _ = cem_refine(X, part, model)
    assert params.model == model
    expected = m_step(X, part, model)
    assert np.array_equal(params.covariances, expected.covariances)


def test_cem_complete_loglik_monotone():
    rng = np.random.default_rng(14)
    for t in range(20):
        X = rng.standard_normal((40, 3))
        fit = cem(X, int(rng.integers(2, 4)), restarts=1, seed=t)
        trace = fit.objective_trace
        assert all(trace[i + 1] >= trace[i] - 1e-8 for i in range(len(trace) - 1))


def test_cem_spherical_tied_c_step_matches_nearest_centroid():
    rng = np.random.default_rng(15)
    for t in range(30):
        X = rng.standard_normal((30, 3))
        means = rng.standard_normal((3, 3))
        lam = float(rng.uniform(0.2, 2.0))
        params = _params(np.full(3, 1 / 3), means,
                         np.repeat(lam * np.eye(3)[None], 3, axis=0),
                         model="spherical-tied")
        assigned = c_step(e_step(X, params)).assignments
        d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(assigned, np.argmin(d2, axis=1))


def test_kmeans_singleton_clusters():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((6, 2))
    fit = kmeans(X, 6, seed=0)
    assert fit.objective_trace[-1] <= 1e-20


def test_kmeans_forced_optimum():
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    fit = kmeans(X, 2, restarts=5, seed=0)
    a = fit.partition.assignments
    assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]


def test_kmeans_brute_force_oracle():
    rng = np.random.default_rng(17)
    X = np.sort(rng.standard_normal(8))[:, None] * 3.0
    fit = kmeans(X, 2, restarts=30, seed=0)

    def wcss(mask):
        a, b = X[mask], X[~mask]
        return ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()

    best = min(wcss(np.array([(m >> i) & 1 for i in range(8)], dtype=bool))
               for m in range(1, 2 ** 8 - 1)
               if 0 < bin(m).count("1") < 8)
    assert np.isclose(fit.objective_trace[-1], best, atol=1e-9)


def test_kmeans_wcss_monotone_and_restarts():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((50, 2))
    fit = kmeans(X, 3, restarts=4, seed=2)
    trace = fit.objective_trace
    assert all(trace[i + 1] <= trace[i] + 1e-8 for i in range(len(trace) - 1))


def test_fits_deterministic():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((40, 3))
    for runner in (lambda: kmeans(X, 3, restarts=2, seed=5),
                   lambda: em_gmm(X, 2, restarts=2, seed=5),
                   lambda: cem(X, 2, restarts=2, seed=5)):
        a, b = runner(), runner()
        assert np.array_equal(a.partition.assignments, b.partition.assignments)
        assert a.objective_trace == b.objective_trace


# (seed, max_iter, settled, m_step and log_joint calls each). Seeds 21 and
# 22 stop when the C-step returns the partition just fitted, whose scores
# are in hand: one fit and one scoring per trace entry but the last. Seeds
# 23 and 24 stop at max_iter and fit every round. A settled start, where
# the refinement from seeds 21 and 22 stopped, is a C-step fixed point:
# round 0 fits and scores it, and the first C-step ends the refinement.
@pytest.mark.parametrize("seed,max_iter,settled,fitted", [
    (21, 100, False, 4), (22, 100, False, 12), (23, 1, False, 2), (24, 3, False, 4),
    (21, 100, True, 1), (22, 100, True, 1)])
def test_cem_refine_scores_each_parameter_set_once(monkeypatch, seed, max_iter, settled,
                                                   fitted):
    rng = np.random.default_rng(seed)
    X, _ = _blobs(rng, 30, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)])
    part = Partition(assignments=mixture.random_partition(len(X), 3, rng), g=3)
    if settled:
        part, _, trace, _ = cem_refine(X, part, "full")
        assert trace[-1] is trace[-2]
    calls = {"m_step": [], "log_joint": []}
    for name, seen in calls.items():
        real = getattr(mixture, name)
        monkeypatch.setattr(mixture, name, lambda X, arg, *rest, real=real, seen=seen: (
            seen.append(arg) or real(X, arg, *rest)))
    _, _, trace, iterations = cem_refine(X, part, "full", max_iter=max_iter)
    assert len(calls["m_step"]) == len(calls["log_joint"]) == fitted
    assert iterations + 1 == len(trace)
    assert len({p.assignments.tobytes() for p in calls["m_step"]}) == fitted
    assert len({(p.means.tobytes(), p.covariances.tobytes())
                for p in calls["log_joint"]}) == fitted
    if settled:
        assert iterations == 1 and trace[1] is trace[0]


def test_restart_seeds_reject_negative_seed():
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        mixture.restart_rng(-1, 0)
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        kmeans(np.arange(8.0).reshape(4, 2), 2, seed=-3)
    # the seeding helpers skip the fits' settings check, so they refuse a
    # float seed themselves rather than truncate it; numpy integers pass
    X = np.arange(8.0).reshape(4, 2)
    for start in (lambda seed: mixture.restart_rng(seed, 0).integers(100, size=4),
                  lambda seed: mixture.kmeans_labels(X, 2, seed, 0)):
        with pytest.raises(SettingError, match="seed must be an integer, got 2.5"):
            start(2.5)
        assert np.array_equal(start(np.int64(2)), start(2))
    # a bool is not a seed either, where it would pass as 1
    with pytest.raises(SettingError, match="seed must be an integer, got True"):
        mixture.derive_seed(True, 0)


@pytest.mark.parametrize("seed,max_iter", [(31, 100), (32, 1), (33, 3)])
def test_em_gmm_scores_each_parameter_set_once(monkeypatch, seed, max_iter):
    rng = np.random.default_rng(seed)
    X, _ = _blobs(rng, 30, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)])
    calls = []
    real = mixture.log_joint
    monkeypatch.setattr(mixture, "log_joint",
                        lambda X, params: calls.append(1) or real(X, params))
    fit = em_gmm(X, 3, max_iter=max_iter, restarts=1, seed=seed)
    assert len(calls) == fit.iterations + 1 == len(fit.objective_trace)
    # the shared score matrix gives what the public helpers give
    assert fit.objective_trace[-1] == mixture.log_likelihood(X, fit.params)
    assert np.array_equal(fit.partition.assignments,
                          c_step(e_step(X, fit.params)).assignments)


def test_lloyd_rejects_more_centers_than_rows():
    # _repair_empty can refill at most one empty cluster per row; the third
    # center would otherwise be the mean of an empty slice
    with pytest.raises(InvalidInputError, match="need at least 3 rows for 3 centers, got 2"):
        mixture.lloyd(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0], [2.0]]))


@pytest.mark.parametrize("max_iter", [0, -1])
def test_lloyd_rejects_max_iter_below_one(max_iter):
    from cempca.baselines import kmeans_pca, reduced_kmeans

    X = np.arange(12.0).reshape(6, 2)
    with pytest.raises(InvalidInputError, match="max_iter must be >= 1"):
        mixture.lloyd(X, X[:2], max_iter=max_iter)
    # every fit that runs Lloyd rounds
    for fit in (kmeans, em_gmm, cem, kmeans_pca, reduced_kmeans):
        with pytest.raises(InvalidInputError, match="max_iter must be >= 1"):
            fit(X, 2, max_iter=max_iter, restarts=1)


# A hard-path building block checks that its arguments fit together, from
# their shapes and at most one pass over the labels, and names both sizes.
TWO = _params([0.5, 0.5], [[0.0, 0.0], [3.0, 3.0]], [np.eye(2), np.eye(2)])
ROWS = np.vstack([np.zeros((10, 2)), np.full((10, 2), 3.0)]) + np.linspace(0, 1, 20)[:, None]
HALVES = np.repeat([0, 1], 10)
HARD_BLOCKS = {
    "complete_log_likelihood": lambda X, part: complete_log_likelihood(X, part, TWO),
    "update_M": lambda X, part: update_M(X, part, TWO, 1e-6),
}
# cem_refine takes no params: its m_step checks the partition
LABEL_BLOCKS = {"m_step": lambda X, part: m_step(X, part),
                "cem_refine": lambda X, part: cem_refine(X, part, "full"), **HARD_BLOCKS}


@pytest.mark.parametrize("block", [*LABEL_BLOCKS, "m_step on soft weights"])
def test_blocks_reject_weights_for_other_rows(block):
    # unchecked, 10 labels or weight rows for 20 rows give weights summing to 0.5
    if block in LABEL_BLOCKS:
        fit, message = LABEL_BLOCKS[block], "the partition labels 10 rows"
        weights = Partition(assignments=HALVES[::2], g=2)
    else:
        fit, message = m_step, "weights are given for 10 rows"
        weights = np.eye(2)[HALVES[::2]]
    with pytest.raises(InvalidInputError, match=f"^{message}, but X has 20$"):
        fit(ROWS, weights)


@pytest.mark.parametrize("block", LABEL_BLOCKS)
@pytest.mark.parametrize("label, message", [
    (2, r"^label 2 is out of range for g=2 clusters$"),
    (5, r"^label 5 is out of range for g=2 clusters$"),
    (-1, r"^labels must be integers in \[0, 2\)$"),
])
def test_blocks_reject_a_label_out_of_range(block, label, message):
    # unchecked, a label of g gives m_step g + 1 weights beside g means,
    # and leaves the row unscored or unsolved in the others
    labels = HALVES.copy()
    labels[3] = label
    with pytest.raises(InvalidInputError, match=message):
        LABEL_BLOCKS[block](ROWS, Partition(assignments=labels, g=2))


@pytest.mark.parametrize("block", [*HARD_BLOCKS, "log_joint", "e_step", "log_likelihood"])
def test_blocks_reject_X_with_other_columns_than_the_params(block):
    fit = HARD_BLOCKS.get(block) or (lambda X, part: getattr(mixture, block)(X, TWO))
    with pytest.raises(InvalidInputError, match="^X has 3 columns, but the params have p=2$"):
        fit(np.hstack([ROWS, ROWS[:, :1]]), Partition(assignments=HALVES, g=2))


@pytest.mark.parametrize("block", HARD_BLOCKS)
@pytest.mark.parametrize("g", [1, 3])
def test_hard_blocks_reject_a_partition_of_other_g(block, g):
    with pytest.raises(InvalidInputError,
                       match=f"^the partition has g={g}, but the params have g=2$"):
        HARD_BLOCKS[block](ROWS, Partition(assignments=np.minimum(HALVES, g - 1), g=g))
