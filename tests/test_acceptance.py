"""Acceptance gate: each test checks one release criterion at its stated
tolerance and prints a pass/fail line."""

import time

import numpy as np
import pytest

from cempca.baselines import kmeans_pca, reduced_kmeans
from cempca.cempca import (CempcaConfig, fit_cempca, pca_embed, prepare_features, update_B,
                           update_M)
from cempca.data import FCPS_CLASS_COUNTS, FCPS_DEFAULT_SIZES, gen_chang, gen_fcps, standardize
from cempca.metrics import accuracy, ari, nmi
from cempca.mixture import MixtureParams, Partition, c_step, cem, e_step


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="session")
def fcps_results():
    results = {}
    start = time.perf_counter()
    for shape, n in FCPS_DEFAULT_SIZES.items():
        ds = gen_fcps(shape, n, seed=11)
        cfg = CempcaConfig(g=FCPS_CLASS_COUNTS[shape], restarts=20)
        fit = fit_cempca(ds.X, cfg, seed=1)
        results[shape] = (ds, fit)
    return results, time.perf_counter() - start


def test_criterion_1_chang_phenomenon():
    start = time.perf_counter()
    ds = gen_chang(1000, seed=5)
    cfg = CempcaConfig(g=2, p=15, smoothing=0, restarts=20)
    joint = fit_cempca(ds.X, cfg, seed=3)
    joint_acc = accuracy(ds.labels, joint.partition.assignments)
    seq = kmeans_pca(standardize(ds.X), 2, 2, restarts=20, seed=3)
    seq_acc = accuracy(ds.labels, seq.partition.assignments)
    elapsed = time.perf_counter() - start
    # information only: plain CEM on the fit's whitened p = 15 basis
    B, _ = pca_embed(prepare_features(ds.X, cfg), cfg.p)
    basis_acc = accuracy(ds.labels, cem(B, 2, restarts=20, seed=3).partition.assignments)
    ok = joint_acc >= 0.99 and seq_acc <= 0.85 and elapsed <= 60.0
    report(1, ok, f"joint acc={joint_acc:.4f} (>=0.99), "
                  f"leading-2-component k-means acc={seq_acc:.4f} (<=0.85), "
                  f"{elapsed:.1f}s (<=60s); CEM on the p=15 basis acc={basis_acc:.4f}")


def test_criterion_2_fcps_replicas(fcps_results):
    results, elapsed = fcps_results
    scores = {shape: nmi(ds.labels, fit.partition.assignments)
              for shape, (ds, fit) in results.items()}
    ok = all(v >= 0.90 for v in scores.values()) and elapsed <= 300.0
    detail = ", ".join(f"{s}={v:.3f}" for s, v in scores.items())
    report(2, ok, f"NMI {detail} (all >=0.90), {elapsed:.1f}s (<=300s)")


def test_criterion_3_block_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = -np.inf
    for t in range(100):
        n = int(rng.integers(50, 201))
        d = int(rng.integers(3, 21))
        g = int(rng.integers(2, 5))
        p = int(rng.integers(2, min(d, 8) + 1))
        delta = float(10 ** rng.uniform(-6, -5))
        X = rng.standard_normal((n, d))
        fit = fit_cempca(X, CempcaConfig(g=g, p=p, delta=delta, restarts=1,
                                         smoothing=0),
                         seed=t)
        values = [fit.objective_trace[0]] + [v for _, v in fit.step_trace]
        worst = max(worst, max(values[i + 1] - values[i]
                               for i in range(len(values) - 1)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 120.0
    report(3, ok, f"worst per-step objective increase {worst:.2e} (<=1e-8) "
                  f"over 100 instances, {elapsed:.1f}s (<=120s)")


def test_criterion_4_polar_factor_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_orth = 0.0
    for _ in range(50):
        n = int(rng.integers(15, 41))
        d = int(rng.integers(3, 8))
        p = int(rng.integers(2, d + 1))
        X = rng.standard_normal((n, d))
        Q = rng.standard_normal((d, p))
        M = rng.standard_normal((n, p))
        delta = float(10 ** rng.uniform(-6, 0))
        B = update_B(X, Q, M, delta)
        worst_orth = max(worst_orth,
                         float(np.max(np.abs(B.T @ B - np.eye(p)))))
        T = X @ Q + delta * M
        star = float(np.trace(T @ B.T))
        gauss = rng.standard_normal((1000, n, p))
        for sample in gauss:
            R, _ = np.linalg.qr(sample)
            assert star >= float(np.trace(T @ R.T)), "random rival beat optimum"
    elapsed = time.perf_counter() - start
    ok = worst_orth <= 1e-8 and elapsed <= 60.0
    report(4, ok, f"optimality held on 50x1000 rivals, worst |B^T B - I| "
                  f"{worst_orth:.2e} (<=1e-8), {elapsed:.1f}s (<=60s)")


def test_criterion_5_closed_form_m_rows():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 7))
        g = int(rng.integers(2, 5))
        n = int(rng.integers(g, 30))
        R = rng.standard_normal((g, p, p))
        covs = np.array([r @ r.T / p + np.eye(p) for r in R])
        means = rng.standard_normal((g, p))
        params = MixtureParams(weights=np.full(g, 1.0 / g), means=means,
                               covariances=covs)
        assign = rng.integers(0, g, n)
        part = Partition(assignments=assign, g=g)
        B = rng.standard_normal((n, p))
        delta = float(10 ** rng.uniform(-6, 0))
        M = update_M(B, part, params, delta)
        for i in range(n):
            k = assign[i]
            inv = np.linalg.inv(covs[k])
            oracle = np.linalg.solve(inv + delta * np.eye(p),
                                     delta * B[i] + inv @ means[k])
            worst = max(worst, float(np.max(np.abs(M[i] - oracle))))
    ok = worst <= 1e-9
    report(5, ok, f"closed-form rows match dense solves, worst gap "
                  f"{worst:.2e} (<=1e-9) over 100 instances")


def test_criterion_6_constrained_c_step_is_nearest_centroid():
    rng = np.random.default_rng(9)
    mismatches = 0
    for _ in range(100):
        p = int(rng.integers(2, 6))
        g = int(rng.integers(2, 5))
        n = int(rng.integers(10, 60))
        X = rng.standard_normal((n, p))
        means = rng.standard_normal((g, p))
        lam = float(rng.uniform(0.1, 3.0))
        params = MixtureParams(weights=np.full(g, 1.0 / g), means=means,
                               covariances=np.repeat(lam * np.eye(p)[None],
                                                     g, axis=0),
                               model="spherical-tied")
        assigned = c_step(e_step(X, params)).assignments
        d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        if not np.array_equal(assigned, np.argmin(d2, axis=1)):
            mismatches += 1
    ok = mismatches == 0
    report(6, ok, f"{100 - mismatches}/100 states matched nearest-centroid "
                  "assignment exactly")


def test_criterion_7_metric_oracles():
    import itertools

    rng = np.random.default_rng(10)

    def brute_accuracy(t, p):
        g = max(t.max(), p.max()) + 1
        return max(float(np.mean(np.array([pi[v] for v in p]) == t))
                   for pi in itertools.permutations(range(g)))

    def pair_ari(t, p):
        n = len(t)
        together = st = sp = 0
        for i in range(n):
            for j in range(i + 1, n):
                a, b = t[i] == t[j], p[i] == p[j]
                st += a
                sp += b
                together += a and b
        total = n * (n - 1) // 2
        expected = st * sp / total
        maximum = (st + sp) / 2
        return 1.0 if maximum == expected else (together - expected) / (maximum - expected)

    def entropy_nmi(t, p):
        n = len(t)

        def H(x):
            c = np.bincount(x)
            q = c[c > 0] / n
            return float(-(q * np.log(q)).sum())

        hu, hv = H(t), H(p)
        joint = {}
        for a, b in zip(t, p):
            joint[(a, b)] = joint.get((a, b), 0) + 1
        hj = -sum((c / n) * np.log(c / n) for c in joint.values())
        return 0.0 if hu <= 0 or hv <= 0 else (hu + hv - hj) / np.sqrt(hu * hv)

    worst = 0.0
    pairs = 0
    while pairs < 500:
        n = int(rng.integers(2, 11))
        t = rng.integers(0, 3, n)
        p = rng.integers(0, 3, n)
        pairs += 1
        worst = max(worst,
                    abs(accuracy(t, p) - brute_accuracy(t, p)),
                    abs(ari(t, p) - pair_ari(t, p)),
                    abs(nmi(t, p) - entropy_nmi(t, p)))
    ok = worst <= 1e-12
    report(7, ok, f"{pairs} partition pairs, worst oracle gap {worst:.2e} "
                  "(<=1e-12)")


def test_criterion_8_factorization_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(15, 50))
        d = int(rng.integers(3, 8))
        g = int(rng.integers(2, 4))
        p = int(rng.integers(1, d))
        X = rng.standard_normal((n, d))
        fit = reduced_kmeans(X, g, p, restarts=1, seed=int(rng.integers(1000)))
        for entry in fit.step_trace:
            Q, S, assign = entry["Q"], entry["S"], entry["assignments"]
            lhs = np.linalg.norm(X - S[assign] @ Q.T) ** 2
            rhs = (np.linalg.norm(X - X @ Q @ Q.T) ** 2
                   + np.linalg.norm(X @ Q - S[assign]) ** 2)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-8
    report(8, ok, f"factorization identity worst gap {worst:.2e} (<=1e-8) "
                  "over 50 instances")


def test_criterion_9_convergence_budget(fcps_results):
    results, _ = fcps_results
    iterations = [fit.iterations for _, fit in results.values()]
    median = float(np.median(iterations))
    ceiling = max(iterations)
    ok = median <= 20 and ceiling <= 40
    report(9, ok, f"median iterations {median:g} (<=20), max {ceiling} (<=40) "
                  f"across {len(iterations)} benchmark fits")
