import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import cempca
from cempca.errors import InvalidInputError, SingularMatrixError
from cempca.linalg import spd_solve, thin_svd


def test_thin_svd_identity():
    U, d, V = thin_svd(np.eye(3))
    assert np.allclose(d, [1.0, 1.0, 1.0], atol=1e-12)


def test_thin_svd_diagonal():
    U, d, V = thin_svd(np.diag([3.0, 1.0]))
    assert np.allclose(d, [3.0, 1.0], atol=1e-12)
    # factors are signed permutations of the identity
    assert np.allclose(np.abs(U), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(V), np.eye(2), atol=1e-12)


def test_thin_svd_reconstruction_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3))
    U, d, V = thin_svd(A)
    err = np.linalg.norm(A - U @ np.diag(d) @ V.T) / np.linalg.norm(A)
    assert err <= 1e-10


@pytest.mark.parametrize("shape", [(5, 3), (20, 7), (200, 50), (50, 120)])
def test_thin_svd_reconstruction_sizes(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    A = rng.standard_normal(shape)
    U, d, V = thin_svd(A)
    assert np.linalg.norm(A - U @ np.diag(d) @ V.T) <= 1e-10 * np.linalg.norm(A)
    assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-10)
    assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10)
    assert np.all(d >= 0) and np.all(np.diff(d) <= 1e-12)


def test_thin_svd_orthonormal_input_has_unit_singular_values():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 6)))
    _, d, _ = thin_svd(Q)
    assert np.allclose(d, 1.0, atol=1e-10)


def test_thin_svd_sign_convention_deterministic():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 4))
    U1, _, V1 = thin_svd(A)
    U2, _, V2 = thin_svd(A.copy())
    assert np.array_equal(U1, U2) and np.array_equal(V1, V2)
    for j in range(U1.shape[1]):
        i = np.argmax(np.abs(U1[:, j]))
        assert U1[i, j] > 0


def test_thin_svd_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        thin_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_spd_solve_identity():
    Y = np.arange(6.0).reshape(3, 2)
    Z, logdet = spd_solve(np.eye(3), Y)
    assert np.allclose(Z, Y, atol=1e-14)
    assert abs(logdet) <= 1e-14


def test_spd_solve_scalar_scaling():
    Z, logdet = spd_solve(2.0 * np.eye(2), np.array([[2.0], [4.0]]))
    assert np.allclose(Z, [[1.0], [2.0]], atol=1e-14)
    assert np.isclose(logdet, 2 * np.log(2.0))


def test_spd_solve_residual_oracle():
    rng = np.random.default_rng(3)
    R = rng.standard_normal((6, 6))
    A = R.T @ R + np.eye(6)
    Y = rng.standard_normal((6, 4))
    Z, logdet = spd_solve(A, Y)
    assert np.linalg.norm(A @ Z - Y) <= 1e-9 * np.linalg.norm(Y)
    assert np.isclose(logdet, np.linalg.slogdet(A)[1], atol=1e-9)


def test_spd_solve_rejects_indefinite():
    with pytest.raises(SingularMatrixError):
        spd_solve(np.diag([1.0, -1.0]), np.ones((2, 1)))


def test_spd_solve_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        spd_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones((2, 1)))


def test_spd_solve_rejects_non_finite():
    for A, Y in ((np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones((2, 1))),
                 (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones((2, 1))),
                 (np.eye(2), np.array([[1.0], [np.nan]]))):
        with pytest.raises(InvalidInputError, match="non-finite"):
            spd_solve(A, Y)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 15), m=st.integers(1, 6),
       log_ridge=st.floats(-8.0, 2.0))
def test_spd_solve_matches_the_cholesky_reference(seed, p, m, log_ridge):
    # a ridge down to 1e-8 on a rank-deficient Gram part gives condition
    # numbers up to about 1e9
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((p, rng.integers(1, p + 1)))
    A = R @ R.T + 10.0 ** log_ridge * np.eye(p)
    Y = rng.standard_normal((p, m))
    Z, logdet = spd_solve(A, Y)
    factor = scipy.linalg.cho_factor(A, lower=True)
    expected = scipy.linalg.cho_solve(factor, Y)
    cond = np.linalg.cond(A)
    assert np.linalg.norm(Z - expected) <= 1e-13 * cond * np.linalg.norm(expected)
    ref_logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
    # the two libraries' Cholesky kernels round differently, by up to
    # about eps * cond(A) in each small pivot
    assert abs(logdet - ref_logdet) <= 1e-13 * cond * max(1.0, abs(ref_logdet))
    assert np.allclose(spd_solve(A, Y[:, 0])[0], Z[:, 0], rtol=0, atol=1e-12 * cond
                       * np.linalg.norm(Z[:, 0]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 15))
def test_spd_solve_rejects_indefinite_and_asymmetric_matrices(seed, p):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((p, p))
    A = R @ R.T + np.eye(p)
    v = rng.standard_normal(p)
    indefinite = A - (np.linalg.eigvalsh(A)[-1] + 1.0) * np.outer(v, v) / (v @ v)
    with pytest.raises(SingularMatrixError):
        spd_solve(indefinite, np.ones((p, 1)))
    asymmetric = A.copy()
    asymmetric[0, -1] += 1e-6 * np.abs(A).max()
    with pytest.raises(InvalidInputError, match="not symmetric"):
        spd_solve(asymmetric, np.ones((p, 1)))


def test_no_module_imports_scipy_linalg():
    # scipy ships its own OpenBLAS with its own thread pool: a fit that
    # calls both numpy's and scipy's LAPACK hands every iteration from one
    # pool to the other, about 10 ms a switch on 2 vCPUs
    offenders = []
    for path in sorted(Path(cempca.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}" for name in names
                          if name == "scipy.linalg" or name.startswith("scipy.linalg.")]
    assert not offenders, (
        "use numpy.linalg: scipy.linalg runs on a second OpenBLAS thread pool, and "
        "switching pools costs about 10 ms per call on 2 vCPUs; " + "; ".join(offenders))
