import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import cempca
from cempca.errors import InvalidInputError, SingularMatrixError
from cempca.linalg import fix_signs, polar, spd_solve, thin_svd

import oracles


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


@st.composite
def _factor_pairs(draw):
    """(U, V): an (n, k) factor and a (m, k) companion. Integer entries in
    [-2, 2] tie in magnitude within a column, and some columns are all
    zero, of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, k = (draw(st.integers(1, 12)) for _ in range(3))
    if draw(st.booleans()):
        U = rng.integers(-2, 3, (n, k)).astype(float)
    else:
        U = rng.standard_normal((n, k))
    for j in rng.choice(k, int(rng.integers(0, k + 1)), replace=False):
        U[:, j] = rng.choice([0.0, -0.0])
    return U, rng.standard_normal((m, k))


@settings(max_examples=200, deadline=None)
@given(_factor_pairs())
def test_fix_signs_matches_the_column_loop(pair):
    U, V = pair
    for got, expected in ((fix_signs(U, V), oracles.fix_signs(U, V)),
                          ((fix_signs(U),), (oracles.fix_signs(U),))):
        for a, b in zip(got, expected, strict=True):
            assert a.tobytes() == b.tobytes() and a.flags.c_contiguous


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(1, 20),
       ties=st.booleans())
def test_polar_is_the_product_of_the_sign_fixed_svd(seed, n, k, ties):
    # the product is unchanged when a column of U and of V both flip, so
    # polar skips the sign rule and still matches to the bit
    rng = np.random.default_rng(seed)
    A = rng.integers(-2, 3, (n, k)).astype(float) if ties else rng.standard_normal((n, k))
    U, d, V = thin_svd(A)
    P, s = polar(A)
    assert P.tobytes() == (U @ V.T).tobytes() and s.tobytes() == d.tobytes()


def test_thin_svd_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        thin_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_thin_svd_rejects_a_vector():
    with pytest.raises(InvalidInputError, match=r"must be 2-dimensional, got shape \(3,\)"):
        thin_svd(np.ones(3))


def test_spd_solve_identity():
    Y = np.arange(6.0).reshape(3, 2)
    Z = spd_solve(np.eye(3), Y)
    assert np.allclose(Z, Y, atol=1e-14)


def test_spd_solve_scalar_scaling():
    Z = spd_solve(2.0 * np.eye(2), np.array([[2.0], [4.0]]))
    assert np.allclose(Z, [[1.0], [2.0]], atol=1e-14)


def test_spd_solve_residual_oracle():
    rng = np.random.default_rng(3)
    R = rng.standard_normal((6, 6))
    A = R.T @ R + np.eye(6)
    Y = rng.standard_normal((6, 4))
    Z = spd_solve(A, Y)
    assert np.linalg.norm(A @ Z - Y) <= 1e-9 * np.linalg.norm(Y)


def test_spd_solve_rejects_indefinite():
    with pytest.raises(SingularMatrixError):
        spd_solve(np.diag([1.0, -1.0]), np.ones((2, 1)))


def test_spd_solve_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        spd_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones((2, 1)))


def test_spd_solve_rejects_a_non_square_matrix():
    with pytest.raises(InvalidInputError, match=r"must be square, got shape \(2, 3\)"):
        spd_solve(np.ones((2, 3)), np.ones((2, 1)))


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
    Z = spd_solve(A, Y)
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), Y)
    cond = np.linalg.cond(A)
    assert np.linalg.norm(Z - expected) <= 1e-13 * cond * np.linalg.norm(expected)
    assert np.allclose(spd_solve(A, Y[:, 0]), Z[:, 0], rtol=0, atol=1e-12 * cond
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
    # pool to the other, about 10 ms a switch on 2 vCPUs. scipy.special's
    # logsumexp reduces a score matrix that mixture._posterior has already
    # reduced, and took a third of em_gmm's time. The neighbor graph is an
    # (n, k) table that needs no scipy.sparse. Any other scipy import is made
    # inside the function that uses it, so that `import cempca` costs no scipy.
    offenders = []
    for path in sorted(Path(cempca.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_function = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}" for name in names
                          if name.split(".")[0] == "scipy" and (
                              id(node) not in in_function
                              or name.split(".")[1:2] in (["linalg"], ["special"], ["sparse"]))]
    assert not offenders, (
        "use numpy.linalg: scipy.linalg runs on a second OpenBLAS thread pool, and "
        "switching pools costs about 10 ms per call on 2 vCPUs; use mixture._posterior "
        "for log-sum-exp: scipy.special.logsumexp reduces each score matrix a second "
        "time; keep the neighbor graph a table, not scipy.sparse; import any other "
        "scipy name inside the function that uses it; " + "; ".join(offenders))


def test_import_loads_no_scipy():
    # scipy costs about 0.6 s of import time on top of numpy's 0.2 s
    code = (f"import sys; sys.path.insert(0, {str(Path(cempca.__file__).parents[1])!r}); "
            "import cempca; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"
