import numpy as np
import pytest
from scipy.optimize import linprog, nnls as scipy_nnls

from mstat.lp import LPUnbounded, linear_feasible, linear_minimize, nnls


def test_equality_feasible():
    x = linear_feasible(A_eq=[[1.0, 1.0]], b_eq=[2.0])
    assert x is not None
    assert abs(x.sum() - 2.0) < 1e-9
    assert np.min(x) >= -1e-12


def test_equality_infeasible_with_nonneg():
    assert linear_feasible(A_eq=[[1.0, 1.0]], b_eq=[-1.0]) is None


def test_free_variables():
    x = linear_feasible(A_eq=[[1.0]], b_eq=[-3.0], nonneg=[False])
    assert abs(x[0] + 3.0) < 1e-9


def test_mixed_inequality():
    x = linear_feasible(A_ub=[[-1.0, -1.0]], b_ub=[-2.0])
    assert x.sum() >= 2.0 - 1e-9


def test_zero_variable_system():
    assert linear_feasible(A_eq=np.zeros((1, 0)), b_eq=[0.0], n_vars=0) is not None
    assert linear_feasible(A_eq=np.zeros((1, 0)), b_eq=[1.0], n_vars=0) is None


def test_unbounded_raises():
    with pytest.raises(LPUnbounded):
        linear_minimize([-1.0], A_ub=[[-1.0]], b_ub=[0.0])


def test_redundant_rows():
    x = linear_feasible(A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
    assert x is not None
    assert abs(x.sum() - 1.0) < 1e-9


def test_minimize_value():
    res = linear_minimize([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    assert res is not None
    x, val = res
    assert abs(val - 1.0) < 1e-9


def test_against_scipy_linprog(rng):
    """Random small LPs agree with scipy's solver on status and value."""
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        c = rng.integers(-3, 4, n).astype(float)
        A_ub = rng.integers(-3, 4, (m, n)).astype(float)
        b_ub = rng.integers(0, 5, m).astype(float)
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(0, None)] * n,
                      method="highs")
        try:
            mine = linear_minimize(c, A_ub=A_ub, b_ub=b_ub)
        except LPUnbounded:
            assert ref.status == 3
            continue
        if ref.status == 2:
            assert mine is None
        elif ref.status == 0:
            assert mine is not None
            assert abs(mine[1] - ref.fun) < 1e-7
            x = mine[0]
            assert np.all(A_ub @ x <= b_ub + 1e-8)
            assert np.min(x) >= -1e-9


def test_feasibility_against_scipy(rng):
    """Random equality systems with sign restrictions agree on feasibility."""
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        A = rng.integers(-2, 3, (m, n)).astype(float)
        b = rng.integers(-2, 3, m).astype(float)
        nonneg = rng.random(n) < 0.7
        mine = linear_feasible(A_eq=A, b_eq=b, nonneg=nonneg)
        bounds = [(0, None) if f else (None, None) for f in nonneg]
        ref = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=bounds, method="highs")
        assert (mine is not None) == (ref.status == 0)
        if mine is not None:
            assert np.max(np.abs(A @ mine - b)) < 1e-8
            assert np.min(mine[nonneg], initial=0.0) >= -1e-9


def assert_nnls_optimal(A, b, x, tol=1e-9):
    """KKT conditions of min ||A x - b|| over x >= 0, independent of any solver."""
    w = A.T @ (b - A @ x)
    assert np.min(x, initial=0.0) >= 0.0
    assert np.max(w, initial=0.0) <= tol
    assert np.max(np.abs(w[x > 0]), initial=0.0) <= tol


def test_nnls_against_scipy():
    """Lawson-Hanson on random integer cones with dependent columns.

    Residual norms are recomputed from both solutions (the solutions need not
    be unique when columns are dependent) and must agree within 1e-12.
    """
    rng = np.random.default_rng(7)
    for _ in range(400):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 13))
        A = rng.integers(-2, 3, (d, m)).astype(float)
        if rng.random() < 0.3 and m > 1:
            A[:, m // 2:2 * (m // 2)] = A[:, :m // 2]     # duplicated generators
        b = rng.integers(-3, 4, d).astype(float)
        if rng.random() < 0.3:
            b = A @ rng.integers(0, 3, m).astype(float)  # a point of the cone
        x = nnls(A, b)
        assert_nnls_optimal(A, b, x)
        ref = scipy_nnls(A, b)[0]
        assert abs(np.linalg.norm(A @ x - b) - np.linalg.norm(A @ ref - b)) <= 1e-12


def test_nnls_edge_cases():
    assert nnls(np.zeros((2, 0)), np.array([1.0, 2.0])).shape == (0,)
    assert np.array_equal(nnls(np.eye(2), np.zeros(2)), np.zeros(2))
    assert np.array_equal(nnls(np.eye(2), np.array([-1.0, 3.0])), np.array([0.0, 3.0]))
