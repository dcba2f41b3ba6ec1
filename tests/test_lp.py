import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls as scipy_nnls

import mstat.lp as lp
from conftest import (assert_nnls_optimal, bland_pivot_oracle, column_sums_oracle, nnls_oracle,
                      solve_standard_oracle)
from mstat.cones import _phase1_bound, active_set, simplex_polyhedron
from mstat.lp import LPLimitError, LPUnbounded, feasibility_threshold, linear_feasible, nnls


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


def test_zero_variable_system():
    assert linear_feasible(A_eq=np.zeros((1, 0)), b_eq=[0.0]) is not None
    assert linear_feasible(A_eq=np.zeros((1, 0)), b_eq=[1.0]) is None


def test_redundant_rows():
    x = linear_feasible(A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
    assert x is not None
    assert abs(x.sum() - 1.0) < 1e-9


def test_feasibility_against_scipy(rng):
    """Random equality systems with sign restrictions agree on feasibility.

    The systems include zero right-hand sides, duplicated columns and more
    rows than columns, the degenerate shapes the cone questions produce.
    """
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        A = rng.integers(-2, 3, (m, n)).astype(float)
        if rng.random() < 0.3 and n > 1:
            A[:, n // 2:2 * (n // 2)] = A[:, :n // 2]      # duplicated columns
        b = rng.integers(-2, 3, m).astype(float)
        if rng.random() < 0.3:
            b[:] = 0.0
        elif rng.random() < 0.3:
            b = A @ rng.integers(0, 3, n).astype(float)  # feasible by construction
        nonneg = rng.random(n) < 0.7
        mine = linear_feasible(A_eq=A, b_eq=b, nonneg=nonneg)
        bounds = [(0, None) if f else (None, None) for f in nonneg]
        ref = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=bounds, method="highs")
        assert (mine is not None) == (ref.status == 0)
        if mine is not None:
            assert np.max(np.abs(A @ mine - b)) < 1e-8
            assert np.min(mine[nonneg], initial=0.0) >= -1e-9


def _regime_system():
    """A degenerate 15 x 22 integer system on which a row-index tie-break cycles.

    It is one regime LP of the NNAMCQ sweep for the rows A, the Hessian H,
    equality rows 0-3, inequality row 4 and eta_3 pinned to +1, written in
    all-nonnegative standard form: columns x (eta, mu, nu), then the negative
    parts of the seven free x, then seven slacks for the inequality and the
    unit box.
    """
    A = np.array([[-2, 2, 0], [2, -2, -1], [0, 2, -2], [-1, -2, 1], [0, -1, -1]])
    H = np.array([[6, -5, -4], [-5, 9, 3], [-4, 3, 3]])
    eq = np.zeros((8, 8), dtype=int)
    eq[:3, :3], eq[:3, 3], eq[:3, 4:] = H.T, A[4], A[:4].T
    eq[3:7, :3] = A[:4]
    eq[7, 2] = 1
    ub = np.zeros((7, 8), dtype=int)
    ub[0, :3] = -A[4]
    ub[1:4, :3], ub[4:, :3] = np.eye(3), -np.eye(3)
    free = [0, 1, 2, 4, 5, 6, 7]
    M = np.vstack([np.hstack([eq, -eq[:, free], np.zeros((8, 7), dtype=int)]),
                   np.hstack([ub, -ub[:, free], np.eye(7, dtype=int)])])
    rhs = np.array([0] * 7 + [1] + [0] + [1] * 6)
    return M.astype(float), rhs.astype(float)


def test_phase1_bound_is_at_least_the_phase1_optimum(rng):
    """_phase1_bound at any x0 >= 0, with no noise allowance, bounds
    min sum s_i (b_i - (A x)_i) over x >= 0 with every term >= 0
    (s_i = -1 where b_i < 0), solved by scipy; where it is at most half the
    threshold, linear_feasible finds a point. The L1 norm of the residual
    alone falls below that optimum."""
    below_l1 = found = 0
    for _ in range(400):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-2, 2, (m, 1))
        x0 = np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.7)
        b = A @ x0 + 10.0 ** rng.uniform(-12, 0) * rng.standard_normal(m) * (rng.random(m) < 0.8)
        s = np.where(b < 0.0, -1.0, 1.0)
        res = linprog(np.r_[np.zeros(n), np.ones(m)], A_eq=np.hstack([s[:, None] * A, np.eye(m)]),
                      b_eq=s * b, bounds=[(0, None)] * (n + m), method="highs")
        bound = _phase1_bound(b.tolist(), (b - A @ x0).tolist(), 0.0)
        assert bound >= res.fun * (1.0 - 1e-9) - 1e-12, (A, b, x0)
        below_l1 += np.abs(b - A @ x0).sum() < res.fun * (1.0 - 1e-6)
        if bound <= 0.5 * feasibility_threshold(b):
            found += 1
            assert linear_feasible(A, b) is not None
    assert below_l1 >= 20 and found >= 50, (below_l1, found)


def test_bland_rule_leaves_on_the_lowest_basic_variable():
    """Ties broken by basic-variable index terminate; by row index this cycles."""
    M, rhs = _regime_system()
    assert M.shape == (15, 22)
    assert linprog(np.zeros(22), A_eq=M, b_eq=rhs, bounds=[(0, None)] * 22,
                   method="highs").status == 2
    assert linear_feasible(A_eq=M, b_eq=rhs) is None


def test_pivot_cap_raises_limit_error(monkeypatch):
    """A system that needs pivots raises LPLimitError once the cap is spent."""
    A, b = [[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0]
    assert np.allclose(linear_feasible(A_eq=A, b_eq=b), [1.0, 1.0])
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 1)
    with pytest.raises(LPLimitError):
        linear_feasible(A_eq=A, b_eq=b)


def _standard_form_cases(rng):
    """Systems A x = b, x >= 0 of the sizes the LP layer meets (up to 13 x 25)
    and their corner cases: Gaussian and small-integer entries, feasible
    right-hand sides built from sparse nonnegative x (degenerate bases),
    random ones, zero ones, duplicated and negated columns (the split of free
    variables), repeated rows, and the 15 x 22 Bland system."""
    yield _regime_system()
    for trial in range(600):
        m = int(rng.integers(1, 14))
        n = int(rng.integers(1, 26))
        kind = trial % 6
        if kind in (0, 1):
            A = rng.standard_normal((m, n))
        else:
            A = rng.integers(-2, 3, (m, n)).astype(float)
        if kind == 3:       # free variables split as [A, -A_free]
            A = np.hstack([A, -A[:, rng.random(n) < 0.5]])
        if kind == 4 and m > 1:     # a repeated and a scaled row
            A[-1] = A[0]
            if m > 2:
                A[-2] = 2.0 * A[1]
        x0 = np.where(rng.random(A.shape[1]) < 0.3, rng.integers(0, 3, A.shape[1]), 0.0)
        if kind == 1:
            b = rng.standard_normal(m)
        elif kind == 5:
            b = np.zeros(m)
        else:
            b = A @ x0
        yield A, b


def test_float_tableau_equals_the_numpy_tableau_bit_for_bit():
    """_solve_standard on Python floats gives the numpy tableau's answer:
    the same None, or an x with the same bytes."""
    rng = np.random.default_rng(11)
    feasible = infeasible = 0
    for A, b in _standard_form_cases(rng):
        x = lp._solve_standard(A, b)
        ref = solve_standard_oracle(A, b)
        assert (x is None) == (ref is None), (A.tolist(), b.tolist())
        if ref is None:
            infeasible += 1
        else:
            assert x.tobytes() == ref.tobytes(), (A.tolist(), b.tolist())
            feasible += 1
    assert feasible >= 400 and infeasible >= 50


def test_float_tableau_raises_what_the_numpy_tableau_raises(monkeypatch):
    """A column with negative reduced cost and no positive entry raises
    LPUnbounded in both, and a spent pivot cap LPLimitError in both."""
    T = np.array([[1.0, -1.0, 1.0], [-1.0, -2.0, 0.0]])
    for solve, tableau in ((lp._bland_pivot, T.tolist()), (bland_pivot_oracle, T.copy())):
        with pytest.raises(LPUnbounded, match="column 1"):
            solve(tableau, [0])
    M, rhs = _regime_system()
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 3)
    for solve in (lp._solve_standard, solve_standard_oracle):
        with pytest.raises(LPLimitError):
            solve(M, rhs)


def _outcome(solve):
    """solve()'s answer: None, an x as bytes, or the LP error it raised."""
    try:
        x = solve()
    except (LPUnbounded, LPLimitError) as exc:
        return type(exc), str(exc)
    return None if x is None else x.tobytes()


def _split_oracle(A, b, free):
    """The numpy tableau on the standard form [A, -A_free], hstacked as the
    array code built it, folded back to one entry per column of A."""
    x = solve_standard_oracle(np.hstack([A, -A[:, free]]), b)
    if x is None:
        return None
    x_free = x[A.shape[1]:]
    x = x[:A.shape[1]]
    x[free] -= x_free
    return x


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 14), st.integers(1, 14),
       st.sampled_from(["integer", "scaled"]), st.booleans(), st.sampled_from([None, 1, 2, 4]))
def test_linear_feasible_equals_the_numpy_tableau_of_the_split(seed, m, n, kind, transposed,
                                                               cap):
    """linear_feasible with a random nonneg mask returns None exactly when
    the numpy tableau on the hstacked standard form does, and otherwise an
    x with the same bytes; with a small pivot cap both raise alike. Its
    first reduced-cost row has the bytes of that form's column sums, each
    added top to bottom (column_sums_oracle). A comes row-major, or
    column-major as cone_coefficients passes its transposed generators,
    and the layout changes no bit."""
    rng = np.random.default_rng(seed)
    A = rng.integers(-3, 4, (m, n)).astype(float)
    if kind == "scaled":
        A *= 10.0 ** rng.integers(-3, 4, (m, 1)) * rng.uniform(0.5, 2.0, (m, n))
    if transposed:
        A = np.ascontiguousarray(A.T).T
    nonneg = rng.random(n) < 0.6
    x0 = np.where(rng.random(n) < 0.4, rng.integers(-2, 3, n), 0.0)
    x0[nonneg] = np.abs(x0[nonneg])
    b = A @ x0 if rng.random() < 0.7 else rng.integers(-3, 4, m) * rng.uniform(0.5, 2.0, m)
    free = np.flatnonzero(~nonneg)
    standard = np.array(np.hstack([A, -A[:, free]]))
    standard[b < 0] *= -1.0
    costs = []
    saved = lp._MAX_PIVOTS, lp._bland_pivot

    def record_cost_row(T, basis):
        costs.append(T[-1][:standard.shape[1]])
        return saved[1](T, basis)

    # The oracle reads the cap from lp and pivots with its own function.
    lp._MAX_PIVOTS, lp._bland_pivot = cap or saved[0], record_cost_row
    try:
        got = _outcome(lambda: linear_feasible(A_eq=A, b_eq=b, nonneg=nonneg))
        want = _outcome(lambda: _split_oracle(A, b, free))
    finally:
        lp._MAX_PIVOTS, lp._bland_pivot = saved
    assert got == want, (A.tolist(), b.tolist(), nonneg.tolist())
    assert np.array(costs[0]).tobytes() == (-column_sums_oracle(standard)).tobytes()


def test_feasibility_threshold_sums_b_left_to_right():
    """feasibility_threshold adds |b| left to right, as the LP's tableau
    sums it (column_sums_oracle), for one system and for (k, d) rows alike,
    past the 8 terms where numpy's pairwise sum changes its order."""
    rng = np.random.default_rng(7)
    for d in range(1, 20):
        B = rng.standard_normal((4, d)) * 10.0 ** rng.uniform(-6.0, 6.0, (4, d))
        want = (lp._FEAS_TOL * (1.0 + column_sums_oracle(np.abs(B).T))).tobytes()
        assert feasibility_threshold(B).tobytes() == want
        assert np.array([feasibility_threshold(b) for b in B]).tobytes() == want


def test_nnls_against_scipy():
    """Lawson-Hanson on random integer cones with dependent columns.

    Each answer passes the KKT check assert_nnls_optimal, and its residual
    norm is at most that of scipy's answer plus 1e-12. scipy's answer is a
    feasible point, so that bound holds for any optimum; scipy's answer
    need not be optimal, so the norms are not asked to agree (scipy 1.17.1
    returns a point whose gradient is 8.0 on 1 in 20,000 draws of this
    family).
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
        assert np.linalg.norm(A @ x - b) <= np.linalg.norm(A @ ref - b) + 1e-12


def test_nnls_edge_cases():
    assert nnls(np.zeros((2, 0)), np.array([1.0, 2.0])).shape == (0,)
    assert np.array_equal(nnls(np.eye(2), np.zeros(2)), np.zeros(2))
    assert np.array_equal(nnls(np.eye(2), np.array([-1.0, 3.0])), np.array([0.0, 3.0]))


def _generator_cases(rng):
    """(R, u) pairs with the generators as rows, as a normal cone holds them.

    Families: Gaussian, integer, the active rows of a simplex face,
    duplicated generators, rows scaled over twelve decades, and u of size
    1e-8. Half of the u are points of cone(R) with positive coefficients,
    whose answer has full support when R has full row rank.
    """
    for family in ("gauss", "integer", "simplex", "dependent", "scaled", "tiny"):
        for _ in range(150):
            d = int(rng.integers(1, 8))
            k = int(rng.integers(1, 10))
            if family == "integer":
                R = rng.integers(-2, 3, (k, d)).astype(float)
            elif family == "simplex":
                poly = simplex_polyhedron(d)
                z = np.zeros(d)
                support = rng.random(d) < 0.4
                z[support] = rng.uniform(0.1, 1.0, int(support.sum()))
                if support.any():
                    z *= rng.choice([0.5, 1.0]) / z.sum()
                R = poly.A[list(active_set(poly, z))]
                if len(R) == 0:
                    continue
            else:
                R = rng.standard_normal((k, d))
            if family == "dependent" and len(R) > 1:
                R = np.vstack([R, R[:len(R) // 2] * 2.0])
            if family == "scaled":
                R = R * 10.0 ** rng.uniform(-6, 6, (len(R), 1))
            if rng.random() < 0.5:
                u = R.T @ rng.uniform(0.1, 2.0, len(R))
            else:
                u = rng.standard_normal(d)
            if family == "tiny":
                u = u * 1e-8
            yield R, u


def test_nnls_equals_the_cold_start_oracle_bit_for_bit():
    """The entering-column guard changes no answer: every answer of nnls
    has the bits of the plain loop, full-support ones included.

    Matrices go in as R.T, the transposed row view that
    distance_to_normal_cone passes, and as a C-ordered copy, whose products
    round differently. Where the oracle raises (it can cycle to its cap),
    nnls must return an optimal point instead.
    """
    rng = np.random.default_rng(41)
    compared = full_support = raised = 0
    for R, u in _generator_cases(rng):
        for A in (R.T, np.ascontiguousarray(R.T)):
            x = nnls(A, u)
            try:
                ref = nnls_oracle(A, u)
            except (LPLimitError, ValueError):
                raised += 1
                best = np.linalg.norm(A @ scipy_nnls(A, u)[0] - u)
                assert np.linalg.norm(A @ x - u) <= best + 1e-12 * (1.0 + np.linalg.norm(u))
                continue
            assert x.tobytes() == ref.tobytes(), (R.tolist(), u.tolist())
            compared += 1
            full_support += bool(np.all(ref > 0.0))
    assert compared >= 1600 and full_support >= 400 and raised <= 20


def test_nnls_entering_column_guard_ends_a_cycle():
    """Column 5's gradient clears the tolerance by rounding noise alone.

    Without the guard it enters with a coefficient <= 0, the ratio step is 0
    and the same column enters on every round until the solve cap.
    """
    A = np.array([
        [-1.0184792082401748, 1.466078148326086, 0.10489345497097477,
         -2.5288606829934746, 0.1372309319245616, -0.6728306099078544],
        [0.3220212957521828, 1.8466081225046376, -0.7133995316411494,
         0.38156306272332086, 2.4451459784789153, -0.08704458679948772],
        [-0.5178879160992896, -0.7261828002110436, 0.8315015991152787,
         -0.05924158303313256, 0.17741885261705917, -0.46162672351873907]])
    b = np.array([7.620078319777197e-09, 9.670619395796044e-09, -1.0978323086109281e-08])
    with pytest.raises(LPLimitError):
        nnls_oracle(A, b)
    x = nnls(A, b)
    assert_nnls_optimal(A, b, x, tol=1e-18)
    ref = scipy_nnls(A, b)[0]
    assert np.allclose(x, ref, rtol=1e-9, atol=0.0)
