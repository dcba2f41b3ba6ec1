"""Hand-written solvers for the tiny LPs and least-squares problems.

All cone membership and multiplier searches in this package reduce to linear
feasibility systems with a handful of variables. A hand-rolled tableau solver
with Bland's rule keeps the results bit-reproducible across platforms, which
matters because verification verdicts must not flip between runs. Distances
to polyhedral cones are non-negative least-squares problems, solved by a
deterministic Lawson-Hanson active-set method.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LPUnbounded", "LPLimitError", "linear_feasible", "linear_minimize", "nnls"]

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-9


class LPUnbounded(Exception):
    """Phase-2 objective is unbounded below on the feasible set."""


class LPLimitError(Exception):
    """Iteration cap exceeded (should not happen with Bland's rule or NNLS)."""


def _bland_pivot(T, basis, cost_row, tol, max_iter):
    """Run simplex pivots on tableau T in place until optimal.

    T has shape (m+1, n+1); the last row is the reduced-cost row, the last
    column the right-hand side. Bland's rule: entering column is the lowest
    index with negative reduced cost, leaving row breaks ratio ties by the
    lowest basic-variable index. Anti-cycling, hence finite.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        col = -1
        for j in range(T.shape[1] - 1):
            if T[-1, j] < -tol:
                col = j
                break
        if col < 0:
            return
        ratios = []
        for i in range(m):
            if T[i, col] > tol:
                ratios.append((T[i, -1] / T[i, col], basis[i], i))
        if not ratios:
            raise LPUnbounded("unbounded pivot column %d" % col)
        best = min(r for r, _, _ in ratios)
        row = min(i for r, var, i in ratios if r <= best + tol * (1 + abs(best)))
        piv = T[row, col]
        T[row, :] /= piv
        for i in range(m + 1):
            if i != row and T[i, col] != 0.0:
                T[i, :] -= T[i, col] * T[row, :]
        basis[row] = col
    raise LPLimitError("simplex iteration cap reached")


def _solve_standard(c, A, b, tol, max_iter=5000):
    """min c^T x s.t. A x = b, x >= 0. Returns x or None if infeasible."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, minimize the sum of artificials.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    _bland_pivot(T, basis, T[-1], tol, max_iter)
    if -T[-1, -1] > _FEAS_TOL * (1.0 + abs(b).sum()):
        return None

    # Drive artificials out of the basis; rows that cannot pivot are redundant.
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        piv_col = -1
        for j in range(n):
            if abs(T[i, j]) > tol:
                piv_col = j
                break
        if piv_col < 0:
            continue  # redundant zero row
        piv = T[i, piv_col]
        T[i, :] /= piv
        for k in range(m + 1):
            if k != i and T[k, piv_col] != 0.0:
                T[k, :] -= T[k, piv_col] * T[i, :]
        basis[i] = piv_col
        keep.append(i)

    rows = keep
    T2 = np.zeros((len(rows) + 1, n + 1))
    basis2 = []
    for new_i, i in enumerate(rows):
        T2[new_i, :n] = T[i, :n]
        T2[new_i, -1] = T[i, -1]
        basis2.append(basis[i])

    # Phase 2: price out the basic columns of the real objective.
    T2[-1, :n] = c
    for new_i, var in enumerate(basis2):
        if abs(T2[-1, var]) > 0.0:
            T2[-1, :] -= T2[-1, var] * T2[new_i, :]
    _bland_pivot(T2, basis2, T2[-1], tol, max_iter)

    x = np.zeros(n)
    for new_i, var in enumerate(basis2):
        x[var] = T2[new_i, -1]
    return x


def _assemble(n, A_eq, b_eq, A_ub, b_ub, nonneg):
    """Convert mixed-form data to standard form (equalities, all vars >= 0).

    Free variables are split into positive and negative parts; inequality rows
    get slack variables. Returns (c-extension hooks, A, b, recover) where
    recover maps a standard-form point back to the original variables.
    """
    if nonneg is None:
        nonneg = np.ones(n, dtype=bool)
    nonneg = np.asarray(nonneg, dtype=bool)
    free_idx = np.flatnonzero(~nonneg)
    n_free = len(free_idx)

    blocks = []
    rhs = []
    if A_eq is not None and len(A_eq) > 0:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        blocks.append((A_eq, 0))
        rhs.append(np.atleast_1d(np.asarray(b_eq, dtype=float)))
    n_ub = 0
    if A_ub is not None and len(A_ub) > 0:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        n_ub = A_ub.shape[0]
        blocks.append((A_ub, 1))
        rhs.append(np.atleast_1d(np.asarray(b_ub, dtype=float)))
    if not blocks:
        raise ValueError("no constraints given")

    m = sum(B.shape[0] for B, _ in blocks)
    width = n + n_free + n_ub
    A = np.zeros((m, width))
    b = np.concatenate(rhs)
    row = 0
    slack = n + n_free
    for B, kind in blocks:
        k = B.shape[0]
        A[row:row + k, :n] = B
        A[row:row + k, n:n + n_free] = -B[:, free_idx]
        if kind == 1:
            A[row:row + k, slack:slack + k] = np.eye(k)
            slack += k
        row += k

    def recover(x_std):
        x = x_std[:n].copy()
        x[free_idx] -= x_std[n:n + n_free]
        return x

    return A, b, width, recover


def linear_feasible(A_eq=None, b_eq=None, A_ub=None, b_ub=None, nonneg=None,
                    n_vars=None, tol=_PIVOT_TOL):
    """Find x with A_eq x = b_eq, A_ub x <= b_ub, x_i >= 0 where nonneg[i].

    Returns a feasible point or None. `nonneg` defaults to all-nonnegative;
    pass a boolean mask to mark free variables. With zero variables the system
    is feasible iff every right-hand side is (numerically) zero.
    """
    if n_vars is None:
        if A_eq is not None and len(A_eq) > 0:
            n_vars = np.atleast_2d(np.asarray(A_eq)).shape[1]
        elif A_ub is not None and len(A_ub) > 0:
            n_vars = np.atleast_2d(np.asarray(A_ub)).shape[1]
        else:
            raise ValueError("cannot infer variable count")
    if n_vars == 0:
        ok = True
        if b_eq is not None and len(np.atleast_1d(b_eq)) > 0:
            ok = ok and np.max(np.abs(b_eq)) <= _FEAS_TOL
        if b_ub is not None and len(np.atleast_1d(b_ub)) > 0:
            ok = ok and np.min(b_ub) >= -_FEAS_TOL
        return np.zeros(0) if ok else None
    A, b, width, recover = _assemble(n_vars, A_eq, b_eq, A_ub, b_ub, nonneg)
    x_std = _solve_standard(np.zeros(width), A, b, tol)
    if x_std is None:
        return None
    return recover(x_std)


def linear_minimize(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, nonneg=None,
                    tol=_PIVOT_TOL):
    """min c^T x under the same constraint forms as linear_feasible.

    Returns (x, value) or None if infeasible. Raises LPUnbounded.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    A, b, width, recover = _assemble(n, A_eq, b_eq, A_ub, b_ub, nonneg)
    c_std = np.zeros(width)
    c_std[:n] = c
    if nonneg is not None:
        free_idx = np.flatnonzero(~np.asarray(nonneg, dtype=bool))
        c_std[n:n + len(free_idx)] = -c[free_idx]
    x_std = _solve_standard(c_std, A, b, tol)
    if x_std is None:
        return None
    x = recover(x_std)
    return x, float(c @ x)


def nnls(A, b):
    """argmin_{x >= 0} ||A x - b|| by the Lawson-Hanson active-set method.

    Columns enter the passive set one at a time, the one with the largest
    positive gradient A^T (b - A x) first (lowest index on ties); an inner
    loop steps back along the segment to the unconstrained least-squares
    point and drops columns that hit zero. A column enters only when its
    gradient clears a rounding-noise tolerance; a column in the span of the
    passive ones has zero gradient against the least-squares residual, so the
    passive columns stay independent when A has dependent columns. The answer
    depends only on (A, b). Raises LPLimitError after 3n + 10 least-squares
    solves instead of looping.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * max(m, n) * np.finfo(float).eps \
        * np.abs(A).sum(axis=0).max(initial=0.0) * np.linalg.norm(b)
    solves = 0
    while True:
        w = A.T @ (b - A @ x)
        w[passive] = -np.inf
        if n == 0 or np.max(w) <= tol:
            return x
        passive[int(np.argmax(w))] = True
        while True:
            solves += 1
            if solves > 3 * n + 10:
                raise LPLimitError("NNLS iteration cap reached")
            B = A[:, passive]
            s_P = np.linalg.lstsq(B, b, rcond=None)[0]
            s_P += np.linalg.lstsq(B, b - B @ s_P, rcond=None)[0]  # one refinement step
            s = np.zeros(n)
            s[passive] = s_P
            if np.min(s[passive]) > 0.0:
                x = s
                break
            blocking = np.flatnonzero(passive & (s <= 0.0))
            ratios = x[blocking] / (x[blocking] - s[blocking])
            x = x + np.min(ratios) * (s - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
