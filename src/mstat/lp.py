"""Hand-written solvers for the tiny feasibility LPs and least-squares problems.

Every LP in this package asks one question: is w in cone(R) + span(L), that
is, is there x with A x = b and x_i >= 0 on a given subset of coordinates?
`linear_feasible` answers it with a dense phase-1 simplex under Bland's rule,
which keeps the answer and the witness bit-reproducible across platforms, so
verification verdicts do not flip between runs. Distances to polyhedral
cones are non-negative least-squares problems, solved by a deterministic
Lawson-Hanson active-set method (`nnls`), which stops with LPLimitError
after 3n + 10 least-squares solves on n columns.

The phase-1 tableau is a list of rows of Python floats, built straight from
A.tolist() and b.tolist(): the sign flips of rows with b_i < 0, the split of
free columns and the artificial identity. At this size (at most a few dozen
rows and columns) numpy's fixed cost per call outweighs the arithmetic. Its
sums, the reduced-cost row's column sums and |b|'s sum, which starts the
phase-1 objective and sets the feasibility threshold, add left to right.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LPUnbounded", "LPLimitError", "feasibility_threshold", "linear_feasible", "nnls"]

_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-9
_MAX_PIVOTS = 5000


class LPUnbounded(Exception):
    """A pivot column with no positive entry.

    The phase-1 objective is bounded below by zero, so this signals a
    numerical breakdown of the tableau, never a property of the system.
    """


class LPLimitError(Exception):
    """Pivot or least-squares cap exceeded (Bland's rule and NNLS terminate)."""


def _pivot(T, basis, row, col):
    """Pivot T in place on (row, col) and record col as basic in row.

    T is a list of row lists of Python floats. Each entry gets the same
    floating-point operations as the array form T[row] /= p,
    T[i] -= f * T[row], so the tableau matches it bit for bit.
    """
    p = T[row][col]
    prow = T[row] = [a / p for a in T[row]]
    for i, r in enumerate(T):
        f = r[col]
        if i != row and f != 0.0:
            T[i] = [a - f * c for a, c in zip(r, prow)]
    basis[row] = col


def _bland_pivot(T, basis):
    """Run simplex pivots on tableau T in place until optimal.

    T has m+1 rows of n+1 entries; the last row is the reduced-cost row, the
    last entry of a row its right-hand side. Bland's rule: entering column is
    the lowest index with negative reduced cost, leaving row breaks ratio
    ties by the lowest basic-variable index. Anti-cycling, hence finite.
    """
    rhs = len(T[0]) - 1
    for _ in range(_MAX_PIVOTS):
        # A negative right-hand side of the cost row enters no column.
        col = next((j for j, c in enumerate(T[-1]) if c < -_PIVOT_TOL), rhs)
        if col == rhs:
            return
        # The cost row's own entry is negative, so it never leaves.
        ratios = [(r[-1] / r[col], basis[i], i)
                  for i, r in enumerate(T) if r[col] > _PIVOT_TOL]
        if not ratios:
            raise LPUnbounded("unbounded pivot column %d" % col)
        best = min(ratios)[0]
        tol = _PIVOT_TOL * (1 + abs(best))
        _pivot(T, basis, min((var, i) for r, var, i in ratios if r <= best + tol)[1], col)
    raise LPLimitError("simplex iteration cap reached")


def feasibility_threshold(b):
    """Largest phase-1 optimum for which A x = b counts as feasible.

    The phase-1 optimum is min ||A x - b||_1 over the sign constraints, which
    is at least the Euclidean distance from b to the same set; a distance
    well above this threshold therefore decides infeasibility without an LP.
    b may also be (k, d) rows, one system each, with one threshold per row.
    |b| is summed left to right, as the LP sums it.
    """
    return _FEAS_TOL * (1.0 + np.add.accumulate(np.abs(b), axis=-1)[..., -1])


def _solve_standard(A, b, free=()):
    """Some x with A x = b and x_j >= 0 for every j not in free, or None.

    A is an (m, n) float array, b an (m,) one. The k-th free column j is
    split into x_j - x_{n+k}, so the tableau solves the standard form
    [A, -A_free] x' = b, x' >= 0. Phase 1 minimizes the sum of
    artificial variables; afterwards the artificials still basic are pivoted
    out where a real column allows it (rows where none does are redundant),
    and x is read off the basis.
    """
    m, n = A.shape
    if len(b) != m:
        raise ValueError("A has %d rows but b has %d entries" % (m, len(b)))
    rows, rhs = A.tolist(), b.tolist()
    for i, v in enumerate(rhs):
        if v < 0.0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -v
    if free:
        rows = [r + [-r[j] for j in free] for r in rows]
    width = n + len(free)

    # The reduced-cost row [-1^T A' 0 -1^T b'] of the flipped A', b' = |b|.
    total = sum(rhs, 0.0)
    eye = [0.0] * m
    T = [r + eye[:i] + [1.0] + eye[i + 1:] + [v] for i, (r, v) in enumerate(zip(rows, rhs))]
    T.append(([-sum(col) for col in zip(*rows)] if m else [0.0] * width) + eye + [-total])
    basis = list(range(width, width + m))
    _bland_pivot(T, basis)
    if -T[-1][-1] > _FEAS_TOL * (1.0 + total):
        return None

    for i in range(m):
        if basis[i] >= width:
            row = T[i]
            j = next((j for j in range(width) if abs(row[j]) > _PIVOT_TOL), -1)
            if j >= 0:
                _pivot(T, basis, i, j)

    x = [0.0] * width
    for i, var in enumerate(basis):
        if var < width:
            x[var] = T[i][-1]
    for k, j in enumerate(free):
        x[j] -= x[n + k]
    return np.array(x[:n])


def linear_feasible(A_eq, b_eq, nonneg=None):
    """Find x with A_eq x = b_eq and x_i >= 0 where nonneg[i], or None.

    `nonneg` defaults to all-nonnegative; pass a boolean mask to mark free
    variables, which are split into positive and negative parts. With zero
    variables the system is feasible iff b_eq is (numerically) zero.
    """
    A = np.asarray(A_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    if A.ndim < 2:
        A = A.reshape(1, -1)
    if b.ndim == 0:
        b = b.reshape(1)
    if A.shape[1] == 0:
        return np.zeros(0) if np.max(np.abs(b), initial=0.0) <= _FEAS_TOL else None
    if nonneg is None:
        return _solve_standard(A, b)
    free = [j for j, keep in enumerate(np.asarray(nonneg, dtype=bool).tolist()) if not keep]
    return _solve_standard(A, b, free)


def _refined_lstsq(B, b):
    """Least-squares solve of B s = b with one refinement step."""
    s = np.linalg.lstsq(B, b, rcond=None)[0]
    s += np.linalg.lstsq(B, b - B @ s, rcond=None)[0]
    return s


def nnls(A, b):
    """argmin_{x >= 0} ||A x - b|| by the Lawson-Hanson active-set method.

    Columns enter the passive set one at a time, the one with the largest
    positive gradient w = A^T (b - A x) first (lowest index on ties); an inner
    loop steps back along the segment to the unconstrained least-squares
    point and drops columns that hit zero. A column enters only when its
    gradient clears a rounding-noise tolerance; a column in the span of the
    passive ones has zero gradient against the least-squares residual, so the
    passive columns stay independent when A has dependent columns. An
    entering column whose own coefficient comes out at most 0 (its gradient
    was rounding noise above the tolerance) ends the run at the unchanged x,
    as in Lawson and Hanson's code; without that guard it would enter again
    on every round. The answer depends only on (A, b). Raises LPLimitError
    after 3n + 10 least-squares solves instead of looping.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    x = np.zeros(n)
    if n == 0:
        return x
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * max(m, n) * np.finfo(float).eps \
        * np.abs(A).sum(axis=0).max(initial=0.0) * np.linalg.norm(b)
    solves = 0
    while True:
        w = A.T @ (b - A @ x)
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return x
        passive[j] = True
        entering = True
        while True:
            solves += 1
            if solves > 3 * n + 10:
                raise LPLimitError("NNLS iteration cap reached")
            s_P = _refined_lstsq(A[:, passive], b)
            s = np.zeros(n)
            s[passive] = s_P
            if s_P.min() > 0.0:
                x = s
                break
            if entering and s[j] <= 0.0:
                return x
            entering = False
            blocking = np.flatnonzero(passive & (s <= 0.0))
            ratios = x[blocking] / (x[blocking] - s[blocking])
            x = x + np.min(ratios) * (s - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
