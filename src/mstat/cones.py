"""Exact polyhedral cone primitives over feasible sets Z = {z : A z <= b}.

Everything here is desk scale: membership questions become tiny linear
feasibility problems and distances to normal cones non-negative
least-squares problems. Active sets, multiplier searches over a support,
cone membership (cone_coefficients, and cone_contains, which answers as its
LP from a factorization of the rows where that is certain) and normal-cone
distances serve the coderivative routes and the face-pair oracle of
graph_normals and the verifiers of stationarity.

Tolerance contract. The paper's conditions are exact inclusions, so every
borderline verdict is decided by a tolerance. The user sets one, eps: the
`--tol` of `mstat gph-normal`. Every other value is a module constant, read
at call time.
  eps (DEFAULT_EPS = 1e-9 unless set), absolute. Row i is active at z when
    |b_i - a_i^T z| <= eps; a slack below -eps makes z infeasible. A number
    x vanishes when |x| <= eps: a multiplier, a slope a_i^T eta, an entry of
    z, g, zeta or eta, a sum gap or a spread over a support.
  STRICT_EPS = 1e-12, absolute. x is strictly negative when x <= -STRICT_EPS
    (strictly positive when x > STRICT_EPS) in the orthant and simplex sign
    rules, where the budget multiplier vanishes only at |tau| <= STRICT_EPS
    and 0 < |zeta_i| < STRICT_EPS is flagged boundary_ambiguous.
    nnamcq_check reads eigenvalues up to STRICT_EPS * max(1, largest) as 0.
  Solver constants, private to their modules: lp._PIVOT_TOL, _FEAS_TOL and
    _MAX_PIVOTS (LP; lp.nnls stops after 3n + 10 least-squares solves on n
    columns), _SCALE, _INDEPENDENT, _DEPENDENT, _MINOR and _ROUNDING here
    (where FactoredRows answers a cone question; elsewhere the LP answers
    on rows scaled to unit size), portfolio._QP_EPS and _QP_MAX_ITER (QP),
    newsvendor._CDF_DELTA (the quantile solve's stopping band), and
    stationarity._FD_STEP and _ARGMIN_TOL (the difference step of fd-check,
    the value function).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache
from operator import mul

import numpy as np

from .lp import _FEAS_TOL, _PIVOT_TOL, linear_feasible, nnls

__all__ = [
    "Polyhedron", "InfeasiblePointError", "CombinatorialLimitError",
    "orthant_polyhedron", "simplex_polyhedron",
    "active_set", "active_rows", "active_diagnostics",
    "cone_coefficients", "cone_contains", "multiplier_within_support",
    "distance_to_normal_cone", "cone_distance", "cone_residual",
]

DEFAULT_EPS = 1e-9
STRICT_EPS = 1e-12
MAX_ACTIVE_ROWS = 8


class InfeasiblePointError(ValueError):
    """A query point violates the inequality system beyond tolerance."""


class CombinatorialLimitError(RuntimeError):
    """Too many active rows for an exhaustive enumeration."""


def _readonly(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Polyhedron:
    """Inequality system {z in R^d : A z <= b} with row-index bookkeeping.

    Zero rows with b_i >= 0 never bind and are dropped with a warning; a zero
    row with b_i < 0 makes the system empty and is rejected. `row_index` maps
    retained rows back to the caller's original numbering. A, b and
    row_index are read-only copies, so one polyhedron can be shared.
    """

    A: np.ndarray
    b: np.ndarray
    row_index: np.ndarray = field(default=None)

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValueError("A and b shapes disagree: %s vs %s" % (A.shape, b.shape))
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("need at least one row and one column")
        keep = np.arange(len(A))
        if not all(map(any, A.tolist())):
            zero = np.all(A == 0.0, axis=1)
            bad = zero & (b < 0)
            if bad.any():
                raise ValueError("zero row with negative bound at %s"
                                 % np.flatnonzero(bad).tolist())
            drop = zero & (b >= 0)
            if drop.any():
                warnings.warn("dropping %d zero rows that never bind" % int(drop.sum()))
            keep = np.flatnonzero(~drop)
            A, b = A[keep], b[keep]
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "b", _readonly(b))
        object.__setattr__(self, "row_index", _readonly(keep, int))

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.A.shape[1]

    def slacks(self, z):
        return self.b - self.A @ np.asarray(z, dtype=float)


@cache
def orthant_polyhedron(d):
    """The nonnegative orthant as {-I z <= 0}, one shared Polyhedron per d."""
    return Polyhedron(-np.eye(d), np.zeros(d))


@cache
def simplex_polyhedron(d):
    """{z >= 0, 1^T z <= 1} as a (d+1)-row system, one shared Polyhedron per d."""
    A = np.vstack([-np.eye(d), np.ones((1, d))])
    b = np.concatenate([np.zeros(d), [1.0]])
    return Polyhedron(A, b)


def active_set(poly, z, eps=DEFAULT_EPS):
    """Indices i with |a_i^T z - b_i| <= eps; requires z feasible within eps."""
    return active_rows(poly, poly.slacks(np.asarray(z, dtype=float)), eps)


def active_rows(poly, slack, eps=DEFAULT_EPS):
    """Indices i with |slack_i| <= eps for the slack vector b - A z of a
    point z; raises InfeasiblePointError when some slack is below -eps."""
    s = slack.tolist()
    if min(s, default=0.0) < -eps:
        i = s.index(min(s))
        raise InfeasiblePointError("point violates row %d by %.3g" % (poly.row_index[i], -s[i]))
    return tuple(i for i, v in enumerate(s) if abs(v) <= eps)

def active_diagnostics(slack, eps=DEFAULT_EPS):
    """Rows whose entry of the slack vector b - A z of a point z sits within
    a decade of the activity threshold.

    Classification near |slack| ~ eps is tolerance-driven; callers surface
    these rows instead of silently committing to one side.
    """
    return tuple(i for i, s in enumerate(slack.tolist()) if eps < abs(s) <= 10.0 * eps)


def cone_coefficients(w, R, L=None, eps=DEFAULT_EPS):
    """Coefficients (mu, nu) with R^T mu + L^T nu = w and mu >= 0, or None.

    Decides w in cone(rows of R) + span(rows of L) by one LP; every LP of
    the package is this question. The LP reads each row times the power of
    two that puts its largest |entry| in [1, 2), a zero row left 0: an exact
    scaling, which changes no cone and not the LP's threshold (it reads only
    w), only what its pivots see. Its coefficients are multiplied by the
    same powers, so they reproduce w from the rows as given. With no rows
    at all, w must vanish within eps.
    """
    rows = np.asarray(R, dtype=float) if L is None else np.vstack([R, L])
    if len(rows) == 0:
        return np.zeros(0) if np.max(np.abs(w), initial=0.0) <= eps else None
    power = 1 - np.frexp(np.max(np.abs(rows), axis=1, initial=0.0))[1]
    x = linear_feasible(A_eq=np.ldexp(rows, power[:, None]).T, b_eq=w,
                        nonneg=np.arange(len(rows)) < len(R))
    with np.errstate(over="ignore"):    # a coefficient past the float range is inf
        return None if x is None else np.ldexp(x, power)


# The factorization decides a cone question only where its float rank is
# sure: every non-zero generator entry lies within [1/_SCALE, _SCALE], and
# each row's residual against the span of the rows before it is at least
# _INDEPENDENT times its norm (independent) or at most _DEPENDENT times the
# smaller of its norm and 1 (dependent). Dependent rows also need integer
# entries whose rank largest row norms multiply to at most _MINOR. Without
# these guards decide answers against the exact phase-1 optimum on a few
# float draws in a thousand: the span row (-1.97e-219), whose squared norm
# underflows to 0, counts as dependent and w = (1e-7) comes out "out", and
# nearly dependent rows mislead the rank alike. Only decide's _PIVOT_TOL
# margin follows the LP (its ratio test). Elsewhere the LP decides.
# _ROUNDING bounds, relative to the terms summed, a residual's rounding.
_SCALE = 1e3
_INDEPENDENT = 1e-2
_DEPENDENT = 1e-13
_MINOR = 1e4
_ROUNDING = 1e-14


class FactoredRows:
    """Generator rows (lists of Python floats) and their Gram-Schmidt
    factorization, for the cone questions asked of their prefixes (decide).

    Each row in turn is projected on the orthonormal basis of the rows
    before it, twice where the first pass leaves between _DEPENDENT and 0.1
    of its norm. A clearly independent row adds its normalized residual to
    the basis and its coordinates to coords; a dependent row adds nothing,
    and once the basis spans the whole space every further row is
    dependent. usable is the number of leading rows that pass the guards
    above; decide answers no question about a longer prefix.
    """

    __slots__ = ("rows", "basis", "coords", "lengths", "pivots", "rank", "usable")

    def __init__(self, rows):
        self.rows, self.usable = rows, 0
        basis, coords, lengths, pivots, rank = self.basis, self.coords, self.lengths, \
            self.pivots, self.rank = [], [], [], [], [0]
        entries = [abs(v) for row in rows for v in row if v]
        if not (math.isfinite(sum(entries))
                and 1.0 / _SCALE <= min(entries, default=1.0)
                and max(entries, default=1.0) <= _SCALE):
            return
        d = len(rows[0]) if rows else 0
        norms = [math.sqrt(sum(map(mul, a, a))) for a in rows]
        integer = all(map(float.is_integer, entries))
        for j, a in enumerate(rows):
            norm = norms[j]
            if len(basis) < d:
                c = [sum(map(mul, q, a)) for q in basis]
                r = _minus(a, c, basis)
                left = math.sqrt(sum(map(mul, r, r)))
                bound = _DEPENDENT * min(norm, 1.0)
                if bound < left < 0.1 * norm:
                    more = [sum(map(mul, q, r)) for q in basis]
                    r = _minus(r, more, basis)
                    c = [s + t for s, t in zip(c, more)]
                    left = math.sqrt(sum(map(mul, r, r)))
                if left > bound:
                    if left < _INDEPENDENT * norm:
                        break
                    basis.append([x / left for x in r])
                    coords.append(c + [left])
                    lengths.append(norm)
                    pivots.append(j)
                    rank.append(len(basis))
                    continue
            if not integer:
                break
            rank.append(len(basis))
        self.usable = len(rank) - 1
        if self.usable > len(basis) \
                and math.prod(sorted(norms)[len(norms) - len(basis):]) > _MINOR:
            self.usable = next(j for j, r in enumerate(rank) if r < j) - 1

    def decide(self, w, n, start, eps=DEFAULT_EPS):
        """Whether w, a list, lies in cone(rows[start:n]) + span(rows[:start])
        as cone_coefficients would find, or None where neither certificate
        holds and the LP must decide.

        True when the coefficients of the basic rows, clipped at 0 on the
        cone rows, leave a residual whose _phase1_bound is at most half of
        feasibility_threshold(w). False when the Euclidean distance from w
        to the span of the rows exceeds twice that threshold, since the LP's
        phase-1 optimum, an L1 residual, is at least that distance, plus
        _PIVOT_TOL (1 + |w|_1) times the rows' summed |entries|, which
        covers a ratio test of the LP that accepts a step up to _PIVOT_TOL
        past its minimum. The factor 2 covers rounding in both tests. With
        no rows, w must vanish within eps, cone_coefficients' rule; a w of
        another length than the rows is left to the LP, which raises.
        """
        if n == 0:
            return max(map(abs, w), default=0.0) <= eps
        if n > self.usable or len(w) != len(self.rows[0]):
            return None
        total = sum(map(abs, w))
        if not total:
            return True
        if not math.isfinite(total):
            return None
        threshold = _FEAS_TOL * (1.0 + total)
        rank, coords, rows = self.rank[n], self.coords, self.rows
        y = [sum(map(mul, q, w)) for q in self.basis[:rank]]
        r = _minus(w, y, self.basis)
        dist = math.sqrt(sum(map(mul, r, r)))
        margin = _PIVOT_TOL * (1.0 + total) * sum(abs(v) for row in rows[:n] for v in row)
        if dist > 2.0 * threshold + margin:
            return False
        x = y[:]
        for t in range(rank - 1, -1, -1):
            v = x[t]
            for u in range(t + 1, rank):
                v -= coords[u][t] * x[u]
            x[t] = v / coords[t][t]
        # r is also w's residual at x; clipping a coefficient v of row a
        # adds v a to it.
        scale = max(map(abs, w)) + sum(map(abs, y))
        for j, v, length in zip(self.pivots, x, self.lengths):
            scale += abs(v) * length
            if v < 0.0 and j >= start:
                r = [a + v * b for a, b in zip(r, rows[j])]
        return _phase1_bound(w, r, _ROUNDING * scale) <= 0.5 * threshold or None


def _minus(a, c, basis):
    """a minus the combination of the basis vectors with coefficients c."""
    for t, q in zip(c, basis):
        if t:
            a = [x - t * y for x, y in zip(a, q)]
    return a


def _phase1_bound(b, r, noise):
    """An upper bound on the phase-1 optimum of A x = b, x >= 0, from the
    residual r = b - A x0 of any x0 >= 0, on lists of Python floats.

    Phase 1 flips the rows with b_i < 0 and keeps each artificial
    s_i (b_i - (A x)_i) >= 0, s_i = -1 on flipped rows and +1 on the rest;
    its optimum is the least sum of the artificials. The point (1 - t) x0
    has residual t b + (1 - t) r, whose signs are those once
    t >= |r_i| / (|b_i| + |r_i|) on every row where s_i r_i < 0, so its L1
    norm bounds the optimum. The L1 norm of r alone does not: a row where r
    has the wrong sign can cost phase 1 far more than |r_i|. An entry of r
    within noise of 0 is read as 0 where its sign is wrong, so that a
    rounding-sized entry does not set t."""
    t = 0.0
    for bi, ri in zip(b, r):
        if ri < -noise if bi >= 0.0 else ri > noise:
            t = max(t, abs(ri) / (abs(bi) + abs(ri)))
    if not t:
        return sum(map(abs, r))
    return sum(abs(t * bi + (1.0 - t) * ri) for bi, ri in zip(b, r))


def cone_contains(w, R, L=None, eps=DEFAULT_EPS, factor=None):
    """Whether cone_coefficients(w, R, L, eps) is not None.

    factor is a FactoredRows whose first len(L) rows are those of L and
    whose next len(R) rows are those of R, each group in any order; by
    default the rows of L, then those of R, are factored here. The LP runs
    only where neither of the factorization's certificates decides
    (FactoredRows.decide); it raises as cone_coefficients raises.
    """
    w = np.asarray(w, dtype=float)
    start = 0 if L is None else len(L)
    if factor is None:
        factor = FactoredRows((np.asarray(R, dtype=float) if L is None
                               else np.vstack([L, R])).tolist())
    verdict = factor.decide(w.tolist(), start + len(R), start, eps)
    if verdict is None:
        return cone_coefficients(w, R, L, eps) is not None
    return verdict


def multiplier_within_support(poly, target, support, eps=DEFAULT_EPS):
    """lam >= 0 carried by `support` rows with A^T lam = target, or None.

    The support is an upper bound: entries inside it may come out zero. Callers
    sweeping supports rely on this being monotone in the support set.
    """
    support = sorted(int(i) for i in support)
    lam_S = cone_coefficients(np.asarray(target, dtype=float), poly.A[support], eps=eps)
    if lam_S is None:
        return None
    lam = np.zeros(poly.m)
    lam[support] = np.maximum(lam_S, 0.0)
    return lam


def distance_to_normal_cone(poly, z, u):
    """Euclidean distance from u to N_Z(z) = cone of the active rows of A.

    The distance is min_{lam >= 0} ||A_I^T lam - u||, a non-negative
    least-squares problem that the Lawson-Hanson method solves exactly, so
    the number of active rows is not capped.
    """
    u = np.asarray(u, dtype=float)
    return cone_distance(u, poly.A[list(active_set(poly, z, DEFAULT_EPS))])


def cone_residual(u, R):
    """R^T mu - u at the NNLS point mu = argmin_{mu >= 0} ||R^T mu - u||."""
    generators = R.T
    return generators @ nnls(generators, u) - u


def cone_distance(u, R):
    """Euclidean distance from u to cone(rows of R), min_{mu >= 0} ||R^T mu - u||."""
    return float(np.linalg.norm(cone_residual(u, R)))
