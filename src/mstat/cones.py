"""Exact polyhedral cone primitives over feasible sets Z = {z : A z <= b}.

Everything here is desk scale: membership questions become tiny linear
feasibility problems and distances to normal cones non-negative
least-squares problems. Active sets, multiplier searches over a support,
cone membership (cone_coefficients) and normal-cone distances serve the
coderivative routes and the face-pair oracle of graph_normals and the
verifiers of stationarity.

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
    columns), portfolio._QP_EPS and _QP_MAX_ITER (QP), newsvendor._NEWTON_TOL,
    _MAX_EXPAND and _HALLEY_TOL (quantile), and stationarity._FD_STEP and _ARGMIN_TOL
    (gradient check, value function).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .lp import linear_feasible, nnls

__all__ = [
    "Polyhedron", "InfeasiblePointError", "CombinatorialLimitError",
    "orthant_polyhedron", "simplex_polyhedron",
    "active_set", "active_rows", "active_diagnostics",
    "cone_coefficients", "multiplier_within_support",
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
    s = np.abs(slack)
    near = (s > eps) & (s <= 10.0 * eps)
    return tuple(int(i) for i in np.flatnonzero(near))


def cone_coefficients(w, R, L=None, eps=DEFAULT_EPS):
    """Coefficients (mu, nu) with R^T mu + L^T nu = w and mu >= 0, or None.

    Decides w in cone(rows of R) + span(rows of L) by one LP; every LP of
    the package is this question. With no rows at all, w must vanish
    within eps.
    """
    cols = (R if L is None else np.vstack([R, L])).T
    if cols.shape[1] == 0:
        return np.zeros(0) if np.max(np.abs(w), initial=0.0) <= eps else None
    return linear_feasible(A_eq=cols, b_eq=w, nonneg=np.arange(cols.shape[1]) < len(R))


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
