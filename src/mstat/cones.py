"""Exact polyhedral cone primitives over feasible sets Z = {z : A z <= b}.

Everything here is desk scale: membership questions become tiny linear
feasibility problems and distances to normal cones non-negative
least-squares problems. Active sets, multiplier searches over a support and
normal-cone distances serve the coderivative routes of graph_normals and the
verifiers of stationarity; polars, cone membership and face differences of
critical cones serve the face-pair oracle, graph_normals.oracle_membership.

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
  Solver constants, private to their modules: lp._PIVOT_TOL, _FEAS_TOL,
    _MAX_PIVOTS and _CERTIFY (LP and NNLS), portfolio._QP_EPS and
    _QP_MAX_ITER (QP), newsvendor._NEWTON_TOL and _MAX_EXPAND (Newton), and
    stationarity._FD_STEP and _ARGMIN_TOL (gradient check, value function).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .lp import linear_feasible, nnls

__all__ = [
    "Polyhedron", "ConeRepH", "ConeRepV", "ActiveDecomposition",
    "InfeasiblePointError", "CombinatorialLimitError",
    "orthant_polyhedron", "simplex_polyhedron",
    "active_set", "active_rows", "active_diagnostics",
    "polar_cone", "member_h", "member_v",
    "face_difference", "cone_coefficients", "multiplier_within_support",
    "distance_to_normal_cone", "cone_distance", "cone_residual",
]

DEFAULT_EPS = 1e-9
STRICT_EPS = 1e-12
MAX_ACTIVE_ROWS = 8


class InfeasiblePointError(ValueError):
    """A query point violates the inequality system beyond tolerance."""


class CombinatorialLimitError(RuntimeError):
    """Too many active rows for an exhaustive enumeration."""


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Polyhedron:
    """Inequality system {z in R^d : A z <= b} with row-index bookkeeping.

    Zero rows with b_i >= 0 never bind and are dropped with a warning; a zero
    row with b_i < 0 makes the system empty and is rejected. `row_index` maps
    retained rows back to the caller's original numbering.
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
        zero = np.all(A == 0.0, axis=1)
        bad = zero & (b < 0)
        if bad.any():
            raise ValueError("zero row with negative bound at %s" % np.flatnonzero(bad).tolist())
        drop = zero & (b >= 0)
        if drop.any():
            warnings.warn("dropping %d zero rows that never bind" % int(drop.sum()))
        keep = ~drop
        object.__setattr__(self, "A", _readonly(A[keep]))
        object.__setattr__(self, "b", _readonly(b[keep]))
        object.__setattr__(self, "row_index", _readonly(np.flatnonzero(keep)).astype(int))

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.A.shape[1]

    def slacks(self, z):
        return self.b - self.A @ np.asarray(z, dtype=float)

    def to_dict(self):
        return {"A": self.A.tolist(), "b": self.b.tolist()}


def orthant_polyhedron(d):
    """The nonnegative orthant as {-I z <= 0}."""
    return Polyhedron(-np.eye(d), np.zeros(d))


def simplex_polyhedron(d):
    """{z >= 0, 1^T z <= 1} as a (d+1)-row system."""
    A = np.vstack([-np.eye(d), np.ones((1, d))])
    b = np.concatenate([np.zeros(d), [1.0]])
    return Polyhedron(A, b)


class _ConeRep:
    """A cone held as two row blocks of one ambient dimension, named by the
    subclass's _KEYS; an absent or empty block is held as zero rows."""

    def _hold(self, blocks, dim):
        if dim is None:
            if all(rows is None for rows in blocks):
                raise ValueError("give %s, %s or an ambient dimension" % self._KEYS)
            probe = blocks[0] if blocks[0] is not None and len(blocks[0]) else blocks[1]
            dim = np.atleast_2d(np.asarray(probe, dtype=float)).shape[1]
        blocks = [np.zeros((0, dim)) if rows is None or len(rows) == 0
                  else np.atleast_2d(np.asarray(rows, dtype=float)) for rows in blocks]
        if any(rows.shape[1] != dim for rows in blocks):
            raise ValueError("inconsistent ambient dimensions")
        for key, rows in zip(self._KEYS, blocks):
            object.__setattr__(self, key, _readonly(rows))

    @property
    def dim(self):
        return getattr(self, self._KEYS[0]).shape[1]


@dataclass(frozen=True, init=False)
class ConeRepH(_ConeRep):
    """Halfspace form {d : E d = 0, G d <= 0}; always contains the origin."""

    E: np.ndarray
    G: np.ndarray
    _KEYS = ("E", "G")

    def __init__(self, E=None, G=None, dim=None):
        self._hold((E, G), dim)


@dataclass(frozen=True, init=False)
class ConeRepV(_ConeRep):
    """Generator form {R^T mu + L^T nu : mu >= 0, nu free}, rows as generators."""

    R: np.ndarray
    L: np.ndarray
    _KEYS = ("R", "L")

    def __init__(self, R=None, L=None, dim=None):
        self._hold((R, L), dim)


@dataclass(frozen=True)
class ActiveDecomposition:
    """One nonnegative multiplier over the active rows, split by sign.

    lam has full length m with lam_i = 0 off the active set; I_plus and I_zero
    partition the active set by lam_i > 0 versus lam_i = 0.
    """

    I: tuple
    lam: np.ndarray
    I_plus: tuple
    I_zero: tuple


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

def active_diagnostics(poly, z, eps=DEFAULT_EPS):
    """Rows whose slack sits within a decade of the activity threshold.

    Classification near |slack| ~ eps is tolerance-driven; callers surface
    these rows instead of silently committing to one side.
    """
    s = np.abs(poly.slacks(np.asarray(z, dtype=float)))
    near = (s > eps) & (s <= 10.0 * eps)
    return tuple(int(i) for i in np.flatnonzero(near))


def polar_cone(K):
    """Polar of {E d = 0, G d <= 0} is {G^T mu + E^T nu : mu >= 0, nu free}."""
    return ConeRepV(K.G, K.E, dim=K.dim)


def member_h(K, d, eps=DEFAULT_EPS):
    """Direct linear test of d against a halfspace-form cone."""
    d = np.asarray(d, dtype=float)
    if d.shape[0] != K.dim:
        raise ValueError("dimension mismatch")
    if K.E.shape[0] and np.max(np.abs(K.E @ d)) > eps:
        return False
    if K.G.shape[0] and np.max(K.G @ d) > eps:
        return False
    return True


def member_v(V, w, eps=DEFAULT_EPS):
    """LP feasibility test of w against a generator-form cone."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != V.dim:
        raise ValueError("dimension mismatch")
    return cone_coefficients(w, V.R, V.L, eps) is not None


def face_difference(poly, decomposition, J1, J2):
    """Minkowski difference F_J1 - F_J2 of nested critical-cone faces.

    decomposition is the multiplier split of a normal vector at the point.
    Needs J1 subseteq J2 subseteq its I_zero; the result keeps equalities on
    I_plus + J1 and inequalities on J2 \\ J1 only.
    """
    J1 = frozenset(int(j) for j in J1)
    J2 = frozenset(int(j) for j in J2)
    if not J1 <= J2:
        raise ValueError("J1 must be a subset of J2")
    if not J2 <= frozenset(decomposition.I_zero):
        raise ValueError("J2 must consist of zero-multiplier active rows")
    eq_rows = sorted(set(decomposition.I_plus) | J1)
    ineq_rows = sorted(J2 - J1)
    return ConeRepH(poly.A[eq_rows], poly.A[ineq_rows], dim=poly.dim)


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


def multiplier_within_support(poly, z, target, support, eps=DEFAULT_EPS):
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
