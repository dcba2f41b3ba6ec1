"""Exact polyhedral cone primitives over feasible sets Z = {z : A z <= b}.

Everything here is desk scale: membership questions become tiny linear
feasibility problems, distances to normal cones non-negative least-squares
problems, and face enumerations are exponential in the number of active rows
and deliberately capped. Tangent, normal and critical cones follow
the classical descriptions for linear inequality systems; the multiplier
searches make the implicit existential quantifiers explicit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .lp import linear_feasible, nnls

__all__ = [
    "Polyhedron", "ConeRepH", "ConeRepV", "ActiveDecomposition", "Face",
    "InfeasiblePointError", "CombinatorialLimitError",
    "orthant_polyhedron", "simplex_polyhedron",
    "active_set", "active_rows", "active_diagnostics", "tangent_cone",
    "normal_cone_multiplier", "critical_cone",
    "polar_cone", "member_h", "member_v", "faces_of_cone",
    "face_difference", "cone_coefficients", "multiplier_within_support",
    "distance_to_normal_cone", "cone_distance",
]

DEFAULT_EPS = 1e-9
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

    def contains(self, z, eps=DEFAULT_EPS):
        return bool(np.min(self.slacks(z), initial=np.inf) >= -eps)

    def to_dict(self):
        return {"A": self.A.tolist(), "b": self.b.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["A"], d["b"])


def orthant_polyhedron(d):
    """The nonnegative orthant as {-I z <= 0}."""
    return Polyhedron(-np.eye(d), np.zeros(d))


def simplex_polyhedron(d):
    """{z >= 0, 1^T z <= 1} as a (d+1)-row system."""
    A = np.vstack([-np.eye(d), np.ones((1, d))])
    b = np.concatenate([np.zeros(d), [1.0]])
    return Polyhedron(A, b)


@dataclass(frozen=True)
class ConeRepH:
    """Halfspace form {d : E d = 0, G d <= 0}; always contains the origin."""

    E: np.ndarray
    G: np.ndarray

    def __init__(self, E=None, G=None, dim=None):
        if E is None and G is None and dim is None:
            raise ValueError("give E, G or an ambient dimension")
        if dim is None:
            probe = E if E is not None and len(E) else G
            dim = np.atleast_2d(np.asarray(probe, dtype=float)).shape[1]
        E = np.zeros((0, dim)) if E is None or len(E) == 0 else np.atleast_2d(np.asarray(E, dtype=float))
        G = np.zeros((0, dim)) if G is None or len(G) == 0 else np.atleast_2d(np.asarray(G, dtype=float))
        if E.shape[1] != dim or G.shape[1] != dim:
            raise ValueError("inconsistent ambient dimensions")
        object.__setattr__(self, "E", _readonly(E))
        object.__setattr__(self, "G", _readonly(G))

    @property
    def dim(self):
        return self.E.shape[1]

    def to_dict(self):
        return {"E": self.E.tolist(), "G": self.G.tolist()}

    @classmethod
    def from_dict(cls, d):
        dim = None
        for key in ("E", "G"):
            rows = d.get(key) or []
            if rows:
                dim = len(rows[0])
        return cls(d.get("E"), d.get("G"), dim=dim)


@dataclass(frozen=True)
class ConeRepV:
    """Generator form {R^T mu + L^T nu : mu >= 0, nu free}, rows as generators."""

    R: np.ndarray
    L: np.ndarray

    def __init__(self, R=None, L=None, dim=None):
        if R is None and L is None and dim is None:
            raise ValueError("give R, L or an ambient dimension")
        if dim is None:
            probe = R if R is not None and len(R) else L
            dim = np.atleast_2d(np.asarray(probe, dtype=float)).shape[1]
        R = np.zeros((0, dim)) if R is None or len(R) == 0 else np.atleast_2d(np.asarray(R, dtype=float))
        L = np.zeros((0, dim)) if L is None or len(L) == 0 else np.atleast_2d(np.asarray(L, dtype=float))
        if R.shape[1] != dim or L.shape[1] != dim:
            raise ValueError("inconsistent ambient dimensions")
        object.__setattr__(self, "R", _readonly(R))
        object.__setattr__(self, "L", _readonly(L))

    @property
    def dim(self):
        return self.R.shape[1]

    def to_dict(self):
        return {"R": self.R.tolist(), "L": self.L.tolist()}

    @classmethod
    def from_dict(cls, d):
        dim = None
        for key in ("R", "L"):
            rows = d.get(key) or []
            if rows:
                dim = len(rows[0])
        return cls(d.get("R"), d.get("L"), dim=dim)


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

    def complementarity_residual(self, poly, z):
        return float(np.max(np.abs(self.lam * (poly.A @ z - poly.b)), initial=0.0))


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


def tangent_cone(poly, z, eps=DEFAULT_EPS):
    """{d : a_i^T d <= 0 for active i}; the full space at interior points."""
    I = active_set(poly, z, eps)
    return ConeRepH(None, poly.A[list(I)], dim=poly.dim)


def normal_cone_multiplier(poly, z, v, eps=DEFAULT_EPS):
    """Decompose -v over the active rows: find lam >= 0 with A^T lam = -v.

    Decides 0 in v + N_Z(z): pass v = grad f to certify stationarity of f, or
    v = -w to test w in N_Z(z). Returns an ActiveDecomposition or None.
    Off-active multipliers are pinned to zero (complementary slackness).
    """
    I = active_set(poly, z, eps)
    lam = multiplier_within_support(poly, z, -np.asarray(v, dtype=float), I, eps)
    if lam is None:
        return None
    plus = tuple(i for i in I if lam[i] > eps)
    zero = tuple(i for i in I if i not in plus)
    return ActiveDecomposition(I=I, lam=lam, I_plus=plus, I_zero=zero)


def critical_cone(poly, z, v_normal, eps=DEFAULT_EPS):
    """Critical cone at z for v_normal in N_Z(z), in multiplier-split form.

    Rows with positive multiplier become equalities, zero-multiplier active
    rows stay inequalities. Raises if v_normal is not a normal vector at z.
    """
    decomp = normal_cone_multiplier(poly, z, -np.asarray(v_normal, dtype=float), eps)
    if decomp is None:
        raise ValueError("v_normal is not in the normal cone at z")
    return ConeRepH(poly.A[list(decomp.I_plus)], poly.A[list(decomp.I_zero)], dim=poly.dim)


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


@dataclass(frozen=True)
class Face:
    """A closed face of a halfspace-form cone together with its defining rows."""

    cone: ConeRepH
    J: tuple
    tight: frozenset


def faces_of_cone(K, eps=DEFAULT_EPS):
    """All closed faces of K, one per distinct face set.

    Promotes every subset J of G-rows to equalities and deduplicates
    set-equal results by their tight-row signature (two faces of the same
    system coincide exactly when the same G-rows are forced to equality).
    Exponential in the G-row count and refused beyond MAX_ACTIVE_ROWS.
    """
    r = K.G.shape[0]
    if r > MAX_ACTIVE_ROWS:
        raise CombinatorialLimitError("%d inequality rows exceeds cap %d"
                                      % (r, MAX_ACTIVE_ROWS))
    out = []
    seen = {}
    for size in range(r + 1):
        for J in combinations(range(r), size):
            mask = np.zeros(r, dtype=bool)
            mask[list(J)] = True
            face = ConeRepH(np.vstack([K.E, K.G[mask]]) if K.E.shape[0] or mask.any() else None,
                            K.G[~mask], dim=K.dim)
            sig = _tight_rows_signature(K, mask, face, eps)
            if sig in seen:
                continue
            seen[sig] = True
            out.append(Face(cone=face, J=tuple(int(j) for j in J), tight=sig))
    return out


def _tight_rows_signature(K, mask, face, eps):
    """Indices of K's G-rows forced to equality on the candidate face."""
    polar = polar_cone(face)
    tight = set(int(j) for j in np.flatnonzero(mask))
    for i in np.flatnonzero(~mask):
        if member_v(polar, -K.G[int(i)], eps):
            tight.add(int(i))
    return frozenset(tight)


def face_difference(poly, z, v_normal, J1, J2, decomposition=None, eps=DEFAULT_EPS):
    """Minkowski difference F_J1 - F_J2 of nested critical-cone faces.

    Needs J1 subseteq J2 subseteq I_zero of the multiplier split; the result
    keeps equalities on I_plus + J1 and inequalities on J2 \\ J1 only.
    """
    if decomposition is None:
        decomposition = normal_cone_multiplier(poly, z, -np.asarray(v_normal, dtype=float), eps)
        if decomposition is None:
            raise ValueError("v_normal is not in the normal cone at z")
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


def distance_to_normal_cone(poly, z, u, eps=DEFAULT_EPS):
    """Euclidean distance from u to N_Z(z) = cone of the active rows of A.

    The distance is min_{lam >= 0} ||A_I^T lam - u||, a non-negative
    least-squares problem that the Lawson-Hanson method solves exactly, so
    the number of active rows is not capped.
    """
    u = np.asarray(u, dtype=float)
    return cone_distance(u, poly.A[list(active_set(poly, z, eps))])


def cone_distance(u, R):
    """Euclidean distance from u to cone(rows of R), min_{mu >= 0} ||R^T mu - u||."""
    generators = R.T
    return float(np.linalg.norm(generators @ nnls(generators, u) - u))
