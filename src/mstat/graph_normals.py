"""Membership in the limiting normal cone to the graph of z -> N_Z(z).

For polyhedral Z the graph of the normal-cone map is a finite union of
polyhedra, and its limiting normal cone at a point (z, -g) decomposes over
pairs of nested closed faces of the critical cone. Testing whether a pair
(zeta, -eta) lies in that cone, equivalently whether zeta belongs to the
Mordukhovich coderivative D*N_Z(z, -g)(eta), is the primitive every
stationarity system in this package reduces to.

Sign bookkeeping is centralized: all predicates take g, the gradient of the
lower-level objective at z, so the graph point under test is (z, -g) and
lower-level stationarity of z is exactly the graph-point precondition.

The direct polyhedral predicate decides the existential system at its one
maximal row split with two LPs, so it has no cap, and the orthant and
simplex specializations reduce it to sign conditions in closed form. The
face-pair oracle decides the same system independently: it sweeps multiplier
supports and nested row subsets, materializes each Minkowski difference cone
and tests memberships with the generic cone machinery, exponential in the
active rows and capped at MAX_ACTIVE_ROWS. No route of the package calls it;
it stays here because the benchmark (perfbench/workloads.py) imports it for
its reference answers, and the tests compare every route against it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .cones import (
    ActiveDecomposition,
    CombinatorialLimitError,
    DEFAULT_EPS,
    MAX_ACTIVE_ROWS,
    Polyhedron,
    active_diagnostics,
    active_set,
    cone_coefficients,
    face_difference,
    member_h,
    member_v,
    multiplier_within_support,
    polar_cone,
)

__all__ = [
    "NotGraphPointError", "GraphPoint", "NormalPair", "Membership",
    "finite_vector", "finite_number", "object_list",
    "GraphContext", "make_graph_context",
    "orthant_membership", "simplex_membership", "polyhedron_membership",
    "oracle_membership",
]

STRICT_EPS = 1e-12


class NotGraphPointError(ValueError):
    """(z, -g) is not on the graph of the normal-cone map."""


_NUMBER_TYPES = {float, int}
_FLOAT = {float}


def _holds_non_number(value):
    """Whether value, or any entry of it at any depth, is a boolean or a string."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "bSU"
    if isinstance(value, (list, tuple)):
        return not set(map(type, value)) <= _NUMBER_TYPES and any(map(_holds_non_number, value))
    return isinstance(value, (bool, np.bool_, str, bytes))


def finite_vector(value, name, scalar=False, flat=False):
    """value as a finite 1-D float array; anything else raises ValueError.

    Booleans and strings are not numbers here, so a JSON true or "1" is
    rejected rather than read as 1. With scalar, a lone number reads as a vector of one entry;
    with flat, an array of any shape reads in row-major order.
    """
    # JSON gives numbers as Python floats; those skip the generic checks.
    if scalar and type(value) is float:
        if math.isfinite(value):
            return np.array([value])
    elif type(value) is list and set(map(type, value)) == _FLOAT:
        if all(map(math.isfinite, value)):
            return np.array(value)
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        v = np.float64(np.nan)
    if flat or (scalar and v.ndim == 0):
        v = v.reshape(-1)
    # On desk-scale vectors a Python scan costs a fraction of np.isfinite's
    # call overhead, which every scenario of a verify pays several times.
    if v.ndim != 1 or _holds_non_number(value) or not all(map(math.isfinite, v.tolist())):
        raise ValueError("%s must be a finite 1-D array" % name)
    return v


def finite_number(value, name):
    """value as one finite float: a number, or an array holding exactly one."""
    if type(value) is float:
        x = value
    else:
        v = np.asarray(value)
        x = float(v.reshape(-1)[0]) if v.size == 1 and v.dtype.kind in "iuf" else np.nan
    if not math.isfinite(x):
        raise ValueError("%s must be one finite number" % name)
    return x


def object_list(value, name):
    """value as a list of JSON objects (mappings); anything else raises
    ValueError naming the list or the first entry that is not an object."""
    if not isinstance(value, (list, tuple)):
        raise ValueError("%ss must be a list" % name)
    for i, item in enumerate(value):
        if not isinstance(item, (dict, Mapping)):
            raise ValueError("%s %d must be an object" % (name, i))
    return value


@dataclass(frozen=True)
class GraphPoint:
    """A decision point z and the lower-objective gradient g, finite 1-D arrays."""

    z: np.ndarray
    g: np.ndarray

    def __init__(self, z, g):
        object.__setattr__(self, "z", finite_vector(z, "z"))
        object.__setattr__(self, "g", finite_vector(g, "g"))
        if self.z.shape != self.g.shape:
            raise ValueError("z and g must share a dimension")


@dataclass(frozen=True)
class NormalPair:
    """Candidate (zeta, eta): zeta in D*N_Z(z,-g)(eta) iff (zeta,-eta) is normal.

    Both are finite 1-D arrays of one dimension.
    """

    zeta: np.ndarray
    eta: np.ndarray

    def __init__(self, zeta, eta):
        object.__setattr__(self, "zeta", finite_vector(zeta, "zeta"))
        object.__setattr__(self, "eta", finite_vector(eta, "eta"))
        if self.zeta.shape != self.eta.shape:
            raise ValueError("zeta and eta must share a dimension")


@dataclass(frozen=True)
class Membership:
    """Rich membership verdict; truthiness follows `member`."""

    member: bool
    verdict: str            # "member" | "not_member" | "empty_coderivative"
    method: str
    witness: dict = field(default_factory=dict)

    def __bool__(self):
        return self.member

    def to_dict(self):
        return {"member": self.member, "verdict": self.verdict,
                "method": self.method, "witness": self.witness}


def _empty(method, reason):
    return Membership(False, "empty_coderivative", method, {"reason": reason})


@dataclass(frozen=True)
class GraphContext:
    """A validated graph point (z, -g) of Z = {A z <= b} and its active rows.

    Built by make_graph_context; pass it to answer many queries at one point
    without validating the point again.
    """

    poly: Polyhedron
    z: np.ndarray
    g: np.ndarray
    active: tuple
    eps: float


def make_graph_context(poly, z, g, eps=DEFAULT_EPS):
    """Validate the graph point (z, -g) and record its active rows.

    Raises NotGraphPointError when z is infeasible or -g fails to decompose
    over the active rows.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(g, dtype=float)
    try:
        I = active_set(poly, z, eps)
    except ValueError as exc:
        raise NotGraphPointError(str(exc)) from exc
    if multiplier_within_support(poly, z, -g, I, eps) is None:
        raise NotGraphPointError("-g is not in the normal cone at z")
    return GraphContext(poly=poly, z=z, g=g, active=I, eps=eps)


def _subsets(pool):
    pool = tuple(pool)
    for size in range(len(pool) + 1):
        yield from combinations(pool, size)


def polyhedron_membership(poly, gp, pair, eps=DEFAULT_EPS, context=None):
    """Direct coderivative membership test for Z = {A z <= b}, by two LPs.

    The existential system asks for a disjoint pair of active row sets, the
    equality rows Q and the inequality rows R, such that
      (a) a_i^T eta vanishes (|a_i^T eta| <= eps) on Q and is nonnegative
          (>= -eps) on R,
      (b) -g = A_Q^T lam for some lam >= 0 (a multiplier carried by Q), and
      (c) zeta lies in span(A_Q) + cone(A_R).
    With E = {i in I : |a_i^T eta| <= eps} and P = {i in I : a_i^T eta > eps}
    the point is a member iff (E, P) itself satisfies (b) and (c).

    Proof. (E, P) passes (a) by construction, so the condition is sufficient.
    Conversely let (Q, R) pass (a)-(c). By (a), Q subseteq E and
    R subseteq E + P. Condition (b) is monotone in the support: a multiplier
    carried by Q is carried by E. Condition (c) is monotone in both sets: a
    row of R inside E moves from the cone to the span, which only enlarges
    the set, and the other rows of R lie in P. Hence (E, P) passes (b) and
    (c). This is the face-pair description of Dontchev and Rockafellar
    (SIAM J. Optim. 1996) read at its maximal pair; the face-pair oracle
    below enumerates every pair and serves as the independent cross-check.

    When E = I the support LP (b) is the graph-point validation already done
    by make_graph_context and is skipped. A member's witness is the
    canonical pair (E, P); a non-member's lists the active rows.
    """
    if context is None:
        try:
            context = make_graph_context(poly, gp.z, gp.g, eps)
        except NotGraphPointError as exc:
            return _empty("polyhedron", str(exc))
    zeta, eta = pair.zeta, pair.eta
    I = context.active
    slopes = poly.A[list(I)] @ eta
    E = [i for i, s in zip(I, slopes) if abs(s) <= eps]
    P = [i for i, s in zip(I, slopes) if s > eps]
    member = (len(E) == len(I)
              or multiplier_within_support(poly, context.z, -context.g, E, eps)
              is not None) and cone_coefficients(zeta, poly.A[P], poly.A[E], eps) is not None
    if not member:
        return Membership(False, "not_member", "polyhedron", {"active_rows": list(I)})
    return Membership(True, "member", "polyhedron",
                      {"equality_rows": E, "inequality_rows": P,
                       "near_threshold_rows": list(active_diagnostics(poly, gp.z, eps))})


def oracle_membership(poly, gp, pair, eps=DEFAULT_EPS):
    """Face-pair enumeration oracle over the critical-cone combinatorics.

    For each multiplier support S and nested subsets J1 subseteq J2 of the
    remaining active rows, builds the face difference cone F_J1 - F_J2 in
    halfspace form, and accepts when -eta lies in it and zeta in its polar.
    Exhaustive, refused beyond MAX_ACTIVE_ROWS active rows, and intended as
    the slow cross-check at desk scale.
    """
    try:
        context = make_graph_context(poly, gp.z, gp.g, eps)
    except NotGraphPointError as exc:
        return _empty("oracle", str(exc))
    zeta, eta = pair.zeta, pair.eta
    I = context.active
    if len(I) > MAX_ACTIVE_ROWS:
        raise CombinatorialLimitError("%d active rows exceeds cap %d"
                                      % (len(I), MAX_ACTIVE_ROWS))
    seen = set()
    for S in _subsets(I):
        if multiplier_within_support(poly, context.z, -context.g, S, eps) is None:
            continue
        zero_rows = tuple(i for i in I if i not in S)
        split = ActiveDecomposition(I=I, lam=np.zeros(poly.m),
                                    I_plus=tuple(S), I_zero=zero_rows)
        for J2 in _subsets(zero_rows):
            for J1 in _subsets(J2):
                key = (frozenset(set(S) | set(J1)), frozenset(set(J2) - set(J1)))
                if key in seen:
                    continue
                seen.add(key)
                diff = face_difference(poly, gp.z, None, J1, J2,
                                       decomposition=split, eps=eps)
                if member_h(diff, -eta, eps) and member_v(polar_cone(diff), zeta, eps):
                    return Membership(True, "member", "oracle",
                                      {"support": list(S), "J1": list(J1),
                                       "J2": list(J2)})
    return Membership(False, "not_member", "oracle", {"active_rows": list(I)})


def _ambiguous(values, strict_eps):
    return [int(i) for i, v in enumerate(values) if 0.0 < abs(v) < strict_eps]


_ORTHANT_REASONS = ("z has negative coordinates", "g has negative coordinates",
                    "z and g are not complementary")


def _flagged(flags):
    return [i for i, f in enumerate(flags) if f]


def _orthant_rows(z, g, zeta, eta, eps, strict_eps):
    """Orthant coderivative membership of k points at once, one per row.

    z, g, zeta and eta are (k, d) arrays; row j is a point of R_+^d. The
    conditions separate by coordinate, so each is one array expression over
    all k*d entries: per entry the failed graph-point conditions, the
    L / I_+ / I_0 masks and the sign test. Each row is then reduced in
    Python: the empty-coderivative reason is the first of _ORTHANT_REASONS
    that fails at any coordinate, and the point is a member when the sign
    test holds at every coordinate.
    """
    fails = np.stack([z < -eps, g < -eps, np.abs(z * g) > eps], axis=-1).any(axis=1)
    L = z > eps
    I_plus = ~L & (g > eps)
    I_zero = ~L & ~I_plus
    small_zeta, small_eta = np.abs(zeta) <= eps, np.abs(eta) <= eps
    both_neg = (zeta <= -strict_eps) & (eta <= -strict_eps)
    sign_ok = np.where(L, small_zeta,
                       np.where(I_plus, small_eta, both_neg | small_zeta | small_eta))
    out = []
    for fail, l, p, o, c, ok in zip(fails.tolist(), L.tolist(), I_plus.tolist(),
                                    I_zero.tolist(), zeta.tolist(),
                                    sign_ok.all(axis=1).tolist()):
        if any(fail):
            out.append(_empty("orthant", _ORTHANT_REASONS[fail.index(True)]))
            continue
        witness = {"L": _flagged(l), "I_plus": _flagged(p), "I_zero": _flagged(o),
                   "boundary_ambiguous": _ambiguous(c, strict_eps)}
        out.append(Membership(ok, "member" if ok else "not_member", "orthant", witness))
    return out


def orthant_membership(z, g, pair, eps=DEFAULT_EPS, strict_eps=STRICT_EPS):
    """Closed-form coderivative membership for Z = R_+^d.

    Coordinates split into L (z_i > 0), I_+ (z_i = 0 < g_i) and I_0 (both
    zero). Membership needs zeta to vanish on L, eta on I_+, and on I_0 each
    coordinate must have zeta_i eta_i = 0 or both strictly negative. z, g,
    zeta and eta must share one dimension, otherwise ValueError.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(g, dtype=float)
    if not z.shape == g.shape == pair.zeta.shape:
        raise ValueError("z, g, zeta and eta must share a dimension")
    return _orthant_rows(z[None], g[None], pair.zeta[None], pair.eta[None],
                         eps, strict_eps)[0]


def _shifted_sign_ok(zeta, eta, beta, tau, sum_eta, L, I_plus, I_zero, eps, strict_eps):
    """Whether row j passes the simplex sign system with zeta_j shifted by beta_j.

    The budget row is tight. beta is a (k,) array; zeta, eta and the masks
    broadcast to (k, d), tau and sum_eta to (k,). A row passes when tau or
    sum(eta) vanishes, beta vanishes or has the sign of a strictly positive
    sum(eta), zeta_i - beta vanishes on L, eta_i on I_+, and on I_0 one of
    zeta_i - beta and eta_i vanishes or both are strictly negative.
    """
    shift = zeta - beta[:, None]
    small_shift, small_eta = np.abs(shift) <= eps, np.abs(eta) <= eps
    both_neg = (shift <= -strict_eps) & (eta <= -strict_eps)
    fails = (L & ~small_shift) | (I_plus & ~small_eta) \
        | (I_zero & ~(both_neg | small_shift | small_eta))
    small_sum = np.abs(sum_eta) <= eps
    return ~fails.any(axis=1) & ((np.abs(tau) <= strict_eps) | small_sum) \
        & (((beta > strict_eps) & (sum_eta > strict_eps)) | (np.abs(beta) <= eps) | small_sum)


def _spread(v, mask):
    """Row-wise max minus min of v over mask; -inf on a row with no entry."""
    return np.where(mask, v, -np.inf).max(axis=1) - np.where(mask, v, np.inf).min(axis=1)


def _simplex_corner(z, g, zeta, eta, sum_eta, witness, eps, strict_eps):
    """One point whose budget row is tight while no coordinate clears the
    activity threshold, so tau and beta are both unresolved. Only finitely
    many beta regimes matter: zero, each zeta_i, and anything above max zeta.
    """
    if np.min(g, initial=0.0) < -eps or np.max(np.abs(z * g), initial=0.0) > eps:
        return _empty("simplex", "z and g are not complementary")
    candidates = np.array([0.0, float(np.max(zeta, initial=0.0)) + 1.0] + zeta.tolist())
    I_plus = g > eps
    ok = _shifted_sign_ok(zeta, eta, candidates, 0.0, sum_eta, np.zeros(len(z), dtype=bool),
                          I_plus, ~I_plus, eps, strict_eps)
    beta = float(candidates[np.argmax(ok)]) if ok.any() else None
    witness.update({"tau": None, "beta": beta, "degenerate_support": True})
    return Membership(beta is not None, "member" if beta is not None else "not_member",
                      "simplex", witness)


def _simplex_rows(z, g, zeta, eta, eps, strict_eps):
    """Simplex coderivative membership of k points at once, one per row.

    z, g, zeta and eta are (k, d) arrays; row j is a point of
    {z >= 0, 1^T z <= 1}. The coordinate sums, the masks L = z > eps and the
    spreads of g and zeta on L are array expressions over all rows. Rows
    with a slack budget row reduce to the orthant form with beta = 0 and go
    through one _orthant_rows call. On the sum face the budget multiplier
    tau is read off L, where g must be constant, beta is pinned to the
    common value of zeta on L, and the other coordinates obey the shifted
    sign conditions with zeta_i - beta, one array expression for all rows.
    tau and beta are np.mean of each row's own L entries: a sum over a
    padded row groups its terms differently and can round differently.
    """
    k = len(z)
    sum_gap = (1.0 - z.sum(axis=1)).tolist()
    sum_eta = eta.sum(axis=1)
    negative = (z < -eps).any(axis=1).tolist()
    L = z > eps
    L_rows, zeta_rows = L.tolist(), zeta.tolist()
    g_spread, zeta_spread = _spread(g, L).tolist(), _spread(zeta, L).tolist()
    out, witnesses = [None] * k, [None] * k
    interior, face = [], []
    tau, beta = np.zeros(k), np.zeros(k)
    for j, (gap, support) in enumerate(zip(sum_gap, L_rows)):
        if negative[j]:
            out[j] = _empty("simplex", "z has negative coordinates")
            continue
        if gap < -eps:
            out[j] = _empty("simplex", "coordinate sum exceeds one")
            continue
        witnesses[j] = {"L": _flagged(support), "sum_gap": gap,
                        "sum_near_threshold": bool(eps < abs(gap) <= 10.0 * eps),
                        "boundary_ambiguous": _ambiguous(zeta_rows[j], strict_eps)}
        if gap > eps:
            interior.append(j)
        elif not witnesses[j]["L"]:
            out[j] = _simplex_corner(z[j], g[j], zeta[j], eta[j], sum_eta[j],
                                     witnesses[j], eps, strict_eps)
        elif g_spread[j] > eps:
            out[j] = _empty("simplex", "gradient not constant on the support")
        else:
            tau[j] = -np.mean(g[j][L[j]])
            if tau[j] < -eps:
                out[j] = _empty("simplex", "budget multiplier would be negative")
                continue
            if zeta_spread[j] <= eps:
                beta[j] = np.mean(zeta[j][L[j]])
            face.append(j)

    if interior:
        for j, res in zip(interior, _orthant_rows(z[interior], g[interior], zeta[interior],
                                                  eta[interior], eps, strict_eps)):
            witness = witnesses[j]
            witness.update(res.witness)
            witness.update({"tau": 0.0, "beta": 0.0 if res.member else None})
            out[j] = Membership(res.member, res.verdict, "simplex", witness)
    if not face:
        return out
    shifted = g + tau[:, None]
    off = ~L
    bound_negative = (off & (shifted < -eps)).any(axis=1).tolist()
    I_plus = off & (shifted > eps)
    I_zero = off & ~I_plus
    ok = _shifted_sign_ok(zeta, eta, beta, tau, sum_eta, L, I_plus, I_zero,
                          eps, strict_eps).tolist()
    I_plus, I_zero = I_plus.tolist(), I_zero.tolist()
    for j in face:
        if bound_negative[j]:
            out[j] = _empty("simplex", "bound multiplier would be negative")
            continue
        witness = witnesses[j]
        if zeta_spread[j] > eps:
            witness.update({"tau": float(tau[j]), "beta": None})
            out[j] = Membership(False, "not_member", "simplex", witness)
            continue
        witness.update({"tau": float(tau[j]), "beta": float(beta[j]),
                        "I_plus": _flagged(I_plus[j]), "I_zero": _flagged(I_zero[j])})
        out[j] = Membership(ok[j], "member" if ok[j] else "not_member", "simplex", witness)
    return out


def simplex_membership(z, g, pair, eps=DEFAULT_EPS, strict_eps=STRICT_EPS):
    """Closed-form coderivative membership for Z = {z >= 0, 1^T z <= 1}.

    With the sum constraint slack the test reduces to the orthant form with
    beta = 0. On the sum face the multiplier tau of the budget row is read off
    the coordinates with z_i > 0 (g must be constant there), beta is pinned to
    the common value of zeta on those coordinates, and the remaining
    coordinates obey the shifted sign conditions with zeta_i - beta. z, g,
    zeta and eta must share one dimension, otherwise ValueError.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(g, dtype=float)
    if not z.shape == g.shape == pair.zeta.shape:
        raise ValueError("z, g, zeta and eta must share a dimension")
    return _simplex_rows(z[None], g[None], pair.zeta[None], pair.eta[None],
                         eps, strict_eps)[0]


def membership_for_set(feasible, z, g, zeta, eta, eps=DEFAULT_EPS):
    """Dispatch a coderivative membership query to the matching route."""
    pair = NormalPair(zeta, eta)
    if feasible.kind == "orthant":
        return orthant_membership(z, g, pair, eps)
    if feasible.kind == "simplex":
        return simplex_membership(z, g, pair, eps)
    return polyhedron_membership(feasible.as_polyhedron(), GraphPoint(z, g), pair, eps)
