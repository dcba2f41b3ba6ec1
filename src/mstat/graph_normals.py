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
simplex also has the distance to its normal cone in closed form
(_simplex_residual_rows), which gives the verifier's lower residuals. The
face-pair oracle decides the same system independently: it sweeps multiplier
supports and nested row subsets and tests each pair's face difference and
its polar directly, exponential in the active rows and capped at
MAX_ACTIVE_ROWS. No route of the package calls it;
it stays here because the benchmark (perfbench/workloads.py) imports it for
its reference answers, and the tests compare every route against it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .cones import (
    CombinatorialLimitError,
    DEFAULT_EPS,
    MAX_ACTIVE_ROWS,
    STRICT_EPS,
    Polyhedron,
    active_diagnostics,
    active_set,
    cone_coefficients,
    multiplier_within_support,
)

__all__ = [
    "NotGraphPointError", "GraphPoint", "NormalPair", "Membership",
    "finite_vector", "finite_rows", "finite_number", "object_list", "optional_entry",
    "GraphContext", "make_graph_context",
    "orthant_membership", "simplex_membership", "polyhedron_membership",
    "oracle_membership",
]


class NotGraphPointError(ValueError):
    """(z, -g) is not on the graph of the normal-cone map."""


_NUMBER_TYPES = {float, int}
_FLOAT, _DICT, _LIST = {float}, {dict}, {list}


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
    except (TypeError, ValueError, OverflowError):   # an int beyond float range
        v = np.float64(np.nan)
    if flat or (scalar and v.ndim == 0):
        v = v.reshape(-1)
    # On desk-scale vectors a Python scan costs a fraction of np.isfinite's
    # call overhead, which every scenario of a verify pays several times.
    if v.ndim != 1 or _holds_non_number(value) or not all(map(math.isfinite, v.tolist())):
        raise ValueError("%s must be a finite 1-D array" % name)
    return v


def finite_rows(values):
    """values, a non-empty list of vectors of one length d, each a list of
    numbers (or every one a lone number, d = 1), as a finite (n, d) float
    array, from one type scan and one np.isfinite over the stack. Anything
    else gives None: another type, lengths that differ, a non-finite entry;
    the caller then reads the vectors one by one with finite_vector, which
    takes what the scan does not and names what it refuses. Each row has
    the bits of finite_vector's array.
    """
    kinds = set(map(type, values))
    if not values or not (kinds <= _NUMBER_TYPES or kinds == _LIST):
        return None
    flat, d = values, 1
    if kinds == _LIST:
        if len(set(map(len, values))) != 1:
            return None
        d = len(values[0])
        flat = list(chain.from_iterable(values))
    if not set(map(type, flat)) <= _NUMBER_TYPES:
        return None
    try:
        rows = np.array(flat, dtype=float).reshape(len(values), d)
    except OverflowError:
        return None
    return rows if np.isfinite(rows).all() else None


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
    if set(map(type, value)) <= _DICT:
        return value
    for i, item in enumerate(value):
        if not isinstance(item, (dict, Mapping)):
            raise ValueError("%s %d must be an object" % (name, i))
    return value


def optional_entry(scenario, key, i):
    """The entry key of certificate scenario i, or None when the key is
    absent; an explicit null raises ValueError naming the key and i."""
    value = scenario.get(key)
    if value is None and key in scenario:
        raise ValueError("certificate scenario %d: %s is null; leave the key out instead"
                         % (i, key))
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
    if multiplier_within_support(poly, -g, I, eps) is None:
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
              or multiplier_within_support(poly, -context.g, E, eps)
              is not None) and cone_coefficients(zeta, poly.A[P], poly.A[E], eps) is not None
    if not member:
        return Membership(False, "not_member", "polyhedron", {"active_rows": list(I)})
    return Membership(True, "member", "polyhedron",
                      {"equality_rows": E, "inequality_rows": P,
                       "near_threshold_rows": list(active_diagnostics(poly, gp.z, eps))})


def oracle_membership(poly, gp, pair, eps=DEFAULT_EPS):
    """Face-pair enumeration oracle over the critical-cone combinatorics.

    For each multiplier support S and nested subsets J1 subseteq J2 of the
    remaining active rows, the face difference F_J1 - F_J2 is
    {d : E d = 0, G d <= 0} with E the rows of S + J1 and G those of
    J2 \\ J1, and its polar is cone(rows of G) + span(rows of E). Accepts
    when -eta lies in the difference (a direct test within eps) and zeta in
    the polar (cone_coefficients). Exhaustive, refused beyond
    MAX_ACTIVE_ROWS active rows, and intended as the slow cross-check at
    desk scale.
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
        if multiplier_within_support(poly, -context.g, S, eps) is None:
            continue
        zero_rows = tuple(i for i in I if i not in S)
        for J2 in _subsets(zero_rows):
            for J1 in _subsets(J2):
                key = (frozenset(set(S) | set(J1)), frozenset(set(J2) - set(J1)))
                if key in seen:
                    continue
                seen.add(key)
                E, G = poly.A[sorted(key[0])], poly.A[sorted(key[1])]
                if not (np.abs(E @ eta) > eps).any() and not (-(G @ eta) > eps).any() \
                        and cone_coefficients(zeta, G, E, eps) is not None:
                    return Membership(True, "member", "oracle",
                                      {"support": list(S), "J1": list(J1),
                                       "J2": list(J2)})
    return Membership(False, "not_member", "oracle", {"active_rows": list(I)})


def _ambiguous(values):
    return [int(i) for i, v in enumerate(values) if 0.0 < abs(v) < STRICT_EPS]


_ORTHANT_REASONS = ("z has negative coordinates", "g has negative coordinates",
                    "z and g are not complementary")


def _flagged(flags):
    return [i for i, f in enumerate(flags) if f]


def _sign_ok(zeta, eta, L, I_plus, eps):
    """The orthant sign rule per entry: zeta_i vanishes on L, eta_i on I_+,
    and elsewhere one of them vanishes or both are strictly negative."""
    small_zeta, small_eta = np.abs(zeta) <= eps, np.abs(eta) <= eps
    both_neg = (zeta <= -STRICT_EPS) & (eta <= -STRICT_EPS)
    return np.where(L, small_zeta,
                    np.where(I_plus, small_eta, both_neg | small_zeta | small_eta))


@dataclass(frozen=True)
class OrthantRows:
    """Orthant coderivative verdicts of k points as columns, row j for point j.

    reason[j] indexes reasons with row j's empty-coderivative reason, or is
    -1 on the graph; member[j] is the verdict there, False off it. L, I_plus
    and I_zero are the (k, d) coordinate masks and ambiguous marks the zeta
    entries with 0 < |zeta_i| < STRICT_EPS. Indexing gives row j's witness,
    so the rows stand in for a list of witness dicts.
    """

    reason: np.ndarray
    member: np.ndarray
    L: np.ndarray
    I_plus: np.ndarray
    I_zero: np.ndarray
    ambiguous: np.ndarray
    reasons: tuple = _ORTHANT_REASONS

    def __getitem__(self, j):
        if self.reason[j] >= 0:
            return {"reason": self.reasons[self.reason[j]]}
        return {"L": _flagged(self.L[j]), "I_plus": _flagged(self.I_plus[j]),
                "I_zero": _flagged(self.I_zero[j]),
                "boundary_ambiguous": _flagged(self.ambiguous[j])}

    def verdicts(self):
        """Each row's verdict: member, not_member or empty_coderivative."""
        codes = np.where(self.reason >= 0, 2, np.where(self.member, 0, 1))
        return [_VERDICTS[c] for c in codes.tolist()]

    def membership(self, j):
        """Row j as a Membership."""
        if self.reason[j] >= 0:
            return _empty("orthant", self.reasons[self.reason[j]])
        ok = bool(self.member[j])
        return Membership(ok, _VERDICTS[0 if ok else 1], "orthant", self[j])


_VERDICTS = ("member", "not_member", "empty_coderivative")


def _orthant_rows(z, g, zeta, eta, eps):
    """Orthant coderivative membership of k points at once, one per row.

    z, g, zeta and eta are (k, d) arrays; row j is a point of R_+^d. The
    conditions separate by coordinate, so each is one array expression over
    all k*d entries: per entry the failed graph-point conditions, the
    L / I_+ / I_0 masks and the sign test. A row's empty-coderivative reason
    is the first of _ORTHANT_REASONS that fails at any coordinate, and the
    point is a member when the sign test holds at every coordinate. Returns
    the OrthantRows.
    """
    fails = np.stack([(z < -eps).any(axis=1), (g < -eps).any(axis=1),
                      (np.abs(z * g) > eps).any(axis=1)], axis=1)
    reason = np.where(fails.any(axis=1), np.argmax(fails, axis=1), -1)
    L = z > eps
    I_plus = ~L & (g > eps)
    I_zero = ~L & ~I_plus
    member = _sign_ok(zeta, eta, L, I_plus, eps).all(axis=1) & (reason < 0)
    ambiguous = (zeta != 0.0) & (np.abs(zeta) < STRICT_EPS)
    return OrthantRows(reason, member, L, I_plus, I_zero, ambiguous)


def orthant_membership(z, g, pair, eps=DEFAULT_EPS):
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
    return _orthant_rows(z[None], g[None], pair.zeta[None], pair.eta[None], eps).membership(0)


def _shifted_sign_ok(zeta, eta, beta, tau, sum_eta, L, I_plus, eps):
    """Whether row j passes the simplex sign system with zeta_j shifted by beta_j.

    The budget row is tight. beta is a (k,) array; zeta, eta and the masks
    broadcast to (k, d), tau and sum_eta to (k,). A row passes when tau or
    sum(eta) vanishes, beta vanishes or has the sign of a strictly positive
    sum(eta), and (zeta - beta, eta) passes the orthant sign rule.
    """
    small_sum = np.abs(sum_eta) <= eps
    return _sign_ok(zeta - beta[:, None], eta, L, I_plus, eps).all(axis=1) \
        & ((np.abs(tau) <= STRICT_EPS) | small_sum) \
        & (((beta > STRICT_EPS) & (sum_eta > STRICT_EPS)) | (np.abs(beta) <= eps) | small_sum)


def _spread(v, mask):
    """Row-wise max minus min of v over mask; -inf on a row with no entry."""
    return np.where(mask, v, -np.inf).max(axis=1) - np.where(mask, v, np.inf).min(axis=1)


def _simplex_corner(z, g, zeta, eta, sum_eta, witness, eps):
    """One point whose budget row is tight while no coordinate clears the
    activity threshold, so tau and beta are both unresolved. Only finitely
    many beta regimes matter: zero, each zeta_i, and anything above max zeta.
    """
    if np.min(g, initial=0.0) < -eps or np.max(np.abs(z * g), initial=0.0) > eps:
        return _empty("simplex", "z and g are not complementary")
    candidates = np.array([0.0, float(np.max(zeta, initial=0.0)) + 1.0] + zeta.tolist())
    I_plus = g > eps
    ok = _shifted_sign_ok(zeta, eta, candidates, 0.0, sum_eta, np.zeros(len(z), dtype=bool),
                          I_plus, eps)
    beta = float(candidates[np.argmax(ok)]) if ok.any() else None
    witness.update({"tau": None, "beta": beta, "degenerate_support": True})
    return Membership(beta is not None, "member" if beta is not None else "not_member",
                      "simplex", witness)


def _simplex_rows(z, g, zeta, eta, eps):
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
                        "boundary_ambiguous": _ambiguous(zeta_rows[j])}
        if gap > eps:
            interior.append(j)
        elif not witnesses[j]["L"]:
            out[j] = _simplex_corner(z[j], g[j], zeta[j], eta[j], sum_eta[j],
                                     witnesses[j], eps)
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
        rows = _orthant_rows(z[interior], g[interior], zeta[interior], eta[interior], eps)
        for i, j in enumerate(interior):
            res = rows.membership(i)
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
    ok = _shifted_sign_ok(zeta, eta, beta, tau, sum_eta, L, I_plus, eps).tolist()
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


def _simplex_residual_rows(u, active):
    """The residual of u's nearest point in the simplex normal cone, k rows
    at once, and its Euclidean norm per row.

    u is (k, d); active is the (k, d + 1) mask of the active rows of the
    simplex system, the d bound rows -z_i <= 0 and then the budget row
    1^T z <= 1. The normal cone is {tau 1 - mu : tau >= 0, mu >= 0 on the
    pinned coordinates P (active bound rows), mu = 0 off P}, with tau = 0
    when the budget row is slack. For fixed tau the best mu is
    max(tau - u_i, 0) on P, so the squared distance is
    f(tau) = sum_{i not in P} (tau - u_i)^2 + sum_{i in P} max(u_i - tau, 0)^2,
    convex and continuously differentiable. With t the pinned entries of u
    in descending order, piece j (the j largest pinned entries above tau)
    has the stationary point tau_j = (sum of the free u + t_1 + ... + t_j)
    / (n_free + j), and the first j with t_{j+1} <= tau_j is the piece
    where f' vanishes: each step from j to j + 1 averages in a t_{j+1} above
    tau_j, so tau_j < t_j for that j. Over tau >= 0 the minimum is at
    max(tau_j, 0). With no free coordinate f is flat above max t, and the
    first test that holds picks a point of that flat part or 0.
    The residual is built from those explicit tau >= 0 and mu >= 0 as
    (tau - u) - mu, and its norm as sqrt(sum(r * r)) over the row, so no
    BLAS kernel touches it. Only sort, cumsum and elementwise operations
    act across a row, so each row gets the same bits in any stack.
    """
    k, d = u.shape
    pinned, budget = active[:, :d], active[:, d]
    free = ~pinned
    top = -np.sort(np.where(pinned, -u, np.inf), axis=1)
    sums = np.cumsum(np.concatenate([np.sum(np.where(free, u, 0.0), axis=1)[:, None],
                                     np.where(top > -np.inf, top, 0.0)], axis=1), axis=1)
    top = np.concatenate([top, np.full((k, 1), -np.inf)], axis=1)
    counts = free.sum(axis=1)[:, None] + np.arange(d + 1)
    stationary = sums / np.maximum(counts, 1)
    first = np.argmax(top <= stationary, axis=1)
    tau = np.where(budget, np.maximum(stationary[np.arange(k), first], 0.0), 0.0)
    diff = tau[:, None] - u
    resid = diff - np.where(pinned, np.maximum(diff, 0.0), 0.0)
    return resid, np.sqrt(np.sum(resid * resid, axis=1))


def simplex_membership(z, g, pair, eps=DEFAULT_EPS):
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
    return _simplex_rows(z[None], g[None], pair.zeta[None], pair.eta[None], eps)[0]
