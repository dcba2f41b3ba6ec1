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
maximal row split by cone questions on prefixes of one factorization of the
active rows, with the LP only where the factorization is unsure, so it has
no cap, and the orthant and simplex specializations reduce it to sign
conditions in closed form. The simplex also has the distance to its normal
cone in closed form (_simplex_residual_rows), which gives the verifier's
lower residuals and the multipliers of its gaps. The face-pair oracle
decides the same system independently: it sweeps multiplier supports and
nested row subsets and tests each pair's face difference and its polar
directly by the LP, exponential in the active rows and capped at
MAX_ACTIVE_ROWS. No route of the package calls it; it stays here because
the benchmark (perfbench/workloads.py) imports it for its reference
answers, and the tests compare every route against it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .cones import (
    CombinatorialLimitError,
    DEFAULT_EPS,
    MAX_ACTIVE_ROWS,
    STRICT_EPS,
    FactoredRows,
    active_diagnostics,
    active_rows,
    cone_coefficients,
    cone_contains,
    multiplier_within_support,
)

__all__ = [
    "NotGraphPointError", "GraphPoint", "NormalPair", "Membership",
    "finite_vector", "finite_rows", "RaggedRowsError", "finite_number", "finite_weights",
    "object_list", "object_columns", "Columns", "Points", "read_points",
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


class RaggedRowsError(ValueError):
    """finite_rows' error for entries that are each finite but not all of
    one length."""


def _scanned_rows(values, number=False):
    """finite_rows' one-scan read of the list values: the finite (n, d)
    array when its entries are all lists of numbers of one length or all
    numbers (with number, lists of one number or numbers) and every entry
    is finite, else None."""
    kinds, flat, d = set(map(type, values)), None, 1
    if kinds <= _NUMBER_TYPES:
        flat = values
    elif kinds == _LIST and len(set(map(len, values))) == 1 and (
            len(values[0]) == 1 or not number):
        flat, d = list(chain.from_iterable(values)), len(values[0])
        flat = flat if set(map(type, flat)) <= _NUMBER_TYPES else None
    if flat is not None:
        try:
            rows = np.array(flat, dtype=float).reshape(len(values), d)
        except OverflowError:   # an int beyond float range
            return None
        if np.isfinite(rows).all():
            return rows
    return None


def finite_rows(values, name, number=False):
    """values, a list of vectors of one length d, as a finite (n, d) float
    array; anything else raises ValueError naming the first bad entry.

    An entry is a vector or a lone number, which reads as a vector of one
    entry; with number, every entry must be one number (finite_number) and
    d is 1. name is a %-format that names entry i as name % i. A JSON list,
    whose entries are all lists of numbers of one length or all numbers, is
    read by one type scan and one np.isfinite over the stack. Any other
    input, and a list that the scan does not take, is read entry by entry
    with finite_vector or finite_number, which name the first bad entry;
    entries that are each finite but of more than one length then raise
    RaggedRowsError, naming the first whose length differs from entry 0's.
    Either way each row has the bits of that entry's finite_vector array.
    """
    if type(values) is not list:
        values = list(values)
    rows = _scanned_rows(values, number)
    if rows is not None:
        return rows
    if number:
        return np.array([finite_number(v, name % i) for i, v in enumerate(values)])[:, None]
    rows = [finite_vector(v, name % i, scalar=True) for i, v in enumerate(values)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise RaggedRowsError("%s has %d entries but %s has %d"
                                  % (name % i, len(row), name % 0, len(rows[0])))
    return np.array(rows)


def finite_weights(weights, n):
    """The weights of n samples as a finite (n,) float array, nonnegative and
    summing to 1 within 1e-12; None gives uniform weights. Anything else
    raises ValueError."""
    if weights is None:
        return np.full(n, 1.0 / n)
    weights = finite_vector(weights, "weights", scalar=True)
    if len(weights) != n:
        raise ValueError("one weight per sample required")
    if np.min(weights) < 0:
        raise ValueError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1 (got %.17g)" % weights.sum())
    return weights


@dataclass(frozen=True, eq=False)
class Points:
    """(x, y) pairs as rows: an (n, d_x) array x of contexts and an array y
    of n values, numbers or rows, row i of x going with y[i]. read_points
    builds one from pairs and validates it."""

    x: np.ndarray
    y: np.ndarray


class Columns(NamedTuple):
    """The x entries and the y entries of n points, one list each, not yet
    read; read_points reads them as it reads the n pairs (x, y)."""

    x: list
    y: list


def object_columns(objects, what, y_name="y"):
    """The "x" and y_name entries of a list of JSON objects (object_list) as
    Columns. A missing key raises the KeyError that reading the objects one
    by one, x before y_name, raises first."""
    objects = object_list(objects, what)
    try:
        return Columns([o["x"] for o in objects], [o[y_name] for o in objects])
    except KeyError:
        for o in objects:
            o["x"], o[y_name]
        raise


def read_points(pairs, what, y_name="y", number=False):
    """A non-empty sequence of (x, y) pairs, or Columns, as Points; Points
    pass unchanged.

    x is a vector or one number. With number y is one number and Points.y
    has shape (n,); otherwise y is a vector or one number, and Points.y is
    (n, d_y). Each column is one finite_rows call, whose errors name the
    pair as "<what> i: x" or "<what> i: <y_name>". A column of more than one
    length is a ValueError giving the lengths of pair 0.
    """
    if type(pairs) is Points:
        return pairs
    columns = pairs if type(pairs) is Columns else [list(c) for c in zip(*pairs)]
    if not columns or not columns[0]:
        raise ValueError("at least one %s required" % what)
    xs, ys = columns
    names = (what + " %d: x", what + " %d: " + y_name)
    try:
        x, y = finite_rows(xs, names[0]), finite_rows(ys, names[1], number)
    except RaggedRowsError:
        widths = [finite_rows(c[:1], name).shape[1] for c, name in zip(columns, names)]
        raise ValueError("every %s needs %d x and %d %s entries"
                         % (what, widths[0], widths[1], y_name)) from None
    return Points(x, y.reshape(-1) if number else y)


def finite_number(value, name):
    """value as one finite float: a number, or an array holding exactly one,
    read as finite_vector reads an array."""
    if type(value) is float and math.isfinite(value):
        return value
    try:
        v = finite_vector(value, name, flat=True)
    except ValueError:
        v = ()
    if len(v) != 1:
        raise ValueError("%s must be one finite number" % name)
    return float(v[0])


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


_NOT_NORMAL = "-g is not in the normal cone at z"


def _graph_point(poly, z, g, eps):
    """z and g as arrays, the slack vector b - A z and the active rows of
    the graph point (z, -g); raises NotGraphPointError when z is infeasible."""
    z = np.asarray(z, dtype=float)
    g = np.asarray(g, dtype=float)
    slack = poly.slacks(z)
    try:
        return z, g, slack, active_rows(poly, slack, eps)
    except ValueError as exc:
        raise NotGraphPointError(str(exc)) from exc


def _subsets(pool):
    pool = tuple(pool)
    for size in range(len(pool) + 1):
        yield from combinations(pool, size)


def _caller_rows(poly, **rows):
    """Witness row lists in the caller's numbering (Polyhedron.row_index)."""
    index = poly.row_index.tolist()
    return {key: [index[i] for i in r] for key, r in rows.items()}


def polyhedron_membership(poly, gp, pair, eps=DEFAULT_EPS):
    """Direct coderivative membership test for Z = {A z <= b}.

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

    When E = I the support question (b) is the graph-point validation and
    is skipped. The graph point, (b) and (c) are decided from one
    factorization of the active rows ordered E, P, then the rest, so that
    (b) and (c) read its prefixes, and by the LP of cone_coefficients only
    where its certificates leave a question open (cone_contains). A member's
    witness is the canonical pair (E, P); a non-member's lists the active
    rows, each in the caller's numbering (_caller_rows).
    """
    zeta, eta = pair.zeta, pair.eta
    try:
        _, g, slack, I = _graph_point(poly, gp.z, gp.g, eps)
    except NotGraphPointError as exc:
        return _empty("polyhedron", str(exc))
    rows = poly.A[list(I)]
    slopes = (rows @ eta).tolist()
    E = [i for i, s in zip(I, slopes) if abs(s) <= eps]
    P = [i for i, s in zip(I, slopes) if s > eps]
    ordered = poly.A[E + P + [i for i, s in zip(I, slopes) if s < -eps]]
    factor = FactoredRows(ordered.tolist())
    neg, e, p = -g, len(E), len(E) + len(P)
    if not cone_contains(neg, rows, eps=eps, factor=factor):
        return _empty("polyhedron", _NOT_NORMAL)
    member = (e == len(I) or cone_contains(neg, ordered[:e], eps=eps, factor=factor)) \
        and cone_contains(zeta, ordered[e:p], ordered[:e], eps, factor)
    if not member:
        return Membership(False, "not_member", "polyhedron", _caller_rows(poly, active_rows=I))
    return Membership(True, "member", "polyhedron", _caller_rows(
        poly, equality_rows=E, inequality_rows=P,
        near_threshold_rows=active_diagnostics(slack, eps)))


def oracle_membership(poly, gp, pair, eps=DEFAULT_EPS):
    """Face-pair enumeration oracle over the critical-cone combinatorics.

    For each multiplier support S and nested subsets J1 subseteq J2 of the
    remaining active rows, the face difference F_J1 - F_J2 is
    {d : E d = 0, G d <= 0} with E the rows of S + J1 and G those of
    J2 \\ J1, and its polar is cone(rows of G) + span(rows of E). Accepts
    when -eta lies in the difference (a direct test within eps) and zeta in
    the polar (cone_coefficients). Exhaustive, refused beyond
    MAX_ACTIVE_ROWS active rows, and intended as the slow cross-check at
    desk scale. Every cone question, the graph point's included, is the LP
    of cone_coefficients. Witness rows are in the caller's numbering.
    """
    try:
        _, g, _, I = _graph_point(poly, gp.z, gp.g, eps)
    except NotGraphPointError as exc:
        return _empty("oracle", str(exc))
    if cone_coefficients(-g, poly.A[list(I)], eps=eps) is None:
        return _empty("oracle", _NOT_NORMAL)
    zeta, eta = pair.zeta, pair.eta
    if len(I) > MAX_ACTIVE_ROWS:
        raise CombinatorialLimitError("%d active rows exceeds cap %d"
                                      % (len(I), MAX_ACTIVE_ROWS))
    seen = set()
    for S in _subsets(I):
        if multiplier_within_support(poly, -g, S, eps) is None:
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
                                      _caller_rows(poly, support=S, J1=J1, J2=J2))
    return Membership(False, "not_member", "oracle", _caller_rows(poly, active_rows=I))


_ORTHANT_REASONS = ("z has negative coordinates", "g has negative coordinates",
                    "z and g are not complementary")
_SIMPLEX_REASONS = _ORTHANT_REASONS + (
    "coordinate sum exceeds one", "gradient not constant on the support",
    "budget multiplier would be negative", "bound multiplier would be negative")
_VERDICTS = ("member", "not_member", "empty_coderivative")


def _flagged(flags):
    return [i for i, f in enumerate(flags) if f]


def _sign_ok(zeta, eta, L, I_plus, eps):
    """The orthant sign rule per entry: zeta_i vanishes on L, eta_i on I_+,
    and elsewhere one of them vanishes or both are strictly negative."""
    small_zeta, small_eta = np.abs(zeta) <= eps, np.abs(eta) <= eps
    both_neg = np.maximum(zeta, eta) <= -STRICT_EPS
    return np.where(L, small_zeta,
                    np.where(I_plus, small_eta, both_neg | small_zeta | small_eta))


class _WitnessRows:
    """Coderivative verdicts of k points as columns, row j for point j.

    reason[j] indexes reasons with row j's empty-coderivative reason, or is
    -1; member[j] is the verdict where it is -1, False elsewhere. key_set[j]
    indexes KEY_SETS with the keys of row j's witness, in order, and values
    reads a key's entries on any rows; KEY_SETS[0] is ("reason",), the
    witness of an empty coderivative. Indexing gives row j's witness, so the
    rows stand in for a list of witness dicts.
    """

    def values(self, key, rows=slice(None)):
        """The entries of witness key on rows, any index of the row axis: a
        (rows, d) mask for a list of coordinates, else a list of JSON values.
        A float column holds NaN where the witness holds null; a row without
        a reason has None as its reason."""
        if key == "reason":
            return [self.reasons[r] if r >= 0 else None for r in self.reason[rows].tolist()]
        if key == "degenerate_support":
            return [True] * len(self.reason[rows])
        column = getattr(self, "ambiguous" if key == "boundary_ambiguous" else key)[rows]
        if column.ndim == 2:
            return column
        return [None if v != v else v for v in column.tolist()]

    def __len__(self):
        return len(self.reason)

    def __getitem__(self, j):
        witness = {}
        for key in self.KEY_SETS[self.key_set[j]]:
            value = self.values(key, [j])
            witness[key] = _flagged(value[0]) if type(value) is np.ndarray else value[0]
        return witness

    def verdicts(self):
        """Each row's verdict: member, not_member or empty_coderivative."""
        codes = np.where(self.reason >= 0, 2, np.where(self.member, 0, 1))
        return [_VERDICTS[c] for c in codes.tolist()]

    def membership(self, j):
        """Row j as a Membership."""
        ok = bool(self.member[j])
        verdict = _VERDICTS[2 if self.reason[j] >= 0 else 0 if ok else 1]
        return Membership(ok, verdict, self.method, self[j])

    def refuse(self, rows, reason):
        """These rows with each one flagged in rows given an empty
        coderivative for reason, whose witness is {"reason"}."""
        return replace(self, reason=np.where(rows, len(self.reasons), self.reason),
                       member=self.member & ~rows, key_set=np.where(rows, 0, self.key_set),
                       reasons=self.reasons + (reason,))


@dataclass(frozen=True)
class OrthantRows(_WitnessRows):
    """Orthant coderivative verdicts of k points as _WitnessRows. L, I_plus
    and I_zero are the (k, d) coordinate masks and ambiguous marks the zeta
    entries with 0 < |zeta_i| < STRICT_EPS. key_set is 0 on a row off the
    graph, whose witness is {"reason"}, and 1 on any other, whose witness is
    its four coordinate lists.
    """

    reason: np.ndarray
    member: np.ndarray
    key_set: np.ndarray
    L: np.ndarray
    I_plus: np.ndarray
    I_zero: np.ndarray
    ambiguous: np.ndarray
    reasons: tuple = _ORTHANT_REASONS
    method = "orthant"
    KEY_SETS = (("reason",), ("L", "I_plus", "I_zero", "boundary_ambiguous"))


_SIMPLEX_BASE = ("L", "sum_gap", "sum_near_threshold", "boundary_ambiguous")


@dataclass(frozen=True)
class SimplexRows(_WitnessRows):
    """Simplex coderivative verdicts of k points as _WitnessRows: the
    orthant columns, each row's budget gap sum_gap = 1 - sum(z), whether
    eps < |sum_gap| <= 10 eps (sum_near_threshold), and the multipliers tau
    and beta, NaN where the witness has null. key_set[j] indexes KEY_SETS,
    whose key orders are those the witness dicts were built in: an empty
    coderivative, a point inside the budget on the orthant graph and one off
    it, a point on the budget face, one there whose zeta is not constant on
    the support, and a point at the degenerate corner.
    """

    reason: np.ndarray
    member: np.ndarray
    key_set: np.ndarray
    L: np.ndarray
    I_plus: np.ndarray
    I_zero: np.ndarray
    ambiguous: np.ndarray
    sum_gap: np.ndarray
    sum_near_threshold: np.ndarray
    tau: np.ndarray
    beta: np.ndarray
    reasons: tuple = _SIMPLEX_REASONS
    method = "simplex"
    KEY_SETS = (("reason",),
                _SIMPLEX_BASE + ("I_plus", "I_zero", "tau", "beta"),
                _SIMPLEX_BASE + ("reason", "tau", "beta"),
                _SIMPLEX_BASE + ("tau", "beta", "I_plus", "I_zero"),
                _SIMPLEX_BASE + ("tau", "beta"),
                _SIMPLEX_BASE + ("tau", "beta", "degenerate_support"))


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
    return OrthantRows(reason, member, (reason < 0).astype(int), L, I_plus, I_zero, ambiguous)


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
    """Whether each point passes the simplex sign system with zeta shifted
    by its beta.

    The budget row is tight. zeta, eta and the masks broadcast to (..., d),
    beta, tau and sum_eta to (...). A point passes when tau or sum(eta)
    vanishes, beta vanishes or has the sign of a strictly positive
    sum(eta), and (zeta - beta, eta) passes the orthant sign rule.
    """
    small_sum = np.abs(sum_eta) <= eps
    return _sign_ok(zeta - beta[..., None], eta, L, I_plus, eps).all(axis=-1) \
        & ((np.abs(tau) <= STRICT_EPS) | small_sum) \
        & ((np.minimum(beta, sum_eta) > STRICT_EPS) | (np.abs(beta) <= eps) | small_sum)


def _corner_rows(z, g, zeta, eta, sum_eta, eps):
    """The reason code (2 or -1) and beta (NaN where none passes) of each
    point whose budget row is tight while no coordinate clears the activity
    threshold, so tau is 0 and beta is unresolved. z and g must be
    complementary. Only finitely many beta regimes matter: zero, anything
    above max zeta, and each zeta_i; the first candidate, in that order,
    that passes the shifted sign system is the witness.
    """
    k = len(z)
    coupled = ((g >= -eps) & (np.abs(z * g) <= eps)).all(axis=1)
    candidates = np.concatenate([np.zeros((k, 1)), np.max(zeta, axis=1, initial=0.0)[:, None]
                                 + 1.0, zeta], axis=1)
    ok = _shifted_sign_ok(zeta[:, None], eta[:, None], candidates, 0.0, sum_eta[:, None],
                          False, (g > eps)[:, None], eps)
    found = candidates[np.arange(k), np.argmax(ok, axis=1)]
    return np.where(coupled, -1, 2), np.where(ok.any(axis=1), found, np.nan)


def _simplex_rows(z, g, zeta, eta, eps):
    """Simplex coderivative membership of k points at once, one per row.

    z, g, zeta and eta are (k, d) arrays; row j is a point of
    {z >= 0, 1^T z <= 1}. Every test is an array expression over all rows,
    and the result is their SimplexRows. A point with a coordinate below
    -eps or a coordinate sum above 1 + eps is refused; the others split by
    the budget gap and the support L = {i : z_i > eps}:
      - on the sum face with L non-empty, g must be constant on L and the
        budget multiplier tau is minus its mean there; tau and the bound
        multipliers g_i + tau off L must be nonnegative; beta is the mean
        of zeta on L, where zeta must be constant, and the other
        coordinates obey the shifted sign conditions with zeta_i - beta;
      - inside (gap > eps) tau is 0 and the test is the orthant one, with
        beta = 0 for a member;
      - at the corner, with L empty, z and g must be complementary and
        _corner_rows finds beta.
    With tau = beta = 0 the shifted sign system is the orthant sign rule,
    so one _shifted_sign_ok call and one pair of I_+ / I_0 masks serve the
    points on the face and inside. The columns are first filled by the
    face rule; the other points, which a verified portfolio seldom has, are
    written over only when the stack holds one.
    tau and beta are the support means, each sum added left to right by one
    np.add.accumulate, with -0.0 off the support: x + -0.0 is x, even 0.0.
    """
    sum_gap = 1.0 - z.sum(axis=1)
    abs_gap = np.abs(sum_gap)
    sum_eta = eta.sum(axis=1)
    L = z > eps
    off = ~L
    counts = L.sum(axis=1)
    negative, over = (z < -eps).any(axis=1), sum_gap < -eps
    face = ~negative & (abs_gap <= eps) & (counts > 0)
    gz = np.stack([g, zeta])
    flat = face & (np.where(L, gz, -np.inf).max(axis=2)
                   - np.where(L, gz, np.inf).min(axis=2) <= eps)
    flat_g, flat_zeta = flat[0], flat[0] & flat[1]
    tau, beta = np.zeros(len(z)), np.zeros(len(z))
    if flat_g.any():
        gz[1, ~flat_zeta] = 0.0     # average zeta only where it is constant
        means = np.add.accumulate(np.where(L, gz, -0.0), axis=2)[..., -1] / np.maximum(counts, 1)
        tau, beta = np.where(flat_g, -means[0], 0.0), np.where(flat_zeta, means[1], 0.0)
    shifted = g + tau[:, None]
    I_plus = off & (shifted > eps)
    ok = _shifted_sign_ok(zeta, eta, beta, tau, sum_eta, L, I_plus, eps)
    reason = np.where(flat_g, np.where(tau < -eps, 5, np.where(
        (off & (shifted < -eps)).any(axis=1), 6, -1)), 4)
    member = (reason < 0) & ok & flat_zeta
    key_set = np.where(reason < 0, np.where(flat_zeta, 3, 4), 0)
    beta = np.where(flat_zeta, beta, np.nan)
    if not face.all():
        inside = ~negative & (sum_gap > eps)
        corner = ~negative & ~over & ~inside & ~face
        z_in = np.where(inside[:, None], z, 0.0)    # z g only where z_i <= 1
        code = np.where((g < -eps).any(axis=1), 1, np.where(
            (np.abs(z_in * g) > eps).any(axis=1), 2, -1))
        if corner.any():
            code[corner], beta[corner] = _corner_rows(z[corner], g[corner], zeta[corner],
                                                      eta[corner], sum_eta[corner], eps)
            tau = np.where(corner, np.nan, tau)
        fit = code < 0
        reason = np.where(negative, 0, np.where(over, 3, np.where(inside | corner, code, reason)))
        member = np.where(inside, ok & fit, np.where(corner, fit & ~np.isnan(beta), member))
        key_set = np.where(inside, np.where(fit, 1, 2), np.where(corner & fit, 5, key_set))
        beta = np.where(inside, np.where(member, 0.0, np.nan), beta)
    return SimplexRows(reason, member, key_set, L, I_plus, off & ~I_plus,
                       (zeta != 0.0) & (np.abs(zeta) < STRICT_EPS), sum_gap,
                       (eps < abs_gap) & (abs_gap <= 10.0 * eps), tau, beta)


def _simplex_residual_rows(u, active):
    """The residual of u's nearest point in the simplex normal cone, k rows
    at once, its Euclidean norm per row, and the multiplier that gives that
    point: the (k, d + 1) rows of mu on the pinned coordinates, then tau on
    the budget row, in the row order of simplex_polyhedron.

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
    (tau - u) - mu = A^T (mu, tau) - u, and its norm as sqrt(sum(r * r))
    over the row, so no BLAS kernel touches it. Only sort, cumsum and
    elementwise operations act across a row, so each row gets the same bits
    in any stack.
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
    lam = np.empty((k, d + 1))
    lam[:, :d] = np.where(pinned, np.maximum(diff, 0.0), 0.0)
    lam[:, d] = tau
    resid = diff - lam[:, :d]
    return resid, np.sqrt(np.sum(resid * resid, axis=1)), lam


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
    return _simplex_rows(z[None], g[None], pair.zeta[None], pair.eta[None], eps).membership(0)
