"""Exact polyhedral cone primitives over feasible sets Z = {z : A z <= b}.

Everything here is desk scale: membership questions become tiny linear
feasibility problems and distances to normal cones non-negative
least-squares problems. Active sets, multiplier searches over a support,
cone membership (cone_coefficients, and cone_contains, which answers as its
LP from a factorization of the rows where that is certain) and normal-cone
distances serve the coderivative routes and the face-pair oracle of
graph_normals and the verifiers of stationarity.

A Polyhedron holds its rows and bounds as tuples of Python floats, and
builds its arrays A and b only when something asks for them: the cone
questions of a coderivative query take lists (FactoredRows, cone_contains,
_unit_rows), so such a query makes no array of Z and calls no BLAS routine.
The array routes (Polyhedron.slacks, active_set, the distances and the
verifier's stacked products) read A and b.

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
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from operator import mul

import numpy as np

from .lp import _FEAS_TOL, _PIVOT_TOL, left_sum, nnls, phase1_point

__all__ = [
    "Polyhedron", "InfeasiblePointError", "CombinatorialLimitError", "finite_array",
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


_NUMBERS, _LISTS = {float, int}, {list}


def _holds_non_number(value):
    """Whether value, or any entry of it at any depth, is a boolean or a string."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "bSU"
    if isinstance(value, (list, tuple)):
        return not set(map(type, value)) <= _NUMBERS and any(map(_holds_non_number, value))
    return isinstance(value, (bool, np.bool_, str, bytes))


def _finite_entries(value):
    """The numbers of value in row-major order when it is a JSON list of
    numbers, or of lists of numbers of one length, and every number is
    finite; else None, for the caller's generic read to name the fault. A
    number is a Python float or int, never a boolean. One type scan and one
    math.isfinite scan decide; on desk-scale lists they cost less than
    np.isfinite's call. A list of numbers is its own entry list."""
    if type(value) is not list:
        return None
    flat, kinds = value, set(map(type, value))
    if kinds == _LISTS and len(set(map(len, value))) == 1:
        flat = list(chain.from_iterable(value))
        kinds = set(map(type, flat))
    try:
        if kinds <= _NUMBERS and all(map(math.isfinite, flat)):
            return flat
    except OverflowError:   # an int beyond float range
        pass
    return None


def _finite_list(value):
    """value as a float array when _finite_entries takes it, else None."""
    flat = _finite_entries(value)
    if flat is None:
        return None
    array = np.array(flat, dtype=float)
    return array if flat is value else array.reshape(len(value), len(value[0]))


def finite_array(value, name):
    """value as a float array of any shape whose entries are finite
    numbers; booleans, strings, nulls, objects, ragged nesting, ints
    beyond float range and non-finite entries raise ValueError naming
    name. A finite float64 array is returned as given, after one
    math.isfinite scan of its entries. A list that _finite_list does not
    take, and any other value, is read by np.asarray and refused, if it
    must be, by a walk of the nesting."""
    if type(value) is np.ndarray and value.dtype == float \
            and all(map(math.isfinite, value.ravel().tolist())):
        return value
    array = _finite_list(value)
    if array is not None:
        return array
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):   # an int beyond float range
        array = None
    if array is None or _holds_non_number(value) or not np.isfinite(array).all():
        raise ValueError("%s must be an array of finite numbers" % name)
    return array


def _readonly(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _listed(value):
    """A list or tuple as given (its numbers Python floats); anything else,
    an array, as np.asarray(value, dtype=float).tolist()."""
    return value if type(value) in (list, tuple) else np.asarray(value, dtype=float).tolist()


@dataclass(frozen=True)
class Polyhedron:
    """Inequality system {z in R^d : A z <= b} with row-index bookkeeping.

    A and b are read as finite_array reads them, so a non-finite, boolean or
    string entry is a ValueError ("A must be an array of finite numbers").
    A JSON list of rows of one length and a list of bounds, one per row,
    are read by _finite_entries' two scans without an array; anything else
    goes through finite_array. Zero rows with b_i >= 0 never bind and are
    dropped with a warning; a zero row with b_i < 0 makes the system empty
    and is rejected.

    The polyhedron holds what it read as tuples of Python floats: rows (the
    retained rows a_i), bounds (their b_i) and index, which maps retained
    rows back to the caller's original numbering; dim is d. The graph-point
    routes of graph_normals compute on these, so a coderivative query makes
    no array of A. A, b and row_index are the same as read-only arrays,
    each built on first access and then kept; being immutable, one
    polyhedron can be shared.
    """

    rows: tuple
    bounds: tuple
    index: tuple
    dim: int

    def __init__(self, A, b):
        entries = _finite_entries(A)
        if entries is not None and entries is not A and A[0] and type(b) is list \
                and len(b) == len(A) and _finite_entries(b) is b:
            rows = [tuple(map(float, a)) for a in A]
            bounds, dim = list(map(float, b)), len(A[0])
        else:
            A = np.atleast_2d(finite_array(A, "A"))
            b = np.atleast_1d(finite_array(b, "b"))
            if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
                raise ValueError("A and b shapes disagree: %s vs %s" % (A.shape, b.shape))
            if A.shape[0] < 1 or A.shape[1] < 1:
                raise ValueError("need at least one row and one column")
            rows, bounds, dim = list(map(tuple, A.tolist())), b.tolist(), A.shape[1]
        index = [i for i, a in enumerate(rows) if any(a)]
        if len(index) < len(rows):
            bad = [i for i, (a, v) in enumerate(zip(rows, bounds)) if v < 0 and not any(a)]
            if bad:
                raise ValueError("zero row with negative bound at %s" % bad)
            warnings.warn("dropping %d zero rows that never bind" % (len(rows) - len(index)))
            rows, bounds = [rows[i] for i in index], [bounds[i] for i in index]
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "bounds", tuple(bounds))
        object.__setattr__(self, "index", tuple(index))
        object.__setattr__(self, "dim", dim)

    @cached_property
    def A(self):
        return _readonly(self.rows or np.empty((0, self.dim)))

    @cached_property
    def b(self):
        return _readonly(self.bounds)

    @cached_property
    def row_index(self):
        return _readonly(self.index, int)

    @property
    def m(self):
        return len(self.bounds)

    def slacks(self, z):
        """b - A z by one matrix-vector product. The verifier's stacked
        product in stationarity._scenario_checks has these bits, which
        reach its complementarity gaps, and the tests' LP route rebuilds
        those gaps from this one, so it stays the array product; the graph
        points of graph_normals read left sums instead (_graph_point)."""
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
    """Indices i with |a_i^T z - b_i| <= eps; requires z feasible within eps.
    It reads poly.slacks, the array product, as the verifier and the
    distance to the normal cone read a slack."""
    return active_rows(poly, poly.slacks(np.asarray(z, dtype=float)), eps)


def active_rows(poly, slack, eps=DEFAULT_EPS):
    """Indices i with |slack_i| <= eps for the slack vector b - A z of a
    point z, a list or an array; raises InfeasiblePointError when some
    slack is below -eps."""
    s = _listed(slack)
    if min(s, default=0.0) < -eps:
        i = s.index(min(s))
        raise InfeasiblePointError("point violates row %d by %.3g" % (poly.index[i], -s[i]))
    return tuple(i for i, v in enumerate(s) if abs(v) <= eps)

def active_diagnostics(slack, eps=DEFAULT_EPS):
    """Rows whose entry of the slack vector b - A z of a point z, a list or
    an array, sits within a decade of the activity threshold.

    Classification near |slack| ~ eps is tolerance-driven; callers surface
    these rows instead of silently committing to one side.
    """
    return tuple(i for i, s in enumerate(_listed(slack)) if eps < abs(s) <= 10.0 * eps)


def cone_coefficients(w, R, L=None, eps=DEFAULT_EPS):
    """Coefficients (mu, nu) with R^T mu + L^T nu = w and mu >= 0, or None.

    Decides w in cone(rows of R) + span(rows of L) by one LP; every LP of
    the package is this question. The LP reads the rows scaled to unit size
    (_unit_rows): an exact scaling, which changes no cone and not the LP's
    threshold (it reads only w), only what its pivots see. Its coefficients
    are multiplied by the same powers of two, so they reproduce w from the
    rows as given. With no rows at all, w must vanish within eps.
    """
    w = np.asarray(w, dtype=float)
    rows, powers = _unit_rows(R, L)
    if not rows:
        return np.zeros(0) if np.max(np.abs(w), initial=0.0) <= eps else None
    x = phase1_point(rows, w.tolist(), range(len(R), len(rows)))
    with np.errstate(over="ignore"):    # a coefficient past the float range is inf
        return None if x is None else np.ldexp(x, powers)


def _unit_rows(R, L):
    """The rows of R, then those of L, as lists of Python floats, each times
    the power of two that puts its largest |entry| in [1, 2), a zero row
    left 0; and those powers. R and L are arrays or sequences of rows of
    Python floats (_listed). math.frexp and math.ldexp are exact, so the
    rows have the bits of np.ldexp on np.frexp's powers. A row whose
    largest |entry| is not finite is left as given (power 0)."""
    rows = [*_listed(R), *(() if L is None else _listed(L))]
    scaled, powers = [], []
    for row in rows:
        big = max(map(abs, row), default=0.0)
        power = 1 - math.frexp(big)[1] if big < math.inf else 0
        scaled.append([math.ldexp(v, power) for v in row])
        powers.append(power)
    return scaled, powers


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
        if not (math.isfinite(left_sum(entries))
                and 1.0 / _SCALE <= min(entries, default=1.0)
                and max(entries, default=1.0) <= _SCALE):
            return
        d = len(rows[0]) if rows else 0
        norms = [math.sqrt(left_sum(map(mul, a, a))) for a in rows]
        integer = all(map(float.is_integer, entries))
        for j, a in enumerate(rows):
            norm = norms[j]
            if len(basis) < d:
                c = [left_sum(map(mul, q, a)) for q in basis]
                r = _minus(a, c, basis)
                left = math.sqrt(left_sum(map(mul, r, r)))
                bound = _DEPENDENT * min(norm, 1.0)
                if bound < left < 0.1 * norm:
                    more = [left_sum(map(mul, q, r)) for q in basis]
                    r = _minus(r, more, basis)
                    c = [s + t for s, t in zip(c, more)]
                    left = math.sqrt(left_sum(map(mul, r, r)))
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
        total = left_sum(map(abs, w))
        if not total:
            return True
        if not math.isfinite(total):
            return None
        threshold = _FEAS_TOL * (1.0 + total)
        rank, coords, rows = self.rank[n], self.coords, self.rows
        y = [left_sum(map(mul, q, w)) for q in self.basis[:rank]]
        r = _minus(w, y, self.basis)
        dist = math.sqrt(left_sum(map(mul, r, r)))
        margin = _PIVOT_TOL * (1.0 + total) * left_sum(abs(v) for row in rows[:n] for v in row)
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
        scale = max(map(abs, w)) + left_sum(map(abs, y))
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
        return left_sum(map(abs, r))
    return left_sum(abs(t * bi + (1.0 - t) * ri) for bi, ri in zip(b, r))


def cone_contains(w, R, L=None, eps=DEFAULT_EPS, factor=None):
    """Whether cone_coefficients(w, R, L, eps) is not None.

    factor is a FactoredRows whose first len(L) rows are those of L and
    whose next len(R) rows are those of R, each group in any order; by
    default the rows of L, then those of R, are factored here. The LP runs
    only where neither of the factorization's certificates decides
    (FactoredRows.decide), on the rows of cone_coefficients, and only
    whether it finds a point is read; it raises as cone_coefficients raises.
    w, R and L are arrays, or a list of Python floats and sequences of rows
    of them, read without a copy (_listed).
    """
    w = _listed(w)
    start = 0 if L is None else len(L)
    if factor is None:
        factor = FactoredRows((np.asarray(R, dtype=float) if L is None
                               else np.vstack([L, R])).tolist())
    verdict = factor.decide(w, start + len(R), start, eps)
    if verdict is None:
        rows = _unit_rows(R, L)[0]
        return phase1_point(rows, w, range(len(R), len(rows))) is not None
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
