"""Newsvendor ordering with a Nadaraya-Watson kernel demand model.

Demand given context x is modeled by a Gaussian-kernel conditional mixture
over observed centers (x_m, y_m) with a shared bandwidth theta: weights are
normalized kernel evaluations in x, and the conditional law of demand is the
matching mixture of normals in y. The order quantity solves a one-dimensional
quantile condition, and the bandwidth is scored by decision regret against
the realized demand.

Weights are computed in the log domain, shifted by each row's largest logit,
so a remote query puts its weight on its nearest centers instead of 0/0.
Bandwidths must lie in [2^-340, 2^340] and coordinates have magnitude at most
2^340, so that the kernel's squares and cubes are finite normal numbers; a
query whose every logit still underflows is refused. Each of these is a
ValueError, an input error on the command line.

An instance holds its centers and samples as Points (graph_normals): rows
only, an (n, d_x) array x of contexts and an (n,) array y of demands, each
column read by one finite_rows call. An instance with no x coordinate
(d_x = 0) is the unconditional mixture: every weight row is uniform.

Every numeric step works on whole rows. For k queries and M centers the
weights form a (k, M) matrix W, built once per bandwidth; the CDF, density
and bandwidth derivative of each row's mixture are row-wise dot products
against W, and the quantile solves of all rows run in lockstep. Rows are
processed in blocks of at most _BLOCK_ENTRIES (row, center, coordinate)
entries, which bounds memory and, rows being independent, changes no bit of
any result. The scalar functions (nw_weights, conditional_cdf,
conditional_pdf, grad_theta_cdf, solve_newsvendor) are one-row calls of the
same helpers.

A quantile solve gives the float of a plain 60-step bisection and Newton
polish, but asks the CDF only what a proven bound does not settle
(_quantile_rows): the bracket's CDF values at a y that every row shares
are one ndtr row over the centers, a bisection step beyond a verified
side is decided without the CDF, and so is a polish that the sides prove
to be a no-op. bandwidth_grid_search goes one step further: a row whose
sides settle it is not bisected at all, its order quantity being known to
within the bracket's width, and the scan over the grid runs on intervals
around the regrets, with exact regrets only where an interval comparison
stays undecided.

Leave-one-out scoring applies when an instance has as many centers as
samples, and then pairs them by position: sample i is scored without center
i, whose logit in row i is set to -inf.

The bandwidth stationarity system is the generic one of mstat.stationarity
on as_problem(instance); its scenario terms come from the same row helpers.
On the verify route the scenarios stay rows from input to output:
newsvendor_certificate reads the certificate's mappings by columns into
(n, 1) rows (Certificate), the problem's scenario rows are the samples' x
and y, and no object is built per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .cones import DEFAULT_EPS
from .graph_normals import (
    Points,
    finite_number,
    finite_vector,
    finite_weights,
    object_columns,
    object_list,
    read_points,
)
from .stationarity import (
    DEFAULT_TOL,
    Certificate,
    FeasibleSet,
    LowerModel,
    ParameterSet,
    Problem,
    ScenarioTerms,
    UpperModel,
    _row_dot,
    verify_certificate,
)

__all__ = [
    "KernelModel", "Points", "NewsvendorInstance",
    "nw_weights", "conditional_cdf", "conditional_pdf", "grad_theta_cdf",
    "solve_newsvendor", "solve_newsvendor_rows",
    "empirical_regret", "verify_newsvendor_system", "bandwidth_grid_search",
    "NewsvendorLowerModel", "NewsvendorUpperModel", "NewsvendorProblem",
    "as_problem", "lower_solver", "newsvendor_certificate",
]

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@cache
def _scipy_ndtr():
    from scipy.special import ndtr as scipy_ndtr
    return scipy_ndtr


def ndtr(x):
    """The standard normal CDF of each entry of x, by scipy.special.ndtr.

    scipy.special is imported by the first call, not with this module, so
    that a command that computes no CDF (a portfolio verify, a coderivative
    query) starts without scipy, whose import takes most of such a
    command's wall time. Later calls reuse the function that call bound.
    """
    return _scipy_ndtr()(x)


# Largest (row, center, coordinate) entry count of one block of query rows.
_BLOCK_ENTRIES = 1 << 20
_NEWTON_TOL = 1e-12   # the quantile's Newton steps stop at |F - q| <= _NEWTON_TOL
_HALLEY_TOL = 1e-7    # the verified sides' Halley steps stop at |F - q| <= _HALLEY_TOL
# Largest (row, center) entry count of the bracketed rows that the bandwidth
# search solves together, rows of several grid points in one lockstep.
_STACK_ENTRIES = 1 << 13
# Bound on |F - F_W| beyond M eps, where F is the computed CDF _cdf_at of a
# weight row over M centers and F_W the exact mixture with the same weights:
# ndtr's absolute error is at most 1.8e-16, the rounded argument
# (y - y_m) / theta moves Phi by at most 0.25 eps, and the dot product adds at
# most gamma_M < M eps (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., section 3.1); the slack also covers the roundings of
# the comparisons against q -+ 2 delta and of the bounds of _settled.
# tests/test_newsvendor.py checks ndtr
# against an mpmath reference, tests/ndtr_reference.json, to _CDF_DELTA / 10.
_CDF_DELTA = 2e-15
# Coordinates have magnitude at most _POWER_BOUND and bandwidths lie in
# [1/_POWER_BOUND, _POWER_BOUND]: their cubes, 2^1020 at most and 2^-1020 at
# least, are finite normal numbers, and so are squared distances over fewer
# than 2^340 coordinates.
_POWER_BOUND = 2.0 ** 340
_RANGE_TEXT = "2^340 (about %.3g)" % _POWER_BOUND


def _phi(u):
    return np.exp(-0.5 * np.square(u)) / SQRT_2PI


def _in_range(X):
    """Whether every entry of X is a number of magnitude at most _POWER_BOUND."""
    return bool(np.all(np.abs(X) <= _POWER_BOUND))


def _points(pairs, what):
    """A non-empty sequence of (x, y) pairs, or Columns, as Points
    (read_points), each y one number and every x coordinate of magnitude at
    most _POWER_BOUND; what names one pair. Points pass unchanged."""
    if type(pairs) is Points:
        return pairs
    points = read_points(pairs, what, number=True)
    if not _in_range(points.x):
        raise ValueError("x coordinates must have magnitude at most %s" % _RANGE_TEXT)
    return points


@dataclass
class KernelModel:
    """Gaussian-kernel conditional distribution with bandwidth theta.

    centers holds (x, y) pairs, as _points reads them; theta must lie in
    [2^-340, 2^340], where its square and cube are finite normal numbers.
    """

    centers_x: np.ndarray
    centers_y: np.ndarray
    theta: float

    def __init__(self, centers, theta):
        points = _points(centers, "center")
        theta = float(theta)
        if not 1.0 / _POWER_BOUND <= theta <= _POWER_BOUND:
            raise ValueError("bandwidth must lie in [1/B, B] for B = %s, where its square "
                             "and cube are finite normal numbers; got %g"
                             % (_RANGE_TEXT, theta))
        self.centers_x, self.centers_y, self.theta = points.x, points.y, theta

    @property
    def d_x(self):
        return self.centers_x.shape[1]

    @property
    def n_centers(self):
        return len(self.centers_y)

    def with_theta(self, theta):
        return KernelModel(Points(self.centers_x, self.centers_y), theta)


# ---------------------------------------------------------------------------
# row helpers: one row per query, one column per center

def _query_rows(model, xs):
    """Query points as a finite (k, d_x) array."""
    X = np.asarray(xs, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d_x:
        raise ValueError("query points need %d x coordinates each" % model.d_x)
    if not _in_range(X):
        raise ValueError("query coordinates must be finite with magnitude at most %s"
                         % _RANGE_TEXT)
    return X


def _one_row(model, x):
    return _query_rows(model, np.atleast_1d(np.asarray(x, dtype=float))[None, :])


def _row_blocks(n_rows, model):
    # A (row, center) pair counts as at least one entry: with no x
    # coordinate (d_x = 0) the weights are uniform, the unconditional mixture.
    step = max(1, _BLOCK_ENTRIES // (model.n_centers * max(model.d_x, 1)))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _column_sum(S):
    """S[0] + ... + S[d-1] over the (k, M) slices of a (d, k, M) stack, added
    in the order of numpy's pairwise summation, so that each entry has the
    bits of np.sum over a length-d axis: from 0.0 left to right below 8
    terms; up to 128 terms, eight running sums of every eighth term, joined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest left
    to right; beyond 128, the sums of two halves, the first half a multiple
    of 8 long."""
    d = len(S)
    if d < 8:
        total = np.zeros(S.shape[1:])
        for s in S:
            total += s
        return total
    if d <= 128:
        r = S[:8].copy()
        tail = d - d % 8
        for i in range(8, tail, 8):
            r += S[i:i + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for s in S[tail:]:
            total += s
        return total
    half = d // 2 - d // 2 % 8
    return _column_sum(S[:half]) + _column_sum(S[half:])


def _sq_distances(C, X):
    """||x_i - c_m||^2 for every query row x_i of X (k, d) and center row c_m
    of C (M, d), as a (k, M) matrix with the bits of
    np.sum(np.square(C[None] - X[:, None]), axis=2).

    That reduction runs numpy's summation loop once per (row, center) pair
    over only d terms; here the squared differences are laid out coordinate
    first and each of the d coordinates is one (k, M) slice, which
    _column_sum adds in the reduction's order.
    """
    C, X = np.ascontiguousarray(C.T), np.ascontiguousarray(X.T)
    return _column_sum(np.square(C[:, None, :] - X[:, :, None]))


def _weight_rows(model, X, drop=None):
    """Normalized kernel weights (k, M) of the query rows X and the squared
    distances they come from, by _sq_distances.

    Computed in the log domain; the kernel's normalizing constant cancels,
    so only the squared distances matter. drop[i], when given, is a center
    whose logit in row i is set to -inf, removing it from that row.
    """
    sq = _sq_distances(model.centers_x, X)
    with np.errstate(over="ignore"):  # to -inf: a center too far to count
        logits = -sq / (2.0 * model.theta ** 2)
    if drop is not None:
        logits[np.arange(len(X)), drop] = -np.inf
    top = np.max(logits, axis=1, keepdims=True)
    if np.isneginf(top).any():
        raise ValueError("a query is so far from every center that its kernel weights "
                         "underflow at bandwidth %g" % model.theta)
    logits -= top
    W = np.exp(logits)
    return W / W.sum(axis=1, keepdims=True), sq


def _scaled(model, y):
    """(y_i - y_m) / theta for the value y_i of each row."""
    return (np.asarray(y, dtype=float)[:, None] - model.centers_y) / model.theta


def _kernel_columns(model, y):
    """u = _scaled(model, y) with Phi(u) and phi(u), each computed once: the
    (k, M) blocks that the CDF, the density and the bandwidth slope of each
    row read."""
    u = _scaled(model, y)
    return u, ndtr(u), _phi(u)


def _log_kernel_grads(model, W, sq):
    """d/dtheta log K_theta(x - x_m) = -d_x / theta + ||x - x_m||^2 / theta^3,
    and 0 where the weight W is 0: a center whose weight underflowed adds
    nothing to a bandwidth derivative, even where its score overflows."""
    with np.errstate(over="ignore"):
        psi = -model.d_x / model.theta + sq / model.theta ** 3
    return np.where(W > 0.0, psi, 0.0)


def _grad_theta_rows(model, W, sq, u, Phi, phi):
    """dF/dtheta of each row at the y whose _kernel_columns are u, Phi, phi."""
    psi = _log_kernel_grads(model, W, sq)
    reweight = _row_dot(W * (psi - _row_dot(W, psi)[:, None]), Phi)
    widen = _row_dot(W, u * phi / model.theta)
    return reweight - widen


def _margin(W):
    """2 delta for weight rows W over M centers, delta = _CDF_DELTA + M eps."""
    return 2.0 * (_CDF_DELTA + W.shape[1] * np.finfo(float).eps)


# The quantile solve below takes one bandwidth per weight row (theta, a (k,)
# array), so that rows of several bandwidths run in lockstep; a row's every
# float is that of a solve at its bandwidth alone, the divisions by theta
# being entrywise.

def _scaled_rows(centers_y, y, theta):
    """(y_i - y_m) / theta_i for the value y_i and bandwidth theta_i of each row."""
    return (y[:, None] - centers_y) / theta[:, None]


def _cdf_at(centers_y, W, y, theta):
    """F of each weight row at its own y and bandwidth."""
    return _row_dot(W, ndtr(_scaled_rows(centers_y, y, theta)))


def _bracket(model, W, q):
    """The rows of W whose quantile is not 0, F(0) < q, their weights, and
    their bracket tops hi with F(hi) > q.

    The bracket asks F at one y for every row at once: 0, then the top
    max_m y_m + 20 theta. So each ask is one ndtr row over the M centers,
    broadcast against W; ndtr works entry by entry and _row_dot sees the
    same values, so each row gets the bits of its own evaluation. F(top)
    <= q raises RuntimeError: F is the same at any wider top, since every
    (top - y_m) / theta is at least 13, where ndtr is 1.0, or max_m y_m
    absorbs 20 theta and so any further widening.
    """
    def shared(W, y):
        return _row_dot(W, ndtr(_scaled(model, [y])))

    live = ~(shared(W, 0.0) >= q)
    W = W[live]
    top = np.max(model.centers_y) + 20.0 * model.theta
    if len(W) and not np.all(shared(W, top) > q):
        raise RuntimeError("failed to bracket the quantile")
    return live, W, np.full(len(W), top)


def _verified_sides(centers_y, W, q, hi, theta):
    """Points a and b of each row with F(a) < q - 2 delta and F(b) > q + 2 delta,
    or -inf and inf where no such point was verified, for
    delta = _CDF_DELTA + M eps with M centers, and F there (-inf at a = -inf,
    inf at b = inf); hi is each row's bracket top.

    At most 10 safeguarded Halley steps per row, started at the row's
    discrete weighted q-quantile of the centers and kept inside the bracket
    [0, hi], run until every row has |F - q| <= _HALLEY_TOL. With the
    density p and its slope p', each step cubes the error, so the step after
    that lands within rounding of the root. An iterate that clears its
    margin becomes a or b. Then one stacked evaluation probes x -+ 4 delta / p
    about each row's last point x, and a probe that clears its margin and
    lies nearer the root replaces a or b. The steps only choose the points
    that are checked: where they land poorly, a side stays an iterate's or
    infinite, which costs evaluations but no bit.
    """
    gap = _margin(W)
    order = np.argsort(centers_y, kind="stable")
    at = np.minimum(np.sum(np.cumsum(W[:, order], axis=1) < q, axis=1), W.shape[1] - 1)
    lo = np.zeros(len(W))
    x = np.clip(centers_y[order][at], lo, hi)
    a, b = np.full(len(W), -np.inf), np.full(len(W), np.inf)
    Fa, Fb = a.copy(), b.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(10):
            u = _scaled_rows(centers_y, x, theta)
            phi = _phi(u)
            F, p = _row_dot(W, ndtr(u)), _row_dot(W, phi) / theta
            slope = -_row_dot(W, u * phi) / theta ** 2
            below, above = F < q - gap, F > q + gap
            a, Fa = np.where(below, x, a), np.where(below, F, Fa)
            b, Fb = np.where(above, x, b), np.where(above, F, Fb)
            lo = np.where(F < q, x, lo)
            hi = np.where(F < q, hi, x)
            f = F - q
            step = x - 2.0 * f * p / (2.0 * p * p - f * slope)
            near = np.abs(f) <= _HALLEY_TOL
            x = np.where((step > lo) & (step < hi), step, np.where(near, x, 0.5 * (lo + hi)))
            if near.all():
                break
        s = 2.0 * gap / p
    probe = np.concatenate([x - s, x + s])
    F = _cdf_at(centers_y, np.concatenate([W, W]), probe, np.concatenate([theta, theta]))
    k = len(W)
    up = (F[:k] < q - gap) & (probe[:k] > a)
    down = (F[k:] > q + gap) & (probe[k:] < b)
    return (np.where(up, probe[:k], a), np.where(down, probe[k:], b),
            np.where(up, F[:k], Fa), np.where(down, F[k:], Fb))


# The 60 bisection steps from [0, hi] end on a width below hi * _BISECT_WIDTH:
# each midpoint rounds by at most 2^-53 hi, so the width stays below
# hi (2^-60 + 2^-52).
_BISECT_WIDTH = 2.0 ** -51


def _settled(W, q, hi, theta, Fa, Fb):
    """The rows whose Newton polish is a no-op wherever the bisection ends,
    from F(a) and F(b) of their _verified_sides.

    The bisection keeps F(lo) < q <= F(hi), so its lo stays below b and its
    hi above a (see _quantile_rows), and its z lies within
    w = hi _BISECT_WIDTH of [a, b]. F_W is monotone, |F - F_W| <= delta, and
    F_W's slope is at most L = 1 / (theta sqrt(2 pi)). So where
    F(a) >= q - _NEWTON_TOL + 2 delta + L w and
    F(b) <= q + _NEWTON_TOL - 2 delta - L w, |F(z) - q| <= _NEWTON_TOL and
    no Newton step fires. _NEWTON_TOL is read at each call.
    """
    slack = _margin(W) + hi * _BISECT_WIDTH / (theta * SQRT_2PI)
    return (Fa >= q - _NEWTON_TOL + slack) & (Fb <= q + _NEWTON_TOL - slack)


def _bisect(centers_y, W, q, hi, theta, a, b, settled):
    """The order quantities of bracketed weight rows W: 60 bisection steps
    on [0, hi] and the Newton polish of the rows that are not settled,
    clipped at 0; see _quantile_rows."""
    lo = np.zeros(len(W))
    for _ in range(60):
        a, b = np.maximum(a, lo), np.minimum(b, hi)
        mid = 0.5 * (lo + hi)
        below = mid <= a
        ask = ~below & (mid < b)
        if ask.any():
            below[ask] = _cdf_at(centers_y, W[ask], mid[ask], theta[ask]) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    z = 0.5 * (lo + hi)
    moving = np.flatnonzero(~settled)
    for _ in range(5):
        if not len(moving):
            break
        u = _scaled_rows(centers_y, z[moving], theta[moving])
        f = _row_dot(W[moving], ndtr(u)) - q
        far = np.abs(f) > _NEWTON_TOL
        moving, f, u = moving[far], f[far], u[far]
        p = _row_dot(W[moving], _phi(u)) / theta[moving]
        rising = ~(p <= 0.0)
        moving, f, p = moving[rising], f[rising], p[rising]
        z[moving] -= f / p
    return np.where(z < 0.0, 0.0, z)


def _quantile_rows(model, W, q):
    """Order quantity of each weight row; see solve_newsvendor for the rule.

    Rows move in lockstep with per-row masks: a row met at z = 0 keeps 0, a
    bracketed row stops widening, and a row whose Newton stopping rule fired
    is frozen while the others continue.

    The 60 bisection steps are replayed exactly, but the computed CDF F is
    evaluated only at a midpoint whose comparison F(mid) < q is not already
    decided. Let F_W be the exact mixture with the computed weights W >= 0:
    it is monotone, and |F - F_W| <= delta = _CDF_DELTA + M eps everywhere
    for M centers (see _CDF_DELTA). Two facts decide most steps:

    1. The bisection keeps F(lo) < q <= F(hi), so a midpoint equal to lo is
       below and one equal to hi is not. A row whose midpoint rounds to an
       end has stalled and never moves again.
    2. If F(a) < q - 2 delta, every mid <= a is below, since
       F(mid) <= F_W(a) + delta <= F(a) + 2 delta < q; likewise no
       mid >= b is below if F(b) > q + 2 delta. _verified_sides finds such
       a and b within a few delta / p of the root.

    Each step therefore evaluates F only at a midpoint strictly between
    max(a, lo) and min(b, hi); a stalled row asks nothing. A row with no
    verified side, such as one whose density is 0 at its iterates, evaluates
    every step as the plain bisection does. The Newton polish evaluates F
    only on the rows that F(a) and F(b) do not settle (_settled), and the
    density only on rows whose |F - q| exceeds _NEWTON_TOL. The bracket
    asks F at one shared y per step (_bracket).
    """
    out = np.zeros(len(W))
    live, W, hi = _bracket(model, W, q)
    if live.any():
        theta = np.full(len(W), model.theta)
        a, b, Fa, Fb = _verified_sides(model.centers_y, W, q, hi, theta)
        out[live] = _bisect(model.centers_y, W, q, hi, theta, a, b,
                            _settled(W, q, hi, theta, Fa, Fb))
    return out


def _quantile_bounds(centers_y, W, q, hi, theta):
    """The order quantities of bracketed weight rows (_bracket) to within a
    proven error: (z, err) with the row's _quantile_rows value within err of
    z, row by row.

    A settled row (_settled) is not bisected: its order quantity is the
    bisection's z, within w = hi _BISECT_WIDTH of [a, b], so z is the middle
    of [a, b] and err = (b - a) + w. The other rows, those with an infinite
    side or a polish to run, are bisected on their own (_bisect, rows being
    independent) and get err = 0.
    """
    a, b, Fa, Fb = _verified_sides(centers_y, W, q, hi, theta)
    settled = _settled(W, q, hi, theta, Fa, Fb)
    z, err = np.zeros(len(W)), np.zeros(len(W))
    z[settled] = 0.5 * (a[settled] + b[settled])
    err[settled] = (b - a + hi * _BISECT_WIDTH)[settled]
    rest = ~settled
    if rest.any():
        z[rest] = _bisect(centers_y, W[rest], q, hi[rest], theta[rest], a[rest], b[rest],
                          settled[rest])
    return z, err


# ---------------------------------------------------------------------------
# the conditional distribution at one query

def nw_weights(model, x):
    """Normalized Gaussian kernel weights of the centers at query x."""
    return _weight_rows(model, _one_row(model, x))[0][0]


def conditional_cdf(model, y, x):
    """F_theta(y; x) = sum_m w_m Phi((y - y_m) / theta)."""
    W, _ = _weight_rows(model, _one_row(model, x))
    return float(_row_dot(W, ndtr(_scaled(model, [y])))[0])


def conditional_pdf(model, y, x):
    """p_theta(y; x) = sum_m w_m phi((y - y_m) / theta) / theta."""
    W, _ = _weight_rows(model, _one_row(model, x))
    return float(_row_dot(W, _phi(_scaled(model, [y])))[0] / model.theta)


def grad_theta_cdf(model, y, x):
    """Bandwidth derivative of the conditional CDF at (y, x).

    Two parts: reweighting of the centers through the score of the x-kernel,
    and the widening of each univariate y-kernel, whose integral derivative
    is -((y - y_m)/theta) K_theta(y - y_m) with the one-dimensional kernel.
    """
    W, sq = _weight_rows(model, _one_row(model, x))
    return float(_grad_theta_rows(model, W, sq, *_kernel_columns(model, [y]))[0])


# ---------------------------------------------------------------------------
# order quantities and regret

def solve_newsvendor_rows(model, xs, h, b, leave_one_out=False):
    """Order quantities for the query rows xs (k, d_x), one weight matrix per
    block of rows; see solve_newsvendor for the rule each row follows.

    With leave_one_out, row i is solved without center i, so xs must hold
    one row per center, in the centers' order.
    """
    if not (h > 0 and b > 0 and np.isfinite(h) and np.isfinite(b)):
        raise ValueError("h and b must be positive")
    X = _query_rows(model, xs)
    if leave_one_out and len(X) != model.n_centers:
        raise ValueError("leave-one-out needs one query row per center")
    q = b / (h + b)
    return _solve_blocks(model, _weight_blocks(model, X, leave_one_out), q)


def _weight_blocks(model, X, leave_one_out):
    """The weight matrix of each block of the query rows X (_row_blocks); with
    leave_one_out, row i without center i."""
    for rows in _row_blocks(len(X), model):
        drop = np.arange(rows.start, rows.stop) if leave_one_out else None
        yield _weight_rows(model, X[rows], drop)[0]


def _solve_blocks(model, blocks, q):
    """The order quantities of the rows of the weight blocks, in order."""
    return np.concatenate([_quantile_rows(model, W, q) for W in blocks])


def solve_newsvendor(model, x, h, b):
    """Order quantity solving 0 in (h+b) F_theta(z; x) - b + N_{R+}(z).

    Returns 0 when the critical ratio is already met at the boundary;
    otherwise brackets the quantile by [0, max_m y_m + 20 theta], bisects 60
    times and polishes with at most 5 Newton steps on the smooth strictly
    increasing CDF, stopping once |F - q| <= _NEWTON_TOL. A critical ratio
    that F does not exceed at the bracket's top raises RuntimeError. This is
    the one-row case of solve_newsvendor_rows.

    The result is the float of that plain bisection, but the CDF is not
    evaluated at every step: a step whose comparison F(mid) < q follows
    from the bisection's own invariant, or from points a and b verified by
    a few Halley steps to lie more than 2 delta below and above q, is
    decided without it, where delta = _CDF_DELTA + M eps bounds the CDF's
    rounding error over M centers. Rows with no verified point fall back to
    evaluating every step. The polish is not evaluated where F(a) and F(b)
    prove that it would not move, and the bracket's two CDF values come from
    one ndtr row over the centers. See _quantile_rows.
    """
    return float(solve_newsvendor_rows(model, _one_row(model, x), h, b)[0])


def _regret(z, y, h, b):
    return h * np.maximum(z - y, 0.0) + b * np.maximum(y - z, 0.0)


def empirical_regret(instance, model, leave_one_out=False):
    """Sample-weighted decision regret of the model's order quantities.

    The weighted terms are summed in sample order. With leave_one_out, sample
    i is decided without center i (see solve_newsvendor_rows).
    """
    return _sample_total(instance, solve_newsvendor_rows(
        model, instance.samples.x, instance.h, instance.b, leave_one_out=leave_one_out))


def _sample_total(instance, z):
    """The weighted regret of the order quantities z, summed in sample order."""
    total = 0.0
    for w, r in zip(instance.weights, _regret(z, instance.samples.y, instance.h, instance.b)):
        total += w * r
    return float(total)


def _total_bounds(instance, z, err):
    """An interval that holds _sample_total(instance, Z) for every Z with
    |Z - z| <= err, or (-inf, inf) where it is not finite.

    The regret is max(h, b)-Lipschitz in z, so the exact sum of the weighted
    regrets lies within sum_i w_i max(h, b) err_i of sum_i w_i r(z_i). Each
    of the sample-order sum and the sums here rounds by at most
    gamma_(n+3) sum_i w_i (r(z_i) + max(h, b) err_i) (Higham, section 3.1),
    and an operation that underflows adds at most the smallest subnormal;
    the interval is widened by twice all of these together.
    """
    h, b, w = instance.h, instance.b, instance.weights
    with np.errstate(over="ignore", invalid="ignore"):
        r = w * _regret(z, instance.samples.y, h, b)
        spread = w * (max(h, b) * err)
        n = len(w)
        rounding = 4.0 * (n + 8) * (np.finfo(float).eps * np.sum(r + spread)
                                    + np.finfo(float).smallest_subnormal)
        center, radius = np.sum(r), np.sum(spread) + rounding
    if not np.isfinite(center + radius):
        return -np.inf, np.inf
    return center - radius, center + radius


def _scan(lows, highs):
    """The index that the scan `total < best - 1e-15` over the grid picks,
    the lowest index winning ties, for totals known to lie in [lows, highs];
    None where some comparison is undecided. With lows = highs = the
    totals, this is that scan."""
    best = 0
    for j in range(1, len(lows)):
        if highs[j] < lows[best] - 1e-15:
            best = j
        elif lows[j] < highs[best] - 1e-15:
            return None
    return best


@dataclass
class NewsvendorInstance:
    """Holding/backorder costs plus the (x_n, y_n) samples and kernel
    centers, each held as Points (built by _points from (x, y) pairs or
    Columns)."""

    h: float
    b: float
    centers: Points
    samples: Points
    theta_bounds: tuple = (1e-3, 1e3)
    weights: np.ndarray = None

    def __post_init__(self):
        self.h, self.b = finite_number(self.h, "h"), finite_number(self.b, "b")
        if not (self.h > 0 and self.b > 0):
            raise ValueError("h and b must be strictly positive and finite")
        shared = self.samples is self.centers
        self.centers = _points(self.centers, "center")
        self.samples = self.centers if shared else _points(self.samples, "sample")
        bounds = finite_vector(self.theta_bounds, "theta_bounds")
        if len(bounds) != 2 or not 0 < bounds[0] < bounds[1]:
            raise ValueError("theta bounds must be finite with 0 < lo < hi")
        self.theta_bounds = tuple(bounds.tolist())
        if self.centers.x.shape[1] != self.samples.x.shape[1]:
            raise ValueError("every center and sample needs the same number of x coordinates")
        self.weights = finite_weights(self.weights, len(self.samples.y))

    def model(self, theta):
        return KernelModel(self.centers, theta)

    def to_dict(self):
        return {"schema": "mstat/1", "type": "newsvendor_kernel",
                "h": self.h, "b": self.b,
                "centers": [{"x": x, "y": y} for x, y in zip(self.centers.x.tolist(),
                                                             self.centers.y.tolist())],
                "samples": [{"x": x, "y": y} for x, y in zip(self.samples.x.tolist(),
                                                             self.samples.y.tolist())],
                "theta_bounds": list(self.theta_bounds),
                "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, d):
        """The instance of a problem file. theta_bounds and weights may be
        left out; an explicit null for either is a ValueError. A sample list
        that reads as the center list (_same_points) is read once, and the
        instance's samples are its centers."""
        for key in ("theta_bounds", "weights"):
            if key in d and d[key] is None:
                raise ValueError("%s is null; leave the key out instead" % key)
        centers = object_columns(d["centers"], "center")
        samples = object_list(d["samples"], "sample")
        samples = centers if _same_points(samples, d["centers"]) else object_columns(
            samples, "sample")
        return cls(h=d["h"], b=d["b"], centers=centers, samples=samples,
                   theta_bounds=d.get("theta_bounds", (1e-3, 1e3)),
                   weights=d.get("weights"))


def _same_points(samples, centers):
    """Whether the JSON objects samples read as the same Points as centers:
    they are equal, and every x is a number or a list of numbers and every y
    a number, numbers being ints and floats. Between those, == compares the
    values _points reads; a JSON true equals 1 but is no number."""
    try:
        if samples != centers:
            return False
    except ValueError:  # numpy arrays, which compare entry by entry
        return False
    xs = [s["x"] for s in samples]
    entries = chain.from_iterable(xs) if set(map(type, xs)) == {list} else xs
    kinds = set(map(type, entries)) | set(type(s["y"]) for s in samples)
    return kinds <= {int, float}


class NewsvendorLowerModel(LowerModel):
    """Expected newsvendor cost under the kernel mixture, theta = (bandwidth,).

    cost is the closed-form Gaussian-mixture expectation of
    h (z - Y)_+ + b (Y - z)_+ at the query x; its z-derivative is
    (h+b) F(z) - b.
    """

    def __init__(self, instance):
        self.inst = instance
        self.feasible_set = FeasibleSet.orthant(1)

    def _args(self, z, theta, x):
        """The kernel model at theta, the order quantity and the query."""
        return self.inst.model(float(np.atleast_1d(theta)[0])), float(np.atleast_1d(z)[0]), x

    def _per_center(self, m, z):
        """u_m = (z - y_m) / theta and each center's expected cost at z."""
        u = (z - m.centers_y) / m.theta
        over = (z - m.centers_y) * ndtr(u) + m.theta * _phi(u)
        under = (m.centers_y - z) * ndtr(-u) + m.theta * _phi(u)
        return u, self.inst.h * over + self.inst.b * under

    def cost(self, z, theta, x):
        m, z, x = self._args(z, theta, x)
        return float(nw_weights(m, x) @ self._per_center(m, z)[1])

    def cost_rows(self, Z, theta, X):
        """cost at each pair of rows of Z and X, from one weight matrix per
        block of rows; _row_dot gives each entry the float of cost."""
        m = self.inst.model(float(np.atleast_1d(theta)[0]))
        z = np.array([float(np.atleast_1d(v)[0]) for v in Z])
        X = _query_rows(m, X)
        out = np.empty(len(X))
        for rows in _row_blocks(len(X), m):
            W, _ = _weight_rows(m, X[rows])
            out[rows] = _row_dot(W, self._per_center(m, z[rows, None])[1])
        return out

    def grad_z(self, z, theta, x):
        m, z, x = self._args(z, theta, x)
        return np.array([(self.inst.h + self.inst.b) * conditional_cdf(m, z, x) - self.inst.b])

    def hess_zz(self, z, theta, x):
        m, z, x = self._args(z, theta, x)
        return np.array([[(self.inst.h + self.inst.b) * conditional_pdf(m, z, x)]])

    def hess_ztheta(self, z, theta, x):
        m, z, x = self._args(z, theta, x)
        return np.array([[(self.inst.h + self.inst.b) * grad_theta_cdf(m, z, x)]])

    def grad_theta(self, z, theta, x):
        m, z, x = self._args(z, theta, x)
        W, sq = _weight_rows(m, _one_row(m, x))
        w, psi = W[0], _log_kernel_grads(m, W, sq)[0]
        u, per_center = self._per_center(m, z)
        reweight = w * (psi - w @ psi) @ per_center
        widen = (self.inst.h + self.inst.b) * (w @ _phi(u))
        return np.array([reweight + widen])


def _kink_interval(z, y, h, b):
    """Subdifferential of h (z - y)_+ + b (y - z)_+ as an interval [lo, hi],
    entrywise for arrays z and y: [h, h] above y + DEFAULT_EPS, [-b, -b]
    below y - DEFAULT_EPS and [-b, h] on the kink."""
    return np.where(z > y + DEFAULT_EPS, h, -b), np.where(z < y - DEFAULT_EPS, -b, h)


class NewsvendorUpperModel(UpperModel):
    """Decision regret h (z - y)_+ + b (y - z)_+ against the realized demand
    y, over the bandwidth interval. It has no direct theta dependence, and
    its subdifferential in z is the _kink_interval interval."""

    def __init__(self, instance):
        self.inst = instance
        self.theta_set = ParameterSet.box([instance.theta_bounds[0]],
                                          [instance.theta_bounds[1]])

    def grad_z_bounds(self, z, x, y, theta):
        return _kink_interval(np.atleast_1d(z), y, self.inst.h, self.inst.b)

    def grad_theta(self, z, x, y, theta):
        return np.zeros(1)


class NewsvendorProblem(Problem):
    """as_problem's Problem, whose scenario rows are the samples' x and y.
    The scenario terms of all samples come from one weight matrix per block
    of rows, and each scenario's witness gains its loss subdifferential as
    "subdiff": [lo, hi]."""

    def __init__(self, instance):
        self.inst = instance
        super().__init__(NewsvendorLowerModel(instance), NewsvendorUpperModel(instance),
                         instance.samples.x, instance.samples.y, instance.weights)

    def scenario_terms(self, theta, certificate):
        """The terms of every scenario, one block of rows at a time: one
        weight matrix W with its squared distances, and one _kernel_columns
        call at the order quantities z, whose Phi gives the CDF, phi the
        density, and u, Phi and phi the bandwidth slope. Each entry is the
        float of the models' one-row formulas."""
        inst = self.inst
        h, b = inst.h, inst.b
        model = inst.model(float(theta[0]))
        X, y = self.x, self.y
        z, eta = certificate.z[:, 0], certificate.eta[:, 0]
        cdf, pdf, slope = np.empty((3, len(X)))
        for rows in _row_blocks(len(X), model):
            W, sq = _weight_rows(model, X[rows])
            u, Phi, phi = _kernel_columns(model, z[rows])
            cdf[rows] = _row_dot(W, Phi)
            pdf[rows] = _row_dot(W, phi) / model.theta
            slope[rows] = _grad_theta_rows(model, W, sq, u, Phi, phi)
        lo, hi = _kink_interval(z, y, h, b)
        # The models' formulas, entry by entry: g = (h+b) F - b,
        # hess_zz = (h+b) p, hess_ztheta = (h+b) dF/dtheta, grad_theta L = 0.
        # A matrix-vector product sums from +0.0, hence the 0.0 + below.
        return ScenarioTerms(
            g=((h + b) * cdf - b)[:, None],
            curvature=(0.0 + (h + b) * pdf * eta)[:, None],
            lo=lo[:, None], hi=hi[:, None],
            generators=(0.0 + (h + b) * slope * eta)[:, None],
            witness={"subdiff": np.stack([lo, hi], axis=1).tolist()})


def as_problem(instance):
    """The kernel newsvendor as a generic finite-support problem: one
    scenario per sample, the kernel lower model, the regret as the upper
    loss and the bandwidth interval as the parameter set."""
    return NewsvendorProblem(instance)


def lower_solver(instance):
    """The lower-level solver of as_problem(instance), for the penalized
    verifier. It answers rows (stationarity.value_function): each row's one
    candidate is the order quantity of its x at the bandwidth theta, and all
    rows are one solve_newsvendor_rows call, whose rows are independent, so
    each answer is the float of a one-row solve. The start Z goes unused.
    """
    def solve(model, theta, X, Z):
        return solve_newsvendor_rows(instance.model(float(theta[0])), X,
                                     instance.h, instance.b)[:, None, None]
    return solve


def newsvendor_certificate(theta, certificate_scenarios):
    """A Certificate from a bandwidth and one mapping per sample.

    Each mapping holds z, eta and zeta, and may hold the penalty weight mu
    and the value_weights. theta and each of z, eta, zeta and mu must be
    one finite number (finite_number), value_weights a finite vector or
    number (finite_vector), and each scenario a mapping, otherwise
    ValueError; a missing z, eta or zeta and a null mu or value_weights
    are ValueErrors too. Every entry's error names its scenario. The
    scenarios are read by Certificate, column by column.
    """
    return Certificate(finite_number(theta, "theta"), certificate_scenarios, number=True,
                       required=("z", "eta", "zeta"))


def verify_newsvendor_system(theta, certificate_scenarios, instance, tol=DEFAULT_TOL):
    """Check the bandwidth stationarity system of the kernel newsvendor.

    certificate_scenarios is a list of dicts with keys z, eta, zeta (scalars),
    read by newsvendor_certificate. The report is verify_certificate's on
    as_problem(instance), whose lines here read, per scenario n: (a) the
    contribution (h+b) grad_theta F(z_n; x_n) eta_n to the weighted upper
    sum, tested against the normal cone of the bandwidth interval; (b) the
    distance of -((h+b) p(z_n) eta_n + zeta_n) to the piecewise-linear cost
    subdifferential; (c) the scalar orthant coderivative conditions at
    (z_n, (h+b) F(z_n) - b); (d) the quantile first-order condition itself.
    """
    return verify_certificate(as_problem(instance),
                              newsvendor_certificate(theta, certificate_scenarios),
                              tol=tol)


def _batches(pieces):
    """Consecutive pieces, each a tuple whose second entry is a weight
    matrix, in groups of at most _STACK_ENTRIES entries, or of one piece."""
    batch, entries = [], 0
    for piece in pieces:
        if batch and entries + piece[1].size > _STACK_ENTRIES:
            yield batch
            batch, entries = [], 0
        batch.append(piece)
        entries += piece[1].size
    if batch:
        yield batch


def bandwidth_grid_search(instance, grid):
    """Bandwidth minimizing the sample-weighted leave-one-out regret over the grid.

    Leave-one-out applies when the instance has as many centers as samples
    (and more than one): sample i is then scored without center i, paired by
    position. Otherwise every sample is scored in-sample. Each grid point
    builds one model and one weight matrix per row block; no model is built
    per held-out sample. Ties break to the lowest grid index, so the search
    is deterministic. A grid point that is no bandwidth (KernelModel), or
    that lies more than DEFAULT_EPS outside the instance's theta_bounds, is
    a ValueError, the latter with the text of ParameterSet.outside; no point
    is scored then.

    The result is the grid point of the exact scan: each total
    (empirical_regret) is compared with the best so far, and a total below
    it by more than 1e-15 takes its place. The totals are not all computed,
    though. Each grid point's rows are bracketed (_bracket); the bracketed
    rows of several grid points, up to _STACK_ENTRIES (row, center)
    entries, then go through _quantile_bounds together, which bisects only
    the rows whose verified sides do not settle them. So each total is
    known to an interval (_total_bounds), and the scan is replayed on these
    intervals (_scan). If a comparison stays undecided, as at a repeated
    grid point, whose totals tie exactly, every total is computed exactly
    and scanned, from the weight matrices already built when they fit in
    _BLOCK_ENTRIES entries together, else from new ones.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("empty bandwidth grid")
    models = [instance.model(theta) for theta in grid]
    box = NewsvendorUpperModel(instance).theta_set
    for i, theta in enumerate(grid):
        for text in box.outside([theta]):
            raise ValueError("grid point %d: %s" % (i, text))
    X = instance.samples.x
    n = len(X)
    loo = len(instance.centers.y) == n and n > 1
    q = instance.b / (instance.h + instance.b)
    keep = len(grid) * n * len(instance.centers.y) <= _BLOCK_ENTRIES
    kept = []

    def bracketed():
        """((grid index, rows), weights, hi, bandwidths) of the bracketed
        rows of each block of each grid point."""
        for j, model in enumerate(models):
            blocks = list(_weight_blocks(model, X, loo)) if keep else None
            kept.append(blocks)
            start = 0
            for W in blocks or _weight_blocks(model, X, loo):
                live, W, hi = _bracket(model, W, q)
                if len(W):
                    yield (j, start + np.flatnonzero(live)), W, hi, np.full(len(W), model.theta)
                start += len(live)

    z, err = np.zeros((len(grid), n)), np.zeros((len(grid), n))
    for batch in _batches(bracketed()):
        at, W, hi, theta = zip(*batch)
        ends = np.cumsum([len(w) for w in W])[:-1]
        bounds = _quantile_bounds(instance.centers.y, np.concatenate(W), q,
                                  np.concatenate(hi), np.concatenate(theta))
        for rows, z_rows, err_rows in zip(at, *(np.split(v, ends) for v in bounds)):
            z[rows], err[rows] = z_rows, err_rows
    best = _scan(*zip(*(_total_bounds(instance, z_j, err_j) for z_j, err_j in zip(z, err))))
    if best is None:
        totals = [_sample_total(instance, _solve_blocks(
            model, blocks or _weight_blocks(model, X, loo), q))
            for model, blocks in zip(models, kept)]
        best = _scan(totals, totals)
    return grid[best]
