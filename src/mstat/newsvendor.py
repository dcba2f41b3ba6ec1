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

A quantile solve brackets the root in [0, top] (_bracket) and takes
safeguarded Halley steps inside the bracket, the rtsafe scheme of Numerical
Recipes, until |F - q| is within the computed CDF's rounding bound delta or
no float is left inside the bracket (_halley_rows). bandwidth_grid_search
scores each grid point by that solve and scans the exact totals.

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
# Bound on |F - F_W| beyond M eps, where F is the computed CDF of a weight
# row over M centers and F_W the exact mixture with the same weights: ndtr's
# absolute error is at most 1.8e-16, the rounded argument (y - y_m) / theta
# moves Phi by at most 0.25 eps, and the dot product adds at most
# gamma_M < M eps (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., section 3.1). delta = _CDF_DELTA + M eps is the quantile solve's
# stopping band: a row stops where |F - q| <= delta (_halley_rows).
# tests/test_newsvendor.py checks ndtr against an mpmath reference,
# tests/ndtr_reference.json, to _CDF_DELTA / 10.
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


def _sq_distances(C, X):
    """||x_i - c_m||^2 for every query row x_i of X (k, d) and center row c_m
    of C (M, d), as a (k, M) matrix: one (k, M) slice of squared differences
    per coordinate, added left to right to zeros, so d = 0 gives zeros."""
    total = np.zeros((len(X), len(C)))
    for c, x in zip(C.T, X.T):
        total += np.square(c - x[:, None])
    return total


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
    with np.errstate(over="ignore"):    # +-inf is the right ndtr argument
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


def _bracket(model, W, q):
    """The rows of W whose quantile is not 0, F(0) < q, their weights, and
    their bracket tops hi with F(hi) > q.

    The bracket asks F at one y for every row at once: 0, then the top
    max_m y_m + 20 theta, or the float above max_m y_m where that sum
    rounds back to it. So each ask is one ndtr row over the M centers,
    broadcast against W; ndtr works entry by entry and _row_dot sees the
    same values, so each row gets the bits of its own evaluation. Either
    top puts every (top - y_m) / theta at 13 or more, where ndtr is 1.0,
    so F(top) <= q, a critical ratio that rounds to 1, raises RuntimeError.
    """
    def shared(W, y):
        return _row_dot(W, ndtr(_scaled(model, [y])))

    live = ~(shared(W, 0.0) >= q)
    W = W[live]
    highest = np.max(model.centers_y)
    top = max(highest + 20.0 * model.theta, np.nextafter(highest, np.inf))
    if len(W) and not np.all(shared(W, top) > q):
        raise RuntimeError("failed to bracket the quantile")
    return live, W, np.full(len(W), top)


def _halley_rows(model, W, q, hi):
    """The order quantity of each bracketed weight row (_bracket): F(0) < q
    < F(hi). Safeguarded Halley steps inside the bracket, as rtsafe takes
    Newton steps (Press et al., Numerical Recipes, 3rd ed., section 9.4).

    A row starts at its discrete weighted q-quantile of the centers, clipped
    to [0, hi]. At each iterate x it evaluates F, the density p and its
    slope p', and moves the bracket end on x's side of q to x. A row stops
    at x where |F - q| <= delta = _CDF_DELTA + M eps, which bounds the
    computed CDF's error over M centers; it stops at its bracket top where
    no float lies strictly inside the bracket, which is exactly where the
    bracket's midpoint lo + (hi - lo) / 2 does not. A stopped row is not
    evaluated again. Otherwise the next iterate is the Halley point
    x - 2 f p / (2 p^2 - f p'), f = F - q, if it lies strictly inside the
    bracket and moves at most half as far as the step two iterations
    earlier, and the midpoint if not. So every iterate after the start lies
    strictly inside its bracket, which shrinks at each step, and each row
    stops. Every operation is entrywise or a _row_dot, so each row gets the
    bits of its own one-row solve.
    """
    delta = _CDF_DELTA + W.shape[1] * np.finfo(float).eps
    order = np.argsort(model.centers_y, kind="stable")
    at = np.minimum(np.sum(np.cumsum(W[:, order], axis=1) < q, axis=1), W.shape[1] - 1)
    lo = np.zeros(len(W))
    x = np.clip(model.centers_y[order][at], lo, hi)
    step = before = hi
    out, rows = np.empty(len(W)), np.arange(len(W))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(rows):
            u, Phi, phi = _kernel_columns(model, x)
            f = _row_dot(W, Phi) - q
            p = _row_dot(W, phi) / model.theta
            slope = -_row_dot(W, u * phi) / model.theta ** 2
            lo, hi = np.where(f < 0.0, x, lo), np.where(f < 0.0, hi, x)
            mid = lo + 0.5 * (hi - lo)
            halley = x - 2.0 * f * p / (2.0 * p * p - f * slope)
            take = (lo < halley) & (halley < hi) & (np.abs(halley - x) <= 0.5 * np.abs(before))
            nxt = np.where(take, halley, mid)
            before, step = step, nxt - x
            met = np.abs(f) <= delta
            out[rows] = np.where(met, x, hi)
            go = ~met & (lo < mid) & (mid < hi)
            if not go.all():
                W, rows, lo, hi, step, before, nxt = (
                    v[go] for v in (W, rows, lo, hi, step, before, nxt))
            x = nxt
    return out


def _quantile_rows(model, W, q):
    """Order quantity of each weight row; see solve_newsvendor for the rule.
    A row met at z = 0 keeps 0 and the others are solved in lockstep
    (_halley_rows), a stopped row frozen while the others continue."""
    out = np.zeros(len(W))
    live, W, hi = _bracket(model, W, q)
    if live.any():
        out[live] = _halley_rows(model, W, q, hi)
    return out


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
    otherwise brackets the quantile by [0, top] (_bracket) and takes
    safeguarded Halley steps on the smooth increasing CDF, a step that would
    leave the bracket or shrink too slowly being a bisection (_halley_rows).
    The result is a z with |F(z) - q| <= delta, delta = _CDF_DELTA + M eps
    for M centers, the bound on the computed CDF's rounding error; where F
    jumps by more than that between adjacent floats and no such z exists,
    it is the float above the jump, the top of a bracket with no float
    inside. A critical ratio that F does not exceed at the bracket's top
    raises RuntimeError. This is the one-row case of solve_newsvendor_rows,
    whose rows are independent: each gets the bits of its own solve.
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

    Each grid point's total is empirical_regret's, one solve of all its
    rows, and a total below the best so far by more than 1e-15 takes its
    place.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("empty bandwidth grid")
    models = [instance.model(theta) for theta in grid]
    box = NewsvendorUpperModel(instance).theta_set
    for i, theta in enumerate(grid):
        for text in box.outside([theta]):
            raise ValueError("grid point %d: %s" % (i, text))
    n = len(instance.samples.y)
    loo = len(instance.centers.y) == n and n > 1
    totals = [empirical_regret(instance, model, leave_one_out=loo) for model in models]
    best = 0
    for j, total in enumerate(totals):
        if total < totals[best] - 1e-15:
            best = j
    return grid[best]
