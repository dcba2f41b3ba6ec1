"""Newsvendor ordering with a Nadaraya-Watson kernel demand model.

Demand given context x is modeled by a Gaussian-kernel conditional mixture
over observed centers (x_m, y_m) with a shared bandwidth theta: weights are
normalized kernel evaluations in x, and the conditional law of demand is the
matching mixture of normals in y. The order quantity solves a one-dimensional
quantile condition, and the bandwidth is scored by decision regret against
the realized demand.

Weight computations run through log-sum-exp so that tiny bandwidths or remote
queries degrade to well-defined uniform weights instead of 0/0.

Every numeric step works on whole rows. For k queries and M centers the
weights form a (k, M) matrix W, built once per bandwidth; the CDF, density
and bandwidth derivative of each row's mixture are row-wise dot products
against W, and the quantile solves of all rows run in lockstep. Rows are
processed in blocks of at most _BLOCK_ENTRIES (row, center, coordinate)
entries, which bounds memory and, rows being independent, changes no bit of
any result. The scalar functions (nw_weights, conditional_cdf,
conditional_pdf, grad_theta_cdf, solve_newsvendor) are one-row calls of the
same helpers.

Leave-one-out scoring applies when an instance has as many centers as
samples, and then pairs them by position: sample i is scored without center
i, whose logit in row i is set to -inf.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .cones import DEFAULT_EPS
from .graph_normals import STRICT_EPS, _orthant_rows, finite_number
from .stationarity import (
    DEFAULT_VALUE_TOL,
    FeasibleSet,
    LowerModel,
    ParameterSet,
    ResidualReport,
    ScenarioReport,
)

__all__ = [
    "KernelModel", "NewsvendorInstance",
    "nw_weights", "conditional_cdf", "conditional_pdf", "grad_theta_cdf",
    "solve_newsvendor", "solve_newsvendor_rows", "spo_loss_newsvendor",
    "empirical_regret", "verify_newsvendor_system", "bandwidth_grid_search",
    "NewsvendorLowerModel",
]

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Largest (row, center, coordinate) entry count of one block of query rows.
_BLOCK_ENTRIES = 1 << 20


def _phi(u):
    return np.exp(-0.5 * np.square(u)) / SQRT_2PI


def _finite(values):
    return bool(np.all(np.isfinite(values)))


@dataclass
class KernelModel:
    """Gaussian-kernel conditional distribution with bandwidth theta > 0."""

    centers_x: np.ndarray
    centers_y: np.ndarray
    theta: float

    def __init__(self, centers, theta):
        xs, ys = [], []
        for x, y in centers:
            xs.append(np.atleast_1d(np.asarray(x, dtype=float)))
            ys.append(float(y))
        if not xs:
            raise ValueError("need at least one center")
        theta = float(theta)
        if not (np.isfinite(theta) and theta > 0):
            raise ValueError("bandwidth must be positive and finite")
        if xs[0].ndim != 1 or any(x.shape != xs[0].shape for x in xs):
            raise ValueError("every center needs the same number of x coordinates")
        self.centers_x = np.vstack(xs)
        self.centers_y = np.asarray(ys, dtype=float)
        if not (_finite(self.centers_x) and _finite(self.centers_y)):
            raise ValueError("center coordinates must be finite")
        self.theta = theta

    @property
    def d_x(self):
        return self.centers_x.shape[1]

    @property
    def n_centers(self):
        return len(self.centers_y)

    def with_theta(self, theta):
        return KernelModel(list(zip(self.centers_x, self.centers_y)), theta)


# ---------------------------------------------------------------------------
# row helpers: one row per query, one column per center

def _query_rows(model, xs):
    """Query points as a finite (k, d_x) array."""
    X = np.asarray(xs, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.d_x:
        raise ValueError("query points need %d x coordinates each" % model.d_x)
    if not _finite(X):
        raise ValueError("query point must be finite")
    return X


def _one_row(model, x):
    return _query_rows(model, np.atleast_1d(np.asarray(x, dtype=float))[None, :])


def _row_blocks(n_rows, model):
    step = max(1, _BLOCK_ENTRIES // (model.n_centers * model.d_x))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _row_dot(W, V):
    """w_i @ v_i for every row i.

    A stacked matmul of (1, M) by (M, 1) runs the same dot kernel as a 1-D
    `w @ v`, so each row gets the bits the one-row call gets; einsum and
    (W * V).sum(1) sum in other orders.
    """
    return np.matmul(W[:, None, :], V[:, :, None])[:, 0, 0]


def _weight_rows(model, X, drop=None):
    """Normalized kernel weights (k, M) of the query rows X and the squared
    distances they come from.

    Computed in the log domain; the kernel's normalizing constant cancels,
    so only the squared distances matter. drop[i], when given, is a center
    whose logit in row i is set to -inf, removing it from that row.
    """
    sq = np.sum(np.square(model.centers_x[None, :, :] - X[:, None, :]), axis=2)
    logits = -sq / (2.0 * model.theta ** 2)
    if drop is not None:
        logits[np.arange(len(X)), drop] = -np.inf
    logits -= np.max(logits, axis=1, keepdims=True)
    W = np.exp(logits)
    return W / W.sum(axis=1, keepdims=True), sq


def _scaled(model, y):
    """(y_i - y_m) / theta for the value y_i of each row."""
    return (np.asarray(y, dtype=float)[:, None] - model.centers_y) / model.theta


def _cdf_rows(model, W, y):
    return _row_dot(W, ndtr(_scaled(model, y)))


def _pdf_rows(model, W, y):
    return _row_dot(W, _phi(_scaled(model, y))) / model.theta


def _log_kernel_grads(model, sq):
    """d/dtheta log K_theta(x - x_m) = -d_x / theta + ||x - x_m||^2 / theta^3."""
    return -model.d_x / model.theta + sq / model.theta ** 3


def _grad_theta_rows(model, W, sq, y):
    psi = _log_kernel_grads(model, sq)
    u = _scaled(model, y)
    reweight = _row_dot(W * (psi - _row_dot(W, psi)[:, None]), ndtr(u))
    widen = _row_dot(W, u * _phi(u) / model.theta)
    return reweight - widen


def _quantile_rows(model, W, q, tol, max_expand):
    """Order quantity of each weight row; see solve_newsvendor for the rule.

    Rows move in lockstep with per-row masks: a row met at z = 0 keeps 0, a
    bracketed row stops widening, and a row whose Newton stopping rule fired
    is frozen while the others continue.
    """
    out = np.zeros(len(W))
    live = ~(_cdf_rows(model, W, out) >= q)
    if not live.any():
        return out
    W = W[live]
    lo = np.zeros(len(W))
    hi = np.full(len(W), np.max(model.centers_y) + 20.0 * model.theta)
    short = np.ones(len(W), dtype=bool)
    for _ in range(max_expand):
        short &= ~(_cdf_rows(model, W, hi) > q)
        if not short.any():
            break
        hi[short] += 10.0 * model.theta
    else:
        raise RuntimeError("failed to bracket the quantile")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _cdf_rows(model, W, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    z = 0.5 * (lo + hi)
    moving = np.ones(len(W), dtype=bool)
    for _ in range(5):
        f = _cdf_rows(model, W, z) - q
        p = _pdf_rows(model, W, z)
        moving &= ~((p <= 0.0) | (np.abs(f) <= tol))
        if not moving.any():
            break
        z[moving] -= f[moving] / p[moving]
    out[live] = np.where(z < 0.0, 0.0, z)
    return out


# ---------------------------------------------------------------------------
# the conditional distribution at one query

def nw_weights(model, x):
    """Normalized Gaussian kernel weights of the centers at query x."""
    return _weight_rows(model, _one_row(model, x))[0][0]


def conditional_cdf(model, y, x):
    """F_theta(y; x) = sum_m w_m Phi((y - y_m) / theta)."""
    W, _ = _weight_rows(model, _one_row(model, x))
    return float(_cdf_rows(model, W, [y])[0])


def conditional_pdf(model, y, x):
    """p_theta(y; x) = sum_m w_m phi((y - y_m) / theta) / theta."""
    W, _ = _weight_rows(model, _one_row(model, x))
    return float(_pdf_rows(model, W, [y])[0])


def grad_theta_cdf(model, y, x):
    """Bandwidth derivative of the conditional CDF at (y, x).

    Two parts: reweighting of the centers through the score of the x-kernel,
    and the widening of each univariate y-kernel, whose integral derivative
    is -((y - y_m)/theta) K_theta(y - y_m) with the one-dimensional kernel.
    """
    W, sq = _weight_rows(model, _one_row(model, x))
    return float(_grad_theta_rows(model, W, sq, [y])[0])


# ---------------------------------------------------------------------------
# order quantities and regret

def solve_newsvendor_rows(model, xs, h, b, tol=1e-12, max_expand=60,
                          leave_one_out=False):
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
    out = np.empty(len(X))
    for rows in _row_blocks(len(X), model):
        drop = np.arange(rows.start, rows.stop) if leave_one_out else None
        W, _ = _weight_rows(model, X[rows], drop)
        out[rows] = _quantile_rows(model, W, q, tol, max_expand)
    return out


def solve_newsvendor(model, x, h, b, tol=1e-12, max_expand=60):
    """Order quantity solving 0 in (h+b) F_theta(z; x) - b + N_{R+}(z).

    Returns 0 when the critical ratio is already met at the boundary;
    otherwise brackets the quantile from max_m y_m + 20 theta in steps of
    10 theta, bisects 60 times and polishes with at most 5 Newton steps on
    the smooth strictly increasing CDF, stopping once |F - q| <= tol. This
    is the one-row case of solve_newsvendor_rows.
    """
    return float(solve_newsvendor_rows(model, _one_row(model, x), h, b, tol,
                                       max_expand)[0])


def _regret(z, y, h, b):
    return h * np.maximum(z - y, 0.0) + b * np.maximum(y - z, 0.0)


def spo_loss_newsvendor(model, x, y_realized, h, b):
    """Decision regret against realized demand; the clairvoyant cost is zero."""
    return float(_regret(solve_newsvendor(model, x, h, b), y_realized, h, b))


def _sample_rows(instance):
    return (np.vstack([x for x, _ in instance.samples]),
            np.array([y for _, y in instance.samples]))


def empirical_regret(instance, model, leave_one_out=False):
    """Sample-weighted decision regret of the model's order quantities.

    The weighted terms are summed in sample order. With leave_one_out, sample
    i is decided without center i (see solve_newsvendor_rows).
    """
    X, ys = _sample_rows(instance)
    z = solve_newsvendor_rows(model, X, instance.h, instance.b,
                              leave_one_out=leave_one_out)
    total = 0.0
    for w, r in zip(instance.weights, _regret(z, ys, instance.h, instance.b)):
        total += w * r
    return float(total)


@dataclass
class NewsvendorInstance:
    """Holding/backorder costs plus the (x_n, y_n) sample and kernel centers."""

    h: float
    b: float
    centers: list
    samples: list
    theta_bounds: tuple = (1e-3, 1e3)
    weights: np.ndarray = None

    def __post_init__(self):
        if not (self.h > 0 and self.b > 0 and np.isfinite(self.h) and np.isfinite(self.b)):
            raise ValueError("h and b must be strictly positive and finite")
        self.centers = [(np.atleast_1d(np.asarray(x, dtype=float)), float(y))
                        for x, y in self.centers]
        self.samples = [(np.atleast_1d(np.asarray(x, dtype=float)), float(y))
                        for x, y in self.samples]
        lo, hi = self.theta_bounds
        if not (0 < lo < hi and np.isfinite(hi)):
            raise ValueError("theta bounds must be finite with 0 < lo < hi")
        n = len(self.samples)
        if n == 0:
            raise ValueError("need at least one sample")
        if not self.centers:
            raise ValueError("need at least one center")
        xs = [x for x, _ in self.centers + self.samples]
        if xs[0].ndim != 1 or any(x.shape != xs[0].shape for x in xs):
            raise ValueError("every center and sample needs the same number of x coordinates")
        if not (_finite(np.vstack(xs)) and _finite([y for _, y in self.centers + self.samples])):
            raise ValueError("center and sample coordinates must be finite")
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if len(self.weights) != n or not _finite(self.weights) \
                    or np.min(self.weights) < 0 or abs(self.weights.sum() - 1.0) > 1e-12:
                raise ValueError("weights must be a probability vector over samples")

    def model(self, theta):
        return KernelModel(self.centers, theta)

    def to_dict(self):
        return {"schema": "mstat/1", "type": "newsvendor_kernel",
                "h": self.h, "b": self.b,
                "centers": [{"x": x.tolist(), "y": y} for x, y in self.centers],
                "samples": [{"x": x.tolist(), "y": y} for x, y in self.samples],
                "theta_bounds": list(self.theta_bounds),
                "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(h=d["h"], b=d["b"],
                   centers=[(c["x"], c["y"]) for c in d["centers"]],
                   samples=[(s["x"], s["y"]) for s in d["samples"]],
                   theta_bounds=tuple(d.get("theta_bounds", (1e-3, 1e3))),
                   weights=d.get("weights"))


class NewsvendorLowerModel(LowerModel):
    """Expected newsvendor cost under the kernel mixture, theta = (bandwidth,).

    cost is the closed-form Gaussian-mixture expectation of
    h (z - Y)_+ + b (Y - z)_+; its z-derivative is (h+b) F(z) - b.
    """

    def __init__(self, instance, x):
        self.inst = instance
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        self.feasible_set = FeasibleSet.orthant(1)

    def _model(self, theta):
        return self.inst.model(float(np.atleast_1d(theta)[0]))

    def cost(self, z, theta, x=None):
        m = self._model(theta)
        z = float(np.atleast_1d(z)[0])
        w = nw_weights(m, self.x)
        u = (z - m.centers_y) / m.theta
        over = (z - m.centers_y) * ndtr(u) + m.theta * _phi(u)
        under = (m.centers_y - z) * ndtr(-u) + m.theta * _phi(u)
        return float(w @ (self.inst.h * over + self.inst.b * under))

    def grad_z(self, z, theta, x=None):
        m = self._model(theta)
        z = float(np.atleast_1d(z)[0])
        return np.array([(self.inst.h + self.inst.b)
                         * conditional_cdf(m, z, self.x) - self.inst.b])

    def hess_zz(self, z, theta, x=None):
        m = self._model(theta)
        z = float(np.atleast_1d(z)[0])
        return np.array([[(self.inst.h + self.inst.b)
                          * conditional_pdf(m, z, self.x)]])

    def hess_ztheta(self, z, theta, x=None):
        m = self._model(theta)
        z = float(np.atleast_1d(z)[0])
        return np.array([[(self.inst.h + self.inst.b)
                          * grad_theta_cdf(m, z, self.x)]])

    def grad_theta(self, z, theta, x=None):
        m = self._model(theta)
        z = float(np.atleast_1d(z)[0])
        W, sq = _weight_rows(m, _one_row(m, self.x))
        w, psi = W[0], _log_kernel_grads(m, sq[0])
        u = (z - m.centers_y) / m.theta
        over = (z - m.centers_y) * ndtr(u) + m.theta * _phi(u)
        under = (m.centers_y - z) * ndtr(-u) + m.theta * _phi(u)
        per_center = self.inst.h * over + self.inst.b * under
        reweight = w * (psi - w @ psi) @ per_center
        widen = (self.inst.h + self.inst.b) * (w @ _phi(u))
        return np.array([reweight + widen])


def _kink_interval(z, y, h, b, eps):
    """Subdifferential of h (z - y)_+ + b (y - z)_+ as an interval [lo, hi]."""
    if z > y + eps:
        return h, h
    if z < y - eps:
        return -b, -b
    return -b, h


def verify_newsvendor_system(theta, certificate_scenarios, instance, tol=1e-8,
                             eps=DEFAULT_EPS, strict_eps=STRICT_EPS):
    """Check the bandwidth stationarity system of the kernel newsvendor.

    certificate_scenarios is a list of dicts with keys z, eta, zeta (scalars).
    Per scenario n the conditions are (a) contribution to the weighted upper
    sum (h+b) grad_theta F(z_n; x_n) eta_n, tested against the normal cone of
    the bandwidth interval; (b) 0 in dL(z_n) + (h+b) p(z_n) eta_n + zeta_n
    with dL the piecewise-linear cost subdifferential; (c) the scalar orthant
    coderivative conditions at (z_n, (h+b) F(z_n) - b); (d) the quantile
    first-order condition itself.

    F, p and grad_theta F of every scenario come from one weight matrix of
    the samples against the centers, and (c) of every scenario from one
    orthant row pass; the upper sum is accumulated in scenario order. theta
    and each z, eta and zeta must be one finite number (finite_number),
    otherwise ValueError.
    """
    theta = finite_number(theta, "theta")
    model = instance.model(theta)
    h, b = instance.h, instance.b
    if len(certificate_scenarios) != len(instance.samples):
        raise ValueError("need one certificate entry per sample")
    cert = np.array([[finite_number(part[key], key) for key in ("z", "eta", "zeta")]
                     for part in certificate_scenarios])
    X, _ = _sample_rows(instance)
    z = cert[:, 0]
    cdf, pdf, slope = np.empty((3, len(X)))
    for rows in _row_blocks(len(X), model):
        W, sq = _weight_rows(model, X[rows])
        cdf[rows] = _cdf_rows(model, W, z[rows])
        pdf[rows] = _pdf_rows(model, W, z[rows])
        slope[rows] = _grad_theta_rows(model, W, sq, z[rows])

    # (c): the scalar orthant conditions of every scenario in one row pass.
    g = (h + b) * cdf - b
    m = _orthant_rows(z[:, None], g[:, None], cert[:, 2:3], cert[:, 1:2], eps, strict_eps)
    upper_sum = 0.0
    reports = []
    for n, ((_, y), w, (z_n, eta, zeta), g_n, res) in enumerate(zip(
            instance.samples, instance.weights, cert.tolist(), g.tolist(), m)):
        upper_sum += w * (h + b) * float(slope[n]) * eta

        # (b): distance of -(h+b) p eta - zeta to the loss subdifferential.
        target = -((h + b) * float(pdf[n]) * eta + zeta)
        lo, hi = _kink_interval(z_n, y, h, b, eps)
        m_res = float(max(lo - target, target - hi, 0.0))

        # (d): quantile stationarity.
        low_res = abs(g_n) if z_n > eps else max(0.0, -g_n)

        reports.append(ScenarioReport(
            index=n, lower_residual=float(low_res), m_membership=res.member,
            m_verdict=res.verdict, m_residual=m_res,
            witness={**res.witness, "subdiff": [lo, hi]}))

    theta_set = ParameterSet.box([instance.theta_bounds[0]],
                                 [instance.theta_bounds[1]])
    upper = theta_set.normal_cone_distance(np.array([theta]),
                                           np.array([-upper_sum]), eps)
    return ResidualReport(mode="convex", tol=tol, value_tol=DEFAULT_VALUE_TOL,
                          upper_residual=float(upper), scenarios=reports)


def bandwidth_grid_search(instance, grid):
    """Bandwidth minimizing the sample-weighted leave-one-out regret over the grid.

    Leave-one-out applies when the instance has as many centers as samples
    (and more than one): sample i is then scored without center i, paired by
    position. Otherwise every sample is scored in-sample. Each grid point
    builds one model and one weight matrix per row block; no model is built
    per held-out sample. Ties break to the lowest grid index, so the search
    is deterministic.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("empty bandwidth grid")
    loo = len(instance.centers) == len(instance.samples) and len(instance.samples) > 1
    best_theta, best_val = None, None
    for theta in grid:
        total = empirical_regret(instance, instance.model(theta), leave_one_out=loo)
        if best_val is None or total < best_val - 1e-15:
            best_theta, best_val = theta, total
    return best_theta


def read_points_csv(path, d_x):
    """(x, y) rows from CSV with header x_1..x_dx, y."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        want = ["x_%d" % (i + 1) for i in range(d_x)] + ["y"]
        missing = [c for c in want if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError("missing CSV columns: %s" % ", ".join(missing))
        for row_no, row in enumerate(reader, start=2):
            try:
                x = [float(row["x_%d" % (i + 1)]) for i in range(d_x)]
                y = float(row["y"])
            except (TypeError, ValueError) as exc:
                raise ValueError("row %d: %s" % (row_no, exc)) from exc
            out.append((x, y))
    return out
