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

The bandwidth stationarity system is the generic one of mstat.stationarity
on as_problem(instance); its scenario terms come from the same row helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .cones import DEFAULT_EPS
from .graph_normals import finite_number, finite_vector, object_list
from .stationarity import (
    Certificate,
    FeasibleSet,
    LowerModel,
    ParameterSet,
    Problem,
    Scenario,
    ScenarioCertificate,
    ScenarioTerms,
    UpperModel,
    verify_certificate,
)

__all__ = [
    "KernelModel", "NewsvendorInstance",
    "nw_weights", "conditional_cdf", "conditional_pdf", "grad_theta_cdf",
    "solve_newsvendor", "solve_newsvendor_rows",
    "empirical_regret", "verify_newsvendor_system", "bandwidth_grid_search",
    "NewsvendorLowerModel", "NewsvendorUpperModel", "NewsvendorProblem",
    "as_problem", "lower_solver", "newsvendor_certificate",
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
        self.centers_x = np.array(xs)
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


def _sample_rows(instance):
    return (np.array([x for x, _ in instance.samples]),
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
        self.h, self.b = finite_number(self.h, "h"), finite_number(self.b, "b")
        if not (self.h > 0 and self.b > 0):
            raise ValueError("h and b must be strictly positive and finite")
        self.centers = [(finite_vector(x, "x", scalar=True), finite_number(y, "y"))
                        for x, y in self.centers]
        self.samples = [(finite_vector(x, "x", scalar=True), finite_number(y, "y"))
                        for x, y in self.samples]
        bounds = finite_vector(self.theta_bounds, "theta_bounds")
        if len(bounds) != 2 or not 0 < bounds[0] < bounds[1]:
            raise ValueError("theta bounds must be finite with 0 < lo < hi")
        self.theta_bounds = tuple(bounds.tolist())
        n = len(self.samples)
        if n == 0:
            raise ValueError("need at least one sample")
        if not self.centers:
            raise ValueError("need at least one center")
        xs = [x for x, _ in self.centers + self.samples]
        if any(x.shape != xs[0].shape for x in xs):
            raise ValueError("every center and sample needs the same number of x coordinates")
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = finite_vector(self.weights, "weights", scalar=True)
            if len(self.weights) != n or np.min(self.weights) < 0 \
                    or abs(self.weights.sum() - 1.0) > 1e-12:
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
                   centers=[(c["x"], c["y"]) for c in object_list(d["centers"], "center")],
                   samples=[(s["x"], s["y"]) for s in object_list(d["samples"], "sample")],
                   theta_bounds=d.get("theta_bounds", (1e-3, 1e3)),
                   weights=d.get("weights"))


class NewsvendorLowerModel(LowerModel):
    """Expected newsvendor cost under the kernel mixture, theta = (bandwidth,).

    cost is the closed-form Gaussian-mixture expectation of
    h (z - Y)_+ + b (Y - z)_+; its z-derivative is (h+b) F(z) - b. Every
    method reads the query x it is given, or the x fixed at construction
    when it is given none.
    """

    def __init__(self, instance, x=None):
        self.inst = instance
        self.x = None if x is None else np.atleast_1d(np.asarray(x, dtype=float))
        self.feasible_set = FeasibleSet.orthant(1)

    def _args(self, z, theta, x):
        """The kernel model at theta, the order quantity and the query."""
        return (self.inst.model(float(np.atleast_1d(theta)[0])), float(np.atleast_1d(z)[0]),
                self.x if x is None else x)

    def _per_center(self, m, z):
        """u_m = (z - y_m) / theta and each center's expected cost at z."""
        u = (z - m.centers_y) / m.theta
        over = (z - m.centers_y) * ndtr(u) + m.theta * _phi(u)
        under = (m.centers_y - z) * ndtr(-u) + m.theta * _phi(u)
        return u, self.inst.h * over + self.inst.b * under

    def cost(self, z, theta, x=None):
        m, z, x = self._args(z, theta, x)
        return float(nw_weights(m, x) @ self._per_center(m, z)[1])

    def grad_z(self, z, theta, x=None):
        m, z, x = self._args(z, theta, x)
        return np.array([(self.inst.h + self.inst.b) * conditional_cdf(m, z, x) - self.inst.b])

    def hess_zz(self, z, theta, x=None):
        m, z, x = self._args(z, theta, x)
        return np.array([[(self.inst.h + self.inst.b) * conditional_pdf(m, z, x)]])

    def hess_ztheta(self, z, theta, x=None):
        m, z, x = self._args(z, theta, x)
        return np.array([[(self.inst.h + self.inst.b) * grad_theta_cdf(m, z, x)]])

    def grad_theta(self, z, theta, x=None):
        m, z, x = self._args(z, theta, x)
        W, sq = _weight_rows(m, _one_row(m, x))
        w, psi = W[0], _log_kernel_grads(m, sq[0])
        u, per_center = self._per_center(m, z)
        reweight = w * (psi - w @ psi) @ per_center
        widen = (self.inst.h + self.inst.b) * (w @ _phi(u))
        return np.array([reweight + widen])


def _kink_interval(z, y, h, b, eps):
    """Subdifferential of h (z - y)_+ + b (y - z)_+ as an interval [lo, hi],
    entrywise for arrays z and y: [h, h] above y + eps, [-b, -b] below
    y - eps and [-b, h] on the kink."""
    return np.where(z > y + eps, h, -b), np.where(z < y - eps, -b, h)


class NewsvendorUpperModel(UpperModel):
    """Decision regret h (z - y)_+ + b (y - z)_+ against the realized demand
    y, over the bandwidth interval. It has no direct theta dependence, and
    its subdifferential in z is the _kink_interval interval."""

    def __init__(self, instance):
        self.inst = instance
        self.theta_set = ParameterSet.box([instance.theta_bounds[0]],
                                          [instance.theta_bounds[1]])

    def loss(self, z, x, y, theta):
        return float(_regret(float(np.atleast_1d(z)[0]), y, self.inst.h, self.inst.b))

    def grad_z_bounds(self, z, x, y, theta, eps):
        return _kink_interval(np.atleast_1d(z), y, self.inst.h, self.inst.b, eps)

    def grad_theta(self, z, x, y, theta):
        return np.zeros(1)


class NewsvendorProblem(Problem):
    """as_problem's Problem: the scenario terms of all samples come from one
    weight matrix per block of rows, and each scenario's witness gains its
    loss subdifferential as "subdiff": [lo, hi]."""

    def scenario_terms(self, theta, certificate, eps=DEFAULT_EPS):
        inst = self.lower.inst
        h, b = inst.h, inst.b
        model = inst.model(float(theta[0]))
        X = np.array([scen.x for scen in self.scenarios])
        y = np.array([scen.y for scen in self.scenarios])
        z = np.array([cert.z[0] for cert in certificate.scenarios])
        eta = np.array([cert.eta[0] for cert in certificate.scenarios])
        cdf, pdf, slope = np.empty((3, len(X)))
        for rows in _row_blocks(len(X), model):
            W, sq = _weight_rows(model, X[rows])
            cdf[rows] = _cdf_rows(model, W, z[rows])
            pdf[rows] = _pdf_rows(model, W, z[rows])
            slope[rows] = _grad_theta_rows(model, W, sq, z[rows])
        lo, hi = _kink_interval(z, y, h, b, eps)
        # The models' formulas, entry by entry: g = (h+b) F - b,
        # hess_zz = (h+b) p, hess_ztheta = (h+b) dF/dtheta, grad_theta L = 0.
        # A matrix-vector product sums from +0.0, hence the 0.0 + below.
        return ScenarioTerms(
            g=((h + b) * cdf - b)[:, None],
            curvature=(0.0 + (h + b) * pdf * eta)[:, None],
            lo=lo[:, None], hi=hi[:, None],
            generators=(0.0 + (h + b) * slope * eta)[:, None],
            witness=[{"subdiff": [l, u]} for l, u in zip(lo.tolist(), hi.tolist())])


def as_problem(instance):
    """The kernel newsvendor as a generic finite-support problem: one
    scenario per sample, the kernel lower model, the regret as the upper
    loss and the bandwidth interval as the parameter set."""
    scenarios = [Scenario(x=x, y=y, weight=w)
                 for (x, y), w in zip(instance.samples, instance.weights)]
    return NewsvendorProblem(lower=NewsvendorLowerModel(instance),
                             upper=NewsvendorUpperModel(instance), scenarios=scenarios)


def lower_solver(instance):
    """The lower-level solver of as_problem(instance), for the penalized
    verifier: the order quantity of x at the bandwidth theta."""
    def solve(model, theta, x):
        return [solve_newsvendor_rows(instance.model(float(np.atleast_1d(theta)[0])),
                                      [x], instance.h, instance.b)]
    return solve


def newsvendor_certificate(theta, certificate_scenarios):
    """A Certificate from a bandwidth and one mapping per sample.

    Each mapping holds z, eta and zeta, and may hold the penalty weight mu.
    theta and each of these entries must be one finite number
    (finite_number), and each scenario a mapping, otherwise ValueError.
    """
    theta = finite_number(theta, "theta")
    scenarios = []
    for part in object_list(certificate_scenarios, "certificate scenario"):
        z, eta, zeta = (finite_number(part[key], key) for key in ("z", "eta", "zeta"))
        mu = part.get("mu")
        scenarios.append(ScenarioCertificate(
            z=z, eta=eta, zeta=zeta, mu=None if mu is None else finite_number(mu, "mu")))
    return Certificate(theta=theta, scenarios=scenarios)


def verify_newsvendor_system(theta, certificate_scenarios, instance, tol=1e-8):
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
