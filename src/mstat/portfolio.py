"""Mean-variance portfolio selection with a linear return predictor.

The lower level picks weights on the simplex {z >= 0, 1^T z <= 1} minimizing
-r^T z + (lam/2) z^T Sigma z for a predicted return vector r = theta^T x; the
upper level scores predictions by the optimistic decision regret (SPO loss):
the cost of the induced decision under the realized returns minus the best
attainable cost. Since Sigma is positive definite the induced decision is
unique and the loss needs no tie-breaking.

The stationarity system couples a zero weighted sum of x_n eta_n^T with
per-scenario force balance and the simplex coderivative sign conditions; it
is the generic system of mstat.stationarity for as_problem(instance).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .cones import DEFAULT_EPS
from .graph_normals import (
    NormalPair,
    finite_number,
    finite_vector,
    object_list,
    simplex_membership,
)
from .stationarity import (
    _TERM_BOUND,
    Certificate,
    FeasibleSet,
    LowerModel,
    ParameterSet,
    Problem,
    Scenario,
    ScenarioCertificate,
    UpperModel,
)

__all__ = [
    "PortfolioInstance", "LinearPredictor", "SimplexQPSolution",
    "solve_simplex_qp", "spo_loss",
    "fit_least_squares", "empirical_spo_objective", "spo_local_search",
    "PortfolioLowerModel", "SpoUpperModel", "as_problem", "lower_solver",
    "realizable_certificate",
]


@dataclass
class PortfolioInstance:
    """Covariance, risk aversion and the (x_n, r_n) sample with weights.

    Every entry must be finite: sigma symmetric positive definite, lambda
    positive, every x of one length, every r of length d_z and the weights
    nonnegative, one per sample. Anything else raises ValueError.
    """

    sigma: np.ndarray
    risk_aversion: float
    samples: list                      # list of (x, r) pairs
    weights: np.ndarray = None

    def __post_init__(self):
        try:
            self.sigma = np.asarray(self.sigma, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError("sigma must be a square matrix of numbers") from exc
        if self.sigma.ndim != 2 or self.sigma.shape[0] != self.sigma.shape[1]:
            raise ValueError("sigma must be square")
        if not np.all(np.isfinite(self.sigma)):
            raise ValueError("sigma must be finite")
        if np.max(np.abs(self.sigma - self.sigma.T)) > 1e-12:
            raise ValueError("sigma must be symmetric")
        try:
            np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError as exc:
            raise ValueError("sigma must be positive definite") from exc
        self.risk_aversion = finite_number(self.risk_aversion, "lambda")
        if self.risk_aversion <= 0:
            raise ValueError("risk aversion must be positive")
        self.samples = [(finite_vector(x, "x", scalar=True),
                         finite_vector(r, "r", scalar=True))
                        for x, r in self.samples]
        n = len(self.samples)
        if n == 0:
            raise ValueError("at least one sample required")
        if any(len(x) != self.d_x or len(r) != self.d_z for x, r in self.samples):
            raise ValueError("every sample needs %d x and %d r entries"
                             % (self.d_x, self.d_z))
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = finite_vector(self.weights, "weights", scalar=True)
            if len(self.weights) != n:
                raise ValueError("one weight per sample required")
            if np.min(self.weights) < 0:
                raise ValueError("weights must be nonnegative")

    @property
    def d_z(self):
        return self.sigma.shape[0]

    @property
    def d_x(self):
        return len(self.samples[0][0])

    def to_dict(self):
        return {"schema": "mstat/1", "type": "spo_portfolio",
                "sigma": self.sigma.tolist(), "lambda": self.risk_aversion,
                "samples": [{"x": x.tolist(), "r": r.tolist()}
                            for x, r in self.samples],
                "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, d):
        samples = [(s["x"], s["r"]) for s in object_list(d["samples"], "sample")]
        return cls(sigma=d["sigma"], risk_aversion=d["lambda"],
                   samples=samples, weights=d.get("weights"))


@dataclass
class LinearPredictor:
    """Return predictions r_hat = theta^T x with theta of shape (d_x, d_z)."""

    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("non-finite predictor entries")

    def predict(self, x):
        return self.theta.T @ np.atleast_1d(np.asarray(x, dtype=float))


@dataclass
class SimplexQPSolution:
    z: np.ndarray
    bound_multipliers: np.ndarray
    budget_multiplier: float
    active_bounds: tuple
    budget_active: bool
    kkt_residual: float


_PROJECTION_BOUND = 2.0 ** 52


def _kkt_residual(r, sigma, lam, z, lam_bounds, tau):
    stat = -r + lam * (sigma @ z) - lam_bounds + tau
    comp = np.abs(lam_bounds * z)
    gap = abs(tau * (z.sum() - 1.0))
    return float(max(np.max(np.abs(stat)),
                     np.max(comp, initial=0.0), gap,
                     max(0.0, -np.min(lam_bounds, initial=0.0)),
                     max(0.0, -tau),
                     max(0.0, np.max(-z, initial=0.0)),
                     max(0.0, z.sum() - 1.0)))


def solve_simplex_qp(r, sigma, lam, eps=1e-11, max_iter=200):
    """Minimize -r^T z + (lam/2) z^T Sigma z over {z >= 0, 1^T z <= 1}.

    Primal active-set iteration started from the simplex projection of the
    unconstrained optimum Sigma^{-1} r / lam; entering-constraint ties break
    to the lowest index, so the run is deterministic. Finite for positive
    definite Sigma. Predicted returns r with an entry that is not finite or
    exceeds _TERM_BOUND in magnitude raise ValueError, as in the verifier.
    So does an unconstrained optimum with an entry of magnitude 2^52 or more:
    the projection tests u - (u - 1) > 0 at its largest entry u, and beyond
    2^52 the subtraction can drop the 1, leaving no support.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    d = len(r)
    fs = FeasibleSet.simplex(d)
    if not np.max(np.abs(r), initial=0.0) <= _TERM_BOUND:
        raise ValueError("predicted returns are not finite or exceed %g in magnitude"
                         % _TERM_BOUND)
    # The bound is applied before the division, which may overflow.
    scaled = np.linalg.solve(sigma, r)
    if not np.max(np.abs(scaled), initial=0.0) < _PROJECTION_BOUND * lam:
        raise ValueError("the unconstrained optimum Sigma^-1 r / lambda has an entry "
                         "of magnitude 2^52 or more")
    z = fs.project(scaled / lam)

    bounds = set(i for i in range(d) if z[i] <= eps)
    budget = z.sum() >= 1.0 - eps

    for _ in range(max_iter):
        # Equality-constrained step: fix z_i = 0 on working bounds, and the
        # budget row when it is in the working set.
        idx = [i for i in range(d) if i not in bounds]
        k = len(idx)
        tau = 0.0
        z_eq = np.zeros(d)
        if k:
            if budget:
                K = np.zeros((k + 1, k + 1))
                K[:k, :k] = lam * sigma[np.ix_(idx, idx)]
                K[:k, k] = 1.0
                K[k, :k] = 1.0
                rhs = np.concatenate([r[idx], [1.0]])
                sol = np.linalg.solve(K, rhs)
                z_eq[idx] = sol[:k]
                tau = float(sol[k])
            else:
                z_eq[idx] = np.linalg.solve(lam * sigma[np.ix_(idx, idx)], r[idx])
        elif budget:
            # All coordinates pinned to zero with the budget row active is
            # inconsistent (0 != 1); drop the budget row.
            budget = False
            continue

        p = z_eq - z
        if np.max(np.abs(p)) <= eps:
            lam_bounds = np.zeros(d)
            grad = -r + lam * (sigma @ z_eq)
            for i in bounds:
                lam_bounds[i] = grad[i] + tau
            drop_candidates = [(lam_bounds[i], i) for i in sorted(bounds)
                               if lam_bounds[i] < -eps]
            if budget and tau < -eps:
                drop_candidates.append((tau, -1))
            if not drop_candidates:
                z = z_eq
                res = _kkt_residual(r, sigma, lam, z, lam_bounds, max(tau, 0.0))
                return SimplexQPSolution(
                    z=z, bound_multipliers=lam_bounds,
                    budget_multiplier=max(tau, 0.0),
                    active_bounds=tuple(sorted(bounds)),
                    budget_active=bool(budget), kkt_residual=res)
            worst = min(drop_candidates)[1]
            if worst == -1:
                budget = False
            else:
                bounds.discard(worst)
            continue

        # Ratio test against constraints outside the working set. Scanning
        # coordinates in ascending order and replacing only on a strict
        # decrease makes the lowest index win ties.
        alpha = 1.0
        blocker = None
        for i in range(d):
            if i in bounds or p[i] >= -eps:
                continue
            a = z[i] / (-p[i])
            if a < alpha - 1e-15:
                alpha, blocker = a, ("bound", i)
        if not budget:
            sp = p.sum()
            if sp > eps:
                a = (1.0 - z.sum()) / sp
                if a < alpha - 1e-15:
                    alpha, blocker = a, ("budget", -1)
        if blocker is None:
            z = z_eq
            continue
        z = z + max(alpha, 0.0) * p
        if blocker[0] == "bound":
            z[blocker[1]] = 0.0
            bounds.add(blocker[1])
        else:
            budget = True
    raise RuntimeError("active-set iteration did not converge")


class PortfolioLowerModel(LowerModel):
    """c(z, theta, x) = -(theta^T x)^T z + (lam/2) z^T Sigma z, theta flat."""

    def __init__(self, instance):
        self.inst = instance
        self.feasible_set = FeasibleSet.simplex(instance.d_z)

    def _shape(self, theta):
        return np.asarray(theta, dtype=float).reshape(self.inst.d_x, self.inst.d_z)

    def cost(self, z, theta, x):
        z = np.asarray(z, dtype=float)
        r_hat = self._shape(theta).T @ np.asarray(x, dtype=float)
        return float(-r_hat @ z + 0.5 * self.inst.risk_aversion * z @ self.inst.sigma @ z)

    def grad_z(self, z, theta, x):
        r_hat = self._shape(theta).T @ np.asarray(x, dtype=float)
        return -r_hat + self.inst.risk_aversion * (self.inst.sigma @ np.asarray(z, dtype=float))

    def hess_zz(self, z, theta, x):
        return self.inst.risk_aversion * self.inst.sigma

    def hess_ztheta(self, z, theta, x):
        x = np.asarray(x, dtype=float)
        # d(grad_z)_i / d theta_(a,b) = -x_a delta_(i,b), flattened over (a,b)
        d = self.inst.d_z
        return -(x[None, :, None] * np.eye(d)[:, None, :]).reshape(d, -1)

    def grad_theta(self, z, theta, x):
        return -np.outer(np.asarray(x, dtype=float), np.asarray(z, dtype=float)).ravel()


class SpoUpperModel(UpperModel):
    """Decision regret under realized returns; no direct theta dependence."""

    def __init__(self, instance):
        self.inst = instance
        self.theta_set = ParameterSet.free(instance.d_x * instance.d_z)

    def _cost(self, z, r):
        return float(-r @ z + 0.5 * self.inst.risk_aversion * z @ self.inst.sigma @ z)

    def loss(self, z, x, y, theta):
        best = solve_simplex_qp(y, self.inst.sigma, self.inst.risk_aversion).z
        return self._cost(np.asarray(z, dtype=float), np.asarray(y, dtype=float)) \
            - self._cost(best, np.asarray(y, dtype=float))

    def grad_z(self, z, x, y, theta):
        return -np.asarray(y, dtype=float) \
            + self.inst.risk_aversion * (self.inst.sigma @ np.asarray(z, dtype=float))

    def grad_theta(self, z, x, y, theta):
        return np.zeros(self.inst.d_x * self.inst.d_z)


def as_problem(instance):
    """Wrap a PortfolioInstance as a generic finite-support problem."""
    scenarios = [Scenario(x=x, y=r, weight=w)
                 for (x, r), w in zip(instance.samples, instance.weights)]
    return Problem(lower=PortfolioLowerModel(instance),
                   upper=SpoUpperModel(instance), scenarios=scenarios)


def lower_solver(instance):
    """The lower-level solver of as_problem(instance), for the penalized
    verifier: the simplex QP at the returns that theta predicts from x."""
    def solve(model, theta, x):
        r_hat = np.asarray(theta, dtype=float).reshape(
            instance.d_x, instance.d_z).T @ np.asarray(x, dtype=float)
        return [solve_simplex_qp(r_hat, instance.sigma, instance.risk_aversion).z]
    return solve


def spo_loss(predictor, x, r, instance):
    """Regret of the decision induced by the predicted returns; always >= 0."""
    r_hat = predictor.predict(x)
    z_hat = solve_simplex_qp(r_hat, instance.sigma, instance.risk_aversion).z
    z_star = solve_simplex_qp(np.asarray(r, dtype=float), instance.sigma,
                              instance.risk_aversion).z
    lam, sig = instance.risk_aversion, instance.sigma
    r = np.asarray(r, dtype=float)

    def cost(z):
        return float(-r @ z + 0.5 * lam * z @ sig @ z)

    return cost(z_hat) - cost(z_star)


def empirical_spo_objective(predictor, instance):
    """Weighted mean SPO loss over the sample."""
    return float(sum(w * spo_loss(predictor, x, r, instance)
                     for (x, r), w in zip(instance.samples, instance.weights)))


def fit_least_squares(instance, ridge=1e-10):
    """theta minimizing sum ||theta^T x_n - r_n||^2, ridge-stabilized."""
    X = np.vstack([x for x, _ in instance.samples])
    R = np.vstack([r for _, r in instance.samples])
    if X.shape[0] < X.shape[1]:
        raise ValueError("need at least d_x samples")
    gram = X.T @ X + ridge * np.eye(X.shape[1])
    return LinearPredictor(np.linalg.solve(gram, X.T @ R))


def spo_local_search(instance, theta0, steps=50, step_size=0.1, seed=0,
                     return_history=False):
    """Derivative-free coordinate descent on the empirical SPO objective.

    Cycles coordinates in a seeded random order, keeps strictly improving
    moves, halves the step when a full sweep stalls. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    theta = np.atleast_2d(np.asarray(theta0, dtype=float)).copy()
    best = empirical_spo_objective(LinearPredictor(theta), instance)
    history = [best]
    size = step_size
    coords = [(a, b) for a in range(theta.shape[0]) for b in range(theta.shape[1])]
    for _ in range(steps):
        order = rng.permutation(len(coords))
        improved = False
        for k in order:
            a, b = coords[k]
            for delta in (size, -size):
                cand = theta.copy()
                cand[a, b] += delta
                val = empirical_spo_objective(LinearPredictor(cand), instance)
                if val < best - 1e-15:
                    theta, best = cand, val
                    history.append(best)
                    improved = True
                    break
        if not improved:
            size *= 0.5
            if size < 1e-8:
                break
    predictor = LinearPredictor(theta)
    return (predictor, history) if return_history else predictor


def realizable_certificate(instance, theta, eps=DEFAULT_EPS):
    """Certificate with eta = 0 built from exact lower-level solutions.

    zeta_n = r_n - lam Sigma z_n balances the scenario line when the realized
    returns equal the predictions; beta_n is read off the membership witness.
    """
    predictor = LinearPredictor(theta)
    scen_certs = []
    betas = []
    lam, sig = instance.risk_aversion, instance.sigma
    for x, r in instance.samples:
        z = solve_simplex_qp(predictor.predict(x), sig, lam).z
        zeta = r - lam * (sig @ z)
        eta = np.zeros(instance.d_z)
        g = -predictor.predict(x) + lam * (sig @ z)
        res = simplex_membership(z, g, NormalPair(zeta, eta), eps)
        betas.append(res.witness.get("beta"))
        scen_certs.append(ScenarioCertificate(z=z, eta=eta, zeta=zeta))
    cert = Certificate(theta=np.asarray(theta, dtype=float).ravel(),
                       scenarios=scen_certs)
    return cert, betas


def read_samples_csv(path, d_x, d_z):
    """Samples from CSV with header x_1..x_dx, r_1..r_dz."""
    samples = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        want = ["x_%d" % (i + 1) for i in range(d_x)] + \
               ["r_%d" % (j + 1) for j in range(d_z)]
        missing = [c for c in want if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError("missing CSV columns: %s" % ", ".join(missing))
        for row_no, row in enumerate(reader, start=2):
            try:
                x = [float(row["x_%d" % (i + 1)]) for i in range(d_x)]
                r = [float(row["r_%d" % (j + 1)]) for j in range(d_z)]
            except (TypeError, ValueError) as exc:
                raise ValueError("row %d: %s" % (row_no, exc)) from exc
            samples.append((x, r))
    return samples
