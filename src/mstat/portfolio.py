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
    Points,
    _holds_non_number,
    _simplex_rows,
    finite_number,
    finite_weights,
    object_columns,
    read_points,
)
from .stationarity import (
    _TERM_BOUND,
    Certificate,
    FeasibleSet,
    LowerModel,
    ParameterSet,
    Problem,
    ScenarioTerms,
    UpperModel,
    _row_dot,
    _simplex_projection_rows,
)

__all__ = [
    "PortfolioInstance", "LinearPredictor", "solve_simplex_qp", "solve_simplex_qp_rows",
    "spo_loss", "fit_least_squares", "empirical_spo_objective", "spo_local_search",
    "PortfolioLowerModel", "SpoUpperModel", "PortfolioProblem", "as_problem", "lower_solver",
    "realizable_certificate",
]


@dataclass
class PortfolioInstance:
    """Covariance, risk aversion and the (x_n, r_n) sample with weights.

    The sample is given as (x, r) pairs or as Columns, and held as Points:
    x rows and r rows (read_points). Every entry must be finite: sigma
    symmetric positive definite, lambda positive, every x of one length,
    every r of length d_z and the weights nonnegative, one per sample,
    summing to 1 within 1e-12. Anything else raises ValueError.
    """

    sigma: np.ndarray
    risk_aversion: float
    samples: Points
    weights: np.ndarray = None

    def __post_init__(self):
        if _holds_non_number(self.sigma):
            raise ValueError("sigma must be a square matrix of numbers")
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
        self.samples = read_points(self.samples, "sample", "r")
        if self.samples.y.shape[1] != self.d_z:
            raise ValueError("every sample needs %d x and %d r entries" % (self.d_x, self.d_z))
        self.weights = finite_weights(self.weights, len(self.samples.x))

    @property
    def d_z(self):
        return self.sigma.shape[0]

    @property
    def d_x(self):
        return self.samples.x.shape[1]

    def to_dict(self):
        return {"schema": "mstat/1", "type": "spo_portfolio",
                "sigma": self.sigma.tolist(), "lambda": self.risk_aversion,
                "samples": [{"x": x, "r": r} for x, r in zip(self.samples.x.tolist(),
                                                             self.samples.y.tolist())],
                "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, d):
        """The instance of a problem file. weights may be left out; an
        explicit null is a ValueError."""
        if "weights" in d and d["weights"] is None:
            raise ValueError("weights is null; leave the key out instead")
        samples = object_columns(d["samples"], "sample", "r")
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

    def predict_rows(self, X):
        """predict(x) for each row x of X; the stacked matrix-vector product
        gives each row the bits of predict(x)."""
        return np.matmul(self.theta.T, np.asarray(X, dtype=float)[:, :, None])[:, :, 0]


_PROJECTION_BOUND = 2.0 ** 52
_QP_EPS = 1e-11       # zero and convergence tolerance of solve_simplex_qp
_QP_MAX_ITER = 200    # its active-set iteration cap


def _face_rows(R, sigma, lam, bounds, budget):
    """Minimizers z, one row per row r of R, and their budget multipliers tau
    on the face of the working set that the rows share.

    The face fixes z_i = 0 for i in bounds and, when budget, 1^T z = 1 (tau
    is 0 off the row); budget needs a coordinate outside bounds. One stacked
    np.linalg.solve serves all rows: it makes the LAPACK gesv call of a
    one-row solve once per row, so each row gets the bits of its own solve.
    On the budget face the solve's error in 1^T z grows with the returns;
    beyond _QP_EPS, z moves back onto the row along (lam Sigma_II)^{-1} 1 and
    tau shifts so that lam Sigma z + tau 1 stays unchanged.
    """
    g, d = R.shape
    idx = [i for i in range(d) if i not in bounds]
    k = len(idx)
    taus = np.zeros(g)
    Z = np.zeros((g, d))
    if budget:
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = lam * sigma[np.ix_(idx, idx)]
        K[:k, k] = 1.0
        K[k, :k] = 1.0
        rhs = np.concatenate([R[:, idx], np.ones((g, 1))], axis=1)
        sol = np.linalg.solve(K, rhs[:, :, None])[:, :, 0]
        Z[:, idx] = sol[:, :k]
        taus = sol[:, k]
        drift = 1.0 - Z[:, idx].sum(axis=1)
        moved = np.flatnonzero(np.abs(drift) > _QP_EPS)
        if len(moved):
            c = np.linalg.solve(K[:k, :k], np.ones(k))
            Z[np.ix_(moved, idx)] += drift[moved, None] * c / c.sum()
            taus[moved] -= drift[moved] / c.sum()
    elif k:
        Z[:, idx] = np.linalg.solve(lam * sigma[np.ix_(idx, idx)], R[:, idx, None])[:, :, 0]
    return Z, taus


def _face_point(r, sigma, lam, bounds, budget, faces):
    """The face point (z, tau) of one row, cached in faces by working set
    for one solve; the rows solver seeds the cache with the face of its
    guess. No caller writes to the returned z."""
    key = (frozenset(bounds), budget)
    if key not in faces:
        Z, taus = _face_rows(r[None], sigma, lam, bounds, budget)
        faces[key] = Z[0], taus[0]
    return faces[key]


def _multiplier_rows(R, sigma, lam, Z, taus, mask):
    """mu_i = (-r + lam Sigma z)_i + tau where mask holds, 0 elsewhere, row by
    row; the stacked matrix-vector product gives each row the bits of a
    one-row Sigma @ z."""
    grad = -R + lam * np.matmul(sigma, Z[:, :, None])[:, :, 0]
    return np.where(mask, grad + taus[:, None], 0.0)


def _bound_multipliers(r, sigma, lam, z, tau, bounds):
    mask = np.zeros(len(r), dtype=bool)
    mask[list(bounds)] = True
    return _multiplier_rows(r[None], sigma, lam, z[None], np.array([tau]), mask)[0]


_RETURNS_ERROR = ("predicted returns are not finite or exceed %g in magnitude"
                  % _TERM_BOUND)


def _unconstrained_rows(R, sigma, lam):
    """Sigma^{-1} r / lam for each row r of R, the point whose simplex
    projection starts the active-set loop.

    A row whose returns are not finite or exceed _TERM_BOUND raises
    ValueError, and so does one whose Sigma^{-1} r / lam has an entry of
    magnitude 2^52 or more: the projection tests u - (u - 1) > 0 at the
    largest entry u, and beyond 2^52 the subtraction can drop the 1, leaving
    no support. The first failing row names the error, as in a row-by-row
    solve; the bound is applied before the division, which may overflow.
    """
    big = ~(np.max(np.abs(R), axis=1, initial=0.0) <= _TERM_BOUND)
    if big[0]:
        raise ValueError(_RETURNS_ERROR)
    scaled = np.linalg.solve(sigma, np.where(big[:, None], 0.0, R)[:, :, None])[:, :, 0]
    far = ~(np.max(np.abs(scaled), axis=1, initial=0.0) < _PROJECTION_BOUND * lam)
    bad = np.flatnonzero(big | far)
    if len(bad):
        raise ValueError(_RETURNS_ERROR if big[bad[0]] else
                         "the unconstrained optimum Sigma^-1 r / lambda has an entry "
                         "of magnitude 2^52 or more")
    return scaled / lam


def _margins(Z, mu, taus, mask, budget):
    """min([z_i off the working bounds] + [mu_i on them] + [tau on the budget
    row, else 1 - 1^T z]) per row. A row holding a NaN takes the Python min
    over that list, in that order, as a one-row solve does."""
    last = taus if budget else 1.0 - Z.sum(axis=1)
    margin = np.minimum(np.min(np.where(mask, mu, Z), axis=1), last)
    for j in np.flatnonzero(np.isnan(margin)):
        margin[j] = min(Z[j][~mask].tolist() + mu[j][mask].tolist() + [last[j]])
    return margin


def solve_simplex_qp_rows(R, sigma, lam, start=None):
    """solve_simplex_qp for every row r of R (k by d), at one Sigma and
    lambda: a (k, d) array whose row i is the solution of row i, to the bit
    the one a row-by-row solve gives.

    One stacked np.linalg.solve for Sigma^{-1} R checks every row's returns
    first (_unconstrained_rows). Each row then guesses its optimal working
    set once, from its point in start (one point per row, k by d, a guess of
    the solutions) or, without a start, from the simplex projection of its
    row of U = Sigma^{-1} R / lambda: the bounds where the point has z_i <=
    _QP_EPS, and the budget row where 1^T z >= 1 - _QP_EPS with a coordinate
    left free. The rows that share a guess share one stacked face solve. A
    face point with z_i > _QP_EPS off the working set, mu_i > _QP_EPS on it
    and tau > _QP_EPS on the budget row (1^T z < 1 - _QP_EPS off it)
    satisfies KKT with strict complementarity, so it is the unique optimum
    and its working set is the one the active-set loop ends on; the row
    returns it. Its bytes are the face solve's at that working set and (r,
    Sigma, lambda), so a start changes which face is tried but no returned
    byte, and no error. Every other row runs the loop alone
    (_active_set_loop) from its projected start, with its guess's face
    already solved; with a start, only those rows are projected.
    """
    R = np.asarray(R, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not len(R):
        return np.zeros(R.shape)
    U = _unconstrained_rows(R, sigma, lam)
    k, d = R.shape
    if start is None:
        guess = _simplex_projection_rows(U)
    else:
        guess = np.asarray(start, dtype=float)
        if guess.shape != R.shape:
            raise ValueError("start must hold one point of %d entries per row" % d)
    bounds = guess <= _QP_EPS
    budget = (guess.sum(axis=1) >= 1.0 - _QP_EPS) & (bounds.sum(axis=1) < d)
    groups = {}
    for i in range(k):
        groups.setdefault((bounds[i].tobytes(), bool(budget[i])), []).append(i)
    out = np.zeros((k, d))
    loop = []
    for (_, on), rows in groups.items():
        mask = bounds[rows[0]]
        held = frozenset(np.flatnonzero(mask).tolist())
        Z, taus = _face_rows(R[rows], sigma, lam, held, on)
        mu = _multiplier_rows(R[rows], sigma, lam, Z, taus, mask)
        done = _margins(Z, mu, taus, mask, on) > _QP_EPS
        out[np.array(rows)[done]] = Z[done]
        loop += [(i, {(held, on): (Z[j], taus[j])}) for j, i in enumerate(rows) if not done[j]]
    if loop:
        rows = [i for i, _ in loop]
        starts = guess[rows] if start is None else _simplex_projection_rows(U[rows])
        for (i, faces), z in zip(loop, starts):
            out[i] = _active_set_loop(R[i], sigma, lam, z, faces)
    return out


def solve_simplex_qp(r, sigma, lam):
    """Minimize -r^T z + (lam/2) z^T Sigma z over {z >= 0, 1^T z <= 1}.

    Starts from the simplex projection of the unconstrained optimum
    Sigma^{-1} r / lam. The face of the projection's working set is solved
    first; when KKT with strict margins certifies its point, that point is
    returned. Otherwise the primal active-set iteration (Nocedal and Wright,
    Numerical Optimization, ch. 16) runs from the projection; entering-
    constraint ties break to the lowest index, so the run is deterministic.
    Finite for positive definite Sigma. The returned solution depends only
    on the final working set and (r, Sigma, lam), and a certified guess is
    the working set the iteration ends on, so both routes give the same
    bytes. This is the one-row case of solve_simplex_qp_rows without a
    start, which describes the guess, and returns the point z.
    Predicted returns r with an entry that is not finite or exceeds
    _TERM_BOUND in magnitude raise ValueError, as in the verifier, and so
    does an unconstrained optimum with an entry of magnitude 2^52 or more
    (see _unconstrained_rows).
    """
    return solve_simplex_qp_rows(np.atleast_1d(np.asarray(r, dtype=float))[None],
                                 sigma, lam)[0]


def _active_set_loop(r, sigma, lam, z, faces):
    """The primal active-set iteration of solve_simplex_qp from the
    projected start z, with faces the face cache of _face_point; returns the
    face point of the working set it ends on."""
    eps = _QP_EPS
    d = len(r)
    bounds = set(i for i in range(d) if z[i] <= eps)
    budget = z.sum() >= 1.0 - eps

    for _ in range(_QP_MAX_ITER):
        if budget and len(bounds) == d:
            # All coordinates pinned to zero with the budget row active is
            # inconsistent (0 != 1); drop the budget row.
            budget = False
            continue
        z_eq, tau = _face_point(r, sigma, lam, bounds, budget, faces)

        p = z_eq - z
        if np.max(np.abs(p)) <= eps:
            lam_bounds = _bound_multipliers(r, sigma, lam, z_eq, tau, bounds)
            drop_candidates = [(lam_bounds[i], i) for i in sorted(bounds)
                               if lam_bounds[i] < -eps]
            if budget and tau < -eps:
                drop_candidates.append((tau, -1))
            if not drop_candidates:
                return z_eq
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
        r_hat = self._shape(theta).T @ np.asarray(x, dtype=float)
        return _cost(np.asarray(z, dtype=float), r_hat, self.inst)

    def cost_rows(self, Z, theta, X):
        """cost(z, theta, x) for each pair of rows z of Z and x of X, each
        entry the float of cost: the stacked products run cost's BLAS calls
        row by row, in cost's order, (-r) . z + ((0.5 lam) z)^T Sigma . z."""
        Z = np.asarray(Z, dtype=float)
        R = np.matmul(self._shape(theta).T, np.asarray(X, dtype=float)[:, :, None])[:, :, 0]
        pull = np.matmul(((0.5 * self.inst.risk_aversion) * Z)[:, None, :], self.inst.sigma)
        return _row_dot(-R, Z) + _row_dot(pull[:, 0, :], Z)

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
    """Gradients of the decision regret under realized returns (spo_loss);
    no direct theta dependence."""

    def __init__(self, instance):
        self.inst = instance
        self.theta_set = ParameterSet.free(instance.d_x * instance.d_z)

    def grad_z(self, z, x, y, theta):
        return -np.asarray(y, dtype=float) \
            + self.inst.risk_aversion * (self.inst.sigma @ np.asarray(z, dtype=float))

    def grad_theta(self, z, x, y, theta):
        return np.zeros(self.inst.d_x * self.inst.d_z)


class PortfolioProblem(Problem):
    """as_problem's Problem, whose scenario rows are the samples' x and r.
    The scenario terms of all samples come from stacked matrix-vector
    products, as in the newsvendor's."""

    def __init__(self, instance):
        self.inst = instance
        super().__init__(PortfolioLowerModel(instance), SpoUpperModel(instance),
                         instance.samples.x, instance.samples.y, instance.weights)

    def scenario_terms(self, theta, certificate):
        # The models' formulas, row by row: grad_z c = -theta^T x + lam Sigma z,
        # hess_zz = lam Sigma, grad_z L = -r + lam Sigma z, grad_theta L = 0 and
        # (hess_ztheta^T eta)_(a,b) = -x_a eta_b. Each stacked product makes the
        # BLAS call of the one-row product, so each row gets its bits; the
        # generator's one non-zero term is summed from +0.0, hence the 0.0 -.
        inst = self.inst
        lam, sigma = inst.risk_aversion, inst.sigma
        shaped = np.asarray(theta, dtype=float).reshape(inst.d_x, inst.d_z)
        Z, E, X = certificate.z, certificate.eta, self.x
        pull = lam * np.matmul(sigma, Z[:, :, None])[:, :, 0]
        up = -self.y + pull
        return ScenarioTerms(
            g=-np.matmul(shaped.T, X[:, :, None])[:, :, 0] + pull,
            curvature=np.matmul((lam * sigma).T, E[:, :, None])[:, :, 0],
            lo=up, hi=up,
            generators=(0.0 - X[:, :, None] * E[:, None, :]).reshape(len(X), -1))


def as_problem(instance):
    """Wrap a PortfolioInstance as a generic finite-support problem: one
    scenario per sample, with row n of x and y its x_n and r_n."""
    return PortfolioProblem(instance)


def lower_solver(instance):
    """The lower-level solver of as_problem(instance), for the penalized
    verifier. It answers rows (stationarity.value_function): each row's one
    candidate is the simplex QP at the returns that theta predicts from the
    row's x, and all rows are one solve_simplex_qp_rows call, started at
    the rows of Z, which change no answer."""
    def solve(model, theta, X, Z):
        R = LinearPredictor(theta.reshape(instance.d_x, instance.d_z)).predict_rows(X)
        return [[z] for z in solve_simplex_qp_rows(R, instance.sigma,
                                                   instance.risk_aversion, Z)]
    return solve


def _cost(z, r, instance):
    """-r^T z + (lam/2) z^T Sigma z, the lower-level cost at the returns r."""
    return float(-r @ z + 0.5 * instance.risk_aversion * z @ instance.sigma @ z)


def spo_loss(predictor, x, r, instance):
    """Regret of the decision induced by the predicted returns; always >= 0."""
    r = np.asarray(r, dtype=float)
    lam, sig = instance.risk_aversion, instance.sigma
    z_hat = solve_simplex_qp(predictor.predict(x), sig, lam)
    return _cost(z_hat, r, instance) - _cost(solve_simplex_qp(r, sig, lam), r, instance)


def empirical_spo_objective(predictor, instance):
    """Weighted mean SPO loss over the sample."""
    return _spo_objective(predictor, instance, _realized_costs(instance))[0]


def _realized_costs(instance):
    """The realized-return costs _cost(z*(r_n), r_n), one per sample, from
    one solve_simplex_qp_rows call; they do not depend on theta."""
    R = instance.samples.y
    return [_cost(z, r, instance) for z, r in zip(
        solve_simplex_qp_rows(R, instance.sigma, instance.risk_aversion), R)]


def _spo_objective(predictor, instance, realized, start=None):
    """empirical_spo_objective given the realized-return costs
    (_realized_costs), and the decisions it read, solving each sample's
    predicted decision in one solve_simplex_qp_rows call from start (a guess
    of the decisions, which changes no byte). Its rows are solved
    independently, so each decision has the bits of a one-row solve."""
    preds = predictor.predict_rows(instance.samples.x)
    solved = solve_simplex_qp_rows(preds, instance.sigma, instance.risk_aversion, start)
    losses = [_cost(z, r, instance) - best
              for z, r, best in zip(solved, instance.samples.y, realized)]
    return float(sum(w * loss for loss, w in zip(losses, instance.weights))), solved


def fit_least_squares(instance, ridge=1e-10):
    """theta minimizing sum ||theta^T x_n - r_n||^2, ridge-stabilized."""
    X, R = instance.samples.x, instance.samples.y
    if X.shape[0] < X.shape[1]:
        raise ValueError("need at least d_x samples")
    gram = X.T @ X + ridge * np.eye(X.shape[1])
    return LinearPredictor(np.linalg.solve(gram, X.T @ R))


def spo_local_search(instance, theta0, steps=50, step_size=0.1, seed=0,
                     return_history=False):
    """Derivative-free coordinate descent on the empirical SPO objective.

    Cycles coordinates in a seeded random order, keeps strictly improving
    moves, halves the step when a full sweep stalls. Deterministic per seed.
    Each candidate's QPs start from the decisions of the accepted theta.
    """
    rng = np.random.default_rng(seed)
    theta = np.atleast_2d(np.asarray(theta0, dtype=float)).copy()
    realized = _realized_costs(instance)
    best, decisions = _spo_objective(LinearPredictor(theta), instance, realized)
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
                val, solved = _spo_objective(LinearPredictor(cand), instance, realized,
                                             decisions)
                if val < best - 1e-15:
                    theta, best, decisions = cand, val, solved
                    history.append(best)
                    improved = True
                    break
        if not improved:
            size *= 0.5
            if size < 1e-8:
                break
    predictor = LinearPredictor(theta)
    return (predictor, history) if return_history else predictor


def realizable_certificate(instance, theta):
    """Certificate with eta = 0 built from exact lower-level solutions.

    zeta_n = r_n - lam Sigma z_n balances the scenario line when the realized
    returns equal the predictions; beta_n is read off the simplex membership
    witness of the point z_n, g_n = lam Sigma z_n - theta^T x_n and the pair
    (zeta_n, 0), None where it is null. One _simplex_rows pass serves all
    samples, and the stacked products give each row the bits of its one-row
    Sigma @ z.
    """
    preds = LinearPredictor(theta).predict_rows(instance.samples.x)
    lam, sig = instance.risk_aversion, instance.sigma
    Z = solve_simplex_qp_rows(preds, sig, lam)
    pull = lam * np.matmul(sig, Z[:, :, None])[:, :, 0]
    zeta = instance.samples.y - pull
    betas = _simplex_rows(Z, -preds + pull, zeta, np.zeros(Z.shape), DEFAULT_EPS).values("beta")
    cert = Certificate.from_rows(np.asarray(theta, dtype=float).ravel(), Z, np.zeros(Z.shape),
                                 zeta, np.ones(len(Z), dtype=bool))
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
