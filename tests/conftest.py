"""Shared builders, independent oracles, and the models and solvers that
only the test suite uses."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import linprog
from scipy.special import ndtr

from mstat.cones import (DEFAULT_EPS, MAX_ACTIVE_ROWS, STRICT_EPS, CombinatorialLimitError,
                         Polyhedron, active_rows, active_set, cone_coefficients, cone_distance,
                         multiplier_within_support)
from mstat import graph_normals as GN
from mstat import lp as LP
from mstat.graph_normals import (_NOT_NORMAL, GraphPoint, Membership, NormalPair,
                                 NotGraphPointError, _empty, _graph_point, orthant_membership,
                                 polyhedron_membership, simplex_membership)
from mstat.lp import LPLimitError, LPUnbounded, feasibility_threshold
from mstat.newsvendor import empirical_regret
from mstat.portfolio import _QP_EPS, _QP_MAX_ITER
from mstat.stationarity import (Certificate, FeasibleSet, LowerModel, _m_residual,
                                _probe_and_gap, _upper_generator)

# `pytest --hypothesis-profile=metamorphic tests/test_metamorphic.py` runs the
# metamorphic relations, which take Hypothesis' default count, on more examples.
settings.register_profile("metamorphic", max_examples=1000, deadline=None)


def random_polyhedral_graph_point(rng, d_max=3, m_max=5, entry=2):
    """Random integer system A z <= b with a valid graph point (z, -g).

    Rows are made active by construction and a nonnegative integer multiplier
    supported on a random subset of them defines g, so -g lies in the normal
    cone at z by design. Degenerate row combinations are allowed on purpose.
    """
    while True:
        d = int(rng.integers(1, d_max + 1))
        m = int(rng.integers(1, m_max + 1))
        A = rng.integers(-entry, entry + 1, (m, d)).astype(float)
        if np.any(np.all(A == 0.0, axis=1)):
            continue
        z = rng.integers(-entry, entry + 1, d).astype(float)
        active = rng.random(m) < 0.6
        b = A @ z + np.where(active, 0.0, rng.integers(1, entry + 1, m)).astype(float)
        lam = np.where(active, rng.integers(0, entry + 1, m), 0).astype(float)
        g = -(A.T @ lam)
        return Polyhedron(A, b), z, g


def random_simplex_graph_point(rng, d):
    """Random (z, g) with -g in the normal cone of {z >= 0, 1^T z <= 1} at z.

    Builds z exactly on a face pattern along with exact multipliers, keeping
    clear margins so tolerance classification is unambiguous.
    """
    kind = int(rng.integers(0, 3))
    if kind == 0:
        z = rng.uniform(0.1, 0.5, d)
        z *= rng.uniform(0.3, 0.9) / z.sum()
        return z, np.zeros(d)
    if kind == 1:
        z = rng.uniform(0.1, 0.4, d)
        n_zero = int(rng.integers(1, d + 1))
        idx = rng.choice(d, n_zero, replace=False)
        z[idx] = 0.0
        if z.sum() > 0.9:
            z *= 0.5 / z.sum()
        g = np.zeros(d)
        g[idx] = rng.choice([0.0, 0.5, 1.5], n_zero)
        return z, g
    z = rng.uniform(0.1, 1.0, d)
    n_zero = int(rng.integers(0, d))
    idx = rng.choice(d, n_zero, replace=False) if n_zero else np.array([], dtype=int)
    z[idx] = 0.0
    z /= z.sum()
    tau = float(rng.choice([0.0, 0.8]))
    lam = np.zeros(d)
    lam[idx] = rng.choice([0.0, 1.2], n_zero)
    return z, lam - tau


def projected_gradient_qp(r, sigma, lam, max_iter=100000, tol=1e-13):
    """Independent projected-gradient solver for the simplex-constrained QP."""
    d = len(r)
    fs = FeasibleSet.simplex(d)
    step = 1.0 / (lam * float(np.max(np.linalg.eigvalsh(sigma))))
    z = fs.project(np.zeros(d))
    for _ in range(max_iter):
        z_new = fs.project(z - step * (-r + lam * (sigma @ z)))
        if np.max(np.abs(z_new - z)) <= tol:
            return z_new
        z = z_new
    return z


def _kkt_residual(r, sigma, lam, z, lam_bounds, tau):
    """The KKT residual of one QP point z with bound multipliers lam_bounds
    and budget multiplier tau."""
    stat = -r + lam * (sigma @ z) - lam_bounds + tau
    comp = np.abs(lam_bounds * z)
    gap = abs(tau * (z.sum() - 1.0))
    return float(max(np.max(np.abs(stat)),
                     np.max(comp, initial=0.0), gap,
                     max(0.0, -np.min(lam_bounds, initial=0.0)),
                     max(0.0, -tau),
                     max(0.0, np.max(-z, initial=0.0)),
                     max(0.0, z.sum() - 1.0)))


def qp_point_kkt(r, sigma, lam, z):
    """_kkt_residual of a QP point z with the multipliers read off z: the
    bounds with z_i <= _QP_EPS hold, and so does the budget row where
    1^T z >= 1 - _QP_EPS with some z_i above _QP_EPS; tau is minus the mean
    of g = -r + lam Sigma z over those z_i (0 off the budget row) and
    mu_i = g_i + tau on the bounds."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    g = -r + lam * (sigma @ z)
    free = z > _QP_EPS
    tau = -float(np.mean(g[free])) if z.sum() >= 1.0 - _QP_EPS and free.any() else 0.0
    return _kkt_residual(r, sigma, lam, z, np.where(free, 0.0, g + tau), tau)


def _oracle_face(r, sigma, lam, bounds, budget):
    """The minimizer z and budget multiplier tau on the face of a working
    set, as simplex_qp_loop solves it."""
    d = len(r)
    idx = [i for i in range(d) if i not in bounds]
    k = len(idx)
    z, tau = np.zeros(d), 0.0
    if budget:
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = lam * sigma[np.ix_(idx, idx)]
        K[:k, k] = 1.0
        K[k, :k] = 1.0
        sol = np.linalg.solve(K, np.concatenate([r[idx], [1.0]]))
        z[idx] = sol[:k]
        tau = float(sol[k])
        drift = 1.0 - z[idx].sum()
        if abs(drift) > _QP_EPS:
            c = np.linalg.solve(K[:k, :k], np.ones(k))
            z[idx] += drift * c / c.sum()
            tau -= drift / c.sum()
    elif k:
        z[idx] = np.linalg.solve(lam * sigma[np.ix_(idx, idx)], r[idx])
    return z, tau


def _oracle_margin(r, sigma, lam, bounds, budget):
    """The smallest margin of the face point z and tau of (bounds, budget),
    min([z_i off bounds] + [mu_i on them] + [tau on the budget row, else
    1 - 1^T z]), with mu the bound multipliers."""
    d = len(r)
    z, tau = _oracle_face(r, sigma, lam, bounds, budget)
    grad = -r + lam * (sigma @ z)
    return min([z[i] for i in range(d) if i not in bounds] + [grad[i] + tau for i in bounds]
               + [tau if budget else 1.0 - z.sum()])


def start_working_set(start):
    """The working set a start point gives the guess: the bounds where
    start_i <= _QP_EPS, and the budget row where 1^T start >= 1 - _QP_EPS
    with a coordinate left free."""
    bounds = frozenset(i for i in range(len(start)) if start[i] <= _QP_EPS)
    return bounds, bool(start.sum() >= 1.0 - _QP_EPS and len(bounds) < len(start))


def guess_certifies(r, sigma, lam, start):
    """Whether the face of start's working set (start_working_set) certifies
    the QP of r with every margin above _QP_EPS, replayed one row at a
    time."""
    return _oracle_margin(r, sigma, lam, *start_working_set(start)) > _QP_EPS


def projected_start(r, sigma, lam):
    """The simplex projection of Sigma^-1 r / lam, where the QP starts."""
    return FeasibleSet.simplex(len(r)).project(np.linalg.solve(sigma, r) / lam)


@dataclass
class LoopSolution:
    """simplex_qp_loop's answer: the point, its budget multiplier and the
    working set it ends on."""
    z: np.ndarray
    budget_multiplier: float
    active_bounds: tuple
    budget_active: bool


def simplex_qp_loop(r, sigma, lam):
    """solve_simplex_qp without its working-set guess: the primal active-set
    loop from the projected start, kept verbatim as the reference the
    guessed route must match bit for bit and in np.linalg.solve calls."""
    eps = _QP_EPS
    r = np.atleast_1d(np.asarray(r, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    d = len(r)
    fs = FeasibleSet.simplex(d)
    z = fs.project(np.linalg.solve(sigma, r) / lam)

    bounds = set(i for i in range(d) if z[i] <= eps)
    budget = z.sum() >= 1.0 - eps

    for _ in range(_QP_MAX_ITER):
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
                drift = 1.0 - z_eq[idx].sum()
                if abs(drift) > eps:
                    c = np.linalg.solve(K[:k, :k], np.ones(k))
                    z_eq[idx] += drift * c / c.sum()
                    tau -= drift / c.sum()
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
                return LoopSolution(z=z_eq, budget_multiplier=max(tau, 0.0),
                                    active_bounds=tuple(sorted(bounds)),
                                    budget_active=bool(budget))
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


# ---------------------------------------------------------------------------
# kernel newsvendor: the per-query and per-held-out-sample reference

def nv_oracle_sq_distances(C, X):
    """Squared distances (k, M) of the query rows X (k, d) to the center rows
    C (M, d), d >= 1, each adding its d squared differences in coordinate
    order, as one running sum over the coordinate axis."""
    return np.add.accumulate(np.square(C[None] - X[:, None]), axis=2)[..., -1]


def nv_oracle_weights(centers_x, x, theta, drop=None):
    """Nadaraya-Watson weights of one query, from its own distance vector;
    center drop, when given, gets the logit -inf and so the weight 0."""
    sq = np.sum(np.square(centers_x - x), axis=1)
    logits = -sq / (2.0 * theta ** 2)
    if drop is not None:
        logits[drop] = -np.inf
    logits -= np.max(logits)
    w = np.exp(logits)
    return w / w.sum()


def nv_oracle_cdf(centers_x, centers_y, theta, y, x, drop=None):
    w = nv_oracle_weights(centers_x, x, theta, drop)
    return float(w @ ndtr((y - centers_y) / theta))


def nv_oracle_pdf(centers_x, centers_y, theta, y, x, drop=None):
    w = nv_oracle_weights(centers_x, x, theta, drop)
    u = (y - centers_y) / theta
    return float(w @ (np.exp(-0.5 * np.square(u)) / np.sqrt(2.0 * np.pi)) / theta)


def nv_oracle_grad_theta_cdf(centers_x, centers_y, theta, y, x):
    w = nv_oracle_weights(centers_x, x, theta)
    sq = np.sum(np.square(centers_x - x), axis=1)
    psi = -centers_x.shape[1] / theta + sq / theta ** 3
    u = (y - centers_y) / theta
    phi = np.exp(-0.5 * np.square(u)) / np.sqrt(2.0 * np.pi)
    return float(w * (psi - w @ psi) @ ndtr(u) - w @ (u * phi / theta))


def nv_oracle_solve(centers_x, centers_y, theta, x, h, b, tol=1e-12, max_expand=60,
                    drop=None):
    """One query's order quantity: a scalar bracket, 60 bisection steps and
    at most 5 Newton steps, each CDF evaluation rebuilding the weights. With
    drop, the query is solved with that center's weight 0, as a leave-one-out
    row is."""
    def cdf(y):
        return nv_oracle_cdf(centers_x, centers_y, theta, y, x, drop)

    q = b / (h + b)
    if cdf(0.0) >= q:
        return 0.0
    lo = 0.0
    hi = float(np.max(centers_y) + 20.0 * theta)
    for _ in range(max_expand):
        if cdf(hi) > q:
            break
        hi += 10.0 * theta
    else:
        raise RuntimeError("failed to bracket the quantile")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(5):
        f = cdf(z) - q
        p = nv_oracle_pdf(centers_x, centers_y, theta, z, x, drop)
        if p <= 0.0 or abs(f) <= tol:
            break
        z -= f / p
    return float(max(z, 0.0))


def nv_oracle_regret(instance, theta):
    """Weighted regret of bandwidth theta; with as many centers as samples
    (and more than one), each held-out sample gets the centers without its
    own, rebuilt from scratch."""
    cx, cy = instance.centers.x, instance.centers.y
    n = len(instance.samples.y)
    loo = len(cy) == n and n > 1
    total = 0.0
    for i, (x, y) in enumerate(zip(instance.samples.x, instance.samples.y.tolist())):
        keep = np.arange(len(cy)) != i if loo else np.ones(len(cy), dtype=bool)
        z = nv_oracle_solve(cx[keep], cy[keep], theta, x, instance.h, instance.b)
        total += instance.weights[i] * (instance.h * max(z - y, 0.0)
                                        + instance.b * max(y - z, 0.0))
    return total


def nv_oracle_grid_search(instance, grid):
    """The bandwidth search as a scan of exact totals: every grid point's
    empirical_regret, leave-one-out with as many centers as samples (and more
    than one), and a total below the best so far by more than 1e-15 takes
    its place, so ties go to the lowest index."""
    n = len(instance.samples.y)
    loo = len(instance.centers.y) == n and n > 1
    best_theta, best_val = None, None
    for theta in grid:
        total = empirical_regret(instance, instance.model(theta), leave_one_out=loo)
        if best_val is None or total < best_val - 1e-15:
            best_theta, best_val = theta, total
    return best_theta


# ---------------------------------------------------------------------------
# orthant coderivative: the per-coordinate reference

def orthant_oracle(z, g, zeta, eta, eps=DEFAULT_EPS, strict_eps=STRICT_EPS):
    """(member, verdict, witness) of the orthant membership test for one
    point, scanned coordinate by coordinate in plain Python. The three
    graph-point checks run in turn over all coordinates, so the first check
    that fails anywhere names the reason."""
    z, g, zeta, eta = (np.asarray(v, dtype=float).tolist() for v in (z, g, zeta, eta))
    for reason, bad in (("z has negative coordinates", [zi < -eps for zi in z]),
                        ("g has negative coordinates", [gi < -eps for gi in g]),
                        ("z and g are not complementary",
                         [abs(zi * gi) > eps for zi, gi in zip(z, g)])):
        if any(bad):
            return False, "empty_coderivative", {"reason": reason}
    witness = {"L": [], "I_plus": [], "I_zero": [], "boundary_ambiguous": []}
    member = True
    for i, (zi, gi, ci, ei) in enumerate(zip(z, g, zeta, eta)):
        if 0.0 < abs(ci) < strict_eps:
            witness["boundary_ambiguous"].append(i)
        if zi > eps:
            witness["L"].append(i)
            member &= abs(ci) <= eps
        elif gi > eps:
            witness["I_plus"].append(i)
            member &= abs(ei) <= eps
        else:
            witness["I_zero"].append(i)
            both_neg = ci <= -strict_eps and ei <= -strict_eps
            member &= both_neg or abs(ci) <= eps or abs(ei) <= eps
    return member, "member" if member else "not_member", witness


# ---------------------------------------------------------------------------
# NNAMCQ: the regime sweep, the slow path of stationarity.nnamcq_check

def _regime_has_nonzero_eta(A, H, eq_rows, ineq_rows):
    """Nonzero eta with A_eq eta = 0, A_ineq eta >= 0, -H^T eta in the regime cone.

    Normalizes by pinning one coordinate of eta to +-1 inside the unit box;
    every nonzero solution of the homogeneous regime scales into that slab.
    """
    d = A.shape[1]
    eq = sorted(eq_rows)
    ineq = sorted(ineq_rows)
    n_mu, n_nu = len(ineq), len(eq)
    n = d + n_mu + n_nu
    nonneg = np.zeros(n, dtype=bool)
    nonneg[d:d + n_mu] = True

    link = np.zeros((d, n))
    link[:, :d] = H.T
    if n_mu:
        link[:, d:d + n_mu] = A[ineq].T
    if n_nu:
        link[:, d + n_mu:] = A[eq].T
    eq_blocks = [link]
    eq_rhs = [np.zeros(d)]
    if n_nu:
        blk = np.zeros((n_nu, n))
        blk[:, :d] = A[eq]
        eq_blocks.append(blk)
        eq_rhs.append(np.zeros(n_nu))

    ub_blocks = []
    ub_rhs = []
    if n_mu:
        blk = np.zeros((n_mu, n))
        blk[:, :d] = -A[ineq]
        ub_blocks.append(blk)
        ub_rhs.append(np.zeros(n_mu))
    box = np.zeros((2 * d, n))
    box[:d, :d] = np.eye(d)
    box[d:, :d] = -np.eye(d)
    ub_blocks.append(box)
    ub_rhs.append(np.ones(2 * d))

    for k in range(d):
        for s in (1.0, -1.0):
            pin = np.zeros((1, n))
            pin[0, k] = s
            A_eq = np.vstack(eq_blocks + [pin])
            b_eq = np.concatenate(eq_rhs + [np.ones(1)])
            sol = linprog(np.zeros(n), A_ub=np.vstack(ub_blocks),
                          b_ub=np.concatenate(ub_rhs), A_eq=A_eq, b_eq=b_eq,
                          bounds=[(0, None) if f else (None, None) for f in nonneg],
                          method="highs")
            if sol.status == 0:
                return sol.x[:d]
    return None


def nnamcq_oracle(model, theta, x, z, eps=DEFAULT_EPS):
    """No-nonzero-abnormal-multiplier constraint qualification at z.

    True when eta = 0 is the only solution of the homogeneous coderivative
    system 0 in hess_zz^T eta + D*N_Z(z, -grad_z c)(eta), decided by sweeping
    the finitely many linear regimes of the membership formula. The sweep is
    exponential and refused beyond MAX_ACTIVE_ROWS active rows. The graph
    point is checked by the LP of cone_coefficients.
    """
    z = np.asarray(z, dtype=float)
    gp = GraphPoint(z, model.grad_z(z, theta, x))
    g = gp.g
    H = np.asarray(model.hess_zz(z, theta, x), dtype=float)
    poly = model.feasible_set.as_polyhedron()
    I = _graph_point(poly, gp.z_entries, eps)[1]
    if cone_coefficients(-g, poly.A[list(I)], eps=eps) is None:
        raise NotGraphPointError(_NOT_NORMAL)
    if len(I) > MAX_ACTIVE_ROWS:
        raise CombinatorialLimitError("%d active rows exceeds cap %d"
                                      % (len(I), MAX_ACTIVE_ROWS))
    seen = set()
    for size_e in range(len(I) + 1):
        for eq in combinations(I, size_e):
            if multiplier_within_support(poly, -g, eq, eps) is None:
                continue
            rest = [i for i in I if i not in eq]
            for size_g in range(len(rest) + 1):
                for ineq in combinations(rest, size_g):
                    key = (frozenset(eq), frozenset(ineq))
                    if key in seen:
                        continue
                    seen.add(key)
                    if _regime_has_nonzero_eta(poly.A, H, eq, ineq) is not None:
                        return False
    return True


def assert_nnls_optimal(A, b, x, tol=1e-9):
    """KKT conditions of min ||A x - b|| over x >= 0, independent of any solver."""
    w = A.T @ (b - A @ x)
    assert np.min(x, initial=0.0) >= 0.0
    assert np.max(w, initial=0.0) <= tol
    assert np.max(np.abs(w[x > 0]), initial=0.0) <= tol


def nnls_oracle(A, b):
    """argmin_{x >= 0} ||A x - b|| by the Lawson-Hanson active-set method.

    The plain loop of `mstat.lp.nnls`, without its entering-column guard:
    the bit-for-bit reference of the tests. Where the guard ends a run, this
    loop raises instead.

    Columns enter the passive set one at a time, the one with the largest
    positive gradient A^T (b - A x) first (lowest index on ties); an inner
    loop steps back along the segment to the unconstrained least-squares
    point and drops columns that hit zero. A column enters only when its
    gradient clears a rounding-noise tolerance; a column in the span of the
    passive ones has zero gradient against the least-squares residual, so the
    passive columns stay independent when A has dependent columns. The answer
    depends only on (A, b). Raises LPLimitError after 3n + 10 least-squares
    solves instead of looping.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * max(m, n) * np.finfo(float).eps \
        * np.abs(A).sum(axis=0).max(initial=0.0) * np.linalg.norm(b)
    solves = 0
    while True:
        w = A.T @ (b - A @ x)
        w[passive] = -np.inf
        if n == 0 or np.max(w) <= tol:
            return x
        passive[int(np.argmax(w))] = True
        while True:
            solves += 1
            if solves > 3 * n + 10:
                raise LPLimitError("NNLS iteration cap reached")
            B = A[:, passive]
            s_P = np.linalg.lstsq(B, b, rcond=None)[0]
            s_P += np.linalg.lstsq(B, b - B @ s_P, rcond=None)[0]  # one refinement step
            s = np.zeros(n)
            s[passive] = s_P
            if np.min(s[passive]) > 0.0:
                x = s
                break
            blocking = np.flatnonzero(passive & (s <= 0.0))
            ratios = x[blocking] / (x[blocking] - s[blocking])
            x = x + np.min(ratios) * (s - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0


# ---------------------------------------------------------------------------
# LP: the numpy tableau, the bit-for-bit reference of mstat.lp.phase1_point

def tableau_pivot_oracle(T, basis, row, col):
    """Pivot the array T in place on (row, col) and record col as basic in row."""
    T[row, :] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i, :] -= T[i, col] * T[row, :]
    basis[row] = col


def bland_pivot_oracle(T, basis):
    """Run simplex pivots on the array tableau T in place until optimal.

    T has shape (m+1, n+1); the last row is the reduced-cost row, the last
    column the right-hand side. Bland's rule: entering column is the lowest
    index with negative reduced cost, leaving row breaks ratio ties by the
    lowest basic-variable index. Reads the pivot tolerance and cap of
    mstat.lp when called, so a patched cap applies to both.
    """
    m = T.shape[0] - 1
    for _ in range(LP._MAX_PIVOTS):
        col = next((j for j in range(T.shape[1] - 1) if T[-1, j] < -LP._PIVOT_TOL), -1)
        if col < 0:
            return
        ratios = [(T[i, -1] / T[i, col], basis[i], i) for i in range(m)
                  if T[i, col] > LP._PIVOT_TOL]
        if not ratios:
            raise LPUnbounded("unbounded pivot column %d" % col)
        best = min(r for r, _, _ in ratios)
        tol = LP._PIVOT_TOL * (1 + abs(best))
        tableau_pivot_oracle(T, basis, min((var, i) for r, var, i in ratios
                                           if r <= best + tol)[1], col)
    raise LPLimitError("simplex iteration cap reached")


def column_sums_oracle(A):
    """The column sums of an (m, n) array, each adding its m entries top to
    bottom from 0.0, so a column of -0.0 sums to 0.0 (np.add.accumulate
    starts from the first entry, and x + 0.0 is x but for -0.0)."""
    return np.add.accumulate(A, axis=0)[-1] + 0.0 if len(A) else np.zeros(A.shape[1])


def solve_standard_oracle(A, b):
    """Some x >= 0 with A x = b, or None, by the phase-1 simplex on a numpy
    array tableau: the reference of the float-list tableau in mstat.lp.

    Phase 1 minimizes the sum of artificial variables; afterwards the
    artificials still basic are pivoted out where a real column allows it
    (rows where none does are redundant), and x is read off the basis.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -column_sums_oracle(A)
    total = column_sums_oracle(b[:, None])[0]
    T[-1, -1] = -total
    basis = list(range(n, n + m))
    bland_pivot_oracle(T, basis)
    if -T[-1, -1] > LP._FEAS_TOL * (1.0 + total):
        return None

    for i in range(m):
        if basis[i] >= n:
            j = next((j for j in range(n) if abs(T[i, j]) > LP._PIVOT_TOL), -1)
            if j >= 0:
                tableau_pivot_oracle(T, basis, i, j)

    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = T[i, -1]
    return x


def cone_coefficients_oracle(w, R, L=None, eps=DEFAULT_EPS):
    """cone_coefficients on numpy arrays: each row times the power of two
    of np.frexp that puts its largest |entry| in [1, 2), the LP of
    lp.linear_feasible on the transposed stack, and its coefficients
    multiplied back by np.ldexp. The reference of the list scaling of
    mstat.cones, bit for bit on finite rows."""
    rows = np.asarray(R, dtype=float) if L is None else np.vstack([R, L])
    if len(rows) == 0:
        return np.zeros(0) if np.max(np.abs(w), initial=0.0) <= eps else None
    power = 1 - np.frexp(np.max(np.abs(rows), axis=1, initial=0.0))[1]
    x = LP.linear_feasible(A_eq=np.ldexp(rows, power[:, None]).T, b_eq=w,
                           nonneg=np.arange(len(rows)) < len(R))
    with np.errstate(over="ignore"):    # a coefficient past the float range is inf
        return None if x is None else np.ldexp(x, power)


# ---------------------------------------------------------------------------
# simplex coderivative: the per-point reference of graph_normals._simplex_rows

def _strict_neg(x, strict_eps):
    return x <= -strict_eps


def _simplex_beta_conditions(zeta, eta, beta, tau, sum_gap, labels, eps, strict_eps):
    """Check the simplex system for one candidate beta."""
    L, I_plus, I_zero = labels
    if abs(beta) > eps and sum_gap > eps:
        return False
    sum_eta = float(np.sum(eta))
    if abs(tau) > strict_eps and abs(sum_eta) > eps:
        return False
    beta_pos = beta > strict_eps
    if not ((beta_pos and sum_eta > strict_eps)
            or abs(beta) <= eps or abs(sum_eta) <= eps):
        return False
    if L.any() and np.max(np.abs(zeta[L] - beta)) > eps:
        return False
    if I_plus.any() and np.max(np.abs(eta[I_plus])) > eps:
        return False
    for i in np.flatnonzero(I_zero):
        zi, ei = zeta[i] - beta, eta[i]
        both_neg = _strict_neg(zi, strict_eps) and _strict_neg(ei, strict_eps)
        if not (both_neg or abs(zi) <= eps or abs(ei) <= eps):
            return False
    return True


def support_mean_oracle(x, support):
    """The mean of the entries of x on a non-empty support, their sum added
    left to right over their count."""
    return np.add.accumulate(x[support])[-1] / np.count_nonzero(support)


def simplex_oracle(z, g, pair, eps=DEFAULT_EPS, strict_eps=STRICT_EPS):
    """Closed-form coderivative membership for Z = {z >= 0, 1^T z <= 1}, one
    point at a time with numpy calls on that point's arrays.

    With the sum constraint slack the test reduces to the orthant form with
    beta = 0. On the sum face the multiplier tau of the budget row is read off
    the coordinates with z_i > 0 (g must be constant there), beta is pinned to
    the common value of zeta on those coordinates, and the remaining
    coordinates obey the shifted sign conditions with zeta_i - beta.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(g, dtype=float)
    zeta, eta = pair.zeta, pair.eta
    if np.min(z, initial=0.0) < -eps:
        return _empty("simplex", "z has negative coordinates")
    sum_gap = 1.0 - float(np.sum(z))
    if sum_gap < -eps:
        return _empty("simplex", "coordinate sum exceeds one")
    L = z > eps
    witness = {"L": np.flatnonzero(L).tolist(), "sum_gap": sum_gap,
               "sum_near_threshold": bool(eps < abs(sum_gap) <= 10.0 * eps),
               "boundary_ambiguous": [i for i, v in enumerate(zeta.tolist())
                                      if 0.0 < abs(v) < strict_eps]}

    if sum_gap > eps:
        # Budget row inactive: tau = 0 and beta is forced to zero.
        member, verdict, orthant_witness = orthant_oracle(z, g, zeta, eta, eps, strict_eps)
        witness.update(orthant_witness)
        witness.update({"tau": 0.0, "beta": 0.0 if member else None})
        return Membership(member, verdict, "simplex", witness)

    if L.any():
        g_L = g[L]
        if np.max(g_L) - np.min(g_L) > eps:
            return _empty("simplex", "gradient not constant on the support")
        tau = float(-support_mean_oracle(g, L))
        if tau < -eps:
            return _empty("simplex", "budget multiplier would be negative")
        lam_zero = g[~L] + tau
        if lam_zero.size and np.min(lam_zero) < -eps:
            return _empty("simplex", "bound multiplier would be negative")
        I_plus = (~L) & (g + tau > eps)
        I_zero = (~L) & ~I_plus
        zeta_L = zeta[L]
        if np.max(zeta_L) - np.min(zeta_L) > eps:
            witness.update({"tau": tau, "beta": None})
            return Membership(False, "not_member", "simplex", witness)
        beta = float(support_mean_oracle(zeta, L))
        ok = _simplex_beta_conditions(zeta, eta, beta, tau, abs(sum_gap),
                                      (L, I_plus, I_zero), eps, strict_eps)
        witness.update({"tau": tau, "beta": beta,
                        "I_plus": np.flatnonzero(I_plus).tolist(),
                        "I_zero": np.flatnonzero(I_zero).tolist()})
        return Membership(ok, "member" if ok else "not_member", "simplex", witness)

    # Defensive corner: the budget row is tight but no coordinate clears the
    # activity threshold, so tau and beta are both unresolved. Only finitely
    # many beta regimes matter: zero, each zeta_i, and anything above max zeta.
    if np.min(g, initial=0.0) < -eps or np.max(np.abs(z * g), initial=0.0) > eps:
        return _empty("simplex", "z and g are not complementary")
    I_plus = g > eps
    I_zero = ~I_plus
    labels = (np.zeros(len(z), dtype=bool), I_plus, I_zero)
    candidates = [0.0, float(np.max(zeta, initial=0.0)) + 1.0] + [float(v) for v in zeta]
    for beta in candidates:
        if _simplex_beta_conditions(zeta, eta, beta, 0.0, 0.0, labels, eps, strict_eps):
            witness.update({"tau": None, "beta": beta, "degenerate_support": True})
            return Membership(True, "member", "simplex", witness)
    witness.update({"tau": None, "beta": None, "degenerate_support": True})
    return Membership(False, "not_member", "simplex", witness)


def _sign_ok_rows(zeta, eta, L, I_plus, eps):
    strict = GN.STRICT_EPS
    small_zeta, small_eta = np.abs(zeta) <= eps, np.abs(eta) <= eps
    both_neg = (zeta <= -strict) & (eta <= -strict)
    return np.where(L, small_zeta,
                    np.where(I_plus, small_eta, both_neg | small_zeta | small_eta))


def _shifted_sign_ok_rows(zeta, eta, beta, tau, sum_eta, L, I_plus, eps):
    strict = GN.STRICT_EPS
    small_sum = np.abs(sum_eta) <= eps
    return _sign_ok_rows(zeta - beta[:, None], eta, L, I_plus, eps).all(axis=1) \
        & ((np.abs(tau) <= strict) | small_sum) \
        & (((beta > strict) & (sum_eta > strict)) | (np.abs(beta) <= eps) | small_sum)


def _spread_rows(v, mask):
    return np.where(mask, v, -np.inf).max(axis=1) - np.where(mask, v, np.inf).min(axis=1)


def _flagged(flags):
    return [i for i, f in enumerate(flags) if f]


def _simplex_corner_oracle(z, g, zeta, eta, sum_eta, witness, eps):
    if np.min(g, initial=0.0) < -eps or np.max(np.abs(z * g), initial=0.0) > eps:
        return _empty("simplex", "z and g are not complementary")
    candidates = np.array([0.0, float(np.max(zeta, initial=0.0)) + 1.0] + zeta.tolist())
    I_plus = g > eps
    ok = _shifted_sign_ok_rows(zeta, eta, candidates, 0.0, sum_eta,
                               np.zeros(len(z), dtype=bool), I_plus, eps)
    beta = float(candidates[np.argmax(ok)]) if ok.any() else None
    witness.update({"tau": None, "beta": beta, "degenerate_support": True})
    return Membership(beta is not None, "member" if beta is not None else "not_member",
                      "simplex", witness)


def simplex_rows_oracle(z, g, zeta, eta, eps):
    """The list of Memberships that graph_normals._simplex_rows stands for,
    scenario by scenario: each row's witness dict built in a Python loop,
    tau and beta as support_mean_oracle of the row's own support, the slack
    budget rows through one _orthant_rows call and the degenerate corner by
    its candidate betas. This was _simplex_rows itself before it decided
    the rows by columns; it reads STRICT_EPS from graph_normals at call
    time."""
    k = len(z)
    sum_gap = (1.0 - z.sum(axis=1)).tolist()
    sum_eta = eta.sum(axis=1)
    negative = (z < -eps).any(axis=1).tolist()
    L = z > eps
    L_rows, zeta_rows = L.tolist(), zeta.tolist()
    g_spread, zeta_spread = _spread_rows(g, L).tolist(), _spread_rows(zeta, L).tolist()
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
                        "boundary_ambiguous": [i for i, v in enumerate(zeta_rows[j])
                                               if 0.0 < abs(v) < GN.STRICT_EPS]}
        if gap > eps:
            interior.append(j)
        elif not witnesses[j]["L"]:
            out[j] = _simplex_corner_oracle(z[j], g[j], zeta[j], eta[j], sum_eta[j],
                                            witnesses[j], eps)
        elif g_spread[j] > eps:
            out[j] = _empty("simplex", "gradient not constant on the support")
        else:
            tau[j] = -support_mean_oracle(g[j], L[j])
            if tau[j] < -eps:
                out[j] = _empty("simplex", "budget multiplier would be negative")
                continue
            if zeta_spread[j] <= eps:
                beta[j] = support_mean_oracle(zeta[j], L[j])
            face.append(j)

    if interior:
        rows = GN._orthant_rows(z[interior], g[interior], zeta[interior], eta[interior], eps)
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
    ok = _shifted_sign_ok_rows(zeta, eta, beta, tau, sum_eta, L, I_plus, eps).tolist()
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


# ---------------------------------------------------------------------------
# cones: the multiplier split of a normal vector, and independent checks

@dataclass(frozen=True)
class ActiveDecomposition:
    """One nonnegative multiplier over the active rows I, split by sign.

    lam has full length m with lam_i = 0 off I; I_plus and I_zero partition
    I by lam_i > eps versus not.
    """

    I: tuple
    lam: np.ndarray
    I_plus: tuple
    I_zero: tuple


def normal_cone_multiplier(poly, z, v, eps=DEFAULT_EPS):
    """Decompose -v over the active rows: find lam >= 0 with A^T lam = -v.

    Decides 0 in v + N_Z(z): pass v = grad f to certify stationarity of f, or
    v = -w to test w in N_Z(z). Returns an ActiveDecomposition or None.
    Off-active multipliers are pinned to zero (complementary slackness).
    """
    I = active_set(poly, z, eps)
    lam = multiplier_within_support(poly, -np.asarray(v, dtype=float), I, eps)
    if lam is None:
        return None
    plus = tuple(i for i in I if lam[i] > eps)
    zero = tuple(i for i in I if i not in plus)
    return ActiveDecomposition(I=I, lam=lam, I_plus=plus, I_zero=zero)


def polyhedron_contains(poly, z, eps=DEFAULT_EPS):
    """z lies in {A z <= b} within eps on every row."""
    return bool(np.min(poly.slacks(z), initial=np.inf) >= -eps)


def complementarity_residual(decomp, poly, z):
    """max_i |lam_i (a_i^T z - b_i)| of an ActiveDecomposition at z."""
    return float(np.max(np.abs(decomp.lam * (poly.A @ z - poly.b)), initial=0.0))


def check_scenario_lp(poly, z, g):
    """One scenario's (lower_residual, complementarity_gap) on a general
    polyhedron by the LP slow path: the NNLS distance, and the gap at the
    multiplier that the complementarity LP finds whenever the residual is
    within twice its feasibility threshold, None where it finds none."""
    target = -g
    slack = poly.slacks(z)
    try:
        I = active_rows(poly, slack, DEFAULT_EPS)
        low_res = cone_distance(target, poly.A[list(I)])
    except ValueError:
        return None
    comp_gap = None
    if not I or low_res <= 2.0 * feasibility_threshold(target):
        lam = multiplier_within_support(poly, target, I, DEFAULT_EPS)
        if lam is not None:
            comp_gap = float(np.max(np.abs(lam * slack), initial=0.0))
    return low_res, comp_gap


def count_lps(monkeypatch):
    """A list that gains one entry per phase-1 LP solved from here on, also
    where mstat.cones calls lp.phase1_point under the name it imported."""
    from mstat import cones

    calls = []
    solve = LP.phase1_point
    counted = lambda *a, **k: calls.append(1) or solve(*a, **k)
    for module in (LP, cones):
        monkeypatch.setattr(module, "phase1_point", counted)
    return calls


def count_nnls(monkeypatch):
    """A list that gains one entry per lp.nnls solve from here on, also where
    mstat.cones and mstat.stationarity call it under the name they imported."""
    from mstat import cones, stationarity

    calls = []
    nnls = LP.nnls
    counted = lambda *a, **k: calls.append(1) or nnls(*a, **k)
    for module in (LP, cones, stationarity):
        monkeypatch.setattr(module, "nnls", counted)
    return calls


# ---------------------------------------------------------------------------
# stationarity: a quadratic testbed model, lower-level solvers, and the
# coderivative and upper lines of one scenario outside the verifier

class QuadraticLowerModel(LowerModel):
    """c(z, theta, x) = (S theta)^T z + z^T Q z / 2 with a fixed coupling S.

    Context-free quadratic testbed; Q = 0 gives the linear objectives used to
    exercise flat solution sets.
    """

    def __init__(self, Q, coupling, feasible_set):
        self.Q = np.asarray(Q, dtype=float)
        self.coupling = np.asarray(coupling, dtype=float)  # (d_z, d_theta)
        self.feasible_set = feasible_set

    def cost(self, z, theta, x):
        z = np.asarray(z, dtype=float)
        return float((self.coupling @ theta) @ z + 0.5 * z @ self.Q @ z)

    def grad_z(self, z, theta, x):
        return self.coupling @ theta + self.Q @ np.asarray(z, dtype=float)

    def hess_zz(self, z, theta, x):
        return self.Q

    def hess_ztheta(self, z, theta, x):
        return self.coupling

    def grad_theta(self, z, theta, x):
        return self.coupling.T @ np.asarray(z, dtype=float)


def m_stationarity_check(lower, upper, theta, x, y, z, eta, zeta=None, eps=DEFAULT_EPS):
    """Test the coderivative line of the stationarity system at one scenario.

    Asks whether the certificate zeta (or, when absent, -r itself) belongs
    to the coderivative of the normal-cone map at (z, -grad_z c), with
    r = grad_z E[L | x] + hess_zz^T eta. Returns membership, the residual
    ||r + zeta|| (the distance of -zeta to the interval of r when the loss
    has a kink), the verdict and the membership witness.
    """
    z = np.asarray(z, dtype=float)
    eta = np.asarray(eta, dtype=float)
    g = np.asarray(lower.grad_z(z, theta, x), dtype=float)
    curvature = np.asarray(lower.hess_zz(z, theta, x), dtype=float).T @ eta
    lo, hi = upper.grad_z_bounds(z, x, y, theta)
    given = zeta is not None
    probe, gap = _probe_and_gap(lo + curvature, hi + curvature,
                                np.asarray(zeta, dtype=float) if given else 0.0, given)
    pair = NormalPair(probe, eta)
    feasible = lower.feasible_set
    if feasible.kind == "orthant":
        res = orthant_membership(z, g, pair, eps)
    elif feasible.kind == "simplex":
        res = simplex_membership(z, g, pair, eps)
    else:
        res = polyhedron_membership(feasible.as_polyhedron(), GraphPoint(z, g), pair, eps)
    return {"membership": res.member,
            "residual": float(_m_residual(res.verdict == "empty_coderivative", res.member,
                                          np.linalg.norm(gap), given)),
            "verdict": res.verdict, "witness": res.witness}


def psi_set(lower, upper, theta, x, y, solutions, multipliers):
    """Upper-level sensitivity generators, one per (solution, multiplier) pair."""
    return [_upper_generator(lower, upper, theta, x, y, np.asarray(z, dtype=float),
                             np.asarray(eta, dtype=float))
            for z, eta in zip(solutions, multipliers)]


def grid_solver(points):
    """Rows solver giving every row one fixed candidate list (endpoints
    included by caller); the start Z goes unused."""
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]

    def solve(model, theta, X, Z):
        return [pts] * len(X)
    return solve


def projected_gradient_solver(n_starts=16, iters=2000, seed=0, step=None):
    """Rows solver by multi-start projected gradient for structured feasible
    sets: each row's candidates are the end points of its runs.

    Deterministic under the seed; start points come from a fixed random grid
    inside the unit box mapped through the set's projection, the same for
    every row; the start Z goes unused.
    """
    def descend(model, theta, x):
        fs = model.feasible_set
        rng = np.random.default_rng(seed)
        starts = [fs.project(rng.uniform(-1.0, 1.0, fs.dim)) for _ in range(n_starts)]
        out = []
        for z in starts:
            lr = step
            if lr is None:
                H = np.atleast_2d(np.asarray(model.hess_zz(z, theta, x), dtype=float))
                lam_max = float(np.max(np.linalg.eigvalsh(H))) if H.size else 1.0
                lr = 1.0 / max(lam_max, 1e-6)
            for _ in range(iters):
                z_next = fs.project(z - lr * np.asarray(model.grad_z(z, theta, x)))
                if np.max(np.abs(z_next - z)) <= 1e-13:
                    z = z_next
                    break
                z = z_next
            out.append(z)
        return out

    def solve(model, theta, X, Z):
        return [descend(model, theta, x) for x in X]
    return solve


# ---------------------------------------------------------------------------
# the per-entry readers: oracles of the readers of number arrays

def _holds_non_number(value):
    """Whether value, or any entry of it at any depth, is a boolean or a
    string, by a walk of the whole nesting."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "bSU"
    if isinstance(value, (list, tuple)):
        return any(map(_holds_non_number, value))
    return isinstance(value, (bool, np.bool_, str, bytes))


def array_oracle(value, name):
    """cones.finite_array by np.asarray and a walk of the nesting alone."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is None or _holds_non_number(value) or not np.isfinite(array).all():
        raise ValueError("%s must be an array of finite numbers" % name)
    return array


def vector_oracle(value, name, scalar=False, flat=False):
    """graph_normals.finite_vector by np.asarray, a reshape and a walk of
    the nesting alone."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        v = np.float64(np.nan)
    if flat or (scalar and v.ndim == 0):
        v = v.reshape(-1)
    if v.ndim != 1 or _holds_non_number(value) or not np.isfinite(v).all():
        raise ValueError("%s must be a finite 1-D array" % name)
    return v


def polyhedron_oracle(A, b):
    """Polyhedron(A, b) on the arrays that array_oracle reads from A and b,
    as the command line read a query's Z before Polyhedron read it."""
    return Polyhedron(array_oracle(A, "A"), array_oracle(b, "b"))


def rows_oracle(values, name, number=False):
    """graph_normals.finite_rows read entry by entry: each entry through
    finite_number (number) or finite_vector (a lone number a vector of one),
    named name % i, in order; then, among entries of more than one length,
    the first whose length differs from entry 0's is a RaggedRowsError."""
    if number:
        rows = [[GN.finite_number(v, name % i)] for i, v in enumerate(values)]
    else:
        rows = [GN.finite_vector(v, name % i, scalar=True) for i, v in enumerate(values)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise GN.RaggedRowsError("%s has %d entries but %s has %d"
                                     % (name % i, len(row), name % 0, len(rows[0])))
    return np.array(rows, dtype=float).reshape(len(rows), len(rows[0]) if rows else 1)


def per_scenario_certificate(theta, scenarios):
    """Certificate(theta, scenarios) read one scenario at a time: every
    entry of scenario i through finite_vector or finite_number, named
    "certificate scenario i: <key>", a missing zeta read as z, the rows
    stacked once every scenario is read. Valid input only."""
    z, eta, zeta, mu, weights = [], [], [], [], []
    for i, s in enumerate(scenarios):
        def read(key, _i=i, _s=s):
            return GN.finite_vector(_s[key], "certificate scenario %d: %s" % (_i, key),
                                    scalar=True)
        z.append(read("z"))
        eta.append(read("eta"))
        zeta.append(read("zeta") if "zeta" in s else z[-1])
        mu.append(GN.finite_number(s["mu"], "certificate scenario %d: mu" % i)
                  if "mu" in s else None)
        weights.append(read("value_weights") if "value_weights" in s else None)
    assert len({len(v) for v in z + eta + zeta}) == 1
    return Certificate.from_rows(theta, *(np.array(c) for c in (z, eta, zeta)),
                                 np.array(["zeta" in s for s in scenarios]), mu, weights)
