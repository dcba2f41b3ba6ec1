"""Shared builders, independent oracles, and the models and solvers that
only the test suite uses."""

from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import ndtr

from mstat.cones import (DEFAULT_EPS, MAX_ACTIVE_ROWS, CombinatorialLimitError, ConeRepH,
                         Polyhedron, active_set, member_v, multiplier_within_support,
                         polar_cone)
from mstat import lp as LP
from mstat.graph_normals import (STRICT_EPS, Membership, _ambiguous, _empty,
                                 make_graph_context, membership_for_set, orthant_membership)
from mstat.lp import LPLimitError, LPUnbounded
from mstat.stationarity import (FeasibleSet, LowerModel, _m_residual, _probe_and_gap,
                                _upper_generator)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


# ---------------------------------------------------------------------------
# kernel newsvendor: the per-query and per-held-out-sample reference

def nv_oracle_weights(centers_x, x, theta):
    """Nadaraya-Watson weights of one query, from its own distance vector."""
    sq = np.sum(np.square(centers_x - x), axis=1)
    logits = -sq / (2.0 * theta ** 2)
    logits -= np.max(logits)
    w = np.exp(logits)
    return w / w.sum()


def nv_oracle_cdf(centers_x, centers_y, theta, y, x):
    w = nv_oracle_weights(centers_x, x, theta)
    return float(w @ ndtr((y - centers_y) / theta))


def nv_oracle_pdf(centers_x, centers_y, theta, y, x):
    w = nv_oracle_weights(centers_x, x, theta)
    u = (y - centers_y) / theta
    return float(w @ (np.exp(-0.5 * np.square(u)) / np.sqrt(2.0 * np.pi)) / theta)


def nv_oracle_grad_theta_cdf(centers_x, centers_y, theta, y, x):
    w = nv_oracle_weights(centers_x, x, theta)
    sq = np.sum(np.square(centers_x - x), axis=1)
    psi = -centers_x.shape[1] / theta + sq / theta ** 3
    u = (y - centers_y) / theta
    phi = np.exp(-0.5 * np.square(u)) / np.sqrt(2.0 * np.pi)
    return float(w * (psi - w @ psi) @ ndtr(u) - w @ (u * phi / theta))


def nv_oracle_solve(centers_x, centers_y, theta, x, h, b, tol=1e-12, max_expand=60):
    """One query's order quantity: a scalar bracket, 60 bisection steps and
    at most 5 Newton steps, each CDF evaluation rebuilding the weights."""
    def cdf(y):
        return nv_oracle_cdf(centers_x, centers_y, theta, y, x)

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
        p = nv_oracle_pdf(centers_x, centers_y, theta, z, x)
        if p <= 0.0 or abs(f) <= tol:
            break
        z -= f / p
    return float(max(z, 0.0))


def nv_oracle_regret(instance, theta):
    """Weighted regret of bandwidth theta; with as many centers as samples
    (and more than one), each held-out sample gets the centers without its
    own, rebuilt from scratch."""
    cx = np.vstack([x for x, _ in instance.centers])
    cy = np.array([y for _, y in instance.centers])
    n = len(instance.samples)
    loo = len(instance.centers) == n and n > 1
    total = 0.0
    for i, (x, y) in enumerate(instance.samples):
        keep = np.arange(len(cy)) != i if loo else np.ones(len(cy), dtype=bool)
        z = nv_oracle_solve(cx[keep], cy[keep], theta, x, instance.h, instance.b)
        total += instance.weights[i] * (instance.h * max(z - y, 0.0)
                                        + instance.b * max(y - z, 0.0))
    return total


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
    exponential and refused beyond MAX_ACTIVE_ROWS active rows.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(model.grad_z(z, theta, x), dtype=float)
    H = np.asarray(model.hess_zz(z, theta, x), dtype=float)
    poly = model.feasible_set.as_polyhedron()
    I = make_graph_context(poly, z, g, eps).active
    if len(I) > MAX_ACTIVE_ROWS:
        raise CombinatorialLimitError("%d active rows exceeds cap %d"
                                      % (len(I), MAX_ACTIVE_ROWS))
    seen = set()
    for size_e in range(len(I) + 1):
        for eq in combinations(I, size_e):
            if multiplier_within_support(poly, z, -g, eq, eps) is None:
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


def nnls_oracle(A, b):
    """argmin_{x >= 0} ||A x - b|| by the Lawson-Hanson active-set method.

    The plain loop of `mstat.lp.nnls`, without its certified full-support
    start and its entering-column guard: the bit-for-bit reference of the
    tests. Where the guard ends a run, this loop raises instead.

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
# LP: the numpy tableau, the bit-for-bit reference of mstat.lp._solve_standard

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
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = list(range(n, n + m))
    bland_pivot_oracle(T, basis)
    if -T[-1, -1] > LP.feasibility_threshold(b):
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
               "boundary_ambiguous": _ambiguous(zeta, strict_eps)}

    if sum_gap > eps:
        # Budget row inactive: tau = 0 and beta is forced to zero.
        res = orthant_membership(z, g, pair, eps, strict_eps)
        witness.update(res.witness)
        witness.update({"tau": 0.0, "beta": 0.0 if res.member else None})
        return Membership(res.member, res.verdict, "simplex", witness)

    if L.any():
        g_L = g[L]
        if np.max(g_L) - np.min(g_L) > eps:
            return _empty("simplex", "gradient not constant on the support")
        tau = float(-np.mean(g_L))
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
        beta = float(np.mean(zeta_L))
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


# ---------------------------------------------------------------------------
# cones: independent cross-checks of the multiplier split and of face order

def critical_cone_perp_form(poly, z, v_normal, eps=DEFAULT_EPS):
    """Multiplier-free form T_Z(z) intersected with the hyperplane v_normal^perp.

    Set-equal to critical_cone for any valid multiplier split; kept as an
    independent cross-check because the split is not unique.
    """
    v = np.asarray(v_normal, dtype=float)
    I = active_set(poly, z, eps)
    E = v.reshape(1, -1) if np.max(np.abs(v), initial=0.0) > eps else None
    return ConeRepH(E, poly.A[list(I)], dim=poly.dim)


def face_contains(outer, inner, eps=DEFAULT_EPS):
    """inner subseteq outer, decided row by row via polar membership."""
    polar_inner = polar_cone(inner)
    for g in outer.G:
        if not member_v(polar_inner, g, eps):
            return False
    for e in outer.E:
        if not (member_v(polar_inner, e, eps) and member_v(polar_inner, -e, eps)):
            return False
    return True


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
    lo, hi = upper.grad_z_bounds(z, x, y, theta, eps)
    given = zeta is not None
    probe, gap = _probe_and_gap(lo + curvature, hi + curvature,
                                np.asarray(zeta, dtype=float) if given else 0.0, given)
    res = membership_for_set(lower.feasible_set, z, g, probe, eta, eps)
    return {"membership": res.member,
            "residual": _m_residual(res, float(np.linalg.norm(gap)), given),
            "verdict": res.verdict, "witness": res.witness}


def psi_set(lower, upper, theta, x, y, solutions, multipliers):
    """Upper-level sensitivity generators, one per (solution, multiplier) pair."""
    return [_upper_generator(lower, upper, theta, x, y, np.asarray(z, dtype=float),
                             np.asarray(eta, dtype=float))
            for z, eta in zip(solutions, multipliers)]


def grid_solver(points):
    """Solver returning a fixed candidate list (endpoints included by caller)."""
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]

    def solve(model, theta, x):
        return pts
    return solve


def projected_gradient_solver(n_starts=16, iters=2000, seed=0, step=None):
    """Multi-start projected gradient for structured feasible sets.

    Deterministic under the seed; start points come from a fixed random grid
    inside the unit box mapped through the set's projection.
    """
    def solve(model, theta, x):
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
    return solve
