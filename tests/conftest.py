"""Shared builders and independent oracles for the test suite."""

from itertools import combinations

import numpy as np
import pytest
from scipy.special import ndtr

from mstat.cones import (DEFAULT_EPS, MAX_ACTIVE_ROWS, CombinatorialLimitError,
                         Polyhedron, multiplier_within_support)
from mstat.graph_normals import STRICT_EPS, make_graph_context
from mstat.lp import linear_feasible
from mstat.stationarity import FeasibleSet


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
            sol = linear_feasible(A_eq=A_eq, b_eq=b_eq,
                                  A_ub=np.vstack(ub_blocks), b_ub=np.concatenate(ub_rhs),
                                  nonneg=nonneg)
            if sol is not None:
                return sol[:d]
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
