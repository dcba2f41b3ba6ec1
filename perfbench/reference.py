"""Answers the benchmark knows without asking mstat.

Every check on a benchmark operation compares mstat's output with a value
computed here, by a different method than the package uses: a closed-form
distance to the simplex normal cone instead of a subset sweep, a vectorised
mixture CDF and lockstep bisection instead of per-point kernel calls, and
input constructions whose membership verdict is known by design.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

ACTIVE_EPS = 1e-9


# ---------------------------------------------------------------------------
# simplex {z >= 0, 1^T z <= 1}

def simplex_active_rows(z, eps=ACTIVE_EPS):
    """Rows of the (d+1)-row simplex system that are active at z."""
    z = np.asarray(z, dtype=float)
    return int(np.sum(z <= eps)) + int(abs(z.sum() - 1.0) <= eps)


def simplex_normal_distance(z, u, eps=ACTIVE_EPS):
    """Distance from u to the normal cone of the simplex at z, in closed form.

    The cone is {tau 1 - sum_{i: z_i = 0} lam_i e_i : lam >= 0, tau >= 0},
    with tau = 0 when the budget row is slack. For fixed tau the best lam
    leaves max(u_i - tau, 0) on the zero coordinates, so the squared distance
    is a convex piecewise quadratic in tau; its minimum over tau >= 0 is at 0,
    at a breakpoint, or at the stationary point of one piece.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    zero = z <= eps
    free, pinned = u[~zero], u[zero]
    if abs(z.sum() - 1.0) > eps:
        taus = np.zeros(1)
    else:
        top = np.sort(pinned)[::-1]
        count = len(free) + np.arange(len(top) + 1)
        sums = free.sum() + np.concatenate([[0.0], np.cumsum(top)])
        stationary = sums[count > 0] / count[count > 0]
        taus = np.maximum(np.concatenate([[0.0], pinned, stationary]), 0.0)
    sq = np.sum((free[None, :] - taus[:, None]) ** 2, axis=1) \
        + np.sum(np.maximum(pinned[None, :] - taus[:, None], 0.0) ** 2, axis=1)
    return float(np.sqrt(sq.min()))


# ---------------------------------------------------------------------------
# kernel newsvendor

def kernel_weights(centers_x, x, theta):
    """Nadaraya-Watson weights by log-sum-exp, one row per query in x."""
    x = np.atleast_2d(x)
    sq = np.sum((x[:, None, :] - centers_x[None, :, :]) ** 2, axis=2)
    logits = -sq / (2.0 * theta ** 2)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def mixture_cdf(weights, centers_y, theta, y):
    """F(y) = sum_m w_m Phi((y - y_m) / theta), one value per weight row.

    centers_y is shared by all rows, shape (M,), or given per row, (n, M).
    """
    y = np.asarray(y, dtype=float)
    return np.sum(weights * ndtr((y[:, None] - centers_y) / theta), axis=1)


def mixture_pdf(weights, centers_y, theta, y):
    """p(y) = sum_m w_m phi((y - y_m) / theta) / theta, one value per weight row."""
    u = (np.asarray(y, dtype=float)[:, None] - centers_y) / theta
    return np.sum(weights * np.exp(-0.5 * u * u), axis=1) / (theta * np.sqrt(2.0 * np.pi))


def quantiles(weights, centers_y, theta, q):
    """Smallest z >= 0 with F(z) >= q for every weight row, bisected in lockstep."""
    n = weights.shape[0]
    lo = np.zeros(n)
    hi = np.broadcast_to(np.max(centers_y, axis=-1) + 20.0 * theta, (n,)).copy()
    while True:
        short = mixture_cdf(weights, centers_y, theta, hi) <= q
        if not short.any():
            break
        hi[short] += 10.0 * theta
    at_zero = mixture_cdf(weights, centers_y, theta, lo) >= q
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = mixture_cdf(weights, centers_y, theta, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) <= 1e-14 * max(1.0, float(np.max(hi))):
            break
    return np.where(at_zero, 0.0, 0.5 * (lo + hi))


def quantile_residual(weights, centers_y, theta, h, b, z):
    """|(h+b) F(z) - b| at interior z, the shortfall max(0, b - (h+b) F(0)) at 0."""
    g = (h + b) * mixture_cdf(weights, centers_y, theta, z) - b
    return np.where(np.asarray(z) > ACTIVE_EPS, np.abs(g), np.maximum(0.0, -g))


def loo_regret(xs, ys, theta, h, b):
    """Mean leave-one-out newsvendor regret of bandwidth theta.

    Each held-out sample gets the full kernel matrix row with its own entry
    masked out, which is the model built from the remaining centers.
    """
    sq = np.sum((xs[:, None, :] - xs[None, :, :]) ** 2, axis=2)
    logits = -sq / (2.0 * theta ** 2)
    np.fill_diagonal(logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    z = quantiles(w, ys, theta, b / (h + b))
    return float(np.mean(h * np.maximum(z - ys, 0.0) + b * np.maximum(ys - z, 0.0)))


def bandwidth_cdf_slope(centers_x, centers_y, theta, x, z, step=1e-6):
    """d F_theta(z; x) / d theta by central differences of the mixture CDF."""
    up = mixture_cdf(kernel_weights(centers_x, x, theta + step), centers_y, theta + step, z)
    dn = mixture_cdf(kernel_weights(centers_x, x, theta - step), centers_y, theta - step, z)
    return (up - dn) / (2.0 * step)


# ---------------------------------------------------------------------------
# general polyhedra

def random_graph_point(rng, d_max=4, m_max=8, entry=2):
    """Random integer system A z <= b with a valid graph point (z, -g).

    Rows are made active with probability 0.6 and -g is a nonnegative integer
    combination of active rows, so (z, -g) lies on the graph by construction.
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
        return A, b, z, -(A.T @ lam), active
