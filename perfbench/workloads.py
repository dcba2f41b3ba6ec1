"""Seeded workloads for the mstat benchmark.

A workload is a pool of distinct `mstat` command lines drawn from the seed.
Each builder writes the inputs of its operations as JSON files and attaches
to every operation the answer the benchmark knows for it (see reference.py).

Pool sizes and cell shares are chosen so that each pool holds at least 200
operations that complete, p50 falls inside the cheap cells and p95 inside
one homogeneous slow cell rather than on the boundary between two cells.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

ENUMERATION_CAP = 8       # active rows the exhaustive sweeps in mstat accept
VERIFY_TOL = 1e-8         # the CLI's default verification tolerance


@dataclass
class Op:
    """One `mstat` invocation and the answer it must give."""

    argv: list
    cell: str
    active_rows: int
    check: Callable       # (exit_code, stdout) -> None when right, else the reason

    @property
    def cap(self):
        return self.active_rows > ENUMERATION_CAP


@dataclass
class Workload:
    name: str
    why: str
    ops: list             # the pool, in a seeded order
    warmup: list          # Op run untimed at the end of set-up

    def census(self):
        """Shares of the pool by cell, active-row histogram, and cap share."""
        ops = self.ops
        cells = Counter(op.cell for op in ops)
        rows = Counter(op.active_rows for op in ops)
        return {
            "why": self.why,
            "ops": len(ops),
            "cell_share": {k: cells[k] / len(ops) for k in sorted(cells)},
            "active_rows_histogram": {str(k): rows[k] for k in sorted(rows)},
            "cap_share": sum(op.cap for op in ops) / len(ops),
        }


def _write(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return str(path)


def _json_out(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _expect_exit(expected):
    """Check on a verify exit code and the report's pass flag."""
    def check(code, stdout):
        if code != expected:
            return "exit %s, expected %s" % (code, expected)
        out = _json_out(stdout)
        if out is None or out.get("pass") is not (expected == 0):
            return "pass flag disagrees with exit code"
        return None
    return check


# ---------------------------------------------------------------------------
# portfolio_verify

PORTFOLIO_WHY = (
    "mstat verify on SPO-portfolio certificates over d_z x interior/vertex x n. "
    "Vertex cells drive the 2^|I| subset sweep of cones.distance_to_normal_cone "
    "and lp: d_z=8 dominates the time and d4-vertex-n16 sets p95; interior "
    "cells (1-2 active rows) set p50; the d_z=12 vertex cells exceed the 8-row "
    "cap. Bypasses polyhedron_membership and newsvendor.")


def _portfolio_instance(rng, d_z, n, vertex, zero_coord):
    """Instance whose lower-level solutions are known in closed form.

    Contexts are x = (1, u). Solutions are z(x) = W x on the budget face: a
    vertex e_k, or an interior point with one optional zero coordinate. The
    predictor theta is built so that -grad_z c(z(x)) = tau(x) 1 - mu(x) on
    the zero coordinates with tau(x) = t.x > 0 and mu(x) = M x > 0, which
    makes z(x) optimal with strict complementarity. Returns (sigma, X, theta,
    Z, delta): delta is a change of theta that breaks optimality.
    """
    B = rng.standard_normal((d_z, d_z))
    sigma = B @ B.T + d_z * np.eye(d_z)
    sigma /= np.max(np.abs(sigma))
    sigma = 0.5 * (sigma + sigma.T)
    X = np.column_stack([np.ones(n), rng.uniform(0.1, 1.0, n)])
    t = rng.uniform(0.1, 0.5, 2)
    W = np.zeros((d_z, 2))
    if vertex:
        k = int(rng.integers(d_z))
        W[k, 0] = 1.0
        zeros = [j for j in range(d_z) if j != k]
    else:
        zeros = [int(rng.integers(d_z))] if zero_coord else []
        support = [j for j in range(d_z) if j not in zeros]
        w0 = rng.uniform(0.5, 1.5, len(support))
        w0 /= w0.sum()
        v = rng.uniform(-1.0, 1.0, len(support))
        v -= v.mean()
        W[support, 0] = w0
        W[support, 1] = 0.5 * w0.min() / np.max(np.abs(v)) * v
    M = np.zeros((d_z, 2))
    M[zeros] = rng.uniform(0.1, 0.5, (len(zeros), 2))
    theta = (sigma @ W + np.outer(np.ones(d_z), t) - M).T
    delta = np.zeros_like(theta)
    if vertex:
        j = zeros[0]
        delta[:, j] = M[j] + t + 0.5      # asset j now beats the vertex asset
    else:
        delta[:, [j for j in range(d_z) if j not in zeros][0]] = 0.5
    return sigma, X, theta, X @ W.T, delta


# Operations per (d_z, vertex, n) cell. d4-vertex-n16 holds p95; the d_z=8
# vertex cells sit above it and dominate the pool's time; interior cells hold
# p50. Few slow operations keep a pass short, so a run fits more passes.
PORTFOLIO_CELLS = {(4, False, 4): 28, (4, False, 16): 28, (8, False, 4): 28,
                   (8, False, 16): 28, (12, False, 4): 28, (12, False, 16): 28,
                   (4, True, 4): 14, (4, True, 16): 24, (8, True, 4): 4,
                   (8, True, 16): 2, (12, True, 4): 16, (12, True, 16): 16}
# Four operations per instance pair: a quarter penalized, a quarter perturbed.
PORTFOLIO_VARIANTS = (("a", 1, "convex", 0), ("b", 2, "convex", 2),
                      ("a", 1, "penalized", 0), ("b", 1, "convex", 0))


def build_portfolio(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for (d_z, vertex, n), count in PORTFOLIO_CELLS.items():
        cell = "d%d-%s-n%d" % (d_z, "vertex" if vertex else "interior", n)
        for pair in range(-(-count // len(PORTFOLIO_VARIANTS))):
            files, rows = {}, {}
            for tag, zero_coord in (("a", False), ("b", True)):
                sigma, X, theta, Z, delta = _portfolio_instance(rng, d_z, n, vertex, zero_coord)
                R = X @ theta
                for th, stationary in ((theta, True), (theta + delta, False)):
                    dist = max(ref.simplex_normal_distance(z, th.T @ x - sigma @ z)
                               for x, z in zip(X, Z))
                    if (dist <= 1e-9) != stationary or (not stationary and dist < 1e-3):
                        raise RuntimeError("portfolio generator broke its construction")
                stem = "%s-%d%s" % (cell, pair, tag)
                scen = [{"z": z.tolist(), "eta": [0.0] * d_z, "zeta": (y - sigma @ z).tolist()}
                        for z, y in zip(Z, R)]
                files[tag] = (
                    _write(workdir / (stem + ".problem.json"),
                           {"schema": "mstat/1", "type": "spo_portfolio",
                            "sigma": sigma.tolist(), "lambda": 1.0,
                            "samples": [{"x": x.tolist(), "r": y.tolist()} for x, y in zip(X, R)],
                            "weights": [1.0 / n] * n}),
                    _write(workdir / (stem + ".cert.json"),
                           {"theta": theta.ravel().tolist(), "scenarios": scen}),
                    _write(workdir / (stem + ".perturbed.json"),
                           {"theta": (theta + delta).ravel().tolist(), "scenarios": scen}))
                rows[tag] = max(ref.simplex_active_rows(z) for z in Z)
            for tag, cert, mode, code in PORTFOLIO_VARIANTS[:count - 4 * pair]:
                ops.append(Op(["verify", "--problem", files[tag][0],
                               "--certificate", files[tag][cert], "--mode", mode],
                              cell, rows[tag], _expect_exit(code)))
    warm = [op for op in ops if op.cell == "d4-interior-n4"][:3]
    return Workload("portfolio_verify", PORTFOLIO_WHY, _shuffled(rng, ops), warm)


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# coderivative_queries

CODERIVATIVE_WHY = (
    "mstat gph-normal --method direct on general polyhedra: mostly small random "
    "systems (d<=4, m<=8) that make cli.main parsing visible in p50, plus "
    "degenerate prism points whose non-members sweep all 3^|I| regimes of "
    "graph_normals.polyhedron_membership. Bypasses distance_to_normal_cone and "
    "newsvendor.")

# (cell, count, active rows) for the constructed queries; random-small
# queries fill the rest of the pool. The 6-row non-members hold p95.
PRISM_MIX = (("prism-member", 5, 4), ("prism-member", 5, 5), ("prism-member", 5, 6),
             ("prism-member", 5, 8), ("prism-nonmember-6", 25, 6),
             ("prism-nonmember-8", 5, 8), ("prism-cap", 5, None), ("non-graph", 5, None))
RANDOM_SMALL = 190

_DIRECTIONS = [(p, q) for p in range(-3, 4) for q in range(-3, 4)
               if (p, q) != (0, 0) and np.gcd(p, q) == 1]


def _prism(rng, k):
    """k rows (p, q, 0) through the origin plus three slack rows, in R^3.

    Every active row is orthogonal to e3, so eta = c e3 passes every regime's
    sign test, and anything with an e3 component lies outside span(A_I).
    """
    pick = rng.choice(len(_DIRECTIONS), k, replace=False)
    A = [[*_DIRECTIONS[i], 0] for i in pick] + [[0, 0, 1], [0, 0, -1], [-1, 0, 0]]
    return np.array(A, dtype=float), np.array([0.0] * k + [1.0, 1.0, 1.0])


def _expect_verdict(verdict):
    def check(code, stdout):
        if code != 0:
            return "exit %s, expected 0" % code
        out = _json_out(stdout)
        if out is None or out.get("verdict") != verdict:
            return "verdict %s, expected %s" % (out and out.get("verdict"), verdict)
        if out.get("member") is not (verdict == "member"):
            return "member flag disagrees with verdict"
        return None
    return check


def build_coderivative(seed, workdir):
    from mstat.cones import Polyhedron
    from mstat.graph_normals import GraphPoint, NormalPair, oracle_membership

    rng = np.random.default_rng([seed, 2])
    queries = []       # (cell, active rows, A, b, z, g, zeta, eta, verdict)
    for _ in range(RANDOM_SMALL):
        A, b, z, g, active = ref.random_graph_point(rng)
        d = A.shape[1]
        I = np.flatnonzero(active)
        if len(I) and rng.random() < 0.5:
            E = I[rng.random(len(I)) < 0.4]
            P = np.setdiff1d(I, E)[rng.random(len(I) - len(E)) < 0.5]
            zeta = A[E].T @ rng.integers(-2, 3, len(E)) + A[P].T @ rng.integers(0, 3, len(P))
            eta = np.zeros(d) if rng.random() < 0.5 else rng.integers(-2, 3, d)
        else:
            zeta, eta = rng.integers(-2, 3, d), rng.integers(-2, 3, d)
        zeta, eta = np.asarray(zeta, dtype=float), np.asarray(eta, dtype=float)
        verdict = oracle_membership(Polyhedron(A, b), GraphPoint(z, g),
                                    NormalPair(zeta, eta)).verdict
        queries.append(("random-small", len(I), A, b, z, g, zeta, eta, verdict))
    for cell, count, k in PRISM_MIX:
        for j in range(count):
            rows = k or (9 + j % 2 if cell == "prism-cap" else int(rng.integers(4, 7)))
            A, b = _prism(rng, rows)
            eta = np.array([0.0, 0.0, float(rng.choice([-2, -1, 1, 2]))])
            g = np.zeros(3)
            member = cell == "prism-member" or (cell == "prism-cap" and j % 2 == 0)
            if member:
                P = rng.choice(rows, int(rng.integers(1, 4)), replace=False)
                zeta = A[P].T @ rng.integers(1, 4, len(P)).astype(float)
            else:
                zeta = A[:rows].T @ rng.integers(0, 3, rows).astype(float)
                zeta[2] = float(rng.choice([-2, -1, 1, 2]))
            if cell == "non-graph":
                g[2] = 1.0       # -g has an e3 component: not normal at z = 0
                verdict = "empty_coderivative"
            else:
                verdict = "member" if member else "not_member"
            queries.append((cell, rows, A, b, np.zeros(3), g, zeta, eta, verdict))
    ops = []
    for i, (cell, rows, A, b, z, g, zeta, eta, verdict) in enumerate(queries):
        path = _write(workdir / ("q%03d.json" % i),
                      {"Z": {"A": A.tolist(), "b": b.tolist()}, "z": z.tolist(),
                       "g": g.tolist(), "zeta": zeta.tolist(), "eta": eta.tolist()})
        ops.append(Op(["gph-normal", "--input", path, "--method", "direct"],
                      cell, rows, _expect_verdict(verdict)))
    warm = [op for op in ops if op.cell == "random-small"][:5]
    return Workload("coderivative_queries", CODERIVATIVE_WHY, _shuffled(rng, ops), warm)


# ---------------------------------------------------------------------------
# newsvendor_pipeline

NEWSVENDOR_WHY = (
    "newsvendor gridsearch/solve/verify on kernel-newsvendor problems, "
    "n in {20,40,80} x d_x in {1,3}. Gridsearch is hot in newsvendor.nw_weights "
    "(p95, ops_per_s); solve and verify set p50. Touches no lp or cones code.")

NV_GRID = (0.1, 0.2, 0.4, 0.8, 1.6)
NV_THETAS = (0.2, 0.4, 0.8, 1.6)
# Problems per (n, d_x) cell. Each gets one solve and a verify of two
# certificates at every NV_THETAS bandwidth; the first one also a gridsearch.
# Verifies hold p50 and the n=80 solves p95.
NV_PROBLEMS_PER_CELL = 4
NV_H, NV_B = 1.0, 3.0


def _check_gridsearch(totals):
    best = min(totals.values())

    def check(code, stdout):
        if code != 0:
            return "exit %s, expected 0" % code
        out = _json_out(stdout)
        theta = out and out.get("theta")
        if theta not in totals:
            return "bandwidth %r is not on the grid" % (theta,)
        if totals[theta] > best + 1e-9 * max(1.0, abs(best)):
            return "bandwidth %r has regret %.12g > best %.12g" % (theta, totals[theta], best)
        return None
    return check


def _check_solve(weights, ys, theta, expected):
    def check(code, stdout):
        if code != 0:
            return "exit %s, expected 0" % code
        out = _json_out(stdout)
        z = np.asarray(out.get("decisions", []) if out else [], dtype=float)
        if z.shape != expected.shape:
            return "expected %d decisions" % len(expected)
        res = ref.quantile_residual(weights, ys, theta, NV_H, NV_B, z)
        if np.max(res) > 1e-7 or np.max(np.abs(z - expected)) > 1e-6:
            return "decision misses the quantile condition by %.3g" % np.max(res)
        return None
    return check


def _check_verify(exits, balanced, z):
    def check(code, stdout):
        if code not in exits:
            return "exit %s, expected %s" % (code, sorted(exits))
        out = _json_out(stdout)
        scen = out["report"]["scenarios"] if out else []
        if len(scen) != len(z):
            return "expected %d scenario reports" % len(z)
        if any(s["lower_residual"] > VERIFY_TOL for s in scen):
            return "a lower residual exceeds tol at a quantile decision"
        if not all(s["m_membership"] for s in scen):
            return "a coderivative membership failed"
        if balanced and any(s["m_residual"] > VERIFY_TOL
                            for s, zn in zip(scen, z) if zn > ref.ACTIVE_EPS):
            return "a balanced scenario line has a residual above tol"
        return None
    return check


def build_newsvendor(seed, workdir):
    rng = np.random.default_rng([seed, 3])
    q = NV_B / (NV_H + NV_B)
    ops = []
    for n in (20, 40, 80):
        for d_x in (1, 3):
            cell = "n%d-dx%d" % (n, d_x)
            for j in range(NV_PROBLEMS_PER_CELL):
                xs = rng.uniform(-1.0, 1.0, (n, d_x))
                ys = 3.0 + 1.5 * np.sin(2.0 * xs[:, 0]) + 0.5 * rng.standard_normal(n)
                pts = [{"x": x.tolist(), "y": float(y)} for x, y in zip(xs, ys)]
                stem = "%s-%d" % (cell, j)
                prob = _write(workdir / (stem + ".problem.json"),
                              {"schema": "mstat/1", "type": "newsvendor_kernel",
                               "h": NV_H, "b": NV_B, "centers": pts, "samples": pts,
                               "theta_bounds": [1e-3, 1e3], "weights": [1.0 / n] * n})
                if j == 0:
                    totals = {t: ref.loo_regret(xs, ys, t, NV_H, NV_B) for t in NV_GRID}
                    ops.append(Op(["newsvendor", "gridsearch", "--problem", prob,
                                   "--grid", ",".join(repr(t) for t in NV_GRID)],
                                  "gridsearch-" + cell, 0, _check_gridsearch(totals)))
                for i, theta in enumerate(NV_THETAS):
                    w = ref.kernel_weights(xs, xs, theta)
                    z = ref.quantiles(w, ys, theta, q)
                    rows = int(np.any(z <= ref.ACTIVE_EPS))
                    if i == j % len(NV_THETAS):
                        ops.append(Op(["newsvendor", "solve", "--problem", prob,
                                       "--theta", repr(theta)],
                                      "solve-" + cell, rows, _check_solve(w, ys, theta, z)))
                    # Balanced certificates zero the scenario line of every
                    # interior decision; their bandwidth line is left to fail.
                    sub = np.where(z > ys, NV_H, -NV_B)
                    pdf = ref.mixture_pdf(w, ys, theta, z)
                    eta = np.where(z > ref.ACTIVE_EPS, -sub / ((NV_H + NV_B) * pdf), 0.0)
                    slope = ref.bandwidth_cdf_slope(xs, ys, theta, xs, z)
                    upper = abs(np.mean((NV_H + NV_B) * slope * eta))
                    for tag, e, exits in (("zero", np.zeros(n), {2}),
                                          ("balanced", eta, {2} if upper > 1e-6 else {0, 2})):
                        cert = _write(workdir / ("%s-t%s-%s.json" % (stem, theta, tag)),
                                      {"theta": theta, "scenarios": [
                                          {"z": float(zn), "eta": float(en), "zeta": 0.0}
                                          for zn, en in zip(z, e)]})
                        ops.append(Op(["newsvendor", "verify", "--problem", prob,
                                       "--certificate", cert],
                                      "verify-" + cell, rows,
                                      _check_verify(exits, tag == "balanced", z)))
    warm = [op for op in ops if op.cell.endswith("n20-dx1")][:4]
    return Workload("newsvendor_pipeline", NEWSVENDOR_WHY, _shuffled(rng, ops), warm)


BUILDERS = {"portfolio_verify": build_portfolio,
            "coderivative_queries": build_coderivative,
            "newsvendor_pipeline": build_newsvendor}


def build(name, seed, workdir):
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir)
