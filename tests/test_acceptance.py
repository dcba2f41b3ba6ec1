"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run with -s to stream
them); a failed assertion marks the criterion red without weakening it.
"""

import itertools
import time

import numpy as np
from scipy.stats import norm

from mstat.cones import orthant_polyhedron, simplex_polyhedron
from mstat.graph_normals import (
    GraphPoint,
    NormalPair,
    oracle_membership,
    orthant_membership,
    polyhedron_membership,
    simplex_membership,
)
from mstat.newsvendor import (
    KernelModel,
    conditional_cdf,
    grad_theta_cdf,
    solve_newsvendor,
)
from mstat.portfolio import (
    PortfolioInstance,
    as_problem,
    realizable_certificate,
    solve_simplex_qp,
)
from mstat.stationarity import (
    Certificate,
    FeasibleSet,
    LowerModel,
    nnamcq_check,
    value_function,
    value_subdifferential,
    verify_certificate,
    verify_certificate_penalized,
)
from conftest import (
    QuadraticLowerModel,
    grid_solver,
    projected_gradient_qp,
    qp_point_kkt,
    random_polyhedral_graph_point,
    random_simplex_graph_point,
)


def report(num, ok, detail):
    line = "[criterion %2d] %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence_on_random_polyhedra():
    rng = np.random.default_rng(101)
    t0 = time.time()
    instances = 0
    queries = 0
    mismatches = 0
    while instances < 200:
        poly, z, g = random_polyhedral_graph_point(rng, d_max=3, m_max=5)
        instances += 1
        gp = GraphPoint(z, g)
        for _ in range(3):
            q = NormalPair(rng.integers(-2, 3, poly.dim).astype(float),
                           rng.integers(-2, 3, poly.dim).astype(float))
            fast = polyhedron_membership(poly, gp, q).member
            slow = oracle_membership(poly, gp, q).member
            queries += 1
            mismatches += int(fast != slow)
    elapsed = time.time() - t0
    report(1, mismatches == 0 and elapsed < 30.0,
           "%d instances, %d queries, %d mismatches, %.1fs"
           % (instances, queries, mismatches, elapsed))


def test_criterion_2_orthant_specialization_exhaustive():
    total = 0
    mismatches = 0
    for d in (1, 2, 3):
        poly = orthant_polyhedron(d)
        for zg in itertools.product([(1, 0), (0, 0), (0, 1)], repeat=d):
            z = np.array([t[0] for t in zg], dtype=float)
            g = np.array([t[1] for t in zg], dtype=float)
            gp = GraphPoint(z, g)
            for zeta in itertools.product([-1, 0, 1], repeat=d):
                for eta in itertools.product([-1, 0, 1], repeat=d):
                    q = NormalPair(np.array(zeta, dtype=float),
                                   np.array(eta, dtype=float))
                    fast = orthant_membership(z, g, q).member
                    gen = polyhedron_membership(poly, gp, q).member
                    total += 1
                    mismatches += int(fast != gen)
    report(2, mismatches == 0,
           "%d exhaustive sign patterns, %d mismatches" % (total, mismatches))


def test_criterion_3_simplex_specialization_random():
    rng = np.random.default_rng(103)
    polys = {d: simplex_polyhedron(d) for d in (2, 3)}
    queries = 0
    mismatches = 0
    while queries < 500:
        d = int(rng.integers(2, 4))
        z, g = random_simplex_graph_point(rng, d)
        q = NormalPair(rng.integers(-2, 3, d).astype(float),
                       rng.integers(-2, 3, d).astype(float))
        fast = simplex_membership(z, g, q).member
        gen = polyhedron_membership(polys[d], GraphPoint(z, g), q).member
        queries += 1
        mismatches += int(fast != gen)
    report(3, mismatches == 0,
           "%d random simplex queries, %d mismatches" % (queries, mismatches))


def test_criterion_4_bandwidth_gradient_fidelity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        d_x = int(rng.integers(1, 4))
        centers = [(rng.normal(size=d_x), float(rng.normal() * 2))
                   for _ in range(n)]
        theta = float(rng.uniform(0.5, 2.0))
        model = KernelModel(centers, theta)
        x = rng.normal(size=d_x)
        y = float(rng.normal() * 2)
        analytic = grad_theta_cdf(model, y, x)
        step = 1e-5
        fd = (conditional_cdf(model.with_theta(theta + step), y, x)
              - conditional_cdf(model.with_theta(theta - step), y, x)) / (2 * step)
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6))
    report(4, worst <= 1e-6, "max relative error %.3g over 100 models" % worst)


def test_criterion_5_newsvendor_quantiles():
    m = KernelModel([([0.0], 5.0)], 2.0)
    z_med = solve_newsvendor(m, [0.0], 1.0, 1.0)
    med_ok = abs(z_med - 5.0) <= 1e-10

    z_q = solve_newsvendor(m, [0.0], 1.0, 3.0)
    res_ok = abs(4.0 * conditional_cdf(m, z_q, [0.0]) - 3.0) <= 1e-12
    pinned = 5.0 + 2.0 * norm.ppf(0.75)
    pin_ok = abs(z_q - pinned) <= 1e-4

    rng = np.random.default_rng(105)
    interior_ok = True
    for _ in range(25):
        mm = KernelModel([(rng.normal(size=1), float(rng.normal() + 5))
                          for _ in range(int(rng.integers(1, 6)))],
                         float(rng.uniform(0.5, 2.0)))
        h = float(rng.uniform(0.3, 2.0))
        b = float(rng.uniform(0.3, 2.0))
        z = solve_newsvendor(mm, [0.0], h, b)
        if z > 0:
            interior_ok &= abs((h + b) * conditional_cdf(mm, z, [0.0]) - b) <= 1e-12
    report(5, med_ok and res_ok and pin_ok and interior_ok,
           "median gap %.1e, quantile residual ok=%s, pinned %.6f vs %.6f"
           % (abs(z_med - 5.0), res_ok and interior_ok, z_q, pinned))


def test_criterion_6_qp_against_projected_gradient():
    rng = np.random.default_rng(106)
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        B = rng.standard_normal((d, d))
        sigma = B @ B.T + 0.3 * np.eye(d)
        lam = float(rng.uniform(0.5, 2.0))
        r = 2.0 * rng.standard_normal(d)
        z = solve_simplex_qp(r, sigma, lam)
        worst_kkt = max(worst_kkt, qp_point_kkt(r, sigma, lam, z))
        z_ref = projected_gradient_qp(r, sigma, lam)
        worst_gap = max(worst_gap, float(np.max(np.abs(z - z_ref))))
    report(6, worst_gap <= 1e-6 and worst_kkt <= 1e-10,
           "100 instances, max |z - z_pgd| %.2e, max KKT residual %.2e"
           % (worst_gap, worst_kkt))


def _criterion7_instance():
    theta0 = np.array([[0.3, 0.1], [0.05, 0.25]])
    xs = [np.array([1.0, 0.2]), np.array([0.4, 1.0]), np.array([1.0, 1.0]),
          np.array([0.7, 0.5]), np.array([0.2, 0.9])]
    samples = [(x, theta0.T @ x) for x in xs]
    inst = PortfolioInstance(sigma=np.eye(2), risk_aversion=1.0, samples=samples)
    return inst, theta0


def test_criterion_7_end_to_end_portfolio_stationarity():
    inst, theta0 = _criterion7_instance()
    cert, _ = realizable_certificate(inst, theta0)
    prob = as_problem(inst)
    base = verify_certificate(prob, cert, tol=1e-8)
    all_perturbed_fail = True
    for a in range(2):
        for b in range(2):
            bad = theta0.copy()
            bad[a, b] += 0.1
            rep = verify_certificate(
                prob, Certificate.from_rows(bad.ravel(), cert.z, cert.eta, cert.zeta,
                                            cert.given),
                tol=1e-8)
            all_perturbed_fail &= not rep.passed
    report(7, base.passed and all_perturbed_fail,
           "realizable certificate passes=%s, all 4 single-entry "
           "perturbations fail=%s" % (base.passed, all_perturbed_fail))


def test_criterion_8_penalized_zero_mu_reduction():
    inst, theta0 = _criterion7_instance()
    cert, _ = realizable_certificate(inst, theta0)
    prob = as_problem(inst)
    convex = verify_certificate(prob, cert, tol=1e-8)
    pen_cert = Certificate(theta=cert.theta, scenarios=[
        {"z": z, "eta": eta, "zeta": zeta, "mu": 0.0}
        for z, eta, zeta in zip(cert.z, cert.eta, cert.zeta)])
    penalized = verify_certificate_penalized(prob, pen_cert, tol=1e-8)
    agree = {**convex.to_dict(), "mode": None} == {**penalized.to_dict(), "mode": None}
    report(8, agree and convex.passed and penalized.passed,
           "field-by-field agreement: %s" % agree)


def test_criterion_9_nnamcq():
    rng = np.random.default_rng(109)

    class SimplexQP(LowerModel):
        def __init__(self, r, sigma):
            self.r = r
            self.sigma = sigma
            self.feasible_set = FeasibleSet.simplex(len(r))

        def cost(self, z, theta, x):
            z = np.asarray(z, dtype=float)
            return float(-self.r @ z + 0.5 * z @ self.sigma @ z)

        def grad_z(self, z, theta, x):
            return -self.r + self.sigma @ np.asarray(z, dtype=float)

        def hess_zz(self, z, theta, x):
            return self.sigma

        def hess_ztheta(self, z, theta, x):
            return np.zeros((len(self.r), 1))

        def grad_theta(self, z, theta, x):
            return np.zeros(1)

    all_true = True
    for _ in range(50):
        d = int(rng.integers(2, 5))
        B = rng.standard_normal((d, d))
        sigma = B @ B.T + 0.5 * np.eye(d)
        r = rng.standard_normal(d)
        z = solve_simplex_qp(r, sigma, 1.0)
        all_true &= nnamcq_check(SimplexQP(r, sigma), np.zeros(1), None, z)

    degenerate = QuadraticLowerModel(np.zeros((1, 1)), np.zeros((1, 1)),
                                     FeasibleSet.orthant(1))
    degenerate_false = nnamcq_check(degenerate, np.zeros(1), None,
                                    np.zeros(1)) is False
    report(9, all_true and degenerate_false,
           "50 convex scenarios all true=%s, degenerate flat case false=%s"
           % (all_true, degenerate_false))


def test_criterion_10_value_function_calculus():
    model = QuadraticLowerModel(np.zeros((1, 1)), np.eye(1),
                                FeasibleSet.box([-1.0], [1.0]))
    solver = grid_solver([[v] for v in np.linspace(-1.0, 1.0, 17)])
    [vf] = value_function(model, [0.0], [None], [[0.0]], solver)
    sub = value_subdifferential(model, [0.0], None, vf.argmin_points)
    gens = sorted(g[0] for g in sub.generators)
    span_ok = gens[0] == -1.0 and gens[-1] == 1.0
    # min over the solution set of <grad_theta c(z), d> at d = 1
    dd = min(float(model.grad_theta(z, [0.0], None) @ [1.0]) for z in vf.argmin_points)
    report(10, span_ok and dd == -1.0,
           "generator span [%.1f, %.1f], directional derivative %.1f"
           % (gens[0], gens[-1], dd))
