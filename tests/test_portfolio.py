import warnings

import numpy as np
import pytest

from mstat.portfolio import (
    LinearPredictor,
    PortfolioInstance,
    PortfolioLowerModel,
    as_problem,
    empirical_spo_objective,
    fit_least_squares,
    read_samples_csv,
    realizable_certificate,
    solve_simplex_qp,
    spo_local_search,
    spo_loss,
)
from mstat.stationarity import (
    Certificate,
    ScenarioCertificate,
    gradient_selftest,
    verify_certificate,
)
from conftest import projected_gradient_qp

I2 = np.eye(2)


def small_instance(theta0=None, xs=None):
    theta0 = np.array([[0.3, 0.1], [0.05, 0.25]]) if theta0 is None else theta0
    if xs is None:
        xs = [np.array([1.0, 0.2]), np.array([0.4, 1.0]), np.array([1.0, 1.0]),
              np.array([0.7, 0.5]), np.array([0.2, 0.9])]
    samples = [(x, theta0.T @ x) for x in xs]
    return PortfolioInstance(sigma=I2, risk_aversion=1.0, samples=samples), theta0


# ---------------------------------------------------------------------------
# instance validation

def test_instance_rejects_bad_sigma():
    with pytest.raises(ValueError):
        PortfolioInstance(sigma=[[1.0, 2.0], [0.0, 1.0]], risk_aversion=1.0,
                          samples=[([1.0], [0.0, 0.0])])
    with pytest.raises(ValueError):
        PortfolioInstance(sigma=[[1.0, 0.0], [0.0, -1.0]], risk_aversion=1.0,
                          samples=[([1.0], [0.0, 0.0])])
    with pytest.raises(ValueError):
        PortfolioInstance(sigma=I2, risk_aversion=0.0,
                          samples=[([1.0], [0.0, 0.0])])


# ---------------------------------------------------------------------------
# the QP solver

def test_qp_rejects_returns_the_projection_cannot_resolve():
    """Returns beyond 1e150, and an unconstrained optimum of 2^52 or more,
    where the simplex projection of the start can find no support, are each
    a ValueError, with no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in ([1e300, 1.0], [np.nan, 0.0], [np.inf, 0.0], [1e308, 1e308]):
            with pytest.raises(ValueError, match="predicted returns"):
                solve_simplex_qp(r, I2, 1.0)
        for r, lam in (([1e16, 0.0], 1.0), ([1e150, 0.0], 1.0), ([1.0, 0.5], 1e-310)):
            with pytest.raises(ValueError, match="unconstrained optimum"):
                solve_simplex_qp(r, I2, lam)
        assert solve_simplex_qp([1e15, 0.0], I2, 1.0).z.tolist() == [1.0, 0.0]


def test_qp_known_solutions():
    assert np.allclose(solve_simplex_qp([1.0, 0.0], I2, 1.0).z, [1.0, 0.0])
    assert np.allclose(solve_simplex_qp([0.0, 0.0], I2, 1.0).z, [0.0, 0.0])
    assert np.allclose(solve_simplex_qp([3.0, 1.0], I2, 1.0).z, [1.0, 0.0])


def test_qp_kkt_and_pgd_agreement(rng):
    for _ in range(40):
        d = int(rng.integers(2, 5))
        B = rng.standard_normal((d, d))
        sigma = B @ B.T + 0.3 * np.eye(d)
        lam = float(rng.uniform(0.5, 2.0))
        r = rng.standard_normal(d) * 2.0
        sol = solve_simplex_qp(r, sigma, lam)
        assert sol.kkt_residual <= 1e-10
        z_ref = projected_gradient_qp(r, sigma, lam)
        assert np.max(np.abs(sol.z - z_ref)) <= 1e-6


def test_qp_rejects_non_pd():
    with pytest.raises(np.linalg.LinAlgError):
        solve_simplex_qp([1.0, 1.0], np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)


# ---------------------------------------------------------------------------
# SPO loss

def test_spo_loss_worked_examples():
    inst = PortfolioInstance(sigma=I2, risk_aversion=1.0,
                             samples=[([1.0], [1.0, 0.0])])
    assert spo_loss(LinearPredictor([[1.0, 0.0]]), [1.0], [1.0, 0.0], inst) == 0.0
    assert abs(spo_loss(LinearPredictor([[0.0, 1.0]]), [1.0], [1.0, 0.0], inst)
               - 1.0) < 1e-12


def test_spo_loss_not_scale_invariant():
    """Doubling a prediction moves the mean-variance optimum; the regression
    pins the induced decisions and the resulting regret."""
    inst = PortfolioInstance(sigma=I2, risk_aversion=1.0,
                             samples=[([1.0], [0.3, 0.0])])
    pred = LinearPredictor([[0.6, 0.0]])
    assert np.allclose(solve_simplex_qp([0.6, 0.0], I2, 1.0).z, [0.6, 0.0])
    assert np.allclose(solve_simplex_qp([0.3, 0.0], I2, 1.0).z, [0.3, 0.0])
    assert abs(spo_loss(pred, [1.0], [0.3, 0.0], inst) - 0.045) < 1e-12


def test_spo_loss_nonnegative_and_zero_on_exact_predictions(rng):
    for _ in range(100):
        d_z = int(rng.integers(2, 4))
        d_x = int(rng.integers(1, 4))
        B = rng.standard_normal((d_z, d_z))
        sigma = B @ B.T + 0.4 * np.eye(d_z)
        theta = rng.standard_normal((d_x, d_z))
        x = rng.standard_normal(d_x)
        r = theta.T @ x
        inst = PortfolioInstance(sigma=sigma, risk_aversion=1.0, samples=[(x, r)])
        exact = spo_loss(LinearPredictor(theta), x, r, inst)
        assert abs(exact) <= 1e-10
        noisy = spo_loss(LinearPredictor(theta + 0.5 * rng.standard_normal(theta.shape)),
                         x, r, inst)
        assert noisy >= -1e-10


# ---------------------------------------------------------------------------
# model plumbing

def test_lower_model_gradients_match_finite_differences(rng):
    inst, theta0 = small_instance()
    lm = PortfolioLowerModel(inst)
    x = inst.samples[0][0]
    theta = theta0.ravel()
    gradient_selftest(lm, theta, x, [np.array([0.2, 0.3]), np.array([0.6, 0.1])])
    # cross Hessian against finite differences of grad_z in theta
    z = np.array([0.25, 0.4])
    M = lm.hess_ztheta(z, theta, x)
    h = 1e-6
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd = (lm.grad_z(z, theta + e, x) - lm.grad_z(z, theta - e, x)) / (2 * h)
        assert np.max(np.abs(M[:, j] - fd)) < 1e-7
    # the same products as the Kronecker form, signed zeros included
    for xk in (x, np.array([0.0, -0.0, -1.5]), np.array([-2.0])):
        kron = -np.kron(xk.reshape(-1, 1), np.eye(inst.d_z)).T
        assert lm.hess_ztheta(z, theta, xk).tobytes() == kron.tobytes()
    # grad_theta against finite differences of cost
    gt = lm.grad_theta(z, theta, x)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd = (lm.cost(z, theta + e, x) - lm.cost(z, theta - e, x)) / (2 * h)
        assert abs(gt[j] - fd) < 1e-7


# ---------------------------------------------------------------------------
# stationarity systems

def test_realizable_certificate_verifies_and_perturbations_fail():
    inst, theta0 = small_instance()
    cert, betas = realizable_certificate(inst, theta0)
    prob = as_problem(inst)
    assert verify_certificate(prob, cert, tol=1e-8).passed
    for a in range(2):
        for b in range(2):
            bad_theta = theta0.copy()
            bad_theta[a, b] += 0.1
            bad = verify_certificate(
                prob, type(cert)(theta=bad_theta.ravel(), scenarios=cert.scenarios),
                tol=1e-8)
            assert not bad.passed, (a, b)


def test_portfolio_system_pass_and_failures():
    inst, theta0 = small_instance()
    cert, _ = realizable_certificate(inst, theta0)
    prob = as_problem(inst)
    assert verify_certificate(prob, cert).passed

    bad_theta = theta0.copy()
    bad_theta[0, 0] += 0.1
    rep_bad = verify_certificate(prob, Certificate(theta=bad_theta, scenarios=cert.scenarios))
    assert not rep_bad.passed
    assert max(s.lower_residual for s in rep_bad.scenarios) > 1e-3

    # break the eta sum condition on a budget-active scenario
    inst_b = PortfolioInstance(sigma=I2, risk_aversion=1.0,
                               samples=[([1.0], [2.0, 1.0])])
    z = solve_simplex_qp([2.0, 1.0], I2, 1.0).z
    assert abs(z.sum() - 1.0) < 1e-9
    zeta = np.array([2.0, 1.0]) - z
    for eta, passed in (([0.0, 0.0], True), ([0.5, 0.5], False)):
        rep = verify_certificate(as_problem(inst_b), Certificate(
            theta=[[2.0, 1.0]], scenarios=[ScenarioCertificate(z=z, eta=eta, zeta=zeta)]))
        assert rep.passed is passed


def test_portfolio_m_residual_is_the_force_balance_norm():
    """The report is the same for flat and matrix theta, and m_residual is
    the Euclidean norm of the force balance."""
    inst, theta0 = small_instance()
    cert, _ = realizable_certificate(inst, theta0)
    lam, sig = inst.risk_aversion, inst.sigma
    for shift in (0.0, 0.05):
        scenarios = [ScenarioCertificate(z=s.z, eta=s.eta + shift, zeta=s.zeta)
                     for s in cert.scenarios]
        reports = [verify_certificate(as_problem(inst),
                                      Certificate(theta=theta, scenarios=scenarios))
                   for theta in (theta0, theta0.ravel())]
        assert reports[0].to_dict() == reports[1].to_dict()
        assert reports[0].passed == (shift == 0.0)
        for (x, r), p, s in zip(inst.samples, scenarios, reports[0].scenarios):
            force = -r + lam * (sig @ (p.z + p.eta)) + p.zeta
            assert abs(s.m_residual - np.linalg.norm(force)) <= 1e-15


def test_system_force_balance_identity(rng):
    """eta^T zeta = eta^T (r - lam Sigma (z + eta)) on any passing system."""
    inst, theta0 = small_instance()
    cert, _ = realizable_certificate(inst, theta0)
    lam, sig = inst.risk_aversion, inst.sigma
    for (x, r), s in zip(inst.samples, cert.scenarios):
        lhs = s.eta @ s.zeta
        rhs = s.eta @ (r - lam * (sig @ (s.z + s.eta)))
        assert abs(lhs - rhs) < 1e-12


def test_realizable_scenarios_cross_check_with_face_oracle():
    """Each scenario's (zeta, eta = 0) membership is confirmed by the
    exhaustive face-pair oracle over the simplex inequality system."""
    from mstat.cones import simplex_polyhedron
    from mstat.graph_normals import GraphPoint, NormalPair, oracle_membership

    inst, theta0 = small_instance()
    cert, _ = realizable_certificate(inst, theta0)
    poly = simplex_polyhedron(inst.d_z)
    lam, sig = inst.risk_aversion, inst.sigma
    for (x, r), s in zip(inst.samples, cert.scenarios):
        g = -(theta0.T @ x) + lam * (sig @ s.z)
        res = oracle_membership(poly, GraphPoint(s.z, g),
                                NormalPair(s.zeta, s.eta))
        assert res.member


def test_verify_reports_the_beta_the_sign_conditions_pin():
    """Each scenario witness carries the beta that realizable_certificate
    reads off the simplex membership; a certificate carries none. Large
    returns put the decisions on the budget face, where beta need not be 0."""
    inst, theta0 = small_instance(theta0=np.array([[3.0, 1.0], [0.5, 2.5]]))
    cert, betas = realizable_certificate(inst, theta0)
    rep = verify_certificate(as_problem(inst), cert)
    assert rep.passed and [s.witness["beta"] for s in rep.scenarios] == betas
    assert any(b not in (None, 0.0) for b in betas)


# ---------------------------------------------------------------------------
# fitting and search

def test_fit_least_squares_recovers_realizable_theta():
    inst, theta0 = small_instance()
    fit = fit_least_squares(inst)
    assert np.max(np.abs(fit.theta - theta0)) < 1e-6


def test_fit_least_squares_single_sample():
    x = np.array([2.0])
    r = np.array([1.0, 3.0])
    inst = PortfolioInstance(sigma=I2, risk_aversion=1.0, samples=[(x, r)])
    fit = fit_least_squares(inst)
    expected = np.outer(x, r) / (x @ x + 1e-10)
    assert np.max(np.abs(fit.theta - expected)) < 1e-9


def test_fit_least_squares_normal_equations_residual(rng):
    xs = rng.standard_normal((8, 3))
    theta_true = rng.standard_normal((3, 2))
    rs = xs @ theta_true + 0.1 * rng.standard_normal((8, 2))
    inst = PortfolioInstance(sigma=I2, risk_aversion=1.0,
                             samples=list(zip(xs, rs)))
    fit = fit_least_squares(inst, ridge=0.0)
    resid = xs.T @ (xs @ fit.theta - rs)
    assert np.max(np.abs(resid)) <= 1e-8


def test_objective_zero_at_realizable_theta_and_ls_not_better():
    inst, theta0 = small_instance()
    obj0 = empirical_spo_objective(LinearPredictor(theta0), inst)
    assert abs(obj0) <= 1e-10
    obj_ls = empirical_spo_objective(fit_least_squares(inst), inst)
    assert obj_ls >= obj0 - 1e-12


def test_local_search_monotone_history():
    inst, theta0 = small_instance(xs=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    start = theta0.copy()
    start[0, 0] += 0.5
    pred, history = spo_local_search(inst, start, steps=30, seed=0,
                                     return_history=True)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
    assert history[-1] < history[0]
    assert history[-1] <= 1e-10
    pred2 = spo_local_search(inst, start, steps=30, seed=0)
    assert np.array_equal(pred.theta, pred2.theta)


# ---------------------------------------------------------------------------
# serialization

def test_round_trip_and_csv(tmp_path):
    inst, _ = small_instance()
    again = PortfolioInstance.from_dict(inst.to_dict())
    assert np.allclose(again.sigma, inst.sigma)
    assert all(np.allclose(a[1], b[1]) for a, b in zip(again.samples, inst.samples))

    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("x_1,x_2,r_1,r_2\n1.0,0.5,0.2,0.1\n0.3,0.4,0.05,0.2\n")
    samples = read_samples_csv(str(csv_path), 2, 2)
    assert len(samples) == 2 and samples[1][0] == [0.3, 0.4]
    bad = tmp_path / "bad.csv"
    bad.write_text("x_1,r_1\n1.0,oops\n")
    with pytest.raises(ValueError) as err:
        read_samples_csv(str(bad), 1, 1)
    assert "row 2" in str(err.value)
