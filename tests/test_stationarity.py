import warnings

import numpy as np
import pytest

from conftest import (QuadraticLowerModel, grid_solver, m_stationarity_check, nnamcq_oracle,
                      projected_gradient_solver, psi_set, random_polyhedral_graph_point)
from mstat.cones import (CombinatorialLimitError, Polyhedron, distance_to_normal_cone,
                         normal_cone_multiplier, orthant_polyhedron, simplex_polyhedron)
from mstat.graph_normals import make_graph_context
from mstat.stationarity import (
    Certificate,
    FeasibleSet,
    LowerModel,
    ParameterSet,
    Problem,
    Scenario,
    ScenarioCertificate,
    UpperModel,
    gradient_selftest,
    lower_residual,
    nnamcq_check,
    upper_residual,
    value_function,
    value_subdifferential,
    verify_certificate,
    verify_certificate_penalized,
)


# ---------------------------------------------------------------------------
# small models used throughout

class ShiftedQuadratic(LowerModel):
    """c(z) = ||z - target||^2 / 2 on the orthant; theta unused."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.feasible_set = FeasibleSet.orthant(len(self.target))

    def cost(self, z, theta, x):
        return 0.5 * float(np.sum((np.asarray(z, float) - self.target) ** 2))

    def grad_z(self, z, theta, x):
        return np.asarray(z, float) - self.target

    def hess_zz(self, z, theta, x):
        return np.eye(len(self.target))

    def hess_ztheta(self, z, theta, x):
        return np.zeros((len(self.target), 1))

    def grad_theta(self, z, theta, x):
        return np.zeros(1)


class TrackingLower(LowerModel):
    """c(z, theta) = ||z - theta||^2 / 2 on a feasible set; d_theta = d_z."""

    def __init__(self, feasible_set):
        self.feasible_set = feasible_set

    def cost(self, z, theta, x):
        return 0.5 * float(np.sum((np.asarray(z, float) - theta) ** 2))

    def grad_z(self, z, theta, x):
        return np.asarray(z, float) - np.asarray(theta, float)

    def hess_zz(self, z, theta, x):
        return np.eye(self.feasible_set.dim)

    def hess_ztheta(self, z, theta, x):
        return -np.eye(self.feasible_set.dim)

    def grad_theta(self, z, theta, x):
        return np.asarray(theta, float) - np.asarray(z, float)


class TrackingUpper(UpperModel):
    """L(z, y) = ||z - y||^2 / 2; no direct theta dependence."""

    def __init__(self, dim, dim_theta):
        self.dim = dim
        self.theta_set = ParameterSet.free(dim_theta)

    def loss(self, z, x, y, theta):
        return 0.5 * float(np.sum((np.asarray(z, float) - y) ** 2))

    def grad_z(self, z, x, y, theta):
        return np.asarray(z, float) - np.asarray(y, float)

    def grad_theta(self, z, x, y, theta):
        return np.zeros(self.theta_set.dim)


def tracking_problem(y_values, feasible=None, weights=None):
    dim = len(np.atleast_1d(y_values[0]))
    fs = feasible or FeasibleSet.orthant(dim)
    n = len(y_values)
    w = weights if weights is not None else [1.0 / n] * n
    scen = [Scenario(x=np.zeros(1), y=np.atleast_1d(np.asarray(y, float)), weight=wi)
            for y, wi in zip(y_values, w)]
    return Problem(lower=TrackingLower(fs), upper=TrackingUpper(dim, dim),
                   scenarios=scen)


# ---------------------------------------------------------------------------
# gradient self-test and lower residual

def test_gradient_selftest_passes_and_catches_errors():
    m = ShiftedQuadratic([1.0, 1.0])
    assert gradient_selftest(m, np.zeros(1), None, [np.array([0.3, 0.7])]) < 1e-8

    class Broken(ShiftedQuadratic):
        def grad_z(self, z, theta, x):
            return np.asarray(z, float)  # forgot the shift

    with pytest.raises(ValueError):
        gradient_selftest(Broken([1.0, 1.0]), np.zeros(1), None,
                          [np.array([0.3, 0.7])])


def test_lower_residual_cases():
    m = ShiftedQuadratic([1.0, 1.0])
    # at the minimizer the residual vanishes
    assert lower_residual(m, None, None, [1.0, 1.0]) <= 1e-10
    # at the vertex, -grad = (1,1) projects onto the origin of R_-^2
    assert abs(lower_residual(m, None, None, [0.0, 0.0]) - np.sqrt(2)) < 1e-12
    # interior non-stationary point: residual equals the gradient norm
    assert abs(lower_residual(m, None, None, [2.0, 1.0]) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# scenario-level checks

def test_m_stationarity_interior_needs_zero_gradient():
    fs = FeasibleSet.orthant(1)
    lower = TrackingLower(fs)
    upper = TrackingUpper(1, 1)
    theta = np.array([2.0])
    # z = theta interior: eta = 0 demands grad_z L = 0, i.e. y = z
    ok = m_stationarity_check(lower, upper, theta, np.zeros(1),
                              np.array([2.0]), np.array([2.0]), np.zeros(1))
    assert ok["membership"] and ok["residual"] <= 1e-12
    bad = m_stationarity_check(lower, upper, theta, np.zeros(1),
                               np.array([2.5]), np.array([2.0]), np.zeros(1))
    assert not bad["membership"]


def test_m_stationarity_eta_violation_on_positive_multiplier_row():
    fs = FeasibleSet.orthant(1)
    lower = TrackingLower(fs)
    upper = TrackingUpper(1, 1)
    theta = np.array([-2.0])  # minimizer clamps to z = 0 with g = 2 > 0
    good = m_stationarity_check(lower, upper, theta, np.zeros(1),
                                np.array([0.0]), np.array([0.0]), np.zeros(1))
    assert good["membership"]
    bad = m_stationarity_check(lower, upper, theta, np.zeros(1),
                               np.array([0.0]), np.array([0.0]),
                               np.array([0.1]))
    assert not bad["membership"]


def test_nnamcq_cases():
    # strictly convex, interior solution
    fs_box = FeasibleSet.box([-5.0], [5.0])
    pd = TrackingLower(fs_box)
    assert nnamcq_check(pd, np.array([1.0]), None, np.array([1.0])) is True
    # linear objective flat at the boundary: eta = 1, zeta = 0 solves
    flat = QuadraticLowerModel(np.zeros((1, 1)), np.zeros((1, 1)),
                               FeasibleSet.orthant(1))
    assert nnamcq_check(flat, np.zeros(1), None, np.zeros(1)) is False


def test_nnamcq_identity_covariance_vertex():
    """Unit covariance, unit risk weight, a nondegenerate vertex solution."""
    from mstat.portfolio import solve_simplex_qp

    class SimplexQP(LowerModel):
        def __init__(self, r):
            self.r = np.asarray(r, float)
            self.feasible_set = FeasibleSet.simplex(len(r))

        def cost(self, z, theta, x):
            z = np.asarray(z, float)
            return float(-self.r @ z + 0.5 * z @ z)

        def grad_z(self, z, theta, x):
            return -self.r + np.asarray(z, float)

        def hess_zz(self, z, theta, x):
            return np.eye(len(self.r))

        def hess_ztheta(self, z, theta, x):
            return np.zeros((len(self.r), 1))

        def grad_theta(self, z, theta, x):
            return np.zeros(1)

    z = solve_simplex_qp([3.0, 1.0], np.eye(2), 1.0).z
    assert np.allclose(z, [1.0, 0.0])
    assert nnamcq_check(SimplexQP([3.0, 1.0]), np.zeros(1), None, z) is True


def test_nnamcq_simplex_qp_solutions(rng):
    from mstat.portfolio import solve_simplex_qp

    class SimplexQP(LowerModel):
        def __init__(self, r, sigma):
            self.r = r
            self.sigma = sigma
            self.feasible_set = FeasibleSet.simplex(len(r))

        def cost(self, z, theta, x):
            z = np.asarray(z, float)
            return float(-self.r @ z + 0.5 * z @ self.sigma @ z)

        def grad_z(self, z, theta, x):
            return -self.r + self.sigma @ np.asarray(z, float)

        def hess_zz(self, z, theta, x):
            return self.sigma

        def hess_ztheta(self, z, theta, x):
            return np.zeros((len(self.r), 1))

        def grad_theta(self, z, theta, x):
            return np.zeros(1)

    for _ in range(10):
        d = int(rng.integers(2, 4))
        B = rng.standard_normal((d, d))
        sigma = B @ B.T + 0.5 * np.eye(d)
        r = rng.standard_normal(d)
        z = solve_simplex_qp(r, sigma, 1.0).z
        assert nnamcq_check(SimplexQP(r, sigma), np.zeros(1), None, z) is True


def _fixed_quadratic(H, poly, z, g):
    """A quadratic model on Z = poly with hess_zz = H and grad_z = g at z,
    and the theta that puts the gradient there."""
    d = len(z)
    model = QuadraticLowerModel(H, np.eye(d), FeasibleSet.polyhedron(poly))
    return model, g - H @ z


def test_nnamcq_check_matches_the_regime_sweep(rng):
    """The monotonicity rule against the 3^|I| regime sweep on random integer
    graph points, with positive definite, singular PSD and zero Hessians."""
    answers = {"pd": set(), "psd": set(), "zero": set()}
    disagreements = []
    for trial in range(300):
        kind = ("pd", "psd", "zero")[trial % 3]
        poly, z, g = random_polyhedral_graph_point(rng)
        d = len(z)
        rank = {"pd": d, "psd": int(rng.integers(0, d)), "zero": 0}[kind]
        B = rng.integers(-2, 3, (d, rank)).astype(float)
        H = B @ B.T + (np.eye(d) if kind == "pd" else 0.0)
        model, theta = _fixed_quadratic(H, poly, z, g)
        fast = nnamcq_check(model, theta, None, z)
        slow = nnamcq_oracle(model, theta, None, z)
        answers[kind].add(fast)
        if fast != slow:
            disagreements.append((trial, kind, poly.A.tolist(), z.tolist(),
                                  g.tolist(), H.tolist(), fast, slow))
    assert not disagreements, disagreements
    assert answers == {"pd": {True}, "psd": {True, False}, "zero": {True, False}}


def test_nnamcq_positive_definite_vertex_needs_no_cap_and_no_lp(monkeypatch):
    """A d_z = 12 simplex vertex has 12 active rows; lam Sigma is positive
    definite, so no LP runs beyond the graph-point check."""
    import mstat.lp as LP

    rng = np.random.default_rng(12)
    d = 12
    B = rng.standard_normal((d, d))
    H = B @ B.T + 0.5 * np.eye(d)
    poly = simplex_polyhedron(d)
    z = np.eye(d)[0]
    g = -(poly.A.T @ np.concatenate([[0.0], rng.uniform(0.5, 1.5, d - 1), [0.7]]))
    model, theta = _fixed_quadratic(H, poly, z, g)
    with pytest.raises(CombinatorialLimitError):
        nnamcq_oracle(model, theta, None, z)

    calls = []
    solve = LP._solve_standard
    monkeypatch.setattr(LP, "_solve_standard", lambda *a, **k: calls.append(1) or solve(*a, **k))
    assert len(make_graph_context(poly, z, g).active) == d
    graph_point_lps = len(calls)
    assert nnamcq_check(model, theta, None, z) is True
    assert graph_point_lps == 1 and len(calls) == 2 * graph_point_lps


def test_nnamcq_rejects_a_hessian_outside_the_convex_cases():
    poly, z, g = orthant_polyhedron(2), np.zeros(2), np.zeros(2)
    for H in (np.diag([1.0, -1.0]), np.array([[1.0, 1.0], [-1.0, 0.0]])):
        model, theta = _fixed_quadratic(H, poly, z, g)
        with pytest.raises(ValueError, match="symmetric positive semidefinite"):
            nnamcq_check(model, theta, None, z)
    model, theta = _fixed_quadratic(np.array([[1.0, 1.0], [-1.0, 1.0]]), poly, z, g)
    assert nnamcq_check(model, theta, None, z) is True


def test_nnamcq_fails_when_the_active_rows_miss_a_kernel_direction():
    """Three parallel active rows leave a two-dimensional part of ker H = R^3
    on which every active row vanishes, although every set of two rows is
    dependent."""
    A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    poly, z, g = Polyhedron(A, np.zeros(3)), np.zeros(3), np.array([-1.0, 0.0, 0.0])
    model, theta = _fixed_quadratic(np.zeros((3, 3)), poly, z, g)
    assert nnamcq_check(model, theta, None, z) is False
    assert nnamcq_oracle(model, theta, None, z) is False


def test_nnamcq_caps_only_kernels_of_dimension_two_or_more():
    """Nine active rows (i - 4, -1) at z = 0 and -g = a_0 + a_8 = (0, -2)."""
    A = np.array([[i - 4.0, -1.0] for i in range(9)])
    poly, z, g = Polyhedron(A, np.zeros(9)), np.zeros(2), np.array([0.0, 2.0])
    # ker H = span(e2): every row has slope -1, E is empty and cannot carry -g
    model, theta = _fixed_quadratic(np.diag([1.0, 0.0]), poly, z, g)
    assert nnamcq_check(model, theta, None, z) is True
    # ker H = span(e1): E = {row 4} = {(0, -1)} carries -g = 2 (0, -1)
    model, theta = _fixed_quadratic(np.diag([0.0, 1.0]), poly, z, g)
    assert nnamcq_check(model, theta, None, z) is False
    model, theta = _fixed_quadratic(np.zeros((2, 2)), poly, z, g)
    with pytest.raises(CombinatorialLimitError):
        nnamcq_check(model, theta, None, z)


def test_psi_set_generators():
    fs = FeasibleSet.orthant(2)
    lower = TrackingLower(fs)
    upper = TrackingUpper(2, 2)
    theta = np.array([1.0, 2.0])
    y = np.array([1.5, 2.5])
    gens = psi_set(lower, upper, theta, np.zeros(1), y,
                   [np.array([1.0, 2.0])], [np.zeros(2)])
    assert len(gens) == 1 and np.allclose(gens[0], 0.0)
    gens2 = psi_set(lower, upper, theta, np.zeros(1), y,
                    [np.array([1.0, 2.0]), np.array([0.5, 2.0])],
                    [np.zeros(2), np.zeros(2)])
    assert len(gens2) == 2
    # nonzero multiplier feeds through the cross Hessian
    eta = np.array([0.3, -0.4])
    gens3 = psi_set(lower, upper, theta, np.zeros(1), y,
                    [np.array([1.0, 2.0])], [eta])
    assert np.allclose(gens3[0], -eta)


def test_upper_residual_cases():
    prob = tracking_problem([[1.0], [3.0]])
    theta = np.array([2.0])
    scen = [ScenarioCertificate(z=[2.0], eta=[0.0]),
            ScenarioCertificate(z=[2.0], eta=[0.0])]
    cert = Certificate(theta=theta, scenarios=scen)
    # grad_theta L = 0 and eta = 0 everywhere
    assert upper_residual(prob, cert) <= 1e-12
    # one nonzero eta flows through hess_ztheta = -I with its weight
    scen2 = [ScenarioCertificate(z=[2.0], eta=[0.8]),
             ScenarioCertificate(z=[2.0], eta=[0.0])]
    cert2 = Certificate(theta=theta, scenarios=scen2)
    assert abs(upper_residual(prob, cert2) - 0.5 * 0.8) < 1e-12


# ---------------------------------------------------------------------------
# full verification, convex mode

def stationary_tracking_certificate(theta):
    # scenarios y = theta + delta and theta - delta balance: z_n = theta,
    # eta_n = y_n - z_n makes each scenario line exact and the upper sum zero.
    delta = 0.75
    prob = tracking_problem([[theta[0] + delta], [theta[0] - delta]],
                            feasible=FeasibleSet.box([-10.0], [10.0]))
    certs = []
    for y in (theta[0] + delta, theta[0] - delta):
        eta = np.array([y - theta[0]])
        certs.append(ScenarioCertificate(z=np.array([theta[0]]), eta=eta,
                                         zeta=np.zeros(1)))
    return prob, Certificate(theta=theta, scenarios=certs)


def test_verify_certificate_passes_and_fails():
    theta = np.array([1.25])
    prob, cert = stationary_tracking_certificate(theta)
    rep = verify_certificate(prob, cert, tol=1e-8)
    assert rep.passed, rep.to_dict()
    # perturb theta: the lower level becomes non-stationary at the frozen z_n
    bad = Certificate(theta=theta + 0.1, scenarios=cert.scenarios)
    rep_bad = verify_certificate(prob, bad, tol=1e-8)
    assert not rep_bad.passed
    assert max(s.lower_residual for s in rep_bad.scenarios) > 1e-3


def test_verify_certificate_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        Problem(lower=TrackingLower(FeasibleSet.orthant(1)),
                upper=TrackingUpper(1, 1), scenarios=[])
    prob, cert = stationary_tracking_certificate(np.array([0.5]))
    with pytest.raises(ValueError):
        verify_certificate(prob, Certificate(theta=cert.theta,
                                             scenarios=cert.scenarios[:1]))


def test_verify_tolerance_monotone():
    theta = np.array([0.3])
    prob, cert = stationary_tracking_certificate(theta)
    for tol in (1e-10, 1e-8, 1e-4):
        assert verify_certificate(prob, cert, tol=tol).passed


def test_weight_scaling_invariance():
    theta = np.array([1.25])
    delta = 0.75
    ys = [[theta[0] + delta], [theta[0] - delta]]
    w = np.array([0.5, 0.5])
    scaled = 7.0 * w
    scaled /= scaled.sum()
    prob_a = tracking_problem(ys, feasible=FeasibleSet.box([-10.0], [10.0]),
                              weights=w.tolist())
    prob_b = tracking_problem(ys, feasible=FeasibleSet.box([-10.0], [10.0]),
                              weights=scaled.tolist())
    _, cert = stationary_tracking_certificate(theta)
    rep_a = verify_certificate(prob_a, cert)
    rep_b = verify_certificate(prob_b, cert)
    assert rep_a.to_dict() == rep_b.to_dict()


# ---------------------------------------------------------------------------
# value function calculus

def interval_lower():
    # c(z, theta) = theta * z on [-1, 1]
    return QuadraticLowerModel(np.zeros((1, 1)), np.eye(1),
                               FeasibleSet.box([-1.0], [1.0]))


INTERVAL_GRID = grid_solver([[v] for v in np.linspace(-1.0, 1.0, 17)])


def test_value_function_flat_and_pointed():
    m = interval_lower()
    flat = value_function(m, [0.0], None, INTERVAL_GRID)
    assert flat.value == 0.0 and len(flat.argmin_points) == 17
    pointed = value_function(m, [2.0], None, INTERVAL_GRID)
    assert pointed.value == -2.0
    assert len(pointed.argmin_points) == 1
    assert pointed.argmin_points[0][0] == -1.0


def test_value_subdifferential_interval():
    m = interval_lower()
    flat = value_function(m, [0.0], None, INTERVAL_GRID)
    sub = value_subdifferential(m, [0.0], None, flat.argmin_points)
    vals = sorted(g[0] for g in sub.generators)
    assert vals[0] == -1.0 and vals[-1] == 1.0
    assert np.allclose(sub.combine([0.5] + [0.0] * 15 + [0.5]), 0.0)
    with pytest.raises(ValueError):
        sub.combine([1.0 / 17] * 17)  # more than d_theta + 1 active weights
    with pytest.raises(ValueError):
        sub.combine([0.9] + [0.0] * 16)  # does not sum to one


def test_strictly_convex_value_singleton_danskin():
    fs = FeasibleSet.box([-10.0], [10.0])
    m = TrackingLower(fs)
    solver = projected_gradient_solver(n_starts=4, seed=1)
    vf = value_function(m, np.array([0.7]), None, solver)
    assert len(vf.argmin_points) == 1
    sub = value_subdifferential(m, np.array([0.7]), None, vf.argmin_points)
    assert len(sub.generators) == 1
    assert np.allclose(sub.generators[0], 0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# penalized mode

def test_penalized_zero_mu_reduces_to_convex():
    theta = np.array([1.25])
    prob, cert = stationary_tracking_certificate(theta)
    pen_scen = [ScenarioCertificate(z=s.z, eta=s.eta, zeta=s.zeta, mu=0.0)
                for s in cert.scenarios]
    pen_cert = Certificate(theta=theta, scenarios=pen_scen)
    rep_pen = verify_certificate_penalized(prob, pen_cert, tol=1e-8)
    rep_conv = verify_certificate(prob, cert, tol=1e-8)
    assert rep_pen.mode == "penalized" and rep_conv.mode == "convex"
    assert {**rep_pen.to_dict(), "mode": None} == {**rep_conv.to_dict(), "mode": None}


def test_penalized_requires_solver_for_positive_mu():
    theta = np.array([1.25])
    prob, cert = stationary_tracking_certificate(theta)
    pen_scen = [ScenarioCertificate(z=s.z, eta=s.eta, zeta=s.zeta, mu=1.0)
                for s in cert.scenarios]
    with pytest.raises(ValueError):
        verify_certificate_penalized(prob, Certificate(theta=theta,
                                                       scenarios=pen_scen))
    neg = [ScenarioCertificate(z=s.z, eta=s.eta, zeta=s.zeta, mu=-0.5)
           for s in cert.scenarios]
    with pytest.raises(ValueError):
        verify_certificate_penalized(prob, Certificate(theta=theta, scenarios=neg))


class BoundaryLinearLower(LowerModel):
    """c(z, theta) = z^2 / 2 - theta z on the half line; z* = 0 for theta < 0."""

    def __init__(self):
        self.feasible_set = FeasibleSet.orthant(1)

    def cost(self, z, theta, x):
        z = float(np.atleast_1d(z)[0])
        return 0.5 * z * z - float(theta[0]) * z

    def grad_z(self, z, theta, x):
        return np.atleast_1d(np.asarray(z, float)) - np.asarray(theta, float)

    def hess_zz(self, z, theta, x):
        return np.eye(1)

    def hess_ztheta(self, z, theta, x):
        return -np.eye(1)

    def grad_theta(self, z, theta, x):
        return -np.atleast_1d(np.asarray(z, float))


def test_penalized_boundary_case_with_adjusted_zeta():
    """With mu = 1 the scenario line shifts by mu * grad_z c, so the zeta from
    the plain system must be adjusted; both certificates pass their modes."""
    theta = np.array([-0.8])
    y = np.array([0.6])
    lower = BoundaryLinearLower()
    upper = TrackingUpper(1, 1)
    prob = Problem(lower=lower, upper=upper,
                   scenarios=[Scenario(x=np.zeros(1), y=y, weight=1.0)])
    z = np.zeros(1)
    g = lower.grad_z(z, theta, None)              # 0.8 > 0: bound multiplier row
    cert_plain = Certificate(theta=theta, scenarios=[
        ScenarioCertificate(z=z, eta=np.zeros(1), zeta=-upper.grad_z(z, None, y, theta))])
    assert verify_certificate(prob, cert_plain).passed

    solver = projected_gradient_solver(n_starts=4, seed=0)
    mu = 1.0
    zeta_pen = -(upper.grad_z(z, None, y, theta) + mu * g)
    cert_pen = Certificate(theta=theta, scenarios=[
        ScenarioCertificate(z=z, eta=np.zeros(1), zeta=zeta_pen, mu=mu)])
    rep = verify_certificate_penalized(prob, cert_pen, solver=solver)
    assert rep.passed, rep.to_dict()
    assert rep.scenarios[0].value_gap is not None
    assert abs(rep.scenarios[0].value_gap) <= 1e-9
    # reusing the unshifted zeta leaves a residual of exactly mu * |g|
    cert_stale = Certificate(theta=theta, scenarios=[
        ScenarioCertificate(z=z, eta=np.zeros(1),
                            zeta=-upper.grad_z(z, None, y, theta), mu=mu)])
    rep_stale = verify_certificate_penalized(prob, cert_stale, solver=solver)
    assert not rep_stale.passed
    assert abs(rep_stale.scenarios[0].m_residual - mu * abs(g[0])) < 1e-12


class DoubleWellLower(LowerModel):
    """c(z) = (z^2 - 1)^2 / 2 on [-2, 2]: stationary z = 0 sits 0.5 above the
    optimal value attained at z = +-1."""

    def __init__(self):
        self.feasible_set = FeasibleSet.box([-2.0], [2.0])

    def cost(self, z, theta, x):
        z = float(np.atleast_1d(z)[0])
        return 0.5 * (z * z - 1.0) ** 2

    def grad_z(self, z, theta, x):
        z = float(np.atleast_1d(z)[0])
        return np.array([2.0 * z * (z * z - 1.0)])

    def hess_zz(self, z, theta, x):
        z = float(np.atleast_1d(z)[0])
        return np.array([[6.0 * z * z - 2.0]])

    def hess_ztheta(self, z, theta, x):
        return np.zeros((1, 1))

    def grad_theta(self, z, theta, x):
        return np.zeros(1)


class FlatUpper(UpperModel):
    def __init__(self):
        self.theta_set = ParameterSet.free(1)

    def loss(self, z, x, y, theta):
        return 0.0

    def grad_z(self, z, x, y, theta):
        return np.zeros(1)

    def grad_theta(self, z, x, y, theta):
        return np.zeros(1)


def test_penalized_flags_value_gap():
    """A stationary-but-suboptimal lower point fails only the gap condition."""
    prob = Problem(lower=DoubleWellLower(), upper=FlatUpper(),
                   scenarios=[Scenario(x=np.zeros(1), y=0.0, weight=1.0)])
    cert = Certificate(theta=np.zeros(1), scenarios=[
        ScenarioCertificate(z=np.zeros(1), eta=np.zeros(1), zeta=np.zeros(1),
                            mu=0.0)])
    solver = grid_solver([[v] for v in np.linspace(-2.0, 2.0, 17)])
    rep = verify_certificate_penalized(prob, cert, solver=solver)
    assert not rep.passed
    assert abs(rep.scenarios[0].value_gap - 0.5) < 1e-12
    assert rep.scenarios[0].lower_residual <= 1e-10
    assert rep.scenarios[0].m_membership


# ---------------------------------------------------------------------------
# sensitivity identity on strictly convex interiors

def test_upper_residual_matches_finite_difference_of_composed_value():
    """For a strictly convex interior lower level, the stationarity residual
    in theta equals |dV/dtheta| where V(theta) composes the upper loss with
    the unique lower solution."""
    fs = FeasibleSet.box([-10.0], [10.0])
    lower = TrackingLower(fs)
    upper = TrackingUpper(1, 1)
    y = np.array([0.9])
    prob = Problem(lower=lower, upper=upper,
                   scenarios=[Scenario(x=np.zeros(1), y=y, weight=1.0)])
    solver = projected_gradient_solver(n_starts=3, seed=2)
    theta = np.array([0.4])

    # eta from the interior scenario line: 0 = (z - y) + eta with z = theta
    z = value_function(lower, theta, None, solver).argmin_points[0]
    eta = y - z
    cert = Certificate(theta=theta, scenarios=[
        ScenarioCertificate(z=z, eta=eta, zeta=np.zeros(1))])
    resid = upper_residual(prob, cert)

    def V(t):
        zz = value_function(lower, np.array([t]), None, solver).argmin_points[0]
        return upper.loss(zz, None, y, None)

    h = 1e-5
    fd = (V(theta[0] + h) - V(theta[0] - h)) / (2 * h)
    assert abs(resid - abs(fd)) <= 1e-4 * max(1.0, abs(fd))


def test_multiplier_recomputation_agrees_on_nondegenerate_interior():
    """On an interior scenario the multiplier solves a square linear system;
    recomputing it must reproduce the certificate value."""
    fs = FeasibleSet.box([-10.0], [10.0])
    lower = TrackingLower(fs)
    upper = TrackingUpper(1, 1)
    theta = np.array([0.4])
    y = np.array([0.9])
    z = np.array([0.4])
    eta_cert = y - z
    # interior: zeta = 0 and the line reads 0 = (z - y) + eta
    eta_solved = np.linalg.solve(lower.hess_zz(z, theta, None).T,
                                 -upper.grad_z(z, None, y, theta))
    assert np.max(np.abs(eta_solved - eta_cert)) <= 1e-6


# ---------------------------------------------------------------------------
# one pipeline: shared pass rule, scenario line and upper generator

def test_box_normal_cone_distance_matches_coordinate_rule(rng):
    lo, hi = np.array([-1.0, 0.0, 2.0, -3.0]), np.array([1.0, 0.5, 2.0, 3.0])
    box = ParameterSet.box(lo, hi)
    for _ in range(300):
        theta = np.where(rng.random(4) < 0.5, np.where(rng.random(4) < 0.5, lo, hi),
                         rng.uniform(lo, hi))
        u = rng.integers(-2, 3, 4) * rng.uniform(0.5, 1.5, 4)
        res = []
        for t, v, a, b in zip(theta, u, lo, hi):
            blocked = (v < 0 and t <= a + 1e-9) or (v > 0 and t >= b - 1e-9)
            res.append(0.0 if blocked or v == 0 else abs(v))
        assert box.normal_cone_distance(theta, u) == float(np.linalg.norm(res))


def test_report_pass_is_read_off_its_fields():
    prob, cert = stationary_tracking_certificate(np.array([1.25]))
    rep = verify_certificate(prob, cert, tol=1e-8)
    assert rep.passed and rep.to_dict()["pass"] is True
    rep.scenarios[1].m_membership = False
    assert not rep.passed and rep.to_dict()["pass"] is False
    rep.scenarios[1].m_membership = True
    rep.scenarios[0].value_gap = 2 * rep.value_tol
    assert not rep.passed
    rep.scenarios[0].value_gap = 0.5 * rep.value_tol
    rep.upper_residual = 2 * rep.tol
    assert not rep.passed


def test_scenario_line_and_upper_generators_agree_with_the_verifier():
    theta = np.array([1.25])
    prob, cert = stationary_tracking_certificate(theta)
    bad = Certificate(theta=theta + 0.1, scenarios=[
        ScenarioCertificate(z=c.z, eta=c.eta + 0.2, zeta=c.zeta + 0.3)
        for c in cert.scenarios])
    rep = verify_certificate(prob, bad)
    gens = psi_set(prob.lower, prob.upper, bad.theta, np.zeros(1), None,
                   [c.z for c in bad.scenarios], [c.eta for c in bad.scenarios])
    total = sum(s.weight * g for s, g in zip(prob.scenarios, gens))
    assert rep.upper_residual == float(np.linalg.norm(total)) > 0
    for scen, c, sr in zip(prob.scenarios, bad.scenarios, rep.scenarios):
        line = m_stationarity_check(prob.lower, prob.upper, bad.theta, scen.x, scen.y,
                                    c.z, c.eta, c.zeta)
        assert (line["membership"], line["verdict"], line["residual"]) == \
            (sr.m_membership, sr.m_verdict, sr.m_residual)


def test_certificates_reject_non_finite_and_mis_shaped_entries():
    nan = float("nan")
    for kw in ({"z": [nan]}, {"eta": [np.inf]}, {"zeta": [nan]}, {"mu": nan},
               {"mu": [1.0, 2.0]}, {"value_weights": [nan]}, {"z": [[1.0], [2.0]]},
               {"z": None}, {"eta": {}}):
        with pytest.raises(ValueError):
            ScenarioCertificate(**{"z": [1.0], "eta": [0.0], **kw})
    for theta in ([nan], [[1.0, np.inf]], None):
        with pytest.raises(ValueError):
            Certificate(theta=theta, scenarios=[])
    assert Certificate(theta=[[1.0, 2.0]], scenarios=[]).theta.shape == (2,)


def test_verify_rejects_theta_of_the_wrong_dimension():
    prob, cert = stationary_tracking_certificate(np.array([0.5]))
    with pytest.raises(ValueError, match="theta has 2 entries, expected 1"):
        verify_certificate(prob, Certificate(theta=[0.5, 0.5], scenarios=cert.scenarios))


# ---------------------------------------------------------------------------
# the orthant row pass against the general polyhedral route

class ContextLinearLower(LowerModel):
    """c(z, theta, x) = (x + C theta)^T z + z^T diag(q) z / 2.

    The context x sets the gradient, so a scenario can put (z, g) anywhere.
    """

    def __init__(self, C, q, feasible_set):
        self.C, self.q, self.feasible_set = C, q, feasible_set

    def cost(self, z, theta, x):
        z = np.asarray(z, float)
        return float((x + self.C @ theta) @ z + 0.5 * z @ (self.q * z))

    def grad_z(self, z, theta, x):
        return x + self.C @ theta + self.q * np.asarray(z, float)

    def hess_zz(self, z, theta, x):
        return np.diag(self.q)

    def hess_ztheta(self, z, theta, x):
        return self.C

    def grad_theta(self, z, theta, x):
        return self.C.T @ np.asarray(z, float)


def _close(a, b, tol):
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= tol


def test_orthant_row_pass_matches_the_polyhedral_route(rng):
    """Random orthant problems verified on FeasibleSet.orthant(d), which
    takes the row pass, and on the same orthant as a general polyhedron,
    which takes NNLS for the lower residual and the two-LP predicate for the
    membership, give equal pass flags, memberships and verdicts, and
    residuals within 1e-12. z, g, zeta and eta sit at 0, +-eps and
    +-10 eps or away from them; z may be negative, zeta may be absent, and
    the penalized system runs with mu set.

    A scenario with an entry of z, g, zeta or eta inside the eps band
    (0 < |v| <= 10 eps) may be classified differently by the two routes:
    the closed form accepts the graph point when |z_i g_i| <= eps, the LP
    when g_i vanishes to its feasibility tolerance on an inactive
    coordinate. Such scenarios are reported in a warning with their data;
    every other scenario must agree, and no tolerance is widened."""
    from mstat.cones import DEFAULT_EPS as eps
    from mstat.cones import orthant_polyhedron

    edges = np.array([0.0, eps, -eps, 10 * eps, -10 * eps])
    disagreements, in_band = [], []
    seen, compared = set(), 0
    for trial in range(160):
        d = 1 + trial % 4
        n = 4
        q = rng.choice([0.0, 0.5], d)
        C = rng.normal(size=(d, 1))

        # Two problems in three keep every entry at 0 or away from it.
        pool = edges if trial % 3 == 0 else edges[:1]

        def pick(away, size):
            return np.where(rng.random(size) < 0.6, rng.choice(pool, size), away)

        z = pick(rng.choice([0.5, 2.0, -1.0], (n, d), p=[0.45, 0.45, 0.1]), (n, d))
        g = pick(rng.choice([1.0, -1.0, 0.3]), (n, d))
        x = g - q * z
        ys = rng.normal(size=(n, d))
        scen = [Scenario(x=x[k], y=ys[k], weight=1.0 / n) for k in range(n)]
        certs = []
        for k in range(n):
            zeta = pick(rng.choice([1.0, -0.7]), d) if rng.random() < 0.6 else None
            certs.append(ScenarioCertificate(z=z[k], eta=pick(rng.choice([1.0, -0.4]), d),
                                             zeta=zeta, mu=float(rng.choice([0.0, 0.5, 2.0]))))
        solver = grid_solver([np.zeros(d), np.full(d, 0.5)])
        upper = TrackingUpper(d, 1)
        problems = [Problem(lower=ContextLinearLower(C, q, fs), upper=upper, scenarios=scen)
                    for fs in (FeasibleSet.orthant(d),
                               FeasibleSet.polyhedron(orthant_polyhedron(d)))]
        penalized = Certificate(theta=np.zeros(1), scenarios=certs)
        convex = Certificate(theta=np.zeros(1), scenarios=[
            ScenarioCertificate(z=c.z, eta=c.eta, zeta=c.zeta) for c in certs])
        runs = [[verify_certificate(p, convex) for p in problems],
                [verify_certificate_penalized(p, penalized, solver=solver) for p in problems]]
        entries = np.hstack([z, g] + [[c.eta for c in certs]]
                            + [[c.zeta if c.zeta is not None else np.zeros(d) for c in certs]])
        band = [bool(np.any((0 < np.abs(v)) & (np.abs(v) <= 10 * eps))) for v in entries]
        for row, col in runs:
            if not _close(row.upper_residual, col.upper_residual, 1e-12):
                disagreements.append(("upper residual", trial, row.mode))
            for k, (a, b) in enumerate(zip(row.scenarios, col.scenarios)):
                assert a.complementarity_gap is None
                same = (a.m_membership == b.m_membership and a.m_verdict == b.m_verdict
                        and _close(a.lower_residual, b.lower_residual, 1e-12)
                        and _close(a.m_residual, b.m_residual, 1e-12)
                        and _close(a.value_gap, b.value_gap, 1e-12))
                if not band[k]:
                    seen.add(a.m_verdict)
                    compared += 1
                if not same:
                    (in_band if band[k] else disagreements).append(
                        (trial, row.mode, z[k].tolist(), g[k].tolist(), certs[k].zeta,
                         certs[k].eta.tolist(), a.m_verdict, b.m_verdict))
            if row.passed != col.passed and not any(band):
                disagreements.append(("pass", trial, row.mode))
    assert not disagreements, disagreements[:5]
    assert seen == {"member", "not_member", "empty_coderivative"} and compared >= 600, compared
    if in_band:
        warnings.warn("%d scenario reports inside the eps band differ between the orthant "
                      "and polyhedral routes, e.g. (trial, mode, z, g, zeta, eta, verdicts) "
                      "%s" % (len(in_band), in_band[0]))


def test_verify_on_a_polyhedron_with_no_rows_left():
    """Z = {0 z <= 0} is R^1 once its zero row is dropped. The unconstrained
    tracking optimum z = theta = mean(y), eta = y - theta passes, and no
    scenario reads as infeasible."""
    with pytest.warns(UserWarning):
        whole_line = Polyhedron([[0.0]], [0.0])
    y = [1.0, -2.0, 4.0]
    problem = tracking_problem(y, feasible=FeasibleSet.polyhedron(whole_line))
    theta = np.array([1.0])
    cert = Certificate(theta=theta, scenarios=[
        ScenarioCertificate(z=theta, eta=np.array([yn]) - theta) for yn in y])
    report = verify_certificate(problem, cert)
    assert report.passed
    for rep in report.scenarios:
        assert (rep.lower_residual, rep.m_verdict, rep.complementarity_gap) == (0.0, "member", 0.0)


def test_polyhedral_route_reports_the_distance_and_multiplier_gap(rng):
    """verify_certificate on a general polyhedron reports, bit for bit, the
    lower residual of distance_to_normal_cone and the complementarity gap of
    normal_cone_multiplier (None where that finds no multiplier), though it
    takes the active set once and skips the LP past the distance bound."""
    kinds = set()
    for _ in range(60):
        poly, z, g = random_polyhedral_graph_point(rng)
        d = len(z)
        gs = [g] + [g + 10.0 ** e * rng.standard_normal(d) for e in (-13, -10, -8, 0)]
        problem = Problem(lower=ContextLinearLower(np.zeros((d, 1)), np.zeros(d),
                                                  FeasibleSet.polyhedron(poly)),
                          upper=TrackingUpper(d, 1),
                          scenarios=[Scenario(x=gk, y=np.zeros(d), weight=0.2) for gk in gs])
        cert = Certificate(theta=np.zeros(1), scenarios=[
            ScenarioCertificate(z=z, eta=np.zeros(d)) for _ in gs])
        report = verify_certificate(problem, cert)
        for rep, gk in zip(report.scenarios, problem.scenario_terms(cert.theta, cert).g):
            assert rep.lower_residual == distance_to_normal_cone(poly, z, -gk)
            decomp = normal_cone_multiplier(poly, z, gk)
            want = None if decomp is None else decomp.complementarity_residual(poly, z)
            assert rep.complementarity_gap == want
            kinds.add(want is None)
    assert kinds == {True, False}
