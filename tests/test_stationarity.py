import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (QuadraticLowerModel, assert_nnls_optimal, check_scenario_lp,
                      complementarity_residual, count_lps, count_nnls, grid_solver,
                      m_stationarity_check, nnamcq_oracle, normal_cone_multiplier,
                      polyhedron_contains,
                      projected_gradient_solver, psi_set,
                      random_polyhedral_graph_point, random_simplex_graph_point)
from mstat.cli import _json_text
from mstat import graph_normals as GN
from mstat import newsvendor as NV
from mstat import portfolio as PF
from mstat import stationarity as ST
from mstat.cones import (CombinatorialLimitError, InfeasiblePointError, Polyhedron, active_rows,
                         cone_contains, cone_distance, distance_to_normal_cone,
                         multiplier_within_support, orthant_polyhedron, simplex_polyhedron)
from mstat.lp import feasibility_threshold
from mstat.stationarity import (
    Certificate,
    FeasibleSet,
    LowerModel,
    ParameterSet,
    Problem,
    UpperModel,
    _scenario_checks,
    difference_check,
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
    return Problem(lower=TrackingLower(fs), upper=TrackingUpper(dim, dim),
                   x=np.zeros((n, 1)),
                   y=[np.atleast_1d(np.asarray(y, float)) for y in y_values], weights=w)


# ---------------------------------------------------------------------------
# finite-difference check and lower residual

# The lower-model method behind each term that difference_check reads.
SEEDED_METHODS = {"g": "grad_z", "curvature": "hess_zz", "generators": "hess_ztheta",
                  "grad_theta": "grad_theta"}


@pytest.mark.parametrize("term", [None] + sorted(SEEDED_METHODS))
def test_difference_check_names_the_term_and_scenario_of_a_seeded_error(term):
    """Through the base scenario_terms loop, correct models pass every term
    to 1e-8. Adding 1e-3 x to every entry of one lower-model method, so
    that only scenario 1 (x = 1) is wrong, fails that term alone, at
    scenario 1. The error is additive, so a g near 0 cannot hide it, and it
    cancels from the differences of g that check the other terms."""
    lower = TrackingLower
    if term is not None:
        right = getattr(TrackingLower, SEEDED_METHODS[term])
        lower = type("Seeded", (TrackingLower,), {SEEDED_METHODS[term]: lambda self, z, theta, x:
                                                  right(self, z, theta, x) + 1e-3 * x[0]})
    problem = Problem(lower=lower(FeasibleSet.orthant(2)), upper=TrackingUpper(2, 2),
                      x=[[0.0], [1.0]], y=np.zeros((2, 2)), weights=[0.5, 0.5])
    cert = Certificate([0.4, 0.6], [{"z": [0.3, 0.7], "eta": [0.5, -1.0]},
                                    {"z": [1.0, 0.0], "eta": [2.0, 0.25]}])
    worst = difference_check(problem, cert)
    assert sorted(worst) == sorted(SEEDED_METHODS)
    assert all(error < 1e-8 for name, (error, _) in worst.items() if name != term)
    if term is not None:
        assert worst[term][1] == 1 and 1e-4 < worst[term][0] < 1e-2


def _generated_problem(seed, kind):
    """A portfolio (d_x 1-3, d_z 2-8, sigma scaled to largest entry 1 as
    `mstat gen` scales it, lambda in [e^-3, e^3]) or kernel newsvendor (d_x
    0-3, bandwidth in [0.05, 5]) problem with 1-5 samples, and a
    certificate at random z and eta."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    if kind == "portfolio":
        d_x, d_z = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        B = rng.standard_normal((d_z, d_z))
        sigma = B @ B.T + d_z * np.eye(d_z)
        inst = PF.PortfolioInstance(
            sigma=sigma / np.max(np.abs(sigma)), risk_aversion=float(np.exp(rng.uniform(-3, 3))),
            samples=list(zip(rng.uniform(0.1, 1.0, (n, d_x)), rng.normal(0, 0.3, (n, d_z)))))
        theta = rng.standard_normal(d_x * d_z)
        z = rng.dirichlet(np.ones(d_z), n) * rng.uniform(0.5, 1.0, (n, 1))
        eta = rng.standard_normal((n, d_z))
        return PF.as_problem(inst), Certificate(theta, [{"z": a, "eta": e}
                                                        for a, e in zip(z, eta)])
    d_x = int(rng.integers(0, 4))
    pts = [(x, float(y)) for x, y in zip(rng.uniform(-1, 1, (n, d_x)).tolist(),
                                           3.0 + rng.standard_normal(n))]
    inst = NV.NewsvendorInstance(h=1.0, b=3.0, centers=pts, samples=pts)
    scenarios = [{"z": float(z), "eta": float(e), "zeta": 0.0}
                 for z, e in zip(rng.uniform(0.0, 6.0, n), rng.standard_normal(n))]
    return NV.as_problem(inst), NV.newsvendor_certificate(float(rng.uniform(0.05, 5.0)),
                                                          scenarios)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["portfolio", "newsvendor"]))
def test_difference_check_passes_on_generated_problems(seed, kind):
    """Both applications' stacked terms agree with their differences within
    fd-check's default tolerance 1e-6, at random points."""
    worst = difference_check(*_generated_problem(seed, kind))
    assert max(error for error, _ in worst.values()) <= 1e-6, worst


def test_lower_residual_cases():
    m = ShiftedQuadratic([1.0, 1.0])
    # at the minimizer the residual vanishes
    assert lower_residual(m, None, None, [1.0, 1.0]) <= 1e-10
    # at the vertex, -grad = (1,1) projects onto the origin of R_-^2
    assert abs(lower_residual(m, None, None, [0.0, 0.0]) - np.sqrt(2)) < 1e-12
    # interior non-stationary point: residual equals the gradient norm
    assert abs(lower_residual(m, None, None, [2.0, 1.0]) - 1.0) < 1e-12


def test_simplex_projection_refuses_a_row_it_cannot_resolve():
    """FeasibleSet.project on a simplex, one call of the row-wise
    projection, finds no support for a NaN or an entry whose u - 1 rounds
    to u, and says so; up to 2^53 it projects."""
    simplex = FeasibleSet.simplex(2)
    assert simplex.project([0.7, 0.7]).tolist() == [0.5, 0.5]
    assert simplex.project([2.0 ** 53, 3.0]).tolist() == [1.0, 0.0]
    for y in ([1e17, 0.0], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="finds no support"):
            simplex.project(y)


@st.composite
def quadratic_scenarios(draw):
    """A QuadraticLowerModel on an orthant, a simplex, a box or a general
    polyhedron, with theta and 1 to 4 scenario points of that set. Each
    point is pushed out of the set through one of its rows by 2e-9 or by 1
    with probability 0.4, and so is infeasible beyond eps."""
    kind = draw(st.sampled_from(("orthant", "simplex", "box", "polyhedron")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = int(rng.integers(1, 5))
    if kind == "polyhedron":
        poly, z0, _ = random_polyhedral_graph_point(rng, d_max=4, m_max=6)
        fs, d = FeasibleSet.polyhedron(poly), poly.dim
        point = lambda: z0 + rng.choice([0.0, 1e-10]) * rng.uniform(-1.0, 1.0, d)
    elif kind == "box":
        lo = rng.integers(-2, 1, d).astype(float)
        hi = lo + rng.integers(0, 3, d)
        fs = FeasibleSet.box(lo, hi)
        point = lambda: np.choose(rng.integers(0, 3, d), [lo, hi, 0.5 * (lo + hi)])
    elif kind == "orthant":
        fs = FeasibleSet.orthant(d)
        point = lambda: rng.choice([0.0, 0.0, 0.5, 2.0], d)
    else:
        fs = FeasibleSet.simplex(d)
        point = lambda: random_simplex_graph_point(rng, d)[0]
    poly = fs.as_polyhedron()
    Z = []
    for _ in range(draw(st.integers(1, 4))):
        z = point()
        if rng.random() < 0.4:
            i = int(rng.integers(poly.m))
            a = poly.A[i]
            z = z + (poly.slacks(z)[i] + rng.choice([2e-9, 1.0])) / (a @ a) * a
        Z.append(z)
    d_theta = int(rng.integers(1, 3))
    B = rng.integers(-1, 2, (d, d)).astype(float)
    model = QuadraticLowerModel(rng.choice([0.0, rng.uniform(0.1, 1.0)]) * B @ B.T,
                                rng.integers(-2, 3, (d, d_theta)).astype(float), fs)
    return model, rng.uniform(-2.0, 2.0, d_theta), Z


@settings(max_examples=150, deadline=None)
@given(quadratic_scenarios())
def test_lower_residual_is_the_column_that_verify_reports(case):
    """On every kind of set lower_residual returns the lower_residual column
    of verify_certificate, compared by repr, within 1e-12 of the NNLS
    distance relative to max(1, value). A point outside the set by more
    than eps (poly.slacks) raises InfeasiblePointError where verify reports
    inf, verdict empty_coderivative and the reason "infeasible scenario
    point". On the box and polyhedron route verify calls
    polyhedron_membership once per feasible scenario and never for an
    infeasible one; the orthant and the simplex never call it."""
    model, theta, Z = case
    fs, n = model.feasible_set, len(Z)
    poly = fs.as_polyhedron()
    problem = Problem(lower=model, upper=TrackingUpper(fs.dim, len(theta)),
                      x=np.zeros((n, 1)), y=np.zeros((n, fs.dim)), weights=[1.0 / n] * n)
    cert = Certificate(theta, [{"z": z.tolist(), "eta": [0.5] * fs.dim} for z in Z])
    called = []
    membership = ST.polyhedron_membership

    def spy(poly, gp, pair, eps):
        called.append(gp.z)
        return membership(poly, gp, pair, eps)

    with mock.patch.object(ST, "polyhedron_membership", spy):
        columns = verify_certificate(problem, cert).columns
    feasible = [polyhedron_contains(poly, z) for z in Z]
    if fs.kind in ("box", "polyhedron"):
        assert len(called) == sum(feasible)
        assert all(polyhedron_contains(poly, z) for z in called)
    else:
        assert called == []
    for k, (z, inside) in enumerate(zip(Z, feasible)):
        if not inside:
            with pytest.raises(InfeasiblePointError):
                lower_residual(model, theta, None, z)
            assert columns.lower_residual[k] == np.inf
            assert columns.m_verdict[k] == "empty_coderivative"
            assert columns.witness_of(k) == {"reason": "infeasible scenario point"}
            continue
        got = lower_residual(model, theta, None, z)
        assert repr(got) == repr(columns.lower_residual[k])
        nnls = distance_to_normal_cone(poly, z, -model.grad_z(z, theta, None))
        assert abs(got - nnls) <= 1e-12 * max(1.0, nnls)


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

    z = solve_simplex_qp([3.0, 1.0], np.eye(2), 1.0)
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
        z = solve_simplex_qp(r, sigma, 1.0)
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
    definite, so no LP runs beyond the graph-point check, and that check
    runs none either: the 12 rows are independent, so the factorization of
    cones.cone_contains decides it."""
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
    I = list(active_rows(poly, poly.slacks(z)))
    assert len(I) == d and cone_contains(-g, poly.A[I]) is True
    graph_point_lps = len(calls)
    assert nnamcq_check(model, theta, None, z) is True
    assert graph_point_lps == 0 and len(calls) == 2 * graph_point_lps


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
    scen = [{"z": [2.0], "eta": [0.0]},
            {"z": [2.0], "eta": [0.0]}]
    cert = Certificate(theta=theta, scenarios=scen)
    # grad_theta L = 0 and eta = 0 everywhere
    assert upper_residual(prob, cert) <= 1e-12
    # one nonzero eta flows through hess_ztheta = -I with its weight
    scen2 = [{"z": [2.0], "eta": [0.8]},
             {"z": [2.0], "eta": [0.0]}]
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
        certs.append({"z": np.array([theta[0]]), "eta": eta, "zeta": np.zeros(1)})
    return prob, Certificate(theta=theta, scenarios=certs)


def test_verify_certificate_passes_and_fails():
    theta = np.array([1.25])
    prob, cert = stationary_tracking_certificate(theta)
    rep = verify_certificate(prob, cert, tol=1e-8)
    assert rep.passed, rep.to_dict()
    # perturb theta: the lower level becomes non-stationary at the frozen z_n
    bad = Certificate.from_rows(theta + 0.1, cert.z, cert.eta, cert.zeta, cert.given)
    rep_bad = verify_certificate(prob, bad, tol=1e-8)
    assert not rep_bad.passed
    assert max(rep_bad.columns.lower_residual) > 1e-3


def test_verify_certificate_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        Problem(lower=TrackingLower(FeasibleSet.orthant(1)),
                upper=TrackingUpper(1, 1), x=np.zeros((0, 1)), y=np.zeros(0), weights=[])
    prob, cert = stationary_tracking_certificate(np.array([0.5]))
    with pytest.raises(ValueError):
        verify_certificate(prob, Certificate.from_rows(cert.theta, cert.z[:1], cert.eta[:1],
                                                       cert.zeta[:1], cert.given[:1]))


def test_problem_refuses_row_counts_that_disagree():
    """x, y and weights hold one row per scenario; any other count is a
    ValueError that names the three counts."""
    models = dict(lower=TrackingLower(FeasibleSet.orthant(1)), upper=TrackingUpper(1, 1))
    for x, y, w in ((np.zeros((3, 1)), np.zeros((2, 1)), [0.5, 0.5]),
                    (np.zeros((2, 1)), np.zeros((2, 1)), [1.0 / 3] * 3),
                    (np.zeros((1, 1)), np.zeros((2, 1)), [0.5, 0.5])):
        with pytest.raises(ValueError, match="x has %d rows, y %d entries and weights %d"
                           % (len(x), len(y), len(w))):
            Problem(x=x, y=y, weights=w, **models)
    prob = Problem(x=np.zeros((2, 1)), y=np.zeros((2, 1)), weights=[0.5, 0.5], **models)
    assert prob.x.shape == (2, 1) and prob.weights.tolist() == [0.5, 0.5]


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
    [flat] = value_function(m, [0.0], [None], [[0.5]], INTERVAL_GRID)
    assert flat.value == 0.0 and len(flat.argmin_points) == 17 and flat.gap == 0.0
    [pointed] = value_function(m, [2.0], [None], [[0.5]], INTERVAL_GRID)
    assert pointed.value == -2.0
    assert len(pointed.argmin_points) == 1
    assert pointed.argmin_points[0][0] == -1.0 and pointed.gap == 3.0


def test_value_subdifferential_interval():
    m = interval_lower()
    [flat] = value_function(m, [0.0], [None], [[0.0]], INTERVAL_GRID)
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
    [vf] = value_function(m, np.array([0.7]), [None], [[0.7]], solver)
    assert len(vf.argmin_points) == 1
    sub = value_subdifferential(m, np.array([0.7]), None, vf.argmin_points)
    assert len(sub.generators) == 1
    assert np.allclose(sub.generators[0], 0.0, atol=1e-8)


def test_value_function_needs_candidates_for_every_row():
    """The solver answers rows: fewer answers than rows of X, or a row
    without a candidate, is a ValueError."""
    m = interval_lower()
    X, Z = [None, None], [[0.0], [0.5]]
    for answers, match in (([[[0.0]]], "answered 1 rows, expected 2"),
                           ([[[0.0]], []], "no candidates for row 1")):
        with pytest.raises(ValueError, match=match):
            value_function(m, [1.0], X, Z, lambda model, theta, X, Z: answers)


def test_value_function_gap_is_cost_rows_minus_value(rng):
    """Each row's gap is the float of cost_rows(Z) minus the row's value,
    bit for bit, although one cost_rows call prices the candidates and Z."""
    m = ContextLinearLower(np.ones((2, 1)), np.array([1.0, 0.5]),
                           FeasibleSet.box([-1.0, -1.0], [1.0, 1.0]))
    theta, X = np.array([0.3]), rng.normal(size=(5, 2))
    Z = rng.uniform(-1.0, 1.0, (5, 2))
    found = value_function(m, theta, X, Z, projected_gradient_solver(n_starts=3, seed=4))
    costs = m.cost_rows(Z, theta, X)
    assert [repr(vf.gap) for vf in found] == [repr(float(c - vf.value))
                                              for c, vf in zip(costs, found)]
    assert all(vf.gap >= 0.0 for vf in found)


def test_penalized_verify_makes_one_solver_call(monkeypatch):
    """A penalized verify asks its solver once, about every scenario's row
    of x with the certificate's z as the start, through one value_function
    call."""
    import mstat.stationarity as ST

    prob = Problem(lower=DoubleWellLower(), upper=FlatUpper(), x=[[0.0], [1.0], [2.0]],
                   y=[0.0] * 3, weights=[0.25, 0.25, 0.5])
    cert = Certificate(theta=np.zeros(1), scenarios=[
        {"z": [1.0], "eta": [0.0], "zeta": [0.0], "mu": 1.0} for _ in range(3)])
    grid = grid_solver([[v] for v in np.linspace(-2.0, 2.0, 17)])
    asked, calls = [], []
    value_function_of = ST.value_function
    monkeypatch.setattr(ST, "value_function",
                        lambda *a: calls.append(None) or value_function_of(*a))
    rep = verify_certificate_penalized(
        prob, cert,
        solver=lambda model, theta, X, Z: asked.append((X.tolist(), Z.tolist()))
        or grid(model, theta, X, Z))
    assert asked == [([[0.0], [1.0], [2.0]], [[1.0]] * 3)] and len(calls) == 1
    assert rep.columns.value_gap == [0.0] * 3


# ---------------------------------------------------------------------------
# penalized mode

def test_penalized_zero_mu_reduces_to_convex():
    theta = np.array([1.25])
    prob, cert = stationary_tracking_certificate(theta)
    pen_scen = [{"z": z, "eta": eta, "zeta": zeta, "mu": 0.0}
                for z, eta, zeta in zip(cert.z, cert.eta, cert.zeta)]
    pen_cert = Certificate(theta=theta, scenarios=pen_scen)
    rep_pen = verify_certificate_penalized(prob, pen_cert, tol=1e-8)
    rep_conv = verify_certificate(prob, cert, tol=1e-8)
    assert rep_pen.mode == "penalized" and rep_conv.mode == "convex"
    assert {**rep_pen.to_dict(), "mode": None} == {**rep_conv.to_dict(), "mode": None}


def test_penalized_requires_solver_for_positive_mu():
    theta = np.array([1.25])
    prob, cert = stationary_tracking_certificate(theta)
    pen_scen = [{"z": z, "eta": eta, "zeta": zeta, "mu": 1.0}
                for z, eta, zeta in zip(cert.z, cert.eta, cert.zeta)]
    with pytest.raises(ValueError):
        verify_certificate_penalized(prob, Certificate(theta=theta,
                                                       scenarios=pen_scen))
    neg = [{"z": z, "eta": eta, "zeta": zeta, "mu": -0.5}
           for z, eta, zeta in zip(cert.z, cert.eta, cert.zeta)]
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
    prob = Problem(lower=lower, upper=upper, x=np.zeros((1, 1)), y=[y], weights=[1.0])
    z = np.zeros(1)
    g = lower.grad_z(z, theta, None)              # 0.8 > 0: bound multiplier row
    cert_plain = Certificate(theta=theta, scenarios=[
        {"z": z, "eta": np.zeros(1), "zeta": -upper.grad_z(z, None, y, theta)}])
    assert verify_certificate(prob, cert_plain).passed

    solver = projected_gradient_solver(n_starts=4, seed=0)
    mu = 1.0
    zeta_pen = -(upper.grad_z(z, None, y, theta) + mu * g)
    cert_pen = Certificate(theta=theta, scenarios=[
        {"z": z, "eta": np.zeros(1), "zeta": zeta_pen, "mu": mu}])
    rep = verify_certificate_penalized(prob, cert_pen, solver=solver)
    assert rep.passed, rep.to_dict()
    assert rep.columns.value_gap[0] is not None
    assert abs(rep.columns.value_gap[0]) <= 1e-9
    # reusing the unshifted zeta leaves a residual of exactly mu * |g|
    cert_stale = Certificate(theta=theta, scenarios=[
        {"z": z, "eta": np.zeros(1), "zeta": -upper.grad_z(z, None, y, theta), "mu": mu}])
    rep_stale = verify_certificate_penalized(prob, cert_stale, solver=solver)
    assert not rep_stale.passed
    assert abs(rep_stale.columns.m_residual[0] - mu * abs(g[0])) < 1e-12


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
    prob = Problem(lower=DoubleWellLower(), upper=FlatUpper(), x=np.zeros((1, 1)), y=[0.0],
                   weights=[1.0])
    cert = Certificate(theta=np.zeros(1), scenarios=[
        {"z": np.zeros(1), "eta": np.zeros(1), "zeta": np.zeros(1), "mu": 0.0}])
    solver = grid_solver([[v] for v in np.linspace(-2.0, 2.0, 17)])
    rep = verify_certificate_penalized(prob, cert, solver=solver)
    assert not rep.passed
    assert abs(rep.columns.value_gap[0] - 0.5) < 1e-12
    assert rep.columns.lower_residual[0] <= 1e-10
    assert rep.columns.m_membership[0]


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
    prob = Problem(lower=lower, upper=upper, x=np.zeros((1, 1)), y=[y], weights=[1.0])
    solver = projected_gradient_solver(n_starts=3, seed=2)
    theta = np.array([0.4])

    # eta from the interior scenario line: 0 = (z - y) + eta with z = theta
    z = value_function(lower, theta, [None], [theta], solver)[0].argmin_points[0]
    eta = y - z
    cert = Certificate(theta=theta, scenarios=[
        {"z": z, "eta": eta, "zeta": np.zeros(1)}])
    resid = upper_residual(prob, cert)

    def V(t):
        zz = value_function(lower, np.array([t]), [None], [[t]], solver)[0].argmin_points[0]
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


def test_box_normal_cone_distance_is_inf_outside_the_box():
    """A theta more than DEFAULT_EPS past a bound has an empty normal cone,
    so every u is at distance inf, and outside names the coordinate and the
    bound; within DEFAULT_EPS of a bound, theta counts as on it."""
    box = ParameterSet.box([0.0, 1.0], [1.0, 2.0])
    u = np.zeros(2)
    assert box.normal_cone_distance([1.0 + 2e-9, 1.5], u) == float("inf")
    assert box.outside([1.0 + 2e-9, 0.5]) == [
        "theta[0] = 1.000000002 lies more than 1e-09 above its upper bound 1.0",
        "theta[1] = 0.5 lies more than 1e-09 below its lower bound 1.0"]
    assert box.outside([1.0 + 0.5e-9, 1.0 - 0.5e-9]) == []
    assert box.normal_cone_distance([1.0 + 0.5e-9, 1.0 - 0.5e-9], [1.0, -1.0]) == 0.0
    assert ParameterSet.free(2).outside([1e9, -1e9]) == []


def test_report_pass_is_read_off_its_fields():
    prob, cert = stationary_tracking_certificate(np.array([1.25]))
    rep = verify_certificate(prob, cert, tol=1e-8)
    assert rep.passed and rep.to_dict()["pass"] is True
    rep.columns.m_membership[1] = False
    assert not rep.passed and rep.to_dict()["pass"] is False
    rep.columns.m_membership[1] = True
    rep.columns.value_gap[0] = 2 * rep.value_tol
    assert not rep.passed
    rep.columns.value_gap[0] = 0.5 * rep.value_tol
    rep.upper_residual = 2 * rep.tol
    assert not rep.passed


def test_scenario_line_and_upper_generators_agree_with_the_verifier():
    theta = np.array([1.25])
    prob, cert = stationary_tracking_certificate(theta)
    bad = Certificate(theta=theta + 0.1, scenarios=[
        {"z": z, "eta": eta + 0.2, "zeta": zeta + 0.3}
        for z, eta, zeta in zip(cert.z, cert.eta, cert.zeta)])
    rep = verify_certificate(prob, bad)
    gens = psi_set(prob.lower, prob.upper, bad.theta, np.zeros(1), None, bad.z, bad.eta)
    total = sum(w * g for w, g in zip(prob.weights, gens))
    assert rep.upper_residual == float(np.linalg.norm(total)) > 0
    for x, y, z, eta, zeta, sr in zip(prob.x, prob.y, bad.z, bad.eta, bad.zeta,
                                      rep.to_dict()["scenarios"]):
        line = m_stationarity_check(prob.lower, prob.upper, bad.theta, x, y, z, eta, zeta)
        assert (line["membership"], line["verdict"], line["residual"]) == \
            (sr["m_membership"], sr["m_verdict"], sr["m_residual"])


def test_certificates_reject_non_finite_and_mis_shaped_entries():
    nan = float("nan")
    for kw in ({"z": [nan]}, {"eta": [np.inf]}, {"zeta": [nan]}, {"mu": nan},
               {"mu": [1.0, 2.0]}, {"value_weights": [nan]}, {"z": [[1.0], [2.0]]},
               {"z": None}, {"eta": {}}):
        with pytest.raises(ValueError):
            Certificate(theta=[0.0], scenarios=[{"z": [1.0], "eta": [0.0], **kw}])
    for theta in ([nan], [[1.0, np.inf]], None):
        with pytest.raises(ValueError):
            Certificate(theta=theta, scenarios=[])
    assert Certificate(theta=[[1.0, 2.0]], scenarios=[]).theta.shape == (2,)


def test_certificate_refuses_theta_with_more_than_two_dimensions():
    for theta in ([[[1.0, 2.0]]], np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match="theta must be a vector or a matrix"):
            Certificate(theta=theta, scenarios=[])


def test_verify_rejects_theta_of_the_wrong_dimension():
    prob, cert = stationary_tracking_certificate(np.array([0.5]))
    with pytest.raises(ValueError, match="theta has 2 entries, expected 1"):
        verify_certificate(prob, Certificate.from_rows([0.5, 0.5], cert.z, cert.eta,
                                                       cert.zeta, cert.given))


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
    every other scenario must agree, and no tolerance is widened.

    The JSON writer gives each report, written from its columns, the text
    of json.dumps of its to_dict."""
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
        certs = []
        for k in range(n):
            zeta = {"zeta": pick(rng.choice([1.0, -0.7]), d)} if rng.random() < 0.6 else {}
            certs.append({"z": z[k], "eta": pick(rng.choice([1.0, -0.4]), d), **zeta,
                          "mu": float(rng.choice([0.0, 0.5, 2.0]))})
        solver = grid_solver([np.zeros(d), np.full(d, 0.5)])
        upper = TrackingUpper(d, 1)
        problems = [Problem(lower=ContextLinearLower(C, q, fs), upper=upper, x=x, y=ys,
                            weights=[1.0 / n] * n)
                    for fs in (FeasibleSet.orthant(d),
                               FeasibleSet.polyhedron(orthant_polyhedron(d)))]
        penalized = Certificate(theta=np.zeros(1), scenarios=certs)
        convex = Certificate(theta=np.zeros(1), scenarios=[
            {key: v for key, v in c.items() if key != "mu"} for c in certs])
        runs = [[verify_certificate(p, convex) for p in problems],
                [verify_certificate_penalized(p, penalized, solver=solver) for p in problems]]
        for report in runs[0] + runs[1]:
            text = _json_text({**report.summary(), "scenarios": report.columns})
            assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2)
        entries = np.hstack([z, g] + [[c["eta"] for c in certs]]
                            + [[c.get("zeta", np.zeros(d)) for c in certs]])
        band = [bool(np.any((0 < np.abs(v)) & (np.abs(v) <= 10 * eps))) for v in entries]
        for row, col in runs:
            if not _close(row.upper_residual, col.upper_residual, 1e-12):
                disagreements.append(("upper residual", trial, row.mode))
            for k, (a, b) in enumerate(zip(row.to_dict()["scenarios"],
                                           col.to_dict()["scenarios"])):
                assert a["complementarity_gap"] is None
                same = (a["m_membership"] == b["m_membership"]
                        and a["m_verdict"] == b["m_verdict"]
                        and _close(a["lower_residual"], b["lower_residual"], 1e-12)
                        and _close(a["m_residual"], b["m_residual"], 1e-12)
                        and _close(a["value_gap"], b["value_gap"], 1e-12))
                if not band[k]:
                    seen.add(a["m_verdict"])
                    compared += 1
                if not same:
                    (in_band if band[k] else disagreements).append(
                        (trial, row.mode, z[k].tolist(), g[k].tolist(), certs[k].get("zeta"),
                         certs[k]["eta"].tolist(), a["m_verdict"], b["m_verdict"]))
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
        {"z": theta, "eta": np.array([yn]) - theta} for yn in y])
    report = verify_certificate(problem, cert)
    assert report.passed
    for rep in report.to_dict()["scenarios"]:
        assert (rep["lower_residual"], rep["m_verdict"], rep["complementarity_gap"]) == \
            (0.0, "member", 0.0)


def _residual_multiplier(poly, target, slack, simplex):
    """The (k, m) multipliers at which _scenario_checks attains its lower
    residuals for the rows target with slack vectors slack: the closed
    form's (mu, tau) on the simplex, the NNLS point elsewhere."""
    active = np.abs(slack) <= 1e-9
    if simplex:
        return GN._simplex_residual_rows(target, active)[2]
    return ST._nnls_rows(poly.A, target, active)[1]


def test_polyhedral_route_reports_the_distance_and_multiplier_gap(rng):
    """verify_certificate on a general polyhedron reports, bit for bit, the
    lower residual of distance_to_normal_cone and, where that residual is
    within the feasibility threshold of -g, the gap max |lam_i slack_i| at
    the NNLS multiplier of the residual; None where the residual is past
    it. Where normal_cone_multiplier's LP finds a multiplier too, the two
    gaps are at most eps max(|lam|) apart, since each is at most that."""
    kinds = set()
    for _ in range(60):
        poly, z, g = random_polyhedral_graph_point(rng)
        d = len(z)
        gs = [g] + [g + 10.0 ** e * rng.standard_normal(d) for e in (-13, -10, -8, 0)]
        problem = Problem(lower=ContextLinearLower(np.zeros((d, 1)), np.zeros(d),
                                                  FeasibleSet.polyhedron(poly)),
                          upper=TrackingUpper(d, 1), x=gs, y=np.zeros((len(gs), d)),
                          weights=[0.2] * len(gs))
        cert = Certificate(theta=np.zeros(1), scenarios=[
            {"z": z, "eta": np.zeros(d)} for _ in gs])
        report = verify_certificate(problem, cert)
        c = report.columns
        terms = problem.scenario_terms(cert.theta, cert).g
        slack = poly.slacks(z)
        lam = _residual_multiplier(poly, -terms, np.tile(slack, (len(gs), 1)), False)
        for low, gap, gk, lk in zip(c.lower_residual, c.complementarity_gap, terms, lam):
            assert low == distance_to_normal_cone(poly, z, -gk)
            want = float(np.max(np.abs(lk * slack)))
            assert repr(gap) == repr(want if low <= feasibility_threshold(-gk) else None)
            decomp = normal_cone_multiplier(poly, z, gk)
            if gap is not None and decomp is not None:
                bound = 1e-9 * max(np.max(lk), np.max(decomp.lam))
                assert abs(gap - complementarity_residual(decomp, poly, z)) <= bound
            kinds.add(gap is None)
    assert kinds == {True, False}


# ---------------------------------------------------------------------------
# the complementarity gap at the multiplier of the lower residual

_GAP_SCALES = (0.0, 1e-13, 0.1, 0.4, 1.0, 3.0)


def _polyhedral_cases(rng):
    """A random integer polyhedron's graph point, as is and with z moved by
    up to 1e-10 per coordinate, so that active slacks are exactly 0 or
    non-zero within eps."""
    poly, z, g = random_polyhedral_graph_point(rng, d_max=4, m_max=6)
    return [(poly, z, g), (poly, z + 1e-10 * rng.uniform(-1.0, 1.0, len(z)), g)]


def _simplex_cases(rng, d):
    """A graph point of the d-simplex, as is, with its zero coordinates at
    4e-10 and with its coordinate sum 3e-10 short of 1."""
    poly = simplex_polyhedron(d)
    z, g = random_simplex_graph_point(rng, d)
    return [(poly, z, g), (poly, np.where(z == 0.0, 4e-10, z), g), (poly, z * (1.0 - 3e-10), g)]


def _perturbed(rng, cases):
    """Each (poly, z, g) with g moved by 0 to 3 times the feasibility
    threshold of -g in one random direction, so that residuals run from
    rounding level past the threshold."""
    out = []
    for poly, z, g in cases:
        threshold = feasibility_threshold(-g)
        u = rng.standard_normal(len(z))
        u /= np.linalg.norm(u)
        out.extend((poly, z, g + scale * threshold * u) for scale in _GAP_SCALES)
    return out


def _gap_cases(rng):
    """(poly, z, g) on random integer polyhedra and simplex points, with
    exactly zero active slacks, active slacks that are non-zero but within
    eps, and residuals from rounding level to three times the threshold."""
    cases = [c for _ in range(80) for c in _polyhedral_cases(rng)]
    cases += [c for d in range(1, 13) for _ in range(12) for c in _simplex_cases(rng, d)]
    return _perturbed(rng, cases)


def _independent(poly, z):
    """Whether the active rows of poly at z are linearly independent."""
    I = list(active_rows(poly, poly.slacks(z)))
    return np.linalg.matrix_rank(poly.A[I]) == len(I) if I else True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None] + list(range(1, 13))))
def test_the_gap_reads_the_multiplier_of_the_residual(seed, d):
    """On a stack of the _gap_cases families, on a random integer
    polyhedron (d None) or on the d-simplex, _scenario_checks runs no LP,
    and each feasible row's gap is max |lam_i slack_i| at a multiplier lam
    that is >= 0, vanishes off the active rows and solves the projection of
    -g onto their cone (the NNLS optimality conditions) with the reported
    residual, where that residual is within feasibility_threshold(-g), and
    None otherwise. On the simplex, where check_scenario_lp's multiplier LP
    also finds a multiplier, the gaps are within 1e-9 eps (1 + |g|_1): the
    multiplier is unique under LICQ, and both computations hold it to
    within the threshold."""
    rng = np.random.default_rng(seed)
    simplex = d is not None
    rows = _perturbed(rng, _simplex_cases(rng, d) if simplex else _polyhedral_cases(rng))
    poly = rows[0][0]
    feasible = FeasibleSet.simplex(d) if simplex else FeasibleSet.polyhedron(poly)
    Z, G = np.array([z for _, z, _ in rows]), np.array([g for *_, g in rows])
    with pytest.MonkeyPatch.context() as patch:
        lps = count_lps(patch)
        checks = _scenario_checks(feasible, Z, G)
        assert lps == []
    slack = np.array([poly.slacks(z) for z in Z])
    lam = _residual_multiplier(poly, -G, slack, simplex)
    for n, check in enumerate(checks):
        if slack[n].min() < -1e-9:
            assert check is None
            continue
        t, low_res, gap = -G[n], *check
        active = np.abs(slack[n]) <= 1e-9
        size = 1.0 + np.abs(t).sum()
        assert np.all(lam[n] >= 0.0) and not lam[n][~active].any()
        assert_nnls_optimal(poly.A[active].T, t, lam[n][active], 1e-12 * size)
        resid = poly.A.T @ lam[n] - t
        assert abs(np.linalg.norm(resid) - low_res) <= 1e-15 * size
        within = low_res <= feasibility_threshold(t)
        want = float(np.max(np.abs(lam[n] * slack[n]))) if within else None
        assert repr(gap) == repr(want), (poly.A.tolist(), Z[n].tolist(), G[n].tolist())
        if simplex and gap is not None:
            reference = check_scenario_lp(poly, Z[n], G[n])[1]
            if reference is not None:
                assert abs(gap - reference) <= 1e-18 * size


def test_polyhedral_gaps_match_the_lp_route(rng, monkeypatch):
    """_scenario_checks on a general polyhedron, one row at a time, runs no
    LP and gives the lower residual of check_scenario_lp, the reference
    route that runs the complementarity LP whenever the residual is within
    twice its threshold, bit for bit. Its gap is None exactly where the
    residual is past feasibility_threshold(-g), where the LP finds no
    multiplier either. Where both give a gap, they agree within
    1e-9 eps (1 + |g|_1) when the active rows are linearly independent, so
    that the multiplier is unique; on dependent rows NNLS and the LP may
    pick different multipliers, and the gaps agree within
    0.1 eps (1 + |g|_1) on these cases (0.068 at most when measured).
    The rows where the Euclidean residual is within the threshold but the
    LP's L1 optimum is not now report a gap."""
    calls = count_lps(monkeypatch)
    tally = {"independent": 0, "dependent": 0, "lp_none": 0, "none": 0}
    for poly, z, g in _gap_cases(rng):
        simplex = simplex_polyhedron(poly.dim)
        if np.array_equal(poly.A, simplex.A) and np.array_equal(poly.b, simplex.b):
            continue
        before = len(calls)
        got = _scenario_checks(FeasibleSet.polyhedron(poly), z[None], g[None])[0]
        assert len(calls) == before
        want = check_scenario_lp(poly, z, g)
        if want is None:
            assert got is None
            continue
        assert repr(got[0]) == repr(want[0]), (poly.A, poly.b, z, g)
        size = 1e-9 * (1.0 + np.abs(g).sum())
        if got[1] is None:
            assert got[0] > size and want[1] is None
            tally["none"] += 1
        elif want[1] is None:
            tally["lp_none"] += 1
        elif _independent(poly, z):
            tally["independent"] += 1
            assert abs(got[1] - want[1]) <= 1e-9 * size
        else:
            tally["dependent"] += 1
            assert abs(got[1] - want[1]) <= 0.1 * size
    assert (tally["independent"] >= 300 and tally["dependent"] >= 50
            and tally["lp_none"] >= 20 and tally["none"] >= 50), tally


def test_simplex_checks_match_the_nnls_route(rng, monkeypatch):
    """On the simplex cases of _gap_cases and SIMPLEX_L1_CASES, stacked by
    dimension, _scenario_checks on FeasibleSet.simplex(d), with its
    closed-form residuals and multipliers, gives the NNLS route (the same
    call on FeasibleSet.polyhedron(simplex_polyhedron(d))) a gap in the
    same rows, within 1e-9 eps (1 + |g|_1) of it, and lower residuals
    within 1e-15 of it relative to max(1, value), with no NNLS solve;
    neither route runs an LP. Every stack mixes in infeasible rows, a
    coordinate at -2e-9 or a sum of 1 + 3e-9, which both routes report as
    None."""
    stacks = {}
    for poly, z, g in _gap_cases(rng) + [(poly, z, -target) for poly, z, target
                                         in SIMPLEX_L1_CASES]:
        simplex = simplex_polyhedron(poly.dim)
        if np.array_equal(poly.A, simplex.A) and np.array_equal(poly.b, simplex.b):
            rows = stacks.setdefault(poly.dim, ([], []))
            rows[0].append(z)
            rows[1].append(g)
            if rng.random() < 0.1:
                rows[0].append(np.where(np.arange(len(z)) == rng.integers(len(z)), -2e-9, z))
                rows[1].append(g)
            elif rng.random() < 0.1:
                rows[0].append(z + (1.0 + 3e-9 - z.sum()) / len(z))
                rows[1].append(g)
    assert sorted(stacks) == list(range(1, 13))
    lps, nnls = count_lps(monkeypatch), count_nnls(monkeypatch)
    for d, (Z, G) in stacks.items():
        poly = simplex_polyhedron(d)
        before = len(nnls)
        got = _scenario_checks(FeasibleSet.simplex(d), np.array(Z), np.array(G))
        closed = len(nnls) - before
        want = _scenario_checks(FeasibleSet.polyhedron(poly), np.array(Z), np.array(G))
        assert closed == 0 and len(nnls) > before and lps == []
        assert None in want and any(w is not None for w in want)
        for a, b, g in zip(got, want, G):
            assert (a is None) == (b is None)
            if a is not None:
                assert (a[1] is None) == (b[1] is None)
                if a[1] is not None:
                    assert abs(a[1] - b[1]) <= 1e-18 * (1.0 + np.abs(g).sum())
                assert abs(a[0] - b[0]) <= 1e-15 * max(1.0, abs(b[0]))


SIMPLEX_L1_CASES = [
    (simplex_polyhedron(8), np.full(8, 0.125), np.concatenate([np.ones(7), [1.0 - 1.5e-9]])),
    (simplex_polyhedron(12), np.concatenate([np.full(4, 0.125), np.full(8, 0.0625)]),
     np.concatenate([np.ones(11), [1.0 - 1.5e-9]])),
]


@pytest.mark.parametrize("poly, z, target", [
    (Polyhedron([[1.0, 0.01]], [1.0]), np.array([1.0, 0.0]), np.array([1.0, 0.01 - 7e-10])),
] + SIMPLEX_L1_CASES)
def test_the_gap_reads_the_distance_not_the_lp_optimum(poly, z, target, monkeypatch):
    """Every active slack is exactly 0 and the Euclidean distance from the
    target to the normal cone is within its feasibility threshold, yet the
    phase-1 LP finds no multiplier: its artificials take the sign of the
    target, so a residual of the other sign costs its L1 optimum more. The
    gap follows the distance: 0.0, with no LP run."""
    slack = poly.slacks(z)
    I = active_rows(poly, slack)
    assert I and not slack[list(I)].any()
    assert cone_distance(target, poly.A[list(I)]) <= feasibility_threshold(target)
    assert multiplier_within_support(poly, target, I) is None
    calls = count_lps(monkeypatch)
    _, comp_gap = _scenario_checks(FeasibleSet.polyhedron(poly), z[None], -target[None])[0]
    assert comp_gap == 0.0 and calls == []


_TIE = 4e-11


@pytest.mark.parametrize("target, active, found", [
    ([1.0 + _TIE, 1.0, 1.0], [1, 0, 0, 1], True),   # a pinned entry 4e-11 above tau
    ([-0.5, 1.0, 1.0], [1, 0, 0, 1], True),         # a bound with a negative target
    ([1.0, 1.0, 1.0], [1, 0, 0, 1], True),          # biactive: t_0 equals tau
    ([-0.0, 0.0, -0.0], [1, 0, 0, 1], True),
    ([-0.5, -0.25, 0.0], [1, 1, 0, 0], True),       # no budget
    ([-0.5, 0.25, 0.0], [1, 1, 0, 0], False),
    ([5e-10, -5e-10], [0, 0, 0], True),             # no active row: |t| <= eps
    ([2e-9, 0.0], [0, 0, 0], False),
    # the Euclidean distance just above and just below the threshold; the
    # phase-1 LP finds no multiplier in either, its L1 optimum being sqrt(2)
    # times the distance
    ([1.0, 1.0 + 3e-9 * np.sqrt(2.0) * (1.0 + 1e-6)], [0, 0, 1], False),
    ([1.0, 1.0 + 3e-9 * np.sqrt(2.0) * (1.0 - 1e-6)], [0, 0, 1], True),
])
def test_simplex_multipliers_cases(target, active, found):
    """Each edge case of the simplex multiplier, one row each. The closed
    form's (mu, tau) is >= 0, vanishes off the active rows and gives the
    reported residual, A^T lam - t; _scenario_checks' rule finds it exactly
    where that residual is within feasibility_threshold(t). Where
    multiplier_within_support's LP finds a multiplier too, the two agree
    within 1e-9 (1 + |t|_1)."""
    target, active = np.array([target]), np.array([active], dtype=bool)
    poly = simplex_polyhedron(target.shape[1])
    resid, low_res, lam = GN._simplex_residual_rows(target, active)
    assert np.all(lam[0] >= 0.0) and not lam[0][~active[0]].any()
    assert np.array_equal(resid[0], poly.A.T @ lam[0] - target[0])
    assert low_res[0] == np.linalg.norm(resid[0])
    assert bool(low_res[0] <= feasibility_threshold(target[0])) == found
    want = multiplier_within_support(poly, target[0], np.flatnonzero(active[0]))
    if want is not None:
        assert found and np.max(np.abs(lam[0] - want)) <= 1e-9 * (1.0 + np.abs(target).sum())
