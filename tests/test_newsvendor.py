import decimal
import json
from decimal import Decimal
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import mstat.newsvendor as NV
from conftest import (
    nv_oracle_cdf,
    nv_oracle_grad_theta_cdf,
    nv_oracle_grid_search,
    nv_oracle_pdf,
    nv_oracle_regret,
    nv_oracle_solve,
    nv_oracle_sq_distances,
    nv_oracle_weights,
    orthant_oracle,
)
import mstat.graph_normals as GN
from mstat.cones import DEFAULT_EPS, STRICT_EPS
from mstat.graph_normals import NormalPair, _orthant_rows, orthant_membership
from mstat.newsvendor import (
    KernelModel,
    NewsvendorInstance,
    NewsvendorLowerModel,
    bandwidth_grid_search,
    conditional_cdf,
    conditional_pdf,
    empirical_regret,
    grad_theta_cdf,
    nw_weights,
    solve_newsvendor,
    solve_newsvendor_rows,
    verify_newsvendor_system,
)
from mstat.stationarity import value_function, verify_certificate_penalized


def single_center(y=5.0, theta=2.0):
    return KernelModel([([0.0], y)], theta)


# ---------------------------------------------------------------------------
# weights

def test_weights_basic():
    assert np.allclose(nw_weights(single_center(), [3.0]), [1.0])
    m = KernelModel([([1.0], 0.0), ([-1.0], 2.0)], 1.0)
    assert np.allclose(nw_weights(m, [0.0]), [0.5, 0.5])


def test_weights_sharp_bandwidth_concentrates():
    m = KernelModel([([1.0], 0.0), ([2.0], 2.0)], 0.01)
    w = nw_weights(m, [0.0])
    assert w[0] >= 1.0 - 1e-10


def test_weights_remote_query_degrades_to_uniform():
    m = KernelModel([([0.0], 0.0), ([1e-9], 1.0)], 0.5)
    w = nw_weights(m, [1e8])
    assert np.all(np.isfinite(w)) and abs(w.sum() - 1.0) < 1e-12
    assert np.allclose(w, 0.5, atol=1e-6)
    with pytest.raises(ValueError):
        nw_weights(m, [np.nan])


def test_weights_partition_of_unity(rng):
    m = KernelModel([(rng.normal(size=2), float(rng.normal()))
                     for _ in range(6)], 0.8)
    for _ in range(1000):
        w = nw_weights(m, rng.normal(size=2) * 3)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.min(w) >= 0.0 and np.max(w) <= 1.0


# ---------------------------------------------------------------------------
# conditional distribution

def test_cdf_limits_and_symmetry():
    m = single_center()
    assert conditional_cdf(m, 1e9, [0.0]) == pytest.approx(1.0)
    assert conditional_cdf(m, -1e9, [0.0]) == pytest.approx(0.0)
    assert conditional_cdf(m, 5.0, [0.0]) == pytest.approx(0.5)
    m2 = KernelModel([([1.0], 0.0), ([-1.0], 2.0)], 1.0)
    assert conditional_cdf(m2, 1.0, [0.0]) == pytest.approx(0.5)


def test_cdf_monotone_on_grid(rng):
    m = KernelModel([(rng.normal(size=1), float(rng.normal() * 2))
                     for _ in range(5)], 0.7)
    x = rng.normal(size=1)
    grid = np.linspace(-8, 8, 200)
    vals = [conditional_cdf(m, y, x) for y in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_pdf_integrates_to_one(rng):
    m = KernelModel([(rng.normal(size=1), float(rng.normal() * 2))
                     for _ in range(4)], 0.9)
    x = rng.normal(size=1)
    lo = float(np.min(m.centers_y) - 10 * m.theta)
    hi = float(np.max(m.centers_y) + 10 * m.theta)
    val, _ = quad(lambda y: conditional_pdf(m, y, x), lo, hi, limit=200)
    assert abs(val - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# bandwidth gradient

def test_grad_theta_cdf_single_center_closed_form():
    m = single_center(y=5.0, theta=1.0)
    assert grad_theta_cdf(m, 5.0, [0.0]) == pytest.approx(0.0, abs=1e-15)
    assert grad_theta_cdf(m, 6.0, [0.0]) == pytest.approx(-norm.pdf(1.0), abs=1e-14)


def test_grad_theta_cdf_matches_finite_differences(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        dx = int(rng.integers(1, 4))
        centers = [(rng.normal(size=dx), float(rng.normal() * 2)) for _ in range(n)]
        theta = float(rng.uniform(0.5, 2.0))
        m = KernelModel(centers, theta)
        x = rng.normal(size=dx)
        y = float(rng.normal() * 2)
        a = grad_theta_cdf(m, y, x)
        h = 1e-5
        fd = (conditional_cdf(m.with_theta(theta + h), y, x)
              - conditional_cdf(m.with_theta(theta - h), y, x)) / (2 * h)
        worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# the quantile solver

def test_solver_median_and_quantile():
    m = single_center(y=5.0, theta=2.0)
    assert solve_newsvendor(m, [0.0], 1.0, 1.0) == pytest.approx(5.0, abs=1e-10)
    z = solve_newsvendor(m, [0.0], 1.0, 3.0)
    assert z == pytest.approx(5.0 + 2.0 * norm.ppf(0.75), abs=1e-10)
    assert abs(4.0 * conditional_cdf(m, z, [0.0]) - 3.0) <= 1e-12


def test_solver_boundary_branch():
    m = KernelModel([([0.0], -10.0)], 1.0)
    assert solve_newsvendor(m, [0.0], 9.0, 1.0) == 0.0
    # boundary is consistent: the critical ratio is met at zero
    assert 10.0 * conditional_cdf(m, 0.0, [0.0]) - 1.0 >= 0.0


def test_solver_residual_on_random_instances(rng):
    for _ in range(30):
        n = int(rng.integers(1, 8))
        m = KernelModel([(rng.normal(size=1), float(rng.normal() * 3 + 4))
                         for _ in range(n)], float(rng.uniform(0.4, 2.0)))
        h = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.2, 3.0))
        z = solve_newsvendor(m, [0.0], h, b)
        if z > 0:
            assert abs((h + b) * conditional_cdf(m, z, [0.0]) - b) <= 1e-12
        else:
            assert (h + b) * conditional_cdf(m, 0.0, [0.0]) - b >= -1e-12
    with pytest.raises(ValueError):
        solve_newsvendor(m, [0.0], 0.0, 1.0)


# ---------------------------------------------------------------------------
# losses

def one_sample_regret(model, x, y_realized, h, b):
    """Decision regret of the model's order at x against one realized demand."""
    sample = [(x, y_realized)]
    return empirical_regret(NewsvendorInstance(h=h, b=b, centers=sample, samples=sample),
                            model)


def test_loss_values():
    m = single_center(y=5.0, theta=2.0)
    z_med = solve_newsvendor(m, [0.0], 1.0, 1.0)
    assert one_sample_regret(m, [0.0], z_med, 1.0, 1.0) == pytest.approx(0.0)
    assert one_sample_regret(m, [0.0], 5.0, 1.0, 3.0) == pytest.approx(
        2.0 * norm.ppf(0.75), abs=1e-9)
    m2 = KernelModel([([0.0], -10.0)], 1.0)
    assert one_sample_regret(m2, [0.0], 2.0, 9.0, 3.0) == pytest.approx(6.0)


def test_loss_nonnegative_zero_iff_exact(rng):
    for _ in range(50):
        m = KernelModel([(rng.normal(size=1), float(rng.normal() + 5))
                         for _ in range(3)], 1.0)
        y = float(rng.normal() + 5)
        h, b = 1.0, 2.0
        val = one_sample_regret(m, [0.0], y, h, b)
        assert val >= 0.0
        z = solve_newsvendor(m, [0.0], h, b)
        assert (val == 0.0) == (abs(z - y) == 0.0)


# ---------------------------------------------------------------------------
# lower model plumbing

def test_lower_model_gradients(rng):
    inst = NewsvendorInstance(h=1.0, b=3.0,
                              centers=[([0.0], 5.0), ([1.0], 7.0)],
                              samples=[([0.5], 6.0)])
    lm = NewsvendorLowerModel(inst)
    x = np.array([0.5])
    theta = np.array([1.3])
    h = 1e-6
    for z in (4.0, 6.0, 8.5):
        fd_z = (lm.cost([z + h], theta, x) - lm.cost([z - h], theta, x)) / (2 * h)
        assert abs(lm.grad_z([z], theta, x)[0] - fd_z) < 1e-8
        fd_t = (lm.cost([z], theta + h, x) - lm.cost([z], theta - h, x)) / (2 * h)
        assert abs(lm.grad_theta([z], theta, x)[0] - fd_t) < 1e-8
        fd_zt = (lm.grad_z([z], theta + h, x)[0] - lm.grad_z([z], theta - h, x)[0]) / (2 * h)
        assert abs(lm.hess_ztheta([z], theta, x)[0, 0] - fd_zt) < 1e-8


# ---------------------------------------------------------------------------
# the stationarity system

def test_system_kink_construction_passes():
    """One sample with h = b and demand at the kernel center: the order
    quantity hits both the quantile and the cost kink, so eta = zeta = 0
    closes every line."""
    inst = NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 5.0)],
                              samples=[([0.0], 5.0)])
    z = solve_newsvendor(inst.model(2.0), [0.0], 1.0, 1.0)
    rep = verify_newsvendor_system(2.0, [{"z": z, "eta": 0.0, "zeta": 0.0}], inst)
    assert rep.passed
    assert rep.upper_residual <= 1e-12
    # Without zeta the verifier probes with the element of the kink
    # interval [-b, h] nearest 0, which is 0 here.
    from mstat.stationarity import Certificate, verify_certificate
    bare = verify_certificate(NV.as_problem(inst), Certificate(
        theta=2.0, scenarios=[{"z": z, "eta": 0.0}]))
    assert bare.passed and bare.columns.m_residual[0] == 0.0


def test_system_detects_stale_quantile():
    inst = NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 5.0)],
                              samples=[([0.0], 5.0)])
    z = solve_newsvendor(inst.model(2.0), [0.0], 1.0, 1.0)
    rep = verify_newsvendor_system(1.5, [{"z": z, "eta": 0.0, "zeta": 0.0}], inst)
    # z was computed for bandwidth 2.0; under 1.5 it still happens to satisfy
    # the symmetric median condition, so shift the demand to break symmetry
    inst2 = NewsvendorInstance(h=1.0, b=3.0, centers=[([0.0], 5.0)],
                               samples=[([0.0], 5.0)])
    z2 = solve_newsvendor(inst2.model(2.0), [0.0], 1.0, 3.0)
    rep2 = verify_newsvendor_system(1.5, [{"z": z2, "eta": 0.0, "zeta": 0.0}], inst2)
    assert not rep2.passed
    expected = abs(4.0 * conditional_cdf(inst2.model(1.5), z2, [0.0]) - 3.0)
    assert rep2.columns.lower_residual[0] == pytest.approx(expected, abs=1e-12)


def test_system_boundary_scenario_rejects_nonzero_eta():
    inst = NewsvendorInstance(h=9.0, b=1.0, centers=[([0.0], -10.0)],
                              samples=[([0.0], 1.0)])
    z = solve_newsvendor(inst.model(1.0), [0.0], 9.0, 1.0)
    assert z == 0.0
    ok = verify_newsvendor_system(1.0, [{"z": 0.0, "eta": 0.0, "zeta": -1.0}], inst)
    bad = verify_newsvendor_system(1.0, [{"z": 0.0, "eta": 0.1, "zeta": -1.0}], inst)
    assert not bad.columns.m_membership[0]
    assert ok.columns.m_membership[0]


def test_system_upper_condition_respects_bandwidth_bounds():
    """At an interior bandwidth the weighted gradient sum must vanish; at the
    lower bound a push toward smaller bandwidths is allowed."""
    inst = NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 5.0), ([2.0], 6.0)],
                              samples=[([0.0], 5.0), ([2.0], 6.0)],
                              theta_bounds=(0.5, 10.0))
    theta = 2.0
    model = inst.model(theta)
    parts = []
    for x in inst.samples.x:
        z = solve_newsvendor(model, x, 1.0, 1.0)
        parts.append({"z": z, "eta": 0.4, "zeta": 0.0})
    rep = verify_newsvendor_system(theta, parts, inst)
    drift = sum(w * 2.0 * grad_theta_cdf(model, p["z"], x) * p["eta"]
                for x, w, p in zip(inst.samples.x, inst.weights, parts))
    assert rep.upper_residual == pytest.approx(abs(drift), abs=1e-12)


def test_bandwidth_outside_its_bounds_fails_the_upper_line():
    """nv4's passing certificate has theta = 0.5; with theta_bounds
    [0.001, 0.25] it lies outside the bandwidth interval, where the normal
    cone is empty: the upper line fails with an infinite residual and a
    caveat, and every scenario line keeps its value."""
    golden = Path(__file__).parent / "golden"
    problem = json.loads((golden / "nv4.problem.json").read_text())
    cert = json.loads((golden / "nv4.pass.json").read_text())
    inside = verify_newsvendor_system(cert["theta"], cert["scenarios"],
                                      NewsvendorInstance.from_dict(problem))
    assert inside.passed and inside.caveats == []
    problem["theta_bounds"] = [0.001, 0.25]
    out = verify_newsvendor_system(cert["theta"], cert["scenarios"],
                                   NewsvendorInstance.from_dict(problem))
    assert not out.passed and out.upper_residual == float("inf")
    assert out.caveats == ["theta[0] = 0.5 lies more than 1e-09 above its upper bound 0.25"]
    assert out.to_dict()["scenarios"] == inside.to_dict()["scenarios"]


def _as_tuple(res):
    return res.member, res.verdict, res.witness


@pytest.mark.parametrize("eps, strict", [(DEFAULT_EPS, STRICT_EPS), (1e-12, 1e-6)])
def test_orthant_row_pass_matches_per_point_oracle(rng, monkeypatch, eps, strict):
    """The row pass over n scalar scenarios gives, row by row, the verdict,
    reason and witness of orthant_membership and of the plain oracle, on
    random scalars and on values at 0, +-eps and +-strict_eps. The second
    tolerance pair puts strict_eps above eps, where the both-negative edge
    decides."""
    edges = [0.0, eps, -eps, strict, -strict, 2 * eps, -2 * eps, 0.5 * strict]
    n = 3000
    cols = [np.where(rng.random(n) < 0.7, rng.choice(edges, n), rng.normal(size=n))
            for _ in range(4)]
    z, g, zeta, eta = cols
    monkeypatch.setattr(GN, "STRICT_EPS", strict)
    rows = _orthant_rows(z[:, None], g[:, None], zeta[:, None], eta[:, None], eps)
    seen = set()
    for k in range(n):
        res = rows.membership(k)
        assert rows[k] == res.witness
        point = z[k:k + 1], g[k:k + 1], zeta[k:k + 1], eta[k:k + 1]
        single = orthant_membership(point[0], point[1], NormalPair(point[2], point[3]), eps)
        assert _as_tuple(res) == _as_tuple(single) == orthant_oracle(*point, eps, strict)
        seen.add(res.witness.get("reason", res.verdict))
        if res.witness.get("boundary_ambiguous"):
            seen.add("ambiguous")
    assert seen == {"member", "not_member", "ambiguous", "z has negative coordinates",
                    "g has negative coordinates", "z and g are not complementary"}


def test_orthant_reason_order_when_several_coordinates_fail(rng):
    """With one coordinate failing each graph-point check, the reason is the
    first check in order, whatever the coordinate order."""
    z = np.array([1.0, -1.0, 0.0, 2.0])
    g = np.array([1.0, 0.0, -1.0, 0.0])
    pair = NormalPair(np.zeros(4), np.zeros(4))
    for drop, reason in ((None, "z has negative coordinates"),
                         (1, "g has negative coordinates"),
                         (2, "z and g are not complementary")):
        if drop is not None:
            z[drop] = g[drop] = 0.0
        for perm in (np.arange(4), np.arange(4)[::-1]):
            res = orthant_membership(z[perm], g[perm], NormalPair(pair.zeta, pair.eta))
            assert res.witness == {"reason": reason}
            assert _as_tuple(res) == orthant_oracle(z[perm], g[perm], pair.zeta, pair.eta)
    edges = np.array([0.0, DEFAULT_EPS, -DEFAULT_EPS, STRICT_EPS, -STRICT_EPS, 1.0, -1.0])
    for _ in range(500):
        pt = [rng.choice(edges, 5) for _ in range(4)]
        res = orthant_membership(pt[0], pt[1], NormalPair(pt[2], pt[3]))
        assert _as_tuple(res) == orthant_oracle(*pt)
    with pytest.raises(ValueError):
        orthant_membership(np.zeros(1), np.zeros(1), NormalPair(np.zeros(3), np.zeros(3)))


def test_system_orthant_line_matches_oracle(rng):
    """Each scenario report of verify_newsvendor_system carries the oracle's
    verdict and witness at (z_n, (h+b) F(z_n) - b)."""
    inst = NewsvendorInstance(h=1.0, b=3.0,
                              centers=[([x], 3.0 + x) for x in np.linspace(-1, 1, 9)],
                              samples=[([x], 3.0 + x) for x in np.linspace(-1, 1, 40)])
    model = inst.model(0.4)
    z = solve_newsvendor_rows(model, inst.samples.x, inst.h, inst.b)
    z[::5] = 0.0
    z[1::7] += 0.5
    parts = [{"z": float(zn), "eta": float(rng.choice([0.0, -1.0, 0.3])),
              "zeta": float(rng.choice([0.0, -2.0, 1e-13]))} for zn in z]
    rep = verify_newsvendor_system(0.4, parts, inst)
    verdicts = set()
    for x, part, s in zip(inst.samples.x, parts, rep.to_dict()["scenarios"]):
        g = (inst.h + inst.b) * conditional_cdf(model, part["z"], x) - inst.b
        witness = {k: v for k, v in s["witness"].items() if k != "subdiff"}
        assert (s["m_membership"], s["m_verdict"], witness) == orthant_oracle(
            [part["z"]], [g], [part["zeta"]], [part["eta"]])
        verdicts.add(s["m_verdict"])
    assert verdicts == {"member", "not_member", "empty_coderivative"}


# ---------------------------------------------------------------------------
# bandwidth search

def test_grid_search_determinism_and_ties():
    pts = [([0.0], 3.0), ([1.0], 5.0), ([2.0], 4.0)]
    inst = NewsvendorInstance(h=1.0, b=2.0, centers=pts, samples=pts)
    grid = [0.5, 1.0, 2.0]
    assert bandwidth_grid_search(inst, grid) == bandwidth_grid_search(inst, grid)
    assert bandwidth_grid_search(inst, [0.7]) == 0.7
    # symmetric single-sample instance: flat objective, lowest index wins
    sym = NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 5.0)],
                             samples=[([0.0], 5.0)])
    assert bandwidth_grid_search(sym, [0.5, 1.0, 2.0]) == 0.5
    with pytest.raises(ValueError):
        bandwidth_grid_search(inst, [])


def test_grid_search_pinned_argmin():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, (6, 1))
    ys = 3.0 + 1.5 * np.sin(2.0 * xs[:, 0]) + 0.2 * rng.standard_normal(6)
    pts = [(x, float(y)) for x, y in zip(xs, ys)]
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=pts, samples=pts)
    first = bandwidth_grid_search(inst, [0.5, 1.0, 2.0])
    assert first == bandwidth_grid_search(inst, [0.5, 1.0, 2.0])
    assert first == 0.5


# ---------------------------------------------------------------------------
# serialization

def test_round_trip():
    pts = [([0.0, 1.0], 3.0), ([1.0, 0.5], 5.0)]
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=pts, samples=pts)
    again = NewsvendorInstance.from_dict(inst.to_dict())
    assert again.h == inst.h and len(again.centers.y) == 2


# ---------------------------------------------------------------------------
# batched rows against the per-query oracle

def random_instance(rng, n, d_x, kind):
    """Random kernel instance; kind 'boundary' puts demand far below zero so
    most decisions take the z = 0 branch, 'remote' spreads the contexts so
    far apart that the weights degrade to one-hot or uniform rows."""
    xs = rng.uniform(-1.0, 1.0, (n, d_x))
    ys = 3.0 + 1.5 * np.sin(2.0 * xs[:, 0]) + 0.5 * rng.standard_normal(n)
    h, b = 1.0, 3.0
    if kind == "boundary":
        ys -= 6.0
        h, b = 9.0, 1.0
    elif kind == "remote":
        xs *= 1e4
    pts = [(x, float(y)) for x, y in zip(xs, ys)]
    return NewsvendorInstance(h=h, b=b, centers=pts, samples=pts)


def cases(rng):
    for n in (1, 2, 7, 33, 80):
        for d_x in (1, 3):
            for kind in ("plain", "boundary", "remote"):
                yield random_instance(rng, n, d_x, kind), float(rng.choice([0.05, 0.3, 1.2]))


def assert_quantile_contract(zs, centers_x, centers_y, theta, xs, h, b, leave_one_out=False):
    """Each order quantity z_i in zs of the query rows xs meets the quantile
    solve's contract, by the oracle's CDF (nv_oracle_cdf), which rebuilds
    each row's weights: z_i = 0 exactly where F(0) >= q; otherwise
    |F(z_i) - q| <= 2 delta, for delta = _CDF_DELTA + M eps over M centers,
    or z_i tops a collapsed bracket: F is below q at the float under z_i
    and not below it at z_i. With leave_one_out, row i drops center i.
    Returns the number of rows on a collapsed bracket."""
    q = b / (h + b)
    delta = NV._CDF_DELTA + len(centers_y) * np.finfo(float).eps
    collapsed = 0
    for i, (x, z) in enumerate(zip(xs, zs)):
        def cdf(y):
            return nv_oracle_cdf(centers_x, centers_y, theta, y, x, i if leave_one_out else None)
        if cdf(0.0) >= q:
            assert z == 0.0
        elif abs(cdf(z) - q) > 2.0 * delta:
            assert cdf(np.nextafter(z, -np.inf)) < q <= cdf(z), (i, z, cdf(z) - q)
            collapsed += 1
    return collapsed


def test_rows_match_one_row_solves_bit_for_bit(rng):
    """Stacked rows get the floats of their one-row solves, and each meets
    the quantile contract by the oracle's CDF, on every case family; a row's
    weights, CDF, density and bandwidth slope are the oracle's floats."""
    zeros = 0
    for inst, theta in cases(rng):
        model = inst.model(theta)
        cx, cy = model.centers_x, model.centers_y
        X = inst.samples.x
        rows = solve_newsvendor_rows(model, X, inst.h, inst.b)
        assert rows.tolist() == [solve_newsvendor(model, x, inst.h, inst.b) for x in X]
        assert_quantile_contract(rows, cx, cy, theta, X, inst.h, inst.b)
        zeros += int(np.sum(rows == 0.0))
        for x, z in zip(X[:3], rows):
            y = z + 0.3
            assert nw_weights(model, x).tolist() == nv_oracle_weights(cx, x, theta).tolist()
            assert conditional_cdf(model, y, x) == nv_oracle_cdf(cx, cy, theta, y, x)
            assert conditional_pdf(model, y, x) == nv_oracle_pdf(cx, cy, theta, y, x)
            assert grad_theta_cdf(model, y, x) == nv_oracle_grad_theta_cdf(cx, cy, theta, y, x)
    assert zeros > 0
    # a critical ratio that rounds to 1 is never bracketed
    with pytest.raises(RuntimeError):
        nv_oracle_solve(cx, cy, theta, X[0], 1e-17, 1.0)
    with pytest.raises(RuntimeError):
        solve_newsvendor_rows(model, X, 1e-17, 1.0)


def quantile_centers(seed, n, d_x, kind):
    """n centers with contexts in [-1, 1]^d_x and demands that are multimodal
    (tight clusters at 0, 2, 7 and 15), tied (small integers, so centers
    share a demand exactly) or heavy-tailed (Cauchy about 3, which also puts
    some demand below 0)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, (n, d_x))
    if kind == "multimodal":
        ys = rng.choice([0.0, 2.0, 7.0, 15.0], n) + 0.05 * rng.standard_normal(n)
    elif kind == "tied":
        ys = rng.integers(0, 5, n).astype(float)
    else:
        ys = 3.0 + rng.standard_cauchy(n)
    return [(x, float(y)) for x, y in zip(xs, ys)]


@st.composite
def quantile_instances(draw):
    """(centers, theta, h, b): quantile_centers with theta in [0.01, 5]."""
    n, d_x = draw(st.integers(1, 24)), draw(st.sampled_from([1, 2, 3, 9]))
    centers = quantile_centers(draw(st.integers(0, 2 ** 32 - 1)), n, d_x,
                               draw(st.sampled_from(["multimodal", "tied", "heavy"])))
    theta = draw(st.floats(0.01, 5.0))
    h, b = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
    return centers, theta, h, b


@settings(max_examples=60, deadline=None)
@given(quantile_instances())
@example((quantile_centers(9, 17, 9, "multimodal"), 0.7, 1.0, 3.0))
# Two instances on which the Halley search of an earlier solve verified no
# side of some rows, which then took all 60 steps of its bisection.
@example((quantile_centers(2030436441, 25, 3, "heavy"), 0.21103423725894865,
          0.2591002172309069, 0.7408997827690931))
@example((quantile_centers(2416665628, 10, 2, "multimodal"), 0.010984572708758676,
          0.22898725890778926, 0.7710127410922107))
def test_quantile_rows_meet_the_oracle_cdf_property(case):
    """solve_newsvendor_rows, plain and leave-one-out, meets the quantile
    contract by the oracle's CDF on multimodal, tied and heavy-tailed
    demands, and its rows are independent: a plain row has the floats of
    its one-row solve, and rows solved one block of one row at a time have
    the floats of the whole stack. A single center has no leave-one-out
    rows."""
    centers, theta, h, b = case
    model = KernelModel(centers, theta)
    cx, cy = model.centers_x, model.centers_y
    plain = solve_newsvendor_rows(model, cx, h, b)
    assert_quantile_contract(plain, cx, cy, theta, cx, h, b)
    assert plain.tolist() == [solve_newsvendor(model, x, h, b) for x in cx]
    if len(cy) == 1:
        return
    loo = solve_newsvendor_rows(model, cx, h, b, leave_one_out=True)
    assert_quantile_contract(loo, cx, cy, theta, cx, h, b, leave_one_out=True)
    with patch.object(NV, "_BLOCK_ENTRIES", 1):
        assert solve_newsvendor_rows(model, cx, h, b, leave_one_out=True).tolist() == loo.tolist()


@st.composite
def bandwidth_grids(draw):
    """One to five bandwidths in [0.01, 5], and up to two repeats of drawn
    points inserted anywhere: a repeated point's total ties exactly."""
    grid = draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=5))
    for i in draw(st.lists(st.integers(0, len(grid) - 1), max_size=2)):
        grid.insert(draw(st.integers(0, len(grid))), grid[i])
    return grid


@settings(max_examples=60, deadline=None)
@given(quantile_instances(), bandwidth_grids())
@example((quantile_centers(3, 12, 2, "tied"), 0.7, 1.0, 3.0), [0.3, 1.1, 0.3])
@example((quantile_centers(5, 9, 1, "heavy"), 0.7, 2.0, 1.0), [0.8])
@example((quantile_centers(8, 1, 3, "multimodal"), 0.7, 1.0, 3.0), [0.5, 0.5, 2.0])
def test_grid_search_picks_the_exact_scans_bandwidth_property(case, grid):
    """bandwidth_grid_search returns the bandwidth of the scan of exact
    totals (nv_oracle_grid_search), on multimodal, tied and heavy-tailed
    demands, leave-one-out and, with one center, in-sample, with repeated
    and single grid points."""
    centers, _, h, b = case
    inst = NewsvendorInstance(h=h, b=b, centers=centers, samples=centers)
    assert bandwidth_grid_search(inst, grid) == nv_oracle_grid_search(inst, grid)


DISTANCE_DIMS = list(range(1, 41)) + [64, 127, 128, 129, 200]


@pytest.mark.parametrize("d_x", DISTANCE_DIMS)
@settings(max_examples=8, deadline=None)
@given(k=st.integers(1, 9), m=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_sq_distances_have_the_bits_of_the_axis_sum_property(d_x, k, m, seed):
    """_sq_distances adds the squared coordinate columns in the order of
    np.sum's pairwise reduction over the coordinate axis: left to right
    below 8 coordinates, eight running sums up to 128, two halves beyond.
    Each coordinate has its own scale in [1e-3, 1e3], so the terms differ
    by up to twelve orders of magnitude and a change of order shows."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, d_x)
    C, X = rng.standard_normal((m, d_x)) * scale, rng.standard_normal((k, d_x)) * scale
    got, want = NV._sq_distances(C, X), nv_oracle_sq_distances(C, X)
    assert got.shape == want.shape == (k, m) and got.tobytes() == want.tobytes()


def test_verify_calls_ndtr_once_per_row_block(rng, monkeypatch):
    """A newsvendor verify takes the CDF, the density and the bandwidth
    slope of each block of rows from one ndtr call."""
    inst = random_instance(rng, 30, 2, "plain")
    z = solve_newsvendor_rows(inst.model(0.4), inst.samples.x, inst.h, inst.b)
    parts = [{"z": float(v), "eta": 0.2, "zeta": 0.0} for v in z]
    whole = verify_newsvendor_system(0.4, parts, inst).to_dict()
    shapes = []
    real = NV.ndtr
    monkeypatch.setattr(NV, "ndtr", lambda u: shapes.append(u.shape) or real(u))
    assert verify_newsvendor_system(0.4, parts, inst).to_dict() == whole
    assert shapes == [(30, 30)]
    shapes.clear()
    monkeypatch.setattr(NV, "_BLOCK_ENTRIES", 7 * 30 * 2)
    assert verify_newsvendor_system(0.4, parts, inst).to_dict() == whole
    assert shapes == [(7, 30)] * 4 + [(2, 30)]


def test_shared_center_list_is_read_once(monkeypatch):
    """A problem whose samples equal its centers reads that list once, and
    the instance's samples are its centers; a JSON true among the samples
    is still refused where the centers hold 1, though true == 1."""
    points = NV._points
    calls = []
    monkeypatch.setattr(NV, "_points", lambda *a: calls.append(a[1]) or points(*a))
    pts = [{"x": [0.0, 1], "y": 5.0}, {"x": [0.5, -1.0], "y": 4}]
    problem = {"h": 1.0, "b": 3.0, "centers": pts, "samples": json.loads(json.dumps(pts))}
    inst = NewsvendorInstance.from_dict(problem)
    assert calls == ["center"] and inst.samples is inst.centers
    assert inst.to_dict()["samples"] == inst.to_dict()["centers"]
    calls.clear()
    other = NewsvendorInstance.from_dict({**problem, "samples": pts[:1]})
    assert calls == ["center", "sample"] and other.samples.y.tolist() == [5.0]
    samples = [{"x": [0.0, True], "y": 5.0}, pts[1]]
    assert samples == pts
    with pytest.raises(ValueError, match="finite 1-D array"):
        NewsvendorInstance.from_dict({**problem, "samples": samples})
    # Arrays are read as before, each list on its own.
    calls.clear()
    arrays = [[{"x": np.array(p["x"], dtype=float), "y": p["y"]} for p in pts] for _ in "cs"]
    inst = NewsvendorInstance.from_dict({**problem, "centers": arrays[0], "samples": arrays[1]})
    assert calls == ["center", "sample"] and inst.samples.x.tolist() == inst.centers.x.tolist()


def test_ndtr_imports_scipy_once(monkeypatch):
    """ndtr imports scipy.special on its first call only: a later call runs
    no import statement, so the about 46 calls of a gridsearch operation do
    not each pass through the import machinery."""
    import builtins

    NV.ndtr(np.zeros(1))
    imported = []
    real = builtins.__import__
    monkeypatch.setattr(builtins, "__import__",
                        lambda name, *args, **kw: imported.append(name) or real(name, *args, **kw))
    assert NV.ndtr(np.array([0.0, -np.inf])).tolist() == [0.5, 0.0]
    assert imported == []


def test_ndtr_error_is_a_tenth_of_the_stopping_band():
    """The quantile solve stops where |F - q| <= delta = _CDF_DELTA + M eps,
    the bound on the computed CDF's error against the exact mixture, and
    the absolute error of the ndtr it calls is part of delta. That error stays
    within _CDF_DELTA / 10 of the normal CDF on the fixed grid of
    tests/ndtr_reference.json (written from mpmath by make_ndtr_reference.py):
    [-40, 40] in steps of 0.04, the 50 floats either side of +-sqrt(2), where
    ndtr switches between erf and erfc, a band of 0.01 around them, and the
    far tails. Both sides are compared exactly as decimals."""
    reference = json.loads((Path(__file__).parent / "ndtr_reference.json").read_text())
    u = np.array([point[0] for point in reference["points"]])
    root2 = np.sqrt(2.0)
    assert {-root2, root2, -1e10, 1e10} <= set(u.tolist())
    with decimal.localcontext() as exact:
        exact.prec = 80
        err = [abs(Decimal(float(v)) - Decimal(ref))
               for v, (_, ref) in zip(NV.ndtr(u), reference["points"])]
    worst = max(err)
    assert worst <= Decimal(NV._CDF_DELTA) / 10, (float(worst), u[err.index(worst)])


def test_leave_one_out_regret_matches_oracle(rng):
    """The regrets of empirical_regret, leave-one-out and in-sample, lie
    within 1e-12 of the oracle's, whose order quantities come from the
    scalar bisection (nv_oracle_solve), and the search picks the oracle's
    argmin."""
    grid = [0.05, 0.2, 0.5, 1.2]
    kinds = iter(["plain", "boundary", "remote"] * 4)
    for n in (1, 2, 9, 40, 80):
        inst = random_instance(rng, n, 1 + 2 * (n % 2), next(kinds))
        loo = n > 1
        mine = [empirical_regret(inst, inst.model(t), leave_one_out=loo) for t in grid]
        oracle = [nv_oracle_regret(inst, t) for t in grid]
        assert np.max(np.abs(np.subtract(mine, oracle))) <= 1e-12
        best = grid[int(np.argmin(oracle))]
        assert bandwidth_grid_search(inst, grid) == best
    # fewer centers than samples: every sample is scored in-sample
    inst = random_instance(rng, 12, 2, "plain")
    inst.centers = NV.Points(inst.centers.x[:5], inst.centers.y[:5])
    mine = [empirical_regret(inst, inst.model(t)) for t in grid]
    oracle = [nv_oracle_regret(inst, t) for t in grid]
    assert np.max(np.abs(np.subtract(mine, oracle))) <= 1e-12


def test_lower_solver_answers_are_one_row_solves(rng, monkeypatch):
    """lower_solver answers rows: at each bandwidth one
    solve_newsvendor_rows call solves every row of X, and each row's one
    candidate is the float of a one-row solve, also for rows that are no
    sample; the start Z goes unused."""
    inst = random_instance(rng, 12, 2, "plain")
    solve = NV.lower_solver(inst)
    X = np.vstack([inst.samples.x, [[0.3, -0.2]], inst.samples.x[4:5] + 1e-9])
    thetas = (0.3, 0.7, 0.3)
    calls = []
    rows = NV.solve_newsvendor_rows
    with monkeypatch.context() as m:
        m.setattr(NV, "solve_newsvendor_rows",
                  lambda model, xs, *a: calls.append(len(xs)) or rows(model, xs, *a))
        answers = [solve(None, np.array([theta]), X, np.zeros((len(X), 1))) for theta in thetas]
    assert calls == [len(X)] * 3
    for theta, answer in zip(thetas, answers):
        model = inst.model(theta)
        for x, points in zip(X, answer):
            [z] = points
            assert z.tolist() == solve_newsvendor_rows(model, [x], inst.h, inst.b).tolist()


def test_value_function_gap_is_cost_rows_minus_value(rng):
    """value_function prices the candidates and the z_n in one cost_rows
    call; each row's value is the cost of its solution and its gap the
    float of cost_rows(Z) minus that value, as separate calls give them."""
    inst = random_instance(rng, 12, 2, "plain")
    lm, theta, X = NV.NewsvendorLowerModel(inst), np.array([0.4]), inst.samples.x
    solutions = solve_newsvendor_rows(inst.model(0.4), X, inst.h, inst.b)
    Z = np.maximum(solutions + rng.choice([0.0, 1e-3, -0.5, 2.0], len(X)), 0.0)[:, None]
    found = value_function(lm, theta, X, Z, NV.lower_solver(inst))
    values = lm.cost_rows(solutions[:, None], theta, X)
    costs = lm.cost_rows(Z, theta, X)
    assert [vf.value for vf in found] == values.tolist()
    assert [repr(vf.gap) for vf in found] == [repr(float(c - v)) for c, v in zip(costs, values)]


def test_cost_rows_equal_one_row_costs(rng, monkeypatch):
    """NewsvendorLowerModel.cost_rows gives each pair of rows the float of
    its one-row cost, on every case family, with order quantities at, below
    and above the demands and repeated contexts; the rows share one weight
    matrix per block of rows, also when the blocks are small."""
    for inst, theta in cases(rng):
        lm = NV.NewsvendorLowerModel(inst)
        X = np.vstack([inst.samples.x, inst.samples.x[::-1]])
        Z = np.concatenate([inst.samples.y, inst.samples.y[::-1]
                            + rng.choice([-1.0, 0.0, 1e-9, 2.0], len(inst.samples.y))])
        Z = [np.array([max(z, 0.0)]) for z in Z]
        want = [lm.cost(z, [theta], x) for z, x in zip(Z, X)]
        builds = []
        weight_rows = NV._weight_rows
        with monkeypatch.context() as m:
            m.setattr(NV, "_weight_rows", lambda *a: builds.append(None) or weight_rows(*a))
            got = lm.cost_rows(Z, np.array([theta]), X)
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]
        assert len(builds) == 1
        with monkeypatch.context() as m:
            m.setattr(NV, "_BLOCK_ENTRIES", 3 * X.size // len(X) * len(inst.centers.y))
            assert lm.cost_rows(Z, np.array([theta]), X).tolist() == got.tolist()


def test_penalized_newsvendor_verify_builds_weights_per_bandwidth(monkeypatch):
    """`verify --mode penalized` on a newsvendor certificate builds three
    weight matrices at its bandwidth, for the scenario terms, the lower
    solves and the lower costs, however many samples it has."""
    weight_rows = NV._weight_rows
    for n in (5, 40):
        inst = random_instance(np.random.default_rng(n), n, 2, "plain")
        z = NV.solve_newsvendor_rows(inst.model(0.4), inst.samples.x, inst.h, inst.b)
        parts = [{"z": float(v), "eta": 0.0, "zeta": 0.0} for v in z]
        builds = []
        with monkeypatch.context() as m:
            m.setattr(NV, "_weight_rows", lambda *a: builds.append(None) or weight_rows(*a))
            report = verify_certificate_penalized(
                NV.as_problem(inst), NV.newsvendor_certificate(0.4, parts),
                solver=NV.lower_solver(inst))
        assert len(builds) == 3 and report.columns.value_gap == [0.0] * n


def test_blocked_rows_equal_unblocked(rng, monkeypatch):
    inst = random_instance(rng, 40, 3, "plain")
    model = inst.model(0.3)
    X = inst.samples.x
    parts = [{"z": float(z), "eta": 0.3, "zeta": -0.1}
             for z in solve_newsvendor_rows(model, X, inst.h, inst.b)]

    def run():
        return (solve_newsvendor_rows(model, X, inst.h, inst.b),
                solve_newsvendor_rows(model, X, inst.h, inst.b, leave_one_out=True),
                verify_newsvendor_system(0.3, parts, inst).to_dict())

    whole = run()
    blocks = []
    real = NV._weight_rows

    def weight_block(m, Xb, drop=None):
        blocks.append(len(Xb))
        return real(m, Xb, drop)

    monkeypatch.setattr(NV, "_weight_rows", weight_block)
    monkeypatch.setattr(NV, "_BLOCK_ENTRIES", 7 * model.n_centers * model.d_x)
    split = run()
    assert max(blocks) == 7 and len(blocks) == 3 * 6
    assert split[0].tolist() == whole[0].tolist()
    assert split[1].tolist() == whole[1].tolist()
    assert split[2] == whole[2]


def test_grid_search_builds_one_weight_matrix_per_grid_point(rng, monkeypatch):
    inst = random_instance(rng, 30, 2, "plain")
    counts = {"weights": 0, "models": 0}
    real_weights, real_init = NV._weight_rows, KernelModel.__init__

    def weights(*args, **kw):
        counts["weights"] += 1
        return real_weights(*args, **kw)

    def init(self, *args, **kw):
        counts["models"] += 1
        real_init(self, *args, **kw)

    monkeypatch.setattr(NV, "_weight_rows", weights)
    monkeypatch.setattr(KernelModel, "__init__", init)
    grid = [0.1, 0.2, 0.4, 0.8, 1.6]
    bandwidth_grid_search(inst, grid)
    assert counts == {"weights": len(grid), "models": len(grid)}


def count_rows(monkeypatch, name):
    """Record the number of rows of every call of NV.<name>, whose second
    argument holds one row per query (weights or query points)."""
    rows, real = [], getattr(NV, name)
    monkeypatch.setattr(NV, name, lambda first, W, *a: rows.append(len(W)) or real(first, W, *a))
    return rows


def test_grid_search_solves_each_grid_point_once(rng, monkeypatch):
    """On a plain instance the search solves each grid point's rows in one
    _quantile_rows call, from one weight matrix, and picks the argmin of
    the oracle's totals (nv_oracle_regret)."""
    inst = random_instance(rng, 30, 2, "plain")
    grid = [0.1, 0.2, 0.4, 0.8, 1.6]
    oracle = [nv_oracle_regret(inst, t) for t in grid]
    built, solved = count_rows(monkeypatch, "_weight_rows"), count_rows(monkeypatch, "_quantile_rows")
    assert bandwidth_grid_search(inst, grid) == grid[int(np.argmin(oracle))]
    assert built == solved == [30] * len(grid)


def test_grid_search_rows_are_one_row_solves_in_any_grid(rng, monkeypatch):
    """Whatever the grid and the blocks, each grid point's order quantities
    are the floats of solve_newsvendor_rows at that bandwidth alone, and so
    each total is empirical_regret's: a repeated grid point ties exactly
    and the lowest index wins. Small blocks (_BLOCK_ENTRIES) give the same
    pick, and each grid point builds its weights one block at a time."""
    inst = random_instance(rng, 30, 2, "plain")
    X = inst.samples.x
    alone = {t: solve_newsvendor_rows(inst.model(t), X, inst.h, inst.b, leave_one_out=True)
             for t in (0.1, 0.2, 0.4, 0.8, 1.6)}
    quantiles = NV._quantile_rows
    for grid in ([0.1, 0.2, 0.4, 0.8, 1.6], [1.6, 0.8, 0.4, 0.2, 0.1], [0.4, 0.4, 0.8, 0.2]):
        want, solved = nv_oracle_grid_search(inst, grid), []
        with monkeypatch.context() as m:
            m.setattr(NV, "_quantile_rows", lambda model, W, q: solved.append(
                (model.theta, quantiles(model, W, q))) or solved[-1][1])
            assert bandwidth_grid_search(inst, grid) == want
        assert [t for t, _ in solved] == grid
        assert all(z.tolist() == alone[t].tolist() for t, z in solved)
    tie = [0.4, 0.4, 0.8, 0.2]
    want = nv_oracle_grid_search(inst, tie)
    with monkeypatch.context() as m:
        m.setattr(NV, "_BLOCK_ENTRIES", 7 * 30 * 2)
        built = count_rows(m, "_weight_rows")
        assert bandwidth_grid_search(inst, tie) == want
        assert built == [7, 7, 7, 7, 2] * len(tie)


def test_bracket_asks_one_ndtr_row_per_step(rng, monkeypatch):
    """The bracket asks F at 0 and at max_m y_m + 20 theta, the same y for
    every row, plain or leave-one-out, so each costs one ndtr row of M
    entries, not k M; the sides' first Halley step comes next, at k M
    entries. A critical ratio that rounds to 1 is not met at the top, and
    the solve raises after those two asks."""
    inst = random_instance(rng, 30, 2, "plain")
    model, k, M = inst.model(0.4), 30, 30
    real = NV.ndtr
    for leave_one_out in (False, True):
        sizes = []
        with monkeypatch.context() as m:
            m.setattr(NV, "ndtr", lambda u: sizes.append(np.size(u)) or real(u))
            solve_newsvendor_rows(model, inst.samples.x, inst.h, inst.b, leave_one_out)
            assert sizes[:3] == [M, M, k * M]
            sizes.clear()
            with pytest.raises(RuntimeError, match="failed to bracket the quantile"):
                solve_newsvendor_rows(model, inst.samples.x, 1e-17, 1.0, leave_one_out)
            assert sizes == [M, M]


def halley_iterations(monkeypatch, model, W, q):
    """The quantile solve of the weight rows W as (order quantities, rows
    evaluated at each lockstep iteration), read off _kernel_columns, which
    only _halley_rows calls during a solve."""
    counts, columns = [], NV._kernel_columns
    with monkeypatch.context() as m:
        m.setattr(NV, "_kernel_columns", lambda model, y: counts.append(len(y)) or columns(model, y))
        z = NV._quantile_rows(model, W, q)
    return z, counts


@pytest.mark.parametrize("family", ["plain", "multimodal", "tied", "heavy"])
def test_a_stopped_row_asks_the_cdf_nothing_more(family, rng, monkeypatch):
    """A stopped row is not evaluated again, and a row's iterations do not
    depend on its neighbours: if row i alone takes n_i iterations, the
    stacked solve of every row, plain and leave-one-out, evaluates
    #{i : n_i > t} rows at its iteration t and gives each row the floats
    of its one-row solve. Benchmark-like rows take a few iterations each."""
    if family == "plain":
        model = random_instance(rng, 30, 2, "plain").model(0.4)
    else:
        model = KernelModel(quantile_centers(int(rng.integers(2 ** 32)), 24, 2, family), 0.3)
    q = 0.7
    for drop in (None, np.arange(model.n_centers)):
        W = NV._weight_rows(model, model.centers_x, drop)[0]
        stacked, counts = halley_iterations(monkeypatch, model, W, q)
        single = [halley_iterations(monkeypatch, model, W[i:i + 1], q) for i in range(len(W))]
        assert stacked.tolist() == [z[0] for z, _ in single]
        alone = np.array([len(c) for _, c in single])
        assert counts == [int(np.sum(alone > t)) for t in range(max(alone))]
        assert family != "plain" or max(alone) <= 8


def test_a_row_whose_cdf_jumps_past_the_band_ends_on_a_collapsed_bracket(monkeypatch):
    """One center at y = 1 with theta = 1e-3 and q = 0.46: F moves by more
    than 2 delta between adjacent floats near the root, so no float meets
    |F - q| <= delta. The solve stops on the collapsed bracket, at the float
    above the jump, in fewer iterations than a 60-step bisection."""
    model = KernelModel([([0.0], 1.0)], 1e-3)
    h, b = 0.54, 0.46
    q = b / (h + b)
    delta = NV._CDF_DELTA + np.finfo(float).eps
    z, counts = halley_iterations(monkeypatch, model, np.ones((1, 1)), q)
    assert z.tolist() == [solve_newsvendor(model, [0.0], h, b)]
    below, above = (conditional_cdf(model, y, [0.0]) for y in (np.nextafter(z[0], 0.0), z[0]))
    assert below < q - delta and above > q + delta
    assert assert_quantile_contract(z, model.centers_x, model.centers_y, 1e-3, [[0.0]], h, b) == 1
    assert len(counts) < 60


# ---------------------------------------------------------------------------
# input validation

def test_bad_bandwidths_and_points_rejected():
    for theta in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            KernelModel([([0.0], 1.0)], theta)
    for centers in ([([np.nan], 1.0)], [([0.0], np.inf)], [([0.0], 1.0), ([0.0, 1.0], 2.0)]):
        with pytest.raises(ValueError):
            KernelModel(centers, 1.0)
    m = KernelModel([([0.0, 0.0, 0.0], 1.0)], 1.0)
    for query in ([0.0], [0.0, 0.0], [0.0, np.nan, 0.0]):
        with pytest.raises(ValueError):
            solve_newsvendor(m, query, 1.0, 1.0)
        with pytest.raises(ValueError):
            nw_weights(m, query)
    with pytest.raises(ValueError):
        solve_newsvendor(m, [0.0, 0.0, 0.0], np.nan, 1.0)

    good = dict(h=1.0, b=3.0, centers=[([0.0, 0.0, 0.0], 5.0)],
                samples=[([0.0, 0.0, 0.0], 5.0)])
    NewsvendorInstance(**good)
    for change in ({"samples": [([0.0], 5.0)]},
                   {"samples": [([0.0, np.inf, 0.0], 5.0)]},
                   {"samples": [([0.0, 0.0, 0.0], np.nan)]},
                   {"centers": [([np.nan, 0.0, 0.0], 5.0)]},
                   {"centers": []},
                   {"theta_bounds": (1e-3, np.inf)},
                   {"theta_bounds": (np.nan, 1.0)},
                   {"h": np.nan}, {"b": np.inf},
                   {"weights": [np.nan]}):
        with pytest.raises(ValueError):
            NewsvendorInstance(**{**good, **change})
    inst = NewsvendorInstance(**good)
    for theta in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError):
            inst.model(theta)


def test_bandwidth_and_coordinate_range_edges():
    """Bandwidths in [2^-340, 2^340] and coordinates up to 2^340 in
    magnitude give finite weights, CDFs and bandwidth slopes; one step
    beyond either edge is a ValueError that names the range."""
    edge = 2.0 ** 340
    for theta in (1.0 / edge, edge):
        m = KernelModel([([0.0], 1.0), ([edge], 2.0)], theta)
        for x in ([0.0], [edge]):
            assert np.all(np.isfinite(nw_weights(m, x)))
            assert np.isfinite(conditional_cdf(m, 1.5, x))
            assert np.isfinite(grad_theta_cdf(m, 1.5, x))
    with pytest.raises(ValueError, match="kernel weights underflow"):
        nw_weights(KernelModel([([0.0], 1.0), ([edge], 2.0)], 1.0 / edge), [-edge])
    for theta in (0.5 / edge, 2.0 * edge, 1e-200, 1e120):
        with pytest.raises(ValueError, match="bandwidth must lie in"):
            KernelModel([([0.0], 1.0)], theta)
    with pytest.raises(ValueError, match="magnitude at most 2\\^340"):
        KernelModel([([2.0 * edge], 1.0)], 1.0)
    with pytest.raises(ValueError, match="magnitude at most 2\\^340"):
        NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 1.0)], samples=[([-2.0 * edge], 1.0)])
    m = KernelModel([([0.0], 1.0)], 1.0)
    with pytest.raises(ValueError, match="magnitude at most 2\\^340"):
        nw_weights(m, [2.0 * edge])


def test_no_x_coordinate_is_the_unconditional_mixture():
    """With no x coordinate (d_x = 0) every weight row is uniform, so each
    order quantity is the critical quantile of the unconditional mixture,
    within the quantile contract by the oracle's CDF, plain and
    leave-one-out, with no division by zero in the row blocks. At theta
    0.3 the quantile lies on the plateau between the demands 6 and 9."""
    pairs = [([], 4.0), ([], 5.5), ([], 6.0), ([], 9.0)]
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=pairs, samples=pairs)
    assert inst.centers.x.shape == (4, 0) and inst.samples is not None
    for theta in (0.3, 1.0):
        model = inst.model(theta)
        cx, cy = model.centers_x, model.centers_y
        assert nw_weights(model, []).tolist() == [0.25] * 4
        plain = solve_newsvendor_rows(model, inst.samples.x, 1.0, 3.0)
        assert_quantile_contract(plain, cx, cy, theta, inst.samples.x, 1.0, 3.0)
        assert len(set(plain.tolist())) == 1
        loo = solve_newsvendor_rows(model, cx, 1.0, 3.0, leave_one_out=True)
        assert_quantile_contract(loo, cx, cy, theta, cx, 1.0, 3.0, leave_one_out=True)
    parts = [{"z": z, "eta": 0.0, "zeta": 0.0}
             for z in solve_newsvendor_rows(inst.model(1.0), inst.samples.x, 1.0, 3.0)]
    assert verify_newsvendor_system(1.0, parts, inst).summary()["upper_residual"] == 0.0
    assert bandwidth_grid_search(inst, [0.3, 1.0]) in (0.3, 1.0)


def test_points_read_as_pairs():
    """An instance's centers and samples are Points, built from (x, y)
    pairs into two arrays, the same for JSON input and for arrays."""
    pairs = [([0.0, 1.0], 3.0), ([1.0, 0.5], 5.0), ([2.0, 0.0], 4.0)]
    for centers in (pairs, [(np.array(x), y) for x, y in pairs]):
        inst = NewsvendorInstance(h=1.0, b=3.0, centers=centers, samples=pairs[:1])
        assert inst.centers.x.tolist() == [x for x, _ in pairs]
        assert inst.centers.y.tolist() == [y for _, y in pairs]


def test_non_finite_certificate_rejected():
    inst = NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 5.0)],
                              samples=[([0.0], 5.0)])
    ok = {"z": 5.0, "eta": 0.0, "zeta": 0.0}
    assert verify_newsvendor_system(2.0, [ok], inst).passed
    for theta in (np.nan, np.inf):
        with pytest.raises(ValueError):
            verify_newsvendor_system(theta, [ok], inst)
    for key in ("z", "eta", "zeta"):
        for bad in (np.nan, np.inf, -np.inf, None):
            with pytest.raises(ValueError):
                verify_newsvendor_system(2.0, [{**ok, key: bad}], inst)


# ---------------------------------------------------------------------------
# the newsvendor as a generic Problem

def _terms_bytes(terms):
    return [np.asarray(getattr(terms, name)).tobytes()
            for name in ("g", "curvature", "lo", "hi", "generators")]


@pytest.mark.parametrize("block_rows", [None, 1, 7])
def test_stacked_terms_equal_per_scenario_model_calls(rng, monkeypatch, block_rows):
    """as_problem's scenario_terms, one weight matrix per row block, gives
    the bits of the default Problem.scenario_terms, which calls the lower
    and upper models once per term and scenario; also with the row blocks
    forced small. The certificates put z on kinks, at 0 and beyond eps."""
    from mstat.stationarity import Certificate, Problem

    checked = 0
    for inst, theta in cases(rng):
        if len(inst.samples.y) > 33:
            continue
        model = inst.model(theta)
        if block_rows is not None:
            monkeypatch.setattr(NV, "_BLOCK_ENTRIES", block_rows * model.n_centers * model.d_x)
        X, ys = inst.samples.x, inst.samples.y
        z = solve_newsvendor_rows(model, X, inst.h, inst.b)
        pick = rng.random(len(z))
        z = np.where(pick < 0.2, ys, np.where(pick < 0.3, 0.0, z))
        near = ys + rng.choice([-2.0, -0.5, 0.5, 2.0], len(z)) * DEFAULT_EPS
        z = np.where((pick >= 0.3) & (pick < 0.5), near, z)
        cert = Certificate(theta=theta, scenarios=[
            {"z": zn, "eta": float(rng.normal()), "zeta": 0.0} for zn in z])
        problem = NV.as_problem(inst)
        stacked = problem.scenario_terms(cert.theta, cert)
        single = Problem.scenario_terms(problem, cert.theta, cert)
        assert _terms_bytes(stacked) == _terms_bytes(single)
        assert single.witness is None
        assert stacked.witness == {"subdiff": [[lo, hi] for lo, hi in
                                               zip(single.lo[:, 0], single.hi[:, 0])]}
        kink = [(-inst.b, inst.h) if abs(zn - y) <= DEFAULT_EPS else
                (inst.h, inst.h) if zn > y else (-inst.b, -inst.b) for zn, y in zip(z, ys)]
        assert list(zip(stacked.lo[:, 0], stacked.hi[:, 0])) == kink
        checked += 1
    assert checked == 24


def test_penalized_newsvendor_equals_convex_on_golden_certificates(capsys):
    """verify --mode penalized on the golden newsvendor certificates, which
    carry no mu: the pass flag, verdicts and residuals are the convex
    report's, and every value gap is at most 1e-12."""
    from mstat.cli import main

    golden = Path(__file__).parent / "golden"
    for name in ("nv1.zero", "nv1.eta", "nv2.zero", "nv2.eta"):
        reports = {}
        for mode in ("convex", "penalized"):
            code = main(["verify", "--problem", str(golden / (name[:3] + ".problem.json")),
                         "--certificate", str(golden / (name + ".json")), "--mode", mode])
            reports[mode] = (code, json.loads(capsys.readouterr().out))
        (code_c, convex), (code_p, penalized) = reports["convex"], reports["penalized"]
        assert code_c == code_p and convex["pass"] == penalized["pass"]
        assert penalized["mode"] == "penalized" and penalized["caveats"] == []
        assert convex["upper_residual"] == penalized["upper_residual"]
        for c, p in zip(convex["scenarios"], penalized["scenarios"], strict=True):
            assert {k: v for k, v in c.items() if k != "value_gap"} == \
                {k: v for k, v in p.items() if k != "value_gap"}
            assert c["value_gap"] is None and abs(p["value_gap"]) <= 1e-12


def test_infeasible_order_gets_the_generic_report():
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=[([0.0], 5.0)], samples=[([0.0], 5.0)])
    rep = verify_newsvendor_system(1.0, [{"z": -1e-6, "eta": 0.0, "zeta": 0.0}], inst)
    s = rep.to_dict()["scenarios"][0]
    assert (s["lower_residual"], s["m_residual"], s["m_verdict"]) == (np.inf, np.inf,
                                                                      "empty_coderivative")
    assert s["witness"] == {"reason": "infeasible scenario point", "subdiff": [-3.0, -3.0]}


def test_library_verifiers_reject_a_scenario_that_is_not_a_mapping():
    nv = NewsvendorInstance(h=1.0, b=3.0, centers=[([0.0], 5.0)],
                            samples=[([0.0], 5.0), ([0.5], 4.0)])
    good_nv = {"z": 5.0, "eta": 0.0, "zeta": 0.0}
    for bad in ([1.0, 2.0], 3.0, None, "z"):
        with pytest.raises(ValueError, match="certificate scenario 1 must be an object"):
            verify_newsvendor_system(1.0, [good_nv, bad], nv)
    with pytest.raises(ValueError, match="certificate scenarios must be a list"):
        verify_newsvendor_system(1.0, 3, nv)


def test_instance_rejects_wrong_shaped_fields():
    good = {"schema": "mstat/1", "type": "newsvendor_kernel", "h": 1.0, "b": 3.0,
            "centers": [{"x": [0.0], "y": 5.0}], "samples": [{"x": [0.0], "y": 5.0}]}
    NewsvendorInstance.from_dict(good)
    for key, value in (("samples", 3), ("centers", [[1, 2]]), ("h", {"a": 1}),
                       ("b", [1.0, 2.0]), ("theta_bounds", 3), ("theta_bounds", [1.0]),
                       ("weights", {"a": 1}), ("h", True),
                       ("samples", [{"x": {"a": 1}, "y": 5.0}]),
                       ("samples", [{"x": [True], "y": 5.0}]),
                       ("samples", [{"x": [0.0], "y": [5.0, 1.0]}])):
        with pytest.raises(ValueError):
            NewsvendorInstance.from_dict({**good, key: value})
