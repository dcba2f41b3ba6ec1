import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import mstat.newsvendor as NV
from conftest import (
    nv_oracle_cdf,
    nv_oracle_grad_theta_cdf,
    nv_oracle_pdf,
    nv_oracle_regret,
    nv_oracle_solve,
    nv_oracle_weights,
    orthant_oracle,
)
from mstat.cones import DEFAULT_EPS
from mstat.graph_normals import NormalPair, STRICT_EPS, _orthant_rows, orthant_membership
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
from mstat.stationarity import gradient_selftest


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
    lm = NewsvendorLowerModel(inst, [0.5])
    theta = np.array([1.3])
    gradient_selftest(lm, theta, None, [np.array([v]) for v in (4.0, 6.0, 8.5)])
    h = 1e-6
    for z in (4.0, 6.0, 8.5):
        fd_t = (lm.cost([z], theta + h) - lm.cost([z], theta - h)) / (2 * h)
        assert abs(lm.grad_theta([z], theta)[0] - fd_t) < 1e-8
        fd_zt = (lm.grad_z([z], theta + h)[0] - lm.grad_z([z], theta - h)[0]) / (2 * h)
        assert abs(lm.hess_ztheta([z], theta)[0, 0] - fd_zt) < 1e-8


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
    from mstat.stationarity import Certificate, ScenarioCertificate, verify_certificate
    bare = verify_certificate(NV.as_problem(inst), Certificate(
        theta=2.0, scenarios=[ScenarioCertificate(z=z, eta=0.0)]))
    assert bare.passed and bare.scenarios[0].m_residual == 0.0


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
    assert rep2.scenarios[0].lower_residual == pytest.approx(expected, abs=1e-12)


def test_system_boundary_scenario_rejects_nonzero_eta():
    inst = NewsvendorInstance(h=9.0, b=1.0, centers=[([0.0], -10.0)],
                              samples=[([0.0], 1.0)])
    z = solve_newsvendor(inst.model(1.0), [0.0], 9.0, 1.0)
    assert z == 0.0
    ok = verify_newsvendor_system(1.0, [{"z": 0.0, "eta": 0.0, "zeta": -1.0}], inst)
    bad = verify_newsvendor_system(1.0, [{"z": 0.0, "eta": 0.1, "zeta": -1.0}], inst)
    assert not bad.scenarios[0].m_membership
    assert ok.scenarios[0].m_membership


def test_system_upper_condition_respects_bandwidth_bounds():
    """At an interior bandwidth the weighted gradient sum must vanish; at the
    lower bound a push toward smaller bandwidths is allowed."""
    inst = NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 5.0), ([2.0], 6.0)],
                              samples=[([0.0], 5.0), ([2.0], 6.0)],
                              theta_bounds=(0.5, 10.0))
    theta = 2.0
    model = inst.model(theta)
    parts = []
    for x, y in inst.samples:
        z = solve_newsvendor(model, x, 1.0, 1.0)
        parts.append({"z": z, "eta": 0.4, "zeta": 0.0})
    rep = verify_newsvendor_system(theta, parts, inst)
    drift = sum(w * 2.0 * grad_theta_cdf(model, p["z"], x) * p["eta"]
                for (x, y), w, p in zip(inst.samples, inst.weights, parts))
    assert rep.upper_residual == pytest.approx(abs(drift), abs=1e-12)


def _as_tuple(res):
    return res.member, res.verdict, res.witness


@pytest.mark.parametrize("eps, strict", [(DEFAULT_EPS, STRICT_EPS), (1e-12, 1e-6)])
def test_orthant_row_pass_matches_per_point_oracle(rng, eps, strict):
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
    rows = _orthant_rows(z[:, None], g[:, None], zeta[:, None], eta[:, None], eps, strict)
    seen = set()
    for k, res in enumerate(rows):
        point = z[k:k + 1], g[k:k + 1], zeta[k:k + 1], eta[k:k + 1]
        single = orthant_membership(point[0], point[1], NormalPair(point[2], point[3]),
                                    eps, strict)
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
    z = solve_newsvendor_rows(model, [x for x, _ in inst.samples], inst.h, inst.b)
    z[::5] = 0.0
    z[1::7] += 0.5
    parts = [{"z": float(zn), "eta": float(rng.choice([0.0, -1.0, 0.3])),
              "zeta": float(rng.choice([0.0, -2.0, 1e-13]))} for zn in z]
    rep = verify_newsvendor_system(0.4, parts, inst)
    verdicts = set()
    for (x, _), part, s in zip(inst.samples, parts, rep.scenarios):
        g = (inst.h + inst.b) * conditional_cdf(model, part["z"], x) - inst.b
        witness = {k: v for k, v in s.witness.items() if k != "subdiff"}
        assert (s.m_membership, s.m_verdict, witness) == orthant_oracle(
            [part["z"]], [g], [part["zeta"]], [part["eta"]])
        verdicts.add(s.m_verdict)
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
    assert again.h == inst.h and len(again.centers) == 2


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


def test_rows_match_oracle_bit_for_bit(rng):
    zeros = 0
    for inst, theta in cases(rng):
        model = inst.model(theta)
        cx, cy = model.centers_x, model.centers_y
        X = np.vstack([x for x, _ in inst.samples])
        rows = solve_newsvendor_rows(model, X, inst.h, inst.b)
        expect = [nv_oracle_solve(cx, cy, theta, x, inst.h, inst.b) for x in X]
        assert rows.tolist() == expect
        zeros += sum(z == 0.0 for z in expect)
        # at a tolerance near the rounding level of F, rows stop at different
        # Newton steps, and a stopped row must not move again
        fine = solve_newsvendor_rows(model, X, inst.h, inst.b, tol=1e-15)
        assert fine.tolist() == [nv_oracle_solve(cx, cy, theta, x, inst.h, inst.b, tol=1e-15)
                                 for x in X]
        for x, z in zip(X[:3], expect):
            assert solve_newsvendor(model, x, inst.h, inst.b) == z
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


def test_leave_one_out_regret_matches_oracle(rng):
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
    inst.centers = inst.centers[:5]
    mine = [empirical_regret(inst, inst.model(t)) for t in grid]
    oracle = [nv_oracle_regret(inst, t) for t in grid]
    assert mine == oracle


def test_blocked_rows_equal_unblocked(rng, monkeypatch):
    inst = random_instance(rng, 40, 3, "plain")
    model = inst.model(0.3)
    X = np.vstack([x for x, _ in inst.samples])
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
    from mstat.stationarity import Certificate, Problem, ScenarioCertificate

    checked = 0
    for inst, theta in cases(rng):
        if len(inst.samples) > 33:
            continue
        model = inst.model(theta)
        if block_rows is not None:
            monkeypatch.setattr(NV, "_BLOCK_ENTRIES", block_rows * model.n_centers * model.d_x)
        X = np.array([x for x, _ in inst.samples])
        ys = np.array([y for _, y in inst.samples])
        z = solve_newsvendor_rows(model, X, inst.h, inst.b)
        pick = rng.random(len(z))
        z = np.where(pick < 0.2, ys, np.where(pick < 0.3, 0.0, z))
        near = ys + rng.choice([-2.0, -0.5, 0.5, 2.0], len(z)) * DEFAULT_EPS
        z = np.where((pick >= 0.3) & (pick < 0.5), near, z)
        cert = Certificate(theta=theta, scenarios=[
            ScenarioCertificate(z=zn, eta=float(rng.normal()), zeta=0.0) for zn in z])
        problem = NV.as_problem(inst)
        stacked = problem.scenario_terms(cert.theta, cert)
        single = Problem.scenario_terms(problem, cert.theta, cert)
        assert _terms_bytes(stacked) == _terms_bytes(single)
        assert single.witness is None
        assert stacked.witness == [{"subdiff": [lo, hi]}
                                   for lo, hi in zip(single.lo[:, 0], single.hi[:, 0])]
        kink = [(-inst.b, inst.h) if abs(zn - y) <= DEFAULT_EPS else
                (inst.h, inst.h) if zn > y else (-inst.b, -inst.b) for zn, y in zip(z, ys)]
        assert list(zip(stacked.lo[:, 0], stacked.hi[:, 0])) == kink
        checked += 1
    assert checked == 24


def test_penalized_newsvendor_equals_convex_on_golden_certificates(capsys):
    """verify --mode penalized on the golden newsvendor certificates, which
    carry no mu: the pass flag, verdicts and residuals are the convex
    report's, and every value gap is at most 1e-12."""
    import json
    from pathlib import Path

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
    s = rep.scenarios[0]
    assert (s.lower_residual, s.m_residual, s.m_verdict) == (np.inf, np.inf,
                                                             "empty_coderivative")
    assert s.witness == {"reason": "infeasible scenario point", "subdiff": [-3.0, -3.0]}


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
