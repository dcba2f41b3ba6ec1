import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstat.graph_normals import finite_vector
from mstat.portfolio import (
    LinearPredictor,
    PortfolioInstance,
    PortfolioLowerModel,
    PortfolioProblem,
    as_problem,
    empirical_spo_objective,
    fit_least_squares,
    lower_solver,
    read_samples_csv,
    realizable_certificate,
    solve_simplex_qp,
    solve_simplex_qp_rows,
    spo_local_search,
    spo_loss,
)
from mstat.stationarity import (
    _TERM_BOUND,
    Certificate,
    Problem,
    verify_certificate,
)
from conftest import (guess_certifies, per_scenario_certificate, projected_gradient_qp,
                      projected_start, qp_point_kkt, simplex_qp_loop, start_working_set)

I2 = np.eye(2)
GOLDEN = Path(__file__).parent / "golden"


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
        assert solve_simplex_qp([1e15, 0.0], I2, 1.0).tolist() == [1.0, 0.0]


def test_qp_known_solutions():
    assert np.allclose(solve_simplex_qp([1.0, 0.0], I2, 1.0), [1.0, 0.0])
    assert np.allclose(solve_simplex_qp([0.0, 0.0], I2, 1.0), [0.0, 0.0])
    assert np.allclose(solve_simplex_qp([3.0, 1.0], I2, 1.0), [1.0, 0.0])


def test_qp_kkt_and_pgd_agreement(rng):
    for _ in range(40):
        d = int(rng.integers(2, 5))
        B = rng.standard_normal((d, d))
        sigma = B @ B.T + 0.3 * np.eye(d)
        lam = float(rng.uniform(0.5, 2.0))
        r = rng.standard_normal(d) * 2.0
        z = solve_simplex_qp(r, sigma, lam)
        assert qp_point_kkt(r, sigma, lam, z) <= 1e-10
        z_ref = projected_gradient_qp(r, sigma, lam)
        assert np.max(np.abs(z - z_ref)) <= 1e-6


def large_return_family():
    """(scale, r, Sigma, lam) at returns of 1e6, 1e9 and 1e12, 60 each."""
    rng = np.random.default_rng(0)
    for scale in (1e6, 1e9, 1e12):
        for _ in range(60):
            d = int(rng.integers(2, 8))
            lam = float(10.0 ** rng.uniform(-3.0, 3.0))
            B = rng.standard_normal((d, d))
            sigma = B @ B.T + d * np.eye(d)
            sigma /= np.max(np.abs(sigma))
            yield scale, scale * rng.standard_normal(d), sigma, lam


def test_qp_keeps_the_budget_row_at_large_returns():
    """A solution whose working set holds the budget row (in the loop alone,
    simplex_qp_loop) sums to one within the solver's 1e-11 at returns up to
    1e12, and stays a KKT point relative to the returns; without the
    correction on the budget face the sum drifts by about 1e-7 at 1e9 and
    1e-4 at 1e12."""
    worst = dict.fromkeys((1e6, 1e9, 1e12), 0.0)
    for scale, r, sigma, lam in large_return_family():
        z = solve_simplex_qp(r, sigma, lam)
        if simplex_qp_loop(r, sigma, lam).budget_active:
            worst[scale] = max(worst[scale], abs(z.sum() - 1.0))
            assert qp_point_kkt(r, sigma, lam, z) <= 1e-10 * np.max(np.abs(r))
    for scale, w in worst.items():
        assert w <= 1e-11, (scale, w)


def qp_families():
    """name -> list of (r, Sigma, lam): random instances up to d = 12, d = 1,
    the large-return family and four degenerate ones."""
    rng = np.random.default_rng(14)
    fam = {k: [] for k in ("random", "d=1", "ties", "zero multipliers",
                           "near-singular", "equal returns")}
    for _ in range(200):
        d = int(rng.integers(1, 13))
        B = rng.standard_normal((d, d))
        fam["random"].append((rng.standard_normal(d) * 10.0 ** rng.uniform(-2.0, 3.0),
                              B @ B.T + 0.1 * np.eye(d), float(10.0 ** rng.uniform(-3.0, 3.0))))
    for _ in range(40):
        fam["d=1"].append((rng.standard_normal(1) * 10.0 ** rng.uniform(-2.0, 6.0),
                           np.array([[rng.uniform(0.1, 10.0)]]), float(10.0 ** rng.uniform(-3.0, 3.0))))
    for _ in range(150):
        d = int(rng.integers(1, 9))
        B = rng.integers(-2, 3, (d, d)).astype(float)
        fam["ties"].append((rng.integers(-3, 4, d).astype(float), B @ B.T + np.eye(d),
                            float(rng.integers(1, 4))))
    for _ in range(150):
        # r = lam Sigma z + tau 1 - mu at a known optimum z with some zero
        # coordinates whose bound multipliers mu_i are zero as well.
        d = int(rng.integers(2, 10))
        B = rng.standard_normal((d, d))
        sigma = B @ B.T + 0.5 * np.eye(d)
        lam = float(rng.uniform(0.5, 2.0))
        z = rng.random(d)
        z[rng.random(d) < 0.4] = 0.0
        tau = 0.0
        if rng.random() < 0.5 and z.sum() > 0:
            z /= z.sum()
            tau = float(rng.choice([0.0, rng.random()]))
        else:
            z *= 0.9 / max(z.sum(), 1.0)
        mu = np.where(z == 0, rng.choice([0.0, 1.0], d) * rng.random(d), 0.0)
        fam["zero multipliers"].append((lam * sigma @ z + tau - mu, sigma, lam))
    for _ in range(60):
        d = int(rng.integers(2, 9))
        B = rng.standard_normal((d, 2))
        fam["near-singular"].append((rng.standard_normal(d) * 1e-3,
                                     B @ B.T + 1e-8 * np.eye(d), 1.0))
    for _ in range(60):
        d = int(rng.integers(1, 13))
        B = rng.standard_normal((d, d))
        fam["equal returns"].append((np.full(d, float(rng.choice([-1.0, 0.0, 0.01, 1.0, 100.0]))),
                                     B @ B.T + 0.2 * np.eye(d), float(rng.uniform(0.1, 10.0))))
    fam["large returns"] = [case[1:] for case in large_return_family()]
    return fam


def solve_counting(monkeypatch, solver, r, sigma, lam):
    """solver(r, sigma, lam) and its number of np.linalg.solve calls."""
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(None)
        return solve(*args)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", counted)
        sol = solver(r, sigma, lam)
    return sol, len(calls)


def loop_bytes(r, sigma, lam):
    """The bytes of the point of the active-set loop alone (simplex_qp_loop)."""
    return simplex_qp_loop(r, sigma, lam).z.tobytes()


def test_qp_guess_matches_the_loop_bit_for_bit():
    """solve_simplex_qp returns the point of its active-set loop alone
    (simplex_qp_loop) to the bit on every family."""
    for name, cases in qp_families().items():
        for r, sigma, lam in cases:
            assert solve_simplex_qp(r, sigma, lam).tobytes() == loop_bytes(r, sigma, lam), name


def test_qp_guess_spends_no_more_solves_than_the_loop(monkeypatch):
    """On each family the guessed route makes no more np.linalg.solve calls
    than the loop alone."""
    for name, cases in qp_families().items():
        counts = [sum(solve_counting(monkeypatch, solver, r, sigma, lam)[1]
                      for r, sigma, lam in cases)
                  for solver in (solve_simplex_qp, simplex_qp_loop)]
        assert counts[0] <= counts[1], (name, counts)


def test_qp_guess_solves_an_interior_budget_face_once(monkeypatch):
    """At d_z = 8 with every weight positive and the budget row binding, the
    projected start zeroes no weight the optimum keeps; the guess certifies
    its first face, so the QP makes one face solve after Sigma^-1 r."""
    rng = np.random.default_rng(3)
    B = rng.standard_normal((8, 8))
    sigma = B @ B.T + 8.0 * np.eye(8)
    z = rng.uniform(0.5, 1.5, 8)
    z /= z.sum()
    r = 2.0 * (sigma @ z) + 0.3
    sol, calls = solve_counting(monkeypatch, solve_simplex_qp, r, sigma, 2.0)
    loop = simplex_qp_loop(r, sigma, 2.0)
    assert loop.active_bounds == () and loop.budget_active and sol.tobytes() == loop.z.tobytes()
    assert np.max(np.abs(sol - z)) <= 1e-12
    assert abs(loop.budget_multiplier - 0.3) <= 1e-12
    assert calls == 2


def test_qp_rejects_non_pd():
    with pytest.raises(np.linalg.LinAlgError):
        solve_simplex_qp([1.0, 1.0], np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        solve_simplex_qp_rows(np.ones((3, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)


# ---------------------------------------------------------------------------
# the rows solver

QP_ROW_FAMILIES = ("random", "large returns", "zero multipliers", "low rank", "ties")
# Three-asset QPs whose guess fails, on which a guess refined round by round
# meets a working set twice, and on which d + 1 such rounds certify nothing:
# (r, B, s, lam) with Sigma = B B^T + s I.
RARE_ROUTES = {"repeat": ([1.0, 9.0, -9.0], [[2, -3, -1], [3, -2, -2], [-3, 0, 1]], 0.1, 10.0),
               "rounds": ([-0.7, -0.8, -0.1], [[3, -2, 1], [3, -1, 0], [3, 0, -2]], 0.01, 2.0)}


def qp_rows(rng, family, k, shared):
    """k return rows (R, Sigma, lambda) that share Sigma and lambda. "large
    returns" mostly start at a vertex, "zero multipliers" have an optimum
    with a zero coordinate whose multiplier is 0 as well (a degenerate
    margin), and "low rank" has a nearly singular Sigma, where the guess can
    meet a working set twice. "ill-conditioned" has cond(Sigma) = 1e7 and
    "near ties" returns equal to 1e-12 within a row, both at lambda from
    1e-3 to 1. shared makes every row after the first a copy of an earlier
    one."""
    d = int(rng.integers(1, 13))
    B = rng.standard_normal((d, d))
    sigma, lam = B @ B.T + 0.1 * np.eye(d), float(10.0 ** rng.uniform(-3.0, 3.0))
    R = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-2.0, 3.0, (k, 1))
    if family == "large returns":
        R = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(0.0, 6.0, (k, 1))
    elif family == "zero multipliers":
        sigma, lam = B @ B.T + 0.5 * np.eye(d), float(rng.uniform(0.5, 2.0))
        Z = rng.random((k, d)) * (rng.random((k, d)) >= 0.4)
        Z *= np.where(rng.random((k, 1)) < 0.5, 1.0, 0.9) / np.maximum(Z.sum(axis=1), 1.0)[:, None]
        tau = np.where(np.isclose(Z.sum(axis=1), 1.0), rng.choice([0.0, 0.5], k), 0.0)
        mu = np.where(Z == 0, rng.choice([0.0, 1.0], (k, d)) * rng.random((k, d)), 0.0)
        R = lam * Z @ sigma + tau[:, None] - mu
    elif family == "low rank":
        B = rng.standard_normal((d, min(d, 3)))
        sigma = B @ B.T + 10.0 ** rng.uniform(-4.0, -2.0) * np.eye(d)
        R = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3.0, 2.0, (k, 1))
        lam = float(10.0 ** rng.uniform(-2.0, 2.0))
    elif family == "ties":
        B = rng.integers(-2, 3, (d, d)).astype(float)
        sigma, lam = B @ B.T + np.eye(d), float(rng.integers(1, 4))
        R = rng.integers(-3, 4, (k, d)).astype(float)
    elif family == "ill-conditioned":
        Q = np.linalg.qr(B)[0]
        sigma = (Q * np.logspace(0.0, -7.0, d)) @ Q.T
        sigma, lam = 0.5 * (sigma + sigma.T), float(10.0 ** rng.uniform(-3.0, 0.0))
    elif family == "near ties":
        lam = float(10.0 ** rng.uniform(-3.0, 0.0))
        R = rng.uniform(-1.0, 1.0, (k, 1)) + 1e-12 * rng.standard_normal((k, d))
    if shared:
        R[1:] = R[rng.integers(0, k, k - 1)]
    return R, sigma, lam


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(QP_ROW_FAMILIES), st.integers(1, 12),
       st.booleans())
def test_rows_solver_equals_one_row_solves_and_the_loop(seed, family, k, shared):
    """solve_simplex_qp_rows gives a (k, d) array whose row i is the point of
    row i's one-row solve and of the active-set loop alone
    (simplex_qp_loop), to the bit."""
    R, sigma, lam = qp_rows(np.random.default_rng(seed), family, k, shared)
    Z = solve_simplex_qp_rows(R, sigma, lam)
    assert Z.shape == R.shape
    for r, z in zip(R, Z):
        assert (z.tobytes() == solve_simplex_qp(r, sigma, lam).tobytes()
                == loop_bytes(r, sigma, lam)), (family, r.tolist())


def test_rows_solver_loops_exactly_where_the_guess_fails(monkeypatch):
    """Each row solves the face of its projected start's working set once,
    and goes to the active-set loop exactly when that face fails the strict
    margins (guess_certifies); the loop does not solve that face again. The
    row sets reach both routes, and every answer, on RARE_ROUTES too, is the
    loop's."""
    import mstat.portfolio as PF

    solved, looped = Counter(), Counter()
    face_rows, loop = PF._face_rows, PF._active_set_loop

    def count(R, sigma, lam, bounds, budget):
        solved.update((r.tobytes(), frozenset(bounds), budget) for r in R)
        return face_rows(R, sigma, lam, bounds, budget)

    def spy(r, *args):
        looped[r.tobytes()] += 1
        return loop(r, *args)

    monkeypatch.setattr(PF, "_face_rows", count)
    monkeypatch.setattr(PF, "_active_set_loop", spy)
    rng = np.random.default_rng(20)
    cases = [qp_rows(rng, family, 6, seed % 3 == 0)
             for seed in range(40) for family in QP_ROW_FAMILIES]
    cases += [(np.array([r]), np.array(B) @ np.array(B).T + s * np.eye(3), lam)
              for r, B, s, lam in RARE_ROUTES.values()]
    routes = Counter()
    for R, sigma, lam in cases:
        solved.clear()
        looped.clear()
        copies = Counter(r.tobytes() for r in R)
        for r, z in zip(R, PF.solve_simplex_qp_rows(R, sigma, lam)):
            key, start = r.tobytes(), projected_start(r, sigma, lam)
            certified = guess_certifies(r, sigma, lam, start)
            assert looped[key] == (0 if certified else copies[key])
            assert solved[(key, *start_working_set(start))] == copies[key]
            assert z.tobytes() == loop_bytes(r, sigma, lam)
            routes[certified] += 1
    assert routes[True] and routes[False]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
def test_rows_solver_raises_the_error_of_its_first_bad_row(seed, k):
    """Rows with returns that are not finite or beyond 1e150, or whose
    Sigma^-1 r / lambda reaches 2^52, make the rows call raise the
    ValueError of the first such row's one-row solve."""
    rng = np.random.default_rng(seed)
    R, sigma, lam = qp_rows(rng, "random", k, False)
    d = R.shape[1]
    bad = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
    for i in bad:
        if rng.random() < 0.5:
            R[i, rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf, 1e151])
        else:
            R[i] = lam * 2.0 ** 53 * (sigma @ rng.choice([-1.0, 1.0], d))
    with pytest.raises(ValueError) as one_row:
        solve_simplex_qp(R[bad[0]], sigma, lam)
    with pytest.raises(ValueError) as rows:
        solve_simplex_qp_rows(R, sigma, lam)
    assert str(rows.value) == str(one_row.value)
    assert len(solve_simplex_qp_rows(R[:bad[0]], sigma, lam)) == bad[0]


def test_rows_on_one_working_set_share_each_solve(monkeypatch):
    """16 rows whose optima lie inside the budget face, where their
    projected starts already are, make two np.linalg.solve calls in all:
    Sigma^-1 R and the face, each stacked over the 16 matrices of a one-row
    solve's calls."""
    rng = np.random.default_rng(3)
    B = rng.standard_normal((8, 8))
    sigma = B @ B.T + 8.0 * np.eye(8)
    Z = rng.uniform(0.5, 1.5, (16, 8))
    Z /= Z.sum(axis=1, keepdims=True)
    R = 2.0 * Z @ sigma + 0.3
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(len(b) if np.ndim(b) == 3 else 1)
        return solve(a, b)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", counted)
        solutions = solve_simplex_qp_rows(R, sigma, 2.0)
    assert calls == [16, 16]
    for r, z in zip(R, solutions):
        loop = simplex_qp_loop(r, sigma, 2.0)
        assert loop.active_bounds == () and loop.budget_active and z.tobytes() == loop.z.tobytes()
    assert [solve_counting(monkeypatch, solve_simplex_qp, r, sigma, 2.0)[1] for r in R] == [2] * 16


START_KINDS = ("optimal", "perturbed", "vertex", "interior", "infeasible", "support")


def start_rows(rng, Z, kinds):
    """One start per row of the solutions Z: its optimum, the optimum moved
    by 1e-12 to 1e-6, a random vertex, a point inside the simplex, a random
    point off it, or the optimum with some coordinates set to 0."""
    k, d = Z.shape
    starts = Z.copy()
    for i, kind in enumerate(kinds):
        if kind == "perturbed":
            starts[i] += 10.0 ** rng.uniform(-12.0, -6.0) * rng.standard_normal(d)
        elif kind == "vertex":
            starts[i] = np.eye(d)[rng.integers(d)]
        elif kind == "interior":
            starts[i] = rng.dirichlet(np.ones(d)) * rng.uniform(0.2, 0.99)
        elif kind == "infeasible":
            starts[i] = 2.0 * rng.standard_normal(d)
        elif kind == "support":
            starts[i] *= rng.random(d) < 0.5
    return starts


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(QP_ROW_FAMILIES + ("ill-conditioned", "near ties")),
       st.lists(st.sampled_from(START_KINDS), min_size=1, max_size=12), st.booleans())
def test_any_start_gives_the_cold_bytes(seed, family, kinds, shared):
    """solve_simplex_qp_rows started at any points gives, row for row, the
    bytes of the solve without a start and of the active-set loop alone
    (simplex_qp_loop): from the optimum, near it, at a vertex, inside the
    simplex, off it, or on a wrong support; with cond(Sigma) 1e7, small
    lambda, tied and near-tied returns, and returns whose projection lands
    on a vertex."""
    rng = np.random.default_rng(seed)
    R, sigma, lam = qp_rows(rng, family, len(kinds), shared)
    cold = solve_simplex_qp_rows(R, sigma, lam)
    warm = solve_simplex_qp_rows(R, sigma, lam, start_rows(rng, cold, kinds))
    for r, kind, a, b in zip(R, kinds, cold, warm):
        assert a.tobytes() == b.tobytes() == loop_bytes(r, sigma, lam), (family, kind, r.tolist())


@pytest.mark.parametrize("certificate, problem, more", [
    ("pf1.mu.json", "pf1.problem.json", False),
    ("pf3.perturbed.json", "pf3.problem.json", True),
    ("pf5.cert.json", "pf5.problem.json", True),
    ("pf3.infeasible.json", "pf3.problem.json", True)])
def test_penalized_verify_solves_one_face_per_start_group(
        certificate, problem, more, capsys, monkeypatch):
    """A penalized verify starts every scenario's lower QP at the
    certificate's z. Its first face solves are one per group of scenarios
    whose starts share a working set, in the order the groups first occur,
    each stacked over the group's rows. Further faces are solved exactly
    when the guess leaves a row uncertified (guess_certifies):
    never on pf1.mu, whose points are optimal, and on the others. The
    output is the recorded one."""
    import mstat.portfolio as PF
    from mstat.cli import _portfolio_theta, main

    argv = ["verify", "--problem", problem, "--certificate", certificate,
            "--mode", "penalized"]
    case = next(c for c in json.loads((GOLDEN / "expected.json").read_text())["outputs"]
                if c["argv"] == argv)
    calls = []
    face_rows = PF._face_rows
    monkeypatch.setattr(PF, "_face_rows",
                        lambda R, *a: calls.append(R.tolist()) or face_rows(R, *a))
    assert main([str(GOLDEN / a) if a.endswith(".json") else a for a in argv]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
    inst = PortfolioInstance.from_dict(json.loads((GOLDEN / problem).read_text()))
    data = json.loads((GOLDEN / certificate).read_text())
    theta = _portfolio_theta(data["theta"], inst).reshape(inst.d_x, inst.d_z)
    R = LinearPredictor(theta).predict_rows(inst.samples.x)
    groups, certified = {}, []
    for r, z0 in zip(R, Certificate(theta, data["scenarios"]).z):
        groups.setdefault(start_working_set(z0), []).append(r.tolist())
        certified.append(guess_certifies(r, inst.sigma, inst.risk_aversion, z0))
    assert calls[:len(groups)] == list(groups.values())
    assert (len(calls) > len(groups)) == (not all(certified)) == more


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
    assert np.allclose(solve_simplex_qp([0.6, 0.0], I2, 1.0), [0.6, 0.0])
    assert np.allclose(solve_simplex_qp([0.3, 0.0], I2, 1.0), [0.3, 0.0])
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
    x = inst.samples.x[0]
    theta = theta0.ravel()
    h = 1e-6
    # grad_z against finite differences of cost in z
    for z in (np.array([0.2, 0.3]), np.array([0.6, 0.1])):
        gz = lm.grad_z(z, theta, x)
        for i in range(z.size):
            e = np.zeros_like(z)
            e[i] = h
            fd = (lm.cost(z + e, theta, x) - lm.cost(z - e, theta, x)) / (2 * h)
            assert abs(gz[i] - fd) < 1e-7
    # cross Hessian against finite differences of grad_z in theta
    z = np.array([0.25, 0.4])
    M = lm.hess_ztheta(z, theta, x)
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
                prob, type(cert).from_rows(bad_theta.ravel(), cert.z, cert.eta, cert.zeta,
                                           cert.given),
                tol=1e-8)
            assert not bad.passed, (a, b)


def test_realizable_certificate_rows_equal_one_membership_per_sample():
    """realizable_certificate's z, zeta and beta have the bytes of a loop
    over the samples that solves each QP alone and reads beta off its own
    simplex_membership witness, on instances whose returns equal, nearly
    equal or miss the predictions."""
    from mstat.graph_normals import NormalPair, simplex_membership

    rng = np.random.default_rng(33)
    for trial in range(120):
        d_z, d_x, n = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        B = rng.standard_normal((d_z, d_z))
        theta = rng.standard_normal((d_x, d_z)) * 10.0 ** rng.uniform(-1.0, 2.0)
        X = rng.standard_normal((n, d_x))
        noise = [0.0, 1e-12, 0.1, 1.0][trial % 4]
        inst = PortfolioInstance(sigma=B @ B.T + 0.3 * np.eye(d_z),
                                 risk_aversion=float(10.0 ** rng.uniform(-1.0, 1.0)),
                                 samples=list(zip(X, X @ theta
                                                  + noise * rng.standard_normal((n, d_z)))))
        cert, betas = realizable_certificate(inst, theta)
        lam, sig = inst.risk_aversion, inst.sigma
        for x, r, z, zeta, beta in zip(inst.samples.x, inst.samples.y, cert.z, cert.zeta, betas):
            r_hat = LinearPredictor(theta).predict(x)
            want = solve_simplex_qp(r_hat, sig, lam)
            res = simplex_membership(want, -r_hat + lam * (sig @ want),
                                     NormalPair(r - lam * (sig @ want), np.zeros(d_z)))
            assert z.tobytes() == want.tobytes()
            assert zeta.tobytes() == (r - lam * (sig @ want)).tobytes()
            assert repr(beta) == repr(res.witness.get("beta"))


def test_portfolio_system_pass_and_failures():
    inst, theta0 = small_instance()
    cert, _ = realizable_certificate(inst, theta0)
    prob = as_problem(inst)
    assert verify_certificate(prob, cert).passed

    bad_theta = theta0.copy()
    bad_theta[0, 0] += 0.1
    rep_bad = verify_certificate(prob, Certificate.from_rows(bad_theta, cert.z, cert.eta,
                                                             cert.zeta, cert.given))
    assert not rep_bad.passed
    assert max(rep_bad.columns.lower_residual) > 1e-3

    # break the eta sum condition on a budget-active scenario
    inst_b = PortfolioInstance(sigma=I2, risk_aversion=1.0,
                               samples=[([1.0], [2.0, 1.0])])
    z = solve_simplex_qp([2.0, 1.0], I2, 1.0)
    assert abs(z.sum() - 1.0) < 1e-9
    zeta = np.array([2.0, 1.0]) - z
    for eta, passed in (([0.0, 0.0], True), ([0.5, 0.5], False)):
        rep = verify_certificate(as_problem(inst_b), Certificate(
            theta=[[2.0, 1.0]], scenarios=[{"z": z, "eta": eta, "zeta": zeta}]))
        assert rep.passed is passed


def test_portfolio_m_residual_is_the_force_balance_norm():
    """The report is the same for flat and matrix theta, and m_residual is
    the Euclidean norm of the force balance."""
    inst, theta0 = small_instance()
    cert, _ = realizable_certificate(inst, theta0)
    lam, sig = inst.risk_aversion, inst.sigma
    for shift in (0.0, 0.05):
        scenarios = [{"z": z, "eta": eta + shift, "zeta": zeta}
                     for z, eta, zeta in zip(cert.z, cert.eta, cert.zeta)]
        reports = [verify_certificate(as_problem(inst),
                                      Certificate(theta=theta, scenarios=scenarios))
                   for theta in (theta0, theta0.ravel())]
        assert reports[0].to_dict() == reports[1].to_dict()
        assert reports[0].passed == (shift == 0.0)
        for x, r, p, m_res in zip(inst.samples.x, inst.samples.y, scenarios,
                                  reports[0].columns.m_residual):
            force = -r + lam * (sig @ (p["z"] + p["eta"])) + p["zeta"]
            assert abs(m_res - np.linalg.norm(force)) <= 1e-15


def test_system_force_balance_identity(rng):
    """eta^T zeta = eta^T (r - lam Sigma (z + eta)) on any passing system."""
    inst, theta0 = small_instance()
    cert, _ = realizable_certificate(inst, theta0)
    lam, sig = inst.risk_aversion, inst.sigma
    for x, r, z, eta, zeta in zip(inst.samples.x, inst.samples.y, cert.z, cert.eta,
                                  cert.zeta):
        lhs = eta @ zeta
        rhs = eta @ (r - lam * (sig @ (z + eta)))
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
    for x, r, z, eta, zeta in zip(inst.samples.x, inst.samples.y, cert.z, cert.eta,
                                  cert.zeta):
        g = -(theta0.T @ x) + lam * (sig @ z)
        res = oracle_membership(poly, GraphPoint(z, g), NormalPair(zeta, eta))
        assert res.member


def test_verify_reports_the_beta_the_sign_conditions_pin():
    """Each scenario witness carries the beta that realizable_certificate
    reads off the simplex membership; a certificate carries none. Large
    returns put the decisions on the budget face, where beta need not be 0."""
    inst, theta0 = small_instance(theta0=np.array([[3.0, 1.0], [0.5, 2.5]]))
    cert, betas = realizable_certificate(inst, theta0)
    rep = verify_certificate(as_problem(inst), cert)
    assert rep.passed and [s["witness"]["beta"] for s in rep.to_dict()["scenarios"]] == betas
    assert any(b not in (None, 0.0) for b in betas)


def test_lower_solver_answers_are_one_row_solves(monkeypatch):
    """lower_solver answers rows: at each theta one solve_simplex_qp_rows
    call solves every row of X, started at the rows of Z, and each row's one
    candidate has the bytes of a one-row solve at the predicted returns,
    also for a row that is no sample, whichever the start: zeros, or the
    solutions at theta0."""
    import mstat.portfolio as PF

    inst, theta0 = small_instance()
    solve = lower_solver(inst)
    X = np.vstack([inst.samples.x, [np.array([0.3, -0.2])]])
    at0 = np.array([solve_simplex_qp(theta0.T @ x, inst.sigma, inst.risk_aversion) for x in X])
    thetas = (theta0, theta0 + 0.3, theta0) * 2
    starts = [np.zeros(at0.shape)] * 3 + [at0] * 3
    calls = []
    rows = PF.solve_simplex_qp_rows
    with monkeypatch.context() as m:
        m.setattr(PF, "solve_simplex_qp_rows",
                  lambda R, *a: calls.append((len(R), a[2].tobytes())) or rows(R, *a))
        answers = [solve(None, theta.ravel(), X, Z) for theta, Z in zip(thetas, starts)]
    assert calls == [(len(X), Z.tobytes()) for Z in starts]
    for theta, answer in zip(thetas, answers):
        assert [len(points) for points in answer] == [1] * len(X)
        want = [solve_simplex_qp(theta.T @ x, inst.sigma, inst.risk_aversion) for x in X]
        assert [points[0].tobytes() for points in answer] == [z.tobytes() for z in want]


TERM_FIELDS = ("g", "curvature", "lo", "hi", "generators")
# Signed zeros, ordinary numbers and entries up to the verifier's term bound.
TERM_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, _TERM_BOUND, -_TERM_BOUND, 1.0]),
                         st.floats(-_TERM_BOUND, _TERM_BOUND, allow_nan=False))


@st.composite
def term_cases(draw):
    """(instance, certificate): d_x and d_z from 1, Sigma a random positive
    definite matrix, and x, r, theta, z and eta entries from TERM_ENTRIES,
    eta all zero in about a fifth of the cases."""
    d_x, d_z, n = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    B = rng.standard_normal((d_z, d_z))
    sigma = B @ B.T + d_z * np.eye(d_z)
    sigma = 0.5 * (sigma + sigma.T) / np.max(np.abs(sigma))

    def rows(k, d):
        return np.array(draw(st.lists(TERM_ENTRIES, min_size=k * d, max_size=k * d))).reshape(k, d)

    inst = PortfolioInstance(sigma=sigma, risk_aversion=draw(st.sampled_from([0.5, 1.0, 3.0])),
                             samples=list(zip(rows(n, d_x), rows(n, d_z))))
    eta = np.zeros((n, d_z)) if draw(st.integers(0, 4)) == 0 else rows(n, d_z)
    cert = Certificate(theta=rows(d_x, d_z), scenarios=[
        {"z": z, "eta": e} for z, e in zip(rows(n, d_z), eta)])
    return inst, cert


@settings(max_examples=300, deadline=None)
@given(term_cases())
def test_stacked_terms_equal_per_scenario_model_calls(case):
    """PortfolioProblem.scenario_terms, stacked matrix-vector products over
    all rows, gives the bytes of the default Problem.scenario_terms, which
    calls the lower and upper models once per term and scenario, in every
    field: with d_x = d_z = 1, with eta zero or holding -0.0, and with
    entries up to _TERM_BOUND."""
    inst, cert = case
    problem = as_problem(inst)
    assert isinstance(problem, PortfolioProblem)
    stacked = problem.scenario_terms(cert.theta, cert)
    single = Problem.scenario_terms(problem, cert.theta, cert)
    for name in TERM_FIELDS:
        got, want = getattr(stacked, name), getattr(single, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert stacked.witness is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 12), st.integers(1, 16))
def test_stacked_cost_rows_equal_one_row_costs(seed, d_x, d_z, n):
    """PortfolioLowerModel.cost_rows, stacked products over all rows, gives
    each row the bytes of the one-row cost, with d_z up to 12, n up to 16,
    signed zeros, and entries from 1e-3 to _TERM_BOUND in magnitude."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d_z, d_z))
    sigma = B @ B.T + d_z * np.eye(d_z)
    sigma = 0.5 * (sigma + sigma.T) / np.max(np.abs(sigma))

    def rows(k, d):
        special = rng.choice([0.0, -0.0, 1.0, _TERM_BOUND, -_TERM_BOUND], (k, d))
        plain = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, d))
        return np.where(rng.random((k, d)) < 0.1, special, plain)

    inst = PortfolioInstance(sigma=sigma, risk_aversion=float(10.0 ** rng.uniform(-3.0, 3.0)),
                             samples=list(zip(rows(n, d_x), rows(n, d_z))))
    model = PortfolioLowerModel(inst)
    theta, X = rows(d_x, d_z).ravel(), rows(n, d_x)
    Z = np.where(rng.random((n, 1)) < 0.5, rng.dirichlet(np.ones(d_z), n), rows(n, d_z))
    with np.errstate(all="ignore"):
        stacked = model.cost_rows(Z, theta, X)
        single = np.array([model.cost(z, theta, x) for z, x in zip(Z, X)])
    assert stacked.shape == (n,) and stacked.tobytes() == single.tobytes()


def _golden_portfolio_certificates():
    runs = {}
    for case in json.loads((GOLDEN / "expected.json").read_text())["outputs"]:
        argv = case["argv"]
        if argv[0] == "verify" and argv[2].startswith("pf"):
            runs[argv[4]] = argv[2]
    return sorted(runs.items())


def _same_certificate(got, want):
    for name in ("theta", "z", "eta", "zeta", "given"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.mu == want.mu
    assert len(got.value_weights) == len(want.value_weights)
    for a, b in zip(got.value_weights, want.value_weights):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


def _same_reading(data, problem):
    """The instance of problem and the certificate data, read as `verify`
    reads them, hold the arrays of the per-entry readers."""
    from mstat.cli import _portfolio_theta

    inst = PortfolioInstance.from_dict(problem)
    for x, r, sample in zip(inst.samples.x, inst.samples.y, problem["samples"]):
        assert x.tobytes() == finite_vector(sample["x"], "x", scalar=True).tobytes()
        assert r.tobytes() == finite_vector(sample["r"], "r", scalar=True).tobytes()
    theta = _portfolio_theta(data["theta"], inst)
    _same_certificate(Certificate(theta, data["scenarios"]),
                      per_scenario_certificate(theta, data["scenarios"]))


@pytest.mark.parametrize("cert_file, problem_file", _golden_portfolio_certificates())
def test_row_reader_gives_the_per_scenario_arrays(cert_file, problem_file):
    """On every golden portfolio certificate and problem, the row-wise
    readers give the arrays that the per-scenario ones give: the
    certificate's theta, z, eta, zeta, given, mu and value_weights those of
    per_scenario_certificate, and the instance's x and r those of
    finite_vector, sample by sample."""
    problem = json.loads((GOLDEN / problem_file).read_text())
    _same_reading(json.loads((GOLDEN / cert_file).read_text()), problem)


READER_ENTRIES = st.one_of(st.floats(-1e3, 1e3), st.integers(-5, 5), st.just(-0.0))


@st.composite
def reader_cases(draw):
    """(certificate data, problem data): fuzzed portfolio certificates and
    samples, with ints among the floats. Where a vector has one entry, all,
    none or some of them are given as lone numbers (z, eta and zeta at
    d_z = 1, x at d_x = 1). Some scenarios leave zeta out, some hold mu or
    value_weights."""
    d_z, d_x, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    lone = draw(st.sampled_from(["all", "none", "some"]))

    def vector(size):
        v = draw(st.lists(READER_ENTRIES, min_size=size, max_size=size))
        if size == 1 and (lone == "all" or lone == "some" and draw(st.booleans())):
            return v[0]
        return v

    scenarios = []
    for _ in range(n):
        s = {"z": vector(d_z), "eta": vector(d_z)}
        if draw(st.booleans()):
            s["zeta"] = vector(d_z)
        if draw(st.integers(0, 3)) == 0:
            s["mu"] = draw(st.sampled_from([0.0, 0.5, 2]))
        if draw(st.integers(0, 3)) == 0:
            s["value_weights"] = draw(st.sampled_from([[1.0], 1.0, [0.25, 0.75]]))
        scenarios.append(s)
    problem = {"sigma": np.eye(d_z).tolist(), "lambda": 1.0,
               "samples": [{"x": vector(d_x), "r": vector(d_z)} for _ in range(n)]}
    theta = draw(st.lists(READER_ENTRIES, min_size=d_x * d_z, max_size=d_x * d_z))
    return {"theta": theta, "scenarios": scenarios}, problem


@settings(max_examples=200, deadline=None)
@given(reader_cases())
def test_row_reader_property(case):
    """On fuzzed certificates and samples, lone numbers at d = 1, a missing
    zeta, mu and value_weights among them, the row-wise readers give the
    arrays of per_scenario_certificate and of finite_vector, sample by
    sample."""
    _same_reading(*case)


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
    assert np.allclose(again.samples.y, inst.samples.y)

    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("x_1,x_2,r_1,r_2\n1.0,0.5,0.2,0.1\n0.3,0.4,0.05,0.2\n")
    samples = read_samples_csv(str(csv_path), 2, 2)
    assert len(samples) == 2 and samples[1][0] == [0.3, 0.4]
    bad = tmp_path / "bad.csv"
    bad.write_text("x_1,r_1\n1.0,oops\n")
    with pytest.raises(ValueError) as err:
        read_samples_csv(str(bad), 1, 1)
    assert "row 2" in str(err.value)
