import itertools
import json
import operator
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import mstat.graph_normals as GN
from mstat.cones import (
    DEFAULT_EPS,
    STRICT_EPS,
    CombinatorialLimitError,
    InfeasiblePointError,
    Polyhedron,
    active_rows,
    finite_array,
    orthant_polyhedron,
    simplex_polyhedron,
)
from mstat.graph_normals import (
    GraphPoint,
    NormalPair,
    finite_number,
    oracle_membership,
    orthant_membership,
    polyhedron_membership,
    simplex_membership,
    _simplex_rows,
)
from conftest import (array_oracle, count_lps, polyhedron_oracle, random_polyhedral_graph_point,
                      random_simplex_graph_point, rows_oracle, simplex_oracle,
                      simplex_rows_oracle, vector_oracle)
from mstat import cli
from mstat.lp import left_sum
from mstat.stationarity import ScenarioColumns


def pair(zeta, eta):
    return NormalPair(np.atleast_1d(np.asarray(zeta, float)),
                      np.atleast_1d(np.asarray(eta, float)))


# ---------------------------------------------------------------------------
# half-line worked example, all three routes

HALF_LINE = orthant_polyhedron(1)
ORIGIN = GraphPoint([0.0], [0.0])


@pytest.mark.parametrize("zeta,eta,want", [(-1, -1, True), (1, -1, False),
                                           (5, 0, True)])
def test_half_line_membership_three_routes(zeta, eta, want):
    p = pair(zeta, eta)
    assert oracle_membership(HALF_LINE, ORIGIN, p).member is want
    assert polyhedron_membership(HALF_LINE, ORIGIN, p).member is want
    assert orthant_membership([0.0], [0.0], p).member is want


# ---------------------------------------------------------------------------
# orthant fast path

def test_orthant_examples():
    assert orthant_membership([0.0], [0.0], pair(-2, -3)).member is True
    assert orthant_membership([1.0], [0.0], pair(0, 7)).member is True
    assert orthant_membership([1.0], [0.0], pair(1, 7)).member is False
    assert orthant_membership([0.0, 0.0], [1.0, 0.0],
                              pair([4, 0], [0, -1])).member is True


def test_orthant_non_graph_point():
    for z, g in (([1.0], [1.0]), ([-1.0], [0.0])):
        res = orthant_membership(np.array(z), np.array(g), pair(0, 0))
        assert res.verdict == "empty_coderivative" and not res.member
        assert polyhedron_membership(HALF_LINE, GraphPoint(z, g), pair(0, 0)).verdict \
            == "empty_coderivative"


def test_orthant_coordinate_split():
    # mixed pattern: L, I_plus, I_zero at once
    z = [2.0, 0.0, 0.0]
    g = [0.0, 3.0, 0.0]
    assert orthant_membership(z, g, pair([0, 9, -1], [4, 0, -1])).member is True
    assert orthant_membership(z, g, pair([0.1, 9, -1], [4, 0, -1])).member is False
    assert orthant_membership(z, g, pair([0, 9, -1], [4, 0.1, -1])).member is False
    assert orthant_membership(z, g, pair([0, 9, -1], [4, 0, 1])).member is False


# ---------------------------------------------------------------------------
# simplex fast path

def test_simplex_examples():
    res = simplex_membership(np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                             pair([3, -5], [0, 0]))
    assert res.member and abs(res.witness["beta"] - 3.0) < 1e-12 \
        and abs(res.witness["tau"] - 1.0) < 1e-12
    assert simplex_membership([1.0, 0.0], [-1.0, 0.0],
                              pair([3, -5], [1, -1])).member is False
    assert simplex_membership([0.2, 0.3], [0.0, 0.0],
                              pair([0, 0], [7, -2])).member is True


def test_simplex_inconsistent_zeta_on_support():
    # both coordinates carry weight, zeta must be constant across them
    assert simplex_membership([0.5, 0.5], [-1.0, -1.0],
                              pair([2, 2], [1, -1])).member is True
    assert simplex_membership([0.5, 0.5], [-1.0, -1.0],
                              pair([2, 1], [1, -1])).member is False


def test_simplex_budget_multiplier_forces_eta_sum():
    # tau > 0: sum of eta must vanish
    z = np.array([0.5, 0.5])
    g = np.array([-1.0, -1.0])
    assert simplex_membership(z, g, pair([2, 2], [1, -1])).member is True
    assert simplex_membership(z, g, pair([2, 2], [1, 1])).member is False


def test_simplex_non_graph_points():
    for z, g in (([0.6, 0.5], [0.0, 0.0]), ([0.5, 0.5], [-1.0, -2.0]),
                 ([0.5, 0.5], [1.0, 1.0])):
        res = simplex_membership(z, g, pair([0, 0], [0, 0]))
        assert res.verdict == "empty_coderivative" and not res.member


def test_simplex_degenerate_support_branch():
    # huge tolerance pushes every coordinate below the activity threshold
    # while the budget row still reads as tight; the beta sweep must decide.
    res = simplex_membership(np.array([0.4, 0.4]), np.array([0.0, 0.0]),
                             pair([0.0, 0.0], [1.0, 1.0]), eps=0.5)
    assert res.member and res.witness.get("degenerate_support")


# ---------------------------------------------------------------------------
# agreement sweeps (small versions; the acceptance suite runs the full sizes)

def test_orthant_exhaustive_agreement_d2(rng):
    """Every sign pattern at d = 2, then sampled patterns at d = 9..12, where
    the active set exceeds the cap of the exhaustive enumerations."""
    p = orthant_polyhedron(2)
    for zg in itertools.product([(1, 0), (0, 0), (0, 1)], repeat=2):
        z = np.array([t[0] for t in zg], float)
        g = np.array([t[1] for t in zg], float)
        for zeta in itertools.product([-1, 0, 1], repeat=2):
            for eta in itertools.product([-1, 0, 1], repeat=2):
                q = pair(zeta, eta)
                assert orthant_membership(z, g, q).member == \
                    polyhedron_membership(p, GraphPoint(z, g), q).member
    members = queries = 0
    for d in (9, 10, 11, 12):
        p = orthant_polyhedron(d)
        for _ in range(15):
            zg = rng.integers(0, 3, d)
            z = (zg == 0).astype(float)
            g = (zg == 2).astype(float)
            for _q in range(8):
                # zeta vanishes off the active rows and eta on I_plus, so
                # members occur and the I_0 sign conditions decide
                q = pair(np.where(z > 0, 0, rng.integers(-1, 2, d)),
                         np.where(g > 0, 0, rng.integers(-1, 2, d)))
                fast = orthant_membership(z, g, q).member
                assert fast == polyhedron_membership(p, GraphPoint(z, g), q).member
                members += fast
                queries += 1
    assert 0 < members < queries


def test_simplex_random_agreement(rng):
    p3 = {d: simplex_polyhedron(d) for d in (2, 3)}
    for _ in range(120):
        d = int(rng.integers(2, 4))
        z, g = random_simplex_graph_point(rng, d)
        q = pair(rng.integers(-2, 3, d).astype(float),
                 rng.integers(-2, 3, d).astype(float))
        fast = simplex_membership(z, g, q)
        slow = polyhedron_membership(p3[d], GraphPoint(z, g), q)
        assert fast.member == slow.member, (z, g, q.zeta, q.eta)


def test_oracle_vs_direct_random(rng):
    for _ in range(60):
        poly, z, g = random_polyhedral_graph_point(rng)
        gp = GraphPoint(z, g)
        for _q in range(2):
            q = pair(rng.integers(-2, 3, poly.dim).astype(float),
                     rng.integers(-2, 3, poly.dim).astype(float))
            assert oracle_membership(poly, gp, q).member == \
                polyhedron_membership(poly, gp, q).member


# Entries of size 10^U(-3, 3), of either sign.
MAGNITUDES = st.builds(lambda sign, u: sign * 10.0 ** u, st.sampled_from([-1.0, 1.0]),
                       st.floats(-3.0, 3.0))


@st.composite
def float_graph_points(draw):
    """A float system A z <= b in R^d, d <= 4, of at most five rows with a
    point z, each row active (b_i the left sum of a_ij z_j) or slack by at
    least 1e-3; g = -A^T lam with integer lam >= 0 on the active rows; eta
    zero or drawn; zeta drawn or a combination of the active rows with
    small integer coefficients. A, b and z are lists of floats."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    vector = st.lists(MAGNITUDES, min_size=d, max_size=d)
    A, z = draw(st.lists(vector, min_size=m, max_size=m)), draw(vector)
    active = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    b = [left_sum(map(operator.mul, a, z)) + (0.0 if on else draw(st.floats(1e-3, 1e3)))
         for a, on in zip(A, active)]
    lam, coef = ([float(draw(st.integers(low, 2))) if on else 0.0 for on in active]
                 for low in (0, -2))
    g = -(np.array(A).T @ lam)
    zeta = draw(vector) if draw(st.booleans()) else np.array(A).T @ coef
    eta = [0.0] * d if draw(st.booleans()) else draw(vector)
    return A, b, z, g, zeta, eta


@settings(max_examples=200, deadline=None)
@given(float_graph_points())
def test_float_graph_points_read_left_sums_and_agree_with_the_oracle(case):
    """On float rows the graph point's slacks are b_i - left_sum(a_ij z_j)
    bit for bit, whatever b - A z gives, and the direct route's verdict is
    the face-pair oracle's."""
    A, b, z, g, zeta, eta = case
    poly, gp, q = Polyhedron(A, b), GraphPoint(z, g), pair(zeta, eta)
    slack = GN._graph_point(poly, gp.z_entries, DEFAULT_EPS)[0]
    assert slack == [bi - left_sum(map(operator.mul, a, z)) for a, bi in zip(A, b)]
    assert polyhedron_membership(poly, gp, q).verdict == oracle_membership(poly, gp, q).verdict


@pytest.mark.parametrize("stem, verdict", [("gq.prism", "member"),
                                           ("gq.prism-not-member", "not_member")])
def test_a_degenerate_prism_takes_no_lp_but_the_oracle_does(stem, verdict, monkeypatch):
    """Six coplanar active rows, one pair antiparallel, span a plane of R^3
    and eta is normal to it: every row is an equality row, so the query asks
    whether zeta lies in the span of dependent rows. The factorization
    decides that and the graph point without an LP; the face-pair oracle,
    the tests' independent slow path, still asks its LPs, the graph point's
    included, and agrees."""
    doc = json.loads((Path(__file__).parent / "golden" / (stem + ".json")).read_text())
    poly = Polyhedron(doc["Z"]["A"], doc["Z"]["b"])
    gp, q = GraphPoint(doc["z"], doc["g"]), pair(doc["zeta"], doc["eta"])
    calls = count_lps(monkeypatch)
    assert polyhedron_membership(poly, gp, q).verdict == verdict and calls == []
    oracle_calls = count_lps(monkeypatch)
    assert oracle_membership(poly, gp, q).verdict == verdict and len(oracle_calls) >= 2


def _linprog_cone(w, R, L):
    """Whether w lies in cone(rows of R) + span(rows of L), by scipy's HiGHS."""
    cols = np.vstack([R, L]).T
    if not cols.shape[1]:
        return bool(np.max(np.abs(w), initial=0.0) <= DEFAULT_EPS)
    res = linprog(np.zeros(cols.shape[1]), A_eq=cols, b_eq=w,
                  bounds=[(0, None)] * len(R) + [(None, None)] * len(L), method="highs")
    return res.status == 0


def test_oracle_member_witness_rederived_by_linprog(rng):
    """A member's witness (S, J1, J2) re-derives without mstat: S, J1 and J2
    are active rows with J1 in J2 and S apart from J2, S carries a
    nonnegative multiplier of -g, -eta lies in the face difference
    {E d = 0, G d <= 0} with E the rows of S + J1 and G those of J2 \\ J1,
    and zeta lies in its polar cone(rows of G) + span(rows of E)."""
    members = 0
    for _ in range(60):
        poly, z, g = random_polyhedral_graph_point(rng)
        I = set(np.flatnonzero(np.abs(poly.b - poly.A @ z) <= DEFAULT_EPS).tolist())
        for _q in range(4):
            q = pair(rng.integers(-2, 3, poly.dim).astype(float),
                     rng.integers(-2, 3, poly.dim).astype(float))
            res = oracle_membership(poly, GraphPoint(z, g), q)
            if not res.member:
                continue
            members += 1
            S, J1, J2 = (set(res.witness[k]) for k in ("support", "J1", "J2"))
            assert S | J2 <= I and J1 <= J2 and not S & J2, res.witness
            E, G = poly.A[sorted(S | J1)], poly.A[sorted(J2 - J1)]
            assert _linprog_cone(-g, poly.A[sorted(S)], np.zeros((0, poly.dim)))
            assert np.max(np.abs(E @ -q.eta), initial=0.0) <= DEFAULT_EPS
            assert np.max(G @ -q.eta, initial=0.0) <= DEFAULT_EPS
            assert _linprog_cone(q.zeta, G, E)
    assert members >= 10


def _simplex_rows_case(rng, k, d, eps, strict_eps):
    """k rows of (z, g, zeta, eta) in R^d that reach every branch of the
    simplex test: a tight, slack or violated budget row, a support on which
    g and zeta are constant or off by a hair, and entries at 0, +-eps,
    +-strict_eps and just beyond them."""
    hairs = np.array([eps, -eps, strict_eps, -strict_eps, 0.5 * eps, 2.0 * eps,
                      -2.0 * eps, 1.5 * strict_eps])

    def hair(size, p=0.3):
        return np.where(rng.random(size) < p, rng.choice(hairs, size), 0.0)

    Z, G, ZETA, ETA = (np.empty((k, d)) for _ in range(4))
    for j in range(k):
        support = rng.random(d) < rng.uniform(0.2, 0.9)
        support[rng.integers(d)] = True
        z = np.where(support, rng.uniform(0.05, 1.0, d), np.abs(hair(d, 0.2)))
        z[support] *= rng.choice([1.0, 1.0, 1.0, 0.6, 1.0 - 2.0 * eps]) / z[support].sum()
        if rng.random() < 0.1:
            z = np.full(d, rng.choice([0.4, 1.0 / d]))        # the degenerate corner
        if rng.random() < 0.05:
            z[rng.integers(d)] = rng.choice([-2.0 * eps, 0.5])
        tau = rng.choice([0.0, 0.0, 0.8, -eps, 2.0 * eps, -0.3])
        off = rng.choice([0.0, 0.0, 1.2, -0.5, eps, -2.0 * eps], d)
        g = -tau + np.where(support, hair(d, 0.1), off + hair(d))
        beta = rng.choice([0.0, 0.0, 1.5, -0.7, eps, strict_eps, -strict_eps])
        zeta = beta + np.where(support, hair(d, 0.1), rng.choice([0.0, 1.0, -1.0, 0.3], d))
        eta = np.where(rng.random(d) < 0.4, rng.choice([0.0, 1.0, -1.0, 0.5], d), hair(d, 0.5))
        if rng.random() < 0.3:
            eta[-1] -= eta.sum()
        Z[j], G[j], ZETA[j], ETA[j] = z, g, zeta, eta
    return Z, G, ZETA, ETA


def _simplex_branch(res, eps):
    """The branch of the simplex test that decided res."""
    w = res.witness
    if "reason" in w:
        return w["reason"]
    if w.get("degenerate_support"):
        return res.verdict + " at the corner"
    return res.verdict + (" on the face" if w["sum_gap"] <= eps else " inside")


def test_simplex_rows_equal_the_per_point_oracle(monkeypatch):
    """_simplex_rows on k rows gives each row the Membership of the per-point
    numpy body, witness floats and key order included (compared by repr).
    A third of the trials set STRICT_EPS below eps."""
    rng = np.random.default_rng(5)
    branches = {}
    for trial in range(160):
        d = int(rng.integers(1, 17))
        k = int(rng.integers(1, 17))
        eps = (DEFAULT_EPS, DEFAULT_EPS, 1e-6, 0.5)[trial % 4]
        strict_eps = STRICT_EPS if trial % 3 else 1e-3 * eps
        monkeypatch.setattr(GN, "STRICT_EPS", strict_eps)
        Z, G, ZETA, ETA = _simplex_rows_case(rng, k, d, eps, strict_eps)
        rows = _simplex_rows(Z, G, ZETA, ETA, eps)
        for j in range(k):
            res = rows.membership(j)
            want = simplex_oracle(Z[j], G[j], NormalPair(ZETA[j], ETA[j]), eps, strict_eps)
            assert repr(res) == repr(want), (Z[j].tolist(), G[j].tolist(),
                                             ZETA[j].tolist(), ETA[j].tolist(), eps)
            branch = _simplex_branch(res, eps)
            branches[branch] = branches.get(branch, 0) + 1
    assert len(branches) == 13 and min(branches.values()) >= 5, branches


def test_simplex_row_sums_equal_the_one_dimensional_sum():
    """A row of a (k, d) array sums to the bits np.sum gives that row alone,
    which _simplex_rows relies on for the budget gap and sum(eta)."""
    rng = np.random.default_rng(3)
    for d in range(1, 33):
        X = rng.standard_normal((8, d)) * rng.choice([1e-12, 1.0, 1e12], (8, d))
        assert X.sum(axis=1).tobytes() == np.array([np.sum(x) for x in X]).tobytes()


# Rows of a simplex stack, one of each kind in SIMPLEX_KINDS and a few more.
# Supports take 1 to 13 coordinates, past the 8 terms from which numpy's
# pairwise sum departs from the left-to-right order of the support means. With eps = 2^-30 the support entries are
# multiples of 1/64 and the budget slack lands exactly on +-eps, +-eps / 2,
# 2 eps or 11 eps; tau and beta are arbitrary floats, so the means round.
# eps = 0.5 admits the degenerate corner, where no coordinate clears eps.
# The extra rows put entries at +-eps off the support, which moves them
# between the kinds.
SIMPLEX_EPS = (DEFAULT_EPS, 2.0 ** -30, 0.5)
SIMPLEX_KINDS = ("inside", "inside_off", "face", "face_spread", "corner", "negative", "over",
                 "gradient", "budget", "bound")


def _entries(d, values):
    return st.lists(st.sampled_from(values), min_size=d, max_size=d).map(np.array)


@st.composite
def simplex_row(draw, d, eps, kind, noisy):
    if kind in ("face_spread", "gradient"):
        c = draw(st.integers(min(2, d), d))
    else:
        c = draw(st.integers(1, d - 1 if kind in ("inside_off", "bound") and d > 1 else d))
    support = np.zeros(d, dtype=bool)
    support[draw(st.permutations(range(d)))[:c]] = True
    units = draw(st.lists(st.integers(1, 4), min_size=c - 1, max_size=c - 1))
    share = np.array(units + [64 - sum(units)]) / 64.0
    slack = draw(st.sampled_from([-1.0, 1.0, 0.0, -0.5]))
    if kind in ("inside", "inside_off"):
        share, slack = share * 0.5, draw(st.sampled_from([-2.0, -11.0, 0.0]))
    elif kind == "over":
        slack = 2.0
    off = [0.0, -0.0] + ([0.5 * eps, eps, -eps] if noisy else [])
    z = np.where(support, 0.0, draw(_entries(d, off)))
    z[support] = share
    z[np.flatnonzero(support)[-1]] += slack * eps
    if kind == "negative":
        z[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-2.0 * eps, -1.0]))
    if kind == "corner" and eps == 0.5:
        z = np.where(np.arange(d) < 2, eps, 0.0)
    tau = draw(st.sampled_from([0.0, -0.0, draw(st.floats(0.0, 10.0))]))
    if kind in ("inside", "inside_off", "corner"):
        tau = 0.0
    elif kind == "budget":
        tau = -2.0 * eps
    hairs = [0.0, -0.0, 0.25 * eps, -0.25 * eps, 0.5 * eps]
    g = -tau + draw(_entries(d, hairs))
    if kind != "corner":
        g = np.where(support, g, g + draw(_entries(d, [0.0, 0.5, 3.0, eps, 0.25 * eps])))
    outside = draw(st.sampled_from(np.flatnonzero(~support).tolist() or [0]))
    if kind == "inside_off":
        g[outside] = -1.0 if c < d else 1.0
    elif kind == "gradient":
        g[np.flatnonzero(support)[0]] += 3.0 * eps
    elif kind == "bound":
        g[outside] = -tau - 2.0 * eps
    beta = draw(st.sampled_from([0.0, -0.0, eps, draw(st.floats(-5.0, 5.0))]))
    zeta = beta + draw(_entries(d, hairs))
    if kind == "face_spread":
        zeta[np.flatnonzero(support)[0]] += 3.0 * eps
    entries = [0.0, -0.0, 1.0, -1.0, 0.5, eps, -eps, STRICT_EPS, -STRICT_EPS, 0.5 * STRICT_EPS]
    zeta = np.where(support, zeta, draw(_entries(d, entries)))
    eta = draw(_entries(d, entries))
    if draw(st.booleans()):
        eta[-1] -= eta.sum()
    return z, g, zeta, eta


@st.composite
def simplex_stacks(draw):
    eps = draw(st.sampled_from(SIMPLEX_EPS))
    d = draw(st.integers(1, 13))
    extra = draw(st.lists(st.sampled_from(SIMPLEX_KINDS), max_size=4))
    kinds = [(kind, False) for kind in SIMPLEX_KINDS] + [(kind, True) for kind in extra]
    rows = [draw(simplex_row(d, eps, *kinds[i]))
            for i in draw(st.permutations(range(len(kinds))))]
    infeasible = np.array(draw(st.lists(st.booleans(), min_size=len(rows),
                                        max_size=len(rows))))
    return tuple(np.array(col) for col in zip(*rows)) + (eps, infeasible)


@settings(max_examples=100, deadline=None)
@given(simplex_stacks(), st.booleans())
def test_simplex_rows_equal_the_row_loop(stack, with_extra):
    """_simplex_rows decides a stack of rows in array passes; each row gives
    the Membership of the per-scenario loop it replaced (conftest's
    simplex_rows_oracle) bit for bit, witness floats and key order included
    (compared by repr), and the report writer prints the rows' witnesses,
    with an extra column or without, byte for byte as it prints the loop's
    witness dicts one by one. Rows flagged infeasible are refused after the
    pass, as the verifier refuses them, and become empty coderivatives for
    that reason in both."""
    Z, G, ZETA, ETA, eps, infeasible = stack
    rows = _simplex_rows(Z, G, ZETA, ETA, eps)
    want = simplex_rows_oracle(Z, G, ZETA, ETA, eps)
    seen = set(rows.key_set.tolist())
    for j, res in enumerate(want):
        assert repr(rows.membership(j)) == repr(res), (j, Z[j], G[j], ZETA[j], ETA[j], eps)
    assert rows.verdicts() == [res.verdict for res in want]
    assert rows.member.tolist() == [res.member for res in want]
    # Every shape but the corner where eps = 2^-30 makes the slacks exact,
    # and the corner where eps = 0.5; a zeta spread needs two coordinates.
    if eps == 2.0 ** -30:
        wide = Z.shape[1] > 1
        assert {0, 1, 2, 3} | ({4} if wide else set()) <= seen, seen
        assert {0, 3, 5} | ({1, 4, 6} if wide else {2}) <= set(rows.reason.tolist())
    assert eps != 0.5 or 5 in seen

    rows = rows.refuse(infeasible, "infeasible scenario point")
    want = [GN._empty("simplex", "infeasible scenario point") if bad else res
            for res, bad in zip(want, infeasible)]
    assert [rows.membership(j) for j in range(len(want))] == want
    n = len(want)
    extra = {"x": np.linspace(-1.0, 1.0, n).tolist()} if with_extra else None
    blank = dict(lower_residual=[0.0] * n, m_membership=[False] * n, m_verdict=[""] * n,
                 m_residual=[0.0] * n, complementarity_gap=[None] * n, value_gap=[None] * n,
                 extra=extra)
    indent = "\n      "
    texts = cli._witness_texts(ScenarioColumns(witness=rows, **blank), indent)
    assert texts == cli._witness_texts(ScenarioColumns(witness=[res.witness for res in want],
                                                       **blank), indent)
    for j, res in enumerate(want):
        witness = {**res.witness, "x": extra["x"][j]} if extra else res.witness
        assert texts[j] == json.dumps(witness, sort_keys=True, indent=2).replace("\n", indent)


# ---------------------------------------------------------------------------
# structural properties

def test_positive_homogeneity(rng):
    for _ in range(40):
        poly, z, g = random_polyhedral_graph_point(rng)
        gp = GraphPoint(z, g)
        q = pair(rng.integers(-2, 3, poly.dim).astype(float),
                 rng.integers(-2, 3, poly.dim).astype(float))
        if not polyhedron_membership(poly, gp, q).member:
            continue
        for t in (0.5, 2.0, 10.0):
            scaled = pair(t * q.zeta, t * q.eta)
            assert polyhedron_membership(poly, gp, scaled).member


def test_zero_eta_accepts_polar_of_critical_cone(rng):
    """With eta = 0, any conic combination of active rows is a member."""
    for _ in range(40):
        poly, z, g = random_polyhedral_graph_point(rng)
        I = list(active_rows(poly, poly.slacks(z)))
        if not I:
            zeta = np.zeros(poly.dim)
        else:
            mu = rng.uniform(0, 2, len(I))
            zeta = poly.A[I].T @ mu
        q = pair(zeta, np.zeros(poly.dim))
        assert polyhedron_membership(poly, GraphPoint(z, g), q).member


# Integer queries with d <= 3. A point is built on the graph from integer
# multipliers and, when `off` is drawn, given a free integer g instead, so
# empty coderivatives occur too. Products of these entries are exact.
SMALL = st.integers(-2, 2)


def _vector(d, elements=SMALL):
    return st.lists(elements, min_size=d, max_size=d).map(lambda v: np.array(v, float))


@st.composite
def orthant_queries(draw):
    d = draw(st.integers(1, 3))
    z = draw(_vector(d, st.integers(0, 2)))
    g = np.where(z > 0, 0.0, draw(_vector(d, st.integers(0, 2))))
    if draw(st.booleans()):
        g = draw(_vector(d))
    return orthant_polyhedron(d), z, g, pair(draw(_vector(d)), draw(_vector(d)))


@st.composite
def simplex_queries(draw):
    d = draw(st.integers(1, 3))
    z = draw(_vector(d, st.sampled_from([0.0, 0.25, 0.5, 1.0])).filter(lambda v: v.sum() <= 1))
    tau = draw(st.integers(0, 2)) if z.sum() == 1 else 0
    g = np.where(z > 0, 0.0, draw(_vector(d, st.integers(0, 2)))) - tau
    if draw(st.booleans()):
        g = draw(_vector(d))
    return simplex_polyhedron(d), z, g, pair(draw(_vector(d)), draw(_vector(d)))


@st.composite
def polyhedron_queries(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    rows = [draw(_vector(d).filter(np.any)) for _ in range(m)]
    A = np.array(rows)
    z = draw(_vector(d))
    active = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    b = A @ z + np.where(active, 0.0, draw(_vector(m, st.integers(1, 2))))
    g = -(A.T @ np.where(active, draw(_vector(m, st.integers(0, 2))), 0.0))
    if draw(st.booleans()):
        g = draw(_vector(d))
    return Polyhedron(A, b), z, g, pair(draw(_vector(d)), draw(_vector(d)))


def _check_against_oracle(poly, z, g, q, res):
    """Every member has <zeta, eta> >= 0, and the verdict is the oracle's."""
    want = oracle_membership(poly, GraphPoint(z, g), q)
    assert (res.member, res.verdict) == (want.member, want.verdict)
    assert not res.member or q.zeta @ q.eta >= 0.0


@settings(max_examples=150, deadline=None)
@given(orthant_queries())
def test_orthant_members_are_monotone_and_match_the_oracle(query):
    poly, z, g, q = query
    _check_against_oracle(poly, z, g, q, orthant_membership(z, g, q))


@settings(max_examples=150, deadline=None)
@given(simplex_queries())
def test_simplex_members_are_monotone_and_match_the_oracle(query):
    poly, z, g, q = query
    _check_against_oracle(poly, z, g, q, simplex_membership(z, g, q))


@settings(max_examples=150, deadline=None)
@given(polyhedron_queries())
def test_polyhedron_members_are_monotone_and_match_the_oracle(query):
    poly, z, g, q = query
    _check_against_oracle(poly, z, g, q, polyhedron_membership(poly, GraphPoint(z, g), q))


# Membership is positively homogeneous in (zeta, eta). Scaling integer data
# by 2^k is exact, so each route must give the same verdict at both scales.
SCALES = st.integers(-6, 6).map(lambda k: 2.0 ** k)


@settings(max_examples=150, deadline=None)
@given(orthant_queries(), SCALES)
def test_orthant_membership_is_positively_homogeneous(query, t):
    _, z, g, q = query
    scaled = orthant_membership(z, g, pair(t * q.zeta, t * q.eta))
    assert scaled.verdict == orthant_membership(z, g, q).verdict


@settings(max_examples=150, deadline=None)
@given(simplex_queries(), SCALES)
def test_simplex_rows_are_positively_homogeneous(query, t):
    _, z, g, q = query
    both = _simplex_rows(np.stack([z, z]), np.stack([g, g]), np.stack([q.zeta, t * q.zeta]),
                         np.stack([q.eta, t * q.eta]), DEFAULT_EPS)
    assert both.verdicts()[0] == both.verdicts()[1]


@settings(max_examples=150, deadline=None)
@given(polyhedron_queries(), SCALES)
def test_polyhedron_membership_is_positively_homogeneous(query, t):
    poly, z, g, q = query
    gp = GraphPoint(z, g)
    scaled = polyhedron_membership(poly, gp, pair(t * q.zeta, t * q.eta))
    assert scaled.verdict == polyhedron_membership(poly, gp, q).verdict


def test_interior_point_membership_is_zero_zeta():
    p = orthant_polyhedron(2)
    gp = GraphPoint([1.0, 2.0], [0.0, 0.0])
    assert polyhedron_membership(p, gp, pair([0, 0], [3, -4])).member is True
    assert polyhedron_membership(p, gp, pair([1e-3, 0], [3, -4])).member is False


def test_active_row_cap_enforced():
    """The cap binds only the exhaustive oracle; the direct route answers."""
    p = orthant_polyhedron(9)
    gp = GraphPoint(np.zeros(9), np.zeros(9))
    assert len(active_rows(p, p.slacks(gp.z))) == 9
    res = polyhedron_membership(p, gp, pair(np.zeros(9), np.zeros(9)))
    assert res.member and res.witness["equality_rows"] == list(range(9))
    with pytest.raises(CombinatorialLimitError):
        oracle_membership(p, gp, pair(np.zeros(9), np.zeros(9)))


def test_witness_reports_equality_and_inequality_rows():
    p = orthant_polyhedron(2)
    gp = GraphPoint([0.0, 0.0], [1.0, 0.0])
    res = polyhedron_membership(p, gp, pair([4, 0], [0, -1]))
    assert res.member
    # rows of -z <= 0: a_0^T eta = 0 and a_1^T eta = 1 > 0
    assert res.witness["equality_rows"] == [0]
    assert res.witness["inequality_rows"] == [1]
    assert res.witness["near_threshold_rows"] == []
    # zeta_2 = 1 is outside span(a_0) + cone(a_1) = R x R_-
    non = polyhedron_membership(p, gp, pair([4, 1], [0, -1]))
    assert not non.member and non.witness == {"active_rows": [0, 1]}


# Zero rows 0 and 3, which Polyhedron drops, around the rows of -z <= 0 and
# a row 4 whose slack at z = 0, 5e-9, lies within a decade of eps.
ZERO_ROWS_A = [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [1.0, 1.0]]
ZERO_ROWS_B = [1.0, 0.0, 0.0, 2.0, 5e-9]


def test_witness_rows_keep_the_callers_numbering():
    """A polyhedron that drops zero rows names its witness rows by the
    caller's numbering, as active_rows names a violated row: the direct
    test and the face-pair oracle give the witnesses of the same system
    without the zero rows, each row mapped through row_index."""
    with pytest.warns(UserWarning, match="dropping 2 zero rows"):
        poly = Polyhedron(ZERO_ROWS_A, ZERO_ROWS_B)
    kept = Polyhedron(np.array(ZERO_ROWS_A)[[1, 2, 4]], np.array(ZERO_ROWS_B)[[1, 2, 4]])
    caller = poly.row_index.tolist()
    assert caller == [1, 2, 4]
    gp = GraphPoint([0.0, 0.0], [1.0, 2.0])
    res = polyhedron_membership(poly, gp, pair([0.0, 0.0], [0.0, 0.0]))
    assert res.witness == {"equality_rows": [1, 2], "inequality_rows": [],
                           "near_threshold_rows": [4]}
    for g, zeta, eta in (([1.0, 2.0], [0.0, 0.0], [0.0, 0.0]), ([0.0, 2.0], [-3.0, 5.0], [-1.0, 0.0]),
                         ([1.0, 2.0], [-3.0, 5.0], [-1.0, 0.0]), ([0.0, 2.0], [3.0, 5.0], [0.0, 0.0])):
        gp, q = GraphPoint([0.0, 0.0], g), pair(zeta, eta)
        for test in (polyhedron_membership, oracle_membership):
            got, want = test(poly, gp, q), test(kept, gp, q)
            assert (got.member, got.verdict) == (want.member, want.verdict)
            assert got.witness == {key: [caller[i] for i in rows]
                                   for key, rows in want.witness.items()}, (test, g, zeta, eta)
    with pytest.raises(InfeasiblePointError, match="violates row 1"):
        active_rows(poly, poly.slacks([-1.0, 0.0]))


# ---------------------------------------------------------------------------
# the point boundary

def test_points_and_pairs_need_finite_one_dimensional_arrays():
    nan = float("nan")
    for bad in (None, nan, [nan], [1.0, np.inf], [[0.0]], 0.0, {}, ["a"]):
        with pytest.raises(ValueError):
            GraphPoint(bad, [0.0])
        with pytest.raises(ValueError):
            GraphPoint([0.0], bad)
        with pytest.raises(ValueError):
            NormalPair(bad, [0.0])
        with pytest.raises(ValueError):
            NormalPair([0.0], bad)
    with pytest.raises(ValueError):
        GraphPoint([0.0, 1.0], [0.0])
    # A point or a pair of another dimension than Z is refused, not cut to
    # the rows' length.
    square = Polyhedron([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="dimension 2"):
        polyhedron_membership(square, GraphPoint([0.0], [0.0]), pair([0.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ValueError, match="dimension of Z, 2"):
        polyhedron_membership(square, GraphPoint([0.0, 0.0], [0.0, 0.0]), pair([0.0], [0.0]))


def test_finite_number_accepts_exactly_one_finite_number():
    assert finite_number(3, "v") == 3.0 and finite_number([0.25], "v") == 0.25
    assert finite_number(np.float64(-1.5), "v") == -1.5
    for bad in ([], {}, [1.0, 2.0], None, "5", True, float("nan"), [np.inf]):
        with pytest.raises(ValueError, match="v must be one finite number"):
            finite_number(bad, "v")


def test_finite_vector_rejects_booleans_and_strings():
    """A JSON true or "1" is not a number, alone, in a list, nested or in an
    array."""
    from mstat.graph_normals import finite_vector

    for value in ([True, 1.0], [1.0, False], [[1.0], [True]], np.array([True]),
                  (1.0, np.True_), ["1.5"], [[1.0], ["2"]], np.array(["1"])):
        with pytest.raises(ValueError, match="finite 1-D array"):
            finite_vector(value, "v", flat=True)
    for value in (True, "1"):
        with pytest.raises(ValueError, match="finite 1-D array"):
            finite_vector(value, "v", scalar=True)
    assert finite_vector([1, 2.5], "v").tolist() == [1.0, 2.5]
    assert finite_vector(2.0, "v", scalar=True).tolist() == [2.0]
    assert finite_vector([[1.0, 2.0]], "v", flat=True).tolist() == [1.0, 2.0]


def test_an_int_beyond_float_range_is_no_finite_vector():
    """A JSON integer too large for a float is a ValueError naming the
    vector, not an OverflowError."""
    from mstat.graph_normals import finite_vector

    for value in ([10 ** 400, 1.0], [[1.0], [-10 ** 400]]):
        with pytest.raises(ValueError, match="v must be a finite 1-D array"):
            finite_vector(value, "v", flat=True)


def _reading(read, values, number):
    """What read(values, "v %d", number) gives: the rows' dtype, shape and
    bytes, or the type and text of its ValueError."""
    try:
        rows = read(values, "v %d", number)
    except ValueError as exc:
        return type(exc), str(exc)
    return rows.dtype, rows.shape, rows.tobytes()


@pytest.mark.parametrize("values", [
    [], [[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0]], [[1.0], 2.0], [[True]], [1.0, False],
    [["1"]], [[None]], [None], [[float("nan")]], [float("inf")], [[10 ** 400]],
    [np.array([1.0])], [(1.0,)], [[[1.0]]],
])
def test_finite_rows_leaves_anything_else_to_finite_vector(values):
    """A list that the one type scan does not take (no vector, lengths that
    differ, lists mixed with numbers, booleans, strings, nulls, non-finite
    entries, ints beyond float range, arrays, tuples and nested lists)
    finite_rows reads entry by entry itself: it gives the rows, or raises
    the error, of rows_oracle, which reads every entry alone."""
    for number in (False, True):
        assert _reading(GN.finite_rows, values, number) == _reading(rows_oracle, values, number)


def test_finite_rows_stacks_the_vectors_of_finite_vector():
    from mstat.graph_normals import finite_rows, finite_vector

    for values, shape in (([[1, 2.5], [-0.0, 3]], (2, 2)), ([0.5, 2], (2, 1)),
                          ([[], []], (2, 0))):
        rows = finite_rows(values, "v %d")
        assert rows.shape == shape and rows.dtype == float
        for row, value in zip(rows, values):
            assert row.tobytes() == finite_vector(value, "v", scalar=True).tobytes()


READER_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3),
    st.integers(-2 ** 70, 2 ** 70), st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64]),
    st.booleans(), st.sampled_from(["1", "", None]))
ARRAY_ENTRIES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([np.inf, np.nan]))


@st.composite
def reader_entries(draw):
    """One entry of a list of vectors: a lone number, or a list, tuple or
    numpy array of numbers, mostly of one drawn length so that most lists
    are not ragged, with the odd boolean, string, null, NaN, infinity or
    int beyond float range among the numbers."""
    kind = draw(st.sampled_from(["lone", "list", "list", "list", "tuple", "array"]))
    if kind == "lone":
        return draw(READER_SCALARS)
    size = draw(st.sampled_from([1, 2, 2, 3]))
    numbers = st.one_of(st.floats(-1e6, 1e6), st.integers(-5, 5)) if draw(
        st.integers(0, 2)) else READER_SCALARS
    items = draw(st.lists(numbers, min_size=size, max_size=size))
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return np.array(draw(st.lists(ARRAY_ENTRIES, min_size=size, max_size=size)))


READER_SPECIALS = st.sampled_from(
    [np.nan, np.inf, -np.inf, True, False, "1", None, 10 ** 400, -10 ** 400, [1.0]])


@st.composite
def reader_lists(draw):
    """A list of vectors: JSON-like lists of numbers of one length or lone
    numbers, half of them with one entry swapped for a NaN, an infinity, a
    boolean, a string, a null, an int beyond float range or a list; lists
    of numbers of differing lengths; entries of reader_entries; or a 2-D
    numpy array or tuple."""
    n, d = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    form = draw(st.sampled_from(["rows", "rows", "ragged", "lone", "mixed", "array", "tuple"]))
    number = st.one_of(st.floats(-1e6, 1e6), st.integers(-9, 9))
    if form == "ragged":
        return [draw(st.lists(number, max_size=3)) for _ in range(n)]
    if form == "mixed":
        return draw(st.lists(reader_entries(), min_size=n, max_size=n))
    if form in ("array", "tuple"):
        rows = np.array(draw(st.lists(ARRAY_ENTRIES, min_size=n * d, max_size=n * d)))
        rows = rows.reshape(n, d)
        return rows if form == "array" else tuple(map(tuple, rows.tolist()))
    width = d if form == "rows" else 1
    flat = draw(st.lists(number, min_size=n * width, max_size=n * width))
    if flat and draw(st.booleans()):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(READER_SPECIALS)
    if form == "lone":
        return flat
    return [flat[i * width:(i + 1) * width] for i in range(n)]


# JSON numbers: floats with -0.0, NaN and the infinities, ints past 2^53
# and past the float range; and the leaves that are no numbers.
JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-9, 9),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([-0.0, 2 ** 53 + 1, 10 ** 400, -10 ** 400, np.nan, np.inf, -np.inf]))
JSON_LEAVES = JSON_NUMBERS | st.booleans() | st.sampled_from(["1", "", None])


def _json_nesting(depth):
    """A leaf, or a list of up to three values nested at most depth deep."""
    if depth == 0:
        return JSON_LEAVES
    return JSON_LEAVES | st.lists(_json_nesting(depth - 1), max_size=3)


@st.composite
def json_values(draw):
    """A JSON-shaped value of nesting depth 0 to 3: half the time an
    array of finite numbers, rectangular but for, a third of the time
    each, one leaf swapped for any JSON leaf or one row a leaf short;
    otherwise any nesting of leaves and lists, empty and ragged ones
    included."""
    depth = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return draw(_json_nesting(depth))
    shape = draw(st.lists(st.integers(0, 3), min_size=depth, max_size=depth))
    finite = st.floats(-1e6, 1e6) | st.integers(-9, 9) | st.sampled_from([-0.0, 2 ** 53 + 1])
    leaves = [draw(finite) for _ in range(int(np.prod(shape)))]
    change = draw(st.sampled_from(["none", "leaf", "row"])) if leaves else "none"
    if change == "leaf":
        leaves[draw(st.integers(0, len(leaves) - 1))] = draw(JSON_LEAVES)
    leaves = iter(leaves)

    def nest(dims):
        return [nest(dims[1:]) for _ in range(dims[0])] if dims else next(leaves)
    value = nest(shape)
    if change == "row" and depth > 1:
        value[draw(st.integers(0, len(value) - 1))].pop()
    return value


@settings(max_examples=400, deadline=None)
@given(reader_lists() | json_values().filter(lambda v: type(v) is list), st.booleans())
def test_finite_rows_matches_the_per_entry_reader(values, number):
    """On any list of vectors, with or without number, finite_rows gives
    the rows of rows_oracle bit for bit, or raises its error with its text:
    the one scan takes only what reading entry by entry takes."""
    assert _reading(GN.finite_rows, values, number) == _reading(rows_oracle, values, number)


def _read(read, *args, **options):
    """The dtype, shape and bytes of each array that read(*args, **options)
    gives (A, b and row_index of a Polyhedron), or the type and text of its
    ValueError; warnings (Polyhedron's dropped zero rows) are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out = read(*args, **options)
        except ValueError as exc:
            return type(exc), str(exc)
    arrays = (out.A, out.b, out.row_index) if type(out) is Polyhedron else (out,)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=600, deadline=None)
@given(json_values(), json_values(), st.booleans(), st.booleans())
@example(None, [[0.0]], False, False)
def test_every_reader_reads_json_values_as_its_generic_oracle(value, other, scalar, flat):
    """On any JSON-shaped value every reader of number arrays gives the
    bytes, shape and dtype of its oracle, which reads by np.asarray and a
    walk of the nesting or entry by entry, or raises its error with its
    text: finite_array, finite_vector (with scalar and flat), finite_rows
    (with and without number) and Polyhedron, on the value as A and as b,
    with the other drawn value or zeros of the value's length."""
    assert _read(finite_array, value, "v") == _read(array_oracle, value, "v")
    assert _read(GN.finite_vector, value, "v", scalar=scalar, flat=flat) \
        == _read(vector_oracle, value, "v", scalar=scalar, flat=flat)
    if type(value) is list:
        for number in (False, True):
            assert _read(GN.finite_rows, value, "v %d", number) \
                == _read(rows_oracle, value, "v %d", number)
    zeros = [0.0] * len(value) if type(value) is list else 0.0
    for A, b in ((value, other), (value, zeros), (other, value)):
        assert _read(Polyhedron, A, b) == _read(polyhedron_oracle, A, b)


@settings(max_examples=600, deadline=None)
@given(json_values())
@example([2 ** 53 + 1, -0.0, 10 ** 20])
def test_points_and_pairs_read_json_values_as_finite_vector(value):
    """On any JSON-shaped value v, the z and g of GraphPoint(v, v) and the
    zeta and eta of NormalPair(v, v) have the bytes, shape and dtype of
    finite_vector(v, name), or the constructor raises its error with the
    text it gives for the argument read first. The arrays are read-only
    and hold the entries of the tuples."""
    for make, names in ((GraphPoint, ("z", "g")), (NormalPair, ("zeta", "eta"))):
        want = _read(GN.finite_vector, value, names[0])
        for name in names:
            assert _read(lambda v: getattr(make(v, v), name), value) == want
        if type(want) is list:
            point = make(value, value)
            for name in names:
                array = getattr(point, name)
                assert not array.flags.writeable
                assert array.tolist() == list(getattr(point, name + "_entries"))


@pytest.mark.parametrize("A, b, bad", [([[np.nan]], [0.0], "A"), ([[np.inf]], [0.0], "A"),
                                       ([["1"]], [0.0], "A"), ([[True]], [0.0], "A"),
                                       ([[1.0]], [np.nan], "b")])
def test_polyhedron_refuses_non_finite_and_non_numeric_rows(A, b, bad):
    """A NaN, an infinity, a string or a boolean in A or b is a ValueError
    naming the array, so no membership verdict is reached on such a Z."""
    with pytest.raises(ValueError, match="^%s must be an array of finite numbers$" % bad):
        Polyhedron(A, b)


# ---------------------------------------------------------------------------
# closed-form distance to the simplex normal cone

EPS = DEFAULT_EPS
# Coordinates exactly at 0 and +-eps are active bound rows, 2 eps is not.
SIMPLEX_ENTRIES = st.sampled_from([0.0, EPS, -EPS, 2 * EPS, 0.03, 0.08])
# Values drawn from a few exact numbers tie among the pinned entries of u.
TIED = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
# Relative to max(1, max |u|). Over 20,000 drawn cases the largest violation
# of the projection's optimality conditions (_simplex_kkt_gap) was 1.1e-15.
SIMPLEX_RESIDUAL_TOL = 1e-14


@st.composite
def simplex_residual_cases(draw):
    """(z, u) with z feasible for the simplex of dimension d = 1 to 12.

    z holds coordinates at exactly 0, +-eps and 2 eps; with budget drawn,
    one coordinate takes the remaining mass so that the slack 1 - 1^T z is
    0, +-eps or +-eps/2 up to the rounding of that sum, and otherwise every
    coordinate may be pinned. u has tied entries, scaled by up to 1e150.
    """
    d = draw(st.integers(1, 12))
    z = draw(_vector(d, SIMPLEX_ENTRIES))
    budget = draw(st.sampled_from([None, 0.0, EPS, -EPS, 0.5 * EPS, -0.5 * EPS]))
    if budget is not None:
        j = draw(st.integers(0, d - 1))
        z[j] = 0.0
        z[j] = 1.0 - budget - z.sum()
    scale = draw(st.sampled_from([1.0, 1e-7, 1e7, 1e150]))
    return z, scale * draw(_vector(d, TIED | st.floats(-4.0, 4.0)))


def _simplex_residual_case(z, u):
    """The closed form's residual, norm and multiplier at (z, u), the active
    mask, and the residual of lp.nnls on the active rows A[I] with the noise
    tolerance
    of its entering test, 10 max(m, n) eps ||u|| times the largest row
    1-norm of A[I], by which its answer may stop short of the projection;
    z must be feasible."""
    from mstat.cones import active_rows, cone_residual

    poly = simplex_polyhedron(len(z))
    slack = poly.slacks(z)
    assume(slack.min() >= -EPS)
    I = list(active_rows(poly, slack))
    active = np.zeros(poly.m, dtype=bool)
    active[I] = True
    resid, norm, lam = GN._simplex_residual_rows(u[None], active[None])
    R = poly.A[I]
    noise = 10.0 * max(R.shape) * np.finfo(float).eps \
        * np.abs(R).sum(axis=1).max(initial=0.0) * np.linalg.norm(u)
    return resid[0], float(norm[0]), lam[0], active, cone_residual(u, R), noise


def _simplex_kkt_gap(resid, u, active):
    """The largest violation of the optimality conditions of the projection
    of u onto the simplex normal cone on the active rows, at the nearest
    point p = u + resid, with the multipliers read off p: tau = max(0, max p)
    when the budget row is active (else 0) and mu = tau - p. Each condition
    pair enters as |min(a, b)| for a >= 0, b >= 0, a b = 0: mu_i and -resid_i
    on the pinned coordinates, tau and 1^T resid on the budget row; a free
    coordinate needs mu_i = 0."""
    d = len(u)
    pinned, budget = active[:d], active[d]
    p = u + resid
    tau = max(0.0, float(p.max())) if budget else 0.0
    mu = tau - p
    gaps = np.where(pinned, np.abs(np.minimum(mu, -resid)), np.abs(mu))
    return max(float(gaps.max()), abs(min(tau, float(resid.sum()))) if budget else 0.0)


@settings(max_examples=400, deadline=None)
@given(simplex_residual_cases())
@example((np.array([1.0]), np.array([0.5])))                     # d = 1 on the budget face
@example((np.array([0.0, EPS, -EPS]), np.array([2.0, -1.0, 3.0])))  # every row pinned
@example((np.array([0.5, 0.5, 0.0, 0.0]), np.array([1.0, 1.0, 3.0, 3.0])))  # tied pins
@example((np.array([0.25, 0.75, 0.0]), np.array([1e150, -1e150, 3e149])))
# scipy's nnls misses this projection by 2.7e6 in an entry (scipy 1.17.1)
@example((np.array([0.0, 0.9999999985, 2e-9, 0.0, 0.0]), np.array([-1e7, 0.0, 2e7, 1e7, 1e7])))
# lp.nnls leaves the pinned -1e-12 out, within its noise tolerance
@example((np.array([0.969999998, 0.0, 0.0, 1e-09, 1e-09, 0.0, 0.0, 0.03, 0.0, -1e-09, 1e-09, 0.0]),
          np.array([-1.0, -1.0, -2.0, -2.0, 1.0, -0.5, -3.834283093286208, -1.0,
                    -0.47602463242598514, 0.5, -0.5, -1e-12])))
def test_simplex_residual_rows_match_nnls(case):
    """The closed form's residual meets the projection's optimality
    conditions (_simplex_kkt_gap) within SIMPLEX_RESIDUAL_TOL times
    max(1, max |u|), a bound that a move of 1e-12 times that scale in any
    one entry breaks; its norm is sqrt(sum(r * r)) of its own vector; and
    the vector and norm equal those of lp.nnls on the active rows within
    that bound plus lp.nnls's noise tolerance. Its multiplier, mu on the
    pinned coordinates and then tau, is >= 0, vanishes off the active rows
    and gives the residual as A^T (mu, tau) - u, term by term."""
    z, u = case
    resid, norm, lam, active, want, noise = _simplex_residual_case(z, u)
    tol = SIMPLEX_RESIDUAL_TOL * max(1.0, float(np.abs(u).max()))
    assert norm == np.sqrt(np.sum(resid * resid))
    assert np.all(lam >= 0.0) and not lam[~active].any()
    assert np.array_equal(resid, (lam[-1] - u) - lam[:-1])
    assert np.max(np.abs(resid - want)) <= tol + noise, (resid, want)
    assert abs(norm - np.linalg.norm(want)) <= tol + noise, (norm, want)
    assert _simplex_kkt_gap(resid, u, active) <= tol, resid
    for step in np.vstack([np.eye(len(u)), -np.eye(len(u))]):
        assert _simplex_kkt_gap(resid + 100.0 * tol * step, u, active) > tol, step


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 9))
def test_simplex_residual_rows_give_each_row_its_bits_in_any_stack(seed, d, k):
    """A stack of k rows gives each row the residual, norm and multiplier
    of its one-row call bit for bit, in the stack's order and reversed.
    Rows mix tied entries, signed zeros and entries from 1e-12 to 1e3, and
    random active masks, budget row included or not."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-12, -1e-12, 1e3])
    u = np.where(rng.random((k, d)) < 0.5, rng.choice(pool, (k, d)),
                 rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-12, 3, (k, 1)))
    active = rng.random((k, d + 1)) < 0.5
    whole = GN._simplex_residual_rows(u, active)
    back = GN._simplex_residual_rows(u[::-1], active[::-1])
    for n in range(k):
        one = GN._simplex_residual_rows(u[n:n + 1], active[n:n + 1])
        for got, flipped, want in zip(whole, back, one):
            assert got[n].tobytes() == flipped[k - 1 - n].tobytes() == want[0].tobytes()

