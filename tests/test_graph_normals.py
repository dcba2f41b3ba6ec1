import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstat.cones import (
    DEFAULT_EPS,
    CombinatorialLimitError,
    Polyhedron,
    orthant_polyhedron,
    simplex_polyhedron,
)
from mstat.graph_normals import (
    STRICT_EPS,
    GraphPoint,
    NormalPair,
    NotGraphPointError,
    finite_number,
    make_graph_context,
    oracle_membership,
    orthant_membership,
    polyhedron_membership,
    simplex_membership,
    _simplex_rows,
)
from conftest import random_polyhedral_graph_point, random_simplex_graph_point, simplex_oracle


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
        with pytest.raises(NotGraphPointError):
            make_graph_context(HALF_LINE, z, g)


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
        ctx = make_graph_context(p, z, g)
        for zeta in itertools.product([-1, 0, 1], repeat=2):
            for eta in itertools.product([-1, 0, 1], repeat=2):
                q = pair(zeta, eta)
                assert orthant_membership(z, g, q).member == \
                    polyhedron_membership(p, GraphPoint(z, g), q, context=ctx).member
    members = queries = 0
    for d in (9, 10, 11, 12):
        p = orthant_polyhedron(d)
        for _ in range(15):
            zg = rng.integers(0, 3, d)
            z = (zg == 0).astype(float)
            g = (zg == 2).astype(float)
            ctx = make_graph_context(p, z, g)
            for _q in range(8):
                # zeta vanishes off the active rows and eta on I_plus, so
                # members occur and the I_0 sign conditions decide
                q = pair(np.where(z > 0, 0, rng.integers(-1, 2, d)),
                         np.where(g > 0, 0, rng.integers(-1, 2, d)))
                fast = orthant_membership(z, g, q).member
                assert fast == polyhedron_membership(p, GraphPoint(z, g), q,
                                                     context=ctx).member
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
        ctx = make_graph_context(poly, z, g)
        for _q in range(2):
            q = pair(rng.integers(-2, 3, poly.dim).astype(float),
                     rng.integers(-2, 3, poly.dim).astype(float))
            assert oracle_membership(poly, gp, q).member == \
                polyhedron_membership(poly, gp, q, context=ctx).member


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


def test_simplex_rows_equal_the_per_point_oracle():
    """_simplex_rows on k rows gives each row the Membership of the per-point
    numpy body, witness floats and key order included (compared by repr)."""
    rng = np.random.default_rng(5)
    branches = {}
    for trial in range(160):
        d = int(rng.integers(1, 17))
        k = int(rng.integers(1, 17))
        eps = (DEFAULT_EPS, DEFAULT_EPS, 1e-6, 0.5)[trial % 4]
        strict_eps = STRICT_EPS if trial % 3 else 1e-3 * eps
        Z, G, ZETA, ETA = _simplex_rows_case(rng, k, d, eps, strict_eps)
        rows = _simplex_rows(Z, G, ZETA, ETA, eps, strict_eps)
        for j, res in enumerate(rows):
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


# ---------------------------------------------------------------------------
# structural properties

def test_positive_homogeneity(rng):
    for _ in range(40):
        poly, z, g = random_polyhedral_graph_point(rng)
        gp = GraphPoint(z, g)
        ctx = make_graph_context(poly, z, g)
        q = pair(rng.integers(-2, 3, poly.dim).astype(float),
                 rng.integers(-2, 3, poly.dim).astype(float))
        if not polyhedron_membership(poly, gp, q, context=ctx).member:
            continue
        for t in (0.5, 2.0, 10.0):
            scaled = pair(t * q.zeta, t * q.eta)
            assert polyhedron_membership(poly, gp, scaled, context=ctx).member


def test_zero_eta_accepts_polar_of_critical_cone(rng):
    """With eta = 0, any conic combination of active rows is a member."""
    for _ in range(40):
        poly, z, g = random_polyhedral_graph_point(rng)
        ctx = make_graph_context(poly, z, g)
        I = list(ctx.active)
        if not I:
            zeta = np.zeros(poly.dim)
        else:
            mu = rng.uniform(0, 2, len(I))
            zeta = poly.A[I].T @ mu
        q = pair(zeta, np.zeros(poly.dim))
        assert polyhedron_membership(poly, GraphPoint(z, g), q, context=ctx).member


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
                         np.stack([q.eta, t * q.eta]), DEFAULT_EPS, STRICT_EPS)
    assert both[0].verdict == both[1].verdict


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
    assert len(make_graph_context(p, gp.z, gp.g).active) == 9
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
