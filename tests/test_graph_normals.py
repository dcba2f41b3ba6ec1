import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstat.cones import (
    CombinatorialLimitError,
    Polyhedron,
    orthant_polyhedron,
    simplex_polyhedron,
)
from mstat.graph_normals import (
    GraphPoint,
    NormalPair,
    NotGraphPointError,
    coderivative_member_orthant,
    coderivative_member_polyhedron,
    coderivative_member_simplex,
    finite_number,
    limiting_normal_member_oracle,
    make_graph_context,
    oracle_membership,
    orthant_membership,
    polyhedron_membership,
    simplex_membership,
)
from conftest import random_polyhedral_graph_point, random_simplex_graph_point


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
    assert limiting_normal_member_oracle(HALF_LINE, ORIGIN, p) is want
    assert coderivative_member_polyhedron(HALF_LINE, ORIGIN, p) is want
    assert coderivative_member_orthant([0.0], [0.0], p) is want


# ---------------------------------------------------------------------------
# orthant fast path

def test_orthant_examples():
    assert coderivative_member_orthant([0.0], [0.0], pair(-2, -3)) is True
    assert coderivative_member_orthant([1.0], [0.0], pair(0, 7)) is True
    assert coderivative_member_orthant([1.0], [0.0], pair(1, 7)) is False
    assert coderivative_member_orthant([0.0, 0.0], [1.0, 0.0],
                                       pair([4, 0], [0, -1])) is True


def test_orthant_non_graph_point():
    with pytest.raises(NotGraphPointError):
        coderivative_member_orthant([1.0], [1.0], pair(0, 0))
    res = orthant_membership(np.array([1.0]), np.array([1.0]), pair(0, 0))
    assert res.verdict == "empty_coderivative" and not res.member
    with pytest.raises(NotGraphPointError):
        coderivative_member_orthant([-1.0], [0.0], pair(0, 0))


def test_orthant_coordinate_split():
    # mixed pattern: L, I_plus, I_zero at once
    z = [2.0, 0.0, 0.0]
    g = [0.0, 3.0, 0.0]
    assert coderivative_member_orthant(z, g, pair([0, 9, -1], [4, 0, -1])) is True
    assert coderivative_member_orthant(z, g, pair([0.1, 9, -1], [4, 0, -1])) is False
    assert coderivative_member_orthant(z, g, pair([0, 9, -1], [4, 0.1, -1])) is False
    assert coderivative_member_orthant(z, g, pair([0, 9, -1], [4, 0, 1])) is False


# ---------------------------------------------------------------------------
# simplex fast path

def test_simplex_examples():
    res = simplex_membership(np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                             pair([3, -5], [0, 0]))
    assert res.member and abs(res.witness["beta"] - 3.0) < 1e-12 \
        and abs(res.witness["tau"] - 1.0) < 1e-12
    assert coderivative_member_simplex([1.0, 0.0], [-1.0, 0.0],
                                       pair([3, -5], [1, -1])) is False
    assert coderivative_member_simplex([0.2, 0.3], [0.0, 0.0],
                                       pair([0, 0], [7, -2])) is True


def test_simplex_inconsistent_zeta_on_support():
    # both coordinates carry weight, zeta must be constant across them
    assert coderivative_member_simplex([0.5, 0.5], [-1.0, -1.0],
                                       pair([2, 2], [1, -1])) is True
    assert coderivative_member_simplex([0.5, 0.5], [-1.0, -1.0],
                                       pair([2, 1], [1, -1])) is False


def test_simplex_budget_multiplier_forces_eta_sum():
    # tau > 0: sum of eta must vanish
    z = np.array([0.5, 0.5])
    g = np.array([-1.0, -1.0])
    assert coderivative_member_simplex(z, g, pair([2, 2], [1, -1])) is True
    assert coderivative_member_simplex(z, g, pair([2, 2], [1, 1])) is False


def test_simplex_non_graph_points():
    with pytest.raises(NotGraphPointError):
        coderivative_member_simplex([0.6, 0.5], [0.0, 0.0], pair([0, 0], [0, 0]))
    with pytest.raises(NotGraphPointError):
        coderivative_member_simplex([0.5, 0.5], [-1.0, -2.0], pair([0, 0], [0, 0]))
    with pytest.raises(NotGraphPointError):
        coderivative_member_simplex([0.5, 0.5], [1.0, 1.0], pair([0, 0], [0, 0]))


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


def test_interior_point_membership_is_zero_zeta():
    p = orthant_polyhedron(2)
    gp = GraphPoint([1.0, 2.0], [0.0, 0.0])
    assert coderivative_member_polyhedron(p, gp, pair([0, 0], [3, -4])) is True
    assert coderivative_member_polyhedron(p, gp, pair([1e-3, 0], [3, -4])) is False


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
