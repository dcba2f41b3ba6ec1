import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import linprog

from conftest import (assert_nnls_optimal, complementarity_residual, cone_coefficients_oracle,
                      count_lps, normal_cone_multiplier, polyhedron_contains,
                      random_polyhedral_graph_point)
from mstat.cones import (
    FactoredRows,
    InfeasiblePointError,
    Polyhedron,
    active_diagnostics,
    active_set,
    cone_coefficients,
    cone_contains,
    cone_distance,
    distance_to_normal_cone,
    multiplier_within_support,
    orthant_polyhedron,
    simplex_polyhedron,
)
from mstat.lp import (_PIVOT_TOL, LPLimitError, LPUnbounded, feasibility_threshold,
                      linear_feasible, nnls)

ORTHANT2 = orthant_polyhedron(2)


# ---------------------------------------------------------------------------
# construction

def test_zero_row_dropped_with_warning():
    with pytest.warns(UserWarning):
        p = Polyhedron([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    assert p.m == 1
    assert p.row_index.tolist() == [1]


@pytest.mark.parametrize("A, b", [([[1.0]], [[0.0]]), ([[0.0], [0.0]], [[0.0], [1.0]])])
def test_a_bound_array_of_two_dimensions_is_refused(A, b):
    """b is a vector: a column of bounds is a ValueError naming both shapes,
    not a TypeError from the activity test or an IndexError from the
    zero-row check."""
    with pytest.raises(ValueError, match=r"^A and b shapes disagree: \(\d, 1\) vs \(\d, 1\)$"):
        Polyhedron(A, b)


@pytest.mark.parametrize("make", [simplex_polyhedron, orthant_polyhedron,
                                  lambda d: Polyhedron(np.vstack([np.zeros(d), np.eye(d)]),
                                                       np.ones(d + 1))])
def test_a_polyhedron_is_read_only(make):
    """A, b and row_index of a Polyhedron, dropped zero rows or not, refuse
    writes, so the one simplex and orthant Polyhedron cached per dimension
    can be shared."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = make(3)
    for name in ("A", "b", "row_index"):
        array = getattr(p, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = 7
    assert p.row_index.dtype.kind == "i"
    assert simplex_polyhedron(3) is simplex_polyhedron(3)
    assert orthant_polyhedron(3) is orthant_polyhedron(3)
    assert simplex_polyhedron(2) is not simplex_polyhedron(3)


def test_zero_row_negative_bound_rejected():
    with pytest.raises(ValueError):
        Polyhedron([[0.0, 0.0]], [-1.0])


def test_a_system_with_no_rows_left_is_the_whole_space():
    """Dropping every zero row leaves Z = R^d: each point is feasible, no row
    is active or violated, and the normal cone is {0}."""
    with pytest.warns(UserWarning):
        p = Polyhedron([[0.0, 0.0]], [0.0])
    assert p.m == 0
    z = [3.0, -1.0]
    assert polyhedron_contains(p, z)
    assert active_set(p, z) == () and active_diagnostics(p.slacks(z)) == ()
    assert distance_to_normal_cone(p, z, [3.0, 4.0]) == 5.0
    assert normal_cone_multiplier(p, z, [1.0, 0.0]) is None
    decomp = normal_cone_multiplier(p, z, [0.0, 0.0])
    assert decomp.I == () and complementarity_residual(decomp, p, np.array(z)) == 0.0


# ---------------------------------------------------------------------------
# active sets

def test_active_set_cases():
    assert active_set(ORTHANT2, [0.0, 1.0]) == (0,)
    assert active_set(ORTHANT2, [0.0, 0.0]) == (0, 1)
    assert active_set(ORTHANT2, [1.0, 1.0]) == ()


def test_active_set_infeasible_names_row():
    with pytest.raises(InfeasiblePointError) as err:
        active_set(ORTHANT2, [-1.0, 0.5])
    assert "row 0" in str(err.value)


def test_active_diagnostics_near_threshold():
    near = active_diagnostics(ORTHANT2.slacks([5e-9, 1.0]), eps=1e-9)
    assert near == (0,)
    assert active_diagnostics(ORTHANT2.slacks([1.0, 1.0]), eps=1e-9) == ()


# ---------------------------------------------------------------------------
# multipliers

def test_complementarity_residual_bounded_on_random_instances(rng):
    for _ in range(30):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        A = rng.integers(-2, 3, (m, d)).astype(float)
        if np.any(np.all(A == 0, axis=1)):
            continue
        z = rng.integers(-2, 3, d).astype(float)
        act = rng.random(m) < 0.5
        p = Polyhedron(A, A @ z + np.where(act, 0.0, rng.integers(1, 3, m)))
        lam = np.where(act, rng.integers(0, 3, m), 0).astype(float)
        dec = normal_cone_multiplier(p, z, -(A.T @ lam))
        assert dec is not None
        assert complementarity_residual(dec, p, z) <= 1e-9


def test_multiplier_within_support_is_monotone(rng):
    p = simplex_polyhedron(3)
    z = np.array([1.0, 0.0, 0.0])
    target = np.array([2.0, 1.0, 1.0])  # tau=2, lam = (0,1,1) over bound rows
    full = active_set(p, z)
    assert multiplier_within_support(p, target, full) is not None
    assert multiplier_within_support(p, target, ()) is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_coefficient_past_the_float_range_comes_back_infinite_without_a_warning():
    """w = (1) lies in the cone of the row (1e-310). The LP reads the row
    scaled by 2^1030 and finds a coefficient near 1, whose multiplication
    back by that power overflows: the answer is "in", with an infinite
    coefficient, and numpy warns of no overflow."""
    assert cone_coefficients(np.array([1.0]), np.array([[1e-310]])).tolist() == [np.inf]


def test_cone_coefficients_against_scipy(rng):
    """w in cone(R) + span(L) agrees with scipy, and the witness reproduces w."""
    for _ in range(200):
        d = int(rng.integers(1, 5))
        R = rng.integers(-2, 3, (int(rng.integers(0, 5)), d)).astype(float)
        L = rng.integers(-2, 3, (int(rng.integers(0, 3)), d)).astype(float)
        w = rng.integers(-2, 3, d).astype(float)
        if rng.random() < 0.3 and len(R):
            w = R.T @ rng.integers(0, 3, len(R)).astype(float)  # a point of the cone
        coef = cone_coefficients(w, R, L)
        cols = np.vstack([R, L]).T
        if cols.shape[1] == 0:
            assert (coef is not None) == (not w.any())
            continue
        ref = linprog(np.zeros(cols.shape[1]), A_eq=cols, b_eq=w,
                      bounds=[(0, None)] * len(R) + [(None, None)] * len(L),
                      method="highs")
        assert (coef is not None) == (ref.status == 0)
        if coef is not None:
            assert coef.shape == (len(R) + len(L),)
            assert np.max(np.abs(cols @ coef - w)) <= 1e-9
            assert np.min(coef[:len(R)], initial=0.0) >= -1e-9


# ---------------------------------------------------------------------------
# cone_contains: the LP's answer, from a factorization where it is certain

def lp_answer(w, R, L):
    """Whether the raw LP (lp.linear_feasible) finds w in cone(R) + span(L),
    or the class of the exception it raises."""
    G = np.vstack([R, L])
    try:
        return linear_feasible(G.T, w, np.arange(len(G)) < len(R)) is not None
    except (LPUnbounded, LPLimitError) as exc:
        return type(exc)


def unit_rows(G):
    """G with each row multiplied by the power of two that puts its largest
    |entry| in [1, 2), one row at a time; such a scaling changes no cone."""
    return np.array([[math.ldexp(v, 1 - math.frexp(max(map(abs, row), default=0.0))[1])
                      for v in row] for row in G.tolist()]).reshape(G.shape)


def assert_as_the_lp(w, G, start):
    """cone_contains(w, R, L) with L = G[:start] and R = G[start:] answers
    as the raw LP on the rows scaled by unit_rows, or raises what that LP
    raises."""
    R, L = G[start:], G[:start]
    want = lp_answer(w, unit_rows(R), unit_rows(L))
    if want is True or want is False:
        assert cone_contains(w, R, L) is want, (G.tolist(), w.tolist(), start)
    else:
        with pytest.raises(want):
            cone_contains(w, R, L)


@st.composite
def integer_cones(draw):
    """Integer generators (k, d) with planted dependent rows (integer
    combinations of the rows before them) and zero coordinates, a target
    that is 0, a combination of the rows, or any integer point, some of its
    coordinates zeroed, and the number of span rows."""
    d, k = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    G = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                               min_size=k, max_size=k)), dtype=float).reshape(k, d)
    for j in range(2, k):
        if draw(st.booleans()):
            G[j] = G[:j].T @ draw(st.lists(st.integers(-2, 2), min_size=j, max_size=j))
    G[:, sorted(draw(st.sets(st.integers(0, d - 1), max_size=d - 1)))] = 0.0
    kind = draw(st.sampled_from(["zero", "combination", "point"]))
    if kind == "zero":
        w = np.zeros(d)
    elif kind == "combination":
        w = G.T @ np.array(draw(st.lists(st.integers(-1, 2), min_size=k, max_size=k)), dtype=float)
    else:
        w = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
    w[sorted(draw(st.sets(st.integers(0, d - 1))))] = 0.0
    return w, G, draw(st.integers(0, k))


@st.composite
def float_cones(draw):
    """Float generators with nearly parallel rows (a multiple of an earlier
    row moved by 1e-16 to 1e-1 of its size) and entries near lp._PIVOT_TOL,
    a target at 0 or on a combination of the rows, moved by 1e-15 to 1e-7
    on some coordinates, and the number of span rows."""
    d, k = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    entry = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    G = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                               min_size=k, max_size=k))).reshape(k, d)
    for j in range(1, k):
        if draw(st.booleans()):
            i = draw(st.integers(0, j - 1))
            shift = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
            G[j] = draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])) * G[i] \
                + 10.0 ** draw(st.integers(-16, -1)) * np.abs(G[i]).max() * shift
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, d - 1)),
                              max_size=3)):
        G[i, j] = draw(st.sampled_from([-1.0, 1.0])) * _PIVOT_TOL * 10.0 ** draw(st.integers(-2, 2))
    if draw(st.booleans()):
        w = np.zeros(d)
    else:
        w = G.T @ np.array(draw(st.lists(st.floats(-1.0, 2.0), min_size=k, max_size=k)))
    for i in draw(st.sets(st.integers(0, d - 1))):
        w[i] += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.integers(-15, -7))
    return w, G, draw(st.integers(0, k))


@settings(max_examples=400, deadline=None)
@given(integer_cones())
@example((np.zeros(3), np.array([[1.0, 3.0, 0.0], [3.0, 2.0, 0.0], [-3.0, 1.0, 0.0],
                                 [3.0, -1.0, 0.0]]), 0))
@example((np.array([0.0, 4.0, 0.0]), np.array([[-3.0, 1.0, 0.0], [-3.0, -2.0, 0.0],
                                               [3.0, 2.0, 0.0], [1.0, 2.0, 0.0]]), 4))
@example((np.array([1000.0, 1.0, 0.0]), np.array([[1000.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                  [1000.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 0))
def test_cone_contains_answers_as_the_lp_on_integer_rows(case):
    """Where the LP answers, cone_contains gives its answer; where it raises,
    cone_contains raises the same. The examples are degenerate prisms:
    coplanar rows with an antiparallel pair, at a zero target and at a
    target with zero coordinates in their span, and rows whose minors
    exceed _MINOR."""
    assert_as_the_lp(*case)


# Dependent float rows, every one a span row, on which the LP raises
# LPUnbounded at the zero target; and a target 5.1e-9 from the span of one
# large row, which the LP accepts.
DEGENERATE_ROWS = np.array([
    [-2.560038906820392, -0.7056214010783133, -1.0206386836159285, 1.1407069849227136,
     -1.7415833558106573],
    [0.3843352013915429, -0.33230671687483837, -0.19255724685678172, 0.05413605463674453,
     -0.07515817718687144],
    [278.7027407531433, 79.51523065200831, 361.9091892141733, 637.3758042705826,
     428.15360220794093],
    [7.1153153233226165, 2.7819068421652546, 11.321053143466937, -6.6256961547855555,
     13.822123967718106],
    [0.14874918533659306, -0.03915548959666354, -0.28214857269922866, 0.39150183835375824,
     -0.011781557050885738],
    [-0.3869111933516247, 0.33186237418278586, 0.1929524571603246, -0.05548848909434855,
     0.07435494730890378]])
FAR_TARGET, LARGE_ROW = np.array([7.160662870326869e-09, 0.0]), np.array([[82.64700473935586] * 2])


@settings(max_examples=400, deadline=None)
@given(float_cones())
@example((np.zeros(5), DEGENERATE_ROWS, 6))
@example((FAR_TARGET, LARGE_ROW, 0))
def test_cone_contains_answers_as_the_lp_on_float_rows(case):
    """As on integer rows, with nearly parallel rows, entries near the LP's
    pivot tolerance and targets moved off the cone by rounding-sized steps.
    The examples are DEGENERATE_ROWS and LARGE_ROW."""
    assert_as_the_lp(*case)


def test_cone_contains_gives_the_exact_answer_on_rows_of_any_size():
    """On rows as given, the raw LP (lp.linear_feasible) raises LPUnbounded
    at a degenerate zero target on dependent float rows, and accepts a
    target 5.1e-9 from the span of the row (82.6, 82.6), past twice its
    feasibility threshold, since its ratio test steps up to _PIVOT_TOL past
    the minimum. cone_coefficients hands the LP the rows scaled to unit
    size, so it, multiplier_within_support and cone_contains give the exact
    answers: 0 lies in every cone, and the far target is out, also on the
    row scaled by 2^k. The rows of -1e-11 I, below every pivot tolerance,
    generate the negative orthant: (-1, -2) is in, (1, -2) is out. The
    coefficients are those of the rows as given: (3e11, 0.25) on the rows
    (1e-11, 0) and (0, 4) for w = (3, 1)."""
    none = np.zeros((0, 5))
    with pytest.raises(LPUnbounded):
        linear_feasible(DEGENERATE_ROWS.T, np.zeros(5), np.zeros(6, dtype=bool))
    assert cone_coefficients(np.zeros(5), none, DEGENERATE_ROWS) is not None
    assert cone_contains(np.zeros(5), none, DEGENERATE_ROWS) is True
    assert linear_feasible(LARGE_ROW.T, FAR_TARGET) is not None
    for k in (-40, -20, 0, 20, 40):
        row = np.ldexp(LARGE_ROW, k)
        assert cone_coefficients(FAR_TARGET, row) is None
        assert multiplier_within_support(Polyhedron(row, [0.0]), FAR_TARGET, [0]) is None
        assert cone_contains(FAR_TARGET, row) is False
    orthant = -1e-11 * np.eye(2)
    assert cone_contains(np.array([-1.0, -2.0]), orthant) is True
    assert cone_contains(np.array([1.0, -2.0]), orthant) is False
    coef = cone_coefficients(np.array([3.0, 1.0]), np.array([[1e-11, 0.0], [0.0, 4.0]]))
    assert coef.tolist() == [3e11, 0.25]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cone_coefficients_follow_powers_of_two_on_the_rows(seed):
    """Rows multiplied by powers of two from 2^-60 to 2^60 give the LP the
    same unit rows, so cone_coefficients answers as on the rows as given,
    with each coefficient divided by its row's power, bit for bit."""
    rng = np.random.default_rng(seed)
    d, m, l = int(rng.integers(1, 5)), int(rng.integers(0, 5)), int(rng.integers(0, 3))
    G = rng.standard_normal((m + l, d)) * 10.0 ** rng.uniform(-3, 3, (m + l, 1))
    G[rng.random(m + l) < 0.1] = 0.0
    coef = np.abs(rng.standard_normal(m + l)) * (rng.random(m + l) < 0.7)
    w = G.T @ coef + 10.0 ** rng.uniform(-12, 0) * rng.standard_normal(d) * (rng.random() < 0.5)
    power = rng.integers(-60, 61, m + l)
    R, L = G[:m], G[m:]
    want = cone_coefficients(w, R, L)
    got = cone_coefficients(w, np.ldexp(R, power[:m, None]), np.ldexp(L, power[m:, None]))
    assert (got is None) == (want is None)
    if want is not None:
        assert np.ldexp(got, power).tobytes() == want.tobytes()


@st.composite
def wide_cones(draw):
    """Float generators whose rows run from subnormal to 1e300 in size, some
    with entries of every size, some zero and some integer combinations of
    the rows before them; a target on a combination of the rows scaled to
    unit size, moved or not, or anywhere; the cone rows R and the span rows
    L, which may be None."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    size = st.one_of(st.floats(1e-300, 1e300), st.floats(5e-324, 2.2250738585072014e-308))
    G = np.zeros((k, d))
    for j in range(k):
        kind = draw(st.sampled_from(["scaled", "wide", "zero", "span"]))
        if kind == "scaled":
            G[j] = draw(size) * np.array(draw(st.lists(st.integers(-3, 3), min_size=d,
                                                        max_size=d)), dtype=float)
        elif kind == "wide":
            G[j] = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=d,
                                          max_size=d))) * draw(st.lists(size, min_size=d,
                                                                        max_size=d))
        elif kind == "span" and j:
            with np.errstate(over="ignore", invalid="ignore"):
                G[j] = G[:j].T @ np.array(draw(st.lists(st.integers(-2, 2), min_size=j,
                                                        max_size=j)), dtype=float)
            G[j][~np.isfinite(G[j])] = 0.0
    unit = unit_rows(G)
    kind = draw(st.sampled_from(["combination", "moved", "anywhere"]))
    if kind == "anywhere":
        w = np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=d, max_size=d)))
    else:
        w = unit.T @ np.array(draw(st.lists(st.floats(-1.0, 2.0), min_size=k, max_size=k)))
        if kind == "moved":
            w[draw(st.integers(0, d - 1))] += draw(st.floats(-1e-6, 1e-6))
    m = draw(st.integers(0, k))
    return w, G[:m], (None if m == k and draw(st.booleans()) else G[m:])


def _answer(solve):
    """solve()'s answer, or the class of the LP error it raised."""
    try:
        return solve()
    except (LPUnbounded, LPLimitError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(wide_cones())
def test_cone_coefficients_scale_rows_as_numpy_does(case):
    """cone_coefficients, which scales the rows as lists with math.frexp and
    math.ldexp, gives the coefficients of the numpy-scaled reference
    (cone_coefficients_oracle) bit for bit, signs of zeros included, and
    None or an LP error in the same places; cone_contains answers as it."""
    w, R, L = case
    got = _answer(lambda: cone_coefficients(w, R, L))
    want = _answer(lambda: cone_coefficients_oracle(w, R, L))
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    else:
        assert got is want
    if isinstance(want, type):
        with pytest.raises(want):
            cone_contains(w, R, L)
    else:
        assert cone_contains(w, R, L) is (want is not None)


def test_cone_contains_runs_no_lp_on_independent_rows(monkeypatch):
    """Independent rows decide both ways without an LP: a target with
    nonnegative cone coefficients is in, one off their span is out."""
    calls = count_lps(monkeypatch)
    R, L = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]]), np.array([[1.0, 1.0, 0.0]])
    assert cone_contains(2.0 * R[0] + R[1] - 3.0 * L[0], R, L) is True
    assert cone_contains(np.array([0.0, 0.0, 1.0]), R[:1], L) is False
    assert cone_contains(np.zeros(3), R) is True
    assert calls == []
    assert cone_contains(-R[0], R, L) is False and len(calls) == 1


def test_cone_contains_leaves_a_prefix_with_large_minors_to_the_lp(monkeypatch):
    """Integer rows with a dependent third row are decided only up to the
    last row before it when their rank largest norms multiply past _MINOR
    (here 1e3 * 1e3 * 1): the questions on two rows take no LP, those on
    three or four take it. The same rows scaled down are decided."""
    calls = count_lps(monkeypatch)
    G = np.array([[1000.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1000.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    factor = FactoredRows(G.tolist())
    assert cone_contains(G[2], G[:2], factor=factor) is True
    assert cone_contains(G[3], G[:2], factor=factor) is False
    assert calls == []
    assert cone_contains(G[2], G[:3], factor=factor) is True and len(calls) == 1
    assert cone_contains(G[3], G, factor=factor) is True and len(calls) == 2
    small = G / np.array([1000.0, 1.0, 1.0])
    assert cone_contains(small[2], small[:3]) is True
    assert cone_contains(small[3], small[:3]) is False
    assert cone_contains(small[3], small) is True and len(calls) == 2


def test_cone_contains_raises_as_the_lp_on_mismatched_shapes():
    """A target of another length than the rows, or span and cone rows of
    different lengths, raise the ValueError of cone_coefficients."""
    R = -np.eye(2)
    with pytest.raises(ValueError, match="rows but b has"):
        cone_contains(np.array([-1.0]), R)
    with pytest.raises(ValueError):
        cone_contains(np.zeros(2), R, np.ones((1, 3)))


# ---------------------------------------------------------------------------
# the polar of a halfspace cone

def _enumerate_generators(G, eps=1e-9):
    """Rays and lineality of a small cone {d : G d <= 0}, G with at least
    one row, by tight-row sweeps."""
    dim = G.shape[1]
    lin = null_space(G)
    dim_lin = lin.shape[1]
    rays = []
    from itertools import combinations
    for size in range(G.shape[0] + 1):
        for T in combinations(range(G.shape[0]), size):
            sub = G[list(T)] if T else np.zeros((0, dim))
            N = null_space(sub) if sub.shape[0] else np.eye(dim)
            if N.shape[1] != dim_lin + 1:
                continue
            if dim_lin:
                M = lin.T @ N
                w = null_space(M)
                if w.shape[1] != 1:
                    continue
                v = N @ w[:, 0]
            else:
                v = N[:, 0]
            nv = np.linalg.norm(v)
            if nv < eps:
                continue
            v = v / nv
            for s in (v, -v):
                if np.max(G @ s) <= 1e-9 and not any(
                        np.linalg.norm(s - r) < 1e-7 for r in rays):
                    rays.append(s)
    return rays, [lin[:, j] for j in range(dim_lin)]


def test_bipolar_on_random_small_cones(rng):
    """Three routes agree on w in the polar of K = {d : G d <= 0}, which is
    cone(rows of G): LP feasibility by cone_coefficients, primal
    maximization of w over K by scipy, and sign tests on K's enumerated
    rays."""
    for _ in range(25):
        d = int(rng.integers(1, 5))
        n_g = int(rng.integers(1, 7))
        G = rng.integers(-2, 3, (n_g, d)).astype(float)
        G = G[~np.all(G == 0, axis=1)]
        if not len(G):
            continue
        rays, lins = _enumerate_generators(G)
        box = np.vstack([G, np.eye(d), -np.eye(d)])
        box_b = np.concatenate([np.zeros(G.shape[0]), np.ones(2 * d)])
        for _q in range(8):
            w = rng.integers(-2, 3, d).astype(float)
            via_lp = cone_coefficients(w, G) is not None
            res = linprog(-w, A_ub=box, b_ub=box_b, bounds=[(None, None)] * d,
                          method="highs")
            via_primal = res.status == 0 and -res.fun <= 1e-8
            via_rays = all(w @ r <= 1e-8 for r in rays) and \
                all(abs(w @ l) <= 1e-8 for l in lins)
            assert via_lp == via_primal == via_rays


# ---------------------------------------------------------------------------
# normal-cone distance

def test_distance_to_normal_cone_projection():
    # N at the orthant vertex is the negative orthant; u = (1, 1) projects to 0.
    assert abs(distance_to_normal_cone(ORTHANT2, np.zeros(2), np.array([1.0, 1.0]))
               - np.sqrt(2.0)) < 1e-12
    # u already inside the cone.
    assert distance_to_normal_cone(ORTHANT2, np.zeros(2), np.array([-1.0, -2.0])) < 1e-12
    # interior point: N = {0}.
    assert abs(distance_to_normal_cone(ORTHANT2, np.ones(2), np.array([0.3, -0.4]))
               - 0.5) < 1e-12
    # a vertex of the 12-simplex has 12 active rows, beyond any enumeration cap;
    # the distance is that of a KKT-certified projection, and at most that of
    # scipy's answer, a feasible point that need not be optimal
    from scipy.optimize import nnls as scipy_nnls
    poly = simplex_polyhedron(12)
    z = np.zeros(12)
    z[3] = 1.0
    rows = poly.A[list(active_set(poly, z))]
    assert len(rows) == 12
    rng = np.random.default_rng(12)
    for _ in range(20):
        u = rng.integers(-3, 4, 12).astype(float)
        x = nnls(rows.T, u)
        assert_nnls_optimal(rows.T, u, x)
        distance = distance_to_normal_cone(poly, z, u)
        assert abs(distance - np.linalg.norm(rows.T @ x - u)) <= 1e-12
        assert distance <= np.linalg.norm(rows.T @ scipy_nnls(rows.T, u)[0] - u) + 1e-12


def test_multiplier_lp_fails_past_twice_the_feasibility_threshold():
    """The phase-1 optimum of the multiplier LP is an L1 residual, at least
    the NNLS distance, so a distance above twice the LP's feasibility
    threshold leaves no multiplier. Perturbations of a normal vector span
    the decades around the threshold."""
    rng = np.random.default_rng(5)
    past = within = 0
    for _ in range(400):
        poly, z, g = random_polyhedral_graph_point(rng)
        I = active_set(poly, z)
        target = -(g + 10.0 ** rng.uniform(-12, 0) * rng.standard_normal(len(z)))
        if not I:
            continue
        lam = multiplier_within_support(poly, target, I)
        if cone_distance(target, poly.A[list(I)]) > 2.0 * feasibility_threshold(target):
            assert lam is None, (poly.A.tolist(), z.tolist(), target.tolist())
            past += 1
        else:
            within += lam is not None
    assert past >= 80 and within >= 150, (past, within)
