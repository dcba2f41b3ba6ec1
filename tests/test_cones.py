import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog

from conftest import critical_cone_perp_form, face_contains, random_polyhedral_graph_point
from mstat.cones import (
    ConeRepH,
    InfeasiblePointError,
    Polyhedron,
    active_diagnostics,
    active_set,
    cone_coefficients,
    cone_distance,
    critical_cone,
    distance_to_normal_cone,
    face_difference,
    faces_of_cone,
    member_h,
    member_v,
    multiplier_within_support,
    normal_cone_multiplier,
    orthant_polyhedron,
    polar_cone,
    simplex_polyhedron,
    tangent_cone,
)
from mstat.lp import feasibility_threshold

ORTHANT2 = orthant_polyhedron(2)


# ---------------------------------------------------------------------------
# construction

def test_zero_row_dropped_with_warning():
    with pytest.warns(UserWarning):
        p = Polyhedron([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    assert p.m == 1
    assert p.row_index.tolist() == [1]


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
    assert p.contains(z)
    assert active_set(p, z) == () and active_diagnostics(p, z) == ()
    assert distance_to_normal_cone(p, z, [3.0, 4.0]) == 5.0
    assert normal_cone_multiplier(p, z, [1.0, 0.0]) is None
    decomp = normal_cone_multiplier(p, z, [0.0, 0.0])
    assert decomp.I == () and decomp.complementarity_residual(p, np.array(z)) == 0.0


def test_serialization_round_trip():
    p = simplex_polyhedron(3)
    q = Polyhedron.from_dict(p.to_dict())
    assert np.array_equal(p.A, q.A) and np.array_equal(p.b, q.b)


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
    near = active_diagnostics(ORTHANT2, [5e-9, 1.0], eps=1e-9)
    assert near == (0,)
    assert active_diagnostics(ORTHANT2, [1.0, 1.0], eps=1e-9) == ()


# ---------------------------------------------------------------------------
# tangent and normal cones

def test_tangent_cone_cases():
    t = tangent_cone(ORTHANT2, [0.0, 1.0])
    assert t.G.shape == (1, 2) and t.E.shape == (0, 2)
    assert member_h(t, [1.0, -5.0]) and not member_h(t, [-1.0, 0.0])
    t0 = tangent_cone(ORTHANT2, [0.0, 0.0])
    assert member_h(t0, [3.0, 4.0]) and not member_h(t0, [-0.1, 1.0])
    ti = tangent_cone(ORTHANT2, [1.0, 1.0])
    assert ti.G.shape[0] == 0


def test_normal_multiplier_orthant_vertex():
    dec = normal_cone_multiplier(ORTHANT2, [0.0, 0.0], [1.0, 2.0])
    assert dec is not None
    assert np.allclose(dec.lam, [1.0, 2.0])
    assert dec.I_plus == (0, 1)
    assert dec.complementarity_residual(ORTHANT2, np.zeros(2)) <= 1e-9


def test_normal_multiplier_not_member():
    assert normal_cone_multiplier(ORTHANT2, [1.0, 0.0], [1.0, 0.0]) is None


def test_normal_multiplier_simplex_vertex():
    p = simplex_polyhedron(2)
    dec = normal_cone_multiplier(p, [1.0, 0.0], [-1.0, 0.0])
    assert dec is not None
    assert np.max(np.abs(p.A.T @ dec.lam - np.array([1.0, 0.0]))) < 1e-9
    assert dec.lam[0] == 0.0
    assert dec.complementarity_residual(p, np.array([1.0, 0.0])) <= 1e-9


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
        assert dec.complementarity_residual(p, z) <= 1e-9


def test_multiplier_within_support_is_monotone(rng):
    p = simplex_polyhedron(3)
    z = np.array([1.0, 0.0, 0.0])
    target = np.array([2.0, 1.0, 1.0])  # tau=2, lam = (0,1,1) over bound rows
    full = active_set(p, z)
    assert multiplier_within_support(p, z, target, full) is not None
    assert multiplier_within_support(p, z, target, ()) is None


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
# critical cones

def _sample_cone_points(K, rng, n=8):
    """Extremal points of K within the unit box, via random scipy LP objectives."""
    pts = []
    d = K.dim
    n_rows_e, n_rows_g = K.E.shape[0], K.G.shape[0]
    box = np.vstack([np.eye(d), -np.eye(d)])
    A_ub = np.vstack([K.G, box]) if n_rows_g else box
    b_ub = np.concatenate([np.zeros(n_rows_g), np.ones(2 * d)])
    for _ in range(n):
        c = rng.standard_normal(d)
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=K.E if n_rows_e else None,
                      b_eq=np.zeros(n_rows_e) if n_rows_e else None,
                      bounds=[(None, None)] * d, method="highs")
        if res.status == 0:
            pts.append(res.x)
    return pts


def test_critical_cone_cases():
    k = critical_cone(ORTHANT2, [0.0, 0.0], [-1.0, 0.0])
    assert member_h(k, [0.0, 5.0]) and not member_h(k, [1.0, 0.0]) \
        and not member_h(k, [0.0, -1.0])
    k0 = critical_cone(ORTHANT2, [0.0, 0.0], [0.0, 0.0])
    assert member_h(k0, [2.0, 3.0]) and not member_h(k0, [-1.0, 0.0])
    kf = critical_cone(ORTHANT2, [1.0, 1.0], [0.0, 0.0])
    assert kf.E.shape[0] == 0 and kf.G.shape[0] == 0


def test_critical_cone_rejects_non_normal():
    with pytest.raises(ValueError):
        critical_cone(ORTHANT2, [1.0, 0.0], [-1.0, 0.0])


def test_critical_cone_matches_perp_form(rng):
    """Multiplier-split and tangent-intersect-hyperplane forms are set-equal."""
    for _ in range(25):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        A = rng.integers(-2, 3, (m, d)).astype(float)
        if np.any(np.all(A == 0, axis=1)):
            continue
        z = rng.integers(-1, 2, d).astype(float)
        act = rng.random(m) < 0.7
        b = A @ z + np.where(act, 0.0, 1.0)
        p = Polyhedron(A, b)
        lam = np.where(act, rng.integers(0, 3, m), 0).astype(float)
        v_normal = A.T @ lam
        k1 = critical_cone(p, z, v_normal)
        k2 = critical_cone_perp_form(p, z, v_normal)
        for pt in _sample_cone_points(k1, rng) + _sample_cone_points(k2, rng):
            assert member_h(k1, pt, 1e-7) == member_h(k2, pt, 1e-7)


def test_critical_cone_inside_tangent_and_orthogonal(rng):
    for _ in range(25):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        A = rng.integers(-2, 3, (m, d)).astype(float)
        if np.any(np.all(A == 0, axis=1)):
            continue
        z = rng.integers(-1, 2, d).astype(float)
        act = rng.random(m) < 0.7
        p = Polyhedron(A, A @ z + np.where(act, 0.0, 1.0))
        lam = np.where(act, rng.integers(0, 3, m), 0).astype(float)
        v_normal = A.T @ lam
        k = critical_cone(p, z, v_normal)
        t = tangent_cone(p, z)
        for pt in _sample_cone_points(k, rng):
            assert member_h(t, pt, 1e-7)
            assert abs(v_normal @ pt) <= 1e-7


# ---------------------------------------------------------------------------
# polars and membership

def test_polar_cone_cases():
    v = polar_cone(ConeRepH(None, -np.eye(2)))
    assert member_v(v, [-3.0, -4.0]) and not member_v(v, [1.0, 0.0])
    v2 = polar_cone(ConeRepH([[1.0, 0.0]], None, dim=2))
    assert member_v(v2, [5.0, 0.0]) and member_v(v2, [-5.0, 0.0]) \
        and not member_v(v2, [0.0, 1.0])
    v3 = polar_cone(ConeRepH(None, None, dim=2))
    assert member_v(v3, [0.0, 0.0]) and not member_v(v3, [1e-3, 0.0])


def test_member_h_cases():
    k = ConeRepH(None, -np.eye(2))
    assert member_h(k, [1.0, 0.0]) and not member_h(k, [-1.0, 0.0])
    with pytest.raises(ValueError):
        member_h(k, [1.0, 0.0, 0.0])


def _enumerate_generators(K, eps=1e-9):
    """Rays and lineality of a small halfspace cone by tight-row sweeps."""
    rows = np.vstack([K.E, K.G]) if K.E.shape[0] or K.G.shape[0] \
        else np.zeros((0, K.dim))
    lin = null_space(rows) if rows.shape[0] else np.eye(K.dim)
    dim_lin = lin.shape[1]
    rays = []
    from itertools import combinations
    for size in range(rows.shape[0] + 1):
        for T in combinations(range(rows.shape[0]), size):
            sub = rows[list(T)] if T else np.zeros((0, K.dim))
            N = null_space(sub) if sub.shape[0] else np.eye(K.dim)
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
                if member_h(K, s, 1e-9) and not any(
                        np.linalg.norm(s - r) < 1e-7 for r in rays):
                    rays.append(s)
    return rays, [lin[:, j] for j in range(dim_lin)]


def test_bipolar_on_random_small_cones(rng):
    """Three routes agree: LP feasibility over generators of the polar,
    primal maximization over the cone by scipy, and sign tests on enumerated
    rays."""
    for _ in range(25):
        d = int(rng.integers(1, 5))
        n_g = int(rng.integers(1, 7))
        G = rng.integers(-2, 3, (n_g, d)).astype(float)
        G = G[~np.all(G == 0, axis=1)]
        if not len(G):
            continue
        K = ConeRepH(None, G, dim=d)
        rays, lins = _enumerate_generators(K)
        polar = polar_cone(K)
        box = np.vstack([K.G, np.eye(d), -np.eye(d)])
        box_b = np.concatenate([np.zeros(K.G.shape[0]), np.ones(2 * d)])
        for _q in range(8):
            w = rng.integers(-2, 3, d).astype(float)
            via_lp = member_v(polar, w)
            res = linprog(-w, A_ub=box, b_ub=box_b, bounds=[(None, None)] * d,
                          method="highs")
            via_primal = res.status == 0 and -res.fun <= 1e-8
            via_rays = all(w @ r <= 1e-8 for r in rays) and \
                all(abs(w @ l) <= 1e-8 for l in lins)
            assert via_lp == via_primal == via_rays


# ---------------------------------------------------------------------------
# faces

def test_faces_counts():
    f1 = faces_of_cone(ConeRepH([[1.0, 0.0]], [[0.0, -1.0]]))
    assert len(f1) == 2
    f2 = faces_of_cone(ConeRepH(None, [[-1.0]]))
    assert len(f2) == 2
    f3 = faces_of_cone(ConeRepH(None, -np.eye(2)))
    assert len(f3) == 4


def test_faces_deduplicate_parallel_rows():
    k = ConeRepH(None, [[-1.0, 0.0], [-2.0, 0.0]])
    faces = faces_of_cone(k)
    assert len(faces) == 2


def test_faces_containment_matches_tight_sets():
    faces = faces_of_cone(ConeRepH(None, -np.eye(2)))
    for fa in faces:
        for fb in faces:
            assert face_contains(fa.cone, fb.cone) == (fa.tight <= fb.tight)


def test_face_difference_cases():
    z = np.zeros(2)
    v = np.zeros(2)
    d1 = face_difference(ORTHANT2, z, v, [], [1])
    assert member_h(d1, [-9.0, 0.0]) and member_h(d1, [0.0, 1.0]) \
        and not member_h(d1, [0.0, -1.0])
    d2 = face_difference(ORTHANT2, z, v, [1], [1])
    assert member_h(d2, [5.0, 0.0]) and not member_h(d2, [0.0, 0.1]) \
        and not member_h(d2, [0.0, -0.1])
    d3 = face_difference(ORTHANT2, z, v, [], [])
    assert member_h(d3, [3.0, -3.0])


def test_face_difference_validates_inputs():
    z = np.zeros(2)
    with pytest.raises(ValueError):
        face_difference(ORTHANT2, z, np.zeros(2), [1], [])
    with pytest.raises(ValueError):
        face_difference(ORTHANT2, z, np.zeros(2), [], [7])
    # row 0 carries a positive multiplier for this normal, so it cannot sit in J2
    with pytest.raises(ValueError):
        face_difference(ORTHANT2, z, np.array([-1.0, 0.0]), [], [0])


def test_face_difference_antitone_in_outer_set(rng):
    """Growing J2 shrinks the face, hence shrinks the difference cone."""
    p = orthant_polyhedron(3)
    z = np.zeros(3)
    v = np.zeros(3)
    small_j2 = face_difference(p, z, v, [], [1])
    large_j2 = face_difference(p, z, v, [], [1, 2])
    saw_strict = False
    for _ in range(40):
        pt = rng.standard_normal(3)
        if member_h(large_j2, pt):
            assert member_h(small_j2, pt)
        elif member_h(small_j2, pt):
            saw_strict = True
    assert saw_strict


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
    # a vertex of the 12-simplex has 12 active rows, beyond any enumeration cap
    from scipy.optimize import nnls as scipy_nnls
    poly = simplex_polyhedron(12)
    z = np.zeros(12)
    z[3] = 1.0
    rows = poly.A[list(active_set(poly, z))]
    assert len(rows) == 12
    rng = np.random.default_rng(12)
    for _ in range(20):
        u = rng.integers(-3, 4, 12).astype(float)
        ref = scipy_nnls(rows.T, u)[0]
        assert abs(distance_to_normal_cone(poly, z, u)
                   - np.linalg.norm(rows.T @ ref - u)) <= 1e-12


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
        lam = multiplier_within_support(poly, z, target, I)
        if cone_distance(target, poly.A[list(I)]) > 2.0 * feasibility_threshold(target):
            assert lam is None, (poly.A.tolist(), z.tolist(), target.tolist())
            past += 1
        else:
            within += lam is not None
    assert past >= 80 and within >= 150, (past, within)
