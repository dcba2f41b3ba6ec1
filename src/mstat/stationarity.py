"""First-order stationarity systems for two-stage problems on finite supports.

A problem couples a smooth lower-level objective over a convex feasible set
with an upper-level loss evaluated across finitely many weighted scenarios.
Certificates carry a parameter vector plus per-scenario solutions and
multipliers; the verifiers here recompute every line of the stationarity
system and report residuals instead of trusting any claimed quantity.

Two systems are supported. The plain (convex lower level) system couples an
upper-level gradient inclusion with per-scenario coderivative conditions. The
penalized system adds a nonnegative per-scenario penalty weight on the
lower-level optimality gap and a Clarke subgradient of the lower optimal-value
function, realized as a convex combination of lower-objective parameter
gradients over the solution set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from operator import contains

import numpy as np

from .cones import (
    DEFAULT_EPS,
    MAX_ACTIVE_ROWS,
    STRICT_EPS,
    CombinatorialLimitError,
    Polyhedron,
    active_set,
    cone_contains,
    multiplier_within_support,
    orthant_polyhedron,
    simplex_polyhedron,
)
from .graph_normals import (
    _NOT_NORMAL,
    GraphPoint,
    NormalPair,
    NotGraphPointError,
    _empty,
    _graph_point,
    finite_rows,
    finite_vector,
    finite_weights,
    object_list,
    _orthant_rows,
    _scanned_rows,
    _simplex_residual_rows,
    _simplex_rows,
    polyhedron_membership,
)
from .lp import feasibility_threshold, nnls

__all__ = [
    "FeasibleSet", "ParameterSet", "Problem",
    "LowerModel", "UpperModel",
    "Certificate", "ScenarioTerms",
    "ScenarioColumns", "ResidualReport",
    "difference_check", "lower_residual", "nnamcq_check", "upper_residual",
    "verify_certificate", "verify_certificate_penalized",
    "value_function", "value_subdifferential",
]

DEFAULT_TOL = 1e-8
DEFAULT_VALUE_TOL = 1e-6
_TERM_BOUND = 1e150
_FD_STEP = 1e-6      # central-difference step of difference_check
_ARGMIN_TOL = 1e-9   # value and max-norm point tolerance of value_function


# ---------------------------------------------------------------------------
# feasible sets and parameter sets

@dataclass(frozen=True)
class FeasibleSet:
    """Lower-level feasible region: orthant, simplex, box or general polyhedron."""

    kind: str
    dim: int
    poly: Polyhedron = None
    lo: np.ndarray = None
    hi: np.ndarray = None

    @staticmethod
    def orthant(dim):
        return FeasibleSet("orthant", dim)

    @staticmethod
    def simplex(dim):
        return FeasibleSet("simplex", dim)

    @staticmethod
    def box(lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.any(lo > hi):
            raise ValueError("box bounds crossed")
        return FeasibleSet("box", len(lo), lo=lo, hi=hi)

    @staticmethod
    def polyhedron(poly):
        return FeasibleSet("polyhedron", poly.dim, poly=poly)

    def as_polyhedron(self):
        if self.kind == "orthant":
            return orthant_polyhedron(self.dim)
        if self.kind == "simplex":
            return simplex_polyhedron(self.dim)
        if self.kind == "box":
            A = np.vstack([np.eye(self.dim), -np.eye(self.dim)])
            b = np.concatenate([self.hi, -self.lo])
            return Polyhedron(A, b)
        return self.poly

    def project(self, y):
        """Euclidean projection, available for the structured kinds only."""
        y = np.asarray(y, dtype=float)
        if self.kind == "orthant":
            return np.maximum(y, 0.0)
        if self.kind == "box":
            return np.clip(y, self.lo, self.hi)
        if self.kind == "simplex":
            return _simplex_projection_rows(y[None])[0]
        raise NotImplementedError("no projection for general polyhedra")


def _simplex_projection_rows(Y):
    """The Euclidean projection of each row of Y onto {z >= 0, 1^T z <= 1}.

    A row whose positive part sums to at most 1 projects to that part. Any
    other row y, a NaN sum included, is shifted by the sort-and-cumsum rule:
    u = sort(y) descending, rho the last index with
    u_rho > (u_0 + ... + u_rho - 1) / (rho + 1), and the shift that quotient.
    Only a row sum, sort, cumsum and elementwise operations act across a
    row, so each row gets the same bits in any stack. A row where no index
    passes (a NaN, or an entry so large that u_0 - 1 rounds to u_0) raises
    ValueError.
    """
    P = np.maximum(Y, 0.0)
    over = np.flatnonzero(~(P.sum(axis=1) <= 1.0))
    if len(over):
        d = Y.shape[1]
        U = np.sort(Y[over], axis=1)[:, ::-1]
        css = np.cumsum(U, axis=1) - 1.0
        hit = U - css / np.arange(1, d + 1) > 0
        if not hit.any(axis=1).all():
            raise ValueError("the simplex projection finds no support: a row holds a NaN "
                             "or an entry of magnitude 2^53 or more")
        rho = d - 1 - np.argmax(hit[:, ::-1], axis=1)
        shift = css[np.arange(len(over)), rho] / (rho + 1.0)
        P[over] = np.maximum(Y[over] - shift[:, None], 0.0)
    return P


def _row_dot(W, V):
    """w_i @ v_i for every row i.

    A stacked matmul of (1, M) by (M, 1) runs the same dot kernel as a 1-D
    `w @ v`, so each row gets the bits the one-row call gets; einsum and
    (W * V).sum(1) sum in other orders.
    """
    return np.matmul(W[:, None, :], V[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class ParameterSet:
    """Upper-level parameter region; supplies distances to its normal cones."""

    kind: str
    dim: int
    lo: np.ndarray = None
    hi: np.ndarray = None

    @staticmethod
    def free(dim):
        return ParameterSet("free", dim)

    @staticmethod
    def box(lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        return ParameterSet("box", len(lo), lo=lo, hi=hi)

    def outside(self, theta):
        """One text for each coordinate of theta that lies more than
        DEFAULT_EPS outside the box, naming it and the bound it passes; none
        for the full space."""
        if self.kind == "free":
            return []
        texts = []
        theta = np.asarray(theta, dtype=float).tolist()
        for i, (t, lo, hi) in enumerate(zip(theta, self.lo.tolist(), self.hi.tolist())):
            if t < lo - DEFAULT_EPS:
                texts.append("theta[%d] = %r lies more than %g below its lower bound %r"
                             % (i, t, DEFAULT_EPS, lo))
            elif t > hi + DEFAULT_EPS:
                texts.append("theta[%d] = %r lies more than %g above its upper bound %r"
                             % (i, t, DEFAULT_EPS, hi))
        return texts

    def normal_cone_distance(self, theta, u):
        """dist(u, N_Theta(theta)); the full space contributes N = {0}. A
        theta that is outside the box by more than DEFAULT_EPS (outside)
        has an empty normal cone, at distance inf."""
        theta = np.asarray(theta, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.kind == "free":
            return float(np.linalg.norm(u))
        if self.outside(theta):
            return float("inf")
        # A box: u_i counts unless it points out through a bound theta_i sits
        # on within DEFAULT_EPS.
        at_lo = theta <= self.lo + DEFAULT_EPS
        at_hi = theta >= self.hi - DEFAULT_EPS
        outside = ((u < 0) & ~at_lo) | ((u > 0) & ~at_hi)
        return float(np.linalg.norm(np.where(outside, np.abs(u), 0.0)))


# ---------------------------------------------------------------------------
# problems, models, certificates

class LowerModel:
    """Smooth lower-level objective c(z, theta, x) over a FeasibleSet.

    Applications implement cost, grad_z, hess_zz, hess_ztheta (shape d_z by
    d_theta) and grad_theta, all with theta flattened to one dimension.
    """

    feasible_set: FeasibleSet

    def cost(self, z, theta, x):
        raise NotImplementedError

    def cost_rows(self, Z, theta, X):
        """cost(z, theta, x) for each pair of rows z of Z and x of X."""
        return np.array([self.cost(z, theta, x) for z, x in zip(Z, X)], dtype=float)

    def grad_z(self, z, theta, x):
        raise NotImplementedError

    def hess_zz(self, z, theta, x):
        raise NotImplementedError

    def hess_ztheta(self, z, theta, x):
        raise NotImplementedError

    def grad_theta(self, z, theta, x):
        raise NotImplementedError


class UpperModel:
    """Gradients in z and theta of an upper-level loss L(z, x, y, theta).

    The verifiers read only these; each application computes its loss
    itself (portfolio.spo_loss, newsvendor.empirical_regret).
    """

    theta_set: ParameterSet

    def grad_z(self, z, x, y, theta):
        raise NotImplementedError

    def grad_theta(self, z, x, y, theta):
        raise NotImplementedError

    def grad_z_bounds(self, z, x, y, theta):
        """Bounds lo <= hi of the subdifferential of L in z, coordinatewise.

        A loss differentiable in z has the point interval lo = hi = grad_z;
        a loss with kinks overrides this, using DEFAULT_EPS to decide a kink.
        """
        g = np.asarray(self.grad_z(z, x, y, theta), dtype=float)
        return g, g


@dataclass
class ScenarioTerms:
    """The model terms of a certificate's stationarity system, one row per
    scenario.

    g is grad_z c and curvature hess_zz^T eta, (k, d_z) each; lo <= hi bound
    the subdifferential of the upper loss in z, (k, d_z) each; generators
    holds the upper-line terms grad_theta L + hess_ztheta^T eta, (k,
    d_theta). witness, when given, maps a key to a column of JSON values,
    one per scenario, that joins each scenario's report witness under that
    key.
    """

    g: np.ndarray
    curvature: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    generators: np.ndarray
    witness: dict = None


class Problem:
    """Finite-support problem bundle: a lower and an upper model and the
    scenarios as rows. Row n of x is scenario n's context, entry n of y its
    realized data (a number or a row) and weights[n] its weight; weights,
    shape (n,), are nonnegative and sum to one."""

    def __init__(self, lower, upper, x, y, weights):
        self.lower, self.upper = lower, upper
        if not len(weights):
            raise ValueError("at least one scenario is required")
        if len(x) != len(weights) or len(y) != len(weights):
            raise ValueError("x has %d rows, y %d entries and weights %d; each needs "
                             "one per scenario" % (len(x), len(y), len(weights)))
        x = np.asarray(x, dtype=float)
        self.x, self.y = x.reshape(len(x), -1), np.asarray(y, dtype=float)
        self.weights = finite_weights(weights, len(x))

    def scenario_terms(self, theta, certificate):
        """The ScenarioTerms of a certificate at theta.

        This default makes one model call per term and scenario. A problem
        whose models evaluate many scenarios at once overrides it, as both
        applications do (NewsvendorProblem, PortfolioProblem); the override
        must give the same rows, and the tests hold each one to this
        default bit for bit.
        """
        lower, upper = self.lower, self.upper
        rows = []
        for x, y, z, eta in zip(self.x, self.y, certificate.z, certificate.eta):
            lo, hi = upper.grad_z_bounds(z, x, y, theta)
            rows.append((lower.grad_z(z, theta, x),
                         np.asarray(lower.hess_zz(z, theta, x), dtype=float).T @ eta,
                         lo, hi, _upper_generator(lower, upper, theta, x, y, z, eta)))
        return ScenarioTerms(*(np.array(col, dtype=float).reshape(len(rows), -1)
                               for col in zip(*rows)))


_ABSENT = object()
_UNSET_TYPES = frozenset((type(None), object))     # the types of a null and of _ABSENT


def _scenario_column(parts, key, required=False):
    """The entry key of every certificate scenario in parts, a list of
    mappings, or None when the key is optional and no scenario holds it. A
    scenario without a required key raises ValueError naming the first; an
    optional key reads as None where it is left out, and an explicit null
    for it raises ValueError naming the first. Each scenario's entry is read
    once, with _ABSENT for a key left out."""
    if not (required or any(map(contains, parts, repeat(key)))):
        return None
    column = [part.get(key, _ABSENT) for part in parts]
    if not _UNSET_TYPES.isdisjoint(map(type, column)):
        for i, value in enumerate(column):
            if value is (_ABSENT if required else None):
                raise ValueError("certificate scenario %d: %s is null; leave the key out instead"
                                 % (i, key) if value is None else
                                 "certificate scenario %d is missing '%s'" % (i, key))
        column = [None if value is _ABSENT else value for value in column]
    return column


class Certificate:
    """A flattened finite parameter vector plus every scenario's claimed
    solution and multipliers, stacked by scenario.

    z, eta and zeta are (n, d) arrays. given[n] says whether scenario n
    supplies zeta; where it does not, row n of zeta is a copy of z that the
    verifier replaces by its own probe. mu and value_weights hold one entry
    per scenario, None where the scenario has none. theta may be a vector
    or a matrix, which is read in row-major order; more dimensions are a
    ValueError.

    Certificate(theta, scenarios) reads a list of JSON-style mappings, one
    per scenario, column by column (_scenario_column): the keys in required
    must be present, zeta, the penalty weight mu and the value_weights may
    be left out, and a null for an optional key is an error. z, eta and
    zeta are each one finite_rows call and must share one dimension; with
    number each entry is one number, and one scan (_scanned_rows) reads z,
    eta, zeta and mu together when it takes them all. mu is one number and
    value_weights a vector. Every error names its scenario. from_rows takes
    validated rows as they are.
    """

    def __init__(self, theta, scenarios, number=False, required=("z", "eta")):
        parts = object_list(scenarios, "certificate scenario")
        z, eta, zeta, mu, weights = (_scenario_column(parts, key, key in required)
                                     for key in ("z", "eta", "zeta", "mu", "value_weights"))
        if zeta is None:        # a missing zeta reads as z
            zeta, given = z, [False] * len(z)
        else:
            given = [v is not None or "zeta" in required for v in zeta]
            zeta = [v if g else zn for v, zn, g in zip(zeta, z, given)]
        name, n = "certificate scenario %d: ", len(z)
        mus = None if mu is None else [0.0 if v is None else v for v in mu]
        # With number, one scan reads z, eta, zeta and mu; where it refuses,
        # the column reads name the first bad scenario and key.
        scan = _scanned_rows(z + eta + zeta + (mus or []), True) if number else None
        if scan is None:
            z, eta, zeta = (finite_rows(column, name + key, number)
                            for key, column in (("z", z), ("eta", eta), ("zeta", zeta)))
        else:
            z, eta, zeta, mus = scan[:n], scan[n:2 * n], scan[2 * n:3 * n], scan[3 * n:]
        for key, block in (("eta", eta), ("zeta", zeta)):
            if block.shape[1] != z.shape[1]:
                raise ValueError(name % (given.index(True) if key == "zeta" else 0)
                                 + "%s has %d entries but z has %d"
                                 % (key, block.shape[1], z.shape[1]))
        if mu is not None:
            if scan is None:
                mus = finite_rows(mus, name + "mu", number=True)
            mu = [None if v is None else m for v, m in zip(mu, mus[:, 0].tolist())]
        if weights is not None:
            weights = [None if w is None else finite_vector(w, name % i + "value_weights",
                                                            scalar=True)
                       for i, w in enumerate(weights)]
        self._hold(theta, z, eta, zeta, np.array(given, dtype=bool), mu, weights)

    @classmethod
    def from_rows(cls, theta, z, eta, zeta, given, mu=None, value_weights=None):
        """A certificate from finite (n, d) rows z, eta and zeta, the (n,)
        boolean mask given, the penalty weights mu and the value_weights
        (each one entry or None per scenario, or None for none at all),
        taken without copying."""
        cert = cls.__new__(cls)
        cert._hold(theta, z, eta, zeta, given, mu, value_weights)
        return cert

    def _hold(self, theta, z, eta, zeta, given, mu, value_weights):
        self.theta = finite_vector(theta, "theta", flat=True)
        if np.ndim(theta) > 2:
            raise ValueError("theta must be a vector or a matrix; got shape %s"
                             % (np.shape(theta),))
        self.z, self.eta, self.zeta, self.given = z, eta, zeta, given
        self.mu = [None] * len(z) if mu is None else mu
        self.value_weights = [None] * len(z) if value_weights is None else value_weights

    @property
    def penalized(self):
        return any(mu is not None for mu in self.mu)


@dataclass
class ScenarioColumns:
    """The per-scenario fields of a report, one column per field: entry n of
    every column belongs to scenario n.

    Every field but witness and extra is a list of Python values, so editing
    an entry edits the report. witness is indexed like a list of witness
    dicts: it is one, or the OrthantRows or SimplexRows that decided the
    scenarios, whose columns the report writer reads directly. extra,
    when given, maps a key to a column of JSON values that joins every
    witness under that key.
    """

    lower_residual: list
    m_membership: list
    m_verdict: list
    m_residual: list
    complementarity_gap: list
    value_gap: list
    witness: object
    extra: dict = None

    def witness_of(self, n):
        """Scenario n's witness dict, extra entries included."""
        if not self.extra:
            return self.witness[n]
        return {**self.witness[n], **{key: col[n] for key, col in self.extra.items()}}


class ResidualReport:
    """Residuals of one stationarity system; `passed` is read off them.

    upper_residual is the distance of the upper line; columns holds the
    scenario fields as ScenarioColumns, the one place they live: `passed`
    and to_dict read them, so editing a column changes both.
    """

    def __init__(self, mode, tol, value_tol, upper_residual, columns, caveats=()):
        self.mode, self.tol, self.value_tol = mode, tol, value_tol
        self.upper_residual, self.caveats = upper_residual, list(caveats)
        self.columns = columns

    @property
    def passed(self):
        """Every residual clears tol, every membership holds and every
        certified value gap clears value_tol."""
        c = self.columns
        return self.upper_residual <= self.tol and all(
            low <= self.tol and member and m_res <= self.tol
            and (gap is None or gap <= self.value_tol)
            for low, member, m_res, gap in zip(c.lower_residual, c.m_membership,
                                               c.m_residual, c.value_gap))

    def summary(self):
        """to_dict without the scenario list."""
        return {
            "schema": "mstat/1",
            "mode": self.mode,
            "tol": self.tol,
            "value_tol": self.value_tol,
            "pass": self.passed,
            "upper_residual": self.upper_residual,
            "caveats": list(self.caveats),
        }

    def to_dict(self):
        c = self.columns
        return {**self.summary(), "scenarios": [
            {"index": n, "lower_residual": low, "m_membership": member,
             "m_verdict": verdict, "m_residual": m_res, "complementarity_gap": comp,
             "value_gap": gap, "witness": c.witness_of(n)}
            for n, (low, member, verdict, m_res, comp, gap) in enumerate(zip(
                c.lower_residual, c.m_membership, c.m_verdict, c.m_residual,
                c.complementarity_gap, c.value_gap))]}


# ---------------------------------------------------------------------------
# finite-difference check of the scenario terms

def difference_check(problem, certificate):
    """The worst relative error of each term that verify reads, against
    central differences at the certificate's own points: {term: (error,
    scenario)}.

    An entry's error is |value - difference| / max(1, |value|); a term's is
    the largest over its entries (a NaN counts as the largest), with the
    index of the scenario that holds it. Each difference has step _FD_STEP
    and is one stacked scenario_terms or cost_rows call over all scenarios:
      g           against cost_rows in each z coordinate;
      curvature   against (g(z + h eta) - g(z - h eta)) / 2h;
      generators  minus their value at eta = 0 (grad_theta L), which
                  leaves hess_ztheta^T eta, against <g, eta> in each theta
                  coordinate;
      grad_theta  the lower model's per-call grad_theta, which the penalized
                  upper line reads, against cost_rows in each theta
                  coordinate.
    The certificate must fit the problem as verify requires; a step that
    leaves the problem's domain raises ValueError naming theta and the step.
    """
    _validate_certificate(problem, certificate)
    theta, lower, X = certificate.theta, problem.lower, problem.x
    Z, E, h = certificate.z, certificate.eta, _FD_STEP

    def terms(t=theta, z=Z, eta=E):
        return problem.scenario_terms(t, Certificate.from_rows(
            theta, z, eta, certificate.zeta, certificate.given))

    def central(f, steps):
        """(f(s) - f(-s)) / 2h for each step s, one column each."""
        try:
            return np.stack([(f(s) - f(-s)) / (2 * h) for s in steps], axis=1)
        except ValueError as exc:
            raise ValueError("a difference step of %g from the certificate's theta %s "
                             "leaves the problem's domain: %s" % (h, theta.tolist(), exc)) from exc

    at, steps = terms(), h * np.eye(len(theta))
    grad_theta = [lower.grad_theta(z, theta, x) for z, x in zip(Z, X)]
    checks = {
        "g": (at.g, central(lambda s: lower.cost_rows(Z + s, theta, X), h * np.eye(Z.shape[1]))),
        "curvature": (at.curvature, (terms(z=Z + h * E).g - terms(z=Z - h * E).g) / (2 * h)),
        "generators": (at.generators - terms(eta=np.zeros_like(E)).generators,
                       central(lambda s: _row_dot(terms(t=theta + s).g, E), steps)),
        "grad_theta": (np.array(grad_theta, dtype=float).reshape(len(Z), -1),
                       central(lambda s: lower.cost_rows(Z, theta + s, X), steps)),
    }
    worst = {}
    for name, (value, difference) in checks.items():
        error = np.max(np.abs(value - difference) / np.maximum(1.0, np.abs(value)), axis=1)
        n = int(np.argmax(error))
        worst[name] = (float(error[n]), n)
    return worst


# ---------------------------------------------------------------------------
# per-scenario conditions

def lower_residual(model, theta, x, z):
    """dist(-grad_z c(z), N_Z(z)): zero exactly at lower-level stationary
    points. It is the one-row call of the scenario checks that verify runs,
    so it returns the float that verify reports, bit for bit, on every kind
    of set: the closed forms on the orthant and the simplex, the NNLS
    distance on any other polyhedron. An infeasible z raises
    InfeasiblePointError, naming the row it violates most."""
    g = np.asarray(model.grad_z(z, theta, x), dtype=float)
    z = np.asarray(z, dtype=float)
    feasible = model.feasible_set
    active_set(feasible.as_polyhedron(), z, DEFAULT_EPS)     # raises for an infeasible z
    return _scenario_checks(feasible, z[None], g[None])[0][0]


def _probe_and_gap(r_lo, r_hi, zeta, given):
    """The coderivative probe and the coordinatewise m-residual terms.

    r ranges over [r_lo, r_hi], the upper subgradient interval plus
    hess_zz^T eta (plus mu g in the penalized system). The probe is the
    certificate's zeta where given and elsewhere -r at the element of the
    interval nearest 0, which is -r itself for a point interval. The terms
    are max(r_lo + zeta, -(r_hi + zeta), 0), the distance of -zeta to the
    interval, which is |r + zeta| for a point interval.
    """
    probe = np.where(given, zeta, -np.minimum(np.maximum(r_lo, 0.0), r_hi))
    return probe, np.maximum(np.maximum(r_lo + probe, -(r_hi + probe)), 0.0)


def _m_residual(empty, member, gap_norm, given):
    """inf at a non-graph point (empty); the norm of the gap terms for a
    given zeta; without zeta 0 for a member and inf otherwise. Entrywise on
    arrays."""
    return np.where(empty, np.inf, np.where(given, gap_norm, np.where(member, 0.0, np.inf)))


def _upper_generator(lower, upper, theta, x, y, z, eta):
    """grad_theta L + hess_ztheta^T eta: one scenario's upper-line term."""
    return np.asarray(upper.grad_theta(z, x, y, theta), dtype=float) \
        + np.asarray(lower.hess_ztheta(z, theta, x), dtype=float).T @ eta


def nnamcq_check(model, theta, x, z):
    """No-nonzero-abnormal-multiplier constraint qualification at z.

    True when eta = 0 is the only solution of the homogeneous coderivative
    system 0 in H^T eta + D*N_Z(z, -g)(eta), with H = hess_zz and
    g = grad_z c. It is the constraint qualification of a convex lower
    level: H must have a positive definite symmetric part or be symmetric
    positive semidefinite, and any other H raises ValueError. A point
    (z, -g) off the graph raises NotGraphPointError.

    Proof. Every member (zeta, eta) of the coderivative has
    <zeta, eta> >= 0: by polyhedron_membership it passes at its maximal
    pair (E, P), so zeta = A_E^T nu + A_P^T mu with mu >= 0, A_E eta = 0
    and A_P eta > 0, and <zeta, eta> = mu^T A_P eta >= 0 (compare Poliquin
    and Rockafellar, SIAM J. Optim. 1998). A solution has zeta = -H^T eta,
    hence eta^T H eta <= 0.
      (1) If H + H^T is positive definite, eta = 0 and NNAMCQ holds.
      (2) If H is symmetric positive semidefinite, eta^T H eta = 0 puts eta
          in ker H = range N, so zeta = 0, which lies in every
          span(A_E) + cone(A_P). A nonzero eta = N c then solves the system
          iff -g has a multiplier carried by E(eta) = {i in I : a_i^T eta = 0},
          a condition monotone in E. If A_I N has a nonzero kernel, some
          eta has E(eta) = I, which carries the graph point's multiplier,
          and NNAMCQ fails. Otherwise the rows of A_I N span R^k,
          k = dim ker H. The rows vanishing at some c != 0 extend, by
          further rows, to k - 1 independent rows that still vanish at the
          direction c' they leave free, so E(N c) lies in E(N c'). One
          support LP per set of k - 1 independent rows therefore decides
          NNAMCQ; for k = 1 the only direction is N itself.
    Numerically, eigenvalues of the symmetric part up to
    STRICT_EPS * max(1, largest eigenvalue) count as zero, the same bound
    limits the asymmetry of a singular H, a row set is independent when
    its smallest singular value exceeds eps = DEFAULT_EPS, and E is read at
    a unit eta with |a_i^T eta| <= eps, as polyhedron_membership reads it.
    The row sets are exponential in k and refused beyond MAX_ACTIVE_ROWS
    active rows when k >= 2; the positive definite case and k = 1 have no cap.
    """
    eps = DEFAULT_EPS
    z = np.asarray(z, dtype=float)
    g = np.asarray(model.grad_z(z, theta, x), dtype=float)
    H = np.asarray(model.hess_zz(z, theta, x), dtype=float)
    poly = model.feasible_set.as_polyhedron()
    I = list(_graph_point(poly, z, g, eps)[3])
    if not cone_contains(-g, poly.A[I], eps=eps):
        raise NotGraphPointError(_NOT_NORMAL)
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    tol = STRICT_EPS * max(1.0, w[-1])
    if w[0] > tol:
        return True
    if w[0] < -tol or np.max(np.abs(H - H.T)) > tol:
        raise ValueError("NNAMCQ needs hess_zz symmetric positive semidefinite "
                         "or with a positive definite symmetric part")
    N = V[:, w <= tol]
    k = N.shape[1]
    rows = poly.A[I] @ N
    if len(I) < k or np.linalg.svd(rows, compute_uv=False)[-1] <= eps:
        return False
    if k >= 2 and len(I) > MAX_ACTIVE_ROWS:
        raise CombinatorialLimitError("%d active rows exceeds cap %d"
                                      % (len(I), MAX_ACTIVE_ROWS))
    for subset in combinations(range(len(I)), k - 1):
        _, s, Vt = np.linalg.svd(rows[list(subset)])
        if np.any(s <= eps):
            continue
        E = [i for i, slope in zip(I, rows @ Vt[-1]) if abs(slope) <= eps]
        if multiplier_within_support(poly, -g, E, eps) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# aggregate conditions and verification

def _upper_line(problem, theta, generators, penalties):
    """dist(-s, N_Theta(theta)) for s = sum_n w_n (generators[n] + penalties[n]),
    summed in scenario order."""
    if penalties is not None:
        generators = generators.copy()
        for n, p in enumerate(penalties):
            if p is not None:
                generators[n] = generators[n] + p
    s = np.add.accumulate(problem.weights[:, None] * generators, axis=0)[-1]
    return problem.upper.theta_set.normal_cone_distance(theta, -s)


def upper_residual(problem, certificate):
    """dist(-s, N_Theta(theta)) for the weighted upper-level gradient sum s."""
    theta = certificate.theta
    terms = problem.scenario_terms(theta, certificate)
    return _upper_line(problem, theta, terms.generators, None)


_INFEASIBLE = "infeasible scenario point"


def _scenario_checks(feasible, z, g):
    """Each scenario's (lower_residual, complementarity_gap), or None where
    its point is infeasible, for the (k, d) rows z and g on the set feasible.

    One stacked product gives every slack vector b - A z, each with the bits
    of poly.slacks. A row is infeasible where a slack is below -eps and
    active where |slack| <= eps, as active_rows reads them (its Python min
    could differ only at a NaN slack). The lower residual
    dist(-g, N_Z(z)) is the one fork: one _simplex_residual_rows pass on the
    simplex, one NNLS per row on any other polyhedron (_nnls_rows). Both
    also give the multiplier lam >= 0 on the active rows at which the
    residual is attained, and the gap is max_i |lam_i slack_i| at that
    multiplier where the residual is within feasibility_threshold(-g), None
    otherwise. The simplex satisfies LICQ at every feasible point, so its
    multiplier of -g, where one exists, is unique; on a polyhedron whose
    active rows are dependent, NNLS picks one of several. No LP runs.

    The orthant R_+^d needs no product: z is its slack vector, and the
    distance separates by coordinate, |g_i| where z_i > eps and max(0, -g_i)
    where z_i is at the bound. Its graph-point check already bounds
    |z_i g_i| by eps, so it reports no gap.
    """
    eps = DEFAULT_EPS
    poly = feasible.as_polyhedron()
    orthant = feasible.kind == "orthant"
    slack = z if orthant else poly.b - np.matmul(poly.A, z[:, :, None])[:, :, 0]
    rows = np.flatnonzero(~np.any(slack < -eps, axis=1))
    slack, target = slack[rows], -g[rows]
    if orthant:
        low_res = np.linalg.norm(np.where(slack > eps, np.abs(target),
                                          np.maximum(0.0, target)), axis=1)
        gaps = [None] * len(rows)
    else:
        active = np.abs(slack) <= eps
        if feasible.kind == "simplex":
            _, low_res, lam = _simplex_residual_rows(target, active)
        else:
            resid, lam = _nnls_rows(poly.A, target, active)
            low_res = _row_norms(resid)
        gap = np.max(np.abs(lam * slack), axis=1, initial=0.0).tolist()
        found = (low_res <= feasibility_threshold(target)).tolist()
        gaps = [v if f else None for v, f in zip(gap, found)]
    checks = [None] * len(z)
    for n, check in zip(rows.tolist(), zip(low_res.tolist(), gaps)):
        checks[n] = check
    return checks


def _nnls_rows(A, target, active):
    """Each row's residual A_I^T mu - t at the NNLS point
    mu = argmin_{mu >= 0} ||A_I^T mu - t|| over its active rows I, as
    cone_residual computes it, and mu spread to all m rows of A, 0 off I."""
    resid, lam = np.empty_like(target), np.zeros(active.shape)
    for n, (t, a) in enumerate(zip(target, active)):
        generators = A[a].T
        lam[n, a] = nnls(generators, t)
        resid[n] = generators @ lam[n, a] - t
    return resid, lam


_WITNESS_ROWS = {"orthant": _orthant_rows, "simplex": _simplex_rows}


def _route(feasible, z, g, probe, eta):
    """The scenarios' memberships, verdicts, witnesses, lower residuals and
    gaps, from one _scenario_checks call over the (k, d) rows.

    The orthant and the simplex decide every membership in one
    _orthant_rows or _simplex_rows pass, whose columns stay the witnesses;
    any other set calls polyhedron_membership per feasible scenario. An
    infeasible scenario reports an empty coderivative for that reason on
    every set, with lower residual inf and no gap.
    """
    checks = _scenario_checks(feasible, z, g)
    low_res, comp_gap = map(list, zip(*[check or (np.inf, None) for check in checks]))
    infeasible = [check is None for check in checks]
    witness_rows = _WITNESS_ROWS.get(feasible.kind)
    if witness_rows is not None:
        rows = witness_rows(z, g, probe, eta, DEFAULT_EPS)
        if any(infeasible):
            rows = rows.refuse(np.array(infeasible), _INFEASIBLE)
        return rows.member, rows.verdicts(), rows, low_res, comp_gap
    poly = feasible.as_polyhedron()
    members = [_empty(feasible.kind, _INFEASIBLE) if bad else
               polyhedron_membership(poly, GraphPoint(zn, gn), NormalPair(pn, en), DEFAULT_EPS)
               for bad, zn, gn, pn, en in zip(infeasible, z, g, probe, eta)]
    return (np.array([m.member for m in members]), [m.verdict for m in members],
            [m.witness for m in members], low_res, comp_gap)


def _row_norms(a):
    """np.linalg.norm of each row of a, bit for bit: matmul, like it, takes
    one BLAS dot per row, which np.linalg.norm(a, axis=1) does not."""
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _validate_certificate(problem, certificate):
    n = len(problem.weights)
    if len(certificate.z) != n:
        raise ValueError("certificate has %d scenarios, problem has %d"
                         % (len(certificate.z), n))
    d_theta = problem.upper.theta_set.dim
    if len(certificate.theta) != d_theta:
        raise ValueError("theta has %d entries, expected %d"
                         % (len(certificate.theta), d_theta))
    if certificate.z.shape[1] != problem.lower.feasible_set.dim:
        raise ValueError("scenario 0 has wrong dimensions")


def _require_bounded_terms(terms, r_lo, r_hi, probe):
    """Raise ValueError naming the first scenario whose terms, coderivative
    interval or probe hold an entry that is not finite or exceeds
    _TERM_BOUND in magnitude.

    The residuals square these entries and sum them; below the bound every
    such sum stays finite, beyond about 1e154 a single square overflows.
    """
    rows = np.hstack([terms.g, terms.curvature, terms.lo, terms.hi, terms.generators,
                      r_lo, r_hi, probe])
    ok = np.abs(rows).max(axis=1) <= _TERM_BOUND
    if not ok.all():
        raise ValueError("scenario %d: the certificate's terms are not finite or "
                         "exceed %g in magnitude" % (int(np.argmin(ok)), _TERM_BOUND))


def _verify(problem, certificate, mode, tol, mus, solver):
    """The one verifier body behind both systems.

    The scenario terms come from problem.scenario_terms. One _route call
    gives the memberships, verdicts, witnesses, lower residuals and gaps on
    any set, from which the m_residuals and the report's ScenarioColumns
    are built here.
    Activity and sign tests use DEFAULT_EPS and STRICT_EPS, and value gaps
    are held to DEFAULT_VALUE_TOL. The penalized system is the convex one
    plus, in each scenario, mu_n g_n on the coderivative line and
    mu_n (grad_theta c(z_n) - w_n) on the upper line, with the value gaps
    and the minimizer samples of w_n from one value_function call over the
    scenario rows. The convex system passes mus = None and no solver, which
    drops both terms and the value gaps.
    """
    theta, lower = certificate.theta, problem.lower
    terms = problem.scenario_terms(theta, certificate)
    z, eta, given = certificate.z, certificate.eta, certificate.given
    r_lo, r_hi = terms.lo + terms.curvature, terms.hi + terms.curvature
    if mus is not None:
        pull = np.array(mus)[:, None] * terms.g
        r_lo, r_hi = r_lo + pull, r_hi + pull
    probe, gap = _probe_and_gap(r_lo, r_hi, certificate.zeta, given[:, None])
    _require_bounded_terms(terms, r_lo, r_hi, probe)
    member, verdicts, witness, low_res, comp_gap = _route(lower.feasible_set, z, terms.g,
                                                         probe, eta)
    empty = np.array([v == "empty_coderivative" for v in verdicts])
    columns = ScenarioColumns(
        lower_residual=low_res, m_membership=member.tolist(), m_verdict=verdicts,
        m_residual=_m_residual(empty, member, _row_norms(gap), given).tolist(),
        complementarity_gap=comp_gap, value_gap=[None] * len(z), witness=witness,
        extra=terms.witness)
    penalties = [None] * len(z)
    caveats = problem.upper.theta_set.outside(theta)
    if solver is not None:
        found = value_function(lower, theta, problem.x, z, solver)
        for n, (x, mu, vf) in enumerate(zip(problem.x, mus, found)):
            columns.value_gap[n] = vf.gap
            if len(vf.argmin_points) > 1:
                caveats.append("scenario %d: lower solution sampled at %d points; "
                               "the sample may be incomplete" % (n, len(vf.argmin_points)))
            if mu > 0:
                sub = value_subdifferential(lower, theta, x, vf.argmin_points)
                weights = certificate.value_weights[n]
                try:
                    w_n = sub.generators[0] if weights is None else sub.combine(weights)
                except ValueError as exc:
                    raise ValueError("certificate scenario %d: %s" % (n, exc)) from None
                grad_t = np.asarray(lower.grad_theta(z[n], theta, x), dtype=float)
                penalties[n] = mu * (grad_t - w_n)
    upper = _upper_line(problem, theta, terms.generators, penalties)
    return ResidualReport(mode=mode, tol=tol, value_tol=DEFAULT_VALUE_TOL,
                          upper_residual=upper, columns=columns, caveats=caveats)


def verify_certificate(problem, certificate, tol=DEFAULT_TOL):
    """Verify the plain stationarity system; all residuals must clear tol."""
    _validate_certificate(problem, certificate)
    if certificate.penalized:
        raise ValueError("certificate carries penalty weights; use the penalized verifier")
    return _verify(problem, certificate, "convex", tol, None, None)


def verify_certificate_penalized(problem, certificate, tol=DEFAULT_TOL, solver=None):
    """Verify the penalized stationarity system.

    Penalty weights mu_n >= 0 are certificate data. The upper line gains
    mu_n (grad_theta c(z_n) - w_n) with w_n a convex combination of parameter
    gradients over the lower solution set; the scenario line gains
    mu_n grad_z c. Lower-level value gaps are certified against the optimal
    value whenever a solver is supplied, and a solver is mandatory as soon as
    some mu_n is positive. The solver answers rows, as value_function states:
    it is called once, with every scenario's row of problem.x.
    """
    _validate_certificate(problem, certificate)
    mus = [0.0 if mu is None else mu for mu in certificate.mu]
    for i, mu in enumerate(mus):
        if mu < 0:
            raise ValueError("negative penalty weight in scenario %d" % i)
    if any(mu > 0 for mu in mus) and solver is None:
        raise ValueError("positive penalty weights need a lower-level solver")
    return _verify(problem, certificate, "penalized", tol, mus, solver)


# ---------------------------------------------------------------------------
# lower-level value function calculus

@dataclass
class ValueFunctionResult:
    """One row's optimal value, its deduplicated sample of minimizers and
    the value gap c(z_n) - value of the row's point z_n."""

    value: float
    argmin_points: list
    gap: float


@dataclass
class ValueSubdifferential:
    """Clarke subdifferential sample of the lower optimal value in theta.

    Generators are parameter gradients at sampled minimizers; combine() forms
    a convex combination, which by Caratheodory never needs more than
    d_theta + 1 active weights.
    """

    generators: list
    dim_theta: int

    def combine(self, weights):
        """sum_i weights[i] generators[i]; weights that are not a convex
        combination of the generators are a ValueError naming value_weights."""
        w = np.asarray(weights, dtype=float)
        if len(w) != len(self.generators):
            raise ValueError("value_weights has %d entries for %d generators"
                             % (len(w), len(self.generators)))
        if np.min(w) < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("value_weights must be a convex combination (nonnegative, "
                             "sum 1); got sum %.17g" % w.sum())
        if int(np.sum(w > 1e-12)) > self.dim_theta + 1:
            raise ValueError("value_weights has more than d_theta + 1 = %d active entries"
                             % (self.dim_theta + 1))
        return sum(wi * gi for wi, gi in zip(w, self.generators))


def value_function(model, theta, X, Z, solver):
    """Optimal value, a deduplicated sample of minimizers and the value gap
    of each row x_n of X and z_n of Z, one ValueFunctionResult per row.

    The solver answers rows: solver(model, theta, X, Z) returns, for each
    row of X, a sequence of candidate points, and a row without one is a
    ValueError. Z is the solver's start only, and no answer may depend on
    it. One cost_rows call prices every candidate and every z_n. A row's
    value is the least of its candidates' costs (one np.minimum.reduceat
    over all rows; a min is exact). Everything within _ARGMIN_TOL of it is
    kept, once per point: strictly convex problems yield a singleton, flat
    directions however many distinct candidates the solver produced. The
    gap is c(z_n) - value, the float that cost_rows gives c(z_n) minus the
    value.
    """
    theta = np.asarray(theta, dtype=float)
    answers = list(solver(model, theta, X, Z))
    if len(answers) != len(X):
        raise ValueError("solver answered %d rows, expected %d" % (len(answers), len(X)))
    found = [[np.atleast_1d(np.asarray(p, dtype=float)) for p in points] for points in answers]
    counts = [len(points) for points in found]
    if 0 in counts:
        raise ValueError("solver returned no candidates for row %d" % counts.index(0))
    if not counts:
        return []
    xs = [x for x, count in zip(X, counts) for _ in range(count)]
    costs = model.cost_rows([p for points in found for p in points] + list(Z),
                            theta, xs + list(X))
    firsts = np.cumsum([0] + counts[:-1])
    best = np.minimum.reduceat(costs[:len(xs)], firsts)
    gaps = costs[len(xs):] - best
    out = []
    for points, first, value, gap in zip(found, firsts.tolist(), best.tolist(), gaps.tolist()):
        keep = points
        if len(points) > 1:
            keep = []
            for z, v in zip(points, costs[first:first + len(points)]):
                if v > value + _ARGMIN_TOL:
                    continue
                if any(np.max(np.abs(z - k)) <= _ARGMIN_TOL for k in keep):
                    continue
                keep.append(z)
        out.append(ValueFunctionResult(value=value, argmin_points=keep, gap=gap))
    return out


def value_subdifferential(model, theta, x, argmin_points):
    """Parameter gradients over the sampled solution set."""
    theta = np.asarray(theta, dtype=float)
    gens = [np.atleast_1d(np.asarray(model.grad_theta(z, theta, x), dtype=float))
            for z in argmin_points]
    if not gens:
        raise ValueError("empty solution sample")
    return ValueSubdifferential(generators=gens, dim_theta=len(theta))
