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

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .cones import (
    DEFAULT_EPS,
    MAX_ACTIVE_ROWS,
    CombinatorialLimitError,
    Polyhedron,
    active_rows,
    cone_distance,
    distance_to_normal_cone,
    multiplier_within_support,
    orthant_polyhedron,
    simplex_polyhedron,
)
from .graph_normals import (
    STRICT_EPS,
    finite_number,
    finite_vector,
    _orthant_rows,
    _simplex_rows,
    make_graph_context,
    membership_for_set,
)
from .lp import feasibility_threshold

__all__ = [
    "FeasibleSet", "ParameterSet", "Scenario", "Problem",
    "LowerModel", "UpperModel",
    "ScenarioCertificate", "Certificate", "ScenarioTerms",
    "ScenarioReport", "ResidualReport",
    "gradient_selftest", "lower_residual", "nnamcq_check", "upper_residual",
    "verify_certificate", "verify_certificate_penalized",
    "value_function", "value_subdifferential",
]

DEFAULT_TOL = 1e-8
DEFAULT_VALUE_TOL = 1e-6
_TERM_BOUND = 1e150


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
            p = np.maximum(y, 0.0)
            if p.sum() <= 1.0:
                return p
            u = np.sort(y)[::-1]
            css = np.cumsum(u) - 1.0
            rho = np.max(np.flatnonzero(u - css / np.arange(1, len(y) + 1) > 0))
            return np.maximum(y - css[rho] / (rho + 1.0), 0.0)
        raise NotImplementedError("no projection for general polyhedra")

    def contains(self, z, eps=DEFAULT_EPS):
        return self.as_polyhedron().contains(z, eps)

    def to_dict(self):
        if self.kind == "box":
            return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}
        if self.kind == "polyhedron":
            return {"kind": "polyhedron", **self.poly.to_dict()}
        return {"kind": self.kind, "dim": self.dim}


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

    def normal_cone_distance(self, theta, u, eps=DEFAULT_EPS):
        """dist(u, N_Theta(theta)); the full space contributes N = {0}."""
        theta = np.asarray(theta, dtype=float)
        u = np.asarray(u, dtype=float)
        if self.kind == "free":
            return float(np.linalg.norm(u))
        # A box: u_i counts unless it points out through a bound theta_i sits on.
        at_lo = theta <= self.lo + eps
        at_hi = theta >= self.hi - eps
        outside = ((u < 0) & ~at_lo) | ((u > 0) & ~at_hi)
        return float(np.linalg.norm(np.where(outside, np.abs(u), 0.0)))


# ---------------------------------------------------------------------------
# problems, models, certificates

@dataclass(frozen=True)
class Scenario:
    """One atom of the finite support: context x, realized data y, weight."""

    x: np.ndarray
    y: object
    weight: float

    def __init__(self, x, y, weight):
        x = np.asarray(x, dtype=float)
        object.__setattr__(self, "x", x.reshape(1) if x.ndim == 0 else x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weight", float(weight))


class LowerModel:
    """Smooth lower-level objective c(z, theta, x) over a FeasibleSet.

    Applications implement cost, grad_z, hess_zz, hess_ztheta (shape d_z by
    d_theta) and grad_theta, all with theta flattened to one dimension.
    """

    feasible_set: FeasibleSet

    def cost(self, z, theta, x):
        raise NotImplementedError

    def grad_z(self, z, theta, x):
        raise NotImplementedError

    def hess_zz(self, z, theta, x):
        raise NotImplementedError

    def hess_ztheta(self, z, theta, x):
        raise NotImplementedError

    def grad_theta(self, z, theta, x):
        raise NotImplementedError


class UpperModel:
    """Upper-level loss L(z, x, y, theta) with gradients in z and theta."""

    theta_set: ParameterSet

    def loss(self, z, x, y, theta):
        raise NotImplementedError

    def grad_z(self, z, x, y, theta):
        raise NotImplementedError

    def grad_theta(self, z, x, y, theta):
        raise NotImplementedError

    def grad_z_bounds(self, z, x, y, theta, eps):
        """Bounds lo <= hi of the subdifferential of L in z, coordinatewise.

        A loss differentiable in z has the point interval lo = hi = grad_z;
        a loss with kinks overrides this, using eps to decide a kink.
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
    d_theta). witness, when given, holds one dict per scenario that joins
    that scenario's report witness.
    """

    g: np.ndarray
    curvature: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    generators: np.ndarray
    witness: list = None


@dataclass
class Problem:
    """Finite-support problem bundle; scenario weights must sum to one."""

    lower: LowerModel
    upper: UpperModel
    scenarios: list

    def __post_init__(self):
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        w = np.array([s.weight for s in self.scenarios], dtype=float)
        if np.min(w) < 0:
            raise ValueError("negative scenario weight")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("scenario weights must sum to 1 (got %.17g)" % w.sum())

    def scenario_terms(self, theta, certificate, eps=DEFAULT_EPS):
        """The ScenarioTerms of a certificate at theta.

        This default makes one model call per term and scenario. A problem
        whose models evaluate many scenarios at once overrides it; the
        override must give the same rows.
        """
        lower, upper = self.lower, self.upper
        rows = []
        for scen, cert in zip(self.scenarios, certificate.scenarios):
            z, x, y = cert.z, scen.x, scen.y
            lo, hi = upper.grad_z_bounds(z, x, y, theta, eps)
            rows.append((lower.grad_z(z, theta, x),
                         np.asarray(lower.hess_zz(z, theta, x), dtype=float).T @ cert.eta,
                         lo, hi, _upper_generator(lower, upper, theta, x, y, z, cert.eta)))
        return ScenarioTerms(*(np.array(col, dtype=float).reshape(len(rows), -1)
                               for col in zip(*rows)))


@dataclass
class ScenarioCertificate:
    """Claimed per-scenario solution and multipliers.

    zeta is optional (without it the verifier probes -r itself), mu is the
    penalty weight of the penalized system and value_weights combine the
    value-function generators. The coderivative membership is decided
    exactly from (z, eta, zeta), so a certificate carries no row-split
    witness. Every entry must be finite; vectors may be given as scalars.
    """

    z: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray = None
    mu: float = None
    value_weights: np.ndarray = None

    def __post_init__(self):
        self.z = finite_vector(self.z, "z", scalar=True)
        self.eta = finite_vector(self.eta, "eta", scalar=True)
        if self.zeta is not None:
            self.zeta = finite_vector(self.zeta, "zeta", scalar=True)
        if self.mu is not None:
            self.mu = finite_number(self.mu, "mu")
        if self.value_weights is not None:
            self.value_weights = finite_vector(self.value_weights, "value_weights",
                                               scalar=True)


@dataclass
class Certificate:
    """Flattened finite parameter vector plus one ScenarioCertificate per scenario."""

    theta: np.ndarray
    scenarios: list

    def __post_init__(self):
        self.theta = finite_vector(self.theta, "theta", flat=True)

    @property
    def penalized(self):
        return any(s.mu is not None for s in self.scenarios)


@dataclass
class ScenarioReport:
    index: int
    lower_residual: float
    m_membership: bool
    m_verdict: str
    m_residual: float
    complementarity_gap: float = None
    value_gap: float = None
    witness: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "index": self.index,
            "lower_residual": self.lower_residual,
            "m_membership": self.m_membership,
            "m_verdict": self.m_verdict,
            "m_residual": self.m_residual,
            "complementarity_gap": self.complementarity_gap,
            "value_gap": self.value_gap,
            "witness": self.witness,
        }


@dataclass
class ResidualReport:
    """Residuals of one stationarity system; `passed` is read off them."""

    mode: str
    tol: float
    value_tol: float
    upper_residual: float
    scenarios: list
    caveats: list = field(default_factory=list)

    @property
    def passed(self):
        """Every residual clears tol, every membership holds and every
        certified value gap clears value_tol."""
        return self.upper_residual <= self.tol and all(
            r.lower_residual <= self.tol and r.m_membership and r.m_residual <= self.tol
            and (r.value_gap is None or r.value_gap <= self.value_tol)
            for r in self.scenarios)

    def to_dict(self):
        return {
            "schema": "mstat/1",
            "mode": self.mode,
            "tol": self.tol,
            "value_tol": self.value_tol,
            "pass": self.passed,
            "upper_residual": self.upper_residual,
            "scenarios": [s.to_dict() for s in self.scenarios],
            "caveats": list(self.caveats),
        }


# ---------------------------------------------------------------------------
# gradient self-test

def gradient_selftest(model, theta, x, points, h=1e-6, rtol=1e-5):
    """Compare grad_z of a LowerModel against central differences of cost.

    Returns the worst relative error over the supplied points; raises if it
    exceeds rtol. Keeps model implementations honest before any verification.
    """
    theta = np.asarray(theta, dtype=float)
    worst = 0.0
    for z in points:
        z = np.asarray(z, dtype=float)
        grad = np.asarray(model.grad_z(z, theta, x), dtype=float)
        fd = np.empty_like(grad)
        for i in range(len(z)):
            e = np.zeros_like(z)
            e[i] = h
            fd[i] = (model.cost(z + e, theta, x) - model.cost(z - e, theta, x)) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, float(np.linalg.norm(grad - fd)) / scale)
    if worst > rtol:
        raise ValueError("grad_z disagrees with finite differences: %.3g" % worst)
    return worst


# ---------------------------------------------------------------------------
# per-scenario conditions

def lower_residual(model, theta, x, z, eps=DEFAULT_EPS):
    """dist(-grad_z c(z), N_Z(z)): zero exactly at lower-level stationary points."""
    g = np.asarray(model.grad_z(z, theta, x), dtype=float)
    poly = model.feasible_set.as_polyhedron()
    return distance_to_normal_cone(poly, np.asarray(z, dtype=float), -g, eps)


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


def _m_residual(res, gap_norm, given):
    """inf at a non-graph point; the norm of the gap terms for a given zeta;
    without zeta 0 for a member and inf otherwise."""
    if res.verdict == "empty_coderivative":
        return float("inf")
    if given:
        return gap_norm
    return 0.0 if res.member else float("inf")


def _upper_generator(lower, upper, theta, x, y, z, eta):
    """grad_theta L + hess_ztheta^T eta: one scenario's upper-line term."""
    return np.asarray(upper.grad_theta(z, x, y, theta), dtype=float) \
        + np.asarray(lower.hess_ztheta(z, theta, x), dtype=float).T @ eta


def nnamcq_check(model, theta, x, z, eps=DEFAULT_EPS):
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
    its smallest singular value exceeds eps, and E is read at a unit eta
    with |a_i^T eta| <= eps, as polyhedron_membership reads it. The row sets
    are exponential in k and refused beyond MAX_ACTIVE_ROWS active rows
    when k >= 2; the positive definite case and k = 1 have no cap.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(model.grad_z(z, theta, x), dtype=float)
    H = np.asarray(model.hess_zz(z, theta, x), dtype=float)
    poly = model.feasible_set.as_polyhedron()
    I = list(make_graph_context(poly, z, g, eps).active)
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
        if multiplier_within_support(poly, z, -g, E, eps) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# aggregate conditions and verification

def _upper_line(problem, theta, generators, penalties, eps):
    """dist(-s, N_Theta(theta)) for s = sum_n w_n (generators[n] + penalties[n]),
    summed in scenario order."""
    if penalties is not None:
        generators = generators.copy()
        for n, p in enumerate(penalties):
            if p is not None:
                generators[n] = generators[n] + p
    weights = np.array([scen.weight for scen in problem.scenarios])
    s = np.add.accumulate(weights[:, None] * generators, axis=0)[-1]
    return problem.upper.theta_set.normal_cone_distance(theta, -s, eps)


def upper_residual(problem, certificate, eps=DEFAULT_EPS, penalties=None):
    """dist(-s, N_Theta(theta)) for the weighted upper-level gradient sum s.

    penalties[n], when given and not None, is added to the term of scenario
    n; the penalized system puts mu_n (grad_theta c(z_n) - w_n) there.
    """
    theta = certificate.theta
    terms = problem.scenario_terms(theta, certificate, eps)
    return _upper_line(problem, theta, terms.generators, penalties, eps)


def _infeasible_report(index):
    return ScenarioReport(index=index, lower_residual=float("inf"),
                          m_membership=False, m_verdict="empty_coderivative",
                          m_residual=float("inf"),
                          witness={"reason": "infeasible scenario point"})


def _check_scenario(poly, index, z, g, gap, given, res, eps):
    """One scenario's report by the general route: the lower residual by
    NNLS, the complementarity gap by LP and the membership res the caller
    decided by the set's predicate.

    One slack vector b - A z gives the feasibility test, the active set and
    the gap max |lam_i slack_i|. Both the residual and the multiplier use
    that active set. The LP is skipped when the residual exceeds twice its
    feasibility threshold: its phase-1 optimum is an L1 residual, at least
    the NNLS distance, so it would find no multiplier. With no active row
    there is no LP to skip.
    """
    target = -g
    slack = poly.slacks(z)
    try:
        I = active_rows(poly, slack, eps)
        low_res = cone_distance(target, poly.A[list(I)])
    except ValueError:
        return _infeasible_report(index)
    comp_gap = None
    if not I or low_res <= 2.0 * feasibility_threshold(target):
        lam = multiplier_within_support(poly, z, target, I, eps)
        if lam is not None:
            comp_gap = float(np.max(np.abs(lam * slack), initial=0.0))
    return ScenarioReport(index=index, lower_residual=low_res,
                          m_membership=res.member, m_verdict=res.verdict,
                          m_residual=_m_residual(res, float(np.linalg.norm(gap)), given),
                          complementarity_gap=comp_gap, witness=res.witness)


def _orthant_reports(z, g, probe, eta, gap, given, eps, strict_eps):
    """Every scenario's report on Z = R_+^d from one pass over (k, d) rows.

    dist(-g, N_Z(z)) separates by coordinate: |g_i| where z_i > eps and
    max(0, -g_i) where z_i is at the bound. The memberships come from one
    _orthant_rows call. The graph-point check already bounds |z_i g_i| by
    eps, so no complementarity gap is reported.
    """
    members = _orthant_rows(z, g, probe, eta, eps, strict_eps)
    low_res = np.linalg.norm(np.where(z > eps, np.abs(g), np.maximum(0.0, -g)), axis=1)
    reports = []
    for n, (res, low, gap_norm, bad, has) in enumerate(zip(
            members, low_res.tolist(), np.linalg.norm(gap, axis=1).tolist(),
            (z < -eps).any(axis=1).tolist(), given)):
        reports.append(_infeasible_report(n) if bad else ScenarioReport(
            index=n, lower_residual=low, m_membership=res.member, m_verdict=res.verdict,
            m_residual=_m_residual(res, gap_norm, has), witness=res.witness))
    return reports


def _validate_certificate(problem, certificate):
    if len(problem.scenarios) != len(certificate.scenarios):
        raise ValueError("certificate has %d scenarios, problem has %d"
                         % (len(certificate.scenarios), len(problem.scenarios)))
    d_theta = problem.upper.theta_set.dim
    if len(certificate.theta) != d_theta:
        raise ValueError("theta has %d entries, expected %d"
                         % (len(certificate.theta), d_theta))
    d = problem.lower.feasible_set.dim
    for i, cert in enumerate(certificate.scenarios):
        if len(cert.z) != d or len(cert.eta) != d:
            raise ValueError("scenario %d has wrong dimensions" % i)
        if cert.zeta is not None and len(cert.zeta) != d:
            raise ValueError("scenario %d zeta has wrong dimension" % i)


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

    The scenario terms come from problem.scenario_terms. An orthant decides
    every scenario in one array pass; the simplex and general polyhedra go
    scenario by scenario. Activity and sign tests use DEFAULT_EPS and
    STRICT_EPS, and value gaps are held to DEFAULT_VALUE_TOL. The penalized system is the convex one plus, in
    each scenario, mu_n g_n on the coderivative line and
    mu_n (grad_theta c(z_n) - w_n) on the upper line. The convex system
    passes mus = None and no solver, which drops both terms and the value
    gaps.
    """
    theta, lower = certificate.theta, problem.lower
    certs = certificate.scenarios
    eps, strict_eps = DEFAULT_EPS, STRICT_EPS
    terms = problem.scenario_terms(theta, certificate, eps)
    z = np.array([c.z for c in certs])
    eta = np.array([c.eta for c in certs])
    given = np.array([c.zeta is not None for c in certs])
    # A scenario without zeta gets a placeholder row that the probe replaces.
    zeta = np.array([c.zeta if c.zeta is not None else c.z for c in certs])
    r_lo, r_hi = terms.lo + terms.curvature, terms.hi + terms.curvature
    if mus is not None:
        pull = np.array(mus)[:, None] * terms.g
        r_lo, r_hi = r_lo + pull, r_hi + pull
    probe, gap = _probe_and_gap(r_lo, r_hi, zeta, given[:, None])
    _require_bounded_terms(terms, r_lo, r_hi, probe)
    feasible = lower.feasible_set
    if feasible.kind == "orthant":
        reports = _orthant_reports(z, terms.g, probe, eta, gap, given.tolist(),
                                   eps, strict_eps)
    else:
        if feasible.kind == "simplex":
            members = _simplex_rows(z, terms.g, probe, eta, eps, strict_eps)
        else:
            members = [membership_for_set(feasible, *row, eps)
                       for row in zip(z, terms.g, probe, eta)]
        poly = feasible.as_polyhedron()
        reports = [_check_scenario(poly, n, *row, eps)
                   for n, row in enumerate(zip(z, terms.g, gap, given, members))]
    if terms.witness is not None:
        for rep, extra in zip(reports, terms.witness):
            rep.witness = {**rep.witness, **extra}
    penalties = [None] * len(reports)
    caveats = []
    if solver is not None:
        for scen, cert, mu, rep in zip(problem.scenarios, certs, mus, reports):
            vf = value_function(lower, theta, scen.x, solver)
            rep.value_gap = float(lower.cost(cert.z, theta, scen.x) - vf.value)
            if len(vf.argmin_points) > 1:
                caveats.append("scenario %d: lower solution sampled at %d points; "
                               "the sample may be incomplete"
                               % (rep.index, len(vf.argmin_points)))
            if mu > 0:
                sub = value_subdifferential(lower, theta, scen.x, vf.argmin_points)
                if cert.value_weights is not None:
                    w_n = sub.combine(cert.value_weights)
                else:
                    w_n = sub.generators[0]
                grad_t = np.asarray(lower.grad_theta(cert.z, theta, scen.x), dtype=float)
                penalties[rep.index] = mu * (grad_t - w_n)
    upper = _upper_line(problem, theta, terms.generators, penalties, eps)
    return ResidualReport(mode=mode, tol=tol, value_tol=DEFAULT_VALUE_TOL,
                          upper_residual=upper, scenarios=reports, caveats=caveats)


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
    some mu_n is positive.
    """
    _validate_certificate(problem, certificate)
    mus = [0.0 if cert.mu is None else cert.mu for cert in certificate.scenarios]
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
    value: float
    argmin_points: list


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
        w = np.asarray(weights, dtype=float)
        if len(w) != len(self.generators):
            raise ValueError("need one weight per generator")
        if np.min(w) < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a convex combination")
        if int(np.sum(w > 1e-12)) > self.dim_theta + 1:
            raise ValueError("more than d_theta + 1 active weights")
        return sum(wi * gi for wi, gi in zip(w, self.generators))


def value_function(model, theta, x, solver, value_tol=1e-9, point_tol=1e-9):
    """Optimal value and a deduplicated sample of minimizers.

    The solver supplies candidate points; everything within value_tol of the
    best candidate is kept. Strictly convex problems yield a singleton, flat
    directions yield however many distinct candidates the solver produced.
    """
    theta = np.asarray(theta, dtype=float)
    candidates = [np.atleast_1d(np.asarray(z, dtype=float)) for z in solver(model, theta, x)]
    if not candidates:
        raise ValueError("solver returned no candidates")
    values = np.array([model.cost(z, theta, x) for z in candidates])
    best = float(np.min(values))
    keep = []
    for z, v in zip(candidates, values):
        if v > best + value_tol:
            continue
        if any(np.max(np.abs(z - k)) <= point_tol for k in keep):
            continue
        keep.append(z)
    return ValueFunctionResult(value=best, argmin_points=keep)


def value_subdifferential(model, theta, x, argmin_points):
    """Parameter gradients over the sampled solution set."""
    theta = np.asarray(theta, dtype=float)
    gens = [np.atleast_1d(np.asarray(model.grad_theta(z, theta, x), dtype=float))
            for z in argmin_points]
    if not gens:
        raise ValueError("empty solution sample")
    return ValueSubdifferential(generators=gens, dim_theta=len(theta))
