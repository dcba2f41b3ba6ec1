"""Command line front end: cone queries, coderivative membership, certificate
verification, application pipelines, synthetic data and gradient self-checks.

Exit codes: 0 success or verification pass, 2 verification fail, 1 usage,
input or numeric error. All emitted JSON carries schema tag "mstat/1" and is
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import cones as C
from . import graph_normals as GN
from . import lp as LP
from . import newsvendor as NV
from . import portfolio as PF
from . import stationarity as ST

SCHEMA = "mstat/1"


class CliError(Exception):
    """Usage or input error; maps to exit code 1."""


def _load_json(path, what, kind=dict):
    """The JSON value of a file, which must be of type kind: an object
    unless the caller says otherwise. Anything else is a CliError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise CliError("malformed JSON in %s: line %d column %d: %s"
                       % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(data, kind):
        raise CliError("%s must be %s" % (what, "an object" if kind is dict else "an array"))
    return data


def _load_certificate(path):
    """A certificate file: a JSON object whose "scenarios" are objects."""
    data = _load_json(path, "certificate")
    GN.object_list(data.get("scenarios", []), "certificate scenario")
    return data


_ENCODE_STR = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANT = {True: "true", False: "false", None: "null"}
_STR, _INT, _FLOAT = {str}, {int}, {float}


def _json_text(obj, indent="\n"):
    """The text of json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    With indent set, the stdlib drops from its C encoder to a pure-Python one
    that yields one token at a time. This joins each container's parts in one
    str.join, formats the scalar values of a dict in place, and formats a
    list of exact ints or of finite exact floats with one map. Anything else
    (subclasses such as np.float64, non-string keys, unknown types) goes to
    json.dumps with its lines re-indented, so the stdlib stays the definition
    of the format and of its TypeError; a JSON string never holds a raw
    newline. indent is a newline followed by the indentation of obj's line.
    """
    t = type(obj)
    inner = indent + "  "
    if t is dict and obj and set(map(type, obj)) == _STR:
        parts = []
        for k in sorted(obj):
            v = obj[k]
            vt = type(v)
            if vt is float:
                text = float.__repr__(v)
                text = _NON_FINITE.get(text, text)
            elif vt is str:
                text = _ENCODE_STR(v)
            elif vt is bool or v is None:
                text = _CONSTANT[v]
            elif vt is int:
                text = int.__repr__(v)
            elif not v and (vt is list or vt is dict):
                text = "[]" if vt is list else "{}"
            else:
                text = _json_text(v, inner)
            parts.append(_ENCODE_STR(k) + ": " + text)
        return "{%s%s%s}" % (inner, ("," + inner).join(parts), indent)
    if (t is list or t is tuple) and obj:
        sep = "," + inner
        kinds = set(map(type, obj))
        body = None
        if kinds == _INT:
            body = sep.join(map(int.__repr__, obj))
        elif kinds == _FLOAT:
            body = sep.join(map(float.__repr__, obj))
            if "n" in body:  # nan or inf, which JSON spells differently
                body = None
        if body is None:
            body = sep.join([_json_text(v, inner) for v in obj])
        return "[%s%s%s]" % (inner, body, indent)
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", indent)


def _write_json(obj, path, to_stdout):
    """Write obj as indent-2 JSON with a final newline to path, if given,
    and to standard output if asked."""
    text = _json_text(obj)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    if to_stdout:
        print(text)


def _dump(obj, args):
    if args.report or args.format == "json":
        _write_json(obj, args.report, args.format == "json")
    return obj


def _finite_array(value, name):
    """value as a float array of any shape whose entries are finite numbers;
    booleans, strings, objects and ragged nesting are a CliError."""
    try:
        return GN.finite_vector(value, name, flat=True).reshape(np.shape(value))
    except ValueError:
        raise CliError("%s must be an array of finite numbers" % name)


def _feasible_from_spec(spec, dim):
    if spec == "orthant":
        return ST.FeasibleSet.orthant(dim)
    if spec == "simplex":
        return ST.FeasibleSet.simplex(dim)
    if isinstance(spec, dict):
        poly = C.Polyhedron(_finite_array(spec["A"], "A"), _finite_array(spec["b"], "b"))
        if poly.dim != dim:
            raise CliError("A has %d columns but z has %d entries" % (poly.dim, dim))
        return ST.FeasibleSet.polyhedron(poly)
    raise CliError("unrecognized feasible set: %r" % (spec,))


def _cone_from_query(q, cls, keys):
    """The "cone" of a query: an object whose matrices (keys) are lists of
    rows of finite numbers, read as cls."""
    spec = q.get("cone")
    if not isinstance(spec, dict):
        raise CliError('"cone" must be an object')
    for key in keys:
        rows = spec.get(key)
        if rows is not None and rows != [] and _finite_array(rows, key).ndim != 2:
            raise CliError("%s must be a list of rows" % key)
    return cls.from_dict(spec)


def _row_indices(q, key):
    """q[key] (default []) as a list of integer row indices, booleans excluded."""
    rows = q.get(key, [])
    if type(rows) is not list or any(type(i) is not int for i in rows):
        raise CliError("%s must be a list of integer row indices" % key)
    return rows


# ---------------------------------------------------------------------------
# subcommands

def cmd_cones(args):
    q = _load_json(args.input, "query")
    op = q.get("op")
    eps = GN.finite_number(q.get("eps", args.tol if args.tol is not None else C.DEFAULT_EPS),
                           "eps")
    if eps <= 0:
        raise CliError("eps must be positive")
    out = {"schema": SCHEMA, "op": op}
    if op in ("active-set", "tangent", "normal-multiplier", "critical", "face-difference"):
        z = GN.finite_vector(q["z"], "z")
        fs = _feasible_from_spec(q["Z"], len(z))
        poly = fs.as_polyhedron()
        if op == "active-set":
            out["active"] = list(C.active_set(poly, z, eps))
            out["near_threshold"] = list(C.active_diagnostics(poly, z, eps))
        elif op == "tangent":
            out["cone"] = C.tangent_cone(poly, z, eps).to_dict()
        elif op == "normal-multiplier":
            dec = C.normal_cone_multiplier(poly, z, GN.finite_vector(q["v"], "v"), eps)
            if dec is None:
                out["member"] = False
            else:
                out.update({"member": True, "lambda": dec.lam.tolist(),
                            "I_plus": list(dec.I_plus), "I_zero": list(dec.I_zero)})
        elif op == "critical":
            out["cone"] = C.critical_cone(poly, z, GN.finite_vector(q["v"], "v"), eps).to_dict()
        else:
            cone = C.face_difference(poly, z, GN.finite_vector(q["v"], "v"),
                                     _row_indices(q, "J1"), _row_indices(q, "J2"), eps=eps)
            out["cone"] = cone.to_dict()
    elif op == "polar":
        out["cone"] = C.polar_cone(_cone_from_query(q, C.ConeRepH, ("E", "G"))).to_dict()
    elif op == "faces":
        faces = C.faces_of_cone(_cone_from_query(q, C.ConeRepH, ("E", "G")), eps)
        out["faces"] = [{"J": list(f.J), **f.cone.to_dict()} for f in faces]
    elif op == "member-h":
        out["member"] = C.member_h(_cone_from_query(q, C.ConeRepH, ("E", "G")),
                                   GN.finite_vector(q["d"], "d"), eps)
    elif op == "member-v":
        out["member"] = C.member_v(_cone_from_query(q, C.ConeRepV, ("R", "L")),
                                   GN.finite_vector(q["w"], "w"), eps)
    else:
        raise CliError("unknown cones op: %r" % op)
    _dump(out, args)
    if args.format == "text":
        print(json.dumps(out, sort_keys=True))
    return 0


def cmd_gph_normal(args):
    q = _load_json(args.input, "query")
    gp = GN.GraphPoint(q["z"], q["g"])
    pair = GN.NormalPair(q["zeta"], q["eta"])
    if pair.zeta.shape != gp.z.shape:
        raise CliError("zeta and eta must have the dimension of z")
    eps = args.tol if args.tol is not None else C.DEFAULT_EPS
    spec = q["Z"]
    method = args.method
    if method == "auto":
        method = "explicit" if spec in ("orthant", "simplex") else "direct"
    if method == "explicit":
        if spec == "orthant":
            res = GN.orthant_membership(gp.z, gp.g, pair, eps)
        elif spec == "simplex":
            res = GN.simplex_membership(gp.z, gp.g, pair, eps)
        else:
            raise CliError("explicit method needs Z = orthant or simplex")
    else:
        poly = _feasible_from_spec(spec, len(gp.z)).as_polyhedron()
        res = GN.polyhedron_membership(poly, gp, pair, eps)
    out = {"schema": SCHEMA, "member": bool(res.member), "verdict": res.verdict,
           "method": method, "witness": _jsonable(res.witness)}
    _dump(out, args)
    if args.format == "text":
        print("member" if res.member else "not a member (%s)" % res.verdict)
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _portfolio_from_json(data):
    try:
        return PF.PortfolioInstance.from_dict(data)
    except (KeyError, ValueError) as exc:
        raise CliError("bad portfolio problem: %s" % exc)


def _newsvendor_from_json(data):
    try:
        return NV.NewsvendorInstance.from_dict(data)
    except (KeyError, ValueError) as exc:
        raise CliError("bad newsvendor problem: %s" % exc)


def _portfolio_certificate(data):
    scen = []
    for i, s in enumerate(data.get("scenarios", [])):
        try:
            scen.append(ST.ScenarioCertificate(
                z=s["z"], eta=s["eta"], zeta=s.get("zeta"),
                mu=s.get("mu"), value_weights=s.get("value_weights")))
        except KeyError as exc:
            raise CliError("certificate scenario %d is missing %s" % (i, exc))
    return ST.Certificate(theta=data["theta"], scenarios=scen)


def cmd_verify(args):
    problem = _load_json(args.problem, "problem")
    cert_data = _load_certificate(args.certificate)
    tol = args.tol if args.tol is not None else ST.DEFAULT_TOL
    kind = problem.get("type")
    if kind == "spo_portfolio":
        app, inst = PF, _portfolio_from_json(problem)
        cert = _portfolio_certificate(cert_data)
    elif kind == "newsvendor_kernel":
        app, inst = NV, _newsvendor_from_json(problem)
        cert = NV.newsvendor_certificate(cert_data["theta"], cert_data["scenarios"])
    else:
        raise CliError("unknown problem type: %r" % kind)
    prob = app.as_problem(inst)
    if args.mode == "penalized":
        report = ST.verify_certificate_penalized(prob, cert, tol=tol,
                                                 solver=app.lower_solver(inst))
    else:
        report = ST.verify_certificate(prob, cert, tol=tol)
    out = report.to_dict()
    _dump(out, args)
    if args.format == "text":
        print("verdict: %s (upper residual %.3g)"
              % ("PASS" if report.passed else "FAIL", report.upper_residual))
        for s in report.scenarios:
            print("  scenario %d: lower %.3g, member %s, residual %.3g"
                  % (s.index, s.lower_residual, s.m_membership, s.m_residual))
    return 0 if report.passed else 2


def cmd_spo_portfolio(args):
    problem = _load_json(args.problem, "problem")
    inst = _portfolio_from_json(problem)
    if args.samples_csv:
        samples = PF.read_samples_csv(args.samples_csv, inst.d_x, inst.d_z)
        inst = PF.PortfolioInstance(sigma=inst.sigma, risk_aversion=inst.risk_aversion,
                                    samples=samples)
    out = {"schema": SCHEMA, "action": args.action}
    if args.action in ("loss", "solve", "certificate") and args.theta is None:
        raise CliError("--theta FILE is required for action %r" % args.action)
    theta = None
    if args.theta:
        theta = _finite_array(_load_json(args.theta, "theta", kind=list), "theta")
    if args.action == "fit":
        out["theta"] = PF.fit_least_squares(inst).theta.tolist()
    elif args.action == "loss":
        out["objective"] = PF.empirical_spo_objective(PF.LinearPredictor(theta), inst)
    elif args.action == "solve":
        pred = PF.LinearPredictor(theta)
        out["decisions"] = [PF.solve_simplex_qp(pred.predict(x), inst.sigma,
                                                inst.risk_aversion).z.tolist()
                            for x, _ in inst.samples]
    elif args.action == "search":
        theta0 = theta if theta is not None else PF.fit_least_squares(inst).theta
        pred = PF.spo_local_search(inst, theta0, steps=args.steps, seed=args.seed or 0)
        out["theta"] = pred.theta.tolist()
        out["objective"] = PF.empirical_spo_objective(pred, inst)
    elif args.action == "certificate":
        cert, betas = PF.realizable_certificate(inst, theta)
        out["certificate"] = {
            "schema": SCHEMA,
            "theta": np.asarray(theta, dtype=float).tolist(),
            "scenarios": [{"z": s.z.tolist(), "eta": s.eta.tolist(),
                           "zeta": s.zeta.tolist(), "beta": b}
                          for s, b in zip(cert.scenarios, betas)],
        }
    else:
        raise CliError("unknown action %r" % args.action)
    _dump(out, args)
    if args.format == "text":
        print(json.dumps(out, sort_keys=True))
    return 0


def cmd_newsvendor(args):
    problem = _load_json(args.problem, "problem")
    inst = _newsvendor_from_json(problem)
    out = {"schema": SCHEMA, "action": args.action}
    if args.action == "solve":
        if args.theta is None:
            raise CliError("--theta VALUE is required to solve")
        out["decisions"] = NV.solve_newsvendor_rows(
            inst.model(args.theta), [x for x, _ in inst.samples], inst.h, inst.b).tolist()
    elif args.action == "loss":
        if args.theta is None:
            raise CliError("--theta VALUE is required for loss")
        out["objective"] = NV.empirical_regret(inst, inst.model(args.theta))
    elif args.action == "verify":
        cert = _load_certificate(args.certificate)
        rep = NV.verify_newsvendor_system(
            cert["theta"], cert["scenarios"], inst,
            tol=args.tol if args.tol is not None else 1e-8)
        out["report"] = rep.to_dict()
        _dump(out, args)
        if args.format == "text":
            print("verdict:", "PASS" if rep.passed else "FAIL")
        return 0 if rep.passed else 2
    elif args.action == "gridsearch":
        if not args.grid:
            raise CliError("--grid is required for gridsearch")
        grid = [float(t) for t in args.grid.split(",")]
        out["theta"] = NV.bandwidth_grid_search(inst, grid)
    else:
        raise CliError("unknown action %r" % args.action)
    _dump(out, args)
    if args.format == "text":
        print(json.dumps(out, sort_keys=True))
    return 0


def cmd_gen(args):
    rng = np.random.default_rng(args.seed or 0)
    dims = [int(v) for v in args.dims.split(",")] if args.dims else None
    if args.kind == "portfolio":
        d_x, d_z = dims if dims else (2, 2)
        if args.n < 1 or d_x < 1 or d_z < 1:
            raise CliError("invalid dimensions")
        theta0 = rng.uniform(0.05, 0.3, (d_x, d_z))
        xs = rng.uniform(0.1, 1.0, (args.n, d_x))
        rs = xs @ theta0
        if args.noise > 0:
            rs = rs + args.noise * rng.standard_normal(rs.shape)
        B = rng.standard_normal((d_z, d_z))
        sigma = B @ B.T + d_z * np.eye(d_z)
        sigma /= np.max(np.abs(sigma))
        inst = PF.PortfolioInstance(sigma=sigma, risk_aversion=1.0,
                                    samples=list(zip(xs, rs)))
        data = inst.to_dict()
        data["theta0"] = theta0.tolist()
        data["realizable"] = bool(args.noise == 0)
    elif args.kind == "newsvendor":
        d_x = dims[0] if dims else 1
        if args.n < 1 or d_x < 1:
            raise CliError("invalid dimensions")
        xs = rng.uniform(-1.0, 1.0, (args.n, d_x))
        ys = 3.0 + 1.5 * np.sin(2.0 * xs[:, 0]) + args.noise * rng.standard_normal(args.n)
        pts = [(x.tolist(), float(y)) for x, y in zip(xs, ys)]
        inst = NV.NewsvendorInstance(h=1.0, b=3.0, centers=pts, samples=pts)
        data = inst.to_dict()
    else:
        raise CliError("unknown generator kind %r" % args.kind)
    _write_json(data, args.out, not args.out)
    return 0


def cmd_fd_check(args):
    problem = _load_json(args.problem, "problem")
    rng = np.random.default_rng(args.seed or 0)
    tol = args.tol if args.tol is not None else 1e-6
    kind = problem.get("type")
    worst = 0.0
    if args.op == "grad-theta-cdf":
        if kind != "newsvendor_kernel":
            raise CliError("grad-theta-cdf needs a newsvendor problem")
        inst = _newsvendor_from_json(problem)
        for _ in range(args.trials):
            theta = float(rng.uniform(0.5, 2.0))
            model = inst.model(theta)
            x = rng.normal(size=model.d_x)
            y = float(rng.normal() * 2.0 + np.mean(model.centers_y))
            a = NV.grad_theta_cdf(model, y, x)
            step = 1e-5
            fd = (NV.conditional_cdf(model.with_theta(theta + step), y, x)
                  - NV.conditional_cdf(model.with_theta(theta - step), y, x)) / (2 * step)
            gap = abs(a - fd)
            # Near-zero gradients sit below the difference quotient's own
            # noise floor; absolute agreement there is the meaningful test.
            if gap <= args.atol:
                continue
            worst = max(worst, gap / max(abs(a), abs(fd), 1e-6))
    elif args.op == "lower-grad-z":
        if kind == "newsvendor_kernel":
            inst = _newsvendor_from_json(problem)
            x = inst.samples[0][0]
            lm = NV.NewsvendorLowerModel(inst, x)
            # Orders cover [0, 2 max y + 1]; [0, 1] when every demand is below -0.5.
            high = 2.0 * max(y for _, y in inst.centers) + 1.0
            high = high if high >= 0.0 else 1.0
            pts = [np.array([float(rng.uniform(0.0, high))]) for _ in range(args.trials)]
            worst = ST.gradient_selftest(lm, np.array([float(rng.uniform(0.5, 2.0))]),
                                         x, pts, rtol=np.inf)
        elif kind == "spo_portfolio":
            inst = _portfolio_from_json(problem)
            lm = PF.PortfolioLowerModel(inst)
            theta = rng.standard_normal(inst.d_x * inst.d_z)
            pts = [ST.FeasibleSet.simplex(inst.d_z).project(rng.uniform(0, 1, inst.d_z))
                   for _ in range(args.trials)]
            worst = ST.gradient_selftest(lm, theta, inst.samples[0][0], pts, rtol=np.inf)
        else:
            raise CliError("unknown problem type: %r" % kind)
    else:
        raise CliError("unknown fd-check op %r" % args.op)
    out = {"schema": SCHEMA, "op": args.op, "trials": args.trials,
           "max_rel_err": worst, "tol": tol, "atol": args.atol,
           "pass": bool(worst <= tol)}
    _dump(out, args)
    if args.format == "text":
        print("max rel err %.3g (tol %.1g): %s"
              % (worst, tol, "PASS" if worst <= tol else "FAIL"))
    return 0 if worst <= tol else 2


# ---------------------------------------------------------------------------
# parser

def _positive_tolerance(text):
    """The value of --tol: a finite positive number, else a usage error."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError("must be a finite positive number, not %r" % text)
    return value


def _nonnegative_tolerance(text):
    """The value of --atol: a finite number >= 0, else a usage error."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError("must be a finite number >= 0, not %r" % text)
    return value


def _positive_count(text):
    """The value of --trials: a positive integer, else a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, not %r" % text)
    return value


def _tol(sub, meaning):
    sub.add_argument("--tol", type=_positive_tolerance, default=None, help=meaning)


def _seed(sub):
    sub.add_argument("--seed", type=int, default=None, help="seed for randomized steps")


def _output(sub):
    sub.add_argument("--report", default=None, help="write a JSON report here")
    sub.add_argument("--format", choices=("json", "text"), default="json")


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    parse_args leaves the parser unchanged and returns a fresh namespace, so
    in-process main() calls cannot see each other's options.
    """
    ap = argparse.ArgumentParser(
        prog="mstat",
        description="Polyhedral coderivative calculus and stationarity "
                    "certificate verification")
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("cones", help="tangent/normal/critical cone queries")
    p.add_argument("--input", required=True)
    _tol(p, "activity tolerance eps (default 1e-9); an \"eps\" in the query wins")
    _output(p)
    p.set_defaults(func=cmd_cones)

    p = sp.add_parser("gph-normal", help="coderivative membership query")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=("auto", "direct", "explicit"),
                   default="auto")
    _tol(p, "activity tolerance eps (default 1e-9)")
    _output(p)
    p.set_defaults(func=cmd_gph_normal)

    p = sp.add_parser("verify", help="verify a stationarity certificate")
    p.add_argument("--problem", required=True)
    p.add_argument("--certificate", required=True)
    p.add_argument("--mode", choices=("convex", "penalized"), default="convex")
    _tol(p, "residual tolerance (default 1e-8)")
    _output(p)
    p.set_defaults(func=cmd_verify)

    p = sp.add_parser("spo-portfolio", help="portfolio pipeline actions")
    p.add_argument("action", choices=("fit", "loss", "solve", "search", "certificate"))
    p.add_argument("--problem", required=True)
    p.add_argument("--theta", default=None, help="JSON file with a theta matrix")
    p.add_argument("--samples-csv", default=None)
    p.add_argument("--steps", type=int, default=50)
    _seed(p)
    _output(p)
    p.set_defaults(func=cmd_spo_portfolio)

    p = sp.add_parser("newsvendor", help="newsvendor pipeline actions")
    p.add_argument("action", choices=("solve", "loss", "verify", "gridsearch"))
    p.add_argument("--problem", required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--certificate", default=None)
    p.add_argument("--grid", default=None, help="comma separated bandwidths")
    _tol(p, "residual tolerance of 'verify' (default 1e-8)")
    _output(p)
    p.set_defaults(func=cmd_newsvendor)

    p = sp.add_parser("gen", help="emit a synthetic problem")
    p.add_argument("kind", choices=("portfolio", "newsvendor"))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--dims", default=None, help="portfolio: 'dx,dz'; newsvendor: 'dx'")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", default=None)
    _seed(p)
    p.set_defaults(func=cmd_gen)

    p = sp.add_parser("fd-check", help="finite-difference gradient audits")
    p.add_argument("--problem", required=True)
    p.add_argument("--op", choices=("grad-theta-cdf", "lower-grad-z"),
                   default="grad-theta-cdf")
    p.add_argument("--trials", type=_positive_count, default=100)
    p.add_argument("--atol", type=_nonnegative_tolerance, default=1e-9,
                   help="absolute agreement below this skips the relative test")
    _tol(p, "largest relative error that passes (default 1e-6)")
    _seed(p)
    _output(p)
    p.set_defaults(func=cmd_fd_check)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError, RuntimeError, OSError,
            LP.LPUnbounded, LP.LPLimitError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
