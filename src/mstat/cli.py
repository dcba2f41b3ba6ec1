"""Command line front end: coderivative membership, certificate verification,
application pipelines, synthetic data and finite-difference checks.

Exit codes: 0 success or verification pass, 2 verification fail, 1 usage,
input or numeric error. All emitted JSON carries schema tag "mstat/1" and is
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain

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
    unless the caller says otherwise. Anything else is a CliError. The file
    is read as bytes, unbuffered (a JSON file is read whole, so a buffer
    only copies it), and json.loads takes it in UTF-8, with or without a
    byte order mark, or in UTF-16 or UTF-32 (RFC 8259)."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = json.loads(fh.read())
    except FileNotFoundError:
        raise CliError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise CliError("malformed JSON in %s: line %d column %d: %s"
                       % (path, exc.lineno, exc.colno, exc.msg))
    except UnicodeDecodeError as exc:   # bytes of no Unicode encoding
        raise CliError("malformed JSON in %s: %s" % (path, exc))
    if not isinstance(data, kind):
        raise CliError("%s must be %s" % (what, "an object" if kind is dict else "an array"))
    return data


def _load_certificate(path):
    """A certificate file: a JSON object with a theta and a list of
    "scenarios", each an object."""
    data = _load_json(path, "certificate")
    _require(data, ("theta", "scenarios"), "the certificate")
    GN.object_list(data["scenarios"], "certificate scenario")
    return data


_ENCODE_STR = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANT = {True: "true", False: "false", None: "null"}
_STR, _INT, _FLOAT, _LIST = {str}, {int}, {float}, {list}
_CONSTANT_TYPES = {bool, type(None)}


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
        parts = [_ENCODE_STR(k) + ": " + _value_text(obj[k], inner) for k in sorted(obj)]
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
    if t is ST.ScenarioColumns:
        return _scenario_list_text(obj, indent)
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", indent)


def _value_text(v, indent):
    """_json_text of a dict's value v, formatting a scalar in place."""
    vt = type(v)
    if vt is float:
        text = float.__repr__(v)
        return _NON_FINITE.get(text, text)
    if vt is str:
        return _ENCODE_STR(v)
    if vt is bool or v is None:
        return _CONSTANT[v]
    if vt is int:
        return int.__repr__(v)
    if not v and (vt is list or vt is dict):
        return "[]" if vt is list else "{}"
    return _json_text(v, indent)


def _column_texts(column, indent):
    """_value_text of every entry of a column. A column of floats, of
    booleans and None, of strings or of non-empty lists of floats is
    formatted in one pass; any other goes entry by entry."""
    kinds = set(map(type, column))
    if kinds == _FLOAT:
        # A list's repr holds float.__repr__ of each entry, joined by ", ".
        text = list.__repr__(column)
        texts = text[1:-1].split(", ")
        return [_NON_FINITE.get(t, t) for t in texts] if "n" in text else texts
    if kinds <= _CONSTANT_TYPES:
        return list(map(_CONSTANT.__getitem__, column))
    if kinds == _STR:
        return list(map(_ENCODE_STR, column))
    if kinds == _LIST and len(set(map(len, column))) == 1 and column[0] \
            and set(map(type, chain.from_iterable(column))) == _FLOAT:
        inner = indent + "  "
        entries = [_column_texts(list(c), inner) for c in zip(*column)]
        template = "[%s%s%s]" % (inner, ("," + inner).join(["%s"] * len(entries)), indent)
        return list(map(template.__mod__, zip(*entries)))
    return [_value_text(v, indent) for v in column]


def _template(keys, indent):
    """The %-template of a dict with these keys, in order, as _json_text
    writes it at indent: one %s per value."""
    inner = indent + "  "
    return "{%s%s%s}" % (inner, ("," + inner).join(
        _ENCODE_STR(k).replace("%", "%%") + ": %s" for k in keys), indent)


def _index_texts(mask, indent):
    """_json_text of each row's list of True indices in the (k, d) mask;
    rows with the same indices share one text."""
    inner, texts = indent + "  ", {}
    keys = list(map(tuple, mask.tolist()))
    for key in keys:
        if key not in texts:
            flagged = [str(i) for i, f in enumerate(key) if f]
            texts[key] = ("[%s%s%s]" % (inner, ("," + inner).join(flagged), indent)
                          if flagged else "[]")
    return [texts[key] for key in keys]


def _witness_texts(columns, indent):
    """_json_text of each scenario's witness dict. Witnesses held as
    OrthantRows or SimplexRows are written from their columns: each key's
    texts come from one pass over all rows, and each key set has one
    %-template, which every row of that set fills. A list of witness dicts
    is written dict by dict."""
    rows, extra = columns.witness, columns.extra or {}
    if not isinstance(rows, (GN.OrthantRows, GN.SimplexRows)):
        return [_value_text(columns.witness_of(n), indent) for n in range(len(rows))]
    inner, codes = indent + "  ", rows.key_set.tolist()
    texts = {key: _column_texts(col, inner) for key, col in extra.items()}
    layouts = {}
    for code in set(codes):
        keys = set(rows.KEY_SETS[code]) | set(extra)
        for key in keys - set(texts):
            values = rows.values(key)
            texts[key] = (_index_texts(values, inner) if type(values) is np.ndarray
                          else _column_texts(values, inner))
        keys = sorted(keys)
        layouts[code] = _template(keys, indent), [texts[key] for key in keys]
    if len(layouts) == 1:
        template, cols = layouts[codes[0]]
        return list(map(template.__mod__, zip(*cols)))
    return [layouts[code][0] % tuple(col[j] for col in layouts[code][1])
            for j, code in enumerate(codes)]


_SCENARIO_FIELDS = ("complementarity_gap", "lower_residual", "m_membership", "m_residual",
                    "m_verdict", "value_gap")


def _scenario_list_text(columns, indent):
    """_json_text of a report's list of scenario dicts, written from its
    ScenarioColumns by one fixed template per scenario."""
    inner = indent + "  "
    field = inner + "  "
    texts = {key: _column_texts(getattr(columns, key), field) for key in _SCENARIO_FIELDS}
    texts["index"] = list(map(str, range(len(columns.m_verdict))))
    texts["witness"] = _witness_texts(columns, field)
    keys = sorted(texts)
    rows = list(map(_template(keys, inner).__mod__, zip(*[texts[k] for k in keys])))
    return "[%s%s%s]" % (inner, ("," + inner).join(rows), indent) if rows else "[]"


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


def _require(obj, keys, what):
    """Raise a CliError naming the keys that the JSON object obj lacks."""
    missing = [key for key in keys if key not in obj]
    if missing:
        raise CliError("%s is missing %s" % (what, ", ".join(missing)))


def _query_polyhedron(spec, dim):
    """The Z of a gph-normal query as a Polyhedron in R^dim: "orthant" or
    "simplex" (orthant_polyhedron, simplex_polyhedron), or an object whose
    A and b Polyhedron reads; anything else is a CliError."""
    if spec == "orthant":
        return C.orthant_polyhedron(dim)
    if spec == "simplex":
        return C.simplex_polyhedron(dim)
    if isinstance(spec, dict):
        _require(spec, ("A", "b"), "the query's Z")
        poly = C.Polyhedron(spec["A"], spec["b"])
        if poly.dim != dim:
            raise CliError("A has %d columns but z has %d entries" % (poly.dim, dim))
        return poly
    raise CliError("unrecognized feasible set: %r" % (spec,))


# ---------------------------------------------------------------------------
# subcommands

def cmd_gph_normal(args):
    q = _load_json(args.input, "query")
    _require(q, ("Z", "z", "g", "zeta", "eta"), "the query")
    gp = GN.GraphPoint(q["z"], q["g"])
    d = len(gp.z_entries)
    if not d:
        raise CliError("z must have at least one entry")
    pair = GN.NormalPair(q["zeta"], q["eta"])
    if len(pair.zeta_entries) != d:
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
        poly = _query_polyhedron(spec, d)
        res = GN.polyhedron_membership(poly, gp, pair, eps)
    out = {"schema": SCHEMA, "member": bool(res.member), "verdict": res.verdict,
           "method": method, "witness": res.witness}
    _dump(out, args)
    if args.format == "text":
        print("member" if res.member else "not a member (%s)" % res.verdict)
    return 0


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


def _portfolio_theta(value, inst):
    """A portfolio theta, given as a vector of d_x d_z finite numbers or as
    the d_x by d_z matrix, as that matrix; any other shape is a CliError
    that names both."""
    theta = C.finite_array(value, "theta")
    if theta.shape not in ((inst.d_x * inst.d_z,), (inst.d_x, inst.d_z)):
        raise CliError("theta must be a vector of %d entries or a %d by %d matrix; "
                       "got shape %s" % (inst.d_x * inst.d_z, inst.d_x, inst.d_z, theta.shape))
    return theta.reshape(inst.d_x, inst.d_z)


def _problem_and_certificate(args):
    """The application module, instance, Problem and Certificate of the
    files --problem and --certificate, which verify and fd-check read here."""
    problem = _load_json(args.problem, "problem")
    cert_data = _load_certificate(args.certificate)
    kind = problem.get("type")
    if kind == "spo_portfolio":
        app, inst = PF, _portfolio_from_json(problem)
        cert = ST.Certificate(_portfolio_theta(cert_data["theta"], inst), cert_data["scenarios"])
    elif kind == "newsvendor_kernel":
        app, inst = NV, _newsvendor_from_json(problem)
        cert = NV.newsvendor_certificate(cert_data["theta"], cert_data["scenarios"])
    else:
        raise CliError("unknown problem type: %r" % kind)
    return app, inst, app.as_problem(inst), cert


def cmd_verify(args):
    app, inst, prob, cert = _problem_and_certificate(args)
    tol = args.tol if args.tol is not None else ST.DEFAULT_TOL
    if args.mode == "penalized":
        report = ST.verify_certificate_penalized(prob, cert, tol=tol,
                                                 solver=app.lower_solver(inst))
    else:
        report = ST.verify_certificate(prob, cert, tol=tol)
    out = {**report.summary(), "scenarios": report.columns}
    _dump(out, args)
    if args.format == "text":
        print("verdict: %s (upper residual %.3g)"
              % ("PASS" if report.passed else "FAIL", report.upper_residual))
        c = report.columns
        for n, line in enumerate(zip(c.lower_residual, c.m_membership, c.m_residual)):
            print("  scenario %d: lower %.3g, member %s, residual %.3g" % (n, *line))
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
        theta = _portfolio_theta(_load_json(args.theta, "theta", kind=list), inst)
    if args.action == "fit":
        out["theta"] = PF.fit_least_squares(inst).theta.tolist()
    elif args.action == "loss":
        out["objective"] = PF.empirical_spo_objective(PF.LinearPredictor(theta), inst)
    elif args.action == "solve":
        R = PF.LinearPredictor(theta).predict_rows(inst.samples.x)
        out["decisions"] = PF.solve_simplex_qp_rows(R, inst.sigma, inst.risk_aversion).tolist()
    elif args.action == "search":
        theta0 = theta if theta is not None else PF.fit_least_squares(inst).theta
        pred, history = PF.spo_local_search(inst, theta0, steps=args.steps,
                                            seed=args.seed or 0, return_history=True)
        out["theta"] = pred.theta.tolist()
        out["objective"] = history[-1]
    elif args.action == "certificate":
        cert, betas = PF.realizable_certificate(inst, theta)
        out["certificate"] = {
            "schema": SCHEMA,
            "theta": theta.tolist(),
            "scenarios": [{"z": z, "eta": eta, "zeta": zeta, "beta": b}
                          for z, eta, zeta, b in zip(cert.z.tolist(), cert.eta.tolist(),
                                                     cert.zeta.tolist(), betas)],
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
            inst.model(args.theta), inst.samples.x, inst.h, inst.b).tolist()
    elif args.action == "loss":
        if args.theta is None:
            raise CliError("--theta VALUE is required for loss")
        out["objective"] = NV.empirical_regret(inst, inst.model(args.theta))
    elif args.action == "verify":
        if args.certificate is None:
            raise CliError("--certificate FILE is required to verify")
        cert = _load_certificate(args.certificate)
        rep = NV.verify_newsvendor_system(
            cert["theta"], cert["scenarios"], inst,
            tol=args.tol if args.tol is not None else ST.DEFAULT_TOL)
        out["report"] = {**rep.summary(), "scenarios": rep.columns}
        _dump(out, args)
        if args.format == "text":
            print("verdict:", "PASS" if rep.passed else "FAIL")
        return 0 if rep.passed else 2
    elif args.action == "gridsearch":
        if not args.grid:
            raise CliError("--grid is required for gridsearch")
        grid = args.grid.split(",")
        for i, entry in enumerate(grid):
            try:
                grid[i] = float(entry)
            except ValueError:
                raise CliError("--grid point %d is not a number: %r" % (i, entry)) from None
        out["theta"] = NV.bandwidth_grid_search(inst, grid)
    else:
        raise CliError("unknown action %r" % args.action)
    _dump(out, args)
    if args.format == "text":
        print(json.dumps(out, sort_keys=True))
    return 0


_GEN_DIMS = {"portfolio": ("dx,dz", [2, 2]), "newsvendor": ("dx", [1])}


def cmd_gen(args):
    rng = np.random.default_rng(args.seed or 0)
    form, dims = _GEN_DIMS[args.kind]
    if args.dims:
        try:
            dims = [int(v) for v in args.dims.split(",")]
        except ValueError:
            dims = []
        if len(dims) != len(form.split(",")):
            raise CliError("--dims of a %s must be '%s', one integer per dimension; got %r"
                           % (args.kind, form, args.dims))
    if args.kind == "portfolio":
        d_x, d_z = dims
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
    else:
        d_x, = dims
        if args.n < 1 or d_x < 1:
            raise CliError("invalid dimensions")
        xs = rng.uniform(-1.0, 1.0, (args.n, d_x))
        ys = 3.0 + 1.5 * np.sin(2.0 * xs[:, 0]) + args.noise * rng.standard_normal(args.n)
        pts = [(x.tolist(), float(y)) for x, y in zip(xs, ys)]
        inst = NV.NewsvendorInstance(h=1.0, b=3.0, centers=pts, samples=pts)
        data = inst.to_dict()
    _write_json(data, args.out, not args.out)
    return 0


def cmd_fd_check(args):
    _, _, prob, cert = _problem_and_certificate(args)
    tol = args.tol if args.tol is not None else 1e-6
    worst = ST.difference_check(prob, cert)
    passed = all(error <= tol for error, _ in worst.values())
    out = {"schema": SCHEMA, "tol": tol, "pass": passed,
           "terms": {name: {"max_rel_err": error, "scenario": n}
                     for name, (error, n) in worst.items()}}
    _dump(out, args)
    if args.format == "text":
        for name, (error, n) in worst.items():
            print("%s: max rel err %.3g at scenario %d" % (name, error, n))
        print("tol %.1g: %s" % (tol, "PASS" if passed else "FAIL"))
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# parser

def _positive_tolerance(text):
    """The value of --tol: a finite positive number, else a usage error."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError("must be a finite positive number, not %r" % text)
    return value


def _nonnegative_number(text):
    """The value of --noise: a finite number >= 0, else a usage error."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError("must be a finite number >= 0, not %r" % text)
    return value


def _nonnegative_count(text):
    """The value of --steps: an integer >= 0, else a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be an integer >= 0, not %r" % text)
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
    p.add_argument("--steps", type=_nonnegative_count, default=50)
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
    p.add_argument("--noise", type=_nonnegative_number, default=0.0)
    p.add_argument("--out", default=None)
    _seed(p)
    p.set_defaults(func=cmd_gen)

    p = sp.add_parser("fd-check", help="check a certificate's scenario terms "
                                        "against finite differences")
    p.add_argument("--problem", required=True)
    p.add_argument("--certificate", required=True)
    _tol(p, "largest relative error that passes (default 1e-6)")
    _output(p)
    p.set_defaults(func=cmd_fd_check)
    # Each command's option table, by name, for _read.
    ap.tables = {name: _table(name, p) for name, p in sp.choices.items()}
    return ap


def _table(name, parser):
    """What _read needs of a command's parser: its actions that take one
    value, by option string, with the positional under None; the required
    ones; and the namespace that parse_args starts from, with the command's
    name and func. parser._actions lists every action that add_argument
    made, so no option is declared twice."""
    actions = [a for a in parser._actions if a.nargs is None]   # all but -h
    by_token = {s: a for a in actions for s in a.option_strings or [None]}
    start = {a.dest: parser.get_default(a.dest) for a in actions}
    start.update(command=name, func=parser.get_default("func"))
    return by_token, [a for a in actions if a.required], start


def _read(table, tokens):
    """The namespace that parse_args gives a command's tokens, read from its
    _table, or None for a line that _parse leaves to argparse."""
    by_token, required, start = table
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        action = by_token.get(token)
        if action is None:
            action, value = by_token.get(None), token
        else:
            value = next(tokens, "-")   # an option without its value is refused
        if action is None or action.dest in given or value[:1] == "-":
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    if any(a.dest not in given for a in required):
        return None
    return argparse.Namespace(**{**start, **given})


def _parse(argv):
    """build_parser().parse_args(argv), read without argparse where it can be.

    A line that names a command and then gives only full option spellings,
    each once and followed by one value that does not start with "-", and
    the command's positional, is read from the command's option table
    (_read): each value goes through its action's type and choices, every
    required action must be given, and the parser's defaults fill the rest.
    Every other line (-h, an abbreviation, --opt=value, a repeated option, a
    value starting with "-", a failed type or choices check, a missing
    required option, a stray token) goes to parse_args, so argparse still
    writes every help text, usage line and error message.
    """
    ap = build_parser()
    table = ap.tables.get(argv[0]) if argv else None
    args = _read(table, argv[1:]) if table else None
    return args if args is not None else ap.parse_args(argv)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
