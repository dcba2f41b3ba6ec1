import argparse
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import array_oracle
from mstat import newsvendor as NV
from mstat import stationarity as ST
from mstat.cli import _json_text, main
from mstat.cones import finite_array
from mstat.graph_normals import NormalPair, orthant_membership
from mstat.newsvendor import NewsvendorInstance, solve_newsvendor
from mstat.portfolio import PortfolioInstance


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN = Path(__file__).parent / "golden"
# Every (problem, certificate) pair that tests/golden records a verify of.
GOLDEN_VERIFY_PAIRS = sorted({
    (argv[argv.index("--problem") + 1], argv[argv.index("--certificate") + 1])
    for argv in (case["argv"] for case in
                 json.loads((GOLDEN / "expected.json").read_text())["outputs"])
    if argv[0] == "verify"})


# ---------------------------------------------------------------------------
# gph-normal

def test_gph_normal_orthant_member(tmp_path, capsys):
    q = write(tmp_path / "q.json",
              {"Z": "orthant", "z": [0.0], "g": [0.0],
               "zeta": [-2.0], "eta": [-3.0]})
    code, out, _ = run(capsys, "gph-normal", "--input", q)
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True and data["method"] == "explicit"


def test_gph_normal_methods_agree(tmp_path, capsys):
    q = write(tmp_path / "q.json",
              {"Z": {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]},
               "z": [0.0, 0.0], "g": [1.0, 0.0],
               "zeta": [4.0, 0.0], "eta": [0.0, -1.0]})
    labels = {"auto": "direct", "direct": "direct"}
    for method, label in labels.items():
        code, out, _ = run(capsys, "gph-normal", "--input", q, "--method", method)
        assert code == 0
        data = json.loads(out)
        assert data["member"] is True and data["method"] == label


def test_gph_normal_non_graph_point_is_empty(tmp_path, capsys):
    q = write(tmp_path / "q.json",
              {"Z": "orthant", "z": [1.0], "g": [1.0],
               "zeta": [0.0], "eta": [0.0]})
    code, out, _ = run(capsys, "gph-normal", "--input", q)
    assert code == 0
    data = json.loads(out)
    assert data["member"] is False and data["verdict"] == "empty_coderivative"


# The shared readers of z and of a polyhedron's A, under every method.
BAD_GPH_NORMAL_QUERIES = {
    "z-object": {"Z": "orthant", "z": {"a": 1}, "g": [0.0], "zeta": [0.0], "eta": [0.0]},
    "z-nan": {"Z": "orthant", "z": [float("nan"), 1.0], "g": [0.0, 0.0],
              "zeta": [0.0, 0.0], "eta": [0.0, 0.0]},
    "polyhedron-A-object": {"Z": {"A": {"x": 1}, "b": [0.0]}, "z": [0.0], "g": [0.0],
                            "zeta": [0.0], "eta": [0.0]},
    "polyhedron-A-boolean": {"Z": {"A": [[True]], "b": [0.0]}, "z": [0.0], "g": [0.0],
                             "zeta": [0.0], "eta": [0.0]},
}


@pytest.mark.parametrize("name", sorted(BAD_GPH_NORMAL_QUERIES))
def test_gph_normal_bad_query_exits_1(name, tmp_path, capsys):
    q = write(tmp_path / "q.json", BAD_GPH_NORMAL_QUERIES[name])
    for method in ("auto", "direct", "explicit"):
        code, out, err = run(capsys, "gph-normal", "--input", q, "--method", method)
        assert (code, out) == (1, "") and err.startswith("error: "), (method, err)


def test_gph_normal_names_an_empty_z_and_a_missing_key(tmp_path, capsys):
    """An empty z is an input error naming z on every Z and method, and a
    query, or a polyhedron Z, without one of its keys names the key."""
    for spec in ("orthant", "simplex", {"A": [[1.0]], "b": [1.0]}):
        q = write(tmp_path / "q.json", {"Z": spec, "z": [], "g": [], "zeta": [], "eta": []})
        for method in ("auto", "direct", "explicit"):
            code, out, err = run(capsys, "gph-normal", "--input", q, "--method", method)
            assert (code, out, err) == (1, "", "error: z must have at least one entry\n")
    point = {"z": [0.0], "g": [0.0], "zeta": [0.0], "eta": [0.0]}
    for query, message in (({**point, "Z": {"b": [0.0]}}, "the query's Z is missing A"),
                           ({**point, "Z": {}}, "the query's Z is missing A, b"),
                           ({"Z": "orthant", "z": [0.0]}, "the query is missing g, zeta, eta")):
        for method in ("auto", "direct"):
            code, out, err = run(capsys, "gph-normal", "--input",
                                 write(tmp_path / "q.json", query), "--method", method)
            assert (code, out, err) == (1, "", "error: %s\n" % message), method


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
# Entries that are not numbers, and values that are not vectors of numbers.
NOT_NUMBERS = [True, "1", None, {}, [1.0]]
NOT_VECTORS = [None, 1.0, "z", {}, [], [[0.0, 1.0]], [True], [[0.0], [1.0, 2.0]]]


@st.composite
def gph_normal_queries(draw):
    """A gph-normal query over the orthant, the simplex, a small integer
    polyhedron or a Z that is none of these, with point entries drawn near
    the graph and some of them, or of A and b, made non-finite, not numbers,
    of another length or not vectors, or left out. The bad values are
    copies, so a later edit never changes the shared lists above."""
    d = draw(st.integers(0, 3))
    entries = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0]),
                        st.floats(-3.0, 3.0, allow_nan=False), st.integers(-2, 2))
    query = {key: draw(st.lists(entries, min_size=d, max_size=d))
             for key in ("z", "g", "zeta", "eta")}
    m = draw(st.integers(1, 4))
    query["Z"] = draw(st.sampled_from([
        "orthant", "simplex", "box", None, 3.0, ["orthant"],
        {"A": draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                            min_size=m, max_size=m)),
         "b": draw(st.lists(st.integers(-1, 2), min_size=m, max_size=m))}]))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["z", "g", "zeta", "eta", "A", "b"]))
        doc = query["Z"] if key in ("A", "b") else query
        if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
            continue
        kind = draw(st.sampled_from(["non-finite", "entry", "length", "value", "drop"]))
        if kind == "drop":
            del doc[key]
        elif kind == "value":
            doc[key] = copy.deepcopy(draw(st.sampled_from(NOT_VECTORS)))
        elif kind == "length":
            doc[key] = doc[key] + doc[key][:1] if draw(st.booleans()) else doc[key][1:]
        elif doc[key]:
            rows = doc[key]
            i = draw(st.integers(0, len(rows) - 1))
            if isinstance(rows[i], list) and rows[i]:
                rows, i = rows[i], draw(st.integers(0, len(rows[i]) - 1))
            bad = NON_FINITE if kind == "non-finite" else NOT_NUMBERS
            rows[i] = copy.deepcopy(draw(st.sampled_from(bad)))
    return query


def holds_non_finite(value):
    """Whether a JSON value holds a NaN or an infinity at any depth."""
    if isinstance(value, (dict, list)):
        return any(map(holds_non_finite, value.values() if isinstance(value, dict) else value))
    return isinstance(value, float) and not math.isfinite(value)


@settings(max_examples=300, deadline=None)
@given(gph_normal_queries(), st.sampled_from(["auto", "direct", "explicit"]),
       st.sampled_from([[], ["--tol", "0.1"]]))
def test_gph_normal_query_boundary_property(query, method, tol):
    """gph-normal on a generated query under every method: main() never
    raises, prints no traceback and exits 0 or 1, printing a verdict exactly
    when it exits 0, and a NaN or an infinity anywhere in the query exits 1,
    so it is never "member": true."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        # json.dumps writes non-finite floats as the literals NaN and Infinity.
        path = write(Path(tmp) / "q.json", query)
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero rows of A are dropped with a warning
            code = main(["gph-normal", "--input", path, "--method", method, *tol])
    assert code in (0, 1) and "Traceback" not in err.getvalue()
    assert (code == 0) == ('"verdict": ' in out.getvalue()), (query, err.getvalue())
    if holds_non_finite(query):
        assert (code, out.getvalue()) == (1, ""), (query, method)


# ---------------------------------------------------------------------------
# JSON output: _json_text is json.dumps(obj, sort_keys=True, indent=2)

EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.225e-308, 1e16, -1e16, 1.5e300, float("nan"),
               float("inf"), float("-inf")]
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(),
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(), st.sampled_from(EDGE_FLOATS),
    st.floats().map(np.float64),
    st.lists(st.integers()), st.lists(st.floats()), st.lists(st.sampled_from(EDGE_FLOATS)))
JSON_KEYS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n", "\x00\x1f", "\u00e9\u4e2d"]))
JSON_DOCS = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
    st.dictionaries(JSON_KEYS, children, max_size=5),
    st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
                    children, max_size=2)), max_leaves=25)


def assert_same_as_json_dumps(doc):
    try:
        want = json.dumps(doc, sort_keys=True, indent=2)
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            _json_text(doc)
        assert str(got.value) == str(exc)
    else:
        assert _json_text(doc) == want


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
@example({"k%d" % i: x for i, x in enumerate(EDGE_FLOATS)})
@example([EDGE_FLOATS, [1, 2.5], [[]], {}, (), [{}], {"a": [], "b": {}, "c": ()}])
def test_json_text_equals_json_dumps(doc):
    assert_same_as_json_dumps(doc)


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1, 2}])
def test_json_text_raises_what_json_dumps_raises(value):
    for doc in (value, [value], [1.0, value], {"a": {"b": [value]}}):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        assert_same_as_json_dumps(doc)


# ---------------------------------------------------------------------------
# gen determinism and round trips

def test_gen_portfolio_deterministic_and_realizable(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "portfolio", "--n", "4", "--dims", "2,2",
                 "--seed", "0", "--out", str(a)]) == 0
    assert main(["gen", "portfolio", "--n", "4", "--dims", "2,2",
                 "--seed", "0", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["schema"] == "mstat/1" and "theta0" in data

    inst = PortfolioInstance.from_dict(data)
    again = PortfolioInstance.from_dict(inst.to_dict())
    assert np.allclose(again.sigma, inst.sigma)

    from mstat.portfolio import LinearPredictor, empirical_spo_objective
    assert empirical_spo_objective(LinearPredictor(data["theta0"]), inst) <= 1e-10


def test_gen_out_file_equals_stdout(tmp_path, capsys):
    for kind in ("portfolio", "newsvendor"):
        path = tmp_path / ("%s.json" % kind)
        argv = ["gen", kind, "--n", "3", "--seed", "2", "--noise", "0.1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_text() == out


def test_gen_noisy_portfolio_has_positive_objective(tmp_path):
    p = tmp_path / "noisy.json"
    assert main(["gen", "portfolio", "--n", "6", "--dims", "2,2", "--seed", "3",
                 "--noise", "0.1", "--out", str(p)]) == 0
    data = json.loads(p.read_text())
    assert data["realizable"] is False
    inst = PortfolioInstance.from_dict(data)
    from mstat.portfolio import LinearPredictor, empirical_spo_objective
    assert empirical_spo_objective(LinearPredictor(data["theta0"]), inst) > 0.0


def test_gen_newsvendor_round_trip(tmp_path):
    p = tmp_path / "nv.json"
    assert main(["gen", "newsvendor", "--n", "5", "--seed", "1",
                 "--out", str(p)]) == 0
    inst = NewsvendorInstance.from_dict(json.loads(p.read_text()))
    assert len(inst.samples.y) == 5


# ---------------------------------------------------------------------------
# verify pipeline

def portfolio_problem_and_cert(tmp_path, perturb=0.0):
    theta0 = np.array([[0.3, 0.1], [0.05, 0.25]])
    xs = [[1.0, 0.2], [0.4, 1.0], [1.0, 1.0], [0.7, 0.5], [0.2, 0.9]]
    samples = [(x, (theta0.T @ np.asarray(x)).tolist()) for x in xs]
    inst = PortfolioInstance(sigma=np.eye(2), risk_aversion=1.0, samples=samples)
    ppath = write(tmp_path / "prob.json", inst.to_dict())

    from mstat.portfolio import realizable_certificate
    cert, betas = realizable_certificate(inst, theta0)
    theta_used = theta0.copy()
    theta_used[0, 0] += perturb
    cpath = write(tmp_path / "cert.json", {
        "schema": "mstat/1",
        "theta": theta_used.tolist(),
        "scenarios": [{"z": z, "eta": eta, "zeta": zeta, "beta": b}
                      for z, eta, zeta, b in zip(cert.z.tolist(), cert.eta.tolist(),
                                                 cert.zeta.tolist(), betas)],
    })
    return ppath, cpath


def test_verify_portfolio_pass_and_fail(tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    rep_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--problem", ppath,
                       "--certificate", cpath, "--report", str(rep_path))
    assert code == 0
    report = json.loads(rep_path.read_text())
    assert report["pass"] is True and report["schema"] == "mstat/1"

    ppath2, cpath2 = portfolio_problem_and_cert(tmp_path, perturb=0.1)
    code2, _, _ = run(capsys, "verify", "--problem", ppath2,
                      "--certificate", cpath2)
    assert code2 == 2


@pytest.mark.parametrize("perturb", [0.0, 0.1])
def test_verify_report_file_equals_stdout(perturb, tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path, perturb=perturb)
    rep_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--problem", ppath, "--certificate", cpath,
                       "--report", str(rep_path))
    assert code == (0 if perturb == 0.0 else 2)
    assert rep_path.read_text() == out and out.endswith("}\n")


def test_verify_penalized_zero_mu_matches_convex(tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    cert = json.loads(open(cpath).read())
    for s in cert["scenarios"]:
        s["mu"] = 0.0
    cpath_mu = write(tmp_path / "cert_mu.json", cert)
    code, out, _ = run(capsys, "verify", "--problem", ppath,
                       "--certificate", cpath_mu, "--mode", "penalized")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["mode"] == "penalized"


def test_verify_text_and_json_same_verdict(tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    code_j, out_j, _ = run(capsys, "verify", "--problem", ppath,
                           "--certificate", cpath, "--format", "json")
    code_t, out_t, _ = run(capsys, "verify", "--problem", ppath,
                           "--certificate", cpath, "--format", "text")
    assert code_j == code_t == 0
    assert json.loads(out_j)["pass"] is True
    assert "PASS" in out_t


def test_verify_ignores_legacy_witness_keys(tmp_path, capsys):
    """Certificates written with lambda/J1/J2 row-split witnesses still verify."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    cert = json.loads(open(cpath).read())
    for s in cert["scenarios"]:
        s.update({"lambda": [0.0, 0.0, 0.0], "J1": [], "J2": []})
    code, out, _ = run(capsys, "verify", "--problem", ppath,
                       "--certificate", write(tmp_path / "legacy.json", cert))
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_vertex_solutions_beyond_eight_active_rows(tmp_path, capsys):
    """d_z = 12 vertex solutions put 12 rows of the simplex in the active set."""
    from mstat.cones import active_set, simplex_polyhedron
    from mstat.portfolio import realizable_certificate

    d_z = 12
    theta0 = np.full((2, d_z), 0.05)
    theta0[0, 0] = theta0[1, 5] = 1.0
    xs = [[1.0, 0.1], [0.1, 1.0], [1.0, 0.2], [0.3, 1.0]]
    inst = PortfolioInstance(sigma=0.1 * np.eye(d_z), risk_aversion=1.0,
                             samples=[(x, theta0.T @ np.asarray(x)) for x in xs])
    cert, betas = realizable_certificate(inst, theta0)
    poly = simplex_polyhedron(d_z)
    assert all(len(active_set(poly, z)) == d_z for z in cert.z)
    cpath = write(tmp_path / "cert.json", {
        "theta": theta0.tolist(),
        "scenarios": [{"z": z, "eta": eta, "zeta": zeta, "beta": b}
                      for z, eta, zeta, b in zip(cert.z.tolist(), cert.eta.tolist(),
                                                 cert.zeta.tolist(), betas)]})
    code, out, _ = run(capsys, "verify", "--problem",
                       write(tmp_path / "prob.json", inst.to_dict()),
                       "--certificate", cpath)
    assert code == 0
    assert all(s["lower_residual"] < 1e-12 for s in json.loads(out)["scenarios"])


def test_verify_does_not_import_scipy_optimize(tmp_path):
    """The CLI stays off scipy.optimize, whose import costs start-up time and
    memory, and a portfolio verify and a coderivative query import no scipy
    module at all: only the newsvendor CDF needs scipy.special."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    query = write(tmp_path / "query.json", {"Z": "simplex", "z": [0.5, 0.5], "g": [-1.0, -1.0],
                                            "zeta": [1.0, 1.0], "eta": [0.0, 0.0]})
    script = ("import sys\n"
              "import mstat.cli\n"
              "code = mstat.cli.main(['verify', '--problem', sys.argv[1],"
              " '--certificate', sys.argv[2]])\n"
              "assert code == 0, code\n"
              "assert mstat.cli.main(['gph-normal', '--input', sys.argv[3]]) == 0\n"
              "assert [m for m in sys.modules if m.split('.')[0] == 'scipy'] == []\n")
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-c", script, ppath, cpath, query],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert proc.returncode == 0, proc.stderr


def test_verify_newsvendor(tmp_path, capsys):
    inst = NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 5.0)],
                              samples=[([0.0], 5.0)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    z = solve_newsvendor(inst.model(2.0), [0.0], 1.0, 1.0)
    cpath = write(tmp_path / "nvcert.json",
                  {"theta": 2.0,
                   "scenarios": [{"z": z, "eta": 0.0, "zeta": 0.0}]})
    code, out, _ = run(capsys, "verify", "--problem", ppath,
                       "--certificate", cpath)
    assert code == 0 and json.loads(out)["pass"] is True
    code2, out2, _ = run(capsys, "verify", "--problem", ppath,
                         "--certificate", cpath, "--mode", "penalized")
    assert code2 == 0 and json.loads(out2)["pass"] is True
    assert json.loads(out2)["scenarios"][0]["value_gap"] == 0.0


# ---------------------------------------------------------------------------
# the newsvendor verify route: report columns written by a template

# Three centers far apart at bandwidth NV_THETA: a sample within 0.5 of a
# center weighs that center alone, so F(z; x) = Phi((z - y_c) / theta)
# exactly, with y_c = 0, -10 and 5.
NV_CENTERS = ((0.0, 0.0), (10.0, -10.0), (20.0, 5.0))
NV_THETA = 0.1
_SMALL = st.sampled_from([0.0, 1e-13, -1e-13, 5e-10, -5e-10])
_VALUE = st.floats(-5.0, 5.0, allow_nan=False) | _SMALL
_LARGE = st.floats(1e-3, 5.0) | st.floats(-5.0, -1e-3)


def _near(center):
    return st.floats(-0.5, 0.5).map(lambda jitter: NV_CENTERS[center][0] + jitter)


# Each orthant report branch as (x, z, zeta): z = 0 at y_c = 0 is I_zero
# (g = 0), at y_c = -10 I_plus (g = h); at center 2, z = 5 is L (g = 0), so
# a zeta within eps is a member and, below STRICT_EPS, boundary ambiguous,
# and a large zeta is not; z = 0 has g = -b < 0, z = 7 has z g = 7 h > eps,
# and z < -eps is infeasible.
_BRANCHES = (
    st.tuples(_near(0), st.just(0.0), _VALUE), st.tuples(_near(1), st.just(0.0), _VALUE),
    st.tuples(_near(2), st.just(5.0), st.sampled_from([1e-13, -1e-13])),
    st.tuples(_near(2), st.just(5.0), _LARGE), st.tuples(_near(2), st.just(0.0), _VALUE),
    st.tuples(_near(2), st.just(7.0), _VALUE),
    st.tuples(st.integers(0, 2).flatmap(_near), st.floats(-10.0, -1e-6), _VALUE))
_FREE = st.tuples(st.floats(-1.0, 21.0), st.floats(-2.0, 10.0), _VALUE)


@st.composite
def newsvendor_cases(draw):
    """An instance with one sample per scenario and certificate scenarios
    that reach every branch, in random order, plus free random ones."""
    kinds = draw(st.permutations([draw(branch) for branch in _BRANCHES]))
    rows = []
    for x, z, zeta in kinds + draw(st.lists(_FREE, max_size=4)):
        y = draw(st.just(z) | st.floats(-2.0, 10.0))
        rows.append((x, y, z, draw(_VALUE), zeta))
    cost = draw(st.floats(0.5, 4.0))
    inst = NewsvendorInstance(h=cost, b=cost, centers=[([x], y) for x, y in NV_CENTERS],
                              samples=[([x], y) for x, y, *_ in rows])
    return inst, [{"z": z, "eta": eta, "zeta": zeta} for _, _, z, eta, zeta in rows]


def _stdout(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(newsvendor_cases(), st.sampled_from(["convex", "penalized"]))
def test_newsvendor_report_text_equals_json_dumps(case, mode):
    """The standard output of verify on a newsvendor certificate, written
    from the report's columns, is json.dumps of the same report's to_dict,
    and so is the report of newsvendor verify. Every certificate reaches
    each orthant branch, inf residuals and null gaps; each verdict and
    witness is orthant_membership's at that scenario, except that z < -eps
    is reported as an infeasible scenario point."""
    inst, parts = case
    problem = NV.as_problem(inst)
    cert = NV.newsvendor_certificate(NV_THETA, parts)
    if mode == "penalized":
        report = ST.verify_certificate_penalized(problem, cert,
                                                 solver=NV.lower_solver(inst))
    else:
        report = ST.verify_certificate(problem, cert)
    want = report.to_dict()
    with tempfile.TemporaryDirectory() as tmp:
        ppath = write(Path(tmp) / "nv.json", inst.to_dict())
        cpath = write(Path(tmp) / "cert.json", {"theta": NV_THETA, "scenarios": parts})
        code, out = _stdout(["verify", "--problem", ppath, "--certificate", cpath,
                             "--mode", mode])
        assert (code, out) == (0 if want["pass"] else 2,
                               json.dumps(want, sort_keys=True, indent=2) + "\n")
        if mode == "convex":
            nv_out = {"schema": "mstat/1", "action": "verify", "report": want}
            assert _stdout(["newsvendor", "verify", "--problem", ppath,
                            "--certificate", cpath])[1] == \
                json.dumps(nv_out, sort_keys=True, indent=2) + "\n"
    model = inst.model(NV_THETA)
    seen = set()
    for x, part, s in zip(inst.samples.x, parts, want["scenarios"], strict=True):
        g = (inst.h + inst.b) * NV.conditional_cdf(model, part["z"], x) - inst.b
        single = orthant_membership([part["z"]], [g], NormalPair([part["zeta"]], [part["eta"]]))
        witness = {k: v for k, v in s["witness"].items() if k != "subdiff"}
        if part["z"] < -1e-9:
            assert single.witness == {"reason": "z has negative coordinates"}
            assert witness == {"reason": "infeasible scenario point"}
            assert s["lower_residual"] == float("inf")
        else:
            assert witness == single.witness
        assert (s["m_membership"], s["m_verdict"]) == (single.member, single.verdict)
        assert s["complementarity_gap"] is None
        assert (s["value_gap"] is None) == (mode == "convex")
        seen.update(k for k in ("I_plus", "I_zero", "boundary_ambiguous") if witness.get(k))
        seen.add(witness.get("reason", s["m_verdict"]))
        if s["m_residual"] == float("inf"):
            seen.add("inf")
    assert seen >= {"member", "not_member", "I_plus", "I_zero", "boundary_ambiguous", "inf",
                    "g has negative coordinates", "z and g are not complementary",
                    "infeasible scenario point"}


@pytest.mark.parametrize("grid, point, entry", [("0.5,,1", 1, "''"), ("abc", 0, "'abc'"),
                                                ("0.5,1,", 2, "''")])
def test_gridsearch_names_the_grid_entry_that_is_not_a_number(grid, point, entry, capsys):
    """A --grid entry that is not a number is an input error (exit 1) that
    names the option, the point's index and the entry as given."""
    code, out, err = run(capsys, "newsvendor", "gridsearch",
                         "--problem", str(GOLDEN / "nv1.problem.json"), "--grid", grid)
    assert (code, out) == (1, "") and "Traceback" not in err
    assert "--grid point %d is not a number: %s" % (point, entry) in err


def test_gridsearch_outside_theta_bounds_exits_1(capsys, tmp_path):
    """A grid point more than DEFAULT_EPS outside theta_bounds is an input
    error with the text of ParameterSet.outside, and no bandwidth is
    printed; one within DEFAULT_EPS of a bound is searched."""
    problem = json.loads((GOLDEN / "nv4.problem.json").read_text())
    ppath = write(tmp_path / "nv4.json", {**problem, "theta_bounds": [0.001, 0.25]})
    code, out, err = run(capsys, "newsvendor", "gridsearch", "--problem", ppath,
                         "--grid", "0.1,0.5,1,2")
    assert (code, out) == (1, "") and "Traceback" not in err
    assert "grid point 1: theta[0] = 0.5 lies more than 1e-09 above its upper bound 0.25" in err
    code, out, err = run(capsys, "newsvendor", "gridsearch", "--problem", ppath,
                         "--grid", "0.0005,0.1")
    assert (code, out) == (1, "") and "below its lower bound 0.001" in err
    code, out, _ = run(capsys, "newsvendor", "gridsearch", "--problem", ppath,
                       "--grid", "0.1,0.2500000001")
    assert code == 0 and json.loads(out)["theta"] in (0.1, 0.2500000001)


def test_newsvendor_without_x_coordinates_runs(capsys, tmp_path):
    """A problem whose x lists are all empty (d_x = 0) is the unconditional
    mixture: solve, gridsearch, verify and fd-check run to a verdict, with
    no traceback, and fd-check passes."""
    pts = [{"x": [], "y": y} for y in (4.0, 5.5, 6.0, 9.0)]
    ppath = write(tmp_path / "nv0.json", {"type": "newsvendor_kernel", "h": 1.0, "b": 3.0,
                                          "centers": pts, "samples": pts})
    code, out, err = run(capsys, "newsvendor", "solve", "--problem", ppath, "--theta", "1.0")
    assert code == 0 and err == ""
    cpath = write(tmp_path / "cert.json", {"theta": 1.0, "scenarios": [
        {"z": z, "eta": 0.0, "zeta": 0.0} for z in json.loads(out)["decisions"]]})
    for argv in (["newsvendor", "gridsearch", "--grid", "0.5,1"],
                 ["newsvendor", "verify", "--certificate", cpath],
                 ["verify", "--certificate", cpath],
                 ["fd-check", "--certificate", cpath]):
        code, out, err = run(capsys, *argv, "--problem", ppath)
        assert code in (0, 2) and out and "Traceback" not in err, (argv, err)
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("theta", ["1e-200", "1e120", "1e200"])
def test_newsvendor_bandwidth_out_of_range_exits_1(theta, tmp_path, capsys):
    """A bandwidth whose square or cube leaves the finite normal range is an
    input error of every newsvendor command, named with the range."""
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=[([-1.0], 4.0), ([1.0], 6.0)],
                              samples=[([0.0], 5.0), ([1.0], 6.0)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    cpath = write(tmp_path / "cert.json", {"theta": float(theta), "scenarios": [
        {"z": 5.0, "eta": 0.0, "zeta": 0.0}] * 2})
    for argv in (["newsvendor", "solve", "--theta", theta],
                 ["newsvendor", "loss", "--theta", theta],
                 ["newsvendor", "gridsearch", "--grid", "1.0," + theta],
                 ["newsvendor", "verify", "--certificate", cpath],
                 ["verify", "--certificate", cpath]):
        code, out, err = run(capsys, *argv, "--problem", ppath)
        assert (code, out) == (1, "") and "bandwidth must lie in" in err
        assert "2^340" in err and "Traceback" not in err


def test_newsvendor_remote_points_exit_1(tmp_path, capsys):
    """A coordinate beyond 2^340 in magnitude is an input error, and so is a
    sample so far from every center that all its kernel weights underflow;
    neither gives NaN weights."""
    far = NewsvendorInstance(h=1.0, b=3.0, centers=[([-1e60], 4.0), ([1e60], 6.0)],
                             samples=[([0.0], 5.0)]).to_dict()
    code, out, err = run(capsys, "newsvendor", "solve", "--problem",
                         write(tmp_path / "far.json", far), "--theta", "1e-100")
    assert (code, out) == (1, "") and "kernel weights underflow" in err
    huge = dict(far, samples=[{"x": [1e160], "y": 5.0}])
    code, out, err = run(capsys, "newsvendor", "solve", "--problem",
                         write(tmp_path / "huge.json", huge), "--theta", "1.0")
    assert (code, out) == (1, "") and "magnitude at most 2^340" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newsvendor_solve_brackets_a_demand_past_20_theta_and_warns_nothing(tmp_path, capsys):
    """A demand of 1e20 absorbs 20 theta at theta = 1e-3 and 1e-6; its
    sample's order quantity is the float above 1e20, where its CDF reaches
    1. Centers at 1e-200 and 1e300 at theta = 1e-102 put (y - y_m) / theta
    past the float range; the order quantities print with nothing on
    standard error."""
    pts = [([0.0], 1.0), ([1.0], 1e20)]
    big = write(tmp_path / "big.json", NewsvendorInstance(
        h=1.0, b=3.0, centers=pts, samples=pts).to_dict())
    for theta in ("1e-3", "1e-6"):
        code, out, err = run(capsys, "newsvendor", "solve", "--problem", big, "--theta", theta)
        assert (code, err) == (0, "")
        assert json.loads(out)["decisions"][1] == np.nextafter(1e20, np.inf)
    pts = [([0.0], 1e-200), ([0.0], 1e300)]
    far = write(tmp_path / "far.json", NewsvendorInstance(
        h=1.0, b=3.0, centers=pts, samples=pts).to_dict())
    code, out, err = run(capsys, "newsvendor", "solve", "--problem", far, "--theta", "1e-102")
    assert (code, err) == (0, "") and json.loads(out)["decisions"] == [1e300, 1e300]


def test_gph_normal_witness_rows_keep_the_callers_numbering(tmp_path, capsys):
    """The zero row 0 is dropped, and the witness names the active rows 1
    and 2 as the query numbers them, as the message of a violated row does."""
    query = {"Z": {"A": [[0, 0], [-1, 0], [0, -1]], "b": [1, 0, 0]},
             "z": [0, 0], "g": [1, 2], "zeta": [0, 0], "eta": [0, 0]}
    q = write(tmp_path / "q.json", query)
    with pytest.warns(UserWarning, match="dropping 1 zero rows"):
        code, out, _ = run(capsys, "gph-normal", "--input", q, "--method", "direct")
    assert code == 0 and json.loads(out)["witness"] == {
        "equality_rows": [1, 2], "inequality_rows": [], "near_threshold_rows": []}
    q = write(tmp_path / "q.json", {**query, "z": [-1, 0]})
    with pytest.warns(UserWarning, match="dropping 1 zero rows"):
        code, out, _ = run(capsys, "gph-normal", "--input", q, "--method", "direct")
    assert code == 0 and "violates row 1" in json.loads(out)["witness"]["reason"]


# ---------------------------------------------------------------------------
# application actions

def test_portfolio_actions(tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    tpath = write(tmp_path / "theta.json", [[0.3, 0.1], [0.05, 0.25]])

    code, out, _ = run(capsys, "spo-portfolio", "loss", "--problem", ppath,
                       "--theta", tpath)
    assert code == 0 and json.loads(out)["objective"] <= 1e-10

    code, out, _ = run(capsys, "spo-portfolio", "fit", "--problem", ppath)
    assert code == 0
    assert np.max(np.abs(np.asarray(json.loads(out)["theta"])
                         - [[0.3, 0.1], [0.05, 0.25]])) < 1e-6

    code, out, _ = run(capsys, "spo-portfolio", "solve", "--problem", ppath,
                       "--theta", tpath)
    assert code == 0 and len(json.loads(out)["decisions"]) == 5


@pytest.mark.parametrize("theta", [[[True, 0.1], [0.05, 0.25]], [[0.3, 0.1], [0.05, "0.25"]],
                                   [[0.3, 0.1], [0.05]]])
def test_portfolio_theta_file_with_non_numbers_exits_1(theta, tmp_path, capsys):
    """A JSON true or "0.25" in --theta is not read as a number, at any depth."""
    ppath, _ = portfolio_problem_and_cert(tmp_path)
    tpath = write(tmp_path / "theta.json", theta)
    for action in ("loss", "solve", "certificate"):
        code, out, err = run(capsys, "spo-portfolio", action, "--problem", ppath,
                             "--theta", tpath)
        assert (code, out) == (1, "") and "theta must be an array of finite numbers" in err


@pytest.mark.parametrize("value", [
    [1.5, -0.0, 2], [2 ** 53 + 1, 3], [[1.0, 2], [-0.0, 4.5]], [[0.1]], [[]], [[], []],
    [], [[[1.0]]], [[1.0], 2.0], [[1.0, 2.0], [3.0]], [1.0, True], [[1.0], ["2"]],
    [1.0, float("nan")], [[float("inf")]], [10 ** 400], [[1.0], [10 ** 400]], 1.5, "1"])
def test_finite_array_reads_as_numpy_does(value):
    """A list of numbers, or of lists of numbers of one length, read by the
    scans of cones.finite_array, which reads --theta and a query's A and b,
    has the bytes, shape and dtype of np.asarray's array; anything else,
    valid or not, is read or refused with the same message."""
    def outcome(read):
        try:
            array = read(value, "theta")
        except ValueError as exc:
            return str(exc)
        return array.shape, array.dtype, array.tobytes()

    assert outcome(finite_array) == outcome(array_oracle)


@pytest.mark.parametrize("action", ["loss", "solve", "certificate", "search"])
def test_portfolio_theta_file_is_read_flat_or_as_the_matrix(action, tmp_path, capsys):
    """Every action that reads --theta reads pf1's 2 by 3 theta flat with the
    bytes it gives for the matrix; any other shape exits 1 naming both."""
    options = ["--problem", str(GOLDEN / "pf1.problem.json"), "--steps", "3", "--theta"]
    theta = json.loads((GOLDEN / "pf1.theta.json").read_text())
    code, out, _ = run(capsys, "spo-portfolio", action, *options, str(GOLDEN / "pf1.theta.json"))
    flat = write(tmp_path / "flat.json", np.ravel(theta).tolist())
    assert code == 0 and run(capsys, "spo-portfolio", action, *options, flat) == (0, out, "")
    for shaped, shape in ((np.transpose(theta), "(3, 2)"), ([theta], "(1, 2, 3)"),
                          (np.ravel(theta)[:-1], "(5,)")):
        path = write(tmp_path / "bad.json", np.asarray(shaped).tolist())
        code, out, err = run(capsys, "spo-portfolio", action, *options, path)
        assert (code, out) == (1, "") and err == (
            "error: theta must be a vector of 6 entries or a 2 by 3 matrix; got shape %s\n"
            % shape)


def test_newsvendor_actions(tmp_path, capsys):
    inst = NewsvendorInstance(h=1.0, b=3.0,
                              centers=[([0.0], 5.0), ([1.0], 6.0)],
                              samples=[([0.0], 5.0), ([1.0], 6.0)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    code, out, _ = run(capsys, "newsvendor", "solve", "--problem", ppath,
                       "--theta", "1.0")
    assert code == 0 and len(json.loads(out)["decisions"]) == 2
    code, out, _ = run(capsys, "newsvendor", "loss", "--problem", ppath,
                       "--theta", "1.0")
    assert code == 0 and json.loads(out)["objective"] >= 0.0
    code, out, _ = run(capsys, "newsvendor", "gridsearch", "--problem", ppath,
                       "--grid", "0.5,1.0,2.0")
    assert code == 0 and json.loads(out)["theta"] in (0.5, 1.0, 2.0)


def test_newsvendor_verify_without_a_certificate_exits_1():
    """`newsvendor verify` without --certificate is an input error naming
    the option, exit 1, and prints no traceback."""
    problem = str(Path(__file__).parent / "golden" / "nv1.problem.json")
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-m", "mstat.cli", "newsvendor", "verify",
                           "--problem", problem],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "--certificate" in proc.stderr and "Traceback" not in proc.stderr


FD_TERMS = ["curvature", "g", "generators", "grad_theta"]


def test_fd_check(tmp_path, capsys):
    """fd-check at a newsvendor certificate with eta != 0 reports every
    term, the bandwidth slope of the CDF (in generators) included, and
    passes; --format text prints one line per term and the verdict."""
    inst = NewsvendorInstance(h=1.0, b=3.0,
                              centers=[([0.0], 5.0), ([1.0], 6.0)],
                              samples=[([0.0], 5.0), ([0.7], 5.5)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    cpath = write(tmp_path / "cert.json", {"theta": 0.8, "scenarios": [
        {"z": 5.2, "eta": 0.7, "zeta": 0.0}, {"z": 4.1, "eta": -1.5, "zeta": 0.0}]})
    code, out, err = run(capsys, "fd-check", "--problem", ppath, "--certificate", cpath)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["pass"] is True and data["tol"] == 1e-6 and sorted(data["terms"]) == FD_TERMS
    assert all(t["max_rel_err"] <= 1e-6 and t["scenario"] in (0, 1)
               for t in data["terms"].values())
    code, out, _ = run(capsys, "fd-check", "--problem", ppath, "--certificate", cpath,
                       "--format", "text")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "tol 1e-06: PASS"
    assert sorted(line.split(":")[0] for line in lines[:-1]) == FD_TERMS


@pytest.mark.parametrize("problem, cert_file", GOLDEN_VERIFY_PAIRS)
def test_fd_check_passes_on_every_golden_verify_pair(problem, cert_file, capsys):
    code, out, err = run(capsys, "fd-check", "--problem", str(GOLDEN / problem),
                         "--certificate", str(GOLDEN / cert_file))
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True


# (problem, certificate, term, scenario): each seeds an error in one row of
# a term of the stacked scenario_terms override, where that row is not 0.
SEEDED_RUNS = [("pf1.problem.json", "pf1.eta-shift.json", "curvature", 0),
               ("pf1.problem.json", "pf1.eta-shift.json", "generators", 0),
               ("pf1.problem.json", "pf1.eta-shift.json", "g", 3),
               ("nv1.problem.json", "nv1.eta.json", "curvature", 1),
               ("nv1.problem.json", "nv1.eta.json", "generators", 1),
               ("nv1.problem.json", "nv1.eta.json", "g", 2)]


@pytest.mark.parametrize("problem, cert_file, term, scenario", SEEDED_RUNS)
def test_fd_check_names_the_term_and_scenario_of_a_seeded_error(problem, cert_file, term,
                                                                scenario, monkeypatch, capsys):
    """Scaling curvature or generators by 1 + 1e-3 in one scenario of the
    override that verify reads, or adding 1e-3 to g there (g is about 0 at
    a lower optimum, so a scaled g would not show), exits 2 and names that
    term and scenario; every other term still passes."""
    import mstat.portfolio as PF

    cls = PF.PortfolioProblem if problem.startswith("pf") else NV.NewsvendorProblem
    terms = cls.scenario_terms

    def seeded(self, theta, certificate):
        out = terms(self, theta, certificate)
        block = getattr(out, term).copy()
        block[scenario] = block[scenario] + 1e-3 if term == "g" else block[scenario] * (1 + 1e-3)
        setattr(out, term, block)
        return out

    monkeypatch.setattr(cls, "scenario_terms", seeded)
    argv = ["fd-check", "--problem", str(GOLDEN / problem), "--certificate",
            str(GOLDEN / cert_file)]
    code, out, _ = run(capsys, *argv)
    data = json.loads(out)
    assert code == 2 and data["pass"] is False
    seeded = data["terms"][term]
    assert seeded["scenario"] == scenario and seeded["max_rel_err"] > 1e-5
    assert all(t["max_rel_err"] <= 1e-6 for name, t in data["terms"].items() if name != term)
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 2 and out.splitlines()[-1] == "tol 1e-06: FAIL"
    assert ("%s: max rel err" % term) in out and ("at scenario %d\n" % scenario) in out


@pytest.mark.parametrize("option", [["--op", "lower-grad-z"], ["--op", "grad-theta-cdf"],
                                    ["--trials", "5"], ["--atol", "1e-9"], ["--seed", "1"]])
def test_fd_check_removed_options_exit_1(option, tmp_path, capsys):
    """The options of the per-application checks are gone: each is a usage
    error, exit 1 with no report and no traceback."""
    argv = _tol_runs(tmp_path)["fd-check"]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, *option)
    assert (code, out) == (1, "") and "unrecognized arguments" in err
    assert "Traceback" not in err


def test_fd_check_refuses_inputs_as_verify_does(tmp_path, capsys):
    """verify and fd-check read --problem and --certificate through one
    loader and one certificate check: a bad input gives both the same exit
    1 and the same message."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    cert = json.loads(open(cpath).read())
    first = cert["scenarios"][0]
    docs = {"too few scenarios": {**cert, "scenarios": cert["scenarios"][:-1]},
            "theta shape": {**cert, "theta": [1.0, 2.0, 3.0]},
            "z length": {**cert, "scenarios": [{**first, "z": [0.5]}] + cert["scenarios"][1:]},
            "no theta": {"scenarios": cert["scenarios"]},
            "nan eta": {**cert, "scenarios": [{**first, "eta": [float("nan"), 0.0]}]
                        + cert["scenarios"][1:]}}
    for name, doc in docs.items():
        bad = write(tmp_path / "bad.json", doc)
        verify, fd = (run(capsys, command, "--problem", ppath, "--certificate", bad)
                      for command in ("verify", "fd-check"))
        assert verify == fd and verify[:2] == (1, "") and verify[2].startswith("error: "), name
    unknown = write(tmp_path / "unknown.json", {"type": "knapsack"})
    verify, fd = (run(capsys, command, "--problem", unknown, "--certificate", cpath)
                  for command in ("verify", "fd-check"))
    assert verify == fd == (1, "", "error: unknown problem type: 'knapsack'\n")


def test_fd_check_names_a_theta_below_its_step(tmp_path, capsys):
    """At a bandwidth below the difference step, which verify reports on
    (exit 2, theta outside its bounds), fd-check exits 1 with a message that
    names the certificate's theta and the step, before the model's own
    message about theta - step."""
    cert = {**json.loads((GOLDEN / "nv4.pass.json").read_text()), "theta": 5e-7}
    argv = ("--problem", str(GOLDEN / "nv4.problem.json"),
            "--certificate", write(tmp_path / "small.json", cert))
    assert run(capsys, "verify", *argv)[0] == 2
    code, out, err = run(capsys, "fd-check", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: a difference step of 1e-06 from the certificate's theta "
                          "[5e-07] leaves the problem's domain: ")


# ---------------------------------------------------------------------------
# error handling

def test_portfolio_samples_csv_override(tmp_path, capsys):
    inst = PortfolioInstance(sigma=np.eye(2), risk_aversion=1.0,
                             samples=[([1.0, 0.0], [0.3, 0.1])])
    ppath = write(tmp_path / "prob.json", inst.to_dict())
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("x_1,x_2,r_1,r_2\n1.0,0.0,0.3,0.1\n0.0,1.0,0.05,0.25\n")
    tpath = write(tmp_path / "theta.json", [[0.3, 0.1], [0.05, 0.25]])
    code, out, _ = run(capsys, "spo-portfolio", "solve", "--problem", ppath,
                       "--theta", tpath, "--samples-csv", str(csv_path))
    assert code == 0 and len(json.loads(out)["decisions"]) == 2


def test_fd_check_portfolio_grad(tmp_path, capsys):
    """fd-check at a portfolio certificate off the fitted theta, with a
    non-zero eta in every scenario, passes at --tol 1e-5."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path, perturb=0.1)
    cert = json.loads(open(cpath).read())
    for n, scenario in enumerate(cert["scenarios"]):
        scenario["eta"] = [0.3 - 0.2 * n, 0.1 * n - 0.25]
    cpath = write(tmp_path / "eta.json", cert)
    code, out, _ = run(capsys, "fd-check", "--problem", ppath, "--certificate", cpath,
                       "--tol", "1e-5")
    assert code == 0 and json.loads(out)["pass"] is True


def test_malformed_json_reports_location(tmp_path, capsys):
    """The line and column of a JSON error, also after a byte order mark."""
    bad = tmp_path / "bad.json"
    for bom in (b"", b"\xef\xbb\xbf"):
        bad.write_bytes(bom + b"{ nope")
        code, _, err = run(capsys, "gph-normal", "--input", str(bad))
        assert code == 1 and err == ("error: malformed JSON in %s: line 1 column 3: Expecting "
                                     "property name enclosed in double quotes\n" % bad)


def test_undecodable_bytes_name_their_file(tmp_path, capsys):
    """Bytes that no JSON encoding decodes, a query read as UTF-16 that ends
    in half a code unit and a certificate read as UTF-8 that starts with
    0xff, are malformed JSON in the file that holds them: exit 1, nothing on
    standard output."""
    query, cert = tmp_path / "bad.json", tmp_path / "cert.json"
    query.write_bytes(b"\xff\xfe\xfd")
    cert.write_bytes(b"\xff\x00\x41")
    for path, argv in ((query, ["gph-normal", "--input", str(query)]),
                       (cert, ["verify", "--problem", str(GOLDEN / "pf3.problem.json"),
                               "--certificate", str(cert)])):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed JSON in %s: " % path) and "decode" in err


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
@pytest.mark.parametrize("argv", [
    ["gph-normal", "--input", "gq.member.json"],
    ["verify", "--problem", "nv4.problem.json", "--certificate", "nv4.pass.json"],
    ["verify", "--problem", "pf3.problem.json", "--certificate", "pf3.cert.json"],
], ids=lambda argv: argv[0] if len(argv) == 3 else argv[2].split(".")[0])
def test_json_files_with_a_byte_order_mark_read_as_plain_utf8(argv, encoding, tmp_path, capsys):
    """A query, or a problem and its certificate, written with a byte order
    mark (UTF-8, UTF-16 or UTF-32) prints the bytes of the same files in
    plain UTF-8."""
    plain = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    marked = []
    for a in argv:
        if a.endswith(".json"):
            path = tmp_path / a
            path.write_bytes((GOLDEN / a).read_text().encode(encoding))
            a = str(path)
        marked.append(a)
    want = run(capsys, *plain)
    assert want[0] == 0 and want[1]
    assert run(capsys, *marked) == want


def test_main_reuses_one_parser_and_leaks_no_option(tmp_path, capsys):
    """A sequence of in-process calls prints what each call prints alone,
    and the parser is built once for the whole sequence."""
    from mstat import cli

    q = write(tmp_path / "q.json", {"Z": "orthant", "z": [0.0], "g": [0.0],
                                    "zeta": [-2.0], "eta": [-3.0]})
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    calls = [["gph-normal", "--input", q, "--format", "text", "--tol", "1e-3"],
             ["verify", "--problem", ppath],
             ["verify", "--problem", ppath, "--certificate", cpath]]
    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert [code for code, _, _ in alone] == [0, 1, 0]
    assert json.loads(alone[2][1])["tol"] == 1e-8
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == alone
    assert cli.build_parser.cache_info().misses == 1
    args = cli.build_parser().parse_args(["verify", "--problem", "p", "--certificate", "c"])
    assert (args.tol, args.format, args.mode, args.report) == (None, "json", "convex", None)


def test_unknown_flag_rejected(capsys):
    assert main(["verify", "--problem", "x", "--certificate", "y",
                 "--nonsense"]) == 1


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["frobnicate", "--input", "q.json"],
    ["verify", "--help"],
    ["verify", "--problem", "p.json"],
    ["gph-normal", "--input", "q.json", "--method", "magic"],
    ["gph-normal", "--input", "q.json", "--tol", "-1"],
    ["verify", "--problem", "p.json", "--certificate", "c.json", "stray"],
    ["gph-normal", "--input=q.json", "--method", "magic"],
    ["verify", "--prob", "p.json"],
    ["gph-normal", "--input", "q.json", "--input"],
    ["gph-normal", "--input", "q.json", "--method", "magic", "--method", "auto"],
    ["newsvendor", "solve", "--problem", "p.json", "-h"],
], ids=lambda argv: " ".join(argv) or "no argv")
def test_usage_errors_keep_their_bytes(argv, capsys):
    """main(argv) exits with the code, and prints the stdout and stderr,
    that the top-level parser's parse_args(argv) gives: a line that the
    command's option table refuses goes to argparse, which writes every
    help text and error message."""
    from mstat.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = (0 if exc.value.code in (0, None) else 1, *capsys.readouterr())
    assert want[1] or want[2]
    assert run(capsys, *argv) == want


def test_a_line_that_the_table_refuses_and_argparse_accepts_runs(capsys):
    """--theta -1 starts with "-", so the option table refuses the line;
    argparse reads -1 as a negative number, and the command refuses the
    bandwidth (exit 1)."""
    from mstat import cli

    argv = ["newsvendor", "solve", "--problem", str(GOLDEN / "nv1.problem.json"), "--theta", "-1"]
    assert cli._read(cli.build_parser().tables["newsvendor"], argv[1:]) is None
    assert cli.build_parser().parse_args(argv).theta == -1.0
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "bandwidth" in err


def command_parsers():
    """Each command's own argparse parser, by name."""
    from mstat.cli import build_parser

    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# Values for any option or positional: numbers, negative numbers, names that
# are choices of some option, the empty string, "-" and "--", and a space.
LINE_VALUES = ["q.json", "0.5", "1e-3", "3", "nan", "0.1,0.2", "-1", "-x", "-", "--", "",
               "auto", "magic", "text", "penalized", "solve", "fit", "portfolio", "a b"]


@st.composite
def command_lines(draw):
    """A command name and tokens from its parser: each required action,
    mostly, and more actions, in any order and any number of times, with
    full or abbreviated spellings, as --opt=value or without a value, and
    sometimes -h or a stray token. A value is one of the action's choices,
    or a number where it has none, or any of LINE_VALUES."""
    parsers = command_parsers()
    name = draw(st.sampled_from(sorted(parsers)))
    actions = [a for a in parsers[name]._actions if a.nargs is None]
    chosen = [a for a in actions if a.required and draw(st.integers(0, 9))]
    chosen += draw(st.lists(st.sampled_from(actions), max_size=3))
    groups = []
    for action in chosen:
        value = draw(st.sampled_from(list(action.choices or ["3", "0.5"]))
                     | st.sampled_from(LINE_VALUES))
        if not action.option_strings:
            groups.append([value])
            continue
        spelling = action.option_strings[0]
        form = draw(st.sampled_from(["full"] * 6 + ["abbreviated", "equals", "bare"]))
        if form == "abbreviated":
            spelling = spelling[:draw(st.integers(3, len(spelling)))]
        groups.append([spelling + "=" + value] if form == "equals" else
                      [spelling] if form == "bare" else [spelling, value])
    groups += draw(st.lists(st.sampled_from([["-h"], ["--help"], ["stray"]]), max_size=1))
    return [name] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(max_examples=500, deadline=None)
@given(command_lines())
@example(["gph-normal", "--input", "q.json", "--method", "magic", "--method", "auto"])
@example(["gph-normal", "--input", "q.json", "--method", "auto", "--method", "direct"])
@example(["newsvendor", "solve", "loss", "--problem", "p.json"])
@example(["newsvendor", "solve", "--problem", "3", "--theta", "nan"])
def test_reading_a_line_agrees_with_argparse(argv):
    """_parse(argv) gives the namespace of build_parser().parse_args(argv),
    each value compared by its repr, so that two NaNs read from "nan" agree;
    where parse_args exits, the option table refuses the line and main(argv)
    gives parse_args' exit code, stdout and stderr."""
    from mstat import cli

    def captured(call):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                result = call(argv)
            except SystemExit as exc:
                result = 0 if exc.code in (0, None) else 1
        return result, out.getvalue(), err.getvalue()

    want = captured(cli.build_parser().parse_args)
    if isinstance(want[0], argparse.Namespace):
        def reprs(namespace):
            return {key: repr(value) for key, value in vars(namespace).items()}

        assert reprs(cli._parse(argv)) == reprs(want[0])
    else:
        assert cli._read(cli.build_parser().tables[argv[0]], argv[1:]) is None
        assert captured(main) == want


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--problem", str(tmp_path / "nope.json"),
                       "--certificate", str(tmp_path / "nope2.json"))
    assert code == 1 and "no such file" in err


def test_newsvendor_bad_input_exits_1(tmp_path, capsys):
    inst = NewsvendorInstance(h=1.0, b=3.0,
                              centers=[([0.0, 0.0, 0.0], 5.0), ([1.0, 0.0, 0.0], 6.0)],
                              samples=[([0.0, 0.0, 0.0], 5.0)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    for theta in ("nan", "inf", "-1"):
        code, out, err = run(capsys, "newsvendor", "solve", "--problem", ppath,
                             "--theta", theta)
        assert code == 1 and out == "" and "bandwidth" in err
    short = inst.to_dict()
    short["samples"][0]["x"] = [0.0]
    code, out, err = run(capsys, "newsvendor", "solve", "--problem",
                         write(tmp_path / "short.json", short), "--theta", "1.0")
    assert code == 1 and out == "" and "x coordinates" in err
    for key in ("z", "eta", "zeta"):
        entry = {"z": 5.0, "eta": 0.0, "zeta": 0.0, key: float("nan")}
        cert = {"theta": 1.0, "scenarios": [entry]}
        cpath = write(tmp_path / "cert.json", cert)
        for argv in (["newsvendor", "verify"], ["verify"]):
            code, out, err = run(capsys, *argv, "--problem", ppath, "--certificate", cpath)
            assert code == 1 and out == "" and "finite" in err


def test_lp_errors_exit_1(capsys, monkeypatch):
    """An LP error of a coderivative query exits 1. gq.not-member asks
    whether zeta lies in cone(A_P) + span(A_E) where the factorization's
    coefficients are negative on a cone row, so that question takes the LP."""
    import mstat.cones as C
    from mstat.lp import LPLimitError, LPUnbounded

    q = str(GOLDEN / "gq.not-member.json")
    for exc in (LPUnbounded, LPLimitError):
        def solver(*args, **kw):
            raise exc("raised by the test")
        monkeypatch.setattr(C, "phase1_point", solver)
        code, out, err = run(capsys, "gph-normal", "--input", q, "--method", "direct")
        assert code == 1 and out == "" and "raised by the test" in err


# ---------------------------------------------------------------------------
# input boundary: non-finite and mis-shaped input is exit 1

# (command, problem, certificate) runs of golden cases, and the certificate
# keys the verifiers read; any other key is ignored.
BOUNDARY_RUNS = [(["verify", "--mode", "convex"], "pf3.problem.json", "pf3.cert.json"),
                 (["verify", "--mode", "penalized"], "pf1.problem.json", "pf1.mu.json"),
                 (["verify", "--mode", "convex"], "nv4.problem.json", "nv4.pass.json"),
                 (["newsvendor", "verify"], "nv4.problem.json", "nv4.pass.json"),
                 (["newsvendor", "verify"], "nv3.problem.json", "nv3.branches.json"),
                 (["fd-check"], "pf1.problem.json", "pf1.mu.json"),
                 (["fd-check"], "nv4.problem.json", "nv4.pass.json")]
READ_KEYS = {"theta", "scenarios", "z", "eta", "zeta", "mu", "value_weights"}
BAD_ENTRIES = [float("nan"), float("inf"), float("-inf"), True, False, "1.0", None, {}]


def certificate_paths(doc, path=()):
    """The path of every value in doc under a key the verifiers read."""
    if isinstance(doc, dict):
        items = [(k, v) for k, v in doc.items() if k in READ_KEYS]
    else:
        items = list(enumerate(doc)) if isinstance(doc, list) else []
    return [p for k, v in items for p in [path + (k,)] + certificate_paths(v, path + (k,))]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def boundary_cases(draw):
    """A golden run with its certificate mutated at one path, or with one
    required option left out: (kind, argv, options, certificate, golden
    certificate file). An option given as None names the mutated file."""
    argv, problem, cert_file = draw(st.sampled_from(BOUNDARY_RUNS))
    options = {"--problem": str(GOLDEN / problem), "--certificate": None}
    cert = json.loads((GOLDEN / cert_file).read_text())
    kind = draw(st.sampled_from(["drop", "entry", "nest", "length", "option"]))
    paths = certificate_paths(cert)
    if kind == "option":
        del options[draw(st.sampled_from(sorted(options)))]
        return kind, argv, options, cert, cert_file
    if kind == "drop":
        paths = [p for p in paths if isinstance(p[-1], str)]
    elif kind == "length":
        paths = [p for p in paths if isinstance(_at(cert, p), list)]
    path = draw(st.sampled_from(paths))
    parent, key = _at(cert, path[:-1]), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "entry":
        parent[key] = draw(st.sampled_from(BAD_ENTRIES))
    elif kind == "nest":
        parent[key] = [parent[key]]
    elif draw(st.booleans()):
        parent[key] = parent[key][:-1]
    else:
        parent[key] = parent[key] + parent[key][-1:]
    return kind, argv, options, cert, cert_file


def run_quietly(argv, options, cert_path):
    """main's exit code and standard output; standard error is dropped."""
    argv = list(argv) + [a for opt, value in options.items()
                         for a in (opt, cert_path if value is None else value)]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(boundary_cases())
def test_verify_input_boundary_property(case):
    """A golden certificate with a key dropped, an entry made NaN, Infinity,
    a boolean, a string, null or an object, a value wrapped in a list, a list
    made one entry shorter or longer, or with --problem or --certificate
    left out: main() never raises and exits 0, 1 or 2, and only a passing
    report exits 0. A bad entry, a wrong length and a missing option exit 1
    with no report. A wrapped value exits 1 or reads as the value itself,
    giving the golden output; the newsvendor reads a one-entry list as its
    number, and a portfolio theta is read only as a vector of d_x d_z
    entries or as the d_x by d_z matrix, so a wrapped one exits 1."""
    kind, argv, options, cert, cert_file = case
    with tempfile.TemporaryDirectory() as tmp:
        # json.dumps writes non-finite floats as the literals NaN and Infinity.
        code, out = run_quietly(argv, options, write(Path(tmp) / "cert.json", cert))
    assert code in (0, 1, 2)
    assert (code == 0) == ('"pass": true' in out), (cert, argv)
    if kind in ("entry", "length", "option"):
        assert (code, out) == (1, ""), (cert, argv, options)
    if kind == "nest" and code != 1:
        assert (code, out) == run_quietly(argv, options, str(GOLDEN / cert_file)), cert


# newsvendor problem files: the actions that read one, and the keys they read
NV_PROBLEM_RUNS = [["newsvendor", "solve", "--theta", "0.5"],
                   ["newsvendor", "loss", "--theta", "0.5"],
                   ["newsvendor", "gridsearch", "--grid", "0.1,0.5,2"]]
NV_READ_KEYS = {"h", "b", "centers", "samples", "x", "y", "theta_bounds", "weights"}
NV_BAD_ENTRIES = [float("nan"), float("inf"), float("-inf"), True, False, "1.0", None]


def problem_paths(doc, keys=NV_READ_KEYS, path=()):
    """The path of every value in a problem under a key it reads: keys,
    those of a newsvendor problem by default."""
    if isinstance(doc, dict):
        items = [(k, v) for k, v in doc.items() if k in keys]
    else:
        items = list(enumerate(doc)) if isinstance(doc, list) else []
    return [p for k, v in items for p in [path + (k,)] + problem_paths(v, keys, path + (k,))]


@st.composite
def newsvendor_problem_cases(draw):
    """(argv, problem, valid): a golden newsvendor problem with one key
    dropped, one entry made NaN, Infinity, a boolean, a string or null, or
    one list made one entry shorter or longer. valid says whether the result
    is still a problem: dropping the optional theta_bounds or weights, or
    changing the number of centers, or of samples when no weights are
    given."""
    argv = draw(st.sampled_from(NV_PROBLEM_RUNS))
    problem = json.loads((GOLDEN / draw(st.sampled_from(
        ["nv1.problem.json", "nv2.problem.json", "nv3.problem.json", "nv4.problem.json"]))
    ).read_text())
    kind = draw(st.sampled_from(["drop", "entry", "length"]))
    paths = problem_paths(problem)
    if kind == "drop":
        paths = [p for p in paths if isinstance(p[-1], str)]
    elif kind == "length":
        paths = [p for p in paths if isinstance(_at(problem, p), list)]
    path = draw(st.sampled_from(paths))
    parent, key = _at(problem, path[:-1]), path[-1]
    valid = False
    if kind == "drop":
        del parent[key]
        valid = path in (("theta_bounds",), ("weights",))
    elif kind == "entry":
        parent[key] = draw(st.sampled_from(NV_BAD_ENTRIES))
    else:
        parent[key] = parent[key][:-1] if draw(st.booleans()) else parent[key] + parent[key][-1:]
        valid = path == ("centers",) or (path == ("samples",) and "weights" not in problem)
    return argv, problem, valid


def nv_golden_problem(stem, **entries):
    return {**json.loads((GOLDEN / (stem + ".problem.json")).read_text()), **entries}


@settings(max_examples=200, deadline=None)
@given(newsvendor_problem_cases())
@example((NV_PROBLEM_RUNS[0], nv_golden_problem("nv1", weights=None), False))
@example((NV_PROBLEM_RUNS[2], nv_golden_problem("nv3", theta_bounds=None), False))
@example((NV_PROBLEM_RUNS[1], nv_golden_problem("nv4", h=True), False))
def test_newsvendor_problem_input_boundary_property(case):
    """`newsvendor solve`, `loss` and `gridsearch` on a mutated golden
    problem: main() never raises and prints no traceback. A mutation that
    leaves a problem exits 0 with the action's answer; any other exits 1
    and prints no decision, objective or bandwidth."""
    argv, problem, valid = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        # json.dumps writes non-finite floats as the literals NaN and Infinity.
        path = write(Path(tmp) / "problem.json", problem)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--problem", path])
    assert "Traceback" not in err.getvalue()
    if valid:
        assert code == 0 and json.loads(out.getvalue())["action"] == argv[1], err.getvalue()
    else:
        assert (code, out.getvalue()) == (1, ""), (problem, argv)


# portfolio problem files: runs that read one (the problem comes last), and
# the keys they read
PF_PROBLEM_RUNS = [
    head + [stem + suffix]
    for stem, cert in (("pf1", ".exact.json"), ("pf2", ".exact.json"), ("pf3", ".cert.json"))
    for head, suffix in ((["verify", "--mode", "convex", "--certificate"], cert),
                         (["verify", "--mode", "penalized", "--certificate"], cert),
                         (["spo-portfolio", "loss", "--theta"], ".theta.json"),
                         (["spo-portfolio", "solve", "--theta"], ".theta.json"))]
PF_READ_KEYS = {"sigma", "lambda", "samples", "x", "r", "weights"}


# The theta of a run's certificate or --theta file as the d_x by d_z matrix,
# as the flat vector, or in a shape that is neither.
THETA_SHAPES = {"matrix": lambda t: t, "flat": np.ravel,
                "column": lambda t: np.reshape(t, (-1, 1)), "nested": lambda t: [t],
                "short": lambda t: np.ravel(t)[:-1], "transposed": np.transpose}


def shaped_theta_file(directory, name, shape):
    """The golden certificate or theta file name, with its theta in shape,
    written to directory; the golden file itself for the matrix."""
    if shape == "matrix":
        return str(GOLDEN / name)
    problem = json.loads((GOLDEN / (name.split(".")[0] + ".problem.json")).read_text())
    doc = json.loads((GOLDEN / name).read_text())
    theta = doc["theta"] if isinstance(doc, dict) else doc
    theta = np.reshape(theta, (len(problem["samples"][0]["x"]), len(problem["sigma"])))
    theta = np.asarray(THETA_SHAPES[shape](theta)).tolist()
    doc = {**doc, "theta": theta} if isinstance(doc, dict) else theta
    return write(Path(directory) / name, doc)


@st.composite
def portfolio_problem_cases(draw):
    """(argv, problem, theta shape, valid): the golden portfolio problem of a
    run with one key dropped, one entry made NaN, Infinity, a boolean, a
    string or null, or one list made one entry shorter or longer, and the
    run's theta in one of THETA_SHAPES. valid says whether the result is
    still a problem with a theta: only dropping the optional weights keeps a
    problem, and only the matrix and the flat vector are a theta."""
    argv = draw(st.sampled_from(PF_PROBLEM_RUNS))
    shape = draw(st.sampled_from(sorted(THETA_SHAPES)))
    problem = json.loads((GOLDEN / (argv[-1].split(".")[0] + ".problem.json")).read_text())
    kind = draw(st.sampled_from(["drop", "entry", "length"]))
    paths = problem_paths(problem, PF_READ_KEYS)
    if kind == "drop":
        paths = [p for p in paths if isinstance(p[-1], str)]
    elif kind == "length":
        paths = [p for p in paths if isinstance(_at(problem, p), list)]
    path = draw(st.sampled_from(paths))
    parent, key = _at(problem, path[:-1]), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "entry":
        parent[key] = draw(st.sampled_from(NV_BAD_ENTRIES))
    else:
        parent[key] = parent[key][:-1] if draw(st.booleans()) else parent[key] + parent[key][-1:]
    return argv, problem, shape, kind == "drop" and path == ("weights",) \
        and shape in ("matrix", "flat")


def pf_golden_problem(stem, **entries):
    return {**json.loads((GOLDEN / (stem + ".problem.json")).read_text()), **entries}


@settings(max_examples=200, deadline=None)
@given(portfolio_problem_cases())
@example((PF_PROBLEM_RUNS[2], pf_golden_problem("pf1", weights=None), "matrix", False))
@example((PF_PROBLEM_RUNS[1], pf_golden_problem("pf1", **{"lambda": float("nan")}), "matrix",
          False))
@example((PF_PROBLEM_RUNS[3], pf_golden_problem("pf3", weights=[0.5, float("inf")]), "matrix",
          False))
@example((PF_PROBLEM_RUNS[2], {k: v for k, v in pf_golden_problem("pf1").items()
                               if k != "weights"}, "flat", True))
@example((PF_PROBLEM_RUNS[3], {k: v for k, v in pf_golden_problem("pf2").items()
                               if k != "weights"}, "column", False))
def test_portfolio_problem_input_boundary_property(case):
    """`verify` in both modes and `spo-portfolio loss` and `solve` on a
    mutated golden portfolio problem, with theta in one of THETA_SHAPES:
    main() never raises, prints no traceback and exits 0, 1 or 2. A
    mutation that leaves a problem gives the action's answer, with a flat
    theta the bytes it gives with the matrix; any other, a non-finite entry
    or a theta of another shape among them, exits 1 and prints nothing, so
    never "member": true."""
    argv, problem, shape, valid = case

    def outputs(theta_shape):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            # json.dumps writes non-finite floats as the literals NaN and Infinity.
            path = write(Path(tmp) / "problem.json", problem)
            args = argv[:-1] + [shaped_theta_file(tmp, argv[-1], theta_shape)]
            with redirect_stdout(out), redirect_stderr(err):
                code = main(args + ["--problem", path])
        return code, out.getvalue(), err.getvalue()

    code, out, err = outputs(shape)
    assert code in (0, 1, 2) and "Traceback" not in err
    if valid:
        assert code in ((0, 2) if argv[0] == "verify" else (0,)) and out, err
        if shape == "flat":
            assert (code, out) == outputs("matrix")[:2]
    else:
        assert (code, out) == (1, ""), (problem, argv, shape)
        assert '"member": true' not in out


def test_null_portfolio_weights_exit_1(tmp_path, capsys):
    """A portfolio problem with "weights": null is an input error that names
    weights, as in a newsvendor problem; leaving the key out reads uniform
    weights."""
    theta = str(GOLDEN / "pf1.theta.json")
    good = pf_golden_problem("pf1")
    for argv in (["spo-portfolio", "loss", "--theta", theta],
                 ["verify", "--certificate", str(GOLDEN / "pf1.exact.json")]):
        code, out, err = run(capsys, *argv, "--problem",
                             write(tmp_path / "null.json", {**good, "weights": None}))
        assert (code, out) == (1, "") and "weights is null" in err, err
        del good["weights"]
        code, out, _ = run(capsys, *argv, "--problem", write(tmp_path / "none.json", good))
        assert code == 0 and out
        good = pf_golden_problem("pf1")


NV_VERIFY_ARGVS = (["verify", "--mode", "convex"], ["verify", "--mode", "penalized"],
                   ["newsvendor", "verify"])
NULL_RUNS = [(["verify", "--mode", "convex"], "pf1.problem.json", "pf1.exact.json", key)
             for key in ("zeta", "mu", "value_weights")] + \
            [(["verify", "--mode", "penalized"], "pf1.problem.json", "pf1.mu.json", key)
             for key in ("zeta", "mu", "value_weights")] + \
            [(argv, "nv4.problem.json", "nv4.pass.json", key) for argv in NV_VERIFY_ARGVS
             for key in ("mu", "value_weights")]


@pytest.mark.parametrize("argv, problem, cert_file, key", NULL_RUNS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_null_certificate_entry_exits_1(argv, problem, cert_file, key, tmp_path, capsys):
    """An explicit null for an optional entry the verifier reads is an input
    error that names the key and the scenario; the same certificate with the
    key left out is read as before. Every base certificate passes."""
    options = ["--problem", str(GOLDEN / problem), "--certificate"]
    assert run(capsys, *argv, *options, str(GOLDEN / cert_file))[0] == 0
    cert = json.loads((GOLDEN / cert_file).read_text())
    cert["scenarios"][1][key] = None
    code, out, err = run(capsys, *argv, *options, write(tmp_path / "null.json", cert))
    assert (code, out) == (1, "") and "certificate scenario 1: %s is null" % key in err, err
    del cert["scenarios"][1][key]
    code, _, _ = run(capsys, *argv, *options, write(tmp_path / "absent.json", cert))
    assert code in (0, 2)


MISSING_RUNS = [(["verify", "--mode", "convex"], "pf1.problem.json", "pf1.exact.json", key)
                for key in ("theta", "scenarios", "z", "eta")] + \
               [(argv, "nv4.problem.json", "nv4.pass.json", key) for argv in NV_VERIFY_ARGVS
                for key in ("theta", "scenarios", "z", "eta", "zeta")]


@pytest.mark.parametrize("argv, problem, cert_file, key", MISSING_RUNS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_missing_certificate_entry_exits_1(argv, problem, cert_file, key, tmp_path, capsys):
    """A certificate without theta or scenarios, or a scenario without one
    of its required entries, is an input error that names the key (and the
    scenario), with no report."""
    cert = json.loads((GOLDEN / cert_file).read_text())
    if key in ("theta", "scenarios"):
        del cert[key]
        want = "the certificate is missing %s" % key
    else:
        del cert["scenarios"][1][key]
        want = "certificate scenario 1 is missing '%s'" % key
    options = ["--problem", str(GOLDEN / problem), "--certificate"]
    code, out, err = run(capsys, *argv, *options, write(tmp_path / "missing.json", cert))
    assert (code, out) == (1, "") and want in err, err


@pytest.mark.parametrize("argv", NV_VERIFY_ARGVS, ids=" ".join)
def test_newsvendor_value_weights_not_a_finite_vector_exit_1(argv, tmp_path, capsys):
    """A newsvendor scenario's value_weights is read as a portfolio
    scenario's is: a string, a non-finite entry or a boolean is an input
    error naming the key and the scenario, with no report."""
    cert = json.loads((GOLDEN / "nv4.pass.json").read_text())
    options = ["--problem", str(GOLDEN / "nv4.problem.json"), "--certificate"]
    for junk in ("junk", [float("nan")], True):
        cert["scenarios"][1]["value_weights"] = junk
        code, out, err = run(capsys, *argv, *options, write(tmp_path / "junk.json", cert))
        assert (code, out) == (1, "") and "certificate scenario 1: value_weights" in err, err


def test_newsvendor_value_weights_reach_the_penalized_system(tmp_path, capsys):
    """With mu > 0, a newsvendor scenario's value_weights combine its
    value-function generators: [1.0] over the one sampled minimizer gives
    the output of no weights, and [0.5], which is no convex combination, is
    an input error."""
    cert = json.loads((GOLDEN / "nv4.pass.json").read_text())
    argv = ["verify", "--mode", "penalized", "--problem", str(GOLDEN / "nv4.problem.json"),
            "--certificate"]
    cert["scenarios"][1]["mu"] = 0.5
    base = run(capsys, *argv, write(tmp_path / "mu.json", cert))
    assert base[0] in (0, 2) and base[1]
    cert["scenarios"][1]["value_weights"] = [1.0]
    assert run(capsys, *argv, write(tmp_path / "weights.json", cert)) == base
    cert["scenarios"][1]["value_weights"] = [0.5]
    code, out, err = run(capsys, *argv, write(tmp_path / "half.json", cert))
    assert (code, out) == (1, "") and "convex combination" in err, err


@pytest.mark.parametrize("argv", NV_VERIFY_ARGVS, ids=" ".join)
def test_bandwidth_outside_theta_bounds_exit_2(argv, tmp_path, capsys):
    """A certificate theta more than eps outside the problem's theta_bounds
    fails the upper line: upper_residual is Infinity, a caveat names the
    coordinate and the bound, and the command exits 2."""
    problem = json.loads((GOLDEN / "nv4.problem.json").read_text())
    problem["theta_bounds"] = [0.001, 0.25]
    code, out, err = run(capsys, *argv, "--problem", write(tmp_path / "oob.json", problem),
                         "--certificate", str(GOLDEN / "nv4.pass.json"))
    report = json.loads(out)
    report = report.get("report", report)
    assert (code, err) == (2, "") and report["pass"] is False
    assert report["upper_residual"] == float("inf") and '"upper_residual": Infinity' in out
    assert report["caveats"] == ["theta[0] = 0.5 lies more than 1e-09 above its upper bound 0.25"]


JUNK_RUNS = [(["verify", "--mode", "penalized"], "pf1.problem.json", "pf1.mu.json", key)
             for key in ("z", "eta", "zeta", "mu", "value_weights")] + \
            [(argv, "nv4.problem.json", "nv4.pass.json", key) for argv in NV_VERIFY_ARGVS
             for key in ("z", "eta", "zeta", "mu")]


@pytest.mark.parametrize("argv, problem, cert_file, key", JUNK_RUNS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_junk_certificate_entry_names_its_scenario(argv, problem, cert_file, key, tmp_path,
                                                   capsys):
    """A string where a certificate scenario holds a number or a vector is
    an input error that names the scenario and the key, with no report."""
    cert = json.loads((GOLDEN / cert_file).read_text())
    cert["scenarios"][1][key] = "junk"
    options = ["--problem", str(GOLDEN / problem), "--certificate"]
    code, out, err = run(capsys, *argv, *options, write(tmp_path / "junk.json", cert))
    assert (code, out) == (1, "") and err.startswith(
        "error: certificate scenario 1: %s must be" % key), err


@pytest.mark.parametrize("problem, cert_file, mu", [("nv4.problem.json", "nv4.pass.json", 0.5),
                                                    ("pf1.problem.json", "pf1.mu.json", 1.0)])
def test_value_weights_off_the_simplex_name_the_scenario(problem, cert_file, mu, tmp_path,
                                                         capsys):
    """value_weights that are no convex combination of the one sampled
    minimizer's generator, [0.5] or [0.5, 0.5], are an input error that
    names the scenario and value_weights, with no report."""
    cert = json.loads((GOLDEN / cert_file).read_text())
    argv = ["verify", "--mode", "penalized", "--problem", str(GOLDEN / problem),
            "--certificate"]
    cert["scenarios"][1]["mu"] = mu
    for weights, want in (([0.5], "value_weights must be a convex combination"),
                          ([0.5, 0.5], "value_weights has 2 entries for 1 generators")):
        cert["scenarios"][1]["value_weights"] = weights
        code, out, err = run(capsys, *argv, write(tmp_path / "weights.json", cert))
        assert (code, out) == (1, "") and err.startswith(
            "error: certificate scenario 1: " + want), err


@pytest.mark.parametrize("mode", ["convex", "penalized"])
def test_portfolio_theta_of_another_shape_exits_1(mode, tmp_path, capsys):
    """pf3's theta, 8 entries for d_x = 2 and d_z = 4, is read flat or as
    the 2 by 4 matrix; nested to four dimensions, or as an 8 by 1 column,
    it is an input error naming theta and the shape, with no report."""
    cert = json.loads((GOLDEN / "pf3.cert.json").read_text())
    theta = cert["theta"]
    options = ["--problem", str(GOLDEN / "pf3.problem.json"), "--certificate"]
    for shaped, shape in (([[[[t] for t in theta]]], "(1, 1, 8, 1)"),
                          ([[t] for t in theta], "(8, 1)")):
        path = write(tmp_path / "cert.json", {**cert, "theta": shaped})
        code, out, err = run(capsys, "verify", "--mode", mode, *options, path)
        assert (code, out) == (1, "") and "theta" in err and shape in err, err
    path = write(tmp_path / "cert.json", {**cert, "theta": np.reshape(theta, (2, 4)).tolist()})
    assert run(capsys, "verify", "--mode", mode, *options, path)[0] == 0


def test_gph_normal_non_finite_point_exits_1(tmp_path, capsys):
    for z in (None, [float("nan")]):
        q = write(tmp_path / "q.json", {"Z": "orthant", "z": z, "g": [0.0],
                                        "zeta": [0.0], "eta": [0.0]})
        for method in ("auto", "explicit", "direct"):
            code, out, err = run(capsys, "gph-normal", "--input", q, "--method", method)
            assert code == 1 and out == "" and "finite 1-D" in err, (z, method)


def test_verify_non_finite_certificate_exits_1(tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    good = json.loads(open(cpath).read())
    for key in ("theta", "z", "eta", "zeta", "mu", "value_weights"):
        cert = json.loads(json.dumps(good))
        if key == "theta":
            cert["theta"][0][0] = float("nan")
        else:
            scen = cert["scenarios"][1]
            scen[key] = [float("nan")] * 2 if key in ("z", "eta", "zeta") else float("nan")
        bad = write(tmp_path / ("bad-%s.json" % key), cert)
        runs = [["verify", "--mode", "penalized"]]
        if key != "mu":     # any mu makes a convex certificate an input error
            runs.append(["verify", "--mode", "convex"])
        for argv in runs:
            code, out, err = run(capsys, *argv, "--problem", ppath, "--certificate", bad)
            assert code == 1 and out == "" and "finite" in err, (key, argv)


def test_gph_normal_on_a_polyhedron_with_no_rows_left(tmp_path, capsys):
    """{0 z <= 0} drops its only row, leaving Z = R^1, whose normal-cone
    graph is R x {0}: (zeta, -eta) is normal to it iff zeta = 0, and a
    nonzero g is off the graph."""
    base = {"Z": {"A": [[0.0]], "b": [0.0]}, "z": [1.0], "g": [0.0],
            "zeta": [0.0], "eta": [1.0]}
    for change, verdict in (({}, "member"), ({"zeta": [1.0]}, "not_member"),
                            ({"g": [1.0]}, "empty_coderivative")):
        q = write(tmp_path / "q.json", {**base, **change})
        with pytest.warns(UserWarning, match="dropping 1 zero rows"):
            code, out, _ = run(capsys, "gph-normal", "--method", "direct", "--input", q)
        data = json.loads(out)
        assert code == 0 and data["verdict"] == verdict, data
    assert data["witness"] == {"reason": "-g is not in the normal cone at z"}


@pytest.mark.parametrize("mode", ["convex", "penalized"])
def test_verify_certificate_whose_terms_overflow_exits_1(mode, tmp_path, capsys):
    """theta = 1e308 gives lower gradients near 1e308, whose squares and sums
    overflow; the verifier names the scenario instead of reporting nan, and
    numpy warns of no overflow on the way."""
    code, out, _ = run(capsys, "gen", "portfolio", "--n", "3", "--seed", "1")
    problem = json.loads(out)
    d_z = len(problem["sigma"])
    theta = np.full(np.shape(problem["theta0"]), 1e308).tolist()
    cert = write(tmp_path / "cert.json", {"theta": theta, "scenarios": [
        {"z": [1.0 / d_z] * d_z, "eta": [0.0] * d_z} for _ in problem["samples"]]})
    ppath = write(tmp_path / "problem.json", problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--mode", mode, "--problem", ppath,
                             "--certificate", cert)
    assert code == 1 and out == ""
    assert "scenario 0" in err and "exceed 1e+150" in err, err


def test_gph_normal_dimension_mismatch_exits_1(tmp_path, capsys):
    for spec in ("orthant", "simplex", {"A": [[1.0]], "b": [1.0]}):
        q = write(tmp_path / "q.json", {"Z": spec, "z": [1.0], "g": [0.0],
                                        "zeta": [1.0, 2.0, 3.0], "eta": [0.0, 0.0, 0.0]})
        for method in ("auto", "explicit", "direct"):
            if method == "explicit" and isinstance(spec, dict):
                continue
            code, out, err = run(capsys, "gph-normal", "--input", q, "--method", method)
            assert code == 1 and out == "" and "dimension of z" in err, (spec, method)


def test_polyhedron_with_the_wrong_column_count_exits_1(tmp_path, capsys):
    """A names its column count and z its length under every polyhedral route."""
    Z = {"A": [[1.0, 2.0]], "b": [1.0]}
    q = write(tmp_path / "q.json", {"Z": Z, "z": [0.0], "g": [0.0],
                                    "zeta": [0.0], "eta": [0.0]})
    for method in ("direct", "auto"):
        code, out, err = run(capsys, "gph-normal", "--input", q, "--method", method)
        assert (code, out) == (1, "") and "A has 2 columns but z has 1 entries" in err, method


def test_portfolio_problem_non_finite_or_mis_shaped_exits_1(tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    good = json.loads(open(ppath).read())
    nan, inf = float("nan"), float("inf")

    def edit(path, value):
        def apply(d):
            *head, last = path
            for key in head:
                d = d[key]
            d[last] = value
        return apply

    cases = [
        (edit(["sigma", 0, 0], nan), "sigma must be finite"),
        (edit(["sigma"], [[nan, nan], [nan, nan]]), "sigma must be finite"),
        (edit(["lambda"], nan), "lambda must be one finite number"),
        (edit(["lambda"], inf), "lambda must be one finite number"),
        (edit(["lambda"], None), "lambda must be one finite number"),
        (edit(["lambda"], 0.0), "risk aversion must be positive"),
        (edit(["samples", 1, "r", 0], nan), "r must be a finite 1-D array"),
        (edit(["samples", 1, "x", 1], inf), "x must be a finite 1-D array"),
        (edit(["samples", 1, "r"], [0.1]), "every sample needs 2 x and 2 r entries"),
        (edit(["samples", 2, "x"], [1.0, 0.5, 0.2]), "every sample needs 2 x and 2 r"),
        (edit(["samples"], []), "at least one sample"),
        (edit(["weights"], [0.2, 0.2, nan, 0.2, 0.2]), "weights must be a finite 1-D"),
        (edit(["weights"], [0.2, 0.2, -0.1, 0.2, 0.5]), "weights must be nonnegative"),
        (edit(["weights"], [0.5, 0.5]), "one weight per sample"),
    ]
    for i, (apply, message) in enumerate(cases):
        problem = json.loads(json.dumps(good))
        apply(problem)
        bad = write(tmp_path / ("p%d.json" % i), problem)
        for argv in (["verify", "--certificate", cpath], ["spo-portfolio", "fit"]):
            code, out, err = run(capsys, *argv, "--problem", bad)
            assert code == 1 and out == "" and message in err, (message, argv, err)


def test_portfolio_weights_that_do_not_sum_to_one_exit_1(tmp_path, capsys):
    """pf1 with weights [1, 1, 1, 1] is refused when the problem is read, by
    the same 1e-12 rule as a newsvendor problem, so `spo-portfolio loss`
    reports no objective that verify would refuse; weights off by 1e-13 are
    read."""
    good = json.loads((GOLDEN / "pf1.problem.json").read_text())
    theta = str(GOLDEN / "pf1.theta.json")
    runs = [["spo-portfolio", "loss", "--theta", theta],
            ["spo-portfolio", "solve", "--theta", theta], ["spo-portfolio", "fit"],
            ["verify", "--certificate", str(GOLDEN / "pf1.exact.json")]]
    n = len(good["samples"])
    for weights, refused in (([1.0] * n, True), ([1.0 / n] * (n - 1) + [1.0 / n + 1e-13], False)):
        path = write(tmp_path / "pf1.json", {**good, "weights": weights})
        for argv in runs:
            code, out, err = run(capsys, *argv, "--problem", path)
            if refused:
                assert (code, out) == (1, "") and "weights must sum to 1" in err, (argv, err)
            else:
                assert code == 0 and out, (argv, err)


def test_certificate_scenario_must_be_an_object(tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    good = json.loads(open(cpath).read())
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=[([0.0], 5.0)],
                              samples=[([0.0], 5.0), ([0.5], 4.0)])
    nvpath = write(tmp_path / "nv.json", inst.to_dict())
    entry = {"z": 5.0, "eta": 0.0, "zeta": 0.0}
    for i, bad in enumerate(([1.0, 2.0], 3.0, None, "z")):
        cert = json.loads(json.dumps(good))
        cert["scenarios"][1] = bad
        pf = write(tmp_path / ("pf%d.json" % i), cert)
        nv = write(tmp_path / ("nv%d.json" % i), {"theta": 1.0, "scenarios": [entry, bad]})
        runs = [(ppath, pf, ["verify"]), (ppath, pf, ["verify", "--mode", "penalized"]),
                (nvpath, nv, ["verify"]), (nvpath, nv, ["newsvendor", "verify"])]
        for problem, cert_path, argv in runs:
            code, out, err = run(capsys, *argv, "--problem", problem,
                                 "--certificate", cert_path)
            assert code == 1 and out == "", (bad, argv)
            assert "certificate scenario 1 must be an object" in err, (bad, argv)
    for cert, message in (([good], "certificate must be an object"),
                          ({**good, "scenarios": 3}, "scenarios must be a list")):
        code, out, err = run(capsys, "verify", "--problem", ppath, "--certificate",
                             write(tmp_path / "top.json", cert))
        assert code == 1 and out == "" and message in err


def test_verify_wrong_theta_size_exits_1(tmp_path, capsys):
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    cert = json.loads(open(cpath).read())
    cert["theta"] = cert["theta"][0]
    bad = write(tmp_path / "short.json", cert)
    for mode in ("convex", "penalized"):
        code, out, err = run(capsys, "verify", "--mode", mode, "--problem", ppath,
                             "--certificate", bad)
        assert code == 1 and out == "" and \
            "theta must be a vector of 4 entries or a 2 by 2 matrix; got shape (2,)" in err


def test_newsvendor_certificate_needs_one_number_per_entry(tmp_path, capsys):
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=[([0.0], 5.0)],
                              samples=[([0.0], 5.0)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    good = {"z": 5.0, "eta": 0.0, "zeta": 0.0}
    bad_values = ([], {}, [1.0, 2.0], None, "5", True)
    certs = [{"theta": 1.0, "scenarios": [{**good, key: v}]}
             for key in ("z", "eta", "zeta") for v in bad_values]
    certs += [{"theta": v, "scenarios": [good]} for v in bad_values]
    for i, cert in enumerate(certs):
        cpath = write(tmp_path / ("c%d.json" % i), cert)
        for argv in (["newsvendor", "verify"], ["verify"]):
            code, out, err = run(capsys, *argv, "--problem", ppath, "--certificate", cpath)
            assert code == 1 and out == "" and "one finite number" in err, (cert, argv)
    # a one-element list still reads as its number
    cpath = write(tmp_path / "list.json", {"theta": [1.0], "scenarios": [
        {"z": [5.0], "eta": [0.0], "zeta": [0.0]}]})
    code_list, out_list, _ = run(capsys, "verify", "--problem", ppath, "--certificate", cpath)
    cpath = write(tmp_path / "scalar.json", {"theta": 1.0, "scenarios": [good]})
    code_num, out_num, _ = run(capsys, "verify", "--problem", ppath, "--certificate", cpath)
    assert code_list == code_num and out_list == out_num


def test_fd_check_on_negative_demands(tmp_path, capsys):
    """Demands below 0 put the order quantity on the orthant's bound, where
    the differences in z step outside it; every term still passes."""
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=[([0.0], -2.0), ([1.0], -0.75)],
                              samples=[([0.0], -2.0)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    cpath = write(tmp_path / "cert.json", {"theta": 1.0, "scenarios": [
        {"z": 0.0, "eta": 0.5, "zeta": 0.0}]})
    code, out, err = run(capsys, "fd-check", "--problem", ppath, "--certificate", cpath)
    assert code == 0 and err == ""
    assert max(t["max_rel_err"] for t in json.loads(out)["terms"].values()) <= 1e-6


def test_verify_reads_a_flat_theta_and_reports_an_infeasible_z(tmp_path, capsys):
    """A flat theta gives the output of the matrix theta, and a z outside the
    simplex is an exit-2 report with an empty_coderivative verdict."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    cert = json.loads(open(cpath).read())
    cert["theta"] = np.ravel(cert["theta"]).tolist()
    flat = write(tmp_path / "flat.json", cert)
    code_m, out_m, _ = run(capsys, "verify", "--problem", ppath, "--certificate", cpath)
    code_f, out_f, _ = run(capsys, "verify", "--problem", ppath, "--certificate", flat)
    assert (code_f, out_f) == (code_m, out_m) and code_m == 0
    cert["scenarios"][0]["z"] = [2.0, 0.0]
    code, out, _ = run(capsys, "verify", "--problem", ppath,
                       "--certificate", write(tmp_path / "infeasible.json", cert))
    scen = json.loads(out)["scenarios"][0]
    assert code == 2 and scen["m_verdict"] == "empty_coderivative"


@pytest.mark.parametrize("argv", [["spo-portfolio", "system", "--problem", "{problem}",
                                   "--certificate", "{certificate}"],
                                  ["gph-normal", "--method", "oracle", "--input", "{query}"],
                                  ["cones", "--input", "{query}"]],
                         ids=["spo-portfolio system", "gph-normal --method oracle", "cones"])
def test_removed_commands_are_usage_errors(argv, tmp_path, capsys):
    """verify is the one portfolio verifier, the face-pair oracle has no
    command line route, and gph-normal is the one geometry command; each
    call exits 1 and prints nothing."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    query = write(tmp_path / "q.json", {"Z": "orthant", "z": [0.0], "g": [0.0],
                                        "zeta": [-2.0], "eta": [-3.0]})
    files = {"problem": ppath, "certificate": cpath, "query": query}
    code, out, err = run(capsys, *[a.format(**files) for a in argv])
    assert (code, out) == (1, "") and "invalid choice" in err


@pytest.mark.parametrize("action", ["solve", "loss"])
@pytest.mark.parametrize("value", [1e308, 1e300])
def test_portfolio_theta_beyond_the_term_bound_exits_1(action, value, tmp_path, capsys):
    """Predicted returns near 1e308 overflow the simplex projection; the QP
    names them instead, and numpy warns of nothing on the way."""
    code, out, _ = run(capsys, "gen", "portfolio", "--n", "3", "--seed", "1")
    problem = json.loads(out)
    ppath = write(tmp_path / "problem.json", problem)
    tpath = write(tmp_path / "theta.json",
                  np.full(np.shape(problem["theta0"]), value).tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "spo-portfolio", action, "--problem", ppath,
                             "--theta", tpath)
    assert (code, out) == (1, "")
    assert err == "error: predicted returns are not finite or exceed 1e+150 in magnitude\n"


# ---------------------------------------------------------------------------
# every JSON input is read through one loader, and a wrong shape is exit 1

def _inputs(tmp_path):
    """One valid file of each kind the CLI reads."""
    nv = NewsvendorInstance(h=1.0, b=3.0, centers=[([0.0], 5.0)], samples=[([0.0], 5.0)])
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    return {"portfolio": json.loads(open(ppath).read()), "newsvendor": nv.to_dict(),
            "certificate": json.loads(open(cpath).read())}


LIST_FILE_RUNS = {
    "verify": ["verify", "--problem", "{list}", "--certificate", "{certificate}"],
    "newsvendor-solve": ["newsvendor", "solve", "--problem", "{list}", "--theta", "1.0"],
    "gph-normal": ["gph-normal", "--input", "{list}"],
    "fd-check": ["fd-check", "--problem", "{list}", "--certificate", "{certificate}"],
    "spo-portfolio-fit": ["spo-portfolio", "fit", "--problem", "{list}"],
}


@pytest.mark.parametrize("name", sorted(LIST_FILE_RUNS))
def test_input_file_that_is_a_list_exits_1(name, tmp_path, capsys):
    files = {"list": write(tmp_path / "list.json", [1, 2]),
             "certificate": write(tmp_path / "cert.json", _inputs(tmp_path)["certificate"])}
    argv = [a.format(**files) for a in LIST_FILE_RUNS[name]]
    code, out, err = run(capsys, *argv)
    what = "problem" if "--problem" in argv else "query"
    assert (code, out) == (1, "") and "%s must be an object" % what in err


def _bad_problem(tmp_path, capsys, kind, key, value, argv):
    problem = {**_inputs(tmp_path)[kind], key: value}
    return run(capsys, *argv, "--problem", write(tmp_path / "bad.json", problem))


def test_portfolio_sigma_that_is_an_object_exits_1(tmp_path, capsys):
    cert = write(tmp_path / "c.json", _inputs(tmp_path)["certificate"])
    code, out, err = _bad_problem(tmp_path, capsys, "portfolio", "sigma", {"a": 1},
                                  ["verify", "--certificate", cert])
    assert (code, out) == (1, "") and "sigma must be a square matrix of numbers" in err


@pytest.mark.parametrize("entry", [True, "1"])
@pytest.mark.parametrize("action", ["verify", "spo-portfolio solve"])
def test_portfolio_sigma_holding_a_boolean_or_a_string_exits_1(entry, action, tmp_path, capsys):
    """A JSON true or "1" on sigma's diagonal is not read as 1.0."""
    files = _inputs(tmp_path)
    sigma = files["portfolio"]["sigma"]
    assert sigma[0][0] == 1.0
    sigma[0][0] = entry
    extra = (["--certificate", write(tmp_path / "c.json", files["certificate"])]
             if action == "verify" else
             ["--theta", write(tmp_path / "t.json", files["certificate"]["theta"])])
    code, out, err = _bad_problem(tmp_path, capsys, "portfolio", "sigma", sigma,
                                  action.split() + extra)
    assert (code, out) == (1, "") and "sigma must be a square matrix of numbers" in err


def test_search_reports_its_last_objective_without_solving_again(tmp_path, capsys, monkeypatch):
    """spo-portfolio search prints the objective the search ended on, and
    solves no QP after spo_local_search returns."""
    import mstat.portfolio as PF

    ppath, _ = portfolio_problem_and_cert(tmp_path)
    events = []
    search, solve = PF.spo_local_search, PF.solve_simplex_qp_rows
    monkeypatch.setattr(PF, "spo_local_search",
                        lambda *a, **k: (search(*a, **k), events.append("returned"))[0])
    monkeypatch.setattr(PF, "solve_simplex_qp_rows",
                        lambda *a, **k: events.append("solve") or solve(*a, **k))
    code, out, _ = run(capsys, "spo-portfolio", "search", "--problem", ppath, "--steps", "3")
    assert code == 0 and events[-1] == "returned" and events.count("solve") > 0
    doc = json.loads(out)
    inst = PortfolioInstance.from_dict(json.loads(open(ppath).read()))
    assert doc["objective"] == PF.empirical_spo_objective(PF.LinearPredictor(doc["theta"]), inst)


def test_portfolio_samples_that_are_a_number_exit_1(tmp_path, capsys):
    code, out, err = _bad_problem(tmp_path, capsys, "portfolio", "samples", 3,
                                  ["spo-portfolio", "fit"])
    assert (code, out) == (1, "") and "samples must be a list" in err


def test_newsvendor_samples_that_are_a_number_exit_1(tmp_path, capsys):
    code, out, err = _bad_problem(tmp_path, capsys, "newsvendor", "samples", 3,
                                  ["newsvendor", "solve", "--theta", "1.0"])
    assert (code, out) == (1, "") and "samples must be a list" in err


def test_newsvendor_center_that_is_a_list_exits_1(tmp_path, capsys):
    code, out, err = _bad_problem(tmp_path, capsys, "newsvendor", "centers", [[1, 2]],
                                  ["newsvendor", "solve", "--theta", "1.0"])
    assert (code, out) == (1, "") and "center 0 must be an object" in err


def test_portfolio_certificate_with_boolean_entries_exits_1(tmp_path, capsys):
    """A JSON true is not read as 1, as the newsvendor already refuses it."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    cert = json.loads(open(cpath).read())
    cert["scenarios"][0]["z"] = [True, True]
    bad = write(tmp_path / "bool.json", cert)
    for mode in ("convex", "penalized"):
        code, out, err = run(capsys, "verify", "--mode", mode, "--problem", ppath,
                             "--certificate", bad)
        assert (code, out) == (1, "") and "z must be a finite 1-D array" in err


# ---------------------------------------------------------------------------
# options: each subcommand registers the options it reads

def test_gph_normal_reads_tol_as_eps_under_every_method(tmp_path, capsys):
    q = write(tmp_path / "q.json", {"Z": "orthant", "z": [0], "g": [0],
                                    "zeta": [0.05], "eta": [0.05]})
    for method in ("auto", "explicit", "direct"):
        verdicts = []
        for tol in ([], ["--tol", "0.1"]):
            code, out, _ = run(capsys, "gph-normal", "--input", q, "--method", method, *tol)
            assert code == 0
            verdicts.append(json.loads(out)["verdict"])
        assert verdicts == ["not_member", "member"], method


def _tol_runs(tmp_path):
    """One valid call of each subcommand that reads --tol."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    inst = NewsvendorInstance(h=1.0, b=1.0, centers=[([0.0], 5.0)], samples=[([0.0], 5.0)])
    nv = write(tmp_path / "nv.json", inst.to_dict())
    z = solve_newsvendor(inst.model(2.0), [0.0], 1.0, 1.0)
    nv_cert = write(tmp_path / "nvcert.json",
                    {"theta": 2.0, "scenarios": [{"z": z, "eta": 0.0, "zeta": 0.0}]})
    # a non-graph point: z = g = 1 is not complementary on the orthant
    q = write(tmp_path / "q.json", {"Z": "orthant", "z": [1.0], "g": [1.0],
                                    "zeta": [0.0], "eta": [0.0]})
    return {"gph-normal": ["gph-normal", "--input", q],
            "verify": ["verify", "--problem", ppath, "--certificate", cpath],
            "newsvendor": ["newsvendor", "verify", "--problem", nv, "--certificate", nv_cert],
            "fd-check": ["fd-check", "--problem", nv, "--certificate", nv_cert]}


@pytest.mark.parametrize("name", ["gph-normal", "verify", "newsvendor", "fd-check"])
def test_tol_must_be_a_finite_positive_number(name, tmp_path, capsys):
    argv = _tol_runs(tmp_path)[name]
    code, out, _ = run(capsys, *argv, "--tol", "1e-6")
    assert code in (0, 2) and out
    for bad in ("inf", "nan", "-1", "0", "-inf", "abc"):
        code, out, err = run(capsys, *argv, "--tol", bad)
        assert (code, out) == (1, "") and "--tol" in err, bad


@pytest.mark.parametrize("kind", ["portfolio", "newsvendor"])
def test_gen_noise_must_be_finite_and_nonnegative(kind, capsys):
    """--noise of gen is a finite number >= 0; a negative or non-finite
    value is a usage error, not noise-free data labelled noisy nor an
    internal message."""
    for good in ("0", "0.5"):
        code, out, _ = run(capsys, "gen", kind, "--n", "3", "--noise", good)
        assert code == 0 and json.loads(out)["schema"] == "mstat/1", good
    for bad in ("-0.5", "nan", "inf", "-inf", "abc"):
        code, out, err = run(capsys, "gen", kind, "--n", "3", "--noise", bad)
        assert (code, out) == (1, "") and "--noise" in err, bad


@pytest.mark.parametrize("kind, form, good, bads", [
    ("portfolio", "'dx,dz'", "3,2", ("3", "2,3,4", "2,x", "2.5,3", "2,", ",")),
    ("newsvendor", "'dx'", "2", ("2,3", "1.5", "x", "2,")),
])
def test_gen_dims_need_one_integer_per_dimension(kind, form, good, bads, capsys):
    """--dims of gen holds one integer per dimension of its kind: 'dx,dz'
    for a portfolio, 'dx' for a newsvendor. A wrong count or an entry that
    is not an integer is an input error naming that form, never a dropped
    entry nor an internal message."""
    code, out, _ = run(capsys, "gen", kind, "--n", "3", "--dims", good)
    data = json.loads(out)
    assert code == 0 and len(data["samples"][0]["x"]) == int(good.split(",")[0])
    if kind == "portfolio":
        assert np.shape(data["theta0"]) == (3, 2)
    for bad in bads:
        code, out, err = run(capsys, "gen", kind, "--n", "3", "--dims", bad)
        assert (code, out) == (1, "") and form in err and repr(bad) in err, bad


def test_search_steps_must_be_a_nonnegative_integer(capsys):
    """--steps of spo-portfolio search is an integer >= 0: 0 reports the
    objective of the start, and a negative or fractional count is a usage
    error."""
    argv = ["spo-portfolio", "search", "--problem", str(GOLDEN / "pf1.problem.json")]
    code, out, _ = run(capsys, *argv, "--steps", "0")
    fit = json.loads(run(capsys, "spo-portfolio", "fit", "--problem",
                         str(GOLDEN / "pf1.problem.json"))[1])
    assert code == 0 and json.loads(out)["theta"] == fit["theta"]
    for bad in ("-3", "2.5", "abc"):
        code, out, err = run(capsys, *argv, "--steps", bad)
        assert (code, out) == (1, "") and "--steps" in err, bad


def test_options_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys):
    unread = {"gen": (["gen", "portfolio", "--n", "2"], ["--tol", "--report", "--format"]),
              "gph-normal": (["gph-normal", "--input", "q.json"], ["--seed"]),
              "verify": (["verify", "--problem", "p", "--certificate", "c"], ["--seed"]),
              "newsvendor": (["newsvendor", "solve", "--problem", "p"], ["--seed"]),
              "spo-portfolio": (["spo-portfolio", "fit", "--problem", "p"],
                                ["--tol", "--certificate"])}
    for argv, options in unread.values():
        for option in options:
            value = "json" if option == "--format" else "1"
            code, out, err = run(capsys, *argv, option, value)
            assert (code, out) == (1, "") and "unrecognized arguments" in err, (argv, option)
    code, out, _ = run(capsys, "gen", "portfolio", "--n", "2", "--seed", "0")
    assert code == 0 and json.loads(out)["type"] == "spo_portfolio"
