import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mstat.cli import _json_text, main
from mstat.newsvendor import NewsvendorInstance, solve_newsvendor
from mstat.portfolio import PortfolioInstance


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


# ---------------------------------------------------------------------------
# cones

def test_cones_ops(tmp_path, capsys):
    q = write(tmp_path / "q.json",
              {"op": "active-set", "Z": "orthant", "z": [0.0, 1.0]})
    code, out, _ = run(capsys, "cones", "--input", q)
    assert code == 0 and json.loads(out)["active"] == [0]

    q2 = write(tmp_path / "q2.json",
               {"op": "normal-multiplier", "Z": "orthant",
                "z": [0.0, 0.0], "v": [1.0, 2.0]})
    code, out, _ = run(capsys, "cones", "--input", q2)
    data = json.loads(out)
    assert data["member"] and data["lambda"] == [1.0, 2.0]

    q3 = write(tmp_path / "q3.json",
               {"op": "polar", "cone": {"E": [], "G": [[-1.0, 0.0], [0.0, -1.0]]}})
    code, out, _ = run(capsys, "cones", "--input", q3)
    assert json.loads(out)["cone"]["R"] == [[-1.0, 0.0], [0.0, -1.0]]

    q4 = write(tmp_path / "q4.json",
               {"op": "faces", "cone": {"E": [], "G": [[-1.0, 0.0], [0.0, -1.0]]}})
    code, out, _ = run(capsys, "cones", "--input", q4)
    assert len(json.loads(out)["faces"]) == 4


BAD_CONES_QUERIES = {
    "z-object": {"op": "active-set", "Z": "orthant", "z": {"a": 1}},
    "z-nan": {"op": "active-set", "Z": "orthant", "z": [float("nan"), 1.0]},
    "polyhedron-A-object": {"op": "active-set", "Z": {"A": {"x": 1}, "b": [0.0]}, "z": [0.0]},
    "polyhedron-A-boolean": {"op": "active-set", "Z": {"A": [[True]], "b": [0.0]}, "z": [0.0]},
    "eps-string": {"op": "active-set", "Z": "orthant", "z": [0.0], "eps": "abc"},
    "eps-zero": {"op": "active-set", "Z": "orthant", "z": [0.0], "eps": 0},
    "v-boolean-and-string": {"op": "normal-multiplier", "Z": "orthant", "z": [0.0, 0.0],
                             "v": [True, "1"]},
    "polar-cone-list": {"op": "polar", "cone": [1, 2]},
    "polar-cone-flat-rows": {"op": "polar", "cone": {"E": [], "G": [1.0, 2.0]}},
    "faces-cone-rows-object": {"op": "faces", "cone": {"G": {}}},
    "member-h-d-object": {"op": "member-h", "cone": {"G": [[-1.0]]}, "d": {"a": 1}},
    "member-v-w-string": {"op": "member-v", "cone": {"R": [[1.0]]}, "w": ["1"]},
}


@pytest.mark.parametrize("name", sorted(BAD_CONES_QUERIES))
def test_cones_bad_query_exits_1(name, tmp_path, capsys):
    q = write(tmp_path / "q.json", BAD_CONES_QUERIES[name])
    code, out, err = run(capsys, "cones", "--input", q)
    assert (code, out) == (1, "") and err.startswith("error: "), err


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
    assert len(inst.samples) == 5


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
        "scenarios": [{"z": s.z.tolist(), "eta": s.eta.tolist(),
                       "zeta": s.zeta.tolist(), "beta": b}
                      for s, b in zip(cert.scenarios, betas)],
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
    assert all(len(active_set(poly, s.z)) == d_z for s in cert.scenarios)
    cpath = write(tmp_path / "cert.json", {
        "theta": theta0.tolist(),
        "scenarios": [{"z": s.z.tolist(), "eta": s.eta.tolist(),
                       "zeta": s.zeta.tolist(), "beta": b}
                      for s, b in zip(cert.scenarios, betas)]})
    code, out, _ = run(capsys, "verify", "--problem",
                       write(tmp_path / "prob.json", inst.to_dict()),
                       "--certificate", cpath)
    assert code == 0
    assert all(s["lower_residual"] < 1e-12 for s in json.loads(out)["scenarios"])


def test_verify_does_not_import_scipy_optimize(tmp_path):
    """The CLI stays off scipy.optimize, whose import costs start-up time and memory."""
    ppath, cpath = portfolio_problem_and_cert(tmp_path)
    script = ("import sys\n"
              "import mstat.cli\n"
              "code = mstat.cli.main(['verify', '--problem', sys.argv[1],"
              " '--certificate', sys.argv[2]])\n"
              "assert code == 0, code\n"
              "assert 'scipy.optimize' not in sys.modules\n")
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run([sys.executable, "-c", script, ppath, cpath],
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


def test_fd_check(tmp_path, capsys):
    inst = NewsvendorInstance(h=1.0, b=3.0,
                              centers=[([0.0], 5.0), ([1.0], 6.0)],
                              samples=[([0.0], 5.0)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    code, out, _ = run(capsys, "fd-check", "--problem", ppath,
                       "--op", "grad-theta-cdf", "--trials", "25")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["max_rel_err"] <= 1e-6


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
    inst = PortfolioInstance(sigma=np.eye(2), risk_aversion=1.0,
                             samples=[([1.0, 0.2], [0.3, 0.1])])
    ppath = write(tmp_path / "p.json", inst.to_dict())
    code, out, _ = run(capsys, "fd-check", "--problem", ppath,
                       "--op", "lower-grad-z", "--trials", "5", "--tol", "1e-5")
    assert code == 0 and json.loads(out)["pass"] is True


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _, err = run(capsys, "gph-normal", "--input", str(bad))
    assert code == 1 and "line" in err


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


def test_lp_errors_exit_1(tmp_path, capsys, monkeypatch):
    import mstat.cones as C
    from mstat.lp import LPLimitError, LPUnbounded

    q = write(tmp_path / "q.json",
              {"Z": {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]},
               "z": [0.0, 0.0], "g": [0.0, 0.0], "zeta": [-1.0, 0.0], "eta": [0.0, 0.0]})
    for exc in (LPUnbounded, LPLimitError):
        def solver(*args, **kw):
            raise exc("raised by the test")
        monkeypatch.setattr(C, "linear_feasible", solver)
        code, out, err = run(capsys, "gph-normal", "--input", q, "--method", "direct")
        assert code == 1 and out == "" and "raised by the test" in err


# ---------------------------------------------------------------------------
# input boundary: non-finite and mis-shaped input is exit 1

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
    c = write(tmp_path / "c.json", {"op": "tangent", "Z": Z, "z": [0.0]})
    q = write(tmp_path / "q.json", {"Z": Z, "z": [0.0], "g": [0.0],
                                    "zeta": [0.0], "eta": [0.0]})
    calls = [["cones", "--input", c]] + [["gph-normal", "--input", q, "--method", method]
                                         for method in ("direct", "auto")]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "A has 2 columns but z has 1 entries" in err, argv


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
        assert code == 1 and out == "" and "theta has 2 entries, expected 4" in err


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


def test_fd_check_lower_grad_z_on_negative_demands(tmp_path, capsys):
    inst = NewsvendorInstance(h=1.0, b=3.0, centers=[([0.0], -2.0), ([1.0], -0.75)],
                              samples=[([0.0], -2.0)])
    ppath = write(tmp_path / "nv.json", inst.to_dict())
    code, out, err = run(capsys, "fd-check", "--problem", ppath,
                         "--op", "lower-grad-z", "--trials", "5")
    assert code == 0 and err == ""
    assert json.loads(out)["max_rel_err"] <= 1e-6


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
                                  ["gph-normal", "--method", "oracle", "--input", "{query}"]],
                         ids=["spo-portfolio system", "gph-normal --method oracle"])
def test_removed_commands_are_usage_errors(argv, tmp_path, capsys):
    """verify is the one portfolio verifier, and the face-pair oracle has no
    command line route; both calls exit 1 and print nothing."""
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
    "cones": ["cones", "--input", "{list}"],
    "gph-normal": ["gph-normal", "--input", "{list}"],
    "fd-check": ["fd-check", "--problem", "{list}"],
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
    c = write(tmp_path / "c.json", {"op": "active-set", "Z": "orthant", "z": [0.0]})
    return {"cones": ["cones", "--input", c],
            "gph-normal": ["gph-normal", "--input", q],
            "verify": ["verify", "--problem", ppath, "--certificate", cpath],
            "newsvendor": ["newsvendor", "verify", "--problem", nv, "--certificate", nv_cert],
            "fd-check": ["fd-check", "--problem", nv, "--trials", "5"]}


@pytest.mark.parametrize("name", ["cones", "gph-normal", "verify", "newsvendor", "fd-check"])
def test_tol_must_be_a_finite_positive_number(name, tmp_path, capsys):
    argv = _tol_runs(tmp_path)[name]
    code, out, _ = run(capsys, *argv, "--tol", "1e-6")
    assert code in (0, 2) and out
    for bad in ("inf", "nan", "-1", "0", "-inf", "abc"):
        code, out, err = run(capsys, *argv, "--tol", bad)
        assert (code, out) == (1, "") and "--tol" in err, bad


def test_face_difference_rows_must_be_integer_lists(tmp_path, capsys):
    base = {"op": "face-difference", "Z": "orthant", "z": [0.0, 0.0], "v": [-1.0, 0.0]}
    code, out, _ = run(capsys, "cones", "--input",
                       write(tmp_path / "q.json", {**base, "J1": [], "J2": [1]}))
    assert code == 0 and json.loads(out)["cone"] == {"E": [[-1.0, -0.0]], "G": [[-0.0, -1.0]]}
    for bad in ({"J1": 5}, {"J2": [True]}, {"J2": [1.0]}, {"J2": [0.7]},
                {"J1": "1"}, {"J2": {"1": 1}}, {"J2": None}):
        q = write(tmp_path / "q.json", {**base, **bad})
        code, out, err = run(capsys, "cones", "--input", q)
        assert (code, out) == (1, "") and "integer row indices" in err, bad


def test_fd_check_trials_must_be_positive(tmp_path, capsys):
    argv = _tol_runs(tmp_path)["fd-check"][:-2]
    code, out, _ = run(capsys, *argv, "--trials", "1")
    assert code == 0 and json.loads(out)["trials"] == 1
    for bad in ("0", "-3", "2.5", "abc"):
        code, out, err = run(capsys, *argv, "--trials", bad)
        assert (code, out) == (1, "") and "--trials" in err, bad


def test_fd_check_atol_must_be_finite_and_nonnegative(tmp_path, capsys):
    argv = _tol_runs(tmp_path)["fd-check"]
    for good in ("0", "1e-9", "0.5"):
        code, out, _ = run(capsys, *argv, "--atol", good)
        assert code in (0, 2) and json.loads(out)["atol"] == float(good), good
    for bad in ("inf", "nan", "-1", "-inf", "-1e-12", "abc"):
        code, out, err = run(capsys, *argv, "--atol", bad)
        assert (code, out) == (1, "") and "--atol" in err, bad


def test_options_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys):
    unread = {"gen": (["gen", "portfolio", "--n", "2"], ["--tol", "--report", "--format"]),
              "cones": (["cones", "--input", "q.json"], ["--seed"]),
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
