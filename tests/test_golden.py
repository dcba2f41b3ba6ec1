"""Golden outputs of the verifiers on fixed inputs.

tests/golden holds two generated portfolio problems (`mstat gen portfolio`,
seeds 11 and 5, the second with noise), one closed-form vertex portfolio
instance whose certificates carry a flat theta, and two generated newsvendor
problems (`mstat gen newsvendor`, seeds 2 and 3). Each generated portfolio
problem has an exact certificate from `mstat spo-portfolio certificate`, one
with theta shifted, one with eta shifted and one with penalty weights
mu = 0.5; each newsvendor problem has certificates at the solved order
quantities. Each of pf1 to pf3 also has pfN.theta.json, the theta of its
exact certificate as a d_x by d_z matrix. expected.json records, for each of
these calls of `verify` (both modes) and `newsvendor verify`, and for
`spo-portfolio solve`, `loss` and `certificate` at pfN.theta.json and
`spo-portfolio search --steps 20` on each of pf1 to pf3, the exit code
and the full standard output, which must stay byte-identical.

pf4 and pf5 are closed-form instances for the complementarity gap, each
with one exact certificate verified in both modes: pf4 a d_z = 8 vertex
whose active slacks are all exactly 0, so every gap is 0; pf5 a d_z = 4
point on the budget face with a budget slack of 5e-10, inside eps, where
the positive budget multiplier gives a non-zero complementarity_gap. pf6
and pf7 are d_z = 4 interior instances with four scenarios, copied from the
portfolio benchmark's seed-1 inputs and verified in convex mode. In one
scenario of each, the active budget slack is non-zero, so the gap, read at
the budget multiplier, is non-zero. They were picked while the gap still
came from a phase-1 LP, whose pivots there included a bound row.

Four outputs were re-recorded once when the gap moved from that LP's
multiplier to the multiplier of the lower residual (the closed form's mu
and tau on the simplex): pf5.cert.json in both modes, pf6.cert.json and
pf7.cert.json. Only complementarity_gap changed, in scenarios 0 and 1 of
pf5, 1 of pf6 and 0 of pf7, by at most 2.0e-16 relative; for example
pf5's scenario 0 went from 2.6009331621336804e-10 to 2.60093316213368e-10.

nv3 and nv4 are hand-built newsvendor problems, verified by `newsvendor
verify` and by `verify` in both modes; their outputs were recorded before
the scenarios of a certificate became arrays. nv3 has three centers so far
apart at theta = 0.1 that each sample sees one of them, and its one
certificate reaches every branch of the orthant report: I_zero and I_plus at
z = 0, a not_member and a boundary_ambiguous zeta on L, both reachable
empty_coderivative reasons and an infeasible z < -eps. nv4's samples demand
their own order quantity at theta = 0.5, so every scenario sits on the kink
of the regret and nv4.pass.json (z = y, eta = zeta = 0) passes.

pf3.infeasible.json is pf3.cert.json with scenario 0 given a negative
coordinate and scenario 1 a coordinate sum above 1, so the general route
reports both as an "infeasible scenario point"; it is verified in both
modes. `verify --format text` is recorded on it and on nv3.branches.json,
which pins the per-scenario lines of the text printer. These four outputs
were recorded before every route wrote its report as columns.

`newsvendor solve` and `loss` at each certificate's bandwidth (nv1 0.5, nv2
0.8, nv3 0.1, nv4 0.5) and `newsvendor gridsearch` over 0.05 to 5 on each of
nv1 to nv4 pin the order quantities, the regret and the chosen bandwidth;
nv1 and nv2 have as many centers as samples, so their loss and gridsearch
run leave-one-out. These twelve outputs were recorded with the 60-step
bisection that evaluated the CDF at every step, before the quantile solve
skipped the steps that a verified bracket decides. Two more gridsearch
outputs were recorded before the search read its argmin from verified
brackets: nv1 over the grid 0.5,0.5,1, whose repeated point ties exactly
and so takes the exact totals, and nv2 (d_x = 2) over a 13-point grid from
0.05 to 5.

Seven newsvendor outputs were re-recorded once when the quantile solve
moved from that bisection to safeguarded Halley steps that stop within the
CDF's rounding band. Only float fields changed: the decisions of `newsvendor
solve` on nv1, nv2 and nv4, by at most 7.9e-16 relative; the objective of
`newsvendor loss` on nv1 and nv2, by at most 6.7e-16 relative; and, since
nv4's demands are the former solve's order quantities, nv4's loss, which
went from 0.0 to 6.7e-16, and the value_gap of scenario 3 of nv4.pass.json
under `verify --mode penalized`, from 0.0 to 1.1e-16. Every exit code,
verdict, pass and gridsearch theta stayed.

Nine portfolio `verify` outputs were re-recorded once when the simplex
lower residual moved from NNLS to its closed form: pf3.cert.json,
pf4.cert.json and pf5.cert.json in both modes, and pf3.infeasible.json in
both modes and in text. Only their lower_residual values changed, each by
at most 7.1e-17, all of them rounding noise around a zero distance; every
other byte, and every exit code, stayed. The pf1, pf2 and
pf3.perturbed.json outputs kept their bytes.

The gq files are `gph-normal` queries, recorded while the LP tableau was
still a numpy array. gq.member, gq.not-member and gq.empty share one
polyhedron in R^3 with four active rows at z = 0 and a fifth whose slack,
5e-9, lies within a decade of eps; under --method direct they give a member
(two equality rows, one inequality row), a not_member and an
empty_coderivative (-g outside the normal cone). gq.rows9 is a member in R^9
with seven active rows, so its LPs have nine rows, past the eight terms
from which numpy's pairwise sum, which the LP's reduced-cost row once
replayed, differs from the left-to-right sum it now takes; its bytes stayed
at that change. It is recorded in JSON and in text. gq.orthant and gq.simplex are queried under --method explicit.
gq.prism and gq.prism-not-member are degenerate prisms as the coderivative
benchmark builds them: six active rows (p, q, 0) through z = 0 in R^3, which
span only the plane x_3 = 0, and three slack rows, with g = 0 and eta = -e_3.
Every active row is an equality row, so the query asks whether zeta lies in
their span: (2, 11, 0) does, (3, 2, 2) does not. Both were recorded while
each of their two questions still took an LP. gq.scaled-orthant is the
orthant of R^2 written as -1e-11 z <= 0, at z = 0 with g = (1, 2): a member,
recorded once the LP read its generator rows scaled to unit size; on the
rows as given, the LP's pivot tolerance hid -g's cone and the query came
out empty_coderivative.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_lps, count_nnls
from mstat import portfolio as PF
from mstat.cli import main
from mstat.stationarity import lower_residual

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())


def run(capsys, argv):
    code = main([str(GOLDEN / a) if a.endswith(".json") else a for a in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", EXPECTED["outputs"], ids=lambda c: " ".join(c["argv"]))
def test_verify_output_is_byte_identical(case, capsys):
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("stem, scenarios, lps", [("pf4", 4, 0), ("pf5", 3, 0)])
def test_complementarity_lp_runs_only_on_non_zero_active_slacks(stem, scenarios, lps,
                                                               capsys, monkeypatch):
    """pf4 is a d_z = 8 vertex: every active slack is exactly 0, so every
    gap is 0. Each pf5 scenario has a budget slack of 5e-10, inside eps;
    the closed form's positive budget multiplier makes its gap non-zero.
    Neither runs an LP: the multiplier LP no longer runs on any slack, so
    lps is 0 on both."""
    calls = count_lps(monkeypatch)
    code, out = run(capsys, ["verify", "--problem", stem + ".problem.json",
                             "--certificate", stem + ".cert.json"])
    gaps = [s["complementarity_gap"] for s in json.loads(out)["scenarios"]]
    assert code == 0 and len(gaps) == scenarios and len(calls) == lps
    assert all(gap == 0.0 for gap in gaps) if stem == "pf4" else all(gap > 0.0 for gap in gaps)


def test_golden_lp_counts(capsys, monkeypatch):
    """Across tests/golden, `verify` runs no LP: every gap reads the
    multiplier of its lower residual, pf5, pf6 and pf7 included, and the
    newsvendor sets are orthants, which report no gap. `gph-normal --method
    direct` runs six: the graph points of gq.member and gq.not-member, whose five active
    rows in R^3 are dependent with entries 0.5 and -0.25, which are not
    integers; gq.not-member's zeta, which has negative coefficients on a
    cone row of the factorization; and the graph point of gq.empty, whose
    -g does on the active rows. gq.scaled-orthant, whose entries lie below
    the factorization's range, takes the LP for both of its questions, the
    graph point and zeta. The other queries, the prisms and gq.rows9
    included, are decided by the factorization's certificates. Every
    output keeps its recorded bytes."""
    calls = count_lps(monkeypatch)
    lps = {}
    for case in EXPECTED["outputs"]:
        before = len(calls)
        assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])
        lps[case["argv"][0]] = lps.get(case["argv"][0], 0) + len(calls) - before
    assert lps["verify"] == 0 and lps["gph-normal"] == 6 and sum(lps.values()) == 6
    assert {"pf6.cert.json", "pf7.cert.json"} <= {a for c in EXPECTED["outputs"] for a in c["argv"]}


PORTFOLIO_VERIFY = [c for c in EXPECTED["outputs"]
                    if c["argv"][0] == "verify" and c["argv"][2].startswith("pf")]


@pytest.mark.parametrize("case", PORTFOLIO_VERIFY, ids=lambda c: " ".join(c["argv"]))
def test_portfolio_verify_makes_no_nnls_call(case, capsys, monkeypatch):
    """Every portfolio scenario lies on the simplex, whose lower residuals
    come from one closed-form pass: `verify` of each recorded portfolio
    certificate, pf3, pf4 and pf5 among them in both modes, prints the
    recorded bytes with no NNLS solve."""
    calls = count_nnls(monkeypatch)
    assert {(c["argv"][2][:3], c["argv"][6]) for c in PORTFOLIO_VERIFY} >= {
        (stem, mode) for stem in ("pf3", "pf4", "pf5") for mode in ("convex", "penalized")}
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])
    assert calls == []


@pytest.mark.parametrize("case", PORTFOLIO_VERIFY, ids=lambda c: " ".join(c["argv"]))
def test_portfolio_verify_makes_no_per_scenario_model_call(case, capsys, monkeypatch):
    """PortfolioProblem fills the scenario terms by rows: `verify` of each
    recorded portfolio certificate prints the recorded bytes without calling
    the models' grad_z, hess_zz or hess_ztheta, or the upper model's
    gradients, for any scenario."""
    calls = []
    for cls, names in ((PF.PortfolioLowerModel, ("grad_z", "hess_zz", "hess_ztheta")),
                       (PF.SpoUpperModel, ("grad_z", "grad_z_bounds", "grad_theta"))):
        for name in names:
            method = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *a, _m=method, _n=name, **k:
                                calls.append(_n) or _m(*a, **k))
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])
    assert calls == []


@pytest.mark.parametrize("case", PORTFOLIO_VERIFY, ids=lambda c: " ".join(c["argv"]))
def test_portfolio_verify_decides_no_scenario_alone(case, capsys, monkeypatch):
    """The simplex route decides every portfolio scenario in array passes
    and keeps the witnesses as columns: `verify` of each recorded portfolio
    certificate, in both modes, prints the recorded bytes while
    graph_normals calls np.mean for no scenario and builds no Membership."""
    from mstat import graph_normals

    def refuse(self, *args, **kwargs):
        raise AssertionError("Membership built on the portfolio verify route")

    means = []
    mean = np.mean
    monkeypatch.setattr(np, "mean", lambda *a, **k: means.append(
        sys._getframe(1).f_globals["__name__"]) or mean(*a, **k))
    monkeypatch.setattr(graph_normals.Membership, "__init__", refuse)
    assert {c["argv"][6] for c in PORTFOLIO_VERIFY} == {"convex", "penalized"}
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])
    assert "mstat.graph_normals" not in means


@pytest.mark.parametrize("certificate", ["pf3.cert.json", "pf3.perturbed.json",
                                         "pf3.infeasible.json"])
def test_lower_residual_gives_the_bits_that_verify_prints(certificate, capsys):
    """stationarity.lower_residual on a pf3 scenario returns the float that
    `verify` prints for it, bit for bit, and refuses the scenarios that
    verify reports infeasible, where it prints inf. Every residual of
    pf3.perturbed.json is non-zero."""
    inst = PF.PortfolioInstance.from_dict(json.loads((GOLDEN / "pf3.problem.json").read_text()))
    cert = json.loads((GOLDEN / certificate).read_text())
    _, out = run(capsys, ["verify", "--problem", "pf3.problem.json",
                          "--certificate", certificate])
    printed = [s["lower_residual"] for s in json.loads(out)["scenarios"]]
    lower, theta = PF.as_problem(inst).lower, np.ravel(cert["theta"])
    for x, scenario, want in zip(inst.samples.x, cert["scenarios"], printed):
        if want == float("inf"):
            with pytest.raises(ValueError, match="violates row"):
                lower_residual(lower, theta, x, scenario["z"])
        else:
            assert repr(lower_residual(lower, theta, x, scenario["z"])) == repr(want)
    assert len(printed) == len(cert["scenarios"])
    assert certificate != "pf3.perturbed.json" or min(printed) > 0.0


NEWSVENDOR_VERIFY = [c for c in EXPECTED["outputs"]
                     if "verify" in c["argv"] and any(a.startswith("nv") for a in c["argv"])]


@pytest.mark.parametrize("case", NEWSVENDOR_VERIFY, ids=lambda c: " ".join(c["argv"]))
def test_newsvendor_verify_builds_no_object_per_scenario(case, capsys):
    """`newsvendor verify` and `verify` of a newsvendor certificate, in both
    modes and in JSON and in text, print the recorded bytes, and the
    package has no per-scenario certificate or problem type: the scenarios
    stay rows from input to output."""
    from mstat import stationarity

    assert not hasattr(stationarity, "Scenario")
    assert not hasattr(stationarity, "ScenarioCertificate")
    assert len(NEWSVENDOR_VERIFY) == 15
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])


VERIFY = [c for c in EXPECTED["outputs"] if "verify" in c["argv"]]


@pytest.mark.parametrize("case", VERIFY, ids=lambda c: " ".join(c["argv"]))
def test_verify_reads_no_certificate_entry_alone(case, capsys, monkeypatch):
    """Every recorded `verify` and `newsvendor verify` prints its recorded
    bytes while the per-entry readers, finite_vector and finite_number, read
    no entry of a certificate scenario: the certificate is read column by
    column, each column one finite_rows scan. pf1.mu.json and pf2.mu.json,
    whose scenarios hold penalty weights, are among the cases."""
    from mstat import cli, graph_normals, newsvendor, stationarity

    entries, read = {}, []
    load = cli._load_certificate

    def load_and_note(path):
        data = load(path)
        entries.update((id(v), v) for s in data["scenarios"] for v in s.values())
        return data

    monkeypatch.setattr(cli, "_load_certificate", load_and_note)
    for module in (graph_normals, stationarity, newsvendor, PF):
        for name in ("finite_vector", "finite_number"):
            if hasattr(module, name):
                reader = getattr(module, name)
                monkeypatch.setattr(module, name, lambda value, *a, _r=reader, **k:
                                    read.append(id(value)) or _r(value, *a, **k))
    assert {c["argv"][4] for c in VERIFY if c["argv"][0] == "verify"} >= {
        "pf1.mu.json", "pf2.mu.json"}
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])
    assert entries and not [i for i in read if i in entries]


@pytest.mark.parametrize("stem, certificate", [("nv3", "nv3.branches.json"),
                                               ("nv4", "nv4.pass.json")])
def test_penalized_newsvendor_solves_all_samples_once(stem, certificate, capsys, monkeypatch):
    """`verify --mode penalized` of a newsvendor certificate asks the lower
    solver about every scenario at the certificate's one bandwidth; it
    answers from one solve of all samples, and the output is the recorded
    one."""
    from mstat import newsvendor

    argv = ["verify", "--problem", stem + ".problem.json", "--certificate", certificate,
            "--mode", "penalized"]
    case = next(c for c in EXPECTED["outputs"] if c["argv"] == argv)
    solves = []
    real_solve = newsvendor.solve_newsvendor_rows

    def solve(model, xs, h, b, leave_one_out=False):
        solves.append(len(xs))
        return real_solve(model, xs, h, b, leave_one_out)

    monkeypatch.setattr(newsvendor, "solve_newsvendor_rows", solve)
    assert run(capsys, argv) == (case["exit"], case["stdout"])
    assert solves == [len(json.loads((GOLDEN / certificate).read_text())["scenarios"])]


PORTFOLIO_PENALIZED = [c for c in EXPECTED["outputs"] if "penalized" in c["argv"]
                       and any(a.startswith("pf") for a in c["argv"])]


@pytest.mark.parametrize("case", PORTFOLIO_PENALIZED, ids=lambda c: " ".join(c["argv"]))
def test_penalized_portfolio_solves_all_samples_in_one_call(case, capsys, monkeypatch):
    """`verify --mode penalized` of a portfolio certificate solves the QPs
    of all samples at its theta in one solve_simplex_qp_rows call and
    prints the recorded bytes; pf3 and pf4 hold vertex solutions."""
    from mstat import portfolio

    calls = []
    rows = portfolio.solve_simplex_qp_rows
    monkeypatch.setattr(portfolio, "solve_simplex_qp_rows",
                        lambda R, *args: calls.append(len(R)) or rows(R, *args))
    problem = json.loads((GOLDEN / case["argv"][2]).read_text())
    assert len(PORTFOLIO_PENALIZED) == 13
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])
    assert calls == [len(problem["samples"])]


# Every (problem, certificate) pair that expected.json verifies.
VERIFIED = sorted({(c["argv"][2], c["argv"][4]) for c in EXPECTED["outputs"]
                   if c["argv"][0] == "verify"})


@pytest.mark.parametrize("mode", ["convex", "penalized"])
@pytest.mark.parametrize("problem, certificate", VERIFIED, ids=lambda v: v.split(".json")[0])
def test_permuting_the_scenarios_permutes_the_report(problem, certificate, mode, tmp_path,
                                                      capsys):
    """Reordering a certificate's scenarios, and the problem's samples and
    weights with them, reorders the report's scenario entries, each equal
    in every field but its index, and leaves every top-level field
    byte-equal but upper_residual. That one sums the scenarios' weighted
    gradients in scenario order, so a reordering may move it by rounding,
    at most 4 ulps. A certificate that the mode refuses is refused alike.
    The orders are the reversal and three seeded shuffles."""
    prob = json.loads((GOLDEN / problem).read_text())
    cert = json.loads((GOLDEN / certificate).read_text())
    argv = ["verify", "--mode", mode, "--problem", problem, "--certificate", certificate]
    code, out = run(capsys, argv)
    n = len(cert["scenarios"])
    rng = np.random.default_rng(21)
    for order in [np.arange(n)[::-1]] + [rng.permutation(n) for _ in range(3)]:
        permuted = {key: [prob[key][i] for i in order] if key in ("samples", "weights")
                    else value for key, value in prob.items()}
        argv[-3] = str(tmp_path / "problem.json")
        (tmp_path / "problem.json").write_text(json.dumps(permuted))
        argv[-1] = str(tmp_path / "certificate.json")
        (tmp_path / "certificate.json").write_text(
            json.dumps({**cert, "scenarios": [cert["scenarios"][i] for i in order]}))
        code_p, out_p = run(capsys, argv)
        assert code_p == code
        if code == 1:
            assert out == out_p == ""
            continue
        report, report_p = json.loads(out), json.loads(out_p)
        for k, i in enumerate(order):
            entry, entry_p = report["scenarios"][i], report_p["scenarios"][k]
            assert (entry.pop("index"), entry_p.pop("index")) == (i, k)
            assert json.dumps(entry, sort_keys=True) == json.dumps(entry_p, sort_keys=True)
        upper, upper_p = report.pop("upper_residual"), report_p.pop("upper_residual")
        assert abs(upper - upper_p) <= 4 * np.spacing(max(abs(upper), abs(upper_p)))
        report.pop("scenarios"), report_p.pop("scenarios")
        assert json.dumps(report, sort_keys=True) == json.dumps(report_p, sort_keys=True)
