"""Metamorphic relations: a change of representation that leaves the
mathematical question unchanged must leave the verdict and the exit code
unchanged. These relations need no oracle.

`gph-normal` runs on the general-Z golden queries and on small integer
polyhedra whose slacks are 0 or at least 1, under
  - a permutation of the rows of (A, b), whose witness rows map along;
  - a duplicated row;
  - each row and its bound scaled by its own power of two 2^k, k in [-3, 5];
  - all of (A, b) and the tolerance --tol scaled by one 2^k, k in
    {-40, -20, 20}, which takes the entries of A outside the range where
    the cone questions are decided without an LP;
  - one permutation of the coordinates, applied to z, g, zeta, eta and the
    columns of A.
`verify` runs in both modes on the portfolio golden certificates, whose
problems give explicit weights, with
  - one sample split into two copies of half its weight and its
    certificate scenario duplicated;
  - one permutation of the assets, applied to the rows and columns of
    sigma, each sample's r, the columns of theta, and each scenario's z,
    eta and zeta; every scenario keeps its m_verdict and m_membership.

The number of examples is Hypothesis' default, so a settings profile with
more (tests/conftest.py registers "metamorphic") runs the same relations
longer.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mstat.cli import main
from mstat.cones import DEFAULT_EPS

GOLDEN = Path(__file__).parent / "golden"
GENERAL_QUERIES = ["gq.member", "gq.not-member", "gq.empty", "gq.rows9", "gq.prism",
                   "gq.prism-not-member"]
# The witness entries of a polyhedral verdict that list rows of (A, b).
ROW_LISTS = ("active_rows", "equality_rows", "inequality_rows", "near_threshold_rows")


def run(argv, files):
    """main's exit code and parsed JSON output, with each (name, document)
    of files written to a temporary directory and named in argv by its name."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_text(json.dumps(doc))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([paths.get(a, a) for a in argv])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def gph_normal(query):
    return run(["gph-normal", "--input", "q.json"], {"q.json": query})


@st.composite
def integer_queries(draw):
    """A query on an integer polyhedron A z <= b (d <= 3, m <= 5, no zero
    row) at an integer z, where each slack is 0 or 1-2. g is minus a
    nonnegative integer combination of the active rows or, when off is
    drawn, any integer vector, and zeta and eta are integer vectors."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    ints = st.integers(-2, 2)
    row = st.lists(ints, min_size=d, max_size=d).filter(any)
    A = draw(st.lists(row, min_size=m, max_size=m))
    z = draw(st.lists(ints, min_size=d, max_size=d))
    slack = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=m, max_size=m))
    b = [sum(a * v for a, v in zip(r, z)) + s for r, s in zip(A, slack)]
    if draw(st.booleans()):
        g = draw(st.lists(ints, min_size=d, max_size=d))
    else:
        lam = [draw(st.integers(0, 2)) if s == 0 else 0 for s in slack]
        g = [-sum(l * r[j] for l, r in zip(lam, A)) for j in range(d)]
    zeta, eta = (draw(st.lists(ints, min_size=d, max_size=d)) for _ in range(2))
    return {"Z": {"A": A, "b": b}, "z": z, "g": g, "zeta": zeta, "eta": eta}


def golden_query(name):
    return json.loads((GOLDEN / (name + ".json")).read_text())


queries = st.one_of(st.sampled_from(GENERAL_QUERIES).map(golden_query), integer_queries())


def with_rows(query, A, b):
    return {**query, "Z": {"A": A, "b": b}}


def same_verdict(first, second):
    """Equal exit codes and, where there is a report, equal verdicts."""
    (code, doc), (code2, doc2) = first, second
    assert code == code2
    if doc is not None:
        assert (doc["member"], doc["verdict"]) == (doc2["member"], doc2["verdict"])


@settings(deadline=None)
@given(queries, st.data())
def test_permuting_the_rows_permutes_the_witness_rows(query, data):
    A, b = query["Z"]["A"], query["Z"]["b"]
    perm = data.draw(st.permutations(range(len(A))))
    before = gph_normal(query)
    after = gph_normal(with_rows(query, [A[i] for i in perm], [b[i] for i in perm]))
    same_verdict(before, after)
    assert before[0] == 0
    for key in ROW_LISTS:
        if key in before[1]["witness"]:
            assert sorted(perm[j] for j in after[1]["witness"][key]) \
                == sorted(before[1]["witness"][key]), key


@settings(deadline=None)
@given(queries, st.data())
def test_a_duplicated_row_keeps_the_verdict(query, data):
    A, b = query["Z"]["A"], query["Z"]["b"]
    i = data.draw(st.integers(0, len(A) - 1))
    at = data.draw(st.integers(0, len(A)))
    same_verdict(gph_normal(query),
                 gph_normal(with_rows(query, A[:at] + [A[i]] + A[at:], b[:at] + [b[i]] + b[at:])))


@settings(deadline=None)
@given(queries, st.data())
def test_scaling_each_row_by_a_power_of_two_keeps_the_verdict(query, data):
    A, b = query["Z"]["A"], query["Z"]["b"]
    scales = data.draw(st.lists(st.integers(-3, 5), min_size=len(A), max_size=len(A)))
    scaled = with_rows(query, [[2.0 ** k * a for a in row] for k, row in zip(scales, A)],
                       [2.0 ** k * v for k, v in zip(scales, b)])
    same_verdict(gph_normal(query), gph_normal(scaled))


@settings(deadline=None)
@given(queries, st.sampled_from([-40, -20, 20]))
def test_scaling_the_system_and_the_tolerance_keeps_the_verdict(query, k):
    A, b = query["Z"]["A"], query["Z"]["b"]
    scaled = with_rows(query, [[2.0 ** k * a for a in row] for row in A],
                       [2.0 ** k * v for v in b])
    same_verdict(gph_normal(query),
                 run(["gph-normal", "--input", "q.json", "--tol", repr(2.0 ** k * DEFAULT_EPS)],
                     {"q.json": scaled}))


@settings(deadline=None)
@given(queries, st.data())
def test_permuting_the_coordinates_keeps_the_verdict(query, data):
    perm = data.draw(st.permutations(range(len(query["z"]))))
    moved = {key: [query[key][j] for j in perm] for key in ("z", "g", "zeta", "eta")}
    moved["Z"] = {"A": [[row[j] for j in perm] for row in query["Z"]["A"]],
                  "b": query["Z"]["b"]}
    same_verdict(gph_normal(query), gph_normal(moved))


# The (problem, certificate) pairs of the portfolio verify goldens.
PORTFOLIO_PAIRS = sorted({
    (argv[argv.index("--problem") + 1], argv[argv.index("--certificate") + 1])
    for argv in (case["argv"] for case in
                 json.loads((GOLDEN / "expected.json").read_text())["outputs"])
    if argv[0] == "verify" and argv[argv.index("--problem") + 1].startswith("pf")})


@settings(deadline=None)
@given(st.sampled_from(PORTFOLIO_PAIRS), st.sampled_from(["convex", "penalized"]), st.data())
def test_splitting_a_sample_into_two_halves_keeps_the_verdict(pair, mode, data):
    problem, cert = (json.loads((GOLDEN / name).read_text()) for name in pair)
    n = data.draw(st.integers(0, len(problem["samples"]) - 1))
    half = problem["weights"][n] / 2
    split = {**problem,
             "samples": problem["samples"][:n + 1] + problem["samples"][n:],
             "weights": problem["weights"][:n] + [half, half] + problem["weights"][n + 1:]}
    twin = {**cert, "scenarios": cert["scenarios"][:n + 1] + cert["scenarios"][n:]}
    argv = ["verify", "--mode", mode, "--problem", "p.json", "--certificate", "c.json"]
    before = run(argv, {"p.json": problem, "c.json": cert})
    after = run(argv, {"p.json": split, "c.json": twin})
    assert before[0] == after[0]
    if before[1] is not None:
        assert before[1]["pass"] == after[1]["pass"]


def permute_assets(problem, cert, perm):
    """The portfolio problem and certificate with the assets, the
    coordinates of z, taken in the order perm."""
    d_z = len(perm)

    def columns(theta):
        if isinstance(theta[0], list):
            return [[row[j] for j in perm] for row in theta]
        return [theta[i + j] for i in range(0, len(theta), d_z) for j in perm]

    sigma = problem["sigma"]
    moved = {**problem, "sigma": [[sigma[i][j] for j in perm] for i in perm],
             "samples": [{**s, "r": [s["r"][j] for j in perm]} for s in problem["samples"]]}
    if "theta0" in problem:
        moved["theta0"] = columns(problem["theta0"])
    scenarios = [{**s, **{key: [s[key][j] for j in perm] for key in ("z", "eta", "zeta")
                          if s.get(key) is not None}} for s in cert["scenarios"]]
    return moved, {**cert, "theta": columns(cert["theta"]), "scenarios": scenarios}


@settings(deadline=None)
@given(st.sampled_from(PORTFOLIO_PAIRS), st.sampled_from(["convex", "penalized"]), st.data())
def test_permuting_the_assets_keeps_every_verdict(pair, mode, data):
    problem, cert = (json.loads((GOLDEN / name).read_text()) for name in pair)
    perm = data.draw(st.permutations(range(len(problem["sigma"]))))
    argv = ["verify", "--mode", mode, "--problem", "p.json", "--certificate", "c.json"]
    moved, moved_cert = permute_assets(problem, cert, perm)
    before = run(argv, {"p.json": problem, "c.json": cert})
    after = run(argv, {"p.json": moved, "c.json": moved_cert})
    assert before[0] == after[0] and (before[1] is None) == (after[1] is None)
    if before[1] is not None:
        assert before[1]["pass"] == after[1]["pass"]
        assert [(s["m_verdict"], s["m_membership"]) for s in before[1]["scenarios"]] \
            == [(s["m_verdict"], s["m_membership"]) for s in after[1]["scenarios"]]
