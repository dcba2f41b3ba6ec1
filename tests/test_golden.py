"""Golden outputs of the verifiers on fixed inputs.

tests/golden holds two generated portfolio problems (`mstat gen portfolio`,
seeds 11 and 5, the second with noise), one closed-form vertex portfolio
instance whose certificates carry a flat theta, and two generated newsvendor
problems (`mstat gen newsvendor`, seeds 2 and 3). Each portfolio problem has
an exact certificate from `mstat spo-portfolio certificate`, one with theta
shifted, one with eta shifted and one with penalty weights mu = 0.5; each
newsvendor problem has certificates at the solved order quantities.
expected.json records the output of the verifiers before they were merged
into one pipeline: the full stdout and exit code of `verify` (both modes) and
`newsvendor verify`, and the verdict fields of `spo-portfolio system`, whose
m_residual and complementarity_gap changed on purpose.
"""

import json
from pathlib import Path

import pytest

from mstat.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())


def run(capsys, argv):
    code = main([str(GOLDEN / a) if a.endswith(".json") else a for a in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", EXPECTED["outputs"], ids=lambda c: " ".join(c["argv"]))
def test_verify_output_is_byte_identical(case, capsys):
    assert run(capsys, case["argv"]) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("case", EXPECTED["system"], ids=lambda c: " ".join(c["argv"]))
def test_portfolio_system_verdicts_are_unchanged(case, capsys):
    code, out = run(capsys, case["argv"])
    rep = json.loads(out)["report"]
    assert code == case["exit"] and rep["pass"] == case["pass"]
    assert rep["upper_residual"] == case["upper_residual"]
    fields = [{k: s[k] for k in case["scenarios"][0]} for s in rep["scenarios"]]
    assert fields == case["scenarios"]
