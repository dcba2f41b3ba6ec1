"""Golden outputs of the verifiers on fixed inputs.

tests/golden holds two generated portfolio problems (`mstat gen portfolio`,
seeds 11 and 5, the second with noise), one closed-form vertex portfolio
instance whose certificates carry a flat theta, and two generated newsvendor
problems (`mstat gen newsvendor`, seeds 2 and 3). Each portfolio problem has
an exact certificate from `mstat spo-portfolio certificate`, one with theta
shifted, one with eta shifted and one with penalty weights mu = 0.5; each
newsvendor problem has certificates at the solved order quantities. Each
portfolio problem pfN also has pfN.theta.json, the theta of its exact
certificate as a d_x by d_z matrix. expected.json records, for each of these
calls of `verify` (both modes) and `newsvendor verify`, and for
`spo-portfolio solve`, `loss` and `certificate` at pfN.theta.json and
`spo-portfolio search --steps 20` on each portfolio problem, the exit code
and the full standard output, which must stay byte-identical.
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
