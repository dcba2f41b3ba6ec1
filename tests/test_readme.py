"""The library quick start of README.md stays runnable."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    for number, block in enumerate(blocks, 1):
        exec(compile(block, "README.md python block %d" % number, "exec"), {})
