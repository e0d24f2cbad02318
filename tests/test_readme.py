"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["estimate"].coeffs.shape == (65, scope["cfg"].P_retained)
    # a small error, measured to better than its own size
    assert 0.0 < scope["std_err"] < scope["mise"] < 1e-4
