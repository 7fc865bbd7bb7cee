"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README quick start", "exec"), scope)
    assert scope["dist"].probs.shape == (18, 18)
    assert np.allclose(scope["dist"].probs.sum(axis=0), 1.0)
    assert scope["sel"].geometry == "cartesian"
    assert "(18, 18)" in capsys.readouterr().out
