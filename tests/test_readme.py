"""The README's library quickstart runs as written."""

import os
import re

import numpy as np

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)


def test_readme_quickstart_runs():
    blocks = python_blocks()
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], README, "exec"), namespace)
    # the two routes agree as the comment in the block claims
    assert np.allclose(namespace["lam"].real, namespace["roots"].real, rtol=1e-4)
    assert np.allclose(namespace["grid"], namespace["lam"], rtol=1e-10)
    assert np.all(namespace["residuals"] < 1e-8)
    assert namespace["res"].diagnostics["min_eig"] > 0
