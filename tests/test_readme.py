"""The README's library quickstart runs as written, and its command line
section names every shooting setting and no other."""

import os
import re
from dataclasses import fields

import numpy as np

from qtoboggan import cli, shoot

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def read_readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def python_blocks():
    return re.findall(r"```python\n(.*?)```", read_readme(), flags=re.DOTALL)


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


def command_line_section():
    return read_readme().split("## Command line\n")[1].split("\n## ")[0]


def test_readme_command_line_names_every_shoot_setting():
    section = command_line_section()
    missing = [f.name for f in fields(shoot.ShootConfig) if f"shoot.{f.name}" not in section]
    assert not missing, missing


def test_readme_command_line_names_no_unknown_shoot_key():
    # a key the shoot section does not accept exits 4, so the README must not offer it
    named = set(re.findall(r"(?<![\w.])shoot\.(\w+)", command_line_section()))
    assert named and not named - cli._SHOOT_KEYS, sorted(named - cli._SHOOT_KEYS)
