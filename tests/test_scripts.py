"""The scripts under scripts/ run end to end from a foreign working directory."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from reference_values import CUBIC_LINE_LOWEST

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(
            ["run_rectification_check.py"], "full-precision cubic grid values",
            id="run_rectification_check",
        ),
    ],
)
def test_script_runs(tmp_path, argv, expected):
    assert expected in run_script(tmp_path, argv)


def test_reference_spectra_reproduce_the_frozen_cubic_values(tmp_path):
    # the independent fourth-order route behind CUBIC_LINE_LOWEST
    out = json.loads(run_script(tmp_path, ["compute_reference_spectra.py"]))
    lowest = np.array([re for re, _ in out["cubic_line_lowest"]])
    assert np.abs(lowest - CUBIC_LINE_LOWEST).max() <= 1e-9
