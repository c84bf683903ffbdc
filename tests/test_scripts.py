"""The scripts under scripts/ run end to end from a foreign working directory."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(
            ["run_metric_demo.py", "--n", "80"], "Hermiticity of the metric-dressed operators",
            id="run_metric_demo",
        ),
        pytest.param(["run_spectrum_table.py"], "harmonic  V=x^2", id="run_spectrum_table"),
        pytest.param(
            ["run_rectification_check.py"], "full-precision cubic grid values",
            id="run_rectification_check",
        ),
    ],
)
def test_script_runs(tmp_path, argv, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
