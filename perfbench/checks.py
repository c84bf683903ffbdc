"""Correctness checks on the artifacts of one CLI invocation.

Each checker takes the output directory and the (seeded) raw config the
invocation ran on, and returns ``(problems, deviations)``: a list of
human-readable failures (empty when the output is correct) and the raw
deviations from the frozen references, reported as per-layer metrics.

References are read from ``tests/reference_values.py`` and tolerances from
``qtoboggan.cli.DEFAULT_TOLERANCES``; nothing is copied here.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
from typing import Dict, List, Tuple

from qtoboggan.cli import DEFAULT_TOLERANCES

# Acceptance criterion 5 compares the converged shooting roots of the
# winding-1 cubic with the frozen values at this absolute tolerance.
SHOOT_REF_ATOL = 1e-5
# tests/test_shoot.py holds the harmonic-line roots to the exact ladder at this
# absolute tolerance.
HARMONIC_SHOOT_ATOL = 1e-7
VALIDATE_CHECKS = 19

Result = Tuple[List[str], Dict[str, float]]


def load_references(root: str):
    """Import tests/reference_values.py by path, without touching sys.path."""
    path = os.path.join(root, "tests", "reference_values.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path: str) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _match_shoot_refs(values: List[float], refs: List[float], atol: float, label: str,
                      problems: List[str]) -> float:
    """Compare roots with reference values; returns the max rel deviation."""
    worst = 0.0
    for j, value in enumerate(values):
        ref = refs[j]
        if not abs(value - ref) <= atol:
            problems.append(f"{label} {j}: {value!r} differs from reference {ref} by more than {atol}")
        worst = max(worst, abs(value - ref) / abs(ref))
    return worst


def _compare(out_dir: str, raw: dict, grid_refs: List[float], shoot_refs: List[float],
             shoot_atol: float) -> Result:
    """compare.json covers every guess within compare_rel; delta.csv matches the references."""
    problems: List[str] = []
    expected = len(raw["shoot"]["guesses"])
    summary = _json(os.path.join(out_dir, "compare.json"))
    rows = _rows(os.path.join(out_dir, "delta.csv"))
    limit = DEFAULT_TOLERANCES["compare_rel"]
    if summary["compared_modes"] != expected or len(rows) != expected:
        problems.append(f"compared {summary['compared_modes']} modes ({len(rows)} rows), expected {expected}")
    if not summary["max_rel_delta"] <= limit:
        problems.append(f"max_rel_delta {summary['max_rel_delta']:.3e} exceeds compare_rel {limit}")
    grid = [float(r["re_E_grid"]) for r in rows]
    shoot = [float(r["re_E_shoot"]) for r in rows]
    root_err = _match_shoot_refs(shoot, shoot_refs, shoot_atol, "shooting root", problems)
    grid_err = max((abs(g - r) / abs(r) for g, r in zip(grid, grid_refs)), default=0.0)
    return problems, {"spectra.grid_ref_rel_err": grid_err, "shoot.root_ref_rel_err": root_err}


def cubic_compare(out_dir: str, raw: dict, refs) -> Result:
    return _compare(out_dir, raw, refs.CUBIC_TOBOGGAN_GRID_LOWEST, refs.CUBIC_TOBOGGAN_SHOOT_LOWEST,
                    SHOOT_REF_ATOL)


def harmonic_compare(out_dir: str, raw: dict, refs) -> Result:
    problems, deviations = _compare(out_dir, raw, refs.HARMONIC_LOWEST, refs.HARMONIC_LOWEST,
                                    HARMONIC_SHOOT_ATOL)
    if not deviations["spectra.grid_ref_rel_err"] <= DEFAULT_TOLERANCES["compare_rel"]:
        problems.append(f"grid modes miss the ladder by {deviations['spectra.grid_ref_rel_err']:.2e} relative")
    return problems, deviations


def cubic_shoot(out_dir: str, raw: dict, refs) -> Result:
    problems: List[str] = []
    expected = len(raw["shoot"]["guesses"])
    roots = [float(r["re_E"]) for r in _rows(os.path.join(out_dir, "roots.csv"))]
    if len(roots) != expected:
        problems.append(f"{len(roots)} roots for {expected} guesses")
    root_err = _match_shoot_refs(roots, refs.CUBIC_TOBOGGAN_SHOOT_LOWEST, SHOOT_REF_ATOL, "root", problems)
    scan = _rows(os.path.join(out_dir, "scan.csv"))
    if len(scan) != 101 or not all(math.isfinite(float(r["abs_F"])) for r in scan):
        problems.append(f"scan.csv: expected 101 finite |F| values, got {len(scan)} rows")
    return problems, {"spectra.grid_ref_rel_err": 0.0, "shoot.root_ref_rel_err": root_err}


def harmonic_validate(out_dir: str, raw: dict, refs) -> Result:
    problems: List[str] = []
    report = _json(os.path.join(out_dir, "validate.json"))
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    if failed or not report["passed"]:
        problems.append(f"validate checks failed: {failed}")
    if len(report["checks"]) != VALIDATE_CHECKS:
        problems.append(f"validate ran {len(report['checks'])} checks, expected {VALIDATE_CHECKS}")
    return problems, {"spectra.grid_ref_rel_err": 0.0, "shoot.root_ref_rel_err": 0.0}


def harmonic_metric(out_dir: str, raw: dict, refs) -> Result:
    problems: List[str] = []
    ladder = refs.HARMONIC_LOWEST
    lowest = [float(r["re_lambda"]) for r in _rows(os.path.join(out_dir, "spectrum.csv"))[: len(ladder)]]
    grid_err = max((abs(e - x) / abs(x) for e, x in zip(lowest, ladder)), default=0.0)
    if len(lowest) != len(ladder) or not grid_err <= DEFAULT_TOLERANCES["compare_rel"]:
        problems.append(f"lowest modes {lowest} miss the ladder {ladder} (rel {grid_err:.2e})")
    diag = _json(os.path.join(out_dir, "diagnostics.json"))
    limits = {
        "quasiH": DEFAULT_TOLERANCES["quasi_hermiticity"],
        "quasiW": DEFAULT_TOLERANCES["quasi_hermiticity"],
        "hermiticity": DEFAULT_TOLERANCES["theta_hermiticity"],
    }
    for key, limit in limits.items():
        if not diag[key] <= limit:
            problems.append(f"diagnostic {key} = {diag[key]} exceeds {limit}")
    if not diag["min_eig"] > 0:
        problems.append(f"Theta is not positive: min_eig = {diag['min_eig']}")
    residuals = _json(os.path.join(out_dir, "residuals.json"))
    worst = max(residuals["max_residual_right"], residuals["max_residual_left"])
    if not worst <= DEFAULT_TOLERANCES["residual"]:
        problems.append(f"mode residual {worst:.2e} exceeds {DEFAULT_TOLERANCES['residual']}")
    for name in ("theta.bin", "S.bin"):
        if os.path.getsize(os.path.join(out_dir, name)) == 0:
            problems.append(f"{name} is empty")
    return problems, {"spectra.grid_ref_rel_err": grid_err, "shoot.root_ref_rel_err": 0.0}


def check(checker, out_dir: str, raw: dict, refs) -> Result:
    """Run a checker; a missing or malformed artifact is a failure, not a crash."""
    try:
        return checker(out_dir, raw, refs)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable artifact: {exc!r}"], {}
