"""Spiral shooting: mismatch zeros on analytic ladders, config validation,
step refinement, and warning paths."""

import csv

import numpy as np
import pytest

from qtoboggan import shoot
from qtoboggan.contour import ContourSpec
from qtoboggan.errors import ConfigError, NoConvergenceWarning, StepTooCoarseWarning
from qtoboggan.model import ModelSpec

LINE = ContourSpec(epsilon=0.5, winding=0)


def _cfg(**kw):
    return shoot.ShootConfig(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        {"steps": 50},
        {"match_gamma": -0.1},
        {"match_gamma": 1.5},
        {"root_tol": 0.0},
        {"max_iter": 0},
        {"phase_resolution": -0.01},
        {"seed_ratio": 0.5},
        {"gamma_max": 1.7},
        {"gamma_max": 0.2, "match_gamma": 0.3},
    ],
)
def test_shoot_config_validation(kw):
    with pytest.raises(ConfigError):
        _cfg(**kw)


def test_mismatch_vanishes_only_at_eigenvalues(harmonic_model):
    cfg = _cfg()
    vals = shoot.scan_mismatch(harmonic_model, 0, LINE, cfg, [1.0, 2.0, 3.0])
    assert vals[0] < 1e-6
    assert vals[2] < 1e-6
    assert vals[1] > 1e-3


def test_find_harmonic_ladder(harmonic_model):
    cfg = _cfg(root_tol=1e-10)
    roots = shoot.find_eigenvalues(harmonic_model, 0, LINE, cfg, [0.9, 3.2, 4.8])
    assert len(roots) == 3
    assert np.allclose(roots.real, [1.0, 3.0, 5.0], atol=1e-7)
    assert np.abs(roots.imag).max() < 1e-7


def test_duplicate_guesses_deduplicated(harmonic_model):
    cfg = _cfg(root_tol=1e-10)
    roots = shoot.find_eigenvalues(harmonic_model, 0, LINE, cfg, [0.9, 0.95])
    assert len(roots) == 1
    assert roots[0].real == pytest.approx(1.0, abs=1e-7)


def test_winding_mismatch_rejected(harmonic_model):
    spiral = ContourSpec(epsilon=0.5, winding=1)
    with pytest.raises(ConfigError):
        shoot.find_eigenvalues(harmonic_model, 0, spiral, _cfg(), [1.0])
    with pytest.raises(ConfigError):
        shoot.integrate_halfpath(harmonic_model, 0, 1.0, "left", _cfg(), spiral)


def test_bad_side_rejected(harmonic_model):
    with pytest.raises(ConfigError):
        shoot.integrate_halfpath(harmonic_model, 0, 1.0, "up", _cfg(), LINE)


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.StepTooCoarseWarning")
def test_uniform_step_refinement_is_high_order(harmonic_model):
    # F(E) at a fixed off-eigenvalue energy against a much denser reference:
    # classical fourth-order error decay until the truncation floor.
    E = 1.7
    results = {}
    for steps in (200, 400, 800, 3200):
        cfg = _cfg(steps=steps, phase_resolution=None)
        vL, dL = shoot.integrate_halfpath(harmonic_model, 0, E, "left", cfg, LINE)
        vR, dR = shoot.integrate_halfpath(harmonic_model, 0, E, "right", cfg, LINE)
        results[steps] = (vL * dR - vR * dL) / (
            np.hypot(abs(vL), abs(dL)) * np.hypot(abs(vR), abs(dR))
        )
    ref = results[3200]
    e200, e400, e800 = (abs(results[s] - ref) for s in (200, 400, 800))
    assert e400 < e200
    assert e200 / e400 > 6.0 or e400 < 1e-13
    assert e400 / e800 > 6.0 or e800 < 1e-13


def test_coarse_steps_warn(harmonic_model):
    cfg = _cfg(steps=100, phase_resolution=None)
    with pytest.warns(StepTooCoarseWarning):
        shoot.integrate_halfpath(harmonic_model, 0, 400.0, "left", cfg, LINE)


def test_free_model_integrates_finite():
    free = ModelSpec(ell=0.0, coeffs={}, omega=0.0)
    cfg = _cfg(gamma_max=1.0, phase_resolution=None, steps=200)
    v, d = shoot.integrate_halfpath(free, 0, 1.0 + 1.0j, "right", cfg, LINE)
    assert np.isfinite(v) and np.isfinite(d)
    assert v != 0


def test_nonconverging_guess_warns_and_is_dropped(harmonic_model):
    cfg = _cfg(root_tol=1e-13, max_iter=1)
    with pytest.warns(NoConvergenceWarning):
        roots = shoot.find_eigenvalues(harmonic_model, 0, LINE, cfg, [2.3])
    assert len(roots) == 0


def test_scan_csv_round_trip(tmp_path, harmonic_model):
    energies = [0.8, 1.0, 1.2]
    vals = shoot.scan_mismatch(harmonic_model, 0, LINE, _cfg(), energies)
    assert vals[1] < vals[0] and vals[1] < vals[2]
    out = tmp_path / "scan.csv"
    shoot.save_scan_csv(str(out), energies, vals)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["re_E"] for r in rows] == ["0.8", "1.0", "1.2"]
    assert float(rows[1]["abs_F"]) == pytest.approx(vals[1], rel=1e-12)
    assert all(r["im_E"] == "0.0" for r in rows)


def test_spiral_roots_are_real_and_ordered(cubic_roots):
    assert len(cubic_roots) == 3
    assert np.abs(cubic_roots.imag).max() < 1e-7
    assert np.all(np.diff(cubic_roots.real) > 0)
