"""Spiral shooting: mismatch zeros on analytic ladders, config validation,
step refinement, warning paths, the step-matrix product against a
sequential RK4 reference, and the angle profile against a dense one."""

import csv
import warnings

import numpy as np
import pytest
from reference_values import SPIKED_LOWEST

from qtoboggan import shoot
from qtoboggan.contour import ContourSpec
from qtoboggan.errors import (
    ConfigError,
    MergedRootWarning,
    NoConvergenceWarning,
    StepTooCoarseWarning,
)
from qtoboggan.model import ModelSpec

LINE = ContourSpec(epsilon=0.5, winding=0)
SPIRAL = ContourSpec(epsilon=0.15, winding=1)


def _cfg(**kw):
    return shoot.ShootConfig(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        {"steps": 50},
        {"gamma_max": 0.0},
        {"gamma_max": -0.2},
        {"root_tol": 0.0},
        {"max_iter": 0},
        {"phase_resolution": -0.01},
        {"seed_ratio": 0.5},
        {"gamma_max": 1.7},
        {"gamma_max": np.pi / 2},
        {"max_iter": 2.5},
        {"max_iter": True},
        {"steps": 150.5},
        {"steps": True},
        {"steps": 100_001},
    ],
)
def test_shoot_config_validation(kw):
    with pytest.raises(ConfigError):
        _cfg(**kw)


def test_mismatch_vanishes_only_at_eigenvalues(harmonic_model):
    cfg = _cfg()
    vals = shoot.scan_mismatch(harmonic_model, LINE, cfg, [1.0, 2.0, 3.0])
    assert vals[0] < 1e-6
    assert vals[2] < 1e-6
    assert vals[1] > 1e-3


def test_find_harmonic_ladder(harmonic_model):
    cfg = _cfg(root_tol=1e-10)
    roots = shoot.find_eigenvalues(harmonic_model, LINE, cfg, [0.9, 3.2, 4.8])
    assert len(roots) == 3
    assert np.allclose(roots.real, [1.0, 3.0, 5.0], atol=1e-7)
    assert np.abs(roots.imag).max() < 1e-7


def test_duplicate_guesses_deduplicated(harmonic_model):
    cfg = _cfg(root_tol=1e-10)
    with pytest.warns(MergedRootWarning, match=r"guesses 0\.9\+0j, 0\.95\+0j .* as 1"):
        roots = shoot.find_eigenvalues(harmonic_model, LINE, cfg, [0.9, 0.95])
    assert len(roots) == 1
    assert roots[0].real == pytest.approx(1.0, abs=1e-7)


def test_bad_side_rejected(harmonic_model):
    with pytest.raises(ConfigError):
        shoot.integrate_halfpath(harmonic_model, 1.0, "up", _cfg(), LINE)


@pytest.mark.filterwarnings("ignore::qtoboggan.errors.StepTooCoarseWarning")
def test_uniform_step_refinement_is_high_order(harmonic_model):
    # F(E) at a fixed off-eigenvalue energy against a much denser reference:
    # classical fourth-order error decay until the truncation floor.
    E = 1.7
    results = {}
    for steps in (200, 400, 800, 3200):
        cfg = _cfg(steps=steps, phase_resolution=None)
        vL, dL = shoot.integrate_halfpath(harmonic_model, E, "left", cfg, LINE)
        vR, dR = shoot.integrate_halfpath(harmonic_model, E, "right", cfg, LINE)
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
        shoot.integrate_halfpath(harmonic_model, 400.0, "left", cfg, LINE)


def test_free_model_integrates_finite():
    free = ModelSpec(ell=0.0, coeffs={}, omega=0.0)
    cfg = _cfg(gamma_max=1.0, phase_resolution=None, steps=200)
    v, d = shoot.integrate_halfpath(free, 1.0 + 1.0j, "right", cfg, LINE)
    assert np.isfinite(v) and np.isfinite(d)
    assert v != 0


def test_nonconverging_guess_warns_and_is_dropped(harmonic_model):
    cfg = _cfg(root_tol=1e-13, max_iter=1)
    with pytest.warns(NoConvergenceWarning):
        roots = shoot.find_eigenvalues(harmonic_model, LINE, cfg, [2.3])
    assert len(roots) == 0


def test_scan_csv_round_trip(tmp_path, harmonic_model):
    energies = [0.8, 1.0, 1.2]
    vals = shoot.scan_mismatch(harmonic_model, LINE, _cfg(), energies)
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


def _sequential_rk4(half, Es, renorm_limit=1e50):
    """Plain reference: classical RK4 step by step on the seed vector,
    renormalizing when the solution grows past `renorm_limit`.

    Returns (y1, y2, number of renormalizations)."""
    E = np.asarray(Es, dtype=complex)
    slope = np.sqrt(half.U[0] - E) * half.zdot0
    s = np.where(slope.real * np.sign(half.dg[0]) > 0, 1.0, -1.0)
    y1 = np.ones_like(E)
    y2 = s * slope
    renorms = 0
    for i, h in enumerate(half.dg):
        uA = half.U[i] - E
        uM = half.UM[i] - E
        uB = half.U[i + 1] - E
        k1_1 = y2
        k1_2 = half.acc[i] * y2 + half.cc[i] * uA * y1
        t1 = y1 + 0.5 * h * k1_1
        t2 = y2 + 0.5 * h * k1_2
        k2_1 = t2
        k2_2 = half.accM[i] * t2 + half.ccM[i] * uM * t1
        t1 = y1 + 0.5 * h * k2_1
        t2 = y2 + 0.5 * h * k2_2
        k3_1 = t2
        k3_2 = half.accM[i] * t2 + half.ccM[i] * uM * t1
        t1 = y1 + h * k3_1
        t2 = y2 + h * k3_2
        k4_1 = t2
        k4_2 = half.acc[i + 1] * t2 + half.cc[i + 1] * uB * t1
        y1 = y1 + (h / 6.0) * (k1_1 + 2.0 * (k2_1 + k3_1) + k4_1)
        y2 = y2 + (h / 6.0) * (k1_2 + 2.0 * (k2_2 + k3_2) + k4_2)
        mm = np.maximum(np.abs(y1), np.abs(y2))
        big = mm > renorm_limit
        if np.any(big):
            y1 = np.where(big, y1 / mm, y1)
            y2 = np.where(big, y2 / mm, y2)
            renorms += int(big.sum())
    return y1, y2, renorms


@pytest.mark.parametrize(
    "case, contour, cfg_kw, energies, grows_past_1e50",
    [
        ("harmonic", LINE, {}, [1.7, 1.7 + 0.4j, 5.2], False),
        ("cubic", SPIRAL, {}, [4.4, 4.4 - 0.3j, 7.9], False),
        ("harmonic", LINE, {"gamma_max": 1.55}, [1.0, 2.3 + 0.5j], True),
    ],
    ids=["harmonic", "cubic-winding1", "harmonic-long-path"],
)
def test_step_matrix_product_matches_sequential_rk4(
    case, contour, cfg_kw, energies, grows_past_1e50, harmonic_model, cubic_model
):
    spec = {"harmonic": harmonic_model, "cubic": cubic_model}[case]
    Es = np.asarray(energies, dtype=complex)
    halves = shoot._halfpaths(spec, contour, _cfg(**cfg_kw), complex(Es.real.max()))
    for half in halves:
        v, d = shoot._integrate_batch(half, Es)
        v_ref, d_ref, renorms = _sequential_rk4(half, Es)
        assert (renorms > 0) == grows_past_1e50
        assert np.all(np.abs(d / v - d_ref / v_ref) <= 1e-12 * np.abs(d_ref / v_ref))


def test_scan_over_several_blocks_equals_energy_by_energy(harmonic_model):
    energies = np.linspace(0.2, 6.5, 2 * shoot._ENERGY_BLOCK + 3)
    vals = shoot.scan_mismatch(harmonic_model, LINE, _cfg(), energies)
    halfL, halfR = shoot._halfpaths(harmonic_model, LINE, _cfg(), complex(energies.max()))
    single = [abs(shoot._mismatch(halfL, halfR, np.array([E], dtype=complex))[0]) for E in energies]
    assert vals == pytest.approx(single, rel=1e-13)


def test_root_does_not_depend_on_the_other_guesses(harmonic_model):
    # the truncation is sized at the largest guess, so the top guess alone
    # builds the same half-paths as the full guess set
    cfg = _cfg(root_tol=1e-10)
    top = shoot.find_eigenvalues(harmonic_model, LINE, cfg, [0.9, 2.8, 5.2])[-1]
    alone = shoot.find_eigenvalues(harmonic_model, LINE, cfg, [5.2])
    assert len(alone) == 1
    assert alone[0] == pytest.approx(top, rel=1e-13)


def test_coarse_steps_warn_once_per_half_path(harmonic_model):
    cfg = _cfg(steps=100, phase_resolution=None, max_iter=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shoot.find_eigenvalues(harmonic_model, LINE, cfg, [400.0])
    coarse = [w for w in caught if issubclass(w.category, StepTooCoarseWarning)]
    assert len(coarse) == 2
    assert {w.filename for w in coarse} == {__file__}


# the profile the package used before it was sized to the nodes it places
DENSE_PROFILE = {"_PROFILE_HEAD": 60001, "_PROFILE_TAIL": 240001}


def _profile_and_truncation(spec, contour, side, E_ref, seed_ratio):
    sgn = 1.0 if side == "right" else -1.0
    t, w, _, rate = shoot._profile(spec, contour, sgn, E_ref)
    i_star, j = shoot._truncation(t, rate, seed_ratio)
    return t, w, rate, i_star, j


@pytest.mark.parametrize(
    "case, contour, cfg_kw, guesses",
    [
        ("harmonic", LINE, {"root_tol": 1e-10}, [0.9, 2.8, 5.2]),
        ("cubic", SPIRAL, {"root_tol": 1e-9, "phase_resolution": 0.02}, [1.3, 4.4, 7.9]),
        ("spiked", ContourSpec(epsilon=1.0, winding=0), {"root_tol": 1e-9}, SPIKED_LOWEST),
        ("spiked", ContourSpec(epsilon=2.0, winding=0), {"root_tol": 1e-9}, SPIKED_LOWEST),
    ],
    ids=["harmonic", "cubic-winding1", "spiked-eps1", "spiked-eps2"],
)
def test_profile_agrees_with_the_dense_reference(
    case, contour, cfg_kw, guesses, monkeypatch, harmonic_model, cubic_model, spiked_model
):
    spec = {"harmonic": harmonic_model, "cubic": cubic_model, "spiked": spiked_model}[case]
    cfg = _cfg(**cfg_kw)
    E_ref = complex(max(guesses))
    coarse = {
        side: _profile_and_truncation(spec, contour, side, E_ref, cfg.seed_ratio)
        for side in ("left", "right")
    }
    roots = shoot.find_eigenvalues(spec, contour, cfg, guesses)
    for name, size in DENSE_PROFILE.items():
        monkeypatch.setattr(shoot, name, size)
    roots_ref = shoot.find_eigenvalues(spec, contour, cfg, guesses)
    assert len(roots) == len(roots_ref) == len(guesses)
    assert np.all(np.abs(roots - roots_ref) <= 1e-10 * np.abs(roots_ref))

    for side, (t, w, _, _, j) in coarse.items():
        t_ref, w_ref, rate_ref, i_star_ref, j_ref = _profile_and_truncation(
            spec, contour, side, E_ref, cfg.seed_ratio
        )
        # t_end within one coarse cell of the dense truncation
        assert abs(t[j] - t_ref[j_ref]) <= np.diff(t)[j - 1 : j + 1].max()
        # the seed ratio, integrated on the dense profile, is still reached at t_end
        cum_ref = shoot._cumulative_trapezoid(rate_ref, t_ref)
        depth = abs(np.interp(t[j], t_ref, cum_ref) - cum_ref[i_star_ref])
        assert depth >= np.log(cfg.seed_ratio)
        # the coarse square root stays on the dense one's branch everywhere
        w_dense = np.interp(t, t_ref, w_ref.real) + 1j * np.interp(t, t_ref, w_ref.imag)
        assert np.all(np.abs(w - w_dense) < np.abs(w + w_dense))


# the half-path reach grows as rho^(2N+1): past the node budget a run is
# refused before anything of its size is allocated
@pytest.mark.parametrize(
    "spec_kw, contour",
    [
        pytest.param({"coeffs": {3: 1j}, "omega": 1.0}, ContourSpec(0.15, 3), id="cubic_winding3"),
        pytest.param(
            {"ell": 0.3, "coeffs": {3: 1j}, "omega": 1.0}, ContourSpec(0.5, 1), id="branch_eps0.5"
        ),
    ],
)
def test_half_path_over_the_node_budget_is_a_config_error(spec_kw, contour):
    with pytest.raises(ConfigError, match=r"needs [\d,]+ integration steps, over the budget"):
        shoot.find_eigenvalues(ModelSpec(**spec_kw), contour, _cfg(), [1.3, 4.4, 7.9])


def test_half_path_inside_the_node_budget_is_built():
    # branch_eps0.5's model places ~17,500 nodes per half-path at eps = 0.25
    spec = ModelSpec(ell=0.3, coeffs={3: 1j}, omega=1.0)
    half = shoot._build_halfpath(spec, ContourSpec(0.25, 1), "right", 5.25, _cfg())
    assert 10_000 < len(half.dg) <= shoot._MAX_NODES

