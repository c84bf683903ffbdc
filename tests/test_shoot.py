"""Spiral shooting: mismatch zeros on analytic ladders, config validation,
step refinement, warning paths, the step-matrix product against a
sequential RK4 reference, the blocked kernels against one-pass ones and the
memory they trace, and the angle profile against a dense one."""

import csv
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from reference_values import SPIKED_LOWEST

from qtoboggan import cli, shoot
from qtoboggan.contour import ContourSpec, spiral
from qtoboggan.errors import (
    ConfigError,
    MergedRootWarning,
    NoConvergenceWarning,
    StepTooCoarseWarning,
)
from qtoboggan.model import ModelSpec

LINE = ContourSpec(epsilon=0.5, winding=0)
SPIRAL = ContourSpec(epsilon=0.15, winding=1)
BOTH = ("left", "right")
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# V = x^2 + x/2 = (x + 1/4)^2 - 1/16 has a real odd coefficient, so it is not
# PT-symmetric; its exact ladder is 2k + 15/16
SHIFTED_HARMONIC = ModelSpec(coeffs={2: 1.0, 1: 0.5})
SHIFTED_HARMONIC_LOWEST = [2 * k + 15 / 16 for k in range(3)]


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


def test_no_guesses_find_no_roots(harmonic_model):
    roots = shoot.find_eigenvalues(harmonic_model, LINE, _cfg(), [])
    assert roots.shape == (0,) and roots.dtype == complex


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


def test_scan_csv_round_trip(tmp_path):
    # the scan.csv that the shoot command writes for its shoot.scan section
    config = os.path.join(CONFIGS, "harmonic_line.json")
    overrides = ["shoot.guesses=[0.9]", 'shoot.scan={"start": 0.8, "stop": 1.2, "count": 3}']
    argv = ["--config", config, "--command", "shoot", "--out", str(tmp_path)]
    assert cli.main(argv + [a for o in overrides for a in ("--override", o)]) == 0
    with open(tmp_path / "scan.csv", newline="") as fh:
        assert fh.readline() == "re_E,im_E,abs_F\r\n"
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert [r["re_E"] for r in rows] == ["0.8", "1.0", "1.2"]
    assert all(r["im_E"] == "0.0" for r in rows)
    run = cli.load_config(config, overrides)
    vals = shoot.scan_mismatch(run.model, run.contour, run.shoot_cfg, [0.8, 1.0, 1.2])
    assert vals[1] < vals[0] and vals[1] < vals[2]
    assert [float(r["abs_F"]) for r in rows] == pytest.approx(vals, rel=1e-12)


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
        uA = half.U[2 * i] - E
        uM = half.U[2 * i + 1] - E
        uB = half.U[2 * i + 2] - E
        k1_1 = y2
        k1_2 = half.acc[2 * i] * y2 + half.cc[2 * i] * uA * y1
        t1 = y1 + 0.5 * h * k1_1
        t2 = y2 + 0.5 * h * k1_2
        k2_1 = t2
        k2_2 = half.acc[2 * i + 1] * t2 + half.cc[2 * i + 1] * uM * t1
        t1 = y1 + 0.5 * h * k2_1
        t2 = y2 + 0.5 * h * k2_2
        k3_1 = t2
        k3_2 = half.acc[2 * i + 1] * t2 + half.cc[2 * i + 1] * uM * t1
        t1 = y1 + h * k3_1
        t2 = y2 + h * k3_2
        k4_1 = t2
        k4_2 = half.acc[2 * i + 2] * t2 + half.cc[2 * i + 2] * uB * t1
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
    halves = shoot._halfpaths(spec, contour, _cfg(**cfg_kw), complex(Es.real.max()), BOTH)
    for half in halves:
        v, d = shoot._integrate_batch(half, Es)
        v_ref, d_ref, renorms = _sequential_rk4(half, Es)
        assert (renorms > 0) == grows_past_1e50
        assert np.all(np.abs(d / v - d_ref / v_ref) <= 1e-12 * np.abs(d_ref / v_ref))


def test_scan_over_several_blocks_equals_energy_by_energy(harmonic_model):
    energies = np.linspace(0.2, 6.5, 2 * shoot._ENERGY_BLOCK + 3)
    vals = shoot.scan_mismatch(harmonic_model, LINE, _cfg(), energies)
    halves = shoot._halfpaths(harmonic_model, LINE, _cfg(), complex(energies.max()))
    single = [abs(shoot._mismatch(halves, np.array([E], dtype=complex))[0]) for E in energies]
    assert np.array_equal(vals, single)


def _step_matrices_one_pass(half, E):
    """The step matrices of all steps at once, as built before the step blocks."""
    h = half.dg
    acc = half.acc
    c = half.cc * (half.U - E[:, None])
    cA, cM, cB = c[:, :-2:2], c[:, 1::2], c[:, 2::2]
    y1 = np.array([1.0, 0.0]).reshape(2, 1, 1)
    y2 = np.array([0.0, 1.0]).reshape(2, 1, 1)
    k1_1 = y2
    k1_2 = acc[:-2:2] * y2 + cA * y1
    t1 = y1 + 0.5 * h * k1_1
    t2 = y2 + 0.5 * h * k1_2
    k2_1 = t2
    k2_2 = acc[1::2] * t2 + cM * t1
    t1 = y1 + 0.5 * h * k2_1
    t2 = y2 + 0.5 * h * k2_2
    k3_1 = t2
    k3_2 = acc[1::2] * t2 + cM * t1
    t1 = y1 + h * k3_1
    t2 = y2 + h * k3_2
    k4_1 = t2
    k4_2 = acc[2::2] * t2 + cB * t1
    M = np.empty((2, 2) + cA.shape, dtype=complex)
    M[0] = y1 + (h / 6.0) * (k1_1 + 2.0 * (k2_1 + k3_1) + k4_1)
    M[1] = y2 + (h / 6.0) * (k1_2 + 2.0 * (k2_2 + k3_2) + k4_2)
    return M


def _profile_one_pass(spec, contour, sgn, E_ref):
    """(t, w, z', rate) on all profile points at once, as built before the blocks."""
    head = np.linspace(1e-6, shoot._PROFILE_KNEE, shoot._PROFILE_HEAD)
    tail = np.pi / 2 - np.geomspace(
        np.pi / 2 - head[-1], np.pi / 2 - shoot._GAMMA_CAP, shoot._PROFILE_TAIL
    )
    t = np.concatenate([head, tail[1:]])
    z, zdot, _ = spiral(sgn * t, contour.epsilon, contour.degree)
    w = np.sqrt(spec.potential(z) - E_ref)
    flip = np.abs(np.diff(w)) > np.abs(w[1:] + w[:-1])
    signs = np.ones(len(w))
    signs[1:] = np.where(flip, -1.0, 1.0)
    w = w * np.cumprod(signs)
    return t, w, zdot, np.real(w * zdot) * sgn


# the half-paths of the shipped harmonic and cubic guess sets
@pytest.mark.parametrize(
    "case, contour, E_ref, steps",
    [("harmonic", LINE, 5.2, 2391), ("cubic", SPIRAL, 7.9, 5655)],
    ids=["harmonic", "cubic-winding1"],
)
def test_block_edges_change_no_bits(case, contour, E_ref, steps, harmonic_model, cubic_model):
    spec = {"harmonic": harmonic_model, "cubic": cubic_model}[case]
    Es = np.array([0.9, 2.8 + 0.3j, 4.4 - 0.2j, E_ref], dtype=complex)
    for half in shoot._halfpaths(spec, contour, _cfg(), complex(E_ref), BOTH):
        assert len(half.dg) == steps and steps % shoot._BLOCK
        assert np.array_equal(shoot._step_matrices(half, Es), _step_matrices_one_pass(half, Es))
    for sgn in (1.0, -1.0):
        blocked = shoot._profile(spec, contour, sgn, complex(E_ref))
        assert len(blocked[0]) % shoot._PROFILE_BLOCK
        for got, want in zip(blocked, _profile_one_pass(spec, contour, sgn, complex(E_ref))):
            assert np.array_equal(got, want)


def test_integrate_batch_traces_at_most_2_5_step_matrix_arrays(cubic_model):
    # one-pass step matrices traced 6.6 times the (2, 2, 8, steps) array here
    half = shoot._build_halfpath(cubic_model, SPIRAL, "right", 7.9, _cfg())
    Es = np.linspace(1.3, 7.9, shoot._ENERGY_BLOCK) + 0.1j
    array_bytes = 2 * 2 * len(Es) * len(half.dg) * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        shoot._integrate_batch(half, Es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(half.dg) == 5655
    assert peak - entry <= 2.5 * array_bytes, (peak - entry) / array_bytes


def test_root_does_not_depend_on_the_other_guesses(harmonic_model):
    # the truncation is sized at the largest guess, so the top guess alone
    # builds the same half-paths as the full guess set
    cfg = _cfg(root_tol=1e-10)
    top = shoot.find_eigenvalues(harmonic_model, LINE, cfg, [0.9, 2.8, 5.2])[-1]
    alone = shoot.find_eigenvalues(harmonic_model, LINE, cfg, [5.2])
    assert len(alone) == 1
    assert alone[0] == pytest.approx(top, rel=1e-13)


class _TwoSided(ModelSpec):
    """The same potential, shot along both half-paths as a model without PT symmetry is."""

    pt_flag = False


@pytest.fixture
def builds(monkeypatch):
    """(PT flag, side) of every half-path that shooting builds."""
    built = []
    build = shoot._build_halfpath

    def counting(model, contour, side, E_ref, cfg):
        built.append((model.pt_flag, side))
        return build(model, contour, side, E_ref, cfg)

    monkeypatch.setattr(shoot, "_build_halfpath", counting)
    return built


def _shipped(name):
    run = cli.load_config(os.path.join(CONFIGS, name))
    guesses = np.asarray(run.guesses, dtype=complex)
    return run, guesses, complex(guesses.real.max())


SHIPPED = ["harmonic_line.json", "cubic_winding1.json", "toboggan_branch.json"]


@pytest.mark.parametrize("name", SHIPPED)
def test_left_half_path_is_the_mirror_of_the_right_one(name):
    run, guesses, E_ref = _shipped(name)
    assert run.model.pt_flag
    left, right = (
        shoot._build_halfpath(run.model, run.contour, side, E_ref, run.shoot_cfg) for side in BOTH
    )
    assert np.array_equal(left.dg, -right.dg)
    assert np.array_equal(left.acc, -right.acc.conj())
    assert np.array_equal(left.cc, right.cc.conj())
    assert np.array_equal(left.U, right.U.conj())
    assert left.zdot0 == right.zdot0.conjugate()
    Es = np.concatenate((guesses, [2.3 + 0.5j, 4.4 - 0.3j, 7.9 + 2j]))
    vL, dL = shoot._integrate_batch(left, Es)
    vR, dR = shoot._integrate_batch(right, Es.conj())
    assert np.array_equal(vL, vR.conj())
    assert np.array_equal(dL, -dR.conj())


@pytest.mark.parametrize("name", SHIPPED)
def test_mirrored_shooting_equals_the_two_sided_one(name, builds):
    run, guesses, _ = _shipped(name)
    spec, contour, cfg = run.model, run.contour, run.shoot_cfg
    two_sided = _TwoSided(ell=spec.ell, coeffs=spec.coeffs, omega=spec.omega)
    energies = np.concatenate((guesses, guesses + 0.2j, guesses - 0.4j))
    for call, args in ((shoot.find_eigenvalues, guesses), (shoot.scan_mismatch, energies)):
        builds.clear()
        got = call(spec, contour, cfg, args)
        assert builds == [(True, "right")]
        want = call(two_sided, contour, cfg, args)
        assert builds[1:] == [(False, "left"), (False, "right")]
        assert np.array_equal(got, want)
    assert len(got) == len(energies)


def test_model_without_pt_symmetry_builds_both_half_paths(builds):
    assert not SHIFTED_HARMONIC.pt_flag
    roots = shoot.find_eigenvalues(SHIFTED_HARMONIC, LINE, _cfg(root_tol=1e-10), [0.9, 2.9, 4.9])
    assert builds == [(False, "left"), (False, "right")]
    assert len(roots) == 3
    assert np.all(np.abs(roots - SHIFTED_HARMONIC_LOWEST) <= 1e-7)


def test_coarse_steps_warn_once_per_half_path(harmonic_model):
    cfg = _cfg(steps=100, phase_resolution=None, max_iter=3)
    for spec, built in ((harmonic_model, 1), (SHIFTED_HARMONIC, 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shoot.find_eigenvalues(spec, LINE, cfg, [400.0])
        coarse = [w for w in caught if issubclass(w.category, StepTooCoarseWarning)]
        assert len(coarse) == built
        assert {w.filename for w in coarse} == {__file__}
        mirrored = ["the left one is its mirror" in str(w.message) for w in coarse]
        assert mirrored == [spec.pt_flag] * built


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

