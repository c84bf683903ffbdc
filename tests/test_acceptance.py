"""Acceptance criteria, one test per criterion.

Each test computes its quantities with the package's production routes,
checks them against analytic ladders, independently frozen reference
spectra, or internal-consistency identities, and records exactly one
PASS/FAIL line on the terminal scoreboard (see conftest).
"""

import time

import numpy as np
import pytest

from conftest import rectification_residual, record_criterion
from reference_values import (
    CUBIC_LINE_LOWEST,
    CUBIC_TOBOGGAN_SHOOT_LOWEST,
    HARMONIC_LOWEST,
    LINEAR_SHIFT_LOWEST,
    SPIKED_ELL,
    SPIKED_LOWEST,
)

from qtoboggan import discrete, metric, model, shoot, spectra
from qtoboggan.contour import ContourSpec


def _lowest(spec, winding, half_width, n, epsilon, k=5, sigma=0.0):
    rect = model.rectify_model(spec, winding)
    pair = discrete.build_operators(
        rect, discrete.GridSpec(half_width=half_width, n=n, epsilon=epsilon)
    )
    return spectra.lowest_eigenvalues(pair, k=k, sigma=sigma)


def test_criterion_1_harmonic_ladder_and_convergence(harmonic_model, harmonic_full):
    t0 = time.perf_counter()
    exact = np.array(HARMONIC_LOWEST)
    errs = {}
    lam_pinned = None
    for n in (750, 1500, 3000):
        lam = _lowest(harmonic_model, 0, 12.0, n, 0.5)
        errs[n] = np.abs(lam.real - exact)
        if n == 1500:
            lam_pinned = lam
    elapsed = time.perf_counter() - t0

    # the sparse shift-invert route must agree with the dense full solve
    pair, es_full, es_sub = harmonic_full
    sparse_vs_dense = float(
        np.abs(lam_pinned.real - es_sub.lambdas[:5].real).max()
    )

    ratios_a = errs[750] / errs[1500]
    ratios_b = errs[1500] / errs[3000]
    second_order = bool(
        np.all((ratios_a > 3.5) & (ratios_a < 4.5))
        and np.all((ratios_b > 3.5) & (ratios_b < 4.5))
    )
    converged_err = float(errs[3000].max())
    pinned_err = float(errs[1500].max())
    ok = (
        second_order
        and converged_err < 5e-4
        and sparse_vs_dense < 1e-9
        and elapsed < 60.0
    )
    record_criterion(
        1,
        ok,
        f"2n+1 ladder: max|err| n=3000 {converged_err:.3e} (<5e-4), "
        f"n=1500 {pinned_err:.3e}, n=750 {float(errs[750].max()):.3e}; "
        f"O(h^2) ratios {ratios_a.min():.2f}-{ratios_b.max():.2f}; "
        f"sparse-vs-dense {sparse_vs_dense:.1e}; {elapsed:.1f}s",
    )
    assert second_order, (ratios_a, ratios_b)
    assert converged_err < 5e-4
    assert sparse_vs_dense < 1e-9
    assert elapsed < 60.0


def test_criterion_2_linear_shift_ladder(bb_model):
    lam = _lowest(bb_model, 0, 8.0, 2000, 0.0)
    err = float(np.abs(lam.real - np.array(LINEAR_SHIFT_LOWEST)).max())
    ok = err < 5e-4
    record_criterion(
        2, ok, f"x^2+ix vs completed-square ladder 2n+5/4: max|err| {err:.3e} (<5e-4)"
    )
    assert ok, err


def test_criterion_3_imaginary_cubic_reference(cubic_line_model):
    lam = _lowest(cubic_line_model, 0, 10.0, 1500, 0.5)
    ground_rel = float(
        abs(lam[0].real - CUBIC_LINE_LOWEST[0].real) / CUBIC_LINE_LOWEST[0].real
    )
    max_im = float(np.abs(lam.imag).max())
    ok = ground_rel < 1e-4 and max_im < 1e-8
    record_criterion(
        3,
        ok,
        f"ix^3 ground state vs frozen high-resolution reference: rel err "
        f"{ground_rel:.3e} (<1e-4); max|Im| lowest 5 {max_im:.1e} (<1e-8)",
    )
    assert ok, (ground_rel, max_im)


def test_criterion_4_spiked_epsilon_independence(spiked_model):
    cfg = shoot.ShootConfig(root_tol=1e-9)
    roots = {}
    for eps in (1.0, 2.0):
        cs = ContourSpec(epsilon=eps, winding=0)
        roots[eps] = np.asarray(
            shoot.find_eigenvalues(spiked_model, cs, cfg, SPIKED_LOWEST)
        )
    ok_count = len(roots[1.0]) == 5 and len(roots[2.0]) == 5
    if ok_count:
        max_im = float(max(np.abs(roots[1.0].imag).max(), np.abs(roots[2.0].imag).max()))
        rel = float(np.max(np.abs(roots[1.0] - roots[2.0]) / np.abs(roots[1.0])))
        ladder = float(np.abs(roots[1.0].real - np.array(SPIKED_LOWEST)).max())
    else:
        max_im, rel, ladder = np.inf, np.inf, np.inf
    ok = ok_count and max_im < 1e-8 and rel < 1e-6 and ladder < 1e-5
    record_criterion(
        4,
        ok,
        f"spiked l={SPIKED_ELL}: eps=1 vs eps=2 rel {rel:.3e} (<1e-6); "
        f"max|Im| {max_im:.1e}; vs 4k+2+-(2l+1) ladder {ladder:.1e}",
    )
    assert ok, (ok_count, max_im, rel, ladder)


def test_criterion_5_rectification_consistency(cubic_run, cubic_roots, cubic_model, branch_model):
    pair, es_full, es_sub = cubic_run
    grid3 = es_sub.lambdas[:3].real
    shoot3 = cubic_roots[:3].real
    rel_modes = np.abs(grid3 - shoot3) / np.abs(shoot3)
    consistent = bool(np.all(rel_modes < 1e-3))

    # The shipped cubic has ell = 0, so L = 1 is an integer and its spectrum
    # does not depend on the winding at all: any sign of the odd rectified
    # power reproduces it.  The branch vehicle (L = 1.9) does not forgive a
    # wrong sign: its grid must meet the spiral's own roots, and the
    # rectified potential must be the literal image of the spiral one.
    cs = ContourSpec(epsilon=0.15, winding=1)
    cfg = shoot.ShootConfig(phase_resolution=0.02, root_tol=1e-9)
    branch_roots = shoot.find_eigenvalues(branch_model, cs, cfg, [1.2, 10.76, 13.26]).real
    branch_pair = discrete.build_operators(
        model.rectify_model(branch_model, 1),
        discrete.GridSpec(half_width=2.2, n=900, epsilon=0.15),
    )
    branch_grid = spectra.nearest_eigenpairs(branch_pair, branch_roots)[0].real
    branch_rel = np.abs(branch_grid - branch_roots) / np.abs(branch_roots)
    branch_consistent = len(branch_roots) == 3 and bool(np.all(branch_rel < 1e-3))

    rng = np.random.default_rng(5)
    r = rng.normal(size=64) + 1j * rng.normal(size=64)
    identity = max(rectification_residual(spec, 1, r) for spec in (cubic_model, branch_model))
    literal_image = identity < 1e-14

    ok = consistent and branch_consistent and literal_image
    record_criterion(
        5,
        ok,
        f"winding-1 grid vs shooting rel deltas: cubic "
        f"{', '.join(f'{d:.1e}' for d in rel_modes)}, branch vehicle "
        f"{', '.join(f'{d:.1e}' for d in branch_rel)} (<1e-3); "
        f"V_rect = W V(z(r)) vs its closed form, residual {identity:.1e} (<1e-14)",
    )
    assert consistent, rel_modes
    assert branch_consistent, (branch_roots, branch_rel)
    assert literal_image, identity
    assert np.allclose(shoot3, np.array(CUBIC_TOBOGGAN_SHOOT_LOWEST[:3]), atol=1e-5)


def test_criterion_6_biorthogonality_full_set(harmonic_full):
    pair, es_full, es_sub = harmonic_full
    gram_off = float(np.abs(es_full.gram - np.eye(es_full.m)).max())
    complete = spectra.completeness_residual(es_full)
    rebuild = spectra.spectral_rebuild_residual(es_full)
    ok = gram_off < 1e-8 and complete < 1e-8 and rebuild < 1e-8
    record_criterion(
        6,
        ok,
        f"full 1500-mode set: weighted Gram offdiag {gram_off:.1e}, "
        f"completeness {complete:.1e}, rebuild {rebuild:.1e} (all <1e-8)",
    )
    assert ok, (gram_off, complete, rebuild)


def test_criterion_7_metric_suite(hermitian_full):
    pair, es_full, es_sub = hermitian_full
    res = metric.build_metric(es_full)
    ms = float(np.abs(res.M @ res.S - np.eye(es_full.m)).max())
    delta = metric.delta_identity_residual(es_full, res.Theta)
    d = res.diagnostics
    rh, rw = metric.physical_operators(pair, res.Theta)

    # a nontrivial admissible metric: random positive rescaling of the modes
    rng = np.random.default_rng(23)
    kappa = rng.uniform(0.5, 2.0, es_full.m) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, es_full.m)
    )
    res_k = metric.build_metric(es_full, kappa=kappa)
    rh_k, rw_k = metric.physical_operators(pair, res_k.Theta)
    dk = res_k.diagnostics

    ok = (
        ms < 1e-10
        and delta < 1e-8
        and d["quasiH"] < 1e-8 and d["quasiW"] < 1e-8
        and d["hermiticity"] < 1e-8 and d["min_eig"] > 0
        and rh < 1e-7 and rw < 1e-7
        and dk["quasiH"] < 1e-8 and dk["hermiticity"] < 1e-8 and dk["min_eig"] > 0
        and rh_k < 1e-7 and rw_k < 1e-7
    )
    record_criterion(
        7,
        ok,
        f"metric suite (600-mode full basis): MS-I {ms:.1e} (<1e-10), "
        f"delta identity {delta:.1e}, quasiH {d['quasiH']:.1e}, "
        f"quasiW {d['quasiW']:.1e}, herm {d['hermiticity']:.1e}, "
        f"min_eig {d['min_eig']:.3f}>0, physical ops {max(rh, rw):.1e} (<1e-7); "
        f"rescaled metric: min_eig {dk['min_eig']:.3f}>0, "
        f"physical ops {max(rh_k, rw_k):.1e}",
    )
    assert ok, (ms, delta, d, rh, rw, dk, rh_k, rw_k)


def test_criterion_8_kappa_ambiguity(hermitian_full):
    pair, es_full, es_sub = hermitian_full
    rng = np.random.default_rng(20)
    m = es_full.m
    base_rebuild = spectra.spectral_rebuild_residual(es_full)
    thetas = []
    gram_drift = rebuild_drift = sigma_drift = lambda_drift = 0.0
    quasiH_max = 0.0
    for _ in range(10):
        kappa = rng.uniform(0.5, 2.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        es_k = spectra.apply_kappa(es_full, kappa)
        lambda_drift = max(lambda_drift, float(np.abs(es_k.lambdas - es_full.lambdas).max()))
        sigma_drift = max(sigma_drift, float(np.abs(es_k.sigmas - es_full.sigmas).max()))
        gram_k = es_k.left.conj().T @ (np.diag(pair.w_diag) @ es_k.right)
        predicted = (kappa[:, None] / kappa[None, :]) * es_full.gram
        gram_drift = max(gram_drift, float(np.abs(gram_k - predicted).max()))
        rebuild_drift = max(
            rebuild_drift,
            abs(spectra.spectral_rebuild_residual(es_k) - base_rebuild),
        )
        res = metric.build_metric(es_full, kappa=kappa)
        quasiH_max = max(quasiH_max, res.diagnostics["quasiH"], res.diagnostics["quasiW"])
        thetas.append(res.Theta)
    ref = float(np.linalg.norm(thetas[0]))
    theta_sep = min(
        float(np.linalg.norm(thetas[i] - thetas[i + 1])) / ref for i in range(9)
    )
    invariant = max(lambda_drift, sigma_drift, gram_drift, rebuild_drift)
    ok = invariant < 1e-12 and theta_sep > 1e-3 and quasiH_max < 1e-8
    record_criterion(
        8,
        ok,
        f"10 rescaling draws: spectrum/sigma/Gram/rebuild drift {invariant:.1e} "
        f"(<1e-12) while min Theta separation {theta_sep:.2f} (>1e-3) and "
        f"quasi-Hermiticity residual {quasiH_max:.1e} (<1e-8)",
    )
    assert ok, (lambda_drift, sigma_drift, gram_drift, rebuild_drift, theta_sep, quasiH_max)


def test_criterion_9_weight_identity_degeneration(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    identity_weight = bool(np.array_equal(np.diag(pair.w_diag), np.eye(pair.n)))
    res = metric.build_metric(es_full)
    diag_S = np.diag(np.diag(res.S))
    off_ratio = float(np.linalg.norm(res.S - diag_S) / np.linalg.norm(diag_S))
    single = metric.single_series_theta(es_full)
    theta_rel = float(np.linalg.norm(res.Theta - single) / np.linalg.norm(single))
    ok = identity_weight and off_ratio < 1e-8 and theta_rel < 1e-10
    record_criterion(
        9,
        ok,
        f"zero-winding weight is exactly identity; S offdiag/diag {off_ratio:.1e} "
        f"(<1e-8); double-series vs single-series Theta {theta_rel:.1e} (<1e-10)",
    )
    assert ok, (identity_weight, off_ratio, theta_rel)


def test_criterion_10_parity_balance_and_quasiparity(
    harmonic_model, bb_model, cubic_model, spiked_model, harmonic_full, cubic_run
):
    corpus = [
        ("harmonic", harmonic_model, 0, 8.0, 200, 0.5),
        ("linear-shift", bb_model, 0, 8.0, 200, 0.5),
        ("winding-1 cubic", cubic_model, 1, 2.2, 300, 0.15),
        ("spiked", spiked_model, 0, 8.0, 200, 1.0),
    ]
    pt_worst = 0.0
    for name, spec, N, X, n, eps in corpus:
        rect = model.rectify_model(spec, N)
        assert rect.pt_flag, name
        pair = discrete.build_operators(
            rect, discrete.GridSpec(half_width=X, n=n, epsilon=eps)
        )
        pt_worst = max(pt_worst, discrete.pt_residual(pair))

    angles = {}
    for name, run in (("harmonic", harmonic_full), ("cubic", cubic_run)):
        pair, es_full, es_sub = run
        lowest = es_sub.take(np.arange(5))
        kets, Q = spectra.quasiparity_leftkets(lowest)
        angles[name] = float(spectra.collinearity_angles(lowest, kets).max())
    worst_angle = max(angles.values())

    ok = pt_worst < 1e-12 and worst_angle < 1e-6
    record_criterion(
        10,
        ok,
        f"parity balance P H P - H^dag, P W P - W^dag: worst {pt_worst:.1e} "
        f"(<1e-12); quasi-parity double-kets vs solved left vectors, lowest 5: "
        f"harmonic {angles['harmonic']:.1e} rad, winding-1 cubic "
        f"{angles['cubic']:.1e} rad (<1e-6)",
    )
    assert ok, (pt_worst, angles)
