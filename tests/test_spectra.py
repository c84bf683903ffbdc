"""Generalized eigensystem operations against a 2x2 hand-worked oracle
and the cached grid runs."""

import csv
import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from qtoboggan import discrete, model, spectra
from qtoboggan.discrete import OperatorPair
from qtoboggan.errors import (
    DegeneratePairing,
    EmptySpectrum,
    IncompleteBasis,
    SelfOrthogonalMode,
    SolverFailure,
    VanishingParityOverlap,
    ZeroKappa,
)
from reference_values import (
    CUBIC_TOBOGGAN_GRID_LOWEST,
    CUBIC_TOBOGGAN_SHOOT_LOWEST,
    HARMONIC_TOBOGGAN_ELL,
    HARMONIC_TOBOGGAN_LOWEST,
)



def _pair(diag, off=None):
    """W = I pair whose H = H^T has the given diagonal and off-diagonal (zero if None)."""
    diag = np.asarray(diag, dtype=complex)
    off = np.zeros(len(diag) - 1, dtype=complex) if off is None else np.asarray(off, dtype=complex)
    ones = np.ones(len(diag), dtype=complex)
    return OperatorPair(diag=diag, off=off, w_diag=ones, s=ones)


# Hand-worked non-normal pair: H = [[1 + 0.6i, 1], [1, 1 - 0.6i]] = H^T, W = I.
# lambda = 0.2: right (1, -0.8 - 0.6i)/sqrt(2); lambda = 1.8: right (1, 0.8 - 0.6i)/sqrt(2).
# Left eigvecs of H^dag = conj(H) are the conjugate kets; sigma = v^T v = 0.64 +/- 0.48i,
# |sigma| = 0.8, so the sigma-normalized left columns have norm 1/0.8 = 1.25.
H2 = np.array([[1.0 + 0.6j, 1.0], [1.0, 1.0 - 0.6j]])
PAIR2 = _pair([1.0 + 0.6j, 1.0 - 0.6j], [1.0])


@pytest.fixture()
def hand():
    es = spectra.solve_generalized(PAIR2)
    return spectra.normalize_biorthogonal(es)


def _angle(u, v):
    c = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return np.arccos(min(1.0, c))


def test_hand_eigenvalues_and_vectors(hand):
    assert np.array_equal(PAIR2.H, H2) and np.array_equal(np.diag(PAIR2.w_diag), np.eye(2))
    assert np.allclose(hand.lambdas, [0.2, 1.8], atol=1e-12)
    # arccos of a rounded unit overlap cannot resolve angles below ~2e-8,
    # so exactly-collinear vectors still report up to that much.
    assert _angle(hand.right[:, 0], [1.0, -0.8 - 0.6j]) < 1e-7
    assert _angle(hand.right[:, 1], [1.0, 0.8 - 0.6j]) < 1e-7
    assert _angle(hand.left[:, 0], [1.0, -0.8 + 0.6j]) < 1e-7
    assert _angle(hand.left[:, 1], [1.0, 0.8 + 0.6j]) < 1e-7
    # the kets are not orthogonal: H is not normal
    assert abs(np.vdot(hand.right[:, 0], hand.right[:, 1])) == pytest.approx(0.6, rel=1e-12)
    # sigma-normalized left columns have the exact hand magnitudes
    assert np.linalg.norm(hand.left[:, 0]) == pytest.approx(1.25, rel=1e-12)
    assert np.linalg.norm(hand.left[:, 1]) == pytest.approx(1.25, rel=1e-12)


def test_hand_biorthogonality_and_identities(hand):
    assert np.allclose(hand.sigmas, 1.0)
    assert np.allclose(hand.gram, np.eye(2), atol=1e-12)
    assert spectra.completeness_residual(hand) < 1e-14
    assert spectra.spectral_rebuild_residual(hand) < 1e-14
    assert hand.residual_right.max() < 1e-12
    assert hand.residual_left.max() < 1e-12


def test_right_kets_unit_norm_with_positive_leading_phase(hand):
    norms = np.linalg.norm(hand.right, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-13)
    for j in range(2):
        # both entries of each hand ket have modulus 1/sqrt(2), so rounding
        # decides which is the anchor: one of them is real-positive
        col = hand.right[:, j]
        top = col[np.abs(col) >= (1.0 - 1e-12) * np.abs(col).max()]
        assert any(abs(lead.imag) < 1e-14 and lead.real > 0 for lead in top)


def test_degenerate_pairing_detected():
    with pytest.raises(DegeneratePairing):
        spectra.solve_generalized(_pair([1.0, 1.0]), tol=1e-10)


def test_pairing_tolerance_defaults_to_the_cli_value():
    from qtoboggan import cli

    tol = inspect.signature(spectra.solve_generalized).parameters["tol"].default
    assert tol == cli.DEFAULT_TOLERANCES["pairing"]
    # 1e-11 apart: two modes at the default, one ambiguous pair at 1e-10
    es = spectra.solve_generalized(_pair([1.0, 1.0 + 1e-11]))
    assert np.array_equal(es.lambdas.real, [1.0, 1.0 + 1e-11])
    with pytest.raises(DegeneratePairing):
        spectra.solve_generalized(_pair([1.0, 1.0 + 1e-11]), tol=1e-10)


def test_solver_reports_sorted_spectrum():
    es = spectra.solve_generalized(_pair([3.0, 1.0, 2.0]))
    assert np.allclose(es.lambdas, [1.0, 2.0, 3.0])
    assert es.pair.n == 3 and es.m == 3


def test_filter_real_keeps_and_sorts():
    es = spectra.solve_generalized(_pair([3.0, 1.0 + 0.5j, 2.0]))
    sub = spectra.filter_real(es, tol_im=1e-6)
    assert np.allclose(sub.lambdas, [2.0, 3.0])
    assert sub.discarded == 1
    assert sub.pair.n == 3


def test_is_real_is_the_filter_rule():
    lam = np.array([1.0 + 1e-7j, 1.0 + 1e-5j, 100.0 + 9e-5j, 100.0 + 1e-4j])
    assert spectra.is_real(lam, 1e-6).tolist() == [True, False, True, False]
    es = spectra.solve_generalized(_pair(lam))
    assert np.array_equal(spectra.filter_real(es, tol_im=1e-6).lambdas, lam[[0, 2]])


def test_eigensystem_keeps_its_pencil():
    es = spectra.solve_generalized(PAIR2)
    assert es.pair is PAIR2
    assert spectra.filter_real(es).pair is PAIR2
    assert spectra.normalize_biorthogonal(es).pair is PAIR2
    assert es.take(np.array([1])).pair is PAIR2
    assert spectra.apply_kappa(es, np.array([2.0, 0.5j])).pair is PAIR2


def test_filter_real_empty_raises():
    es = spectra.solve_generalized(_pair([1.0 + 1.0j, 2.0 - 1.0j]))
    with pytest.raises(EmptySpectrum):
        spectra.filter_real(es, tol_im=1e-6)


def test_self_orthogonal_mode_detected():
    # the exceptional point of H = H^T: lambda = 1 twice, one ket (1, -i)
    # with v^T v = 0; LAPACK splits it by ~sqrt(eps), leaving |sigma| ~ 1e-8
    pair = _pair([1.0 + 1.0j, 1.0 - 1.0j], [1.0])
    es = spectra.solve_generalized(pair)
    with pytest.raises(SelfOrthogonalMode):
        spectra.normalize_biorthogonal(es, sigma_tol=1e-6)


def test_completeness_requires_full_set():
    pair = _pair([1.0, 2.0 + 1.0j, 3.0])
    es = spectra.solve_generalized(pair)
    sub = spectra.normalize_biorthogonal(spectra.filter_real(es))
    with pytest.raises(IncompleteBasis):
        spectra.completeness_residual(sub)
    with pytest.raises(IncompleteBasis):
        spectra.spectral_rebuild_residual(sub)


def test_apply_kappa_rescales_and_accumulates(hand):
    k1 = np.array([2.0, 0.5j])
    k2 = np.array([1.0 + 1.0j, 3.0])
    once = spectra.apply_kappa(hand, k1)
    twice = spectra.apply_kappa(once, k2)
    assert np.allclose(twice.right, hand.right / (k1 * k2)[np.newaxis, :])
    assert np.allclose(twice.left, hand.left * (k1 * k2).conj()[np.newaxis, :])
    # spectrum and sigma untouched
    assert np.array_equal(twice.lambdas, hand.lambdas)
    assert np.allclose(twice.sigmas, 1.0)


def test_apply_kappa_gram_moves_by_exact_ratio(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    rng = np.random.default_rng(11)
    kappa = rng.uniform(0.5, 2.0, es_sub.m) * np.exp(
        2j * np.pi * rng.uniform(size=es_sub.m)
    )
    es_k = spectra.apply_kappa(es_sub, kappa)
    gram_k = es_k.left.conj().T @ (np.diag(pair.w_diag) @ es_k.right)
    predicted = (kappa[:, None] / kappa[None, :]) * es_sub.gram
    assert np.abs(gram_k - predicted).max() < 1e-12


def test_apply_kappa_carries_the_kets_gram_of_a_frame_system(harmonic_small):
    # the result stores kets, so a frame Gram carried over would be read as theirs
    es_sub = harmonic_small[2]
    assert es_sub.phase is not None and es_sub.vector_gram.dtype == np.dtype(float)
    kappa = np.linspace(0.5, 2.0, es_sub.m) * np.exp(1j * np.linspace(0.0, 6.0, es_sub.m))
    es_k = spectra.apply_kappa(es_sub, kappa)
    assert es_k.phase is None
    assert np.array_equal(es_k.gram, es_sub.gram)


@pytest.mark.parametrize("case", ["hand", "frame"])
def test_gram_is_a_new_array_on_each_read(hand, harmonic_small, case):
    # callers may subtract the identity from it in place
    es = hand if case == "hand" else harmonic_small[2]
    first = es.gram
    first[np.diag_indices_from(first)] -= 1.0
    again = es.gram
    assert not np.shares_memory(first, again) and not np.shares_memory(again, es.vector_gram)
    assert np.array_equal(np.diag(again), np.diag(first) + 1.0)


def test_apply_kappa_rejects_zero(hand):
    with pytest.raises(ZeroKappa):
        spectra.apply_kappa(hand, np.array([1.0, 0.0]))


def test_quasiparity_vanishing_overlap():
    # the reversal of two entries swaps them, and (1,0) is orthogonal to (0,1)
    es = spectra.normalize_biorthogonal(spectra.solve_generalized(_pair([1.0, 2.0])))
    with pytest.raises(VanishingParityOverlap):
        spectra.quasiparity_leftkets(es)


def test_quasiparity_matches_solved_left_vectors(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    lowest = es_sub.take(np.arange(5))
    kets, Q = spectra.quasiparity_leftkets(lowest)
    angles = spectra.collinearity_angles(lowest, kets)
    # measurement floor of arccos near 1 is ~2e-8 even for exact collinearity
    assert angles.max() < 1e-7
    # alternating parity overlap sign along the oscillator ladder
    signs = np.sign(np.real(1.0 / Q))
    assert np.allclose(signs, [1.0, -1.0, 1.0, -1.0, 1.0])


def test_lowest_eigenvalues_matches_dense(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    low = spectra.lowest_eigenvalues(pair, k=4, sigma=0.0)
    assert np.allclose(low.real, es_sub.lambdas[:4].real, atol=1e-9)
    assert np.abs(low.imag).max() < 1e-9


def test_lowest_eigenvalues_needs_k_below_n_minus_1():
    # k = n - 2 is the largest k Arnoldi takes
    low = spectra.lowest_eigenvalues(_pair([1.0, 2.0, 3.0, 4.0]), k=2, sigma=0.0)
    assert np.allclose(low, [1.0, 2.0])
    # the k nearest sigma, still returned in (Re, Im) order
    low = spectra.lowest_eigenvalues(_pair([3.0, 1.0, 2.0, 4.0]), k=2, sigma=2.6)
    assert np.allclose(low, [2.0, 3.0])
    # scipy's eigs would only warn here and fall back to a dense eig that ignores sigma
    with pytest.raises(ValueError, match="k < n - 1"):
        spectra.lowest_eigenvalues(_pair([3.0, 1.0, 2.0, 4.0]), k=3, sigma=2.6)


def _cubic_pair(cubic_model):
    rect = model.rectify_model(cubic_model, 1)
    return discrete.build_operators(rect, discrete.GridSpec(half_width=2.2, n=900, epsilon=0.15))


def test_lowest_eigenvalues_is_repeatable(cubic_model):
    # ill-conditioned modes of the rectified cubic moved from call to call
    # with ARPACK's random start vector
    pair = _cubic_pair(cubic_model)
    first = spectra.lowest_eigenvalues(pair, k=3, sigma=1.2918)
    for _ in range(3):
        assert np.array_equal(spectra.lowest_eigenvalues(pair, k=3, sigma=1.2918), first)


def test_lowest_eigenvalues_are_polished_to_the_dense_values(cubic_model):
    # the frozen values come from the same grid; Arnoldi alone left the third
    # mode 1e-6 to 6e-5 off
    lam = spectra.lowest_eigenvalues(_cubic_pair(cubic_model), k=3, sigma=1.2918)
    assert np.allclose(lam, CUBIC_TOBOGGAN_GRID_LOWEST[:3], rtol=0.0, atol=1e-8)


def test_lowest_eigenvalues_rejects_two_values_on_one_mode(harmonic_small, monkeypatch):
    import scipy.sparse.linalg as spla

    pair = harmonic_small[0]
    monkeypatch.setattr(spla, "eigs", lambda *a, **kw: np.array([1.0 + 0j, 1.0 + 1e-3j]))
    with pytest.raises(SolverFailure, match="one mode"):
        spectra.lowest_eigenvalues(pair, k=2, sigma=0.0)


def test_weight_scaling_matches_dense_weight_products(cubic_model):
    # W is diagonal, so W @ V is a row scaling; check it against the product
    rect = model.rectify_model(cubic_model, 1)
    pair = discrete.build_operators(rect, discrete.GridSpec(half_width=2.2, n=80, epsilon=0.15))
    W = np.diag(pair.w_diag)
    es = spectra.solve_generalized(pair)
    lam, VR, VL = es.lambdas, es.right, es.left
    HVR = discrete.band_matmul(pair.diag, pair.off, VR)
    HdVL = discrete.band_matmul(pair.diag.conj(), pair.off.conj(), VL)
    res_r = np.linalg.norm(HVR - (W @ VR) * lam, axis=0) / np.linalg.norm(W @ VR, axis=0)
    res_l = np.linalg.norm(HdVL - (W.conj().T @ VL) * lam.conj(), axis=0) / (
        np.linalg.norm(W.conj().T @ VL, axis=0)
    )
    # a residual is a difference of terms of size |lambda|: it agrees to that rounding
    rounding = 1e-15 * np.maximum(1.0, np.abs(lam))
    assert np.all(np.abs(es.residual_right - res_r) <= rounding)
    assert np.all(np.abs(es.residual_left - res_l) <= rounding)
    assert np.allclose(es.sigmas, np.einsum("ij,ij->j", VL.conj(), W @ VR), rtol=1e-12, atol=0)
    sub = spectra.filter_real(es)
    normed = spectra.normalize_biorthogonal(sub)
    WV = W @ sub.right
    left = sub.left / np.einsum("ij,ij->j", sub.left.conj(), WV).conj()[np.newaxis, :]
    assert np.allclose(normed.left, left, rtol=1e-12, atol=0)
    assert np.allclose(normed.gram, left.conj().T @ WV, rtol=1e-12, atol=1e-14)


def _weighted_cubic_pair():
    rect = model.rectify_model(model.ModelSpec(coeffs={3: 1j}, omega=1.0), 1)
    return discrete.build_operators(rect, discrete.GridSpec(half_width=2.2, n=80, epsilon=0.15))


@pytest.mark.parametrize("case", ["hand", "hand_complex_diagonal", "hermitian_full", "weighted_cubic"])
def test_non_pt_and_weighted_pairs_keep_the_direct_eig(case, request):
    # a W = I pair that is not PT-symmetric gives exactly what the direct
    # LAPACK call gives, sorted and phase-fixed; a W != I pair solves
    # B = s^-1 H s^-1 instead, and meets the pencil's QZ (a reference only
    # the test computes) to the condition 1/|sigma| of each mode
    pair = {
        "hand": lambda: PAIR2,
        "hand_complex_diagonal": lambda: _pair([3.0, 1.0 + 0.5j, 2.0]),
        "hermitian_full": lambda: request.getfixturevalue("hermitian_full")[0],
        "weighted_cubic": _weighted_cubic_pair,
    }[case]()
    weighted = not np.all(pair.w_diag == 1.0)
    assert weighted == (case == "weighted_cubic")
    assert pair.pt_symmetric == weighted  # the cubic is PT-symmetric, but W != I
    es = spectra.solve_generalized(pair)
    if weighted:
        lam = scipy.linalg.eig(pair.H, np.diag(pair.w_diag), right=False)
        gap = np.abs(es.lambdas[:, np.newaxis] - lam[np.newaxis, :])
        assert np.unique(gap.argmin(axis=1)).size == pair.n  # one QZ value per mode
        scale = pair.H_norm + np.abs(es.lambdas) * np.linalg.norm(pair.w_diag)
        bound = pair.n * np.finfo(float).eps * scale / np.abs(es.sigmas)
        assert np.all(gap.min(axis=1) <= bound)
        return
    lam, VL, VR = scipy.linalg.eig(pair.H, left=True, right=True)
    order = np.lexsort((lam.imag, lam.real))
    assert np.array_equal(es.lambdas, lam[order])
    assert np.array_equal(es.right, spectra._normalize_columns(VR[:, order]))
    assert np.array_equal(es.left, spectra._normalize_columns(VL[:, order]))


def _raw_solve(spec, winding, half_width, n, epsilon):
    rect = model.rectify_model(spec, winding)
    pair = discrete.build_operators(rect, discrete.GridSpec(half_width, n, epsilon))
    return spectra.solve_generalized(pair)


def _max_residual(es):
    return max(es.residual_right.max(), es.residual_left.max())


def test_filter_real_drops_the_spurious_box_top_modes(cubic_model):
    # the cubic at n = 300 has 18 real modes; two sit at the top of the box
    # with residuals 1e3-1e5 times the others'
    raw = _raw_solve(cubic_model, 1, 2.2, 300, 0.15)
    real = raw.lambdas[spectra.is_real(raw.lambdas, 1e-6)].real
    assert len(real) == 18 and real.min() < -3e5 and real.max() > 1e6
    es = spectra.filter_real(raw)
    assert (es.m, es.discarded) == (16, 284)
    assert es.lambdas.real.min() > 0 and es.lambdas.real.max() < 1e3
    assert _max_residual(es) <= 1e-8


def test_filter_real_needs_both_gates_on_the_cubic_at_n_900(cubic_model, monkeypatch):
    raw = _raw_solve(cubic_model, 1, 2.2, 900, 0.15)
    es = spectra.normalize_biorthogonal(spectra.filter_real(raw))
    assert (es.m, es.discarded) == (8, 892)
    assert _max_residual(es) <= 1e-8
    low = es.lambdas.real
    assert np.abs(low[:3] - CUBIC_TOBOGGAN_GRID_LOWEST[:3]).max() <= 1e-8
    assert np.abs(low[:5] - CUBIC_TOBOGGAN_GRID_LOWEST).max() <= 3e-8
    # without the sigma gate, modes near an exceptional point reach normalization,
    # which either refuses them or is swamped by their 1/|sigma| ~ 1e12; which of
    # the two (and which modes) depends on the rounding of the eigensolve
    monkeypatch.setattr(spectra, "SIGMA_CERTIFY_FLOOR", 0.0)
    ungated = spectra.filter_real(raw)
    assert ungated.m > 8 and np.abs(ungated.sigmas).min() < 1e-11
    try:
        gram = spectra.normalize_biorthogonal(ungated).max_offdiag_gram()
    except SelfOrthogonalMode:
        gram = np.inf
    assert gram > 1e-3
    # without the residual gate as well, a box-top mode reads as the ground state
    monkeypatch.setattr(spectra, "SPURIOUS_RESIDUAL_RATIO", np.inf)
    assert spectra.filter_real(raw).lambdas[0].real < -3e6


def test_filter_real_refines_weighted_modes_on_the_pencil(cubic_model):
    # B = s^-1 H s^-1 rounds at eps ||B||: as solved, the cubic's kept residuals reach
    # 3e-9 and its fifth mode lies 2e-8 to 5e-8 off, by the BLAS thread count
    raw = _raw_solve(cubic_model, 1, 2.2, 900, 0.15)
    es = spectra.filter_real(raw)
    assert np.array_equal(es.residual_left, es.residual_right)
    assert _max_residual(es) <= 1e-10
    # the frozen values carry 8 decimals
    assert np.abs(es.lambdas[:5].real - CUBIC_TOBOGGAN_GRID_LOWEST).max() <= 5e-9
    assert np.abs(es.lambdas.imag).max() <= 1e-7


def test_filter_real_gates_keep_every_real_mode_of_the_harmonic_line(harmonic_model):
    # configs/harmonic_line.json at n = 900 (W = I): the gates drop nothing
    raw = _raw_solve(harmonic_model, 0, 9.0, 900, 0.5)
    real = np.flatnonzero(spectra.is_real(raw.lambdas, 1e-6))
    es = spectra.filter_real(raw)
    assert es.m == real.size == 870
    assert np.array_equal(es.lambdas, raw.lambdas[real])


def test_harmonic_toboggan_meets_its_exact_ladder(monkeypatch):
    # an exact W != I referee: the winding-1 toboggan of x^2 + ell(ell+1)/x^2
    spec = model.ModelSpec(ell=HARMONIC_TOBOGGAN_ELL, omega=1.0)
    raw = _raw_solve(spec, 1, 2.2, 900, 0.15)
    real = spectra.is_real(raw.lambdas, 1e-6)
    es = spectra.normalize_biorthogonal(spectra.filter_real(raw))
    rel = np.abs(es.lambdas[:5] - HARMONIC_TOBOGGAN_LOWEST) / HARMONIC_TOBOGGAN_LOWEST
    assert rel.max() <= 2e-4
    assert es.m == real.sum() - 1 and _max_residual(es) <= 1e-8
    # the one real mode dropped is a box-top mode the residual gate drops alone
    monkeypatch.setattr(spectra, "SIGMA_CERTIFY_FLOOR", 0.0)
    kept = spectra.filter_real(raw).lambdas
    # filter_real refines each kept eigenvalue, by far less than the ladder's spacing
    solved = raw.lambdas[real]
    dropped = solved[np.abs(solved[:, np.newaxis] - kept).min(axis=1) > 1e-3]
    assert dropped.size == 1 and dropped[0].real == pytest.approx(1.258e7, rel=1e-3)


def test_pt_grid_pair_retains_exactly_real_modes(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    assert pair.pt_symmetric
    assert np.all(es_sub.lambdas.imag == 0.0)
    complex_route = spectra.filter_real(
        spectra.solve_generalized(replace(pair, pt_symmetric=False))
    )
    assert complex_route.m == es_sub.m
    assert np.allclose(es_sub.lambdas, complex_route.lambdas, rtol=1e-10, atol=0)


def test_pt_route_keeps_its_frame_real_once_filtered(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    # the complete set holds complex-conjugate pairs, whose frame vectors are complex
    assert es_full.phase is not None and es_full.vectors[0].dtype == complex
    assert es_sub.phase is not None
    assert all(Y.dtype == float for Y in es_sub.vectors)
    assert np.all(np.abs(es_sub.phase) == pytest.approx(1.0, abs=1e-15))


def test_pt_route_peaks_below_eight_arrays_and_unpacks_as_scipy_eig(harmonic_model):
    # the harmonic line's grid at n = 400, where 30 modes are complex: ?geev's
    # real packing is unpacked once, sorted, into the two kept complex
    # families (4 real n x n arrays).  Through scipy.linalg.eig, which makes
    # both families complex before the sort copies them, the peak was 10.6
    pair = discrete.build_operators(
        model.rectify_model(harmonic_model, 0),
        discrete.GridSpec(half_width=9.0, n=400, epsilon=0.5),
    )
    spectra.solve_generalized(pair)  # loads scipy.linalg outside the trace
    tracemalloc.start()
    try:
        es = spectra.solve_generalized(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * pair.n**2 * np.dtype(float).itemsize
    lam, VL, VR = scipy.linalg.eig(spectra._pt_real_form(pair), left=True, right=True)
    order = np.lexsort((lam.imag, lam.real))
    assert lam.imag.any()
    assert np.array_equal(es.lambdas, lam[order])
    for got, want in zip(es.vectors, (VR[:, order], VL[:, order])):
        assert got.tobytes() == want.tobytes() and got.flags.f_contiguous


@pytest.mark.parametrize("which", ["frame", "weighted"])
def test_blocked_max_offdiag_gram_is_the_full_gram_value(which, harmonic_small, cubic_model):
    if which == "frame":
        es = harmonic_small[2]
    else:
        rect = model.rectify_model(cubic_model, 1)
        pair = discrete.build_operators(rect, discrete.GridSpec(half_width=2.2, n=300, epsilon=0.15))
        es = spectra.normalize_biorthogonal(spectra.solve_generalized(pair, 1e-12))
    # more rows than one block, and not a multiple of it
    assert es.m > discrete.BLOCK and es.m % discrete.BLOCK
    assert (es.phase is not None) == (which == "frame")
    gram_off = es.gram
    gram_off[np.diag_indices_from(gram_off)] -= 1.0
    assert es.max_offdiag_gram() == float(np.abs(gram_off).max())


def test_weighted_pt_kets_anchor_on_the_left_of_their_largest_mirror_pair():
    # the kets x / s of a PT-symmetric W != I pair keep |v_i| = |v_{n-1-i}| up
    # to rounding (P s = conj(s)), so the first argmax of |v| would let
    # rounding pick the anchor; the mirror pair's |v_i|^2 + |v_{n-1-i}|^2 is
    # the same at both ends
    pair = _weighted_cubic_pair()
    assert pair.pt_symmetric and not np.all(pair.s == 1.0)
    es = spectra.solve_generalized(pair)
    assert es.phase is None
    real = es.lambdas.imag == 0
    for V in (es.right, es.left):
        mod = np.abs(V) ** 2
        assert np.abs(mod - mod[::-1])[:, real].max() <= 1e-12
        top = np.argmax(mod + mod[::-1], axis=0)
        assert np.all(top <= pair.n - 1 - top)
        anchor = V[top, np.arange(pair.n)]
        assert np.all(np.abs(anchor.imag) <= 1e-14 * np.abs(anchor)) and anchor.real.min() > 0


def test_weighted_kets_are_the_pencils_own():
    # psi = x / s and chi = x_L / conj(s) from the eigenvectors x of B: unit
    # columns; the real modes below the box top reach rounding-level
    # residuals on (H, W)
    pair = _weighted_cubic_pair()
    es = spectra.solve_generalized(pair)
    assert np.abs(np.linalg.norm(es.right, axis=0) - 1.0).max() <= 1e-13
    assert np.abs(np.linalg.norm(es.left, axis=0) - 1.0).max() <= 1e-13
    low = es.take(np.flatnonzero((es.lambdas.imag == 0) & (np.abs(es.lambdas) < 100.0)))
    assert low.m >= 5 and _max_residual(low) <= 1e-10
    assert np.allclose(
        es.sigmas, np.einsum("ij,ij->j", es.left.conj(), pair.w_diag[:, np.newaxis] * es.right)
    )


def test_unit_s_keeps_the_pt_frame_on_h_itself(harmonic_small, monkeypatch):
    # at winding 0 build_operators carries s as exact ones: no B is formed
    # (dividing by ones would flip signed zeros) and the result stays in its frame
    pair = harmonic_small[0]
    assert pair.s.dtype == complex and np.all(pair.s == 1.0)
    solved = []
    real_form = spectra._pt_real_form
    monkeypatch.setattr(spectra, "_pt_real_form", lambda p: solved.append(p) or real_form(p))
    es = spectra.solve_generalized(pair)
    assert len(solved) == 1 and solved[0] is pair and es.phase is not None


def test_frame_residuals_are_those_of_the_kets(harmonic_small):
    # ||A y - lam y|| / ||y|| in the frame against ||H v - lam v|| / ||v|| on v = U y p
    pair, es_full, _ = harmonic_small
    lam, R, L = es_full.lambdas, es_full.right, es_full.left
    HR = discrete.band_matmul(pair.diag, pair.off, R)
    HdL = discrete.band_matmul(pair.diag.conj(), pair.off.conj(), L)
    res_r = np.linalg.norm(HR - R * lam, axis=0) / np.linalg.norm(R, axis=0)
    res_l = np.linalg.norm(HdL - L * lam.conj(), axis=0) / np.linalg.norm(L, axis=0)
    assert np.abs(es_full.residual_right - res_r).max() <= 1e-12
    assert np.abs(es_full.residual_left - res_l).max() <= 1e-12


def test_frame_kets_are_unit_with_a_real_positive_anchor(harmonic_small):
    # the convention of the other routes, so S.bin keeps its phases.  |U y| takes
    # its largest value twice, at i and n - 1 - i: the first of the two is the anchor
    for es in harmonic_small[1:]:
        R, mod = es.right, np.abs(es.right)
        assert np.abs(np.linalg.norm(R, axis=0) - 1.0).max() <= 1e-13
        top = np.argmax(mod >= (1.0 - 1e-12) * mod.max(axis=0), axis=0)
        anchor = R[top, np.arange(es.m)]
        assert np.abs(anchor.imag).max() <= 1e-15 and anchor.real.min() > 0


def test_frame_kets_are_built_once_on_first_read(harmonic_small, monkeypatch):
    pair = harmonic_small[0]
    built = []
    to_kets = spectra._kets_from_frame
    monkeypatch.setattr(
        spectra, "_kets_from_frame", lambda Y, phase: built.append(Y.shape) or to_kets(Y, phase)
    )
    es = spectra.normalize_biorthogonal(spectra.filter_real(spectra.solve_generalized(pair, 1e-12)))
    assert built == []
    first = es.right
    assert es.right is first and es.left is es.left
    assert built == [(pair.n, es.m)] * 2
    # sigma = 1 and the Gram are those of the kets
    assert np.abs(es.left.conj().T @ es.right - es.gram).max() <= 1e-12


def test_nearest_eigenpairs_match_dense_solve(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    shifts = [0.9, 2.8, 5.2, 7.3, 1.2 + 0.1j]
    near = spectra.nearest_eigenpairs(pair, shifts)
    lam, right, res = near.lambdas, near.right, near.residual_right
    for j, shift in enumerate(shifts):
        k = np.argmin(np.abs(es_full.lambdas - shift))
        assert abs(lam[j] - es_full.lambdas[k]) <= 1e-10 * abs(es_full.lambdas[k])
        # same ket up to phase: both are unit columns
        assert abs(np.vdot(right[:, j], es_full.right[:, k])) == pytest.approx(1.0, abs=1e-10)
        if shift.imag == 0:
            # the conjugate ket is collinear with the solved double-ket
            left = es_full.left[:, k] / np.linalg.norm(es_full.left[:, k])
            assert abs(np.vdot(near.left[:, j], left)) == pytest.approx(1.0, abs=1e-10)
    assert res.max() < 1e-10
    again = spectra.nearest_eigenpairs(pair, shifts)
    assert np.array_equal(again.lambdas, lam) and np.array_equal(again.right, right)


def test_nearest_eigenpairs_on_weighted_pencil(cubic_model):
    rect = model.rectify_model(cubic_model, 1)
    pair = discrete.build_operators(
        rect, discrete.GridSpec(half_width=2.2, n=900, epsilon=0.15)
    )
    near = spectra.nearest_eigenpairs(pair, CUBIC_TOBOGGAN_SHOOT_LOWEST[:3])
    lam, res = near.lambdas, near.residual_right
    assert np.allclose(lam.real, CUBIC_TOBOGGAN_GRID_LOWEST[:3], rtol=1e-6, atol=0)
    assert np.abs(lam.imag).max() < 1e-9
    assert res.max() < 1e-8


def test_nearest_eigenpairs_reports_unconverged_residual(harmonic_small):
    # equidistant from two modes, inverse iteration cannot pick one
    pair, es_full, es_sub = harmonic_small
    midpoint = 0.5 * (es_sub.lambdas[0] + es_sub.lambdas[1])
    assert spectra.nearest_eigenpairs(pair, [midpoint]).residual_right[0] > 1e-3


def test_nearest_eigenpairs_raises_at_an_exact_eigenvalue():
    # a diagonal H shifted by one of its entries has an exact zero pivot,
    # inside the elimination (3) and at the last row (4)
    pair = _pair([1.0, 2.0, 3.0, 4.0])
    for shift in (3.0, 4.0):
        with pytest.raises(SolverFailure, match="exact eigenvalue"):
            spectra.nearest_eigenpairs(pair, [shift])


def test_residuals_small_on_grid_run(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    assert es_sub.residual_right.max() < 1e-9
    assert es_sub.residual_left.max() < 1e-9
    assert np.abs(es_sub.gram - np.eye(es_sub.m)).max() < 1e-9


def test_save_spectrum_csv(tmp_path, hand):
    out = tmp_path / "spec.csv"
    spectra.save_spectrum_csv(hand, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # repr round-trips each value to the bit
    for key, part in (("re_lambda", np.real), ("im_lambda", np.imag)):
        assert [float(r[key]) for r in rows] == part(hand.lambdas).tolist()
    assert {"index", "re_lambda", "im_lambda", "residual_right", "residual_left",
            "sigma_re", "sigma_im"} <= set(rows[0])
