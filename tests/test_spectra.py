"""Generalized eigensystem operations against a 2x2 hand-worked oracle
and the cached grid runs."""

import csv
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
from reference_values import CUBIC_TOBOGGAN_GRID_LOWEST, CUBIC_TOBOGGAN_SHOOT_LOWEST



def _pair(diag, sup=None):
    """W = I pair whose H has the given diagonal and superdiagonal (zero subdiagonal)."""
    n = len(diag)
    bands = np.zeros((3, n), dtype=complex)
    bands[1] = diag
    if sup is not None:
        bands[0, 1:] = sup
    return OperatorPair(bands=bands, w_diag=np.ones(n, dtype=complex))


# Hand-worked pair: H = [[1, 1], [0, 2]], W = I.
# lambda = 1: right (1,0);           lambda = 2: right (1,1)/sqrt(2)
# left eigvecs of H^dag: (1,-1)/sqrt(2) and (0,1); sigma = 1/sqrt(2) each;
# after sigma-normalization: left_1 = (1,-1), left_2 = (0, sqrt(2)).
H2 = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
PAIR2 = _pair([1.0, 2.0], [1.0])


@pytest.fixture()
def hand():
    es = spectra.solve_generalized(PAIR2, tol=1e-12)
    return spectra.normalize_biorthogonal(es)


def _angle(u, v):
    c = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return np.arccos(min(1.0, c))


def test_hand_eigenvalues_and_vectors(hand):
    assert np.array_equal(PAIR2.H, H2) and np.array_equal(PAIR2.W, np.eye(2))
    assert np.allclose(hand.lambdas, [1.0, 2.0], atol=1e-12)
    # arccos of a rounded unit overlap cannot resolve angles below ~2e-8,
    # so exactly-collinear vectors still report up to that much.
    assert _angle(hand.right[:, 0], [1.0, 0.0]) < 1e-7
    assert _angle(hand.right[:, 1], [1.0, 1.0]) < 1e-7
    assert _angle(hand.left[:, 0], [1.0, -1.0]) < 1e-7
    assert _angle(hand.left[:, 1], [0.0, 1.0]) < 1e-7
    # sigma-normalized left columns have the exact hand magnitudes
    assert np.linalg.norm(hand.left[:, 0]) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert np.linalg.norm(hand.left[:, 1]) == pytest.approx(np.sqrt(2.0), rel=1e-12)


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
        lead = hand.right[np.argmax(np.abs(hand.right[:, j])), j]
        assert abs(lead.imag) < 1e-14
        assert lead.real > 0


def test_degenerate_pairing_detected():
    with pytest.raises(DegeneratePairing):
        spectra.solve_generalized(_pair([1.0, 1.0]), tol=1e-10)


def test_solver_reports_sorted_spectrum():
    es = spectra.solve_generalized(_pair([3.0, 1.0, 2.0]), tol=1e-12)
    assert np.allclose(es.lambdas, [1.0, 2.0, 3.0])
    assert es.pair.n == 3 and es.m == 3


def test_filter_real_keeps_and_sorts():
    es = spectra.solve_generalized(_pair([3.0, 1.0 + 0.5j, 2.0]), tol=1e-12)
    sub = spectra.filter_real(es, tol_im=1e-6)
    assert np.allclose(sub.lambdas, [2.0, 3.0])
    assert sub.discarded == 1
    assert sub.pair.n == 3


def test_is_real_is_the_filter_rule():
    lam = np.array([1.0 + 1e-7j, 1.0 + 1e-5j, 100.0 + 9e-5j, 100.0 + 1e-4j])
    assert spectra.is_real(lam, 1e-6).tolist() == [True, False, True, False]
    es = spectra.solve_generalized(_pair(lam), tol=1e-12)
    assert np.array_equal(spectra.filter_real(es, tol_im=1e-6).lambdas, lam[[0, 2]])


def test_eigensystem_keeps_its_pencil():
    es = spectra.solve_generalized(PAIR2, tol=1e-12)
    assert es.pair is PAIR2
    assert spectra.filter_real(es).pair is PAIR2
    assert spectra.normalize_biorthogonal(es).pair is PAIR2
    assert es.take(np.array([1])).pair is PAIR2
    assert spectra.apply_kappa(es, np.array([2.0, 0.5j])).pair is PAIR2


def test_filter_real_empty_raises():
    es = spectra.solve_generalized(_pair([1.0 + 1.0j, 2.0 - 1.0j]), tol=1e-12)
    with pytest.raises(EmptySpectrum):
        spectra.filter_real(es, tol_im=1e-6)


def test_self_orthogonal_mode_detected():
    pair = _pair([1.0, 1.0 + 1e-8], [1.0])
    es = spectra.solve_generalized(pair, tol=1e-12)
    with pytest.raises(SelfOrthogonalMode):
        spectra.normalize_biorthogonal(es, sigma_tol=1e-6)


def test_completeness_requires_full_set():
    pair = _pair([1.0, 2.0 + 1.0j, 3.0])
    es = spectra.solve_generalized(pair, tol=1e-12)
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
    gram_k = es_k.left.conj().T @ (pair.W @ es_k.right)
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


def test_quasiparity_vanishing_overlap(hand):
    # the reversal of two entries swaps them, and (1,0) is orthogonal to (0,1)
    with pytest.raises(VanishingParityOverlap):
        spectra.quasiparity_leftkets(hand)


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
    W = pair.W
    es = spectra.solve_generalized(pair, tol=1e-12)
    lam, VR, VL = es.lambdas, es.right, es.left
    HVR = discrete.band_matmul(pair.bands, VR)
    HdVL = discrete.band_matmul(pair.bands, VL, adjoint=True)
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
    # only a PT-symmetric W = I pair takes the real basis; every other pair
    # gives exactly what the direct LAPACK call gives, sorted and phase-fixed
    pair = {
        "hand": lambda: PAIR2,
        "hand_complex_diagonal": lambda: _pair([3.0, 1.0 + 0.5j, 2.0]),
        "hermitian_full": lambda: request.getfixturevalue("hermitian_full")[0],
        "weighted_cubic": _weighted_cubic_pair,
    }[case]()
    weighted = not np.all(pair.w_diag == 1.0)
    assert weighted == (case == "weighted_cubic")
    assert pair.pt_symmetric == weighted  # the cubic is PT-symmetric, but W != I
    es = spectra.solve_generalized(pair, tol=1e-12)
    lam, VL, VR = scipy.linalg.eig(pair.H, pair.W if weighted else None, left=True, right=True)
    order = np.lexsort((lam.imag, lam.real))
    assert np.array_equal(es.lambdas, lam[order])
    assert np.array_equal(es.right, spectra._normalize_columns(VR[:, order]))
    assert np.array_equal(es.left, spectra._normalize_columns(VL[:, order]))


def test_pt_grid_pair_retains_exactly_real_modes(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    assert pair.pt_symmetric
    assert np.all(es_sub.lambdas.imag == 0.0)
    complex_route = spectra.filter_real(
        spectra.solve_generalized(replace(pair, pt_symmetric=False), tol=1e-12)
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


def test_frame_residuals_are_those_of_the_kets(harmonic_small):
    # ||A y - lam y|| / ||y|| in the frame against ||H v - lam v|| / ||v|| on v = U y p
    pair, es_full, _ = harmonic_small
    lam, R, L = es_full.lambdas, es_full.right, es_full.left
    HR = discrete.band_matmul(pair.bands, R)
    HdL = discrete.band_matmul(pair.bands, L, adjoint=True)
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
    lam, right, res = spectra.nearest_eigenpairs(pair, shifts)
    for j, shift in enumerate(shifts):
        k = np.argmin(np.abs(es_full.lambdas - shift))
        assert abs(lam[j] - es_full.lambdas[k]) <= 1e-10 * abs(es_full.lambdas[k])
        # same ket up to phase: both are unit columns
        assert abs(np.vdot(right[:, j], es_full.right[:, k])) == pytest.approx(1.0, abs=1e-10)
    assert res.max() < 1e-10
    again = spectra.nearest_eigenpairs(pair, shifts)
    assert np.array_equal(again[0], lam) and np.array_equal(again[1], right)


def test_nearest_eigenpairs_on_weighted_pencil(cubic_model):
    rect = model.rectify_model(cubic_model, 1)
    pair = discrete.build_operators(
        rect, discrete.GridSpec(half_width=2.2, n=900, epsilon=0.15)
    )
    lam, _, res = spectra.nearest_eigenpairs(pair, CUBIC_TOBOGGAN_SHOOT_LOWEST[:3])
    assert np.allclose(lam.real, CUBIC_TOBOGGAN_GRID_LOWEST[:3], rtol=1e-6, atol=0)
    assert np.abs(lam.imag).max() < 1e-9
    assert res.max() < 1e-8


def test_nearest_eigenpairs_reports_unconverged_residual(harmonic_small):
    # equidistant from two modes, inverse iteration cannot pick one
    pair, es_full, es_sub = harmonic_small
    midpoint = 0.5 * (es_sub.lambdas[0] + es_sub.lambdas[1])
    lam, _, res = spectra.nearest_eigenpairs(pair, [midpoint])
    assert res[0] > 1e-3


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
    assert [r["re_lambda"] for r in rows] == ["1.0", "2.0"]
    assert {"index", "re_lambda", "im_lambda", "residual_right", "residual_left",
            "sigma_re", "sigma_im"} <= set(rows[0])
