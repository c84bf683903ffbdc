"""Metric-operator assembly against a 2x2 hand-worked oracle.

H = [[1 + 0.6i, 1], [1, 1 - 0.6i]] = H^T, W = I: non-normal, with
lambda = 1 -/+ 0.8 and unit kets v = (1, b)/sqrt(2), b = -/+0.8 - 0.6i
(|b| = 1).  As H = H^T, each double-ket is conj(v) up to scale, and
sigma = v^T v = (1 + b^2)/2 = 0.64 +/- 0.48i, |sigma| = 0.8, so the
sigma-normalized double-kets L = conj(v)/conj(sigma) have norm 1.25.
S = L^dag R = I and M = I, so cond_S = 1.  Theta = L L^dag
= sum conj(v v^dag)/0.64 = [[1, -0.6i], [0.6i, 1]]/0.64
= [[25, -15i], [15i, 25]]/16: Hermitian, eigenvalues 40/16 and 10/16,
so min_eig = 0.625 and cond_Theta = 4, and H^dag Theta = Theta H exactly.
"""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from qtoboggan import discrete, metric, model, spectra
from qtoboggan.discrete import OperatorPair
from qtoboggan.errors import (
    IllConditionedS,
    IncompleteBasisWarning,
    NonPositiveTheta,
    SingularTheta,
)

H2 = np.array([[1.0 + 0.6j, 1.0], [1.0, 1.0 - 0.6j]])
THETA2 = np.array([[25.0, -15.0j], [15.0j, 25.0]]) / 16.0


@pytest.fixture()
def hand_pair():
    # not flagged PT-symmetric, so it takes the complex standard eigensolve
    return OperatorPair(
        diag=np.array([1.0 + 0.6j, 1.0 - 0.6j]),
        off=np.array([1.0 + 0j]),
        w_diag=np.ones(2, dtype=complex),
        s=np.ones(2, dtype=complex),
    )


@pytest.fixture()
def hand_result(hand_pair):
    es = spectra.solve_generalized(hand_pair)
    es = spectra.normalize_biorthogonal(es)
    return es, metric.build_metric(es)


def test_hand_theta_value(hand_result, hand_pair):
    es, res = hand_result
    assert np.array_equal(hand_pair.H, H2)
    assert np.allclose(res.S, np.eye(2), atol=1e-12)
    assert np.allclose(res.M, np.eye(2), atol=1e-12)
    assert np.allclose(res.Theta, THETA2, atol=1e-10)


def test_hand_diagnostics(hand_result):
    _, res = hand_result
    d = res.diagnostics
    assert set(d) == {"quasiH", "quasiW", "hermiticity", "min_eig", "cond_S", "cond_Theta"}
    assert d["quasiH"] < 1e-12
    assert d["quasiW"] < 1e-12
    assert d["hermiticity"] < 1e-12
    assert d["min_eig"] == pytest.approx(0.625, rel=1e-9)
    assert d["cond_S"] == pytest.approx(1.0, rel=1e-9)
    assert d["cond_Theta"] == pytest.approx(4.0, rel=1e-9)


def test_hand_delta_identity_and_single_series(hand_result):
    es, res = hand_result
    assert metric.delta_identity_residual(es, res.Theta) < 1e-12
    # With W = I the double series collapses onto the single series.
    assert np.allclose(metric.single_series_theta(es), res.Theta, atol=1e-12)


def test_hand_physical_operators(hand_result, hand_pair):
    _, res = hand_result
    rh, rw = metric.physical_operators(hand_pair, res.Theta)
    assert rh < 1e-12
    assert rw < 1e-12


def test_kappa_changes_theta_but_not_admissibility(hand_result):
    es, res0 = hand_result
    kappa = np.array([2.0, 0.5 * np.exp(0.7j)])
    res_k = metric.build_metric(es, kappa=kappa)
    # Theta[kappa] = L diag(|kappa|^2) L^dag here
    expected = (es.left * (np.abs(kappa) ** 2)[np.newaxis, :]) @ es.left.conj().T
    assert np.allclose(res_k.Theta, expected, atol=1e-10)
    assert res_k.diagnostics["quasiH"] < 1e-12
    assert res_k.diagnostics["min_eig"] > 0
    assert np.linalg.norm(res_k.Theta - res0.Theta) > 1e-3 * np.linalg.norm(res0.Theta)


def test_kappa_shape_validated(hand_result):
    es, _ = hand_result
    with pytest.raises(ValueError):
        metric.build_metric(es, kappa=np.ones(3))


def test_quasi_hermiticity_rejects_singular_theta(hand_pair):
    nonfinite = np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex)
    with pytest.raises(SingularTheta):
        metric.quasi_hermiticity_residuals(nonfinite, hand_pair)


def test_physical_operators_rejects_indefinite_theta(hand_pair):
    with pytest.raises(NonPositiveTheta):
        metric.physical_operators(hand_pair, np.diag([1.0, -1.0]).astype(complex))
    skew = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NonPositiveTheta):
        metric.physical_operators(hand_pair, skew)


def test_positivity_report_values():
    herm, mineig = metric.positivity_report(np.diag([2.0, -1.0]).astype(complex))
    assert herm == 0.0
    assert mineig == pytest.approx(-1.0, rel=1e-12)


def test_ill_conditioned_overlap_rejected(hand_result, monkeypatch):
    # After biorthogonal normalization with identity weight, S is the Gram
    # matrix itself (exactly I), so the guard can only be exercised by
    # tightening its threshold below cond(S) = 1.
    es, _ = hand_result
    monkeypatch.setattr(metric, "COND_S_THRESHOLD", 0.5)
    with pytest.raises(IllConditionedS):
        metric.build_metric(es)


def test_subspace_metric_warns_but_stays_consistent(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    with pytest.warns(IncompleteBasisWarning):
        res = metric.build_metric(es_sub)
    assert res.diagnostics["min_eig"] > 0
    assert res.diagnostics["hermiticity"] < 1e-8
    # delta identity holds algebraically on the retained subset too
    assert metric.delta_identity_residual(es_sub, res.Theta) < 1e-8


def test_full_set_metric_on_grid_run(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    res = metric.build_metric(es_full)
    # The complete set of this complex-shifted box holds square-well modes
    # that have broken into complex-conjugate pairs; a double-series metric
    # intertwines H exactly only when every retained eigenvalue is real, so
    # quasiH is bounded away from zero here (it scales with max |Im lambda|).
    assert res.diagnostics["quasiH"] < 1e-5
    assert res.diagnostics["quasiW"] < 1e-12
    assert res.diagnostics["hermiticity"] < 1e-8
    assert metric.delta_identity_residual(es_full, res.Theta) < 1e-8


@pytest.fixture()
def cubic_coarse(cubic_model):
    """The steep winding-1 cubic on a coarse grid: an indefinite, non-intertwining Theta."""
    rect = model.rectify_model(cubic_model, 1)
    pair = discrete.build_operators(rect, discrete.GridSpec(half_width=2.2, n=200, epsilon=0.15))
    es = spectra.filter_real(spectra.solve_generalized(pair))
    return spectra.normalize_biorthogonal(es)


def test_theta_eigenvector_residual_tells_the_metric_from_impostors(harmonic_small, cubic_coarse):
    pair, es_full, es_sub = harmonic_small
    with pytest.warns(IncompleteBasisWarning):
        res = metric.build_metric(es_sub)
    assert metric.theta_eigenvector_residual(es_sub, res.Theta) < 1e-10
    assert metric.theta_eigenvector_residual(es_sub, np.eye(pair.n)) > 1e-6
    with pytest.warns(IncompleteBasisWarning):
        res = metric.build_metric(cubic_coarse)
    assert metric.theta_eigenvector_residual(cubic_coarse, res.Theta) > 1e-4


def _serial_chain(left, right, w, kappa):
    """build_metric's dense steps one after another: (S, M, Theta, span, eigenvalues)."""
    n, m = right.shape
    S = left.conj().T @ (w[:, np.newaxis] * (w[:, np.newaxis] * right))
    M = scipy.linalg.lu_solve(scipy.linalg.lu_factor(S), np.eye(m, dtype=S.dtype))
    A = (w.conj()[:, np.newaxis] * left) * kappa.conj()[np.newaxis, :]
    B = kappa[:, np.newaxis] * (left.conj().T * w[np.newaxis, :])
    Theta = A @ M @ B
    span = Theta
    if m < n:
        Q, _ = np.linalg.qr(right)
        span = Q.conj().T @ Theta @ Q
    return S, M, Theta, span, scipy.linalg.eigvalsh((span + span.conj().T) / 2.0)


def _serial_diagnostics(pair, Theta, eigs):
    """build_metric's diagnostics of Theta, minus cond_S."""
    w = pair.w_diag
    tnorm = np.linalg.norm(Theta)
    Hd_theta = discrete.band_matmul(pair.diag.conj(), pair.off.conj(), Theta)
    theta_H = discrete.band_matmul(pair.diag, pair.off, Theta.T).T
    quasiW = w.conj()[:, np.newaxis] * Theta - Theta * w[np.newaxis, :]
    mag = np.abs(eigs)
    return {
        "quasiH": float(np.linalg.norm(Hd_theta - theta_H) / (tnorm * pair.H_norm)),
        "quasiW": float(np.linalg.norm(quasiW) / (tnorm * np.linalg.norm(w))),
        "hermiticity": float(np.linalg.norm(Theta - Theta.conj().T) / np.linalg.norm(Theta)),
        "min_eig": float(eigs.min()),
        "cond_Theta": float(mag.max() / mag.min()),
    }


def _serial_metric(es, kappa=None):
    """The complex chain on the stored kets."""
    kappa = np.ones(es.m, dtype=complex) if kappa is None else kappa
    S, M, Theta, span, eigs = _serial_chain(es.left, es.right, es.pair.w_diag, kappa)
    return S, M, Theta, span, _serial_diagnostics(es.pair, Theta, eigs)


def _frame_quasiH(pair, X):
    """||A^T X - X A||_F / (||X||_F ||H||_F) for A = Re H - (Im H) P.

    A^T X - X A = Re H X - P Im H X - X Re H + (X Im H) P with H = H^T, each
    tridiagonal product written out in the order build_metric sums it.
    """

    def times(d, o, X):  # T X for the real symmetric tridiagonal T with diagonals d, o
        Y = d[:, np.newaxis] * X
        Y[:-1] += o[:, np.newaxis] * X[1:]
        Y[1:] += o[:, np.newaxis] * X[:-1]
        return Y

    re, im = (pair.diag.real, pair.off.real), (pair.diag.imag, pair.off.imag)
    D = times(*re, X)
    D -= times(*im, X)[::-1]
    D -= times(*re, X.T).T
    D += times(*im, X.T).T[:, ::-1]
    return float(np.linalg.norm(D) / (np.linalg.norm(X) * pair.H_norm))


def _frame_serial_metric(es):
    """The frame chain (kappa = 1) on the stored Y_R, Y_L and phases p.

    S and M return as diag(conj p) X diag(p), Theta as
    U Theta_r U^dag = ((X + PXP) + i (PX - XP)) / 2 with U = (I + iP)/sqrt(2);
    the diagnostics are those of Theta_r, quasiH against A = U^dag H U.
    """
    YR, YL = es.vectors
    S, M, X, span, eigs = _serial_chain(YL, YR, np.ones(es.pair.n), np.ones(es.m))
    diagnostics = _serial_diagnostics(es.pair, X, eigs)
    diagnostics["quasiH"] = _frame_quasiH(es.pair, X)
    rephase = es.phase.conj()[:, np.newaxis] * es.phase[np.newaxis, :]
    Theta = 0.5 * (1j * (X[::-1] - X[:, ::-1]) + X + X[::-1, ::-1])
    return S * rephase, M * rephase, Theta, span, diagnostics


def _case(case, request):
    if case == "hand":
        return request.getfixturevalue("hand_result")[0]
    if case == "harmonic_subset":
        return request.getfixturevalue("harmonic_small")[2]
    if case == "harmonic_one_complex_mode":
        # PT-symmetric with W = I, but one retained mode of a broken pair
        es_full = request.getfixturevalue("harmonic_small")[1]
        lam = es_full.lambdas
        complex_modes = np.flatnonzero(lam.imag != 0)
        return es_full.take(np.append(np.flatnonzero(lam.imag == 0), complex_modes[0]))
    if case == "harmonic_unnormalized":
        # real modes of a PT-symmetric W = I pair, but sigma != 1: ket and
        # double-ket phases are unrelated, so no real basis holds both
        pair = request.getfixturevalue("harmonic_small")[0]
        return spectra.filter_real(spectra.solve_generalized(pair))
    return request.getfixturevalue("cubic_coarse")


def _quiet_metric(es, kappa=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteBasisWarning)
        return metric.build_metric(es, kappa=kappa)


@pytest.mark.parametrize(
    "case",
    ["hand", "harmonic_subset", "cubic_coarse", "harmonic_one_complex_mode", "harmonic_unnormalized"],
)
def test_metric_is_bitwise_the_serial_one(case, request):
    # every eigensystem of the PT-symmetric W = I harmonic pair is held in the
    # frame, whether its lambdas are real or not and whatever its sigma
    es = _case(case, request)
    in_frame = case.startswith("harmonic")
    assert (es.phase is not None) == in_frame
    S, M, Theta, _, diagnostics = (_frame_serial_metric if in_frame else _serial_metric)(es)
    res = _quiet_metric(es)
    assert np.array_equal(res.S, S)
    assert np.array_equal(res.M, M)
    assert np.array_equal(res.Theta, Theta)
    assert {key: res.diagnostics[key] for key in diagnostics} == diagnostics


@pytest.mark.parametrize(
    "case",
    ["hand", "harmonic_subset", "cubic_coarse", "harmonic_one_complex_mode", "harmonic_unnormalized"],
)
def test_build_S_and_gram_are_bitwise_the_formulas(case, request):
    # each case normalized too, so every storage is also read with a Gram
    es = _case(case, request)
    in_frame = es.phase is not None
    w = (np.ones(es.pair.n) if in_frame else es.pair.w_diag)[:, np.newaxis]
    normed = spectra.normalize_biorthogonal(es)
    for each in (es, normed):
        R, L = each.vectors
        assert np.array_equal(metric.build_S(each), L.conj().T @ (w * (w * R)))
    es = normed
    # the kets' Gram as normalize_biorthogonal stored it, rephased in the frame
    # with the Gram the first factor of each product, as MetricResult.S has it
    gram = L.conj().T @ (w * R)
    if in_frame:
        rephase = es.phase.conj()[:, np.newaxis] * es.phase[np.newaxis, :]
        gram = gram * rephase
    assert np.array_equal(es.gram, gram)
    if in_frame:
        # a normalized frame system's S_r is its stored Gram, not a new m x m array
        tracemalloc.start()
        try:
            S = metric.build_S(es)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert S is es.vector_gram and peak < es.m * es.m
        res = _quiet_metric(es)
        assert np.array_equal(res.matrices[0], S)
        # at W = I the kets' S is their Gram, read through the same rephasing
        assert np.array_equal(res.S, es.gram)


@pytest.mark.parametrize("real", [True, False])
def test_operator_from_real_basis_is_u_x_u_dagger(real):
    # odd n, so the middle row and column map onto themselves
    n = 7
    rng = np.random.default_rng(12)
    X = rng.standard_normal((n, n))
    if not real:
        X = X + 1j * rng.standard_normal((n, n))
    U = (np.eye(n) + 1j * np.eye(n)[::-1]) / np.sqrt(2.0)
    T = spectra._operator_from_real_basis(X)
    assert np.abs(T - U @ X @ U.conj().T).max() <= 8 * np.finfo(float).eps * np.abs(X).max()
    if real:
        # the complex-sum formula a complex X takes, to the bit
        summed = 1j * (X[::-1] - X[:, ::-1])
        summed += X
        summed += X[::-1, ::-1]
        summed *= 0.5
        assert T.tobytes() == summed.tobytes()


def _harmonic_line_es(harmonic_model, n):
    """The harmonic line's normalized real modes on n points, held in the PT frame."""
    pair = discrete.build_operators(
        model.rectify_model(harmonic_model, 0),
        discrete.GridSpec(half_width=9.0, n=n, epsilon=0.5),
    )
    es = spectra.solve_generalized(pair)
    return spectra.normalize_biorthogonal(spectra.filter_real(es))


def test_frame_metric_forms_s_and_theta_on_read_and_no_m(harmonic_model):
    # the harmonic line's grid: S_r and Theta_r, then Theta and S read as the
    # metric command reads them, peak at 4.9 real n x n arrays; keeping M_r
    # and caching each operator read peaked at 5.8
    es = _harmonic_line_es(harmonic_model, 400)
    pair = es.pair
    assert es.phase is not None and es.m < pair.n
    tracemalloc.start()
    try:
        res = _quiet_metric(es)
        res.Theta, res.S
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    S_r, Theta_r = res.matrices
    assert S_r is es.vector_gram and Theta_r.shape == (pair.n, pair.n)
    assert peak <= 5.25 * pair.n**2 * np.dtype(float).itemsize


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before Python 3.11 the caller's stack holds a call's arguments until it returns",
)
@pytest.mark.parametrize("n", [240, 400])
def test_a_handed_over_eigensystem_is_freed_at_its_last_read(harmonic_model, n):
    # as the metric command calls it, with no reference kept outside: R and L die
    # once read, and the span's Hermitian part is formed in place, so the peak
    # above entry reads 2.1 n x m real arrays; holding them read 4.0
    tracemalloc.start()
    try:
        handed = [_harmonic_line_es(harmonic_model, n)]
        m = handed[0].m
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IncompleteBasisWarning)
            res = metric.build_metric(handed.pop())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m < n and res.matrices[1].shape == (n, n)
    assert peak - entry <= 2.5 * n * m * np.dtype(float).itemsize


@pytest.mark.parametrize("case", ["hand", "harmonic_subset", "cubic_coarse"])
def test_a_kept_eigensystem_is_left_as_it_was(case, request):
    # as validate calls it: the caller keeps the eigensystem and builds again
    es = _case(case, request)
    before = [X.tobytes() for X in (*es.vectors, es.vector_gram)]
    first, second = _quiet_metric(es), _quiet_metric(es)
    assert [X.tobytes() for X in (*es.vectors, es.vector_gram)] == before
    for name in ("S", "M", "Theta"):
        assert getattr(second, name).tobytes() == getattr(first, name).tobytes()
    assert second.diagnostics == first.diagnostics


@pytest.mark.parametrize("case", ["hand", "harmonic_subset"])
def test_metric_result_keeps_no_read_and_m_is_the_inverse_of_s(case, request):
    es = _case(case, request)
    res = _quiet_metric(es)
    fields = set(vars(res))
    first = {name: getattr(res, name) for name in ("S", "M", "Theta")}
    assert set(vars(res)) == fields
    for name, value in first.items():
        again = getattr(res, name)
        assert again is not value and again.tobytes() == value.tobytes()
    # M = S^{-1} by the ?getrf/?getrs build_metric ran, to the bit
    S = res.matrices[0]
    M = metric._invert_full(S)
    if es.phase is None:
        assert np.array_equal(res.S, S) and res.M.tobytes() == M.tobytes()
    else:
        rephase = es.phase.conj()[:, np.newaxis] * es.phase[np.newaxis, :]
        assert res.M.tobytes() == np.multiply(M, rephase).tobytes()


@pytest.mark.parametrize("real", [True, False])
def test_frame_quasi_hermiticity_is_the_ambient_one(harmonic_small, real):
    # an O(1) residual, so the two agree to rounding rather than both being noise
    pair = harmonic_small[0]
    rng = np.random.default_rng(8)
    X = rng.standard_normal((pair.n, pair.n))
    if not real:
        X = X + 1j * rng.standard_normal((pair.n, pair.n))
    U = (np.eye(pair.n) + 1j * np.eye(pair.n)[::-1]) / np.sqrt(2.0)
    framed = metric.quasi_hermiticity_residuals(X, pair, in_frame=True)
    ambient = metric.quasi_hermiticity_residuals(U @ X @ U.conj().T, pair)
    assert framed[0] > 0.01
    assert framed[0] == pytest.approx(ambient[0], rel=1e-12)
    assert framed[1] == ambient[1] == 0.0


@pytest.mark.parametrize("kappa", ["one", "complex"])
def test_real_frame_agrees_with_the_complex_chain(harmonic_small, kappa):
    es = harmonic_small[2]
    rng = np.random.default_rng(5)
    kappa = None if kappa == "one" else rng.uniform(0.5, 2.0, es.m) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, es.m)
    )
    S, M, Theta, _, diagnostics = _serial_metric(es, kappa)
    res = _quiet_metric(es, kappa)
    for got, want in ((res.Theta, Theta), (res.S, S), (res.M, M)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    for key in ("min_eig", "cond_Theta"):
        assert res.diagnostics[key] == pytest.approx(diagnostics[key], rel=1e-8)


@pytest.mark.parametrize("case", ["hand", "harmonic_subset", "cubic_coarse"])
def test_cond_S_bounds_the_two_norm_condition_number(case, request):
    es = _case(case, request)
    res = _quiet_metric(es)
    assert res.diagnostics["cond_S"] >= np.linalg.cond(res.S)


@pytest.mark.parametrize("case", ["hand", "harmonic_subset"])
def test_cond_theta_is_the_two_norm_one_when_w_is_identity(case, request):
    # Theta is Hermitian here, so its singular values are its |eigenvalues|
    es = _case(case, request)
    span = _serial_metric(es)[3]
    res = _quiet_metric(es)
    assert res.diagnostics["cond_Theta"] == pytest.approx(np.linalg.cond(span), rel=1e-8)


def test_planted_ill_conditioned_overlap_fails_the_gate(harmonic_small, monkeypatch):
    # S = U diag(1, ..., 1/2e12) V^dag: cond_2(S) = 2e12, twice the threshold
    _, _, es_sub = harmonic_small
    m = es_sub.m
    rng = np.random.default_rng(3)
    U, V = (
        np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        for _ in range(2)
    )
    S = (U * np.geomspace(1.0, 1.0 / 2e12, m)[np.newaxis, :]) @ V.conj().T
    assert np.linalg.cond(S) == pytest.approx(2e12, rel=1e-2)
    # the frame chain forms S through build_S too: it is handed the real frame
    handed = []
    monkeypatch.setattr(metric, "build_S", lambda es: handed.append(es.vectors[0].dtype) or S)
    with pytest.warns(IncompleteBasisWarning), pytest.raises(IllConditionedS):
        metric.build_metric(es_sub)
    assert handed == [np.dtype(float)]


def test_singular_overlap_fails_the_gate_without_a_lu_warning(harmonic_small, monkeypatch):
    # an exact zero pivot reads as cond_S = inf: the gate, not the LU, names it
    _, _, es_sub = harmonic_small
    handed = []
    monkeypatch.setattr(
        metric, "build_S", lambda es: handed.append(es.vectors[0].dtype) or np.zeros((es.m, es.m))
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IllConditionedS):
            metric.build_metric(es_sub)
    assert not [w for w in caught if issubclass(w.category, scipy.linalg.LinAlgWarning)]
    assert handed == [np.dtype(float)]


def test_zero_theta_eigenvalue_reads_infinite_cond_without_a_warning(monkeypatch):
    # H = diag(1, 2) has the unit vectors for L, so M = diag(1, 0) makes
    # Theta = L diag(1, 0) L^dag = diag(1, 0), with an exact zero eigenvalue
    pair = OperatorPair(diag=np.array([1.0, 2.0]), off=np.zeros(1), w_diag=np.ones(2), s=np.ones(2))
    es = spectra.normalize_biorthogonal(spectra.solve_generalized(pair))
    monkeypatch.setattr(metric, "_invert_full", lambda S: np.diag([1.0, 0.0]).astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = metric.build_metric(es)
    assert res.diagnostics["cond_Theta"] == np.inf
