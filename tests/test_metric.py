"""Metric-operator assembly against a 2x2 hand-worked oracle.

H = [[1,1],[0,2]], W = I.  Sigma-normalized left double-kets are
(1,-1) and (0,sqrt(2)), so Theta = L L^dag = [[1,-1],[-1,3]]:
eigenvalues 2 +/- sqrt(2) > 0 and H^dag Theta = Theta H exactly.
"""

import threading
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

H2 = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
THETA2 = np.array([[1.0, -1.0], [-1.0, 3.0]], dtype=complex)


@pytest.fixture()
def hand_pair():
    bands = np.array([[0.0, 1.0], [1.0, 2.0], [0.0, 0.0]], dtype=complex)
    return OperatorPair(bands=bands, w_diag=np.ones(2, dtype=complex), gridspec=None)


@pytest.fixture()
def hand_result(hand_pair):
    es = spectra.solve_generalized(hand_pair, tol=1e-12)
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
    assert d["min_eig"] == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-9)
    assert d["cond_S"] == pytest.approx(1.0, rel=1e-9)
    assert d["cond_Theta"] == pytest.approx(3.0 + 2.0 * np.sqrt(2.0), rel=1e-9)


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
    assert np.array_equal(res_k.kappa_used, kappa)
    assert res_k.diagnostics["quasiH"] < 1e-12
    assert res_k.diagnostics["min_eig"] > 0
    assert np.linalg.norm(res_k.Theta - res0.Theta) > 1e-3 * np.linalg.norm(res0.Theta)


def test_kappa_shape_validated(hand_result):
    es, _ = hand_result
    with pytest.raises(ValueError):
        metric.build_metric(es, kappa=np.ones(3))


def test_quasi_hermiticity_rejects_singular_theta(hand_pair):
    bad = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(SingularTheta):
        metric.quasi_hermiticity_residuals(bad, hand_pair)
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
    es = spectra.filter_real(spectra.solve_generalized(pair, tol=1e-12))
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


def _serial_metric(es):
    """build_metric's dense steps one after another, in the order of a serial run (kappa = 1)."""
    pair, n, m = es.pair, es.pair.n, es.m
    S = metric.build_S(es)
    cond_S = float(np.linalg.cond(S))
    M = scipy.linalg.lu_solve(scipy.linalg.lu_factor(S), np.eye(m, dtype=complex))
    w, kappa = pair.w_diag, np.ones(m, dtype=complex)
    A = (w.conj()[:, np.newaxis] * es.left) * kappa.conj()[np.newaxis, :]
    B = kappa[:, np.newaxis] * (es.left.conj().T * w[np.newaxis, :])
    Theta = A @ M @ B
    span = Theta
    if m < n:
        Q, _ = np.linalg.qr(es.right)
        span = Q.conj().T @ Theta @ Q
    min_eig = float(scipy.linalg.eigvalsh((span + span.conj().T) / 2.0).min())
    cond_T = float(np.linalg.cond(span))
    quasiH, quasiW = metric.quasi_hermiticity_residuals(Theta, pair, check_invertible=False)
    diagnostics = {
        "quasiH": quasiH,
        "quasiW": quasiW,
        "hermiticity": float(np.linalg.norm(Theta - Theta.conj().T) / np.linalg.norm(Theta)),
        "min_eig": min_eig,
        "cond_S": cond_S,
        "cond_Theta": cond_T,
    }
    return S, M, Theta, diagnostics


@pytest.fixture(params=["overlapped", "serial"])
def schedule(request, monkeypatch):
    """build_metric overlaps its LAPACK calls only when the BLAS is pinned to one thread."""
    for var in metric._BLAS_THREAD_VARS:
        if request.param == "overlapped":
            monkeypatch.setenv(var, "1")
        else:
            monkeypatch.delenv(var, raising=False)
    return request.param


def test_calls_overlap_only_with_one_blas_thread(harmonic_small, monkeypatch, schedule):
    # cond(S) runs on the worker; it sees the main thread start the QR only if
    # the two are allowed to run at once
    _, _, es_sub = harmonic_small
    real_cond, real_qr = np.linalg.cond, np.linalg.qr
    qr_started = threading.Event()
    seen = []

    def cond(a):
        if not seen:
            seen.append(qr_started.wait(timeout=10.0 if schedule == "overlapped" else 0.5))
        return real_cond(a)

    def qr(a):
        qr_started.set()
        return real_qr(a)

    monkeypatch.setattr(np.linalg, "cond", cond)
    monkeypatch.setattr(np.linalg, "qr", qr)
    with pytest.warns(IncompleteBasisWarning):
        metric.build_metric(es_sub)
    assert seen == [schedule == "overlapped"]


@pytest.mark.parametrize("case", ["hand", "harmonic_subset", "cubic_coarse"])
def test_metric_is_bitwise_the_serial_one(case, request, schedule):
    if case == "hand":
        es = request.getfixturevalue("hand_result")[0]
    elif case == "harmonic_subset":
        es = request.getfixturevalue("harmonic_small")[2]
    else:
        es = request.getfixturevalue("cubic_coarse")
    S, M, Theta, diagnostics = _serial_metric(es)
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteBasisWarning)
        res = metric.build_metric(es)
    assert threading.active_count() == threads
    assert np.array_equal(res.S, S)
    assert np.array_equal(res.M, M)
    assert np.array_equal(res.Theta, Theta)
    assert res.diagnostics == diagnostics


def test_singular_overlap_fails_the_gate_without_a_lu_warning(harmonic_small, monkeypatch, schedule):
    # the LU may run beside cond(S): a zero pivot must neither warn nor pre-empt the gate
    _, _, es_sub = harmonic_small
    monkeypatch.setattr(metric, "build_S", lambda es: np.zeros((es.m, es.m), dtype=complex))
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IllConditionedS):
            metric.build_metric(es_sub)
    assert threading.active_count() == threads
    assert not [w for w in caught if issubclass(w.category, scipy.linalg.LinAlgWarning)]


class _Boom(Exception):
    pass


@pytest.mark.parametrize(
    "name, fail_at", [("cond", 0), ("cond", 1), ("qr", 0)], ids=["cond-S", "cond-span", "qr"]
)
def test_a_failing_dense_step_propagates_and_leaves_no_thread(
    harmonic_small, monkeypatch, schedule, name, fail_at
):
    # the condition numbers run on the worker thread, the QR on the main one
    _, _, es_sub = harmonic_small
    real = getattr(np.linalg, name)
    boom = _Boom(name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > fail_at:
            raise boom
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, failing)
    threads = threading.active_count()
    with pytest.warns(IncompleteBasisWarning), pytest.raises(_Boom) as excinfo:
        metric.build_metric(es_sub)
    assert excinfo.value is boom
    assert len(calls) == fail_at + 1
    assert threading.active_count() == threads
