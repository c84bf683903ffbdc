"""Metric-operator assembly against a 2x2 hand-worked oracle.

H = [[1,1],[0,2]], W = I.  Sigma-normalized left double-kets are
(1,-1) and (0,sqrt(2)), so Theta = L L^dag = [[1,-1],[-1,3]]:
eigenvalues 2 +/- sqrt(2) > 0 and H^dag Theta = Theta H exactly.
"""

import numpy as np
import pytest

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
    es = spectra.normalize_biorthogonal(es, hand_pair)
    return es, metric.build_metric(es, hand_pair)


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


def test_hand_delta_identity_and_single_series(hand_result, hand_pair):
    es, res = hand_result
    assert metric.delta_identity_residual(es, hand_pair, res.Theta) < 1e-12
    # With W = I the double series collapses onto the single series.
    assert np.allclose(metric.single_series_theta(es), res.Theta, atol=1e-12)


def test_hand_physical_operators(hand_result, hand_pair):
    _, res = hand_result
    rh, rw = metric.physical_operators(hand_pair, res.Theta)
    assert rh < 1e-12
    assert rw < 1e-12


def test_kappa_changes_theta_but_not_admissibility(hand_result, hand_pair):
    es, res0 = hand_result
    kappa = np.array([2.0, 0.5 * np.exp(0.7j)])
    res_k = metric.build_metric(es, hand_pair, kappa=kappa)
    # Theta[kappa] = L diag(|kappa|^2) L^dag here
    expected = (es.left * (np.abs(kappa) ** 2)[np.newaxis, :]) @ es.left.conj().T
    assert np.allclose(res_k.Theta, expected, atol=1e-10)
    assert np.array_equal(res_k.kappa_used, kappa)
    assert res_k.diagnostics["quasiH"] < 1e-12
    assert res_k.diagnostics["min_eig"] > 0
    assert np.linalg.norm(res_k.Theta - res0.Theta) > 1e-3 * np.linalg.norm(res0.Theta)


def test_kappa_shape_validated(hand_result, hand_pair):
    es, _ = hand_result
    with pytest.raises(ValueError):
        metric.build_metric(es, hand_pair, kappa=np.ones(3))


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


def test_ill_conditioned_overlap_rejected(hand_pair):
    # After biorthogonal normalization with identity weight, S is the Gram
    # matrix itself (exactly I), so the guard can only be exercised by
    # tightening its threshold below cond(S) = 1.
    es = spectra.solve_generalized(hand_pair, tol=1e-12)
    es = spectra.normalize_biorthogonal(es, hand_pair)
    with pytest.raises(IllConditionedS):
        metric.build_metric(es, hand_pair, cond_threshold=0.5)


def test_subspace_metric_warns_but_stays_consistent(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    with pytest.warns(IncompleteBasisWarning):
        res = metric.build_metric(es_sub, pair)
    assert res.diagnostics["min_eig"] > 0
    assert res.diagnostics["hermiticity"] < 1e-8
    # delta identity holds algebraically on the retained subset too
    assert metric.delta_identity_residual(es_sub, pair, res.Theta) < 1e-8


def test_full_set_metric_on_grid_run(harmonic_small):
    pair, es_full, es_sub = harmonic_small
    res = metric.build_metric(es_full, pair)
    # The complete set of this complex-shifted box holds square-well modes
    # that have broken into complex-conjugate pairs; a double-series metric
    # intertwines H exactly only when every retained eigenvalue is real, so
    # quasiH is bounded away from zero here (it scales with max |Im lambda|).
    assert res.diagnostics["quasiH"] < 1e-5
    assert res.diagnostics["quasiW"] < 1e-12
    assert res.diagnostics["hermiticity"] < 1e-8
    assert metric.delta_identity_residual(es_full, pair, res.Theta) < 1e-8


def test_theta_eigenvector_residual_tells_the_metric_from_impostors(harmonic_small, cubic_model):
    pair, es_full, es_sub = harmonic_small
    with pytest.warns(IncompleteBasisWarning):
        res = metric.build_metric(es_sub, pair)
    assert metric.theta_eigenvector_residual(es_sub, pair, res.Theta) < 1e-10
    assert metric.theta_eigenvector_residual(es_sub, pair, np.eye(pair.n)) > 1e-6
    # the steep winding-1 cubic on a coarse grid: an indefinite, non-intertwining Theta
    rect = model.rectify_model(cubic_model, 1)
    pair = discrete.build_operators(rect, discrete.GridSpec(half_width=2.2, n=200, epsilon=0.15))
    es = spectra.filter_real(spectra.solve_generalized(pair, tol=1e-12))
    es = spectra.normalize_biorthogonal(es, pair)
    with pytest.warns(IncompleteBasisWarning):
        res = metric.build_metric(es, pair)
    assert metric.theta_eigenvector_residual(es, pair, res.Theta) > 1e-4
