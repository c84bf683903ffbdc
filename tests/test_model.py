"""Model definitions and the rectification of potentials."""

import numpy as np
import pytest

from qtoboggan import model
from qtoboggan.errors import ConfigError


def test_effective_coeffs_folds_omega_into_quadratic():
    spec = model.ModelSpec(ell=0.0, coeffs={3: 1j}, omega=2.0)
    assert spec.effective_coeffs == {2: 4.0 + 0j, 3: 1j}


def test_potential_includes_centrifugal_term():
    # single source of truth: potential() carries both the polynomial and the
    # centrifugal part (callers must not add the spike again)
    spec = model.ModelSpec(ell=0.3, coeffs={2: 1.0})
    z = 2.0 + 0.0j
    assert spec.potential(z) == pytest.approx(4.0 + 0.3 * 1.3 / 4.0)


def test_powers_must_be_positive_integers():
    with pytest.raises(ConfigError):
        model.ModelSpec(coeffs={0: 1.0})
    with pytest.raises(ConfigError):
        model.ModelSpec(coeffs={-2: 1.0})


def test_pt_flag():
    assert model.ModelSpec(coeffs={2: 1.0}).pt_flag
    assert model.ModelSpec(coeffs={2: 1.0, 1: 1j}).pt_flag
    assert model.ModelSpec(coeffs={3: 1j}, omega=1.0).pt_flag
    assert not model.ModelSpec(coeffs={3: 1.0}).pt_flag
    assert not model.ModelSpec(coeffs={2: 1j}).pt_flag


def test_powers_must_be_integers_not_bools_or_floats():
    for k in (True, 2.0, 1.5):
        with pytest.raises(ConfigError):
            model.ModelSpec(coeffs={k: 1.0})
    with pytest.raises(ConfigError):
        model.ModelSpec(coeffs={True: 1j, 2.0: 1.0})


def test_rectify_winding_must_be_a_non_negative_integer():
    spec = model.ModelSpec(coeffs={2: 1.0})
    for winding in (True, 1.0, -1):
        with pytest.raises(ConfigError):
            model.rectify_model(spec, winding)


R = np.array([1.5 - 0.3j, -0.8 - 0.3j, 0.2 - 0.3j])


def test_rectify_winding1_cubic_example():
    # (ell, omega^2 z^2 + i z^3) at winding 1: L = 3 ell + 1, exponents
    # 2*3+4 = 10 and 3*3+4 = 13, all coefficients multiplied by 9, weight 9 r^4;
    # the odd power picks up the branch phase (-1)^(N k) = -1.
    ell, omega = 0.2, 1.3
    spec = model.ModelSpec(ell=ell, coeffs={3: 1j}, omega=omega)
    rect = model.rectify_model(spec, winding=1)
    L = 3 * ell + 1
    expected = L * (L + 1) / R**2 + 9 * omega**2 * R**10 - 9j * R**13
    assert np.allclose(rect.potential(R), expected, rtol=1e-13, atol=0)
    assert np.allclose(rect.weight(R), 9 * R**4, rtol=1e-15, atol=0)
    assert rect.pt_flag


def test_rectify_winding2_quadratic_example():
    rect = model.rectify_model(model.ModelSpec(ell=0.0, coeffs={2: 1.0}), winding=2)
    # L = 2 at ell = 0, the power 2*5+8 = 18, the weight 25 r^8
    expected = 2 * 3 / R**2 + 25 * R**18
    assert np.allclose(rect.potential(R), expected, rtol=1e-13, atol=0)
    assert np.allclose(rect.weight(R), 25 * R**8, rtol=1e-15, atol=0)


def test_rectify_zero_winding_is_identity_with_unit_weight():
    spec = model.ModelSpec(ell=0.1, coeffs={2: 1.0, 1: 1j})
    rect = model.rectify_model(spec, winding=0)
    expected = 0.1 * 1.1 / R**2 + 1j * R + R**2
    assert np.allclose(rect.potential(R), expected, rtol=1e-15, atol=0)
    assert np.array_equal(rect.weight(R), np.ones(3))


def test_zero_winding_potential_is_the_line_potential_bit_for_bit():
    spec = model.ModelSpec(ell=0.3, coeffs={1: 1j, 2: 1.0, 3: 0.5}, omega=0.7)
    rect = model.rectify_model(spec, winding=0)
    r = np.linspace(-4.0, 4.0, 101) - 0.5j
    assert np.array_equal(rect.potential(r), spec.potential(r))
    assert np.array_equal(rect.weight(r), np.ones(101))


def test_rectified_potential_separates_centrifugal():
    # W ell(ell+1)/z^2 = 9 ell(ell+1)/r^2, and the Schwarzian term (9-1)/(4r^2)
    # completes it to L(L+1)/r^2 with L = 3(ell + 1/2) - 1/2
    spec = model.ModelSpec(ell=0.2, coeffs={2: 1.0})
    rect = model.rectify_model(spec, winding=1)
    r = 1.5 - 0.3j
    L = 3 * 0.7 - 0.5
    assert 9 * 0.2 * 1.2 + 2.0 == pytest.approx(L * (L + 1), rel=1e-15)
    expected = L * (L + 1) / r**2 + 9.0 * r**10
    assert rect.potential(r) == pytest.approx(expected, rel=1e-14)


def test_weight_matches_conformal_jacobian_change():
    # the weight is (dz/dr)^2 for the polynomial map z = -i (i r)^q:
    # dz/dr = q (i r)^(q-1), so (dz/dr)^2 = q^2 (i r)^(4N) = q^2 r^(4N)
    spec = model.ModelSpec(ell=0.0, coeffs={2: 1.0})
    rect = model.rectify_model(spec, winding=1)
    r = np.array([0.7 - 0.2j, -1.1 - 0.2j])
    q = 3
    dzdr = q * (1j * r) ** (q - 1)
    assert np.allclose(rect.weight(r), dzdr**2, rtol=1e-12, atol=0.0)


def test_model_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        model.model_from_dict({"epsilon": 1.0, "winding": 0, "mass": 2.0})


def test_model_from_dict_rejects_malformed_coeffs():
    with pytest.raises(ConfigError):
        model.model_from_dict({"epsilon": 1.0, "coeffs": [[2, 1.0]]})
