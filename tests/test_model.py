"""Model definitions and the rectification of potentials."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qtoboggan import contour, model
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


def test_rectify_winding1_cubic_example():
    # (ell, omega^2 z^2 + i z^3) at winding 1: L = 3 ell + 1, exponents
    # 2*3+4 = 10 and 3*3+4 = 13, all coefficients multiplied by 9, weight 9 r^4;
    # the odd power picks up the branch phase (-1)^(N k) = -1.
    ell, omega = 0.2, 1.3
    spec = model.ModelSpec(ell=ell, coeffs={3: 1j}, omega=omega)
    rect = model.rectify_model(spec, winding=1)
    assert rect.L == pytest.approx(3 * ell + 1)
    assert rect.weight_prefactor == 9.0
    assert rect.weight_power == 4
    assert rect.rect_coeffs[Fraction(10)] == pytest.approx(9 * omega**2)
    assert rect.rect_coeffs[Fraction(13)] == pytest.approx(-9j)
    assert rect.pt_flag


def test_rectify_winding2_quadratic_example():
    spec = model.ModelSpec(ell=0.0, coeffs={2: 1.0})
    rect = model.rectify_model(spec, winding=2)
    assert rect.L == pytest.approx(2.0)
    assert rect.weight_prefactor == 25.0
    assert rect.weight_power == 8
    assert set(rect.rect_coeffs) == {Fraction(18)}
    assert rect.rect_coeffs[Fraction(18)] == pytest.approx(25.0 + 0j)


def test_rectify_zero_winding_is_identity_with_unit_weight():
    spec = model.ModelSpec(ell=0.1, coeffs={2: 1.0, 1: 1j})
    rect = model.rectify_model(spec, winding=0)
    assert rect.L == pytest.approx(0.1)
    assert rect.weight_prefactor == 1.0
    assert rect.weight_power == 0
    assert set(rect.rect_coeffs) == {Fraction(1), Fraction(2)}
    assert rect.rect_coeffs[Fraction(1)] == 1j
    assert rect.rect_coeffs[Fraction(2)] == pytest.approx(1.0 + 0j)
    r = np.array([0.3 - 0.5j, -1.2 - 0.5j])
    assert np.allclose(rect.weight(r), 1.0)


def test_rectified_potential_separates_centrifugal():
    spec = model.ModelSpec(ell=0.2, coeffs={2: 1.0})
    rect = model.rectify_model(spec, winding=1)
    r = 1.5 - 0.3j
    expected = rect.L * (rect.L + 1) / r**2 + 9.0 * r**10
    assert rect.potential(r) == pytest.approx(expected)


def test_weight_matches_conformal_jacobian_change():
    # the weight is (dz/dr)^2 for the polynomial map z = -i (i r)^q:
    # dz/dr = q (i r)^(q-1), so (dz/dr)^2 = q^2 (i r)^(4N) = q^2 r^(4N)
    spec = model.ModelSpec(ell=0.0, coeffs={2: 1.0})
    rect = model.rectify_model(spec, winding=1)
    r = np.array([0.7 - 0.2j, -1.1 - 0.2j])
    q = 3
    dzdr = q * (1j * r) ** (q - 1)
    assert np.allclose(rect.weight(r), dzdr**2, rtol=1e-12, atol=0.0)


def _spiral_points(gammas, eps, winding):
    gs = np.asarray(gammas, dtype=float)
    z, _, _ = contour.spiral(gs, eps, 2 * winding + 1)
    return z, gs


def test_wavefunction_pullback_branch_at_center():
    z, gs = _spiral_points([0.0], 0.5, 1)
    out = model.wavefunction_pullback([1.0], z, gs, winding=1)
    # z = -i/8 on the branch arg z = -pi/2: z^(-1/3) = 2 exp(i pi/6)
    assert out[0] == pytest.approx(2.0 * np.exp(1j * math.pi / 6), abs=1e-12)


def test_pullback_pushforward_round_trip():
    z, gs = _spiral_points(np.linspace(-1.2, 1.2, 17), 0.4, 2)
    phi = np.exp(1j * np.linspace(0, 3, 17)) * np.linspace(1, 2, 17)
    psi = model.wavefunction_pullback(phi, z, gs, 2)
    back = model.wavefunction_pushforward(psi, z, gs, 2)
    assert np.allclose(back, phi, rtol=1e-12)


def test_pullback_length_mismatch():
    z, gs = _spiral_points([0.0, 0.1], 0.4, 1)
    with pytest.raises(ConfigError):
        model.wavefunction_pullback([1.0], z, gs, 1)


def test_model_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        model.model_from_dict({"epsilon": 1.0, "winding": 0, "mass": 2.0})


def test_model_from_dict_rejects_malformed_coeffs():
    with pytest.raises(ConfigError):
        model.model_from_dict({"epsilon": 1.0, "coeffs": [[2, 1.0]]})
