"""Property-based invariants for the geometry, the exponent arithmetic,
and the rescaling freedom."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtoboggan import contour, model, spectra

windings = st.integers(min_value=0, max_value=3)
epsilons = st.floats(min_value=0.05, max_value=2.0, allow_nan=False)
gammas = st.floats(min_value=-1.45, max_value=1.45, allow_nan=False)
ells = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
powers = st.integers(min_value=1, max_value=6)
coeff_vals = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def _z(gs, eps, N):
    z, _, _ = contour.spiral(np.asarray(gs, dtype=float), eps, 2 * N + 1)
    return z


@given(epsilons, windings, st.lists(gammas, min_size=1, max_size=20))
def test_rectify_round_trip(eps, N, gs):
    expect = _z(gs, eps, N)
    r = contour.rectify(expect, gs, N)
    z = contour.unrectify(r, N)
    assert np.allclose(z, expect, rtol=1e-12, atol=0.0)


@given(epsilons, st.lists(gammas, min_size=1, max_size=20))
def test_zero_winding_spiral_is_the_line(eps, gs):
    # the winding-0 spiral is its own rectified partner, x - i*eps
    z = _z(gs, eps, 0)
    assert np.allclose(z, eps * np.tan(gs) - 1j * eps, rtol=1e-12, atol=1e-12 * eps)
    assert np.allclose(contour.rectify(z, gs, 0), z, rtol=1e-12, atol=0.0)


@given(epsilons, windings, gammas)
def test_spiral_polar_form(eps, N, gamma):
    z = _z([gamma], eps, N)[0]
    q = 2 * N + 1
    rho = eps / np.cos(gamma)
    assert abs(z) == pytest.approx(rho**q, rel=1e-12)
    # the branch of i*z advances by q*gamma
    assert np.angle(1j * z * np.exp(-1j * q * gamma)) == pytest.approx(0.0, abs=1e-10)


@given(epsilons, windings, st.floats(min_value=1e-4, max_value=0.3, allow_nan=False))
def test_arg_span_scales_with_winding_degree(eps, N, margin):
    spec = contour.ContourSpec(epsilon=eps, winding=N)
    span = contour.winding_arg_span(spec, margin=margin)
    assert span == pytest.approx((2 * N + 1) * (np.pi - 2 * margin), abs=1e-6)


@given(ells, windings)
def test_centrifugal_strength_is_affine_in_ell(ell, N):
    q = 2 * N + 1
    spec = model.ModelSpec(ell=ell, coeffs={2: 1.0}, omega=0.0)
    rect = model.rectify_model(spec, N)
    assert rect.L == pytest.approx(q * (ell + 0.5) - 0.5, rel=1e-12)
    bumped = model.rectify_model(model.ModelSpec(ell=ell + 1.0, coeffs={2: 1.0}, omega=0.0), N)
    assert bumped.L - rect.L == pytest.approx(q, rel=1e-12)
    if ell == 0.0:
        assert rect.L == N


@given(st.dictionaries(powers, coeff_vals, min_size=1, max_size=4), windings)
def test_exponent_arithmetic(coeffs, N):
    q = 2 * N + 1
    spec = model.ModelSpec(ell=0.0, coeffs=coeffs, omega=0.0)
    rect = model.rectify_model(spec, N)
    assert rect.weight_power == 4 * N
    assert rect.weight_prefactor == q * q
    assert {int(p) for p in rect.rect_coeffs} == {k * q + 4 * N for k in coeffs}
    for k, c in coeffs.items():
        assert rect.rect_coeffs[k * q + 4 * N] == pytest.approx(c * q * q, rel=1e-12)


@given(st.dictionaries(powers, coeff_vals, min_size=1, max_size=4), windings)
def test_conventions_differ_only_at_odd_products(coeffs, N):
    spec = model.ModelSpec(ell=0.0, coeffs=coeffs, omega=0.0)
    printed = model.rectify_model(spec, N, convention="printed").rect_coeffs
    mech = model.rectify_model(spec, N, convention="mechanical").rect_coeffs
    q = 2 * N + 1
    for k in coeffs:
        p = k * q + 4 * N
        if (N * k) % 2:
            assert mech[p] == pytest.approx(-printed[p], rel=1e-12)
        else:
            assert mech[p] == pytest.approx(printed[p], rel=1e-12)


@given(
    st.lists(powers, min_size=1, max_size=4, unique=True),
    st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
             min_size=4, max_size=4),
    windings,
)
def test_balanced_models_stay_balanced_under_rectification(ks, vals, N):
    # even powers with real coefficients, odd powers with imaginary ones:
    # the parity-time balance survives the winding map
    coeffs = {}
    for j, k in enumerate(ks):
        mag = vals[j % len(vals)] or 1.0
        coeffs[k] = complex(mag, 0.0) if k % 2 == 0 else complex(0.0, mag)
    spec = model.ModelSpec(ell=0.0, coeffs=coeffs, omega=0.0)
    assert spec.pt_flag
    assert model.rectify_model(spec, N).pt_flag


@given(
    epsilons,
    windings,
    st.lists(gammas, min_size=1, max_size=12),
    st.lists(coeff_vals, min_size=12, max_size=12),
)
def test_pullback_pushforward_identity(eps, N, gs, phis):
    z = _z(gs, eps, N)
    phi = np.array(phis[: len(z)])
    psi = model.wavefunction_pullback(phi, z, gs, N)
    back = model.wavefunction_pushforward(psi, z, gs, N)
    assert np.allclose(back, phi, rtol=1e-12, atol=1e-300)


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_rescaling_moves_gram_predictably(harmonic_small, data):
    pair, es_full, es_sub = harmonic_small
    m = es_sub.m
    mags = data.draw(
        st.lists(st.floats(min_value=0.3, max_value=3.0), min_size=m, max_size=m)
    )
    phases = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=6.28), min_size=m, max_size=m)
    )
    kappa = np.array(mags) * np.exp(1j * np.array(phases))
    es_k = spectra.apply_kappa(es_sub, kappa)
    gram_k = es_k.left.conj().T @ (pair.W @ es_k.right)
    predicted = (kappa[:, None] / kappa[None, :]) * es_sub.gram
    assert np.abs(gram_k - predicted).max() < 1e-11
    assert np.array_equal(es_k.lambdas, es_sub.lambdas)


@given(
    ells,
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    st.dictionaries(powers, coeff_vals, min_size=0, max_size=3),
    windings,
    epsilons,
)
def test_model_payload_round_trip(ell, omega, coeffs, N, eps):
    payload = {
        "ell": ell,
        "omega": omega,
        "coeffs": [[k, c.real, c.imag] for k, c in sorted(coeffs.items())],
        "winding": N,
        "epsilon": eps,
    }
    spec, cs = model.model_from_dict(payload)
    assert spec.ell == ell and spec.omega == omega
    assert cs.winding == N and cs.epsilon == eps
    assert spec.coeffs == {k: complex(c) for k, c in coeffs.items()}
