"""Property-based invariants for the geometry, the exponent arithmetic,
the banded operator products, the tridiagonal LU, the real-basis eigensolve
of PT-symmetric pairs, and the rescaling freedom."""

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from conftest import rectification_residual
from hypothesis import given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import linear_sum_assignment

from qtoboggan import contour, discrete, model, shoot, spectra
from qtoboggan.errors import DegeneratePairing

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


@given(epsilons, st.lists(gammas, min_size=1, max_size=20))
def test_zero_winding_spiral_is_the_line(eps, gs):
    # the winding-0 spiral is its own rectified partner, x - i*eps
    z = _z(gs, eps, 0)
    assert np.allclose(z, eps * np.tan(gs) - 1j * eps, rtol=1e-12, atol=1e-12 * eps)


@given(epsilons, windings, st.lists(gammas, min_size=1, max_size=20))
def test_grid_map_and_weight_trace_the_spiral(eps, N, gs):
    # the line point r = eps tan(gamma) - i eps maps onto the spiral point of
    # the same gamma, and the grid's weight is (dz/dr)^2 along that spiral,
    # with dz/dr = zdot / (dr/dgamma) and dr/dgamma = eps sec^2(gamma)
    gs = np.asarray(gs, dtype=float)
    z, zdot, _ = contour.spiral(gs, eps, 2 * N + 1)
    r = eps * np.tan(gs) - 1j * eps
    assert np.allclose(contour.unrectify(r, N), z, rtol=1e-12, atol=0.0)
    dzdr = zdot * np.cos(gs) ** 2 / eps
    weight = model.rectify_model(model.ModelSpec(), N).weight(r)
    assert np.allclose(weight, dzdr**2, rtol=1e-12, atol=0.0)


@given(epsilons, windings, gammas)
def test_spiral_polar_form(eps, N, gamma):
    z = _z([gamma], eps, N)[0]
    q = 2 * N + 1
    rho = eps / np.cos(gamma)
    assert abs(z) == pytest.approx(rho**q, rel=1e-12)
    # the branch of i*z advances by q*gamma
    assert np.angle(1j * z * np.exp(-1j * q * gamma)) == pytest.approx(0.0, abs=1e-10)


@given(ells, windings)
def test_centrifugal_strength_is_affine_in_ell(ell, N):
    # W ell(ell+1)/z^2 plus the Schwarzian term is L(L+1)/r^2 with
    # L = q(ell + 1/2) - 1/2, so one more unit of ell moves L by q
    q = 2 * N + 1
    r = np.array([0.7 - 0.3j, -1.4 - 0.3j, 2.1 - 0.3j])

    def strength(l):
        return r**2 * model.rectify_model(model.ModelSpec(ell=l), N).potential(r)

    L = q * (ell + 0.5) - 0.5
    assert np.allclose(strength(ell), L * (L + 1), rtol=1e-13, atol=1e-15)
    assert np.allclose(strength(ell + 1.0), (L + q) * (L + q + 1), rtol=1e-13, atol=0)
    if ell == 0.0:
        assert np.allclose(strength(ell), N * (N + 1), rtol=1e-13, atol=0)


@given(st.dictionaries(powers, coeff_vals, min_size=1, max_size=4), windings)
def test_exponent_arithmetic(coeffs, N):
    # the weight is q^2 r^(4N), and each term c_k z^k alone pulls back to
    # (-1)^(N k) q^2 c_k r^(kq+4N) next to the Schwarzian term
    q = 2 * N + 1
    r = np.array([0.9 - 0.2j, -1.3 - 0.2j, 0.4 - 0.2j])
    schwarzian = (q * q - 1) / (4 * r**2)
    for k, c in coeffs.items():
        rect = model.rectify_model(model.ModelSpec(coeffs={k: c}), N)
        term = (-1) ** (N * k) * q * q * c * r ** (k * q + 4 * N)
        scale = np.abs(schwarzian) + np.abs(term)
        assert np.all(np.abs(rect.potential(r) - schwarzian - term) <= 1e-14 * scale)
    assert np.allclose(rect.weight(r), q * q * r ** (4 * N), rtol=1e-15, atol=0)


@given(
    st.dictionaries(powers, coeff_vals, min_size=1, max_size=4),
    windings,
    ells,
    st.lists(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False),
        min_size=1, max_size=8,
    ),
)
def test_rectified_potential_is_the_image_of_the_spiral_one(coeffs, N, ell, rs):
    # V_rect(r), computed through z(r), against its closed form term by term;
    # losing the branch phase (-1)^(N k) breaks it whenever N k is odd
    spec = model.ModelSpec(ell=ell, coeffs=coeffs, omega=0.0)
    assert rectification_residual(spec, N, np.array(rs)) < 1e-14


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


entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _assert_product(got, A, B):
    """got equals A @ B to the rounding of a 3-term sum, eps-multiples of |A| @ |B|."""
    bound = 8 * np.finfo(float).eps * (np.abs(A) @ np.abs(B)) + 1e-290
    assert np.all(np.abs(got - A @ B) <= bound)


@given(data=st.data(), n=st.integers(min_value=2, max_value=12))
def test_banded_products_match_dense(data, n):
    diag = data.draw(hnp.arrays(complex, n, elements=entries))
    off = data.draw(hnp.arrays(complex, n - 1, elements=entries))
    w = data.draw(hnp.arrays(complex, n, elements=coeff_vals))
    X = data.draw(hnp.arrays(complex, (n, 3), elements=entries))
    pair = discrete.OperatorPair(diag=diag, off=off, w_diag=w)
    H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.array_equal(pair.H, H)
    assert np.array_equal(pair.W, np.diag(w))
    # ||H||_F over the (1, 1) band storage, zero corners included
    assert pair.H_norm == np.linalg.norm(np.array([0.0, *off, *diag, *off, 0.0]))
    assert pair.H_norm == pytest.approx(np.linalg.norm(H), rel=1e-14)
    for Y in (X[:, 0], X):
        _assert_product(discrete.band_matmul(diag, off, Y), H, Y)
        _assert_product(discrete.band_matmul(diag.conj(), off.conj(), Y), H.conj().T, Y)
        # Y^T H through H = H^T, as the metric forms Theta H
        _assert_product(discrete.band_matmul(diag, off, Y).T, Y.T, H)


@given(data=st.data(), n=st.integers(min_value=2, max_value=24))
@settings(deadline=None)
def test_pt_real_basis_matches_complex_eigensolve(data, n):
    # P H P = conj(H): real off-diagonals mirrored by P, an even real and an
    # odd imaginary diagonal part (each exact in floating point)
    vals = hnp.arrays(float, n, elements=st.floats(min_value=-10.0, max_value=10.0))
    a, b = data.draw(vals), data.draw(vals)
    mags = data.draw(hnp.arrays(float, n - 1, elements=st.floats(min_value=0.1, max_value=10.0)))
    signs = data.draw(hnp.arrays(bool, n - 1))
    off = np.where(signs, mags, -mags)
    off[n // 2:] = off[: (n - 1) // 2][::-1]  # palindromic, so P maps H = H^T onto conj(H)
    diag = (a + a[::-1]) + 1j * (b - b[::-1])
    pair = discrete.OperatorPair(
        diag=diag, off=off.astype(complex), w_diag=np.ones(n, dtype=complex), pt_symmetric=True
    )
    H = pair.H
    assert np.array_equal(H[::-1, ::-1], H.conj()) and np.array_equal(H, H.T)
    eps = np.finfo(float).eps
    U = (np.eye(n) + 1j * np.eye(n)[::-1]) / np.sqrt(2.0)
    A = spectra._pt_real_form(pair)
    assert np.abs(U.conj().T @ H @ U - A).max() <= 8 * eps * np.abs(H).max()

    try:
        es = spectra.solve_generalized(pair, tol=1e-12)
    except DegeneratePairing:
        reject()
    lam_c, VL, VR = scipy.linalg.eig(H, left=True, right=True)
    _, match = linear_sum_assignment(np.abs(es.lambdas[:, None] - lam_c[None, :]))
    lam_c, VL, VR = lam_c[match], VL[:, match], VR[:, match]
    # a backward-stable eigensolve is exact for H + E with ||E|| ~ n eps ||H||;
    # that moves lambda_j by kappa_j ||E|| and the ket of j by
    # sum_k kappa_k ||E|| / |lambda_j - lambda_k| (first order), with
    # kappa_j = 1 / |sigma_j| for the unit columns solve_generalized returns
    backward = 10 * n * eps * np.linalg.norm(H)
    kappa = 1.0 / np.abs(es.sigmas)
    shift = backward * kappa
    assert np.all(np.abs(es.lambdas - lam_c) <= shift)
    assert es.residual_right.max() <= backward
    assert es.residual_left.max() <= backward
    gaps = np.abs(es.lambdas[:, None] - es.lambdas[None, :])
    np.fill_diagonal(gaps, np.inf)
    ket_shift = backward * (kappa[np.newaxis, :] / gaps).sum(axis=1)
    sigma_c = np.abs(np.einsum("ij,ij->j", VL.conj(), VR)) / (
        np.linalg.norm(VL, axis=0) * np.linalg.norm(VR, axis=0)
    )
    assert np.all(np.abs(np.abs(es.sigmas) - sigma_c) <= 2 * ket_shift)

    # A is real, so its spectrum is closed under conjugation exactly; a mode
    # the complex solve places within `shift` of the real axis, with no other
    # eigenvalue within 6 * shift (room for a conjugate partner), is real
    assert np.array_equal(np.sort_complex(es.lambdas), np.sort_complex(es.lambdas.conj()))
    others = np.abs(lam_c[:, None] - lam_c[None, :])
    np.fill_diagonal(others, np.inf)
    real = (np.abs(lam_c.imag) <= shift) & (others.min(axis=1) > 6 * shift)
    assert np.all(es.lambdas.imag[real] == 0.0)


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


@given(
    st.integers(min_value=2, max_value=60).flatmap(
        lambda n: st.tuples(
            hnp.arrays(float, n, elements=st.floats(-1e6, 1e6, allow_nan=False)),
            st.floats(-10.0, 10.0, allow_nan=False),
            hnp.arrays(float, n - 1, elements=st.floats(0.0, 1e3, allow_nan=False)),
        )
    )
)
def test_cumulative_trapezoid_matches_scipy_exactly(args):
    y, start, steps = args
    x = np.concatenate(([start], start + np.cumsum(steps)))
    ours = shoot._cumulative_trapezoid(y, x)
    ref = cumulative_trapezoid(y, x, initial=0.0)
    assert ours.dtype == ref.dtype
    assert np.array_equal(ours, ref)


@given(data=st.data(), n=st.integers(min_value=3, max_value=40))
def test_tridiagonal_lu_matches_solve_banded(data, n):
    # a complex-symmetric tridiagonal with entries of modulus 0.5-2 and the
    # off-diagonal scaled by 1e-2, 1 or 1e2 per column; column 0 is forced to
    # pivot on the subdiagonal and column 1 (whose updated diagonal is then
    # ~off[0]) on the diagonal, so every draw takes both branches
    mods = data.draw(hnp.arrays(float, (2, n), elements=st.floats(0.5, 2.0)))
    phases = data.draw(hnp.arrays(float, (2, n), elements=st.floats(0.0, 2 * np.pi)))
    scales = data.draw(hnp.arrays(float, n - 1, elements=st.sampled_from([1e-2, 1.0, 1e2])))
    scales[:2] = 1e2, 1e-2
    diag, off = mods * np.exp(1j * phases)
    off = off[:-1] * scales
    B = data.draw(hnp.arrays(complex, (n, 3), elements=coeff_vals))

    mult, udiag, sup, sup2, swapped = lu = spectra._tridiagonal_lu(diag, off)
    assert swapped[0] and not swapped[1]
    # the same row interchanges and factors as LAPACK's zgttrf
    ref_lu = scipy.linalg.lapack.zgttrf(off, diag, off)
    assert ref_lu[-1] == 0
    assert np.array_equal(ref_lu[4][:-1] != np.arange(1, n), swapped)
    for ours, ref in zip((mult, udiag, sup[:-1], sup2[:-2]), ref_lu[:4]):
        assert np.linalg.norm(np.array(ours) - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = scipy.linalg.solve_banded((1, 1), np.array([[0, *off], diag, [*off, 0]]), B)
    reused = np.column_stack([spectra._tridiagonal_solve(lu, B[:, j]) for j in range(3)])
    assert np.linalg.norm(reused - ref) <= 1e-12 * np.linalg.norm(ref)
    for j in range(3):
        fresh = spectra._tridiagonal_solve(spectra._tridiagonal_lu(diag, off), B[:, j])
        assert np.array_equal(reused[:, j], fresh)
