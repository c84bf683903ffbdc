"""Grid discretization: operator assembly, parity residual, matrix IO."""

import numpy as np
import pytest

from qtoboggan import discrete, model
from qtoboggan.errors import ConfigError


def _pair(spec, winding, X, n, eps):
    rect = model.rectify_model(spec, winding)
    return discrete.build_operators(rect, discrete.GridSpec(half_width=X, n=n, epsilon=eps))


def test_free_laplacian_instance():
    # V = 0, W = 1, n = 3, X = 2 gives h = 1 and the plain tridiagonal stencil
    rect = model.rectify_model(model.ModelSpec(), winding=0)
    grid = discrete.GridSpec(half_width=2.0, n=3, epsilon=0.0)
    assert grid.h == pytest.approx(1.0)
    pair = discrete.build_operators(rect, grid)
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.allclose(pair.H, expected)
    assert np.allclose(pair.W, np.eye(3))


def test_grid_geometry():
    grid = discrete.GridSpec(half_width=3.0, n=5, epsilon=0.25)
    assert grid.h == pytest.approx(1.0)
    assert np.allclose(grid.x, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert np.allclose(grid.r, grid.x - 0.25j)
    # symmetric so the reversal is an exact parity
    assert np.allclose(grid.x, -grid.x[::-1])


def test_grid_validation():
    with pytest.raises(ConfigError):
        discrete.GridSpec(half_width=3.0, n=2, epsilon=0.1)
    with pytest.raises(ConfigError):
        discrete.GridSpec(half_width=0.0, n=5, epsilon=0.1)
    with pytest.raises(ConfigError):
        discrete.GridSpec(half_width=3.0, n=5, epsilon=-0.1)


def test_zero_shift_with_centrifugal_rejected():
    spec = model.ModelSpec(ell=0.3, coeffs={2: 1.0})
    with pytest.raises(ConfigError):
        _pair(spec, 0, 5.0, 21, 0.0)


def test_parity_is_reversal_and_involution():
    pair = _pair(model.ModelSpec(coeffs={2: 1.0}), 0, 5.0, 11, 0.5)
    assert np.allclose(pair.P @ pair.P, np.eye(11))
    v = np.arange(11.0)
    assert np.allclose(pair.P @ v, v[::-1])


def test_pt_residual_zero_for_pt_models():
    for spec, winding in [
        (model.ModelSpec(coeffs={2: 1.0}), 0),
        (model.ModelSpec(coeffs={2: 1.0, 1: 1j}), 0),
        (model.ModelSpec(coeffs={3: 1j}, omega=1.0), 1),
        (model.ModelSpec(ell=0.3, coeffs={2: 1.0}), 0),
    ]:
        pair = _pair(spec, winding, 3.0, 41, 0.4)
        assert discrete.pt_residual(pair) < 1e-12


def test_pt_residual_flags_non_pt_models():
    pair = _pair(model.ModelSpec(coeffs={3: 1.0}), 0, 3.0, 41, 0.4)
    assert discrete.pt_residual(pair) > 1e-3


def test_pt_residual_equals_dense_parity_reference():
    for spec, winding in [
        (model.ModelSpec(coeffs={3: 1j}, omega=1.0), 1),
        (model.ModelSpec(coeffs={3: 1.0}), 0),
    ]:
        pair = _pair(spec, winding, 3.0, 41, 0.4)
        H, W, P = pair.H, pair.W, np.eye(pair.n)[::-1]
        assert np.array_equal(P @ H @ P, H[::-1, ::-1])
        dH = np.linalg.norm(P @ H @ P - H.conj().T)
        dW = np.linalg.norm(P @ W @ P - W.conj().T)
        reference = max(dH, dW) / (np.linalg.norm(H) + np.linalg.norm(W))
        assert discrete.pt_residual(pair) == reference


def test_weight_condition_and_diag():
    pair = _pair(model.ModelSpec(coeffs={3: 1j}, omega=1.0), 1, 2.2, 51, 0.15)
    d = np.abs(pair.w_diag)
    assert pair.weight_condition == pytest.approx(d.max() / d.min())
    assert pair.weight_condition > 1.0
    # weight 9 r^4 at the center |r| = eps
    assert d.min() == pytest.approx(9.0 * 0.15**4, rel=1e-6)


def test_matrix_bin_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    path = tmp_path / "m.bin"
    discrete.save_matrix_bin(A, str(path), h=0.25, epsilon=0.5)
    B, h, eps = discrete.load_matrix_bin(str(path))
    assert np.array_equal(A, B)
    assert (h, eps) == (0.25, 0.5)
    assert (tmp_path / "m.bin.txt").exists()


def test_matrix_bin_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 48)
    with pytest.raises(ConfigError):
        discrete.load_matrix_bin(str(path))
