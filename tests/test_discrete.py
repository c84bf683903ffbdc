"""Grid discretization: operator assembly, parity residual, matrix IO."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from qtoboggan import cli, discrete, model
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
    assert np.allclose(np.diag(pair.w_diag), np.eye(3))


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize(
    "name", ["harmonic_line", "cubic_winding1", "toboggan_branch", "harmonic_toboggan"]
)
def test_unit_weight_holds_exactly_at_winding_0(name):
    # the one place the solve, the filter and the metric learn that W = I
    config = cli.load_config(os.path.join(CONFIGS, f"{name}.json"), ["grid.n=60"])
    for winding in sorted({0, config.contour.winding}):
        rect = model.rectify_model(config.model, winding)
        pair = discrete.build_operators(rect, config.grid)
        assert pair.unit_weight == (winding == 0)
        if winding == 0:  # 1 + 0j to the last bit
            assert np.all(pair.s == 1.0) and np.all(pair.w_diag == 1.0)


@pytest.mark.parametrize("winding", [0, 1, 2])
def test_s_is_the_square_root_of_w_without_a_branch_cut(winding):
    # s = dz/dr is a polynomial: s^2 = W and P s = conj(s) to rounding at
    # every grid point, while the principal sqrt(W) is s on part of the grid
    # and -s on the rest
    pair = _pair(model.ModelSpec(coeffs={3: 1j}, omega=1.0), winding, 2.2, 300, 0.15)
    s, w = pair.s, pair.w_diag
    if winding == 0:
        assert np.all(s == 1.0)
        return
    assert np.abs(s * s - w).max() <= 4 * np.finfo(float).eps * np.abs(w).max()
    assert np.abs(s[::-1] - s.conj()).max() <= 4 * np.finfo(float).eps * np.abs(s).max()
    flipped = np.isclose(np.sqrt(w), -s, rtol=1e-12, atol=0)
    assert flipped.any() and not flipped.all()


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
    for n in (400.5, 400.0, True):
        with pytest.raises(ConfigError):
            discrete.GridSpec(half_width=3.0, n=n, epsilon=0.1)


def test_zero_shift_with_centrifugal_rejected():
    spec = model.ModelSpec(ell=0.3, coeffs={2: 1.0})
    with pytest.raises(ConfigError):
        _pair(spec, 0, 5.0, 21, 0.0)


def test_zero_shift_at_nonzero_winding_rejected():
    # at ell = 0 the rectified potential still carries the Schwarzian term
    # ((2N+1)^2 - 1)/(4 r^2), and W = (2N+1)^2 r^(4N) vanishes at r = 0
    spec = model.ModelSpec(ell=0.0, coeffs={3: 1j}, omega=1.0)
    for winding in (1, 2):
        with pytest.raises(ConfigError):
            _pair(spec, winding, 5.0, 20, 0.0)


def test_parity_is_reversal_and_involution():
    grid = discrete.GridSpec(half_width=5.0, n=11, epsilon=0.5)
    pair = discrete.build_operators(model.rectify_model(model.ModelSpec(coeffs={2: 1.0}), 0), grid)
    # reversing the grid index maps x to -x: the reversal is the parity
    x = grid.x
    assert np.allclose(x[::-1], -x, rtol=0, atol=1e-14)
    # as a matrix it is an involution, and P H P reverses both axes of H
    P = np.eye(pair.n)[::-1]
    assert np.array_equal(P @ P, np.eye(pair.n))
    assert np.array_equal(P @ pair.H @ P, pair.H[::-1, ::-1])


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
    # a random complex-symmetric H and a random complex weight besides two models
    rng = np.random.default_rng(7)
    diag, off, w = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (9, 8, 9))
    for pair in [
        _pair(model.ModelSpec(coeffs={3: 1j}, omega=1.0), 1, 3.0, 41, 0.4),
        _pair(model.ModelSpec(coeffs={3: 1.0}), 0, 3.0, 41, 0.4),
        discrete.OperatorPair(diag=diag, off=off, w_diag=w, s=np.sqrt(w)),
    ]:
        H, W, P = pair.H, np.diag(pair.w_diag), np.eye(pair.n)[::-1]
        assert np.array_equal(P @ H @ P, H[::-1, ::-1])
        dH = np.linalg.norm(P @ H @ P - H.conj().T)
        dW = np.linalg.norm(P @ W @ P - W.conj().T)
        reference = max(dH, dW) / (np.linalg.norm(H) + np.linalg.norm(W))
        # the banded norms sum the same entries in another order
        assert discrete.pt_residual(pair) == pytest.approx(reference, rel=1e-14, abs=0)


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


@pytest.mark.parametrize(
    "damage",
    [lambda b: b[:20], lambda b: b[:-8], lambda b: b + b"\x00"],
    ids=["short-header", "short-payload", "trailing-bytes"],
)
def test_matrix_bin_damaged_file_is_config_error(tmp_path, damage):
    path = tmp_path / "m.bin"
    discrete.save_matrix_bin(np.eye(3, dtype=complex), str(path), h=0.25, epsilon=0.5)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ConfigError):
        discrete.load_matrix_bin(str(path))


@pytest.mark.parametrize("shape", [(2**40, 2**10), (2**33, 2**33)], ids=["memory", "overflow"])
def test_matrix_bin_header_larger_than_the_file_is_config_error(tmp_path, shape):
    # a 68-byte file whose header promises 2^50 or 2^66 entries: the size check
    # answers before any allocation (MemoryError, OverflowError unchecked)
    path = tmp_path / "crafted.bin"
    path.write_bytes(b"QTBM" + struct.pack("<QQdd", *shape, 0.25, 0.5) + b"\x00" * 32)
    with pytest.raises(ConfigError, match="payload"):
        discrete.load_matrix_bin(str(path))


def test_matrix_bin_load_reads_into_one_array(tmp_path):
    # the payload lands in the returned array: no bytes object, no dtype copy
    A = np.arange(300 * 300).reshape(300, 300) * (1.0 + 0.5j)
    path = tmp_path / "m.bin"
    discrete.save_matrix_bin(A, str(path), h=0.25, epsilon=0.5)
    tracemalloc.start()
    try:
        B, _, _ = discrete.load_matrix_bin(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(A, B) and B.dtype == np.complex128 and B.flags.writeable
    assert peak <= 1.2 * A.nbytes


def _band_matmul_unblocked(diag, off, X):
    """H @ X in one pass over X, the formula band_matmul blocks."""
    Y = diag[:, np.newaxis] * X
    Y[:-1] += off[:, np.newaxis] * X[1:]
    Y[1:] += off[:, np.newaxis] * X[:-1]
    return Y


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("view", ["plain", "transposed", "reversed"])
def test_blocked_band_matmul_is_bitwise_the_unblocked_formula(dtype, view):
    # n not a multiple of the block, so the last block is narrower
    n = 3 * discrete.BLOCK + 5
    rng = np.random.default_rng(4)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    diag, off, X = draw(n), draw(n - 1), draw(n, n)
    X = {"plain": X, "transposed": X.T, "reversed": X[::-1]}[view]
    want = _band_matmul_unblocked(diag, off, X)
    got = discrete.band_matmul(diag, off, X)
    # same bits in the same memory order, which column reductions depend on
    assert got.tobytes() == want.tobytes()
    assert got.flags.f_contiguous == want.flags.f_contiguous
    # added into a transposed, row-reversed view in place; negated diagonals subtract
    D = draw(n, n)
    for sign in (1.0, -1.0):
        expected = D.copy()
        if sign > 0:
            expected.T[::-1] += want
        else:
            expected.T[::-1] -= want
        out = D.copy()
        assert discrete.band_matmul(sign * diag, sign * off, X, out=out.T[::-1]).base is out
        assert out.tobytes() == expected.tobytes()
