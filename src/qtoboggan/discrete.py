"""Uniform-grid discretization of the rectified problem on the shifted line.

Produces dense complex matrices: H (3-point Laplacian plus rectified
potential, Dirichlet ends), the diagonal weight W, and the exact index
reversal P.  The grid is symmetric about x = 0 so that P is an exact
permutation and PT identities are checkable to machine precision.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError
from .model import RectifiedModel

__all__ = [
    "GridSpec",
    "OperatorPair",
    "build_operators",
    "pt_residual",
    "save_matrix_bin",
    "load_matrix_bin",
]

_MAGIC = b"QTBM"


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform grid: x_j = -X + j*h for j = 1..n with h = 2X/(n+1)."""

    half_width: float
    n: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ConfigError(f"grid needs n >= 3 interior points, got {self.n}")
        if not (self.half_width > 0):
            raise ConfigError(f"half_width must be positive, got {self.half_width}")
        if not (self.epsilon >= 0):
            raise ConfigError(f"epsilon must be non-negative, got {self.epsilon}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n + 1)

    @property
    def x(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(1, self.n + 1)

    @property
    def r(self) -> np.ndarray:
        """Grid points on the shifted line r_j = x_j - i*epsilon."""
        return self.x - 1j * self.epsilon


@dataclass(frozen=True)
class OperatorPair:
    """Dense operators of the generalized eigenproblem H psi = E W psi."""

    H: np.ndarray
    W: np.ndarray
    P: np.ndarray
    gridspec: GridSpec

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def w_diag(self) -> np.ndarray:
        return np.diag(self.W)

    @property
    def weight_condition(self) -> float:
        d = np.abs(self.w_diag)
        return float(d.max() / d.min())


def build_operators(model: RectifiedModel, grid: GridSpec) -> OperatorPair:
    """Assemble H, W, P for a rectified model on a grid.

    H = (-1/h^2) tridiag(1, -2, 1) + diag(V_rect(r_j)) with Dirichlet ends;
    W_jj = weight_prefactor * r_j^weight_power; P is the index reversal.
    """
    if grid.n < 3:
        raise ConfigError("n < 3")
    has_negative_power = model.has_centrifugal or any(p < 0 for p in model.rect_coeffs)
    if grid.epsilon == 0.0 and has_negative_power:
        raise ConfigError(
            "epsilon = 0 with a centrifugal or negative-power term samples the singularity"
        )
    n, h = grid.n, grid.h
    r = grid.r
    H = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    H[idx, idx] = 2.0 / h**2 + model.potential(r)
    H[idx[:-1], idx[:-1] + 1] = -1.0 / h**2
    H[idx[:-1] + 1, idx[:-1]] = -1.0 / h**2
    W = np.diag(model.weight(r))
    wd = np.diag(W)
    if np.any(wd == 0) or not np.all(np.isfinite(wd)):
        raise ConfigError("weight matrix is singular or non-finite on this grid")
    P = np.eye(n)[::-1].copy()
    return OperatorPair(H=H, W=W, P=P, gridspec=grid)


def pt_residual(pair: OperatorPair) -> float:
    """Parity pseudo-Hermiticity defect of the discretized pair.

    max(||P H P - H^dag||_F, ||P W P - W^dag||_F) / (||H||_F + ||W||_F);
    P is the index reversal, so P X P reverses both axes of X.
    """
    H, W = pair.H, pair.W
    dH = np.linalg.norm(H[::-1, ::-1] - H.conj().T)
    dW = np.linalg.norm(W[::-1, ::-1] - W.conj().T)
    return float(max(dH, dW) / (np.linalg.norm(H) + np.linalg.norm(W)))


def save_matrix_bin(A: np.ndarray, path: str, h: float, epsilon: float) -> None:
    """Dump a dense complex matrix in the documented binary layout.

    Layout (little-endian): 4-byte magic 'QTBM', uint64 rows, uint64 cols,
    float64 h, float64 epsilon, then row-major complex128 payload.  A text
    sidecar '<path>.txt' mirrors the header for human readers.
    """
    A = np.ascontiguousarray(np.asarray(A, dtype=np.complex128))
    rows, cols = A.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQdd", rows, cols, float(h), float(epsilon)))
        fh.write(A.astype("<c16").tobytes(order="C"))
    with open(path + ".txt", "w", encoding="utf-8") as fh:
        fh.write(
            "qtoboggan matrix dump\n"
            f"rows: {rows}\ncols: {cols}\nh: {h!r}\nepsilon: {epsilon!r}\n"
            "payload: row-major complex128 little-endian after a 36-byte header\n"
            "header: magic 'QTBM', uint64 rows, uint64 cols, float64 h, float64 epsilon\n"
        )


def load_matrix_bin(path: str) -> Tuple[np.ndarray, float, float]:
    """Read a matrix written by save_matrix_bin; returns (A, h, epsilon)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}")
        rows, cols, h, epsilon = struct.unpack("<QQdd", fh.read(32))
        payload = fh.read(rows * cols * 16)
    A = np.frombuffer(payload, dtype="<c16").reshape(rows, cols).astype(np.complex128)
    return A, h, epsilon
