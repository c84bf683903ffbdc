"""Uniform-grid discretization of the rectified problem on the shifted line.

The pencil H psi = E W psi keeps its structure: H (3-point Laplacian plus
rectified potential, Dirichlet ends) is held as its three bands, the weight W
as its diagonal, and parity P is the index reversal.  Dense matrices are
built only on request.  The grid is symmetric about x = 0 so that P is an
exact permutation and PT identities are checkable to machine precision.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, require_int
from .model import RectifiedModel

__all__ = [
    "GridSpec",
    "OperatorPair",
    "build_operators",
    "band_matmul",
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
        require_int("grid n", self.n)
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


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """The generalized eigenproblem H psi = E W psi in its grid structure.

    `bands` holds the tridiagonal H in the (1, 1) band layout, column j of H
    in column j of `bands` (bands[k, j] = H[j - 1 + k, j]): row 0 the
    superdiagonal, row 1 the diagonal, row 2 the subdiagonal; the unused
    corners bands[0, 0] and bands[2, -1] are zero.  `w_diag` is the
    diagonal of W.  `pt_symmetric` is the model's PT balance carried onto the
    grid: P H P = conj(H) and P W P = conj(W) hold by construction (real
    even and imaginary odd coefficients on a grid symmetric about x = 0), so
    the eigensolver may rely on it without testing the bands.
    """

    bands: np.ndarray
    w_diag: np.ndarray
    pt_symmetric: bool = False

    @property
    def n(self) -> int:
        return self.bands.shape[1]

    @property
    def H(self) -> np.ndarray:
        """Dense H, built on each access."""
        n = self.n
        H = np.diag(self.bands[1])
        H.flat[1::n + 1] = self.bands[0, 1:]
        H.flat[n::n + 1] = self.bands[2, :-1]
        return H

    @property
    def W(self) -> np.ndarray:
        """Dense W, built on each access."""
        return np.diag(self.w_diag)

    @property
    def weight_condition(self) -> float:
        d = np.abs(self.w_diag)
        return float(d.max() / d.min())


def band_matmul(bands: np.ndarray, X: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """H @ X, or H^dag @ X when `adjoint`, for H held as (1, 1) bands.

    X has n rows (a vector or a matrix); the cost is O(size of X).
    X @ H is the adjoint of H^dag @ X^dag.
    """
    sup, diag, sub = bands[0, 1:], bands[1], bands[2, :-1]
    if adjoint:
        sup, diag, sub = sub.conj(), diag.conj(), sup.conj()
    col = (slice(None),) + (np.newaxis,) * (np.ndim(X) - 1)
    Y = diag[col] * X
    Y[:-1] += sup[col] * X[1:]
    Y[1:] += sub[col] * X[:-1]
    return Y


def build_operators(model: RectifiedModel, grid: GridSpec) -> OperatorPair:
    """Assemble the bands of H and the diagonal of W for a rectified model on a grid.

    H = (-1/h^2) tridiag(1, -2, 1) + diag(V_rect(r_j)) with Dirichlet ends;
    W_jj = W(r_j) = (2N+1)^2 r_j^(4N).
    """
    if grid.epsilon == 0.0 and (model.winding > 0 or model.spec.has_centrifugal):
        raise ConfigError(
            "epsilon = 0 at winding > 0 or with a centrifugal term samples the singularity"
        )
    h, r = grid.h, grid.r
    bands = np.zeros((3, grid.n), dtype=complex)
    bands[0, 1:] = bands[2, :-1] = -1.0 / h**2
    bands[1] = 2.0 / h**2 + model.potential(r)
    w = model.weight(r)
    if np.any(w == 0) or not np.all(np.isfinite(w)):
        raise ConfigError("weight matrix is singular or non-finite on this grid")
    return OperatorPair(bands=bands, w_diag=w, pt_symmetric=model.pt_flag)


def pt_residual(pair: OperatorPair) -> float:
    """Parity pseudo-Hermiticity defect of the discretized pair.

    max(||P H P - H^dag||_F, ||P W P - W^dag||_F) / (||H||_F + ||W||_F) with P
    the index reversal.  P H P reverses each band and swaps the off-diagonals,
    so every norm is taken over the bands in O(n).
    """
    sup, diag, sub = pair.bands[0, 1:], pair.bands[1], pair.bands[2, :-1]
    w = pair.w_diag
    dH = np.linalg.norm(
        np.concatenate([diag[::-1] - diag.conj(), sub[::-1] - sub.conj(), sup[::-1] - sup.conj()])
    )
    dW = np.linalg.norm(w[::-1] - w.conj())
    return float(max(dH, dW) / (np.linalg.norm(pair.bands) + np.linalg.norm(w)))


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
        header = fh.read(32)
        if len(header) != 32:
            raise ConfigError(f"{path}: header truncated to {len(header)} of 32 bytes")
        rows, cols, h, epsilon = struct.unpack("<QQdd", header)
        payload = fh.read(rows * cols * 16)
        if len(payload) != rows * cols * 16 or fh.read(1):
            raise ConfigError(f"{path}: payload is not {rows}x{cols} complex128 entries")
    A = np.frombuffer(payload, dtype="<c16").reshape(rows, cols).astype(np.complex128)
    return A, h, epsilon
