"""Uniform-grid discretization of the rectified problem on the shifted line.

The pencil H psi = E W psi keeps its structure: H (3-point Laplacian plus
rectified potential, Dirichlet ends) is complex-symmetric and held as its
diagonal and off-diagonal, the weight W as its diagonal, and parity P is the
index reversal.  Dense matrices are built only on request.  The grid is
symmetric about x = 0 so that P is an exact permutation and PT identities are
checkable to machine precision.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, require_int, require_real
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

# columns (or rows) per piece wherever an n x n array is taken in pieces
BLOCK = 128


@dataclass(frozen=True)
class GridSpec:
    """Symmetric uniform grid: x_j = -X + j*h for j = 1..n with h = 2X/(n+1)."""

    half_width: float
    n: int
    epsilon: float

    def __post_init__(self) -> None:
        require_int("grid n", self.n)
        require_real("grid n", self.n)  # h divides by n + 1 as a float
        if self.n < 3:
            raise ConfigError(f"grid needs n >= 3 interior points, got {self.n}")
        if not (self.half_width > 0):
            raise ConfigError(f"half_width must be positive, got {self.half_width}")
        hh = self.h * self.h  # build_operators divides 2 by it
        if not (0.0 < hh < np.inf and 2.0 / hh < np.inf):
            raise ConfigError(
                f"half_width {self.half_width!r} at n = {self.n} gives a grid step h = "
                f"{self.h!r} whose h*h or 2/h^2 is not a positive finite float"
            )
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

    H is tridiagonal and complex-symmetric (H = H^T): `diag` is its diagonal
    and `off` (length n - 1) its off-diagonal, off[j] = H[j, j + 1] = H[j + 1, j].
    `w_diag` is the diagonal of W and `s` that of dz/dr (s^2 = W, P s = conj(s),
    exact ones at winding 0).  `pt_symmetric` is the model's PT balance carried
    onto the grid (real even and imaginary odd coefficients on a grid symmetric
    about x = 0); the eigensolver relies on P H P = conj(H) and P W P = conj(W)
    without testing H.  They hold to rounding only: `off` mirrors exactly, `diag`
    to 9.1e-13 at harmonic n = 900 and 9.6e-10 on the winding-1 cubic at n = 900.
    """

    diag: np.ndarray
    off: np.ndarray
    w_diag: np.ndarray
    s: np.ndarray
    pt_symmetric: bool = False

    @property
    def n(self) -> int:
        return len(self.diag)

    @property
    def H(self) -> np.ndarray:
        """Dense H, built on each access."""
        n = self.n
        H = np.diag(self.diag)
        H.flat[1::n + 1] = H.flat[n::n + 1] = self.off
        return H

    @property
    def H_norm(self) -> float:
        """||H||_F, summed over (0, off, diag, off, 0), the entries of H's (1, 1) band storage."""
        return float(np.linalg.norm(np.concatenate([[0], self.off, self.diag, self.off, [0]])))

    @property
    def weight_condition(self) -> float:
        d = np.abs(self.w_diag)
        return float(d.max() / d.min())


def band_matmul(
    diag: np.ndarray, off: np.ndarray, X: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """H @ X for the tridiagonal H = H^T with diagonal `diag` and off-diagonal `off`.

    X has n rows (a vector or a matrix); the cost is O(size of X).  X @ H is
    band_matmul(diag, off, X.T).T and H^dag @ X is band_matmul(diag.conj(), off.conj(), X).
    Given `out`, a view shaped like X, H @ X is added to it in place (negated
    diagonals subtract it, to the same bits).  Each entry rounds as
    (diag x + off x_above) + off x_below, in X's memory order; an n x n X goes
    BLOCK columns at a time.
    """
    col = (slice(None),) + (np.newaxis,) * (np.ndim(X) - 1)
    add = out is not None
    if not add:
        out = np.empty_like(X, dtype=np.result_type(diag, off, X))
    square = np.ndim(X) == 2 and X.shape[0] == X.shape[1]
    for j in range(0, len(X), BLOCK) if square else [0]:
        cols = np.s_[:, j : j + BLOCK] if square else np.s_[...]
        x = X[cols]
        y = np.multiply(diag[col], x, out=None if add else out[cols])
        y[:-1] += off[col] * x[1:]
        y[1:] += off[col] * x[:-1]
        if add:
            np.add(out[cols], y, out=out[cols])
    return out


def build_operators(model: RectifiedModel, grid: GridSpec) -> OperatorPair:
    """Assemble the diagonal and off-diagonal of H and the diagonal of W for a rectified model.

    H = (-1/h^2) tridiag(1, -2, 1) + diag(V_rect(r_j)) with Dirichlet ends;
    W_jj = W(r_j) = (2N+1)^2 r_j^(4N), and s_j = dz/dr at r_j.
    """
    if grid.epsilon == 0.0 and (model.winding > 0 or model.spec.has_centrifugal):
        raise ConfigError(
            "epsilon = 0 at winding > 0 or with a centrifugal term samples the singularity"
        )
    h, r = grid.h, grid.r
    off = np.full(grid.n - 1, -1.0 / h**2, dtype=complex)
    diag = 2.0 / h**2 + model.potential(r)
    w = model.weight(r)
    if np.any(w == 0) or not np.all(np.isfinite(w)):
        raise ConfigError("weight matrix is singular or non-finite on this grid")
    if not np.all(np.isfinite(diag)):
        raise ConfigError("rectified potential is non-finite on this grid")
    return OperatorPair(diag=diag, off=off, w_diag=w, s=model.dzdr(r), pt_symmetric=model.pt_flag)


def pt_residual(pair: OperatorPair) -> float:
    """Parity pseudo-Hermiticity defect of the discretized pair.

    max(||P H P - H^dag||_F, ||P W P - W^dag||_F) / (||H||_F + ||W||_F) with P
    the index reversal.  P H P reverses the diagonal and the off-diagonal,
    so every norm is taken over them in O(n).
    """
    diag, off, w = pair.diag, pair.off, pair.w_diag
    d_off = off[::-1] - off.conj()
    dH = np.linalg.norm(np.concatenate([diag[::-1] - diag.conj(), d_off, d_off]))
    dW = np.linalg.norm(w[::-1] - w.conj())
    return float(max(dH, dW) / (pair.H_norm + np.linalg.norm(w)))


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
        fh.write(A.astype("<c16", copy=False).data)  # no copy on a little-endian host
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
        if rows * cols * 16 != os.fstat(fh.fileno()).st_size - fh.tell():
            raise ConfigError(f"{path}: payload is not {rows}x{cols} complex128 entries")
        A = np.fromfile(fh, dtype="<c16", count=rows * cols).reshape(rows, cols)
    return A.astype(np.complex128, copy=False), h, epsilon
