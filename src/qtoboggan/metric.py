"""Physical metric Theta built from the eigensystem's double series.

With S_{ll'} = <<l|W^2|l'> and M = S^{-1}, the candidate metric is

    Theta[kappa] = sum_{l,l'} W^dag |l>> kappa*_l M_{ll'} kappa_l' <<l'| W.

The module certifies quasi-Hermiticity of H and W with respect to Theta,
measures (never assumes) Hermiticity and positivity, takes the kappa
ambiguity as an argument, degenerates to the single-series expansion when
W = I, and realizes physical-space operators through the Hermitian square
root of Theta.  W enters only through its diagonal, as row and column scalings,
and H only through its bands.

An eigensystem held in the PT frame (see spectra: W = I, each ket and
double-ket U y p with U = (I + iP)/sqrt(2) and p a unit phase) is built from
its frame vectors y: S_r, S_r^{-1}, Theta_r = U^dag Theta U, the span's
eigenvalues and the quasi-Hermiticity and Hermiticity residuals, all real
when y and kappa are.  S_r is the frame's biorthogonal Gram, which a
normalized eigensystem already stores.  Frobenius norms are invariant under
U, so those residuals are Theta's own.  The MetricResult keeps S_r, S_r^{-1}
and Theta_r and builds S = diag(conj p) S_r diag(p), M alike and
Theta = U Theta_r U^dag, in O(n^2), each on its first read: the metric
command writes Theta and S and never forms M.  The similarity is exact, so the result agrees with the
complex chain to rounding; every other eigensystem takes the complex chain on
its kets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from .discrete import OperatorPair, band_matmul, band_rmatmul
from .errors import (
    IllConditionedS,
    IncompleteBasisWarning,
    NonPositiveTheta,
    SingularTheta,
)
from .spectra import Eigensystem, _operator_from_real_basis, _pt_matmul

__all__ = [
    "MetricResult",
    "build_S",
    "build_metric",
    "quasi_hermiticity_residuals",
    "positivity_report",
    "physical_operators",
    "single_series_theta",
    "delta_identity_residual",
    "theta_eigenvector_residual",
]

COND_S_THRESHOLD = 1e12
# physical_operators raises NonPositiveTheta above this Hermiticity residual
HERMITICITY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class MetricResult:
    """Metric operator with its mode-space ingredients and residual diagnostics.

    diagnostics keys: quasiH, quasiW, hermiticity, min_eig, cond_S, cond_Theta.
    cond_S is an upper bound on cond_2(S); cond_Theta and min_eig come from
    the eigenvalues of Theta's Hermitian part (see build_metric).
    When the eigensystem is a strict subset of the modes (m < n), Theta is a
    subspace metric and min_eig / cond_Theta are restricted to the retained
    span (quasiH/quasiW stay ambient: the defect lives in the full space).

    `matrices` holds (S, M, Theta) as built.  Without `phase` they are those
    operators themselves.  Built from a frame-backed eigensystem they are its
    frame's S_r, M_r and Theta_r = U^dag Theta U, and `phase` is the
    eigensystem's: then `S`, `M` and `Theta` are built on first read and kept,
    S and M as diag(conj p) X diag(p) and Theta as U Theta_r U^dag.  A caller
    that reads only Theta and S, as the metric command does, never forms M.
    """

    matrices: Tuple[np.ndarray, np.ndarray, np.ndarray]
    diagnostics: Dict[str, Optional[float]]
    kappa_used: np.ndarray
    phase: Optional[np.ndarray] = None

    @cached_property
    def S(self) -> np.ndarray:
        return self._rephased(self.matrices[0])

    @cached_property
    def M(self) -> np.ndarray:
        return self._rephased(self.matrices[1])

    @cached_property
    def Theta(self) -> np.ndarray:
        X = self.matrices[2]
        return X if self.phase is None else _operator_from_real_basis(X)

    def _rephased(self, X: np.ndarray) -> np.ndarray:
        """diag(conj p) X diag(p), X the first factor of each product."""
        if self.phase is None:
            return X
        rephase = self.phase.conj()[:, np.newaxis] * self.phase[np.newaxis, :]
        # not X * (...): NumPy would reuse the temporary as rephase *= X, whose
        # swapped complex product rounds differently
        return np.multiply(X, rephase, out=rephase)


def build_S(es: Eigensystem) -> np.ndarray:
    """Mode-space overlap matrix S_{ll'} = <<l|W^2|l'> over retained modes.

    Of a frame-backed eigensystem (W = I) it is the frame's own
    S_r = Y_L^dag Y_R, real when the frame is; the kets' S is
    diag(conj p) S_r diag(p).  With W = I, S_r is the frame's biorthogonal
    Gram, so a normalized frame-backed system returns its stored
    `vector_gram` itself, the array the formula below would rebuild.
    """
    if es.phase is not None and es.vector_gram is not None:
        return es.vector_gram
    R, L = es.vectors
    w = es.weights[:, np.newaxis]
    return L.conj().T @ (w * (w * R))


def _invert_full(S: np.ndarray) -> Optional[np.ndarray]:
    """S^{-1} by LAPACK ?getrf/?getrs, called as scipy's lu_factor/lu_solve call them.

    Returns None on an exact zero pivot, without the LinAlgWarning lu_factor
    would emit; build_metric reads that as cond(S) = inf.
    """
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (S,))
    lu, piv, info = getrf(S)
    if info > 0:
        return None
    return getrs(lu, piv, np.eye(S.shape[0], dtype=S.dtype))[0]


def build_metric(es: Eigensystem, kappa: Optional[np.ndarray] = None) -> MetricResult:
    """Assemble Theta[kappa] from the double series with M = S^{-1}.

    On the full mode set (m = n) the identity <l|Theta W|l'> = delta_{ll'}
    holds within tolerance for kappa = 1.  For m < n an IncompleteBasisWarning
    is emitted and Theta is a subspace object only.  IllConditionedS is raised
    when cond_S exceeds COND_S_THRESHOLD.

    cond_S = sqrt(||S||_1 ||S||_inf ||M||_1 ||M||_inf) bounds cond_2(S) from
    above (||A||_2^2 <= ||A||_1 ||A||_inf) and exceeds it by at most a factor
    m; an exact zero pivot reads as inf.  cond_Theta is the ratio of the
    largest to the smallest |eigenvalue| of the Hermitian part of Theta on the
    span, the eigenvalues min_eig is read from; it is cond_2 when Theta is
    Hermitian.  A frame-backed eigensystem runs the chain and its diagnostics
    in its frame, and the result keeps S, M and Theta there until they are
    read (see MetricResult).
    """
    pair = es.pair
    n, m = pair.n, es.m
    if kappa is None:
        kappa = np.ones(m, dtype=complex)
    kappa = np.asarray(kappa, dtype=complex)
    if kappa.shape != (m,):
        raise ValueError(f"kappa must have shape ({m},), got {kappa.shape}")
    if m < n:
        warnings.warn(
            f"retained modes m={m} < n={n}: Theta is a subspace metric",
            IncompleteBasisWarning,
            stacklevel=2,
        )
    in_frame = es.phase is not None
    R, L = es.vectors
    k = kappa
    if in_frame:
        # a real kappa keeps a real frame real; a complex one makes Theta_r complex
        k = kappa if kappa.imag.any() else kappa.real
    S = build_S(es)
    M = _invert_full(S)
    cond_S = np.inf
    if M is not None:
        norms = [np.linalg.norm(X, p) for X in (S, M) for p in (1, np.inf)]
        cond_S = float(np.sqrt(np.prod(norms)))
    if not cond_S <= COND_S_THRESHOLD:
        raise IllConditionedS(f"cond_S = {cond_S:.3e} exceeds {COND_S_THRESHOLD:.1e}")
    w = es.weights
    A = (w.conj()[:, np.newaxis] * L) * k.conj()[np.newaxis, :]
    B = k[:, np.newaxis] * (L.conj().T * w[np.newaxis, :])
    Theta = A @ M @ B
    # freed before the residuals allocate theirs: this sets the peak memory
    del A, B

    span = Theta
    if m < n:
        Q = np.linalg.qr(R)[0]
        span = Q.conj().T @ Theta @ Q
        del Q
    eigs = scipy.linalg.eigvalsh((span + span.conj().T) / 2.0)
    del span
    mag = np.abs(eigs)
    # Frobenius norms are invariant under U, so the frame's residuals are Theta's
    quasiH, quasiW = quasi_hermiticity_residuals(Theta, pair, in_frame=in_frame)
    diagnostics = {
        "quasiH": quasiH,
        "quasiW": quasiW,
        "hermiticity": _hermiticity(Theta),
        "min_eig": float(eigs.min()),
        "cond_S": cond_S,
        "cond_Theta": float(mag.max() / mag.min()) if mag.min() > 0 else np.inf,
    }
    return MetricResult(
        matrices=(S, M, Theta), diagnostics=diagnostics, kappa_used=kappa, phase=es.phase
    )


def quasi_hermiticity_residuals(
    theta: np.ndarray, pair: OperatorPair, in_frame: bool = False
) -> Tuple[float, float]:
    """(||H^dag Theta - Theta H||_F, same for W), each / (||Theta||_F * ||op||_F).

    With `in_frame`, `theta` is Theta_r = U^dag Theta U of a PT-symmetric
    W = I pair, and H acts as A = U^dag H U = Re H - (Im H) P (see spectra):
    the residuals are those of A and Theta_r, equal to the ambient ones.
    A singular Theta is not rejected here: build_metric reports it through
    min_eig and cond_Theta.
    """
    if not np.all(np.isfinite(theta)):
        raise SingularTheta("Theta contains non-finite entries")
    tnorm = np.linalg.norm(theta)
    if in_frame:
        # A^T Theta - Theta A: A is real, and Theta A = Theta Re H - (Theta Im H) P
        D = _pt_matmul(pair.bands, theta, transpose=True)
        D -= band_rmatmul(theta, pair.bands.real)
        D += band_rmatmul(theta, pair.bands.imag)[:, ::-1]
        w = pair.w_diag.real
    else:
        D = band_matmul(pair.bands, theta, adjoint=True)
        D -= band_rmatmul(theta, pair.bands)
        w = pair.w_diag
    rH = np.linalg.norm(D) / (tnorm * np.linalg.norm(pair.bands))
    D = np.multiply(w.conj()[:, np.newaxis], theta, out=D)
    D -= theta * w[np.newaxis, :]
    rW = np.linalg.norm(D) / (tnorm * np.linalg.norm(w))
    return float(rH), float(rW)


def _hermiticity(theta: np.ndarray) -> float:
    """||Theta - Theta^dag||_F / ||Theta||_F."""
    return float(np.linalg.norm(theta - theta.conj().T) / np.linalg.norm(theta))


def positivity_report(theta: np.ndarray) -> Tuple[float, float]:
    """(||Theta - Theta^dag||_F / ||Theta||_F, min eigenvalue of the Hermitian part)."""
    min_eig = float(scipy.linalg.eigvalsh((theta + theta.conj().T) / 2.0).min())
    return _hermiticity(theta), min_eig


def physical_operators(pair: OperatorPair, theta: np.ndarray) -> Tuple[float, float]:
    """Hermiticity residuals of h = Omega H Omega^-1 and w = Omega W Omega^-1.

    Omega = Theta^{1/2} (principal Hermitian square root) is the
    representative factor of Theta = Omega^dag Omega.
    """
    herm = _hermiticity(theta)
    if herm > HERMITICITY_TOL:
        raise NonPositiveTheta(
            f"Theta Hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    d, Q = scipy.linalg.eigh((theta + theta.conj().T) / 2.0)
    if d.min() <= 0.0:
        raise NonPositiveTheta(f"Hermitian part of Theta has min eigenvalue {d.min():.3e} <= 0")
    root = np.sqrt(d)
    Omega = (Q * root[np.newaxis, :]) @ Q.conj().T
    Omega_inv = (Q / root[np.newaxis, :]) @ Q.conj().T
    h = Omega @ band_matmul(pair.bands, Omega_inv)
    w = (Omega * pair.w_diag[np.newaxis, :]) @ Omega_inv
    rh = float(np.linalg.norm(h - h.conj().T) / np.linalg.norm(h))
    rw = float(np.linalg.norm(w - w.conj().T) / np.linalg.norm(w))
    return rh, rw


def single_series_theta(es: Eigensystem) -> np.ndarray:
    """W -> I degeneration: Theta = sum_l |l>> sigma_l^{-1} <<l| (normalized es)."""
    return (es.left / es.sigmas[np.newaxis, :]) @ es.left.conj().T


def delta_identity_residual(es: Eigensystem, theta: np.ndarray) -> float:
    """max |<l|Theta W|l'> - delta_{ll'}| over the retained mode set (kappa = 1)."""
    G = es.right.conj().T @ theta @ (es.pair.w_diag[:, np.newaxis] * es.right)
    G[np.diag_indices_from(G)] -= 1.0
    return float(np.abs(G).max())


def theta_eigenvector_residual(es: Eigensystem, theta: np.ndarray) -> float:
    """max_l ||H^dag Theta psi_l - lam_l W^dag Theta psi_l|| / (||H||_F ||Theta psi_l||).

    If H^dag Theta = Theta H and W^dag Theta = Theta W, Theta maps each right
    ket H psi = lam W psi to a left eigenvector of the same eigenvalue, so the
    similarity Theta^-1 H^dag Theta = H holds mode by mode on the kets.
    """
    pair = es.pair
    T = theta @ es.right
    R = band_matmul(pair.bands, T, adjoint=True)
    R -= (pair.w_diag.conj()[:, np.newaxis] * T) * es.lambdas
    per_mode = np.linalg.norm(R, axis=0) / np.linalg.norm(T, axis=0)
    return float(per_mode.max() / np.linalg.norm(pair.bands))
