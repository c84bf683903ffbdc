"""Physical metric Theta built from the eigensystem's double series.

With S_{ll'} = <<l|W^2|l'> and M = S^{-1}, the candidate metric is

    Theta[kappa] = sum_{l,l'} W^dag |l>> kappa*_l M_{ll'} kappa_l' <<l'| W.

The module certifies quasi-Hermiticity of H and W with respect to Theta,
measures (never assumes) Hermiticity and positivity, takes the kappa
ambiguity as an argument, degenerates to the single-series expansion when
W = I, and realizes physical-space operators through the Hermitian square
root of Theta.  W enters only through its diagonal, as row and column scalings,
and H only through its bands.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from .discrete import OperatorPair, band_matmul
from .errors import (
    IllConditionedS,
    IncompleteBasisWarning,
    NonPositiveTheta,
    SingularTheta,
)
from .spectra import Eigensystem

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


@dataclass(frozen=True, eq=False)
class MetricResult:
    """Metric operator with its mode-space ingredients and residual diagnostics.

    diagnostics keys: quasiH, quasiW, hermiticity, min_eig, cond_S, cond_Theta.
    When the eigensystem is a strict subset of the modes (m < n), Theta is a
    subspace metric and min_eig / cond_Theta are restricted to the retained
    span (quasiH/quasiW stay ambient: the defect lives in the full space).
    """

    S: np.ndarray
    M: np.ndarray
    Theta: np.ndarray
    diagnostics: Dict[str, Optional[float]]
    kappa_used: np.ndarray


def build_S(es: Eigensystem, pair: OperatorPair) -> np.ndarray:
    """Mode-space overlap matrix S_{ll'} = <<l|W^2|l'> over retained modes."""
    w = pair.w_diag[:, np.newaxis]
    return es.left.conj().T @ (w * (w * es.right))


def _invert_full(S: np.ndarray) -> np.ndarray:
    lu, piv = scipy.linalg.lu_factor(S)
    d = np.abs(np.diag(lu))
    if d.min() == 0.0:
        raise SingularTheta("S factorization produced an exact zero pivot")
    return scipy.linalg.lu_solve((lu, piv), np.eye(S.shape[0], dtype=complex))


def build_metric(
    es: Eigensystem,
    pair: OperatorPair,
    kappa: Optional[np.ndarray] = None,
    cond_threshold: float = COND_S_THRESHOLD,
) -> MetricResult:
    """Assemble Theta[kappa] from the double series with M = S^{-1}.

    On the full mode set (m = n) the identity <l|Theta W|l'> = delta_{ll'}
    holds within tolerance for kappa = 1.  For m < n an IncompleteBasisWarning
    is emitted and Theta is a subspace object only.
    """
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
    S = build_S(es, pair)
    cond_S = float(np.linalg.cond(S))
    if not np.isfinite(cond_S) or cond_S > cond_threshold:
        raise IllConditionedS(f"cond(S) = {cond_S:.3e} exceeds {cond_threshold:.1e}")
    M = _invert_full(S)
    w = pair.w_diag
    A = (w.conj()[:, np.newaxis] * es.left) * kappa.conj()[np.newaxis, :]
    B = kappa[:, np.newaxis] * (es.left.conj().T * w[np.newaxis, :])
    Theta = A @ M @ B

    span = Theta
    if m < n:
        Q, _ = np.linalg.qr(es.right)
        span = Q.conj().T @ Theta @ Q
    min_eig = float(scipy.linalg.eigvalsh((span + span.conj().T) / 2.0).min())
    cond_T = float(np.linalg.cond(span))
    quasiH, quasiW = quasi_hermiticity_residuals(Theta, pair, check_invertible=False)
    diagnostics = {
        "quasiH": quasiH,
        "quasiW": quasiW,
        "hermiticity": _hermiticity(Theta),
        "min_eig": min_eig,
        "cond_S": cond_S,
        "cond_Theta": cond_T,
    }
    return MetricResult(S=S, M=M, Theta=Theta, diagnostics=diagnostics, kappa_used=kappa)


def quasi_hermiticity_residuals(
    theta: np.ndarray, pair: OperatorPair, check_invertible: bool = True
) -> Tuple[float, float]:
    """(||H^dag Theta - Theta H||_F, same for W), each / (||Theta||_F * ||op||_F)."""
    w = pair.w_diag
    if not np.all(np.isfinite(theta)):
        raise SingularTheta("Theta contains non-finite entries")
    if check_invertible:
        with warnings.catch_warnings():
            # singularity is detected from the pivots below, not the warning
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, _ = scipy.linalg.lu_factor(theta)
        if np.abs(np.diag(lu)).min() == 0.0:
            raise SingularTheta("Theta is numerically singular")
    tnorm = np.linalg.norm(theta)
    # Theta H is the adjoint of H^dag Theta^dag
    Hd_theta = band_matmul(pair.bands, theta, adjoint=True)
    theta_H = band_matmul(pair.bands, theta.conj().T, adjoint=True).conj().T
    rH = np.linalg.norm(Hd_theta - theta_H) / (tnorm * np.linalg.norm(pair.bands))
    rW = np.linalg.norm(w.conj()[:, np.newaxis] * theta - theta * w[np.newaxis, :]) / (
        tnorm * np.linalg.norm(w)
    )
    return float(rH), float(rW)


def _hermiticity(theta: np.ndarray) -> float:
    """||Theta - Theta^dag||_F / ||Theta||_F."""
    return float(np.linalg.norm(theta - theta.conj().T) / np.linalg.norm(theta))


def positivity_report(theta: np.ndarray) -> Tuple[float, float]:
    """(||Theta - Theta^dag||_F / ||Theta||_F, min eigenvalue of the Hermitian part)."""
    min_eig = float(scipy.linalg.eigvalsh((theta + theta.conj().T) / 2.0).min())
    return _hermiticity(theta), min_eig


def physical_operators(
    pair: OperatorPair, theta: np.ndarray, herm_tol: float = 1e-6
) -> Tuple[float, float]:
    """Hermiticity residuals of h = Omega H Omega^-1 and w = Omega W Omega^-1.

    Omega = Theta^{1/2} (principal Hermitian square root) is the
    representative factor of Theta = Omega^dag Omega.
    """
    herm = _hermiticity(theta)
    if herm > herm_tol:
        raise NonPositiveTheta(f"Theta Hermiticity residual {herm:.3e} exceeds {herm_tol:.1e}")
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


def delta_identity_residual(es: Eigensystem, pair: OperatorPair, theta: np.ndarray) -> float:
    """max |<l|Theta W|l'> - delta_{ll'}| over the retained mode set (kappa = 1)."""
    G = es.right.conj().T @ theta @ (pair.w_diag[:, np.newaxis] * es.right)
    G[np.diag_indices_from(G)] -= 1.0
    return float(np.abs(G).max())


def theta_eigenvector_residual(es: Eigensystem, pair: OperatorPair, theta: np.ndarray) -> float:
    """max_l ||H^dag Theta psi_l - lam_l W^dag Theta psi_l|| / (||H||_F ||Theta psi_l||).

    If H^dag Theta = Theta H and W^dag Theta = Theta W, Theta maps each right
    ket H psi = lam W psi to a left eigenvector of the same eigenvalue, so the
    similarity Theta^-1 H^dag Theta = H holds mode by mode on the kets.
    """
    T = theta @ es.right
    R = band_matmul(pair.bands, T, adjoint=True)
    R -= (pair.w_diag.conj()[:, np.newaxis] * T) * es.lambdas
    per_mode = np.linalg.norm(R, axis=0) / np.linalg.norm(T, axis=0)
    return float(per_mode.max() / np.linalg.norm(pair.bands))
