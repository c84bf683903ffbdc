"""Physical metric Theta built from the eigensystem's double series.

With S_{ll'} = <<l|W^2|l'> and M = S^{-1}, the candidate metric is

    Theta[kappa] = sum_{l,l'} W^dag |l>> kappa*_l M_{ll'} kappa_l' <<l'| W.

The module certifies quasi-Hermiticity of H and W with respect to Theta,
measures (never assumes) Hermiticity and positivity, takes the kappa
ambiguity as an argument, degenerates to the single-series expansion when
W = I, and realizes physical-space operators through the Hermitian square
root of Theta.  W enters only through its diagonal, as row and column scalings,
and H only through its bands.

A PT-symmetric W = I eigensystem whose retained eigenvalues are all exactly
real, with sigma = 1, is built in the real PT basis: each ket and double-ket
is U y p with U = (I + iP)/sqrt(2), y real and p a unit phase, so S, S^{-1},
Theta and the span's eigenvalues come from real matrices and Theta is mapped
back by U in O(n^2).  The similarity is exact, so the result agrees with the
complex chain to rounding; every other eigensystem takes the complex chain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
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
from .spectra import Eigensystem, _operator_from_real_basis, _to_real_basis

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
    """

    S: np.ndarray
    M: np.ndarray
    Theta: np.ndarray
    diagnostics: Dict[str, Optional[float]]
    kappa_used: np.ndarray


def build_S(es: Eigensystem) -> np.ndarray:
    """Mode-space overlap matrix S_{ll'} = <<l|W^2|l'> over retained modes."""
    w = es.pair.w_diag[:, np.newaxis]
    return es.left.conj().T @ (w * (w * es.right))


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


def _real_frame(es: Eigensystem) -> Tuple[Eigensystem, Optional[np.ndarray]]:
    """(es in the real PT basis, its column phases p), or (es, None) if it has none.

    For a PT-symmetric W = I pair the real-basis eigensolve gives each mode of
    exactly real lambda as U y with y real; normalization leaves U y p for
    both kets and double-kets, one unit phase p per column, since sigma = 1
    makes their phases equal up to sign.  Returns es with the real y as its
    kets, W = I held as real ones, and p, read from the largest-modulus entry
    of each column of U^dag R.
    """
    pair = es.pair
    if not (
        pair.pt_symmetric
        and np.all(pair.w_diag == 1.0)
        and not es.lambdas.imag.any()
        and np.all(es.sigmas == 1.0)
    ):
        return es, None
    Z = _to_real_basis(es.right)
    anchor = Z[np.argmax(np.abs(Z), axis=0), np.arange(es.m)]
    phase = anchor / np.abs(anchor)
    frame = replace(
        es,
        pair=replace(pair, w_diag=pair.w_diag.real),
        right=(Z / phase).real,
        left=(_to_real_basis(es.left) / phase).real,
    )
    return frame, phase


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
    Hermitian.  An eigensystem `_real_frame` accepts runs the same chain on its
    real kets and maps S, M and Theta back (see the module docstring).
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
    es, phase = _real_frame(es)
    k = kappa
    if phase is not None:
        # a real kappa keeps the chain real; a complex one makes Theta complex
        k = kappa if kappa.imag.any() else kappa.real
    S = build_S(es)
    M = _invert_full(S)
    cond_S = np.inf
    if M is not None:
        norms = [np.linalg.norm(X, p) for X in (S, M) for p in (1, np.inf)]
        cond_S = float(np.sqrt(np.prod(norms)))
    if not cond_S <= COND_S_THRESHOLD:
        raise IllConditionedS(f"cond_S = {cond_S:.3e} exceeds {COND_S_THRESHOLD:.1e}")
    w = es.pair.w_diag
    A = (w.conj()[:, np.newaxis] * es.left) * k.conj()[np.newaxis, :]
    B = k[:, np.newaxis] * (es.left.conj().T * w[np.newaxis, :])
    Theta = A @ M @ B
    # freed before the residuals allocate theirs: this sets the peak memory
    del A, B

    span = Theta
    if m < n:
        Q = np.linalg.qr(es.right)[0]
        span = Q.conj().T @ Theta @ Q
        del Q
    eigs = scipy.linalg.eigvalsh((span + span.conj().T) / 2.0)
    # the real frame's kets go before the residuals too
    del span, es
    if phase is not None:
        # S = diag(conj p) S_r diag(p), and M alike; Theta = U Theta_r U^dag
        rephase = phase.conj()[:, np.newaxis] * phase[np.newaxis, :]
        S, M = S * rephase, M * rephase
        Theta = _operator_from_real_basis(Theta)
    mag = np.abs(eigs)
    quasiH, quasiW = quasi_hermiticity_residuals(Theta, pair)
    diagnostics = {
        "quasiH": quasiH,
        "quasiW": quasiW,
        "hermiticity": _hermiticity(Theta),
        "min_eig": float(eigs.min()),
        "cond_S": cond_S,
        "cond_Theta": float(mag.max() / mag.min()) if mag.min() > 0 else np.inf,
    }
    return MetricResult(S=S, M=M, Theta=Theta, diagnostics=diagnostics, kappa_used=kappa)


def quasi_hermiticity_residuals(theta: np.ndarray, pair: OperatorPair) -> Tuple[float, float]:
    """(||H^dag Theta - Theta H||_F, same for W), each / (||Theta||_F * ||op||_F).

    A singular Theta is not rejected here: build_metric reports it through
    min_eig and cond_Theta.
    """
    w = pair.w_diag
    if not np.all(np.isfinite(theta)):
        raise SingularTheta("Theta contains non-finite entries")
    tnorm = np.linalg.norm(theta)
    # Theta H is the adjoint of H^dag Theta^dag.  In place: this sets the layer's peak memory
    theta_H = band_matmul(pair.bands, theta.conj().T, adjoint=True)
    theta_H = np.conjugate(theta_H, out=theta_H).T
    D = band_matmul(pair.bands, theta, adjoint=True)
    D -= theta_H
    del theta_H
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
