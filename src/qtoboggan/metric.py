"""Physical metric Theta built from the eigensystem's double series.

With S_{ll'} = <<l|W^2|l'> and M = S^{-1}, the candidate metric is

    Theta[kappa] = sum_{l,l'} W^dag |l>> kappa*_l M_{ll'} kappa_l' <<l'| W.

The module certifies quasi-Hermiticity of H and W with respect to Theta,
measures (never assumes) Hermiticity and positivity, takes the kappa
ambiguity as an argument, degenerates to the single-series expansion when
W = I, and realizes physical-space operators through the Hermitian square
root of Theta.  W enters only through its diagonal, as row and column scalings,
and H only through its diagonal and off-diagonal.

An eigensystem held in the PT frame (see spectra: W = I, each ket and
double-ket U y p with U = (I + iP)/sqrt(2) and p a unit phase) is built from
its frame vectors y, in real arithmetic when y and kappa are real: S_r (the
frame's stored biorthogonal Gram), Theta_r = U^dag Theta U, the span's
eigenvalues and the residuals, which are Theta's own as U keeps Frobenius
norms.  The exact similarity makes the result the complex chain's to
rounding.  A MetricResult keeps S and Theta as built, no M, and forms S,
M = S^{-1} and Theta anew on each read.

build_metric drops each array after its last read.  Handed an eigensystem that
no caller keeps, as the metric command hands it (Python >= 3.11, which keeps no
call's arguments on the caller's stack), it frees L once Theta is built and R
once Q is, and finds the span's eigenvalues in the span's own storage: Theta,
the span and Q^dag Theta are the largest arrays alive together.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np
import scipy.linalg

from .discrete import BLOCK, OperatorPair, band_matmul
from .errors import IllConditionedS, IncompleteBasisWarning, NonPositiveTheta, SingularTheta
from .spectra import Eigensystem, _operator_from_real_basis, _rephased

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
# (check name, diagnostics key, limit: a tolerances key or a fixed number,
# larger_ok) for each limit a metric must meet, in the metric and validate
# commands; out of __all__, whose functions perfbench's tracer wraps as layers
GATES = (
    ("quasiH", "quasiH", "quasi_hermiticity", False),
    ("quasiW", "quasiW", "quasi_hermiticity", False),
    ("theta_hermiticity", "hermiticity", "theta_hermiticity", False),
    ("theta_min_eig", "min_eig", 0.0, True),
)


def gate_limit(tol: Dict[str, float], limit: Union[str, float]) -> float:
    """A limit given as a tolerances key, or as a fixed number."""
    return tol[limit] if isinstance(limit, str) else limit


def passes(value: float, limit: float, larger_ok: bool) -> bool:
    """A value passes when it is at most its limit, or above it when `larger_ok`."""
    return value > limit if larger_ok else value <= limit


@dataclass(frozen=True, eq=False)
class MetricResult:
    """Metric operator with its mode-space ingredients and residual diagnostics.

    diagnostics keys: quasiH, quasiW, hermiticity, min_eig, cond_S, cond_Theta.
    cond_S is an upper bound on cond_2(S); cond_Theta and min_eig come from
    the eigenvalues of Theta's Hermitian part (see build_metric).
    When the eigensystem is a strict subset of the modes (m < n), Theta is a
    subspace metric and min_eig / cond_Theta are restricted to the retained
    span (quasiH/quasiW stay ambient: the defect lives in the full space).

    `matrices` holds (S, Theta) as built: the operators themselves, or with
    the eigensystem's `phase` its frame's S_r and Theta_r = U^dag Theta U.
    `S`, `M` and `Theta` build a new array on each read and keep none: S and M
    as diag(conj p) X diag(p), Theta as U Theta_r U^dag, M from S by the same
    `_invert_full` as build_metric, to the same bits.  A caller that writes
    Theta and then S, as the metric command does, holds one n x n operator
    beside `matrices` at a time.
    """

    matrices: Tuple[np.ndarray, np.ndarray]
    diagnostics: Dict[str, float]
    phase: Optional[np.ndarray] = None

    @property
    def S(self) -> np.ndarray:
        S = self.matrices[0]
        return S.copy() if self.phase is None else _rephased(S, self.phase)

    @property
    def M(self) -> np.ndarray:
        M = _invert_full(self.matrices[0])
        return M if self.phase is None else _rephased(M, self.phase)

    @property
    def Theta(self) -> np.ndarray:
        X = self.matrices[1]
        return X.copy() if self.phase is None else _operator_from_real_basis(X)


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
    # the identity in Fortran order is solved in place, not copied
    eye = np.eye(S.shape[0], dtype=S.dtype, order="F")
    return getrs(lu, piv, eye, overwrite_b=1)[0]


def _economic_q(R: np.ndarray) -> np.ndarray:
    """Q of R = Q T (R n x m, m <= n) by LAPACK ?geqrf/?orgqr.

    Called with the workspace queries scipy.linalg.qr(mode="economic") makes, to
    its bits, on one Fortran copy of R factored in place, and without forming T.
    """
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (R,))
    qr = np.array(R, order="F")
    lwork = geqrf(qr, lwork=-1, overwrite_a=1)[-2][0].real.astype(np.int_)
    qr, tau = geqrf(qr, lwork=lwork, overwrite_a=1)[:2]
    lwork = orgqr(qr, tau, lwork=-1, overwrite_a=1)[-2][0].real.astype(np.int_)
    return orgqr(qr, tau, lwork=lwork, overwrite_a=1)[0]


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
    Hermitian.  A frame-backed eigensystem runs the chain in its frame (see
    MetricResult).  `es` is read at entry only and is left unchanged; when the
    caller keeps no reference to it, its vectors are freed after their last
    reads (see the module docstring).
    """
    pair, phase, w = es.pair, es.phase, es.weights
    n, m = pair.n, es.m
    kappa = np.ones(m, dtype=complex) if kappa is None else np.asarray(kappa, dtype=complex)
    if kappa.shape != (m,):
        raise ValueError(f"kappa must have shape ({m},), got {kappa.shape}")
    if m < n:
        message = f"retained modes m={m} < n={n}: Theta is a subspace metric"
        warnings.warn(message, IncompleteBasisWarning, stacklevel=2)
    in_frame = phase is not None
    R, L = es.vectors
    # in the frame a real kappa keeps a real frame real; a complex one makes Theta_r complex
    k = kappa.real if in_frame and not kappa.imag.any() else kappa
    S = build_S(es)
    del es  # without the caller's reference, R and L now die at their last reads
    M = _invert_full(S)
    cond_S = np.inf
    if M is not None:
        norms = [np.linalg.norm(X, p) for X in (S, M) for p in (1, np.inf)]
        cond_S = float(np.sqrt(np.prod(norms)))
    if not cond_S <= COND_S_THRESHOLD:
        raise IllConditionedS(f"cond_S = {cond_S:.3e} exceeds {COND_S_THRESHOLD:.1e}")
    # Theta = A M B as NumPy evaluates it, (A M) B, with M and then A M freed as soon
    # as read; at unit w and kappa, A and B are L and L^dag (the formulas' bits, no copies)
    unit = pair.unit_weight and np.all(k == 1.0)
    AM = (L if unit else (w.conj()[:, np.newaxis] * L) * k.conj()[np.newaxis, :]) @ M
    del M
    B = L.conj().T if unit else k[:, np.newaxis] * (L.conj().T * w[np.newaxis, :])
    del L
    Theta = AM @ B
    del AM, B

    if m < n:
        Q = _economic_q(R)
        del R
        span = Q.conj().T @ Theta @ Q
        del Q
    else:
        del R
        span = Theta.copy()
    # the Hermitian part (span + span^dag) / 2, its lower triangle written into the
    # span's upper one: the Fortran-ordered span^T holds it as its lower triangle,
    # the one eigvalsh reads, so LAPACK works in place on the span itself
    for i in range(0, m, BLOCK):
        rows = slice(i, i + BLOCK)
        span[rows, i:] = (span[i:, rows].T + span[rows, i:].conj()) / 2.0
    eigs = scipy.linalg.eigvalsh(span.T, overwrite_a=True)
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
    return MetricResult(matrices=(S, Theta), diagnostics=diagnostics, phase=phase)


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
    diag, off = pair.diag, pair.off
    # each product is added into D in place, BLOCK columns at a time
    if in_frame:
        # A^T Theta - Theta A with A^T = Re H - P Im H, Theta A = Theta Re H - (Theta Im H) P
        D = band_matmul(diag.real, off.real, theta)
        band_matmul(-diag.imag, -off.imag, theta, out=D[::-1])
        band_matmul(-diag.real, -off.real, theta.T, out=D.T)
        band_matmul(diag.imag, off.imag, theta.T, out=D.T[::-1])
        w = pair.w_diag.real
    else:
        D = band_matmul(diag.conj(), off.conj(), theta)
        band_matmul(-diag, -off, theta.T, out=D.T)
        w = pair.w_diag
    rH = np.linalg.norm(D) / (tnorm * pair.H_norm)
    D = np.multiply(w.conj()[:, np.newaxis], theta, out=D)
    D -= theta * w
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
    h = Omega @ band_matmul(pair.diag, pair.off, Omega_inv)
    w = (Omega * pair.w_diag[np.newaxis, :]) @ Omega_inv
    return _hermiticity(h), _hermiticity(w)


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
    R = band_matmul(pair.diag.conj(), pair.off.conj(), T)
    R -= (pair.w_diag.conj()[:, np.newaxis] * T) * es.lambdas
    per_mode = np.linalg.norm(R, axis=0) / np.linalg.norm(T, axis=0)
    return float(per_mode.max() / pair.H_norm)
