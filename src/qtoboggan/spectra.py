"""Generalized eigenproblem H psi = E W psi: paired left/right eigenvectors.

Right kets |lam> and left double-kets <<lam| (stored as the column whose
conjugate transpose is the bra) are solved together, verified by residual,
normalized biorthogonally with respect to W, and checked against the
completeness and spectral-decomposition identities of the pencil an
Eigensystem carries.  The kappa-rescaling freedom |lam> -> |lam>/kappa,
<<lam| -> kappa*<<lam| is first-class.

The dense solve is standard: W = s^2 with s = dz/dr diagonal, and
B = s^-1 H s^-1 keeps H's structure (B = H at W = I).  If the pair is
PT-symmetric (P H P = conj(H), P the index reversal), U = (I + iP)/sqrt(2) is
unitary and U^dag B U = Re B - (Im B) P is real, so one real eigensolve yields
the same eigenpairs, exactly: real eigenvalues come out exactly real.  Other
pairs take the complex eigensolve of B.

At W = I the PT route stores its frame: the eigenvectors Y of A, unpacked
once from ?geev's real packing, real for every real eigenvalue, and one unit
phase p per mode, each ket being U y p.  Residuals (BLOCK columns at a time),
sigma and the Gram run on Y, and the metric takes the frame's Gram as its S;
the kets are built only when a caller reads `right`, `left` or `gram`.  Every
other solve stores the kets x / s of B's eigenvectors x.  B's rounding,
eps ||B||, exceeds H's by up to 1/min|w|, so on a W != I pencil `filter_real`
keeps only the eigenvalues of the modes it retains and returns the pencil's own
eigenpairs at them (`nearest_eigenpairs`: inverse iteration on (H, W), the
conjugate ket as double-ket).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .discrete import BLOCK, OperatorPair, band_matmul
from .errors import (
    DegeneratePairing,
    EmptySpectrum,
    IncompleteBasis,
    SelfOrthogonalMode,
    SolverFailure,
    VanishingParityOverlap,
    ZeroKappa,
)

__all__ = [
    "Eigensystem",
    "solve_generalized",
    "lowest_eigenvalues",
    "nearest_eigenpairs",
    "is_real",
    "filter_real",
    "normalize_biorthogonal",
    "completeness_residual",
    "spectral_rebuild_residual",
    "apply_kappa",
    "quasiparity_leftkets",
    "collinearity_angles",
    "save_spectrum_csv",
]

# Inverse iteration gains a factor |E1 - shift| / |E2 - shift| per step (E1, E2
# the nearest and next-nearest eigenvalues): a shift within 1e-4 of a mode
# converges in 2-3 steps, one halfway between two modes never does.
INVERSE_ITERATION_STEPS = 100

# quasiparity_leftkets raises VanishingParityOverlap below this |<n|P W|n>|
PARITY_OVERLAP_FLOOR = 1e-12

# filter_real's gates.  Winding-1 grids, n = 300-900: |sigma| >= 1.4e-7 genuine, <= 1.4e-11
# near an exceptional point; residual / median <= 25 genuine, >= 5,200 spurious (box top)
SIGMA_CERTIFY_FLOOR = 1e-9
SPURIOUS_RESIDUAL_RATIO = 300.0


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Paired eigensystem of the pencil `pair`, H psi = lambda W psi.

    `right[:, j]` is the ket |lambda_j> and `left[:, j]` the vector whose
    conjugate transpose is the double-ket bra <<lambda_j|.  m = len(lambdas)
    may be smaller than `pair.n` after filtering, by `discarded`.

    `vectors` holds (right, left) as solved: the kets themselves, or, with
    `phase` (the PT route at W = I), the eigenvectors Y_R, Y_L of the real
    A = U^dag H U, real exactly when every lambda is, each ket U Y diag(phase)
    with U = (I + iP)/sqrt(2).  Such a system computes in that frame, with
    W = I as real ones (`weights`); `right` and `left` build the kets on first
    read and keep them.

    `vector_gram` is the Gram L^dag W R of `vectors` that normalize_biorthogonal
    forms, None before it: the kets' own without `phase`, the frame's
    Y_L^dag Y_R with it, which is also the metric's S_r (see metric.build_S).
    `gram` reads the kets' Gram from it.
    """

    pair: OperatorPair
    lambdas: np.ndarray
    vectors: Tuple[np.ndarray, np.ndarray]
    sigmas: np.ndarray
    residual_right: np.ndarray
    residual_left: np.ndarray
    phase: Optional[np.ndarray] = None
    vector_gram: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return len(self.lambdas)

    @property
    def discarded(self) -> int:
        return self.pair.n - self.m

    @property
    def gram(self) -> Optional[np.ndarray]:
        """The kets' Gram <<l|W|l'>, a new array on each read; None if not normalized.

        Of a frame-backed system it is diag(conj p) Y_L^dag Y_R diag(p).
        """
        return None if self.vector_gram is None else self._gram_rows(slice(None))

    def max_offdiag_gram(self) -> float:
        """max |<<l|W|l'> - delta_ll'| over the kets' Gram, formed BLOCK rows at a time."""
        worst = []
        for i in range(0, self.m, BLOCK):
            G = self._gram_rows(slice(i, i + BLOCK))
            G[np.arange(len(G)), np.arange(i, i + len(G))] -= 1.0
            worst.append(np.abs(G).max())
        return float(np.max(worst))

    def _gram_rows(self, rows: slice) -> np.ndarray:
        if self.phase is None:
            return self.vector_gram[rows].copy()
        return _rephased(self.vector_gram, self.phase, rows)

    @property
    def weights(self) -> np.ndarray:
        """The diagonal of W in the arithmetic of `vectors`: real ones in the frame."""
        w = self.pair.w_diag
        return w if self.phase is None else w.real

    @cached_property
    def right(self) -> np.ndarray:
        R = self.vectors[0]
        return R if self.phase is None else _kets_from_frame(R, self.phase)

    @cached_property
    def left(self) -> np.ndarray:
        L = self.vectors[1]
        return L if self.phase is None else _kets_from_frame(L, self.phase)

    def take(self, idx: np.ndarray) -> "Eigensystem":
        R, L = self.vectors
        phase = self.phase
        if phase is not None:
            phase = phase[idx]
            if np.iscomplexobj(R) and not self.lambdas[idx].imag.any():
                R, L = R.real, L.real  # a real eigenvalue's frame vectors are real
        return replace(
            self,
            lambdas=self.lambdas[idx],
            vectors=(R[:, idx], L[:, idx]),
            phase=phase,
            sigmas=self.sigmas[idx],
            residual_right=self.residual_right[idx],
            residual_left=self.residual_left[idx],
            vector_gram=None,
        )


def _normalize_columns(V: np.ndarray, pt_symmetric: bool = False) -> np.ndarray:
    """Unit 2-norm columns, each rotated so its anchor entry is real-positive.

    The anchor is the first entry of largest modulus, or on a PT-symmetric
    pencil the left member of the mirror pair of largest |v_i|^2 + |v_{n-1-i}|^2,
    for complex modes too (a real mode has |v_i| = |v_{n-1-i}| up to rounding).
    """
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    mod = np.abs(V)
    if pt_symmetric:
        mod = mod**2 + mod[::-1] ** 2  # the same at i and n-1-i: argmax takes i
    anchor = V[np.argmax(mod, axis=0), np.arange(V.shape[1])]
    phase = anchor / np.abs(anchor)
    return V / phase[np.newaxis, :]


def _pt_real_form(pair: OperatorPair) -> np.ndarray:
    """A = Re H - (Im H) P as a dense real matrix, filled in place from H's diagonals.

    (Im H) P reverses the columns of Im H, so its tridiagonal becomes an
    anti-tridiagonal.  If P H P = conj(H) then A = U^dag H U with
    U = (I + iP)/sqrt(2).  Fortran order lets ?geev overwrite A without a copy.
    """
    n = pair.n
    A = np.zeros((n, n), order="F")
    for M, sign, part in ((A, 1.0, np.real), (A[:, ::-1], -1.0, np.imag)):
        M.flat[:: n + 1] += sign * part(pair.diag)
        M.flat[1 :: n + 1] += sign * part(pair.off)
        M.flat[n :: n + 1] += sign * part(pair.off)
    return A


def _unpack_columns(V: np.ndarray, wi: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Columns `order` of ?geev's V, which holds x, y for x +/- iy of a +/- ib (wi > 0 first)."""
    if not wi.any():
        return V[:, order]
    Y = np.zeros(V.shape, dtype=complex, order="F")
    imag = wi[order]
    lead = order - (imag < 0)  # the column holding x
    Y.real[:] = V[:, lead]
    pairs = np.flatnonzero(imag)
    Y.imag[:, pairs] = V[:, lead[pairs] + 1] * np.sign(imag[pairs])
    return Y


def _rephased(X: np.ndarray, phase: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Rows `rows` of diag(conj p) X diag(p) as a new array, X the first factor of each product."""
    rephase = phase[rows].conj()[:, np.newaxis] * phase[np.newaxis, :]
    # not X * (...): NumPy would reuse the temporary as rephase *= X, whose
    # swapped complex product rounds differently
    return np.multiply(X[rows], rephase, out=rephase)


def _kets_from_frame(Y: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """U Y diag(phase) with U = (I + iP)/sqrt(2): frame vectors to kets of H."""
    return (Y + 1j * Y[::-1]) * (phase / np.sqrt(2.0))[np.newaxis, :]


def _operator_from_real_basis(X: np.ndarray) -> np.ndarray:
    """U X U^dag = ((X + P X P) + i (P X - X P)) / 2, from reversed views in O(n^2).

    A real X fills the two parts of one complex array in place; a complex X
    (from a complex kappa or a complex mode) mixes them, so it sums complex terms.
    """
    if np.iscomplexobj(X):
        T = 1j * (X[::-1] - X[:, ::-1])
        T += X
        T += X[::-1, ::-1]
    else:
        T = np.empty(X.shape, dtype=complex)
        np.add(X, X[::-1, ::-1], out=T.real)
        np.subtract(X[::-1], X[:, ::-1], out=T.imag)
    T *= 0.5
    return T


def _frame_eigensystem(
    pair: OperatorPair, lam: np.ndarray, YR: np.ndarray, YL: np.ndarray
) -> Eigensystem:
    """The PT route's eigensystem, kept in the frame of U = (I + iP)/sqrt(2).

    YR, YL are LAPACK's unit eigenvectors of A = U^dag H U (W = I).  Each
    column's phase p makes real-positive the entry of its ket U y_R at the
    first argmax of |(U y)_i| = |y_i + i y_{n-1-i}| / sqrt(2), computed for
    real y as hypot(y_i, y_{n-1-i}), the same at i and n-1-i.  A complex mode
    takes that plain argmax, not `_normalize_columns`' mirror-pair rule.
    U y_L carries the same p, so sigma = y_L^dag y_R.
    Residuals ||A y - lam y|| / ||y|| and ||A^T y - conj(lam) y|| / ||y|| are
    the kets' own (U is unitary); the modes of real lambda run in real
    arithmetic, BLOCK columns at a time.
    """
    m = len(lam)
    phase, sigmas = np.empty(m, dtype=complex), np.empty(m, dtype=complex)
    res_r, res_l = np.empty(m), np.empty(m)
    real = lam.imag == 0
    for mask, part in ((real, np.real), (~real, np.asarray)):
        modes = np.flatnonzero(mask)
        for j in range(0, len(modes), BLOCK):
            cols = modes[j : j + BLOCK]
            # np.real views the real modes' vectors, whose imaginary parts are zero
            yr, yl, lc = part(YR)[:, cols], part(YL)[:, cols], part(lam[cols])
            mod = np.hypot(yr, yr[::-1]) if np.isrealobj(yr) else np.abs(yr + 1j * yr[::-1])
            top = np.argmax(mod, axis=0)
            at = np.arange(len(cols))
            anchor = yr[top, at] + 1j * yr[::-1][top, at]
            phase[cols] = anchor.conj() / np.abs(anchor)
            for res, y, transpose, mu in ((res_r, yr, False, lc), (res_l, yl, True, lc.conj())):
                D = band_matmul(pair.diag.real, pair.off.real, y)
                # A = Re H - (Im H) P and, as H = H^T, A^T = Re H - P (Im H)
                x, out = (y, D[::-1]) if transpose else (y[::-1], D)
                band_matmul(-pair.diag.imag, -pair.off.imag, x, out=out)
                D -= y * mu
                res[cols] = np.linalg.norm(D, axis=0) / np.linalg.norm(y, axis=0)
            sigmas[cols] = np.einsum("ij,ij->j", yl.conj(), yr)
    return Eigensystem(pair, lam, (YR, YL), sigmas, res_r, res_l, phase=phase)


def solve_generalized(operators: OperatorPair, tol: float = 1e-12) -> Eigensystem:
    """All n eigenpairs with right kets and left double-kets, index-paired.

    Symmetry alone picks the eigensolve of B (module docstring); the left
    vectors u of A give (U u)^dag B = lam (U u)^dag.  With s ones a PT result
    stays in its frame, else B's eigenvectors x, x_L become the pencil's kets
    x / s and double-kets x_L / conj(s).

    `tol` is the pairing-ambiguity threshold, by default the CLI's
    `tolerances.pairing`: two eigenvalues closer than tol*max(1, |lambda|)
    make the left/right pairing non-canonical and raise DegeneratePairing.  Residuals ||H v - lam W v|| / ||W v|| and the left ones,
    formed one family at a time on the ket route, are reported, not gated.
    """
    import scipy.linalg

    s, w, n = operators.s, operators.w_diag, operators.n
    scaled = not operators.unit_weight
    B = operators
    if scaled:  # diag / w, not diag / (s s), whose rounding moves ill-conditioned modes
        B = replace(operators, diag=operators.diag / w, off=operators.off / (s[:-1] * s[1:]))
    try:
        if operators.pt_symmetric:
            # as scipy.linalg.eig calls it, but on the Fortran-ordered A in place
            geev, geev_lwork = scipy.linalg.get_lapack_funcs(("geev", "geev_lwork"), dtype=float)
            lwork = scipy.linalg.lapack._compute_lwork(geev_lwork, n, compute_vl=1, compute_vr=1)
            A = _pt_real_form(B)
            wr, wi, VL, VR, info = geev(A, lwork=lwork, compute_vl=1, compute_vr=1, overwrite_a=1)
            del A
            if info != 0:
                raise SolverFailure(f"real eigensolver ?geev failed with info = {info}")
            lam = wr + 1j * wi
        else:
            lam, VL, VR = scipy.linalg.eig(B.H, left=True, right=True)
    except (np.linalg.LinAlgError, ValueError) as exc:  # pragma: no cover
        raise SolverFailure(f"eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(lam)):
        raise SolverFailure("non-finite eigenvalues returned (W effectively singular)")

    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]

    # Pairing-ambiguity gate: scan real-sorted neighbors for coincidence.
    scale = np.maximum(1.0, np.abs(lam))
    for k in range(1, min(4, n)):
        d = np.abs(lam[k:] - lam[:-k])
        m = np.maximum(scale[k:], scale[:-k])
        if np.any(d < tol * m):
            j = int(np.argmin(d / m))
            raise DegeneratePairing(
                f"eigenvalues {lam[j]} and {lam[j + k]} coincide within tol={tol}"
            )
    if operators.pt_symmetric:
        # each unpacked family replaces LAPACK's, which is freed as it goes
        VR = _unpack_columns(VR, wi, order)
        VL = _unpack_columns(VL, wi, order)
        if not scaled:
            return _frame_eigensystem(operators, lam, VR, VL)
        # U y, up to the 1/sqrt(2) that _normalize_columns removes
        VR, VL = VR + 1j * VR[::-1], VL + 1j * VL[::-1]
    else:
        VR, VL = VR[:, order], VL[:, order]
    if scaled:
        VR, VL = VR / s[:, np.newaxis], VL / s.conj()[:, np.newaxis]
    VR = _normalize_columns(VR, operators.pt_symmetric)
    VL = _normalize_columns(VL, operators.pt_symmetric)
    residuals = []  # one family at a time, the left on conj(H) = H^dag as H = H^T
    for V, part in ((VR, np.asarray), (VL, np.conj)):
        WV = part(w)[:, np.newaxis] * V
        HV = band_matmul(part(operators.diag), part(operators.off), V)
        residuals.append(np.linalg.norm(HV - WV * part(lam), axis=0) / np.linalg.norm(WV, axis=0))
    sig = np.einsum("ij,ij->j", VL.conj(), w[:, np.newaxis] * VR)
    return Eigensystem(operators, lam, (VR, VL), sig, *residuals)


def lowest_eigenvalues(operators: OperatorPair, k: int = 5, sigma: complex = 0.0) -> np.ndarray:
    """The k eigenvalues of H psi = lambda W psi nearest `sigma`, sorted by (Re, Im).

    Shift-invert Arnoldi on the tridiagonal H scaled by the diagonal of W (never
    zero: build_operators rejects a vanishing weight), so large n stays cheap;
    each Arnoldi value is then polished by banded inverse iteration at it
    (`nearest_eigenpairs`), and SolverFailure is raised if two of them polish
    to one mode.  ARPACK needs k < n - 1; a larger k raises ValueError.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n, w = operators.n, operators.w_diag
    if k >= n - 1:
        raise ValueError(f"shift-invert Arnoldi needs k < n - 1, got k={k} at n={n}")
    # H v = lam W v with invertible diagonal W is the standard problem
    # (W^{-1} H) v = lam v
    tri = sp.diags([operators.off, operators.diag, operators.off], [1, 0, -1])
    # a fixed start vector: ARPACK's random one makes ill-conditioned
    # modes differ from call to call
    v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
    try:
        lam = spla.eigs(
            (sp.diags(1.0 / w) @ tri).tocsc(),
            k=k, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False,
        )
    except spla.ArpackNoConvergence as exc:
        raise SolverFailure(f"shift-invert Arnoldi did not converge: {exc}") from exc
    # Arnoldi stops anywhere within its tolerance on ill-conditioned modes;
    # inverse iteration at its values takes each to rounding level
    lam = nearest_eigenpairs(operators, lam).lambdas
    gap = np.abs(lam[:, np.newaxis] - lam[np.newaxis, :])
    np.fill_diagonal(gap, np.inf)
    if np.any(gap < 1e-8 * np.maximum(1.0, np.abs(lam))[:, np.newaxis]):
        raise SolverFailure(f"two Arnoldi values polish to one mode: {lam}")
    return lam[np.lexsort((lam.imag, lam.real))]


def _tridiagonal_lu(diag: np.ndarray, off: np.ndarray) -> Tuple[List[complex], ...]:
    """LU with partial pivoting of the symmetric tridiagonal matrix with `diag` and `off`.

    LAPACK's ?gttrf on Python scalars: at each column the row with the larger
    |Re| + |Im| of the diagonal and subdiagonal entries is the pivot, and an
    interchange fills a second superdiagonal.  Returns (mult, diag, sup, sup2,
    swapped): the multipliers, the three diagonals of U and which columns
    interchanged rows.  An exact zero pivot raises LinAlgError.
    """
    diag, n = diag.tolist(), len(diag)
    sup = off.tolist() + [0j]  # sup[k] = A[k, k + 1]
    mult = off.tolist()  # A[k + 1, k], overwritten by the multiplier
    sup2 = [0j] * n
    swapped = [False] * (n - 1)
    for k in range(n - 1):
        d, s = diag[k], mult[k]
        if abs(d.real) + abs(d.imag) >= abs(s.real) + abs(s.imag):
            if d == 0:
                raise np.linalg.LinAlgError(f"zero pivot in column {k}")
            f = s / d
            mult[k] = f
            diag[k + 1] -= f * sup[k]
        else:
            f = d / s
            diag[k], mult[k], swapped[k] = s, f, True
            sup[k], diag[k + 1] = diag[k + 1], sup[k] - f * diag[k + 1]
            if k < n - 2:
                sup2[k] = sup[k + 1]
                sup[k + 1] = -f * sup[k + 1]
    if diag[-1] == 0:
        raise np.linalg.LinAlgError(f"zero pivot in column {n - 1}")
    return mult, diag, sup, sup2, swapped


def _tridiagonal_solve(lu: Tuple[List[complex], ...], b: np.ndarray) -> np.ndarray:
    """Solve A x = b from `_tridiagonal_lu(A)`: LAPACK's ?gttrs, O(n)."""
    mult, diag, sup, sup2, swapped = lu
    n = len(diag)
    x = b.tolist() + [0j]  # x[n] = 0 meets sup2[n - 2] = 0 in the back substitution
    for k in range(n - 1):
        if swapped[k]:
            x[k], x[k + 1] = x[k + 1], x[k] - mult[k] * x[k + 1]
        else:
            x[k + 1] -= mult[k] * x[k]
    x[n - 1] /= diag[n - 1]
    for k in range(n - 2, -1, -1):
        x[k] = (x[k] - sup[k] * x[k + 1] - sup2[k] * x[k + 2]) / diag[k]
    return np.array(x[:n])


def nearest_eigenpairs(pair: OperatorPair, shifts: Sequence[complex]) -> Eigensystem:
    """For each shift, the eigenpair of H psi = E W psi nearest it, as an Eigensystem of `pair`.

    Inverse iteration at the fixed shift on the grid structure (tridiagonal H,
    diagonal W): H - shift W is factored once per shift by a pivoted
    tridiagonal LU in O(n), and each step is one O(n) forward and back
    substitution, started from a fixed vector so the result is deterministic.
    It stops once the residual reaches rounding level, else after
    INVERSE_ITERATION_STEPS steps with the best iterate; the residual
    ||H psi - E W psi|| / ||W psi|| is reported, not gated.  The kets are unit
    columns; as H = H^T and W is diagonal, each double-ket is the conjugate
    ket, with the same residual.

    It is the pencil's own eigenpair, also where the dense solve's is not:
    B = s^-1 H s^-1 is larger than H by up to 1/min|w|, so B's eigenpairs are
    exact only for a B perturbed by eps ||B||, and the cubic's eighth mode at
    n = 900 moved 2.5e-5 between one and two BLAS threads.  The grid is
    PT-symmetric only to rounding, so a real mode keeps the small imaginary
    part of the pencil's own eigenvalue (up to 2e-7 on the winding-1 grids at
    n = 300-900).
    """
    w, n = pair.w_diag, pair.n

    def residual(x: np.ndarray) -> Tuple[complex, float, float]:
        Hx, Wx = band_matmul(pair.diag, pair.off, x), w * x
        norm_Wx = float(np.linalg.norm(Wx))
        lam = np.vdot(Wx, Hx) / norm_Wx**2
        return lam, float(np.linalg.norm(Hx - lam * Wx)) / norm_Wx, norm_Wx

    off = np.abs(pair.off).max()
    norm_H = float(np.abs(pair.diag).max() + off + off)  # >= ||H||_inf
    norm_W = float(np.abs(w).max())
    # a fixed start without parity symmetry (an even one barely overlaps the
    # odd modes): the centred fractional parts of k^2 (sqrt(5) - 1)/2
    start = ((np.arange(n) ** 2 * 0.6180339887498949) % 1.0 - 0.5).astype(complex)
    shifts = np.asarray(list(shifts), dtype=complex)
    lambdas = np.empty(len(shifts), dtype=complex)
    right = np.empty((n, len(shifts)), dtype=complex)
    residuals = np.empty(len(shifts))
    for j, shift in enumerate(shifts):
        try:
            lu = _tridiagonal_lu(pair.diag - shift * w, pair.off)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"shift {shift} is an exact eigenvalue of the pencil") from exc
        x, best = start, (np.inf, start, np.nan)
        for _ in range(INVERSE_ITERATION_STEPS):
            x = _tridiagonal_solve(lu, w * x)
            x = x / np.linalg.norm(x)
            lam, res, norm_Wx = residual(x)
            if res < best[0]:
                best = (res, x, lam)
            # rounding level: the residual a backward-stable eigenvector would show
            if res <= np.finfo(float).eps * (norm_H + abs(lam) * norm_W) / norm_Wx:
                break
        residuals[j], right[:, j], lambdas[j] = best
    right = _normalize_columns(right, pair.pt_symmetric)
    left = _normalize_columns(right.conj(), pair.pt_symmetric)
    sigmas = np.einsum("ij,ij->j", left.conj(), w[:, np.newaxis] * right)
    return Eigensystem(pair, lambdas, (right, left), sigmas, residuals, residuals)


def is_real(lambdas: np.ndarray, tol_im: float) -> np.ndarray:
    """Which eigenvalues count as real: |Im lambda| < tol_im * max(1, |Re lambda|)."""
    return np.abs(lambdas.imag) < tol_im * np.maximum(1.0, np.abs(lambdas.real))


def filter_real(es: Eigensystem, tol_im: float = 1e-6, tol_residual: float = 1e-8) -> Eigensystem:
    """Retain the modes `is_real` accepts that pass two gates, sorted by Re lambda.

    Also discarded: a mode whose |sigma| as solved (unit vectors) is below
    SIGMA_CERTIFY_FLOOR, too ill-conditioned to certify as real, and one whose
    max(residual_right, residual_left) exceeds `tol_residual` and
    SPURIOUS_RESIDUAL_RATIO times the median of the real modes within it.
    At W = I the result holds the kept modes as solved; on a W != I pencil it
    is `nearest_eigenpairs` at their eigenvalues, each mode refined on (H, W).
    """
    keep = is_real(es.lambdas, tol_im)
    res = np.maximum(es.residual_right, es.residual_left)
    sound = res[keep & (res <= tol_residual)]  # spurious modes alone set no bound
    ratio_bound = SPURIOUS_RESIDUAL_RATIO * np.median(sound) if len(sound) else 0.0
    keep &= (res <= max(tol_residual, ratio_bound)) & (np.abs(es.sigmas) >= SIGMA_CERTIFY_FLOOR)
    idx = np.flatnonzero(keep)
    if not len(idx):
        raise EmptySpectrum(f"no modes pass |Im| < {tol_im}*max(1,|Re|) and the two gates")
    idx = idx[np.argsort(es.lambdas.real[idx], kind="stable")]
    return es.take(idx) if es.pair.unit_weight else nearest_eigenpairs(es.pair, es.lambdas[idx])


def normalize_biorthogonal(es: Eigensystem, sigma_tol: float = 1e-12) -> Eigensystem:
    """Rescale double-kets so sigma_lam = <<lam|W|lam> = 1 exactly.

    Right kets are untouched.  The weighted Gram of the stored vectors after
    rescaling is kept on the result as `vector_gram`, as formed: a
    frame-backed system (W = I) rescales Y_L and forms Y_L^dag Y_R in its own
    arithmetic, real when the frame is, and `gram` rephases it to the kets'.
    """
    R, L = es.vectors
    WR = es.weights[:, np.newaxis] * R
    sig = np.einsum("ij,ij->j", L.conj(), WR)
    floor = sigma_tol * max(1.0, float(np.median(np.abs(sig))))
    if np.any(np.abs(sig) < floor):
        j = int(np.argmin(np.abs(sig)))
        raise SelfOrthogonalMode(
            f"mode {j} (lambda={es.lambdas[j]}) has |sigma|={abs(sig[j]):.3e} "
            "below threshold (exceptional point)"
        )
    L = L / sig.conj()
    return replace(
        es, vectors=(R, L), sigmas=np.ones(es.m, dtype=complex), vector_gram=L.conj().T @ WR
    )


def completeness_residual(es: Eigensystem) -> float:
    """|| sum_lam |lam> sigma^-1 <<lam| W  -  I ||_F / sqrt(n); full mode set only."""
    if es.m < es.pair.n:
        raise IncompleteBasis(f"m={es.m} < n={es.pair.n}: completeness is undefined")
    w = es.pair.w_diag
    T = (es.right / es.sigmas[np.newaxis, :]) @ (es.left.conj().T * w[np.newaxis, :])
    T[np.diag_indices_from(T)] -= 1.0
    return float(np.linalg.norm(T) / np.sqrt(es.pair.n))


def spectral_rebuild_residual(es: Eigensystem) -> float:
    """|| sum_lam W|lam> (lam/sigma) <<lam|W  -  H ||_F / ||H||_F; full mode set only."""
    if es.m < es.pair.n:
        raise IncompleteBasis(f"m={es.m} < n={es.pair.n}: rebuild is undefined")
    H, w = es.pair.H, es.pair.w_diag
    rebuilt = (w[:, np.newaxis] * es.right * (es.lambdas / es.sigmas)[np.newaxis, :]) @ (
        es.left.conj().T * w[np.newaxis, :]
    )
    return float(np.linalg.norm(rebuilt - H) / np.linalg.norm(H))


def apply_kappa(es: Eigensystem, kappa: np.ndarray) -> Eigensystem:
    """|lam> -> |lam>/kappa and <<lam| -> kappa*<<lam| simultaneously.

    sigma, completeness and rebuild residuals are invariant; the stored kets
    change, and Gram entry (i, j) moves by kappa_i / kappa_j.  The result
    stores kets and their Gram, also when `es` is held in the PT frame.
    """
    kappa = np.asarray(kappa, dtype=complex)
    if kappa.shape != (es.m,):
        raise ValueError(f"kappa must have shape ({es.m},), got {kappa.shape}")
    if np.any(np.abs(kappa) < 1e-300):
        raise ZeroKappa("kappa entries must be nonzero")
    gram = es.gram  # a new array, rescaled in place with the Gram as first factor
    if gram is not None:
        gram *= kappa[:, np.newaxis] / kappa[np.newaxis, :]
    return replace(
        es,
        vectors=(es.right / kappa[np.newaxis, :], es.left * kappa.conj()[np.newaxis, :]),
        phase=None,
        vector_gram=gram,
    )


def quasiparity_leftkets(es: Eigensystem) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate double-kets built from parity alone: bra_n = Q_n * (P|n>)^dag.

    P is the index reversal and Q_n = 1/<n|P W|n> under the sigma = 1
    convention (the weight in the overlap keeps it for W != I too).
    Returns (stored left columns, Q).  Compare against solved left vectors
    with collinearity_angles.
    """
    target = es.pair.w_diag[:, np.newaxis] * es.right
    overlaps = np.einsum("ij,ij->j", es.right.conj(), target[::-1])
    if np.any(np.abs(overlaps) < PARITY_OVERLAP_FLOOR):
        j = int(np.argmin(np.abs(overlaps)))
        raise VanishingParityOverlap(
            f"mode {j} (lambda={es.lambdas[j]}) has |<n|P W|n>|={abs(overlaps[j]):.3e}"
        )
    Q = 1.0 / overlaps
    kets = es.right[::-1] * Q.conj()[np.newaxis, :]
    return kets, Q


def collinearity_angles(es: Eigensystem, candidate_left: np.ndarray) -> np.ndarray:
    """Angle (radians) between each candidate left column and the solved one."""
    num = np.abs(np.einsum("ij,ij->j", candidate_left.conj(), es.left))
    den = np.linalg.norm(candidate_left, axis=0) * np.linalg.norm(es.left, axis=0)
    return np.arccos(np.clip(num / den, -1.0, 1.0))


def save_spectrum_csv(es: Eigensystem, path: str) -> None:
    """CSV columns: index, re_lambda, im_lambda, residual_right, residual_left, sigma_re, sigma_im."""
    header = ["index", "re_lambda", "im_lambda", "residual_right", "residual_left", "sigma_re", "sigma_im"]
    lam, sig = es.lambdas, es.sigmas
    columns = (lam.real, lam.imag, es.residual_right, es.residual_left, sig.real, sig.imag)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j, row in enumerate(zip(*columns)):
            writer.writerow([j] + [repr(float(x)) for x in row])
