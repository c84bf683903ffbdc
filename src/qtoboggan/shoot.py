"""Direct shooting along the winding contour, with no rectification.

The wavefunction is integrated in the angle variable g of the contour
parametrization z(g) (|g| < pi/2), as a first-order system

    y1' = y2,    y2' = (z''/z') y2 + (z')^2 (U(z) - E) y1,

from both truncated ends toward a matching angle.  Eigenvalues are the roots
of the Wronskian mismatch of the two half-path solutions.

Truncation is chosen on a WKB growth estimate: the branch-continuous local
rate Re(w z') with w = sqrt(U - E_ref) is integrated outward, and the end is
placed past the last oscillatory-to-growing transition, deep enough that the
dominant/subdominant seed magnitude ratio exceeds `seed_ratio`.  Node density
follows the same local rate, so oscillatory and stiff stretches are resolved
uniformly in phase.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .contour import ContourSpec, spiral
from .errors import ConfigError, NoConvergenceWarning, StepTooCoarseWarning
from .model import ModelSpec

__all__ = [
    "ShootConfig",
    "integrate_halfpath",
    "find_eigenvalues",
    "scan_mismatch",
    "save_scan_csv",
]

logger = logging.getLogger(__name__)

_GAMMA_CAP = np.pi / 2 - 0.015  # hard angle cap short of the coordinate singularity
_RENORM_LIMIT = 1e50


@dataclass(frozen=True)
class ShootConfig:
    """Controls one shooting run.

    gamma_max: explicit truncation angle (< pi/2); None selects it
        automatically from the seed-ratio rule at the reference energy.
    steps: minimum number of integration steps per half-path (>= 100).
    match_gamma: matching angle (default 0, the lowest point of the contour).
    root_tol: convergence threshold on the normalized mismatch |F(E)|.
    max_iter: secant iteration cap per guess.
    phase_resolution: target local phase per step for the adaptive grid;
        None disables adaptivity (uniform grid with exactly `steps` steps).
    seed_ratio: dominant/subdominant magnitude ratio the truncation must
        reach beyond the last WKB turning angle.
    """

    gamma_max: Optional[float] = None
    steps: int = 800
    match_gamma: float = 0.0
    root_tol: float = 1e-9
    max_iter: int = 40
    phase_resolution: Optional[float] = 0.02
    seed_ratio: float = 1e12

    def __post_init__(self) -> None:
        if self.gamma_max is not None and not (self.match_gamma < self.gamma_max < np.pi / 2):
            raise ConfigError(
                f"gamma_max must lie in (match_gamma, pi/2), got {self.gamma_max}"
            )
        if self.steps < 100:
            raise ConfigError(f"steps must be >= 100, got {self.steps}")
        if not (0.0 <= self.match_gamma < 1.4):
            raise ConfigError(f"match_gamma must lie in [0, 1.4), got {self.match_gamma}")
        if not (self.root_tol > 0):
            raise ConfigError("root_tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.phase_resolution is not None and not (self.phase_resolution > 0):
            raise ConfigError("phase_resolution must be positive or None")
        if not (self.seed_ratio > 1):
            raise ConfigError("seed_ratio must exceed 1")


def _continuous_sqrt(vals: np.ndarray) -> np.ndarray:
    """Branch-tracked square root along a path (flips kept smaller than sums)."""
    w = np.sqrt(vals)
    flip = np.abs(np.diff(w)) > np.abs(w[1:] + w[:-1])
    signs = np.ones(len(w))
    signs[1:] = np.where(flip, -1.0, 1.0)
    return w * np.cumprod(signs)


@dataclass(eq=False)
class _HalfPath:
    """Precomputed integration grid and ODE coefficients for one half-path."""

    side: str
    gammas: np.ndarray  # integration order: outer end -> match point
    dg: np.ndarray
    accA: np.ndarray
    accM: np.ndarray
    accB: np.ndarray
    ccA: np.ndarray
    ccM: np.ndarray
    ccB: np.ndarray
    UA: np.ndarray
    UM: np.ndarray
    UB: np.ndarray
    zdot0: complex
    U0: complex
    max_phase: float


def _build_halfpath(
    model: ModelSpec, epsilon: float, q: int, side: str, E_ref: complex, cfg: ShootConfig
) -> _HalfPath:
    sgn = 1.0 if side == "right" else -1.0
    t_lo = sgn * cfg.match_gamma  # t = sgn*gamma is ascending outward on both sides
    a = t_lo + 1e-6
    if a >= _GAMMA_CAP:
        raise ConfigError("match_gamma leaves no room before the angle cap")
    knee = min(max(1.2, a + 1e-3), _GAMMA_CAP - 1e-3)
    head = np.linspace(a, knee, 60001)
    tail = np.pi / 2 - np.geomspace(np.pi / 2 - knee, np.pi / 2 - _GAMMA_CAP, 240001)
    t = np.concatenate([head, tail[1:]])

    g_prof = sgn * t
    z, zdot, _ = spiral(g_prof, epsilon, q)
    U = model.potential(z)
    w = _continuous_sqrt(U - E_ref)
    rate = np.real(w * zdot) * sgn
    cum = cumulative_trapezoid(rate, t, initial=0.0)

    if cfg.gamma_max is not None:
        t_end = cfg.gamma_max
    else:
        flips = np.nonzero(rate[:-1] * rate[1:] < 0)[0]
        i_star = int(flips[-1]) + 1 if len(flips) else 0
        depth = np.abs(cum - cum[i_star])
        depth[: i_star + 1] = 0.0
        margin = np.log(cfg.seed_ratio)
        j = int(np.argmax(depth >= margin))
        if depth[j] < margin:
            raise ConfigError(
                "cannot reach the requested seed ratio before the angle cap; "
                "the asymptotic growth is too weak (reduce seed_ratio, supply "
                "gamma_max explicitly, or use a complex reference energy)"
            )
        t_end = float(t[j])

    if cfg.phase_resolution is None:
        nodes_t = np.linspace(t_lo, t_end, max(cfg.steps, 100) + 1)
    else:
        mask = t <= t_end + 1e-12
        tm = t[mask]
        span = max(t_end - t_lo, 1e-6)
        dens = np.abs(w[mask] * zdot[mask]) / cfg.phase_resolution + max(
            300.0, cfg.steps / span
        )
        ncum = cumulative_trapezoid(dens, tm, initial=0.0)
        total = int(max(np.ceil(ncum[-1]), cfg.steps, 100))
        targets = np.linspace(0.0, ncum[-1], total + 1)
        nodes_t = np.interp(targets, ncum, tm)
        nodes_t[0] = t_lo
        nodes_t[-1] = t_end

    g = (sgn * nodes_t)[::-1].copy()  # integrate from the outer end toward the match
    dg = np.diff(g)
    gA, gB = g[:-1], g[1:]
    gM = 0.5 * (gA + gB)
    out = {}
    for tag, gx in (("A", gA), ("M", gM), ("B", gB)):
        zx, zdx, accx = spiral(gx, epsilon, q)
        out["acc" + tag] = accx
        out["cc" + tag] = zdx * zdx
        out["U" + tag] = model.potential(zx)
    z0, zd0, _ = spiral(np.array([g[0]]), epsilon, q)
    U0 = complex(model.potential(z0)[0])
    max_phase = float(
        np.max(np.abs(np.sqrt(out["UA"] - E_ref)) * np.abs(np.sqrt(out["ccA"])) * np.abs(dg))
    )
    return _HalfPath(
        side=side,
        gammas=g,
        dg=dg,
        zdot0=complex(zd0[0]),
        U0=U0,
        max_phase=max_phase,
        **out,
    )


def _integrate_batch(half: _HalfPath, Es: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Classical RK4 over the precomputed grid, vectorized over the energy batch."""
    E = np.asarray(Es, dtype=complex)
    if half.max_phase > 0.7:
        warnings.warn(
            f"{half.side} half-path: max local phase per step {half.max_phase:.2f} > 0.7, "
            "results may be inaccurate (increase steps or decrease phase_resolution)",
            StepTooCoarseWarning,
            stacklevel=2,
        )
    slope = np.sqrt(half.U0 - E) * half.zdot0
    sgn_h = np.sign(half.dg[0])
    s = np.where(slope.real * sgn_h > 0, 1.0, -1.0)
    y1 = np.ones_like(E)
    y2 = s * slope
    renorms = 0
    dg = half.dg
    for i in range(len(dg)):
        h = dg[i]
        uA = half.UA[i] - E
        uM = half.UM[i] - E
        uB = half.UB[i] - E
        k1_1 = y2
        k1_2 = half.accA[i] * y2 + half.ccA[i] * uA * y1
        t1 = y1 + 0.5 * h * k1_1
        t2 = y2 + 0.5 * h * k1_2
        k2_1 = t2
        k2_2 = half.accM[i] * t2 + half.ccM[i] * uM * t1
        t1 = y1 + 0.5 * h * k2_1
        t2 = y2 + 0.5 * h * k2_2
        k3_1 = t2
        k3_2 = half.accM[i] * t2 + half.ccM[i] * uM * t1
        t1 = y1 + h * k3_1
        t2 = y2 + h * k3_2
        k4_1 = t2
        k4_2 = half.accB[i] * t2 + half.ccB[i] * uB * t1
        y1 = y1 + (h / 6.0) * (k1_1 + 2.0 * (k2_1 + k3_1) + k4_1)
        y2 = y2 + (h / 6.0) * (k1_2 + 2.0 * (k2_2 + k3_2) + k4_2)
        mm = np.maximum(np.abs(y1), np.abs(y2))
        big = mm > _RENORM_LIMIT
        if np.any(big):
            y1 = np.where(big, y1 / mm, y1)
            y2 = np.where(big, y2 / mm, y2)
            renorms += int(big.sum())
    if renorms:
        logger.debug("%s half-path: %d renormalizations over the batch", half.side, renorms)
    return y1, y2


def _mismatch(halfL: _HalfPath, halfR: _HalfPath, Es: np.ndarray) -> np.ndarray:
    vL, dL = _integrate_batch(halfL, Es)
    vR, dR = _integrate_batch(halfR, Es)
    scale = np.hypot(np.abs(vL), np.abs(dL)) * np.hypot(np.abs(vR), np.abs(dR))
    return (vL * dR - vR * dL) / scale


def _halfpaths(
    model: ModelSpec,
    N: int,
    contour: ContourSpec,
    cfg: ShootConfig,
    E_ref: complex,
    sides: Tuple[str, ...] = ("left", "right"),
) -> Tuple[_HalfPath, ...]:
    if contour.winding != N:
        raise ConfigError(f"contour.winding={contour.winding} does not match N={N}")
    return tuple(
        _build_halfpath(model, contour.epsilon, contour.degree, side, E_ref, cfg) for side in sides
    )


def integrate_halfpath(
    model: ModelSpec,
    N: int,
    E: complex,
    side: str,
    cfg: ShootConfig,
    contour: ContourSpec,
) -> Tuple[complex, complex]:
    """(value, d/dgamma) of the subdominant-seeded solution at the match angle."""
    if side not in ("left", "right"):
        raise ConfigError(f"side must be 'left' or 'right', got {side!r}")
    (half,) = _halfpaths(model, N, contour, cfg, E, sides=(side,))
    v, d = _integrate_batch(half, np.array([E], dtype=complex))
    return complex(v[0]), complex(d[0])


def find_eigenvalues(
    model: ModelSpec,
    N: int,
    contour: ContourSpec,
    cfg: ShootConfig,
    search: Sequence[complex],
) -> np.ndarray:
    """Secant iteration on the Wronskian mismatch F(E) from each initial guess.

    Returns converged roots (|F| < root_tol), deduplicated and sorted by real
    part.  Guesses that fail to converge are reported with a
    NoConvergenceWarning and dropped.
    """
    guesses = np.asarray(list(search), dtype=complex)
    if guesses.size == 0:
        return np.array([], dtype=complex)
    E_ref = complex(np.median(guesses.real))
    halfL, halfR = _halfpaths(model, N, contour, cfg, E_ref)

    E0 = guesses.copy()
    E1 = guesses * (1.0 + 1e-4) + 1e-4
    F0 = _mismatch(halfL, halfR, E0)
    F1 = _mismatch(halfL, halfR, E1)
    failed = np.zeros(len(guesses), dtype=bool)
    converged = np.abs(F1) < cfg.root_tol
    for _ in range(cfg.max_iter):
        active = ~(converged | failed)
        if not np.any(active):
            break
        dF = F1 - F0
        bad = active & ((dF == 0) | ~np.isfinite(dF))
        failed |= bad
        active &= ~bad
        step = np.where(active, F1 * (E1 - E0) / np.where(dF == 0, 1.0, dF), 0.0)
        E2 = E1 - step
        runaway = active & (np.abs(E2) > 1e6)
        failed |= runaway
        active &= ~runaway
        E0 = np.where(active, E1, E0)
        F0 = np.where(active, F1, F0)
        E1 = np.where(active, E2, E1)
        F_new = _mismatch(halfL, halfR, E1[active]) if np.any(active) else None
        if F_new is not None:
            F1 = F1.copy()
            F1[active] = F_new
        converged |= np.abs(F1) < cfg.root_tol
    failed |= ~converged
    for j in np.nonzero(failed & ~converged)[0]:
        warnings.warn(
            f"guess {guesses[j]} did not converge (last |F|={abs(F1[j]):.3e})",
            NoConvergenceWarning,
            stacklevel=2,
        )
    roots = E1[converged]
    absF = np.abs(F1[converged])
    order = np.lexsort((roots.imag, roots.real))
    roots, absF = roots[order], absF[order]
    kept: List[complex] = []
    kept_f: List[float] = []
    for r, f in zip(roots, absF):
        if kept and abs(r - kept[-1]) <= 1e-7 * max(1.0, abs(r)):
            if f < kept_f[-1]:
                kept[-1], kept_f[-1] = r, f
        else:
            kept.append(complex(r))
            kept_f.append(float(f))
    return np.array(kept, dtype=complex)


def scan_mismatch(
    model: ModelSpec,
    N: int,
    contour: ContourSpec,
    cfg: ShootConfig,
    energies: Sequence[complex],
) -> np.ndarray:
    """|F(E)| over an energy grid (root-locus plotting; minima flag eigenvalues)."""
    Es = np.asarray(list(energies), dtype=complex)
    E_ref = complex(np.median(Es.real))
    halfL, halfR = _halfpaths(model, N, contour, cfg, E_ref)
    return np.abs(_mismatch(halfL, halfR, Es))


def save_scan_csv(path: str, energies: Sequence[complex], abs_F: np.ndarray) -> None:
    """CSV columns: re_E, im_E, abs_F."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_E", "im_E", "abs_F"])
        for E, f in zip(energies, abs_F):
            writer.writerow([repr(float(np.real(E))), repr(float(np.imag(E))), repr(float(f))])
