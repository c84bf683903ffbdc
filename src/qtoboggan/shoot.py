"""Direct shooting along the winding contour, with no rectification.

The wavefunction is integrated in the angle variable g of the contour
parametrization z(g) (|g| < pi/2), as a first-order system

    y1' = y2,    y2' = (z''/z') y2 + (z')^2 (U(z) - E) y1,

from both truncated ends toward the matching angle g = 0, the lowest point of
the contour.  Eigenvalues are the roots of the Wronskian mismatch of the two
half-path solutions.

A PT-symmetric model shoots along the right half-path only.  The spiral obeys
z(-g) = -conj z(g), and such a model has U(-conj z) = conj U(z), so the left
half-path is the mirror of the right one: its step widths are negated, z''/z'
is -conj, (z')^2 and U are conj.  The left pair at E is then
(v, d) = (conj v_R, -conj d_R) taken at conj(E), to the last bit.  A real E
costs one integration, and an E off the real axis adds conj(E) to the batch of
the right half-path.  The mirror needs the match at g = 0, the spiral's
symmetry point, and a real reference energy; every other model builds both
half-paths.

The system is linear in (y1, y2), so each classical RK4 step is a 2x2 matrix.
For a batch of energies the step matrices are built by the RK4 stages applied
to the basis vectors, vectorized over blocks of `_BLOCK` steps, and their
ordered product is reduced by pairwise tree multiplication, each partial
product rescaled by its largest entry.  The mismatch is invariant under a
positive scale of either half-path solution, so the rescaling changes nothing
it reads.

Truncation follows one rule, on a WKB growth estimate: the branch-continuous
local rate Re(w z') with w = sqrt(U - E_ref) is integrated outward, and each
half-path ends at the first profile point past the last oscillatory-to-growing
transition deep enough that the dominant/subdominant seed magnitude ratio
reaches `_SEED_RATIO`.  E_ref is the largest real part among the energies
asked for, the most demanding one.  Node density follows the same local rate
and 1/phase_resolution, so stretches are resolved uniformly in phase.

The turning angle, the truncation and the node density are all read off one
angle profile per half-path: 6,001 uniform points up to the knee at
|gamma| = 1.2 and 24,001 geometric ones from there to the cap.  The profile
only places nodes; the integration runs on the 2,400-5,700 nodes it places.
It is evaluated in blocks of `_PROFILE_BLOCK` points, with the square root's
branch carried from one block to the next.
On the harmonic line, the winding-1 cubic and the spiked oscillator, a
profile ten times denser moves no root by more than 3e-11 relative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contour import ContourSpec, spiral
from .errors import ConfigError, MergedRootWarning, NoConvergenceWarning, StepTooCoarseWarning
from .errors import require_int, require_real
from .model import ModelSpec

__all__ = [
    "ShootConfig",
    "integrate_halfpath",
    "find_eigenvalues",
    "scan_mismatch",
]

_GAMMA_CAP = np.pi / 2 - 0.015  # hard angle cap short of the coordinate singularity
# energies per block of step matrices: with the step blocks, one batch of 8
# energies traces 2.0x its step-matrix array (5.5 MiB at 5,655 steps)
_ENERGY_BLOCK = 8
# steps per block of the step-matrix kernel, and points per block of the angle
# profile: every entry is elementwise in its block, so the block edges change no
# bits.  The kernel's temporaries grow with energies x steps, so its blocks stay
# smaller: 2,048 there raised harmonic `compare`'s peak and saved no time
_BLOCK = 512
_PROFILE_BLOCK = 2048
# points of the angle profile per half-path: uniform up to the knee, then
# geometric toward the cap (see the module docstring)
_PROFILE_KNEE = 1.2
_PROFILE_HEAD = 6001
_PROFILE_TAIL = 24001
# integration steps per half-path; the shipped configs take 2,400-5,700
_MAX_NODES = 100_000
_PHASE_FLOOR = 16.0  # least phase per half-path, in rad: 800 nodes at the default 0.02
# dominant/subdominant seed magnitude ratio each half-path's end must reach
# past its last WKB turning angle
_SEED_RATIO = 1e12


@dataclass(frozen=True)
class ShootConfig:
    """Controls one shooting run; each half-path ends where `_SEED_RATIO` is reached.

    root_tol: convergence threshold on the normalized mismatch |F(E)|, in
        (0, 1).  |F| <= 1 by Cauchy-Schwarz, so a threshold of 1 or more
        would pass every guess at its second secant point, uniterated.
    max_iter: secant iteration cap per guess.
    phase_resolution: target local phase per step, a positive number.  The
        nodes have density |w z'|/phase_resolution + _PHASE_FLOOR/phase_resolution/span
        per unit angle, so halving it doubles the node density.
    """

    root_tol: float = 1e-9
    max_iter: int = 40
    phase_resolution: float = 0.02

    def __post_init__(self) -> None:
        require_int("max_iter", self.max_iter)
        if not 0 < require_real("root_tol", self.root_tol) < 1:
            raise ConfigError(f"root_tol must lie in (0, 1) as |F| <= 1, got {self.root_tol}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not require_real("phase_resolution", self.phase_resolution) > 0:
            raise ConfigError("phase_resolution must be positive")


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0 (scipy's arithmetic)."""
    acc = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return np.concatenate((np.zeros(1, dtype=acc.dtype), acc))


def _continuous_sqrt(
    vals: np.ndarray, carry: Tuple[Optional[complex], float]
) -> Tuple[np.ndarray, Tuple[complex, float]]:
    """Branch-tracked square root along a path (flips kept smaller than sums).

    `carry` is (last raw root, running sign) of the path before `vals`, or
    (None, 1.0) at its start; the carry past `vals` is returned with the roots.
    """
    w = np.sqrt(vals)
    last, sign = carry
    before = np.concatenate(([w[0] if last is None else last], w[:-1]))
    signs = sign * np.cumprod(np.where(np.abs(w - before) > np.abs(w + before), -1.0, 1.0))
    return w * signs, (w[-1], signs[-1])


@dataclass(eq=False)
class _HalfPath:
    """Integration grid and ODE coefficients for one half-path.

    The nodes run from the outer end to the match point.  The coefficients sit
    on one interleaved grid, node i at entry 2i and the midpoint of step i at
    2i+1, so step i takes its RK4 stages A, M and B from entries 2i to 2i+2.
    """

    side: str
    dg: np.ndarray  # the N step widths
    acc: np.ndarray  # z''/z' on the interleaved grid
    cc: np.ndarray  # (z')^2 on it
    U: np.ndarray  # potential on it
    zdot0: complex  # z' at the outer end
    max_phase: float


def _profile(
    model: ModelSpec, contour: ContourSpec, sgn: float, E_ref: complex
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t, w, z', rate) on the angle profile of one half-path.

    t = sgn*gamma ascends outward from just past the match angle 0 to the
    cap: `_PROFILE_HEAD` uniform points up to the knee, then `_PROFILE_TAIL`
    geometric ones.  w = sqrt(U - E_ref) is branch-continuous along it, and
    rate = Re(w z') is the local WKB growth rate, oriented outward.
    """
    head = np.linspace(1e-6, _PROFILE_KNEE, _PROFILE_HEAD)
    tail = np.pi / 2 - np.geomspace(np.pi / 2 - head[-1], np.pi / 2 - _GAMMA_CAP, _PROFILE_TAIL)
    t = np.concatenate([head, tail[1:]])
    w = np.empty(len(t), dtype=complex)
    zdot = np.empty_like(w)
    rate = np.empty(len(t))
    carry: Tuple[Optional[complex], float] = (None, 1.0)
    for lo in range(0, len(t), _PROFILE_BLOCK):
        blk = slice(lo, lo + _PROFILE_BLOCK)
        z, zdot[blk], _ = spiral(sgn * t[blk], contour.epsilon, contour.degree)
        w[blk], carry = _continuous_sqrt(model.potential(z) - E_ref, carry)
        rate[blk] = np.real(w[blk] * zdot[blk]) * sgn
    return t, w, zdot, rate


def _truncation(t: np.ndarray, rate: np.ndarray) -> Tuple[int, int]:
    """Profile indices (i_star, j) of the last oscillatory-to-growing transition
    and of the first point past it where the rate integrated from i_star
    reaches log(_SEED_RATIO)."""
    cum = _cumulative_trapezoid(rate, t)
    flips = np.nonzero(rate[:-1] * rate[1:] < 0)[0]
    i_star = int(flips[-1]) + 1 if len(flips) else 0
    depth = np.abs(cum - cum[i_star])
    depth[: i_star + 1] = 0.0
    margin = np.log(_SEED_RATIO)
    j = int(np.argmax(depth >= margin))
    if depth[j] < margin:
        raise ConfigError(
            f"cannot reach a seed ratio of {_SEED_RATIO:g} before the angle cap: the "
            "potential grows too weakly along this path to shoot it"
        )
    return i_star, j


def _build_halfpath(
    model: ModelSpec, contour: ContourSpec, side: str, E_ref: complex, cfg: ShootConfig
) -> _HalfPath:
    sgn = 1.0 if side == "right" else -1.0  # t = sgn*gamma ascends outward on both sides
    # a path too stiff to shoot overflows here; the step budget below refuses it by name
    with np.errstate(over="ignore", invalid="ignore"):
        t, w, zdot, rate = _profile(model, contour, sgn, E_ref)
        end = _truncation(t, rate)[1] + 1
        tm = t[:end]
        t_end = t[end - 1]
        res = cfg.phase_resolution
        dens = np.abs(w[:end] * zdot[:end]) / res + _PHASE_FLOOR / res / t_end
        ncum = _cumulative_trapezoid(dens, tm)
        total = np.ceil(ncum[-1])
        if not total <= _MAX_NODES:  # refused before anything of that size is allocated
            if not np.isfinite(total):
                count = "an overflowing count of"
            else:  # 16 or more digits read as a power of ten
                count = f"{total:.3g}" if total >= 1e15 else f"{total:,.0f}"
            raise ConfigError(
                f"{side} half-path needs {count} integration steps, over the budget of "
                f"{_MAX_NODES:,}: this potential is too steep to shoot along the spiral "
                "of this winding and epsilon"
            )
        targets = np.linspace(0.0, ncum[-1], int(total) + 1)
        nodes_t = np.interp(targets, ncum, tm)
        nodes_t[0] = 0.0
        nodes_t[-1] = t_end

    g = (sgn * nodes_t)[::-1].copy()  # integrate from the outer end toward the match
    dg = np.diff(g)
    grid = np.repeat(g, 2)[:-1]  # node i at entry 2i; each odd entry becomes a midpoint
    grid[1::2] = 0.5 * (g[:-1] + g[1:])
    z, zd, acc = spiral(grid, contour.epsilon, contour.degree)
    cc = zd * zd
    U = model.potential(z)
    max_phase = float(
        np.max(np.abs(np.sqrt(U[:-2:2] - E_ref)) * np.abs(np.sqrt(cc[:-2:2])) * np.abs(dg))
    )
    return _HalfPath(side, dg, acc, cc, U, complex(zd[0]), max_phase)


def _step_matrices(half: _HalfPath, E: np.ndarray) -> np.ndarray:
    """RK4 step matrices M[:, :, b, i] (shape (2, 2, energies, steps)).

    Each classical RK4 step of the linear system is applied to the basis
    vectors e1 and e2 at once; the results are the matrix columns.  The steps
    are taken `_BLOCK` at a time, which bounds the temporaries.
    """
    y1 = np.array([1.0, 0.0]).reshape(2, 1, 1)  # leading axis: basis vector (column)
    y2 = np.array([0.0, 1.0]).reshape(2, 1, 1)
    M = np.empty((2, 2, len(E), len(half.dg)), dtype=complex)
    for lo in range(0, len(half.dg), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        h = half.dg[blk]
        grid = slice(2 * lo, 2 * (lo + len(h)) + 1)  # the block's nodes and midpoints
        acc = half.acc[grid]  # stages A, M and B read the grid as [:-2:2], [1::2] and [2::2]
        c = half.cc[grid] * (half.U[grid] - E[:, None])  # (z')^2 (U - E), once per grid point
        cA, cM, cB = c[:, :-2:2], c[:, 1::2], c[:, 2::2]
        k1_1 = y2
        k1_2 = acc[:-2:2] * y2 + cA * y1
        t1 = y1 + 0.5 * h * k1_1
        t2 = y2 + 0.5 * h * k1_2
        k2_1 = t2
        k2_2 = acc[1::2] * t2 + cM * t1
        t1 = y1 + 0.5 * h * k2_1
        t2 = y2 + 0.5 * h * k2_2
        k3_1 = t2
        k3_2 = acc[1::2] * t2 + cM * t1
        t1 = y1 + h * k3_1
        t2 = y2 + h * k3_2
        k4_1 = t2
        k4_2 = acc[2::2] * t2 + cB * t1
        M[0, ..., blk] = y1 + (h / 6.0) * (k1_1 + 2.0 * (k2_1 + k3_1) + k4_1)
        M[1, ..., blk] = y2 + (h / 6.0) * (k1_2 + 2.0 * (k2_2 + k3_2) + k4_2)
    return M


def _ordered_product(M: np.ndarray) -> np.ndarray:
    """M[..., n-1] @ ... @ M[..., 0] by pairwise tree multiplication.

    Every partial product is divided by its largest entry, so the result is
    the true product up to a positive factor per energy; the mismatch is
    invariant under such factors.
    """
    while M.shape[-1] > 1:
        m = M.shape[-1]
        even = m - m % 2
        P = np.einsum("ikbn,kjbn->ijbn", M[..., 1:even:2], M[..., 0:even:2])
        if even < m:
            P = np.concatenate([P, M[..., even:]], axis=-1)
        P /= np.abs(P).max(axis=(0, 1))
        M = P
    return M[..., 0]


def _integrate_batch(half: _HalfPath, Es: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(y1, y2) at the match point, up to a positive factor per energy.

    The subdominant seed (1, s*slope) at the outer end is carried by the
    ordered product of the RK4 step matrices, built in blocks of
    `_ENERGY_BLOCK` energies to bound the temporaries.
    """
    E = np.asarray(Es, dtype=complex)
    slope = np.sqrt(half.U[0] - E) * half.zdot0
    s = np.where(slope.real * np.sign(half.dg[0]) > 0, 1.0, -1.0)
    seed = s * slope
    y1 = np.empty_like(E)
    y2 = np.empty_like(E)
    for lo in range(0, len(E), _ENERGY_BLOCK):
        blk = slice(lo, lo + _ENERGY_BLOCK)
        P = _ordered_product(_step_matrices(half, E[blk]))
        y1[blk] = P[0, 0] + P[0, 1] * seed[blk]
        y2[blk] = P[1, 0] + P[1, 1] * seed[blk]
    return y1, y2


def _mismatch(halves: Tuple[_HalfPath, ...], Es: np.ndarray) -> np.ndarray:
    """Normalized Wronskian mismatch F(E) of the (left, right) half-paths.

    Handed the right half-path alone, it reads the left pair at E off the
    right pair at conj(E) as its mirror (see the module docstring).
    """
    if len(halves) == 2:
        vL, dL = _integrate_batch(halves[0], Es)
        vR, dR = _integrate_batch(halves[1], Es)
    else:
        off = Es.imag != 0  # these add conj(E) to the batch
        v, d = _integrate_batch(halves[0], np.concatenate((Es, Es[off].conj())))
        n = len(Es)
        vR, dR = v[:n], d[:n]
        vL, dL = vR.conj(), -dR.conj()
        vL[off], dL[off] = v[n:].conj(), -d[n:].conj()
    scale = np.hypot(np.abs(vL), np.abs(dL)) * np.hypot(np.abs(vR), np.abs(dR))
    return (vL * dR - vR * dL) / scale


def _halfpaths(
    model: ModelSpec,
    contour: ContourSpec,
    cfg: ShootConfig,
    E_ref: complex,
    sides: Optional[Tuple[str, ...]] = None,
) -> Tuple[_HalfPath, ...]:
    """Build the half-paths of `sides`, warning once for each whose steps are too coarse.

    By default a PT-symmetric model builds the right half-path alone, its
    mirror standing in for the left one (E_ref must be real), and any other
    model builds the left and the right one.  The warning is attributed to
    the caller of the public function that called this one.
    """
    mirrored = sides is None and model.pt_flag
    if sides is None:
        sides = ("right",) if mirrored else ("left", "right")
    halves = tuple(_build_halfpath(model, contour, side, E_ref, cfg) for side in sides)
    for half in halves:
        if half.max_phase > 0.7:
            name = f"{half.side} half-path" + (" (the left one is its mirror)" if mirrored else "")
            warnings.warn(
                f"{name}: max local phase per step {half.max_phase:.2f} > 0.7, "
                "results may be inaccurate (decrease phase_resolution)",
                StepTooCoarseWarning,
                stacklevel=3,
            )
    return halves


def integrate_halfpath(
    model: ModelSpec,
    E: complex,
    side: str,
    cfg: ShootConfig,
    contour: ContourSpec,
) -> Tuple[complex, complex]:
    """(value, d/dgamma) of the subdominant-seeded solution at the match angle.

    The pair is known up to a positive factor: the integration rescales it.
    """
    if side not in ("left", "right"):
        raise ConfigError(f"side must be 'left' or 'right', got {side!r}")
    (half,) = _halfpaths(model, contour, cfg, E, sides=(side,))
    v, d = _integrate_batch(half, np.array([E], dtype=complex))
    return complex(v[0]), complex(d[0])


def find_eigenvalues(
    model: ModelSpec,
    contour: ContourSpec,
    cfg: ShootConfig,
    search: Sequence[complex],
) -> np.ndarray:
    """Secant iteration on the Wronskian mismatch F(E) from each initial guess.

    Returns converged roots (|F| < root_tol), deduplicated and sorted by real
    part.  Guesses that fail to converge are reported with a
    NoConvergenceWarning and dropped; coinciding roots of different guesses
    are kept once, with a MergedRootWarning.
    """
    guesses = np.asarray(list(search), dtype=complex)
    if guesses.size == 0:
        return np.array([], dtype=complex)
    E_ref = complex(np.max(guesses.real))
    halves = _halfpaths(model, contour, cfg, E_ref)

    E0 = guesses.copy()
    E1 = guesses * (1.0 + 1e-4) + 1e-4
    F0 = _mismatch(halves, E0)
    F1 = _mismatch(halves, E1)
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
        if np.any(active):
            F1[active] = _mismatch(halves, E1[active])
        converged |= np.abs(F1) < cfg.root_tol
    for j in np.nonzero(~converged)[0]:
        warnings.warn(
            f"guess {guesses[j]} did not converge (last |F|={abs(F1[j]):.3e})",
            NoConvergenceWarning,
            stacklevel=2,
        )
    roots, absF, start = E1[converged], np.abs(F1[converged]), guesses[converged]
    order = np.lexsort((roots.imag, roots.real))
    roots, absF, start = roots[order], absF[order], start[order]
    kept: List[list] = []  # [root, its |F|, the guesses that found it]
    for r, f, g in zip(roots, absF, start):
        if kept and abs(r - kept[-1][0]) <= 1e-7 * max(1.0, abs(r)):
            kept[-1][2].append(g)
            if f < kept[-1][1]:
                kept[-1][:2] = r, f
        else:
            kept.append([complex(r), float(f), [g]])
    for root, _, found_from in kept:
        if len(found_from) > 1:
            named = ", ".join(f"{g:g}" for g in found_from)
            message = f"guesses {named} converged to one root; kept once as {root:g}"
            warnings.warn(message, MergedRootWarning, stacklevel=2)
    return np.array([root for root, _, _ in kept], dtype=complex)


def pair_nearest(a: np.ndarray, b: np.ndarray) -> Dict[int, int]:
    """One entry of b per entry of a, nearest pairs first: {index in a: index in b}."""
    dist = np.abs(a[:, np.newaxis] - b[np.newaxis, :])
    pairs: Dict[int, int] = {}
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, j = divmod(int(flat), len(b))
        if i not in pairs and j not in pairs.values():
            pairs[i] = j
    return pairs


def scan_mismatch(
    model: ModelSpec,
    contour: ContourSpec,
    cfg: ShootConfig,
    energies: Sequence[complex],
) -> np.ndarray:
    """|F(E)| over an energy grid (root-locus plotting; minima flag eigenvalues)."""
    Es = np.asarray(list(energies), dtype=complex)
    E_ref = complex(np.max(Es.real))
    return np.abs(_mismatch(_halfpaths(model, contour, cfg, E_ref), Es))
