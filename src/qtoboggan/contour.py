"""The spiral integration path, and the rectification map onto the straight line.

A path is parametrized by the angle ``gamma`` in (-pi/2, pi/2).  The spiral
with winding number ``N`` winds ``N`` extra half-turns around the origin; the
``N = 0`` case degenerates to the straight shifted line ``x - i*epsilon``.
The rectified partner of a spiral point is the point on the straight line
with the same ``gamma``; the fractional-power branch is always fixed by the
parametrization, never by a principal cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_int

__all__ = [
    "ContourSpec",
    "spiral",
    "rectify",
    "unrectify",
    "winding_arg_span",
]


@dataclass(frozen=True)
class ContourSpec:
    """Geometry of an integration path.

    ``epsilon`` is the downward shift of the straight line (must be positive so
    the path avoids the origin); ``winding`` is the number of extra half-turns
    of the spiral.
    """

    epsilon: float
    winding: int = 0

    def __post_init__(self) -> None:
        if not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        require_int("winding", self.winding)
        if self.winding < 0:
            raise ConfigError(f"winding must be a non-negative integer, got {self.winding}")

    @property
    def degree(self) -> int:
        """Exponent 2N+1 of the conformal power map."""
        return 2 * self.winding + 1


def spiral(gammas: np.ndarray, epsilon: float, q: int):
    """z, dz/dg, and z''/z' along the winding contour at angles `gammas`.

    z = -i * rho^q * exp(i*q*gamma)  with  rho = epsilon/cos(gamma) and
    q = 2N+1; at q = 1 this is the straight line, i.e. the rectified partner.
    """
    if not np.all(np.abs(gammas) < np.pi / 2):
        raise ConfigError("gamma must lie in (-pi/2, pi/2)")
    t = np.tan(gammas)
    c = t + 1j
    rho = epsilon / np.cos(gammas)
    z = -1j * rho**q * np.exp(1j * q * gammas)
    zdot = q * z * c
    acc = q * c + (1.0 + t * t) / c
    return z, zdot, acc


def rectify(z: np.ndarray, gammas: np.ndarray, winding: int) -> np.ndarray:
    """Map spiral points z(gamma) to the straight line.

    The fractional power uses the parametrization branch arg(i*z) = (2N+1)*gamma:
    r = -i * |z|^(1/(2N+1)) * exp(i*gamma).  Rejects paths through z = 0.
    """
    mod = np.abs(z)
    if np.any(mod == 0.0):
        raise ConfigError("rectify: path crosses z = 0")
    return -1j * mod ** (1.0 / (2 * winding + 1)) * np.exp(1j * np.asarray(gammas))


def unrectify(r: np.ndarray, winding: int) -> np.ndarray:
    """Exact inverse of rectification: z = -i * (i*r)^(2N+1) (a polynomial map)."""
    return -1j * (1j * np.asarray(r, dtype=complex)) ** (2 * winding + 1)


def winding_arg_span(spec: ContourSpec, n_samples: int = 2001, margin: float = 1e-3) -> float:
    """Continuously tracked increase of arg(i*z(gamma)) across the path.

    Equals (2N+1)*pi in exact arithmetic (up to the gamma truncation margin);
    used by the winding invariant check.
    """
    gs = np.linspace(-np.pi / 2 + margin, np.pi / 2 - margin, n_samples)
    z, _, _ = spiral(gs, spec.epsilon, spec.degree)
    args = np.unwrap(np.angle(1j * z))
    return float(args[-1] - args[0])
