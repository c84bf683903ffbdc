"""The spiral integration path, and the polynomial map from the straight line onto it.

A path is parametrized by the angle ``gamma`` in (-pi/2, pi/2).  The spiral
with winding number ``N`` winds ``N`` extra half-turns around the origin; the
``N = 0`` case degenerates to the straight shifted line ``x - i*epsilon``.
``unrectify`` sends the line point with angle ``gamma`` to the spiral point
with the same ``gamma``, so the grid route on the line and the shooting route
on the spiral trace one curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_int

__all__ = ["ContourSpec", "spiral", "unrectify"]


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


def unrectify(r: np.ndarray, winding: int) -> np.ndarray:
    """Line point r to spiral point z = -i * (i*r)^(2N+1), a polynomial map (no branch cut)."""
    return -1j * (1j * np.asarray(r, dtype=complex)) ** (2 * winding + 1)
