"""Physical models (centrifugal + polynomial potential) and their rectified images.

Rectification maps the winding-N spiral problem onto the straight shifted
line.  Each potential term c_k z^k becomes a term in r with exactly computed
integer-valued rational exponent k*(2N+1) + 4N, the centrifugal strength
moves from ell to L = (2N+1)(ell + 1/2) - 1/2, and a weight multiplier
(2N+1)^2 * r^(4N) appears on the eigenvalue side of the equation.

The sign of the odd-power branch phases is convention-dependent; both
choices are implemented behind the ``convention`` switch.  ``"mechanical"``
multiplies c_k by (-1)^(N*k), which is what the literal contour
parametrization z = -i (i r)^(2N+1) induces; the default ``"printed"``
keeps the sign of c_k.  The two differ exactly when N and k are both odd --
and in that case they are each other's parity conjugate (every rectified
power k(2N+1)+4N is then odd, while the weight and centrifugal parts are
even), i.e. the two parity-related line frames of one and the same spiral
problem.  They are therefore exactly isospectral; eigenvalues, including
the direct spiral-shooting cross-check in the test suite, agree under both
and the choice only fixes which end of the line maps to which end of the
spiral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Sequence, Tuple

import numpy as np

from .contour import ContourSpec
from .errors import ConfigError, require_int, require_real

__all__ = [
    "ModelSpec",
    "RectifiedModel",
    "rectify_model",
    "wavefunction_pullback",
    "wavefunction_pushforward",
    "model_from_dict",
    "CONVENTIONS",
]

CONVENTIONS = ("printed", "mechanical")


@dataclass(frozen=True)
class ModelSpec:
    """Potential V(z) = sum_k c_k z^k plus a centrifugal term ell(ell+1)/z^2.

    ``omega`` is a convenience: a nonzero value adds omega^2 to c_2.
    """

    ell: float = 0.0
    coeffs: Dict[int, complex] = field(default_factory=dict)
    omega: float = 0.0

    def __post_init__(self) -> None:
        for k in self.coeffs:
            if int(k) != k or k < 1:
                raise ConfigError(f"potential powers must be integers >= 1, got {k}")

    @property
    def effective_coeffs(self) -> Dict[int, complex]:
        """Coefficient map with the omega convenience folded into c_2."""
        out = {int(k): complex(c) for k, c in self.coeffs.items()}
        if self.omega != 0.0:
            out[2] = out.get(2, 0.0) + complex(self.omega) ** 2
        return {k: c for k, c in sorted(out.items()) if c != 0}

    @property
    def has_centrifugal(self) -> bool:
        return self.ell * (self.ell + 1.0) != 0.0

    @property
    def pt_flag(self) -> bool:
        """True iff c_k is real for even k and purely imaginary for odd k."""
        for k, c in self.effective_coeffs.items():
            scale = max(1.0, abs(c))
            if k % 2 == 0 and abs(c.imag) > 1e-14 * scale:
                return False
            if k % 2 == 1 and abs(c.real) > 1e-14 * scale:
                return False
        return True

    def potential(self, z: np.ndarray) -> np.ndarray:
        """V(z) including the centrifugal term, vectorized over z."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        if self.has_centrifugal:
            out = out + self.ell * (self.ell + 1.0) / z**2
        for k, c in self.effective_coeffs.items():
            out = out + c * z**k
        return out


@dataclass(frozen=True)
class RectifiedModel:
    """Rectified image of a ModelSpec at winding N.

    ``rect_coeffs`` maps exact rational powers of r to coefficients (the
    centrifugal part is carried by L, not stored in the map); the weight
    multiplier is weight_prefactor * r^weight_power.
    """

    L: float
    rect_coeffs: Dict[Fraction, complex]
    weight_prefactor: float
    weight_power: int
    winding: int
    convention: str = "printed"
    pt_flag: bool = False

    @property
    def has_centrifugal(self) -> bool:
        return self.L * (self.L + 1.0) != 0.0

    def potential(self, r: np.ndarray) -> np.ndarray:
        """Rectified potential evaluated on the line, vectorized."""
        r = np.asarray(r, dtype=complex)
        out = np.zeros_like(r)
        if self.has_centrifugal:
            out = out + self.L * (self.L + 1.0) / r**2
        for p, c in self.rect_coeffs.items():
            out = out + c * r ** float(p)
        return out

    def weight(self, r: np.ndarray) -> np.ndarray:
        """Weight multiplier W(r) = prefactor * r^power, vectorized."""
        r = np.asarray(r, dtype=complex)
        return self.weight_prefactor * r ** self.weight_power


def rectify_model(spec: ModelSpec, winding: int, convention: str = "printed") -> RectifiedModel:
    """Derive the rectified model at winding N.

    Each term c_k z^k maps to beta_k * c_k * (2N+1)^2 * r^(k(2N+1)+4N) where
    beta_k is +1 under the "printed" convention and (-1)^(N k) under the
    "mechanical" one; exponent arithmetic is exact rational.
    """
    if winding < 0 or int(winding) != winding:
        raise ConfigError(f"winding must be a non-negative integer, got {winding}")
    if convention not in CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}, expected one of {CONVENTIONS}")
    n = int(winding)
    q = 2 * n + 1
    L = q * (spec.ell + 0.5) - 0.5
    rect: Dict[Fraction, complex] = {}
    for k, c in spec.effective_coeffs.items():
        if convention == "printed":
            beta = 1.0
        else:
            beta = (-1.0) ** (n * k)
        p = Fraction(k * q + 4 * n)
        rect[p] = rect.get(p, 0.0) + beta * complex(c) * q**2
    return RectifiedModel(
        L=L,
        rect_coeffs=rect,
        weight_prefactor=float(q**2),
        weight_power=4 * n,
        winding=n,
        convention=convention,
        pt_flag=spec.pt_flag,
    )


def _branch_power(z: np.ndarray, gammas: np.ndarray, winding: int, exponent: float) -> np.ndarray:
    """z^exponent along the path with the branch arg(z) = (2N+1)*gamma - pi/2."""
    mod = np.abs(z)
    if np.any(mod == 0.0):
        raise ConfigError("wavefunction pullback: path crosses z = 0")
    arg = (2 * winding + 1) * np.asarray(gammas) - np.pi / 2
    return np.exp(exponent * (np.log(mod) + 1j * arg))


def wavefunction_pullback(
    phi_values: Sequence[complex], z: np.ndarray, gammas: np.ndarray, winding: int
) -> np.ndarray:
    """Pull spiral wavefunction samples back to the line: psi = z^(-N/(2N+1)) * phi.

    The fractional power is evaluated on the branch fixed by the angles `gammas`
    of the spiral points `z`.
    """
    if len(phi_values) != len(z):
        raise ConfigError("phi_values and z must have equal length")
    factor = _branch_power(z, gammas, winding, -winding / (2 * winding + 1))
    return np.asarray(phi_values, dtype=complex) * factor


def wavefunction_pushforward(
    psi_values: Sequence[complex], z: np.ndarray, gammas: np.ndarray, winding: int
) -> np.ndarray:
    """Exact inverse of wavefunction_pullback: phi = z^(+N/(2N+1)) * psi."""
    if len(psi_values) != len(z):
        raise ConfigError("psi_values and z must have equal length")
    factor = _branch_power(z, gammas, winding, winding / (2 * winding + 1))
    return np.asarray(psi_values, dtype=complex) * factor


def model_from_dict(payload: dict) -> Tuple[ModelSpec, ContourSpec]:
    """Build (ModelSpec, ContourSpec) from a config's model section; unknown keys are errors."""
    if not isinstance(payload, dict):
        raise ConfigError(f"model section must be an object, got {payload!r}")
    allowed = {"ell", "omega", "coeffs", "winding", "epsilon"}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    try:
        coeffs = {}
        for k, re, im in payload.get("coeffs", []):
            require_int("model.coeffs power", k)
            if k in coeffs:
                raise ConfigError(f"model.coeffs lists power {k} twice")
            coeffs[k] = complex(require_real("model.coeffs", re), require_real("model.coeffs", im))
        spec = ModelSpec(
            ell=require_real("model.ell", payload.get("ell", 0.0)),
            coeffs=coeffs,
            omega=require_real("model.omega", payload.get("omega", 0.0)),
        )
        cont = ContourSpec(
            epsilon=require_real("model.epsilon", payload["epsilon"]),
            winding=payload.get("winding", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model description: {exc}") from exc
    return spec, cont
