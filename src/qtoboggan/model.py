"""Physical models (centrifugal + polynomial potential) and their rectified images.

Rectification is the literal image of the winding-N spiral problem under
z = -i (i r)^(2N+1): dz/dr = (2N+1)(i r)^(2N), so (dz/dr)^2 = (2N+1)^2 r^(4N)
is the weight on the eigenvalue side, and the rectified potential is the
spiral one pulled back through z(r) and multiplied by that weight, plus the
Schwarzian term ((2N+1)^2 - 1)/(4 r^2) of the map.  Evaluating V(z(r)) keeps
the branch of every z^k that the spiral fixes: reflecting r -> -r carries the
line Im r = -eps across the pole at r = 0, so a frame that loses the sign of
z^k keeps the spectrum only when the solutions are single-valued around
r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .contour import ContourSpec, unrectify
from .errors import ConfigError, require_int, require_keys, require_real

__all__ = [
    "ModelSpec",
    "RectifiedModel",
    "rectify_model",
    "model_from_dict",
]


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
            require_int("potential power", k)
            if k < 1:
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
    """Image of a ModelSpec on the straight line at winding N."""

    spec: ModelSpec
    winding: int

    @property
    def pt_flag(self) -> bool:
        return self.spec.pt_flag

    def potential(self, r: np.ndarray) -> np.ndarray:
        """(dz/dr)^2 V(z(r)), plus ((2N+1)^2 - 1)/(4 r^2) when N >= 1, vectorized."""
        r = np.asarray(r, dtype=complex)
        out = self.weight(r) * self.spec.potential(unrectify(r, self.winding))
        if self.winding:
            q = 2 * self.winding + 1
            out = out + (q * q - 1) / (4 * r**2)
        return out

    def weight(self, r: np.ndarray) -> np.ndarray:
        """Weight multiplier W(r) = (dz/dr)^2 = (2N+1)^2 r^(4N), vectorized."""
        r = np.asarray(r, dtype=complex)
        return (2 * self.winding + 1) ** 2 * r ** (4 * self.winding)

    def dzdr(self, r: np.ndarray) -> np.ndarray:
        """dz/dr = (2N+1)(i r)^(2N), the square root of `weight` with no branch cut, vectorized."""
        return (2 * self.winding + 1) * (1j * np.asarray(r, dtype=complex)) ** (2 * self.winding)


def rectify_model(spec: ModelSpec, winding: int) -> RectifiedModel:
    """The rectified model at winding N."""
    require_int("winding", winding)
    if winding < 0:
        raise ConfigError(f"winding must be a non-negative integer, got {winding}")
    return RectifiedModel(spec=spec, winding=int(winding))


def model_from_dict(payload: dict) -> Tuple[ModelSpec, ContourSpec]:
    """Build (ModelSpec, ContourSpec) from a config's model section; unknown keys are errors."""
    require_keys("model", payload, {"ell", "omega", "coeffs", "winding", "epsilon"})
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
