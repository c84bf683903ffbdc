#!/usr/bin/env python3
"""Probe the odd-power branch-phase convention on a winding-1 cubic.

Rectifying a spiral contour multiplies each potential monomial c_k z^k by a
branch phase beta_k that is +1 under the "printed" convention and (-1)^(N*k)
under the "mechanical" one, so a winding-1 cubic (N=1, k=3) separates the two
at the operator level.  Direct integration along the spiral contour itself
involves no rectification and no convention, so it referees both.

The outcome (reproduced by this script, asserted in the acceptance suite) is
that the two conventions are each other's PARITY CONJUGATE: for odd N the
sign flips hit exactly the odd rectified powers, so V_mech(r) = V_printed(-r)
identically while weight and centrifugal parts are even.  The conventions are
therefore isospectral -- both reproduce the spiral-shooting eigenvalues --
and the choice is a frame choice (which end of the line maps to which end of
the spiral), not a physical one.

This script is also the source of the frozen grid values in
tests/reference_values.py (CUBIC_TOBOGGAN_GRID_LOWEST).

Run:  python3 scripts/run_convention_adjudication.py
"""

import numpy as np

from qtoboggan import discrete, model, shoot, spectra
from qtoboggan.contour import ContourSpec

SPEC = model.ModelSpec(ell=0.0, coeffs={3: 1j}, omega=1.0)
WINDING = 1
EPSILON = 0.15
K = 3


def grid_route(convention: str) -> np.ndarray:
    rect = model.rectify_model(SPEC, WINDING, convention=convention)
    pair = discrete.build_operators(
        rect, discrete.GridSpec(half_width=2.2, n=900, epsilon=EPSILON)
    )
    lam = spectra.lowest_eigenvalues(pair, k=8)
    lam = lam[np.abs(lam.imag) < 1e-6]
    return lam.real[:K]


def shooting_route() -> np.ndarray:
    cs = ContourSpec(epsilon=EPSILON, winding=WINDING)
    cfg = shoot.ShootConfig(phase_resolution=0.02, root_tol=1e-9)
    roots = shoot.find_eigenvalues(
        SPEC, WINDING, cfg=cfg, contour=cs, search=[1.3, 4.4, 7.9]
    )
    return roots.real[:K]


def parity_conjugation_residual() -> float:
    """max |V_mech(r) - V_printed(-r)| / |V| over random complex samples."""
    printed = model.rectify_model(SPEC, WINDING)
    mech = model.rectify_model(SPEC, WINDING, convention="mechanical")
    rng = np.random.default_rng(5)
    r = rng.normal(size=64) + 1j * rng.normal(size=64)
    dv = np.abs(mech.potential(r) - printed.potential(-r))
    dw = np.abs(mech.weight(r) - printed.weight(-r))
    scale = np.abs(printed.potential(-r)) + np.abs(printed.weight(-r))
    return float(((dv + dw) / scale).max())


def main() -> None:
    spiral = shooting_route()
    print("spiral-contour shooting (no rectification, the referee):")
    print("   ", np.array2string(spiral, precision=8))
    for convention in ("printed", "mechanical"):
        lam = grid_route(convention)
        rel = np.abs(lam - spiral) / np.abs(spiral)
        print(f"{convention:>11} grid: {np.array2string(lam, precision=8)}"
              f"   max rel dev from spiral {rel.max():.1e}")
    print(f"\nparity-conjugation identity V_mech(r) == V_printed(-r): "
          f"residual {parity_conjugation_residual():.1e}")
    print("=> the conventions are parity-conjugate frames of one spiral problem;")
    print("   both reproduce the spiral spectrum, the default frame is 'printed'.")

    print("\nfull-precision printed-convention grid values (for freezing):")
    rect = model.rectify_model(SPEC, WINDING)
    pair = discrete.build_operators(
        rect, discrete.GridSpec(half_width=2.2, n=900, epsilon=EPSILON)
    )
    lam = spectra.lowest_eigenvalues(pair, k=8)
    lam = lam[np.abs(lam.imag) < 1e-6].real[:5]
    print("   ", [repr(float(v)) for v in lam])


if __name__ == "__main__":
    main()
