#!/usr/bin/env python3
"""Check the rectified grid against direct shooting along the spiral.

Rectification maps the winding-N spiral onto the straight line by
z = -i (i r)^(2N+1) and evaluates the spiral potential through that map;
shooting integrates on the spiral itself and involves no rectification, so
it referees the grid.  Two winding-1 vehicles: the shipped cubic (ell = 0,
L = 1, whose spectrum does not depend on the winding) and the branch
vehicle (ell = 0.3, L = 1.9, whose solutions branch at r = 0, so only the
spiral's own sign (-1)^(N k) of each z^k reproduces it).

This script is also the source of the frozen grid values in
tests/reference_values.py (CUBIC_TOBOGGAN_GRID_LOWEST).

Run:  python3 scripts/run_rectification_check.py
"""

import numpy as np

from qtoboggan import discrete, model, shoot, spectra
from qtoboggan.contour import ContourSpec

CONTOUR = ContourSpec(epsilon=0.15, winding=1)
GRID = discrete.GridSpec(half_width=2.2, n=900, epsilon=0.15)
CUBIC = model.ModelSpec(ell=0.0, coeffs={3: 1j}, omega=1.0)
BRANCH = model.ModelSpec(ell=0.3, coeffs={3: 0.3j}, omega=3.0)


def main() -> None:
    cfg = shoot.ShootConfig(phase_resolution=0.02, root_tol=1e-9)
    for name, spec, guesses in (
        ("cubic, ell=0", CUBIC, [1.3, 4.4, 7.9]),
        ("branch, ell=0.3", BRANCH, [1.2, 10.76, 13.26]),
    ):
        roots = shoot.find_eigenvalues(spec, CONTOUR, cfg, guesses).real
        pair = discrete.build_operators(model.rectify_model(spec, 1), GRID)
        grid = spectra.nearest_eigenpairs(pair, roots).lambdas.real
        rel = np.abs(grid - roots) / np.abs(roots)
        print(f"{name}:\n  spiral {np.array2string(roots, precision=8)}")
        print(f"  grid   {np.array2string(grid, precision=8)}   max rel dev {rel.max():.1e}")

    print("\nfull-precision cubic grid values (for freezing):")
    pair = discrete.build_operators(model.rectify_model(CUBIC, 1), GRID)
    lam = spectra.lowest_eigenvalues(pair, k=8)
    lam = lam[np.abs(lam.imag) < 1e-6].real[:5]
    print("   ", [repr(float(v)) for v in lam])


if __name__ == "__main__":
    main()
