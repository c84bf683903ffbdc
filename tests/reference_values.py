"""Frozen reference values for the test suite.

Every non-trivial number here was produced by an oracle that is independent
of the package code, then frozen:

* ``CUBIC_LINE_LOWEST`` — lowest eigenvalues of -psi'' + i z^3 on a complex
  shifted line, computed by ``scripts/compute_reference_spectra.py`` (4th-order
  finite differences + sparse shift-invert Arnoldi + Richardson extrapolation;
  the package itself uses a 2nd-order dense route).  Residual grid shift of the
  extrapolation was 3.9e-10, so these are trustworthy to ~1e-9.

* analytic ladders — derived by hand (derivations in the oracle script):
  harmonic E_n = 2n+1; completing the square for x^2 + ix gives E_n = 2n+5/4;
  the spiked oscillator x^2 + l(l+1)/x^2 on a shifted line supports both
  quasi-parity branches E = 4k + 2 +/- (2l+1).

* ``CUBIC_TOBOGGAN_GRID_LOWEST`` — lowest real modes of the rectified
  winding-1 imaginary-cubic problem at the pinned grid (n=900, X=2.2,
  eps=0.15), frozen from ``scripts/run_rectification_check.py``.  At ell = 0
  the solutions have no branch point at r = 0, so these do not depend on the
  sign of the odd rectified power.  These serve as a regression pin for the grid
  route; the acceptance test re-derives them live and also cross-checks the
  independent shooting route against them.
"""

# Lowest 6 eigenvalues of -psi'' + i z^3 (straight shifted line, any eps):
# real parts from the Richardson-extrapolated 4th-order oracle; imaginary
# parts were < 2.4e-10 in magnitude, i.e. zero at oracle accuracy.
CUBIC_LINE_LOWEST = [
    1.1562670719058463,
    4.1092287527352696,
    7.5622738548853174,
    11.314421820142542,
    15.291553750212183,
    19.451529130691462,
]

# Analytic ladders (exact).
HARMONIC_LOWEST = [1.0, 3.0, 5.0, 7.0, 9.0]
LINEAR_SHIFT_LOWEST = [1.25, 3.25, 5.25, 7.25, 9.25]
SPIKED_ELL = 0.3
SPIKED_LOWEST = [0.4, 3.6, 4.4, 7.6, 8.4]

# Winding-1 imaginary cubic (omega=1), rectified grid route at the pinned
# configuration n=900, X=2.2, eps=0.15 (regression freeze; grid truncation at
# this resolution is visible from mode 3 upward; grid Richardson extrapolation
# lands on the shooting values below).
CUBIC_TOBOGGAN_GRID_LOWEST = [
    1.29177376,
    4.36877657,
    7.89574092,
    11.70121759,
    15.74476168,
]

# Same problem, converged spiral-shooting values (phase_resolution 0.01 and
# 0.02 agree to 2.4e-7; grid Richardson extrapolation n=1800->2700 lands on
# these to ~5 digits).
CUBIC_TOBOGGAN_SHOOT_LOWEST = [
    1.29175416,
    4.36895808,
    7.89537979,
    11.70492920,
    15.73033615,
]
