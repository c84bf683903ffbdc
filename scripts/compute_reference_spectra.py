#!/usr/bin/env python3
"""Independent reference spectra for the test suite.

This script deliberately shares no code with the qtoboggan package.  It
discretizes -psi'' + V(x - i*eps) psi = E psi on a uniform grid with a
FOURTH-order finite-difference Laplacian (the package uses second order),
solves for the lowest modes with sparse shift-invert Arnoldi, refines each by
inverse iteration from a fixed start, and applies Richardson extrapolation in
the step size.  Agreement between this route and the package is therefore a
genuine two-route check: different stencil order, different eigensolver,
different code.

Analytic ladders used elsewhere in the tests are derived here in comments:

* harmonic oscillator V = x^2 on the real line: E_n = 2n + 1.
* linear-plus-quadratic V = x^2 + ix: complete the square,
  x^2 + ix = (x + i/2)^2 + 1/4, so the spectrum is the harmonic ladder
  shifted by 1/4: E_n = 2n + 5/4.
* spiked oscillator V = x^2 + g/x^2 with g = l(l+1): radial oscillator with
  alpha = sqrt(1/4 + g) = l + 1/2; both quasi-parity branches are bounded on
  a complex-shifted line, giving E = 4k + 2 +/- (2l + 1).

Run:  python3 scripts/compute_reference_spectra.py
Prints a JSON blob with full-precision values; the frozen copies live in
tests/reference_values.py.
"""

import json

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def fourth_order_hamiltonian(n: int, half_width: float, eps: float, vfun):
    """Dense-free 4th-order -d2/dx2 + V(x - i eps) on (-X, X) with Dirichlet ends."""
    h = 2.0 * half_width / (n + 1)
    x = -half_width + h * np.arange(1, n + 1)
    main = np.full(n, 30.0 / (12.0 * h * h), dtype=complex)
    off1 = np.full(n - 1, -16.0 / (12.0 * h * h), dtype=complex)
    off2 = np.full(n - 2, 1.0 / (12.0 * h * h), dtype=complex)
    lap = sp.diags([off2, off1, main, off1, off2], [-2, -1, 0, 1, 2], format="csc")
    return lap + sp.diags(vfun(x - 1j * eps)), h


def refine(ham, value: complex) -> complex:
    """The eigenvalue of `ham` nearest `value`, by inverse iteration from a fixed start.

    ARPACK starts from a random vector, so its Ritz values scatter from run to
    run (by up to 1e-9 for the sixth cubic mode).  The shift is the Ritz value
    rounded to 1e-3, which carries none of that scatter and is still far nearer
    this eigenvalue than any other.  The value returned is the bilinear
    quotient x^T H x / x^T x, stationary at an eigenvector of the complex
    symmetric H = H^T.
    """
    shift = complex(round(value.real, 3), round(value.imag, 3))
    lu = spla.splu((ham - shift * sp.identity(ham.shape[0], format="csc")).tocsc())
    x = np.ones(ham.shape[0], dtype=complex)
    for _ in range(8):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
    return complex(x @ (ham @ x) / (x @ x))


def lowest_modes(n: int, half_width: float, eps: float, vfun, k: int = 6, sigma: float = 1.0):
    ham, h = fourth_order_hamiltonian(n, half_width, eps, vfun)
    vals = spla.eigs(ham, k=k, sigma=sigma, which="LM", return_eigenvectors=False)
    vals = np.array([refine(ham, v) for v in vals])
    order = np.argsort(vals.real)
    return vals[order], h


def richardson(coarse, fine, h_coarse, h_fine, order=4):
    """Eliminate the leading O(h^order) error from two grid resolutions."""
    w = (h_coarse / h_fine) ** order
    return (w * fine - coarse) / (w - 1.0)


def main() -> None:
    out = {}

    # Imaginary cubic V = i z^3 on the shifted line z = x - i/2.  The value is
    # independent of the shift (path deformation), so eps only affects
    # conditioning.  Two resolutions + Richardson pins ~10 digits.
    cubic = lambda z: 1j * z**3
    v1, h1 = lowest_modes(6000, 11.0, 0.5, cubic, k=7, sigma=1.0)
    v2, h2 = lowest_modes(12000, 11.0, 0.5, cubic, k=7, sigma=1.0)
    extrap = richardson(v1[:6], v2[:6], h1, h2)
    out["cubic_line_lowest"] = [[float(e.real), float(e.imag)] for e in extrap]
    out["cubic_line_imag_max"] = float(np.abs(extrap.imag).max())
    out["cubic_line_grid_shift"] = float(np.abs(v2[:6] - extrap).max())

    # Analytic ladders (see module docstring for the derivations).
    out["harmonic_lowest"] = [2 * k + 1.0 for k in range(6)]
    out["linear_shift_lowest"] = [2 * k + 1.25 for k in range(6)]
    ell = 0.3
    spiked = sorted(
        [4 * k + 2 + (2 * ell + 1) for k in range(4)]
        + [4 * k + 2 - (2 * ell + 1) for k in range(4)]
    )
    out["spiked_lowest"] = spiked

    # Cross-check desk-scale analytic cases through the same 4th-order route.
    vh, _ = lowest_modes(4000, 10.0, 0.0, lambda z: z**2, k=6, sigma=1.0)
    out["harmonic_check_err"] = float(np.abs(vh.real[:5] - np.array(out["harmonic_lowest"][:5])).max())
    vb, _ = lowest_modes(4000, 10.0, 0.0, lambda z: z**2 + 1j * z, k=6, sigma=1.0)
    out["linear_shift_check_err"] = float(
        np.abs(vb.real[:5] - np.array(out["linear_shift_lowest"][:5])).max()
    )

    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
