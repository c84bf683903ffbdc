"""Shared fixtures: expensive eigensolves are session-scoped and reused.

Also hosts the acceptance scoreboard: tests in test_acceptance.py call
record_criterion(), and the terminal summary prints one PASS/FAIL line per
criterion at the end of the run.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from qtoboggan import discrete, model, shoot, spectra
from qtoboggan.contour import ContourSpec

# ---------------------------------------------------------------------------
# acceptance scoreboard

ACCEPTANCE = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE[number] = (bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        ok, detail = ACCEPTANCE[num]
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {word} - {detail}")


# ---------------------------------------------------------------------------
# the rectification identity


def rectification_residual(spec, winding, r):
    """max |V_rect(r) - closed form| over the summed term magnitudes.

    V_rect is computed through the map z(r) = -i (i r)^q, q = 2N+1.  The
    closed form writes each term W c_k z^k, with W = (dz/dr)^2 = q^2 r^(4N),
    as (-1)^(N k) q^2 c_k r^(kq+4N), and W ell(ell+1)/z^2 plus the Schwarzian
    term (q^2-1)/(4r^2) as L(L+1)/r^2 with L = q(ell+1/2) - 1/2, summed as
    q^2 ell(ell+1) + (q^2-1)/4 because L itself cancels at small ell.  A lost
    branch phase (-1)^(N k) breaks the identity whenever N k is odd.  The
    scale, the sum of |term|, is the size of the rounding of V_rect.
    """
    q = 2 * winding + 1
    terms = [(q * q * spec.ell * (spec.ell + 1) + (q * q - 1) / 4) / r**2]
    terms += [
        (-1) ** (winding * k) * q * q * c * r ** (k * q + 4 * winding)
        for k, c in spec.effective_coeffs.items()
    ]
    V = model.rectify_model(spec, winding).potential(r)
    return float(np.max(np.abs(V - sum(terms)) / sum(np.abs(t) for t in terms)))


# ---------------------------------------------------------------------------
# models


@pytest.fixture(scope="session")
def harmonic_model():
    return model.ModelSpec(ell=0.0, coeffs={2: 1.0}, omega=0.0)


@pytest.fixture(scope="session")
def bb_model():
    # V = x^2 + ix; completing the square gives the ladder 2n + 5/4.
    return model.ModelSpec(ell=0.0, coeffs={2: 1.0, 1: 1j}, omega=0.0)


@pytest.fixture(scope="session")
def cubic_model():
    # Imaginary cubic with a harmonic confinement, the winding-1 showcase.
    return model.ModelSpec(ell=0.0, coeffs={3: 1j}, omega=1.0)


@pytest.fixture(scope="session")
def branch_model():
    # ell = 0.3 at winding 1 gives L = 1.9: the solutions branch at r = 0, so
    # the rectified spectrum depends on the sign the spiral fixes for r^13.
    return model.ModelSpec(ell=0.3, coeffs={3: 0.3j}, omega=3.0)


@pytest.fixture(scope="session")
def cubic_line_model():
    # Pure imaginary cubic on the straight shifted line.
    return model.ModelSpec(ell=0.0, coeffs={3: 1j}, omega=0.0)


@pytest.fixture(scope="session")
def spiked_model():
    return model.ModelSpec(ell=0.3, coeffs={2: 1.0}, omega=0.0)


# ---------------------------------------------------------------------------
# cached solves


def _solve_full_and_subset(spec, winding, half_width, n, epsilon):
    """Build the pair, solve once, and normalize both the complete mode set
    and the real-filtered subset."""
    rect = model.rectify_model(spec, winding)
    pair = discrete.build_operators(
        rect, discrete.GridSpec(half_width=half_width, n=n, epsilon=epsilon)
    )
    es_raw = spectra.solve_generalized(pair)
    es_full = spectra.normalize_biorthogonal(es_raw)
    es_sub = spectra.normalize_biorthogonal(spectra.filter_real(es_raw, tol_im=1e-6))
    return pair, es_full, es_sub


@pytest.fixture(scope="session")
def harmonic_full(harmonic_model):
    """Pinned harmonic run (eps=0.5, X=12, n=1500): pair, full set, real subset."""
    return _solve_full_and_subset(harmonic_model, 0, 12.0, 1500, 0.5)


@pytest.fixture(scope="session")
def harmonic_small(harmonic_model):
    """Small harmonic run for fast unit tests (n=240)."""
    return _solve_full_and_subset(harmonic_model, 0, 8.0, 240, 0.5)


@pytest.fixture(scope="session")
def hermitian_full():
    """Shifted oscillator V = x^2 + x on the real line (ladder 2n + 3/4).

    Hermitian with a parity-breaking tilt: the box edge wells differ by 2X,
    so the top band-edge modes do not form tunneling-degenerate parity pairs
    (a symmetric box pins those gaps at machine zero and trips the
    eigenvalue-pairing guard).  Every mode is real, which is what the
    full-basis metric identities require."""
    spec = model.ModelSpec(ell=0.0, coeffs={2: 1.0, 1: 1.0}, omega=0.0)
    return _solve_full_and_subset(spec, 0, 8.0, 600, 0.0)


@pytest.fixture(scope="session")
def cubic_run(cubic_model):
    """Winding-1 rectified cubic at the pinned grid (n=900, X=2.2, eps=0.15).

    Solved in the real PT frame of B = s^-1 H s^-1, s = dz/dr (about 1 s).
    Only the real-filtered subset is normalized: the top of this steep
    (degree-7 rectified) spectrum holds modes sitting numerically at
    exceptional points, whose self-orthogonal vectors cannot be
    biorthogonally normalized.  filter_real's sigma gate drops the real ones
    among them and its residual gate the two spurious box-top modes, which
    leaves 8, each refined on (H, W); full-basis identities are exercised on vehicles with clean
    complete spectra instead.  Returns (pair, None, es_sub).
    """
    rect = model.rectify_model(cubic_model, 1)
    pair = discrete.build_operators(
        rect, discrete.GridSpec(half_width=2.2, n=900, epsilon=0.15)
    )
    es_raw = spectra.solve_generalized(pair)
    es_sub = spectra.normalize_biorthogonal(spectra.filter_real(es_raw, tol_im=1e-6))
    return pair, None, es_sub


@pytest.fixture(scope="session")
def cubic_roots(cubic_model):
    """Spiral-shooting eigenvalues of the winding-1 cubic, lowest 3."""
    cs = ContourSpec(epsilon=0.15, winding=1)
    cfg = shoot.ShootConfig(phase_resolution=0.02, root_tol=1e-9)
    roots = shoot.find_eigenvalues(cubic_model, cs, cfg, [1.3, 4.4, 7.9])
    return np.asarray(roots)
