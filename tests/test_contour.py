"""Path geometry: spiral samples, rectification, winding bookkeeping."""

import math

import numpy as np
import pytest

from qtoboggan import contour
from qtoboggan.errors import ConfigError


def _z(gammas, eps, winding):
    """Spiral points at winding N (N = 0: the rectified partner on the line)."""
    z, _, _ = contour.spiral(np.asarray(gammas, dtype=float), eps, 2 * winding + 1)
    return z


def test_spiral_point_at_origin_angle_winding1():
    assert _z([0.0], 0.5, 1)[0] == pytest.approx(-0.125j)
    assert _z([0.0], 0.5, 0)[0] == pytest.approx(-0.5j)


def test_zero_winding_spiral_is_the_straight_line():
    gs = np.linspace(-1.4, 1.4, 29)
    # the q = 1 spiral is the line x - i*epsilon with x = epsilon*tan(gamma)
    assert np.allclose(_z(gs, 0.7, 0), 0.7 * np.tan(gs) - 0.7j, rtol=0, atol=1e-12)


def test_spiral_derivatives_match_finite_differences():
    g = np.array([-0.9, 0.2, 1.1])
    h = 1e-5
    z, zdot, acc = contour.spiral(g, 0.4, 3)
    zp, zdp, _ = contour.spiral(g + h, 0.4, 3)
    zm, zdm, _ = contour.spiral(g - h, 0.4, 3)
    assert np.allclose(zdot, (zp - zm) / (2 * h), rtol=1e-8)
    assert np.allclose(acc, (zdp - zdm) / (2 * h) / zdot, rtol=1e-8)


def test_degree_is_odd_winding_count():
    assert contour.ContourSpec(epsilon=1.0, winding=0).degree == 1
    assert contour.ContourSpec(epsilon=1.0, winding=1).degree == 3
    assert contour.ContourSpec(epsilon=1.0, winding=3).degree == 7


@pytest.mark.parametrize("winding", [0, 1, 2])
def test_rectify_matches_line_partner(winding):
    gs = np.linspace(-1.3, 1.3, 41)
    rs = contour.rectify(_z(gs, 0.4, winding), gs, winding)
    assert np.allclose(rs, _z(gs, 0.4, 0), atol=1e-13)


@pytest.mark.parametrize("winding", [0, 1, 2])
def test_unrectify_inverts_rectify(winding):
    gs = np.linspace(-1.2, 1.2, 37)
    ref = _z(gs, 0.8, winding)
    zs = contour.unrectify(contour.rectify(ref, gs, winding), winding)
    assert np.allclose(zs, ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("winding", [0, 1, 2])
def test_winding_arg_span(winding):
    spec = contour.ContourSpec(epsilon=0.5, winding=winding)
    q = 2 * winding + 1
    margin = 1e-3
    span = contour.winding_arg_span(spec, margin=margin)
    assert span == pytest.approx(q * (math.pi - 2 * margin), abs=1e-6)


def test_epsilon_must_be_positive():
    with pytest.raises(ConfigError):
        contour.ContourSpec(epsilon=0.0)
    with pytest.raises(ConfigError):
        contour.ContourSpec(epsilon=-1.0)


def test_winding_must_be_nonnegative_integer():
    with pytest.raises(ConfigError):
        contour.ContourSpec(epsilon=1.0, winding=-1)


def test_gamma_domain_is_open_interval():
    with pytest.raises(ConfigError):
        contour.spiral(np.array([0.0, math.pi / 2]), 1.0, 1)
    with pytest.raises(ConfigError):
        contour.spiral(np.array([-2.0]), 1.0, 1)


def test_rectify_rejects_origin_crossing():
    with pytest.raises(ConfigError):
        contour.rectify(np.array([0.0 + 0.0j]), np.array([0.0]), 1)
