"""The `validate` command: every identity of one run, as one table of checks.

run is handed the run's grid eigensystems and returns a record of each check.
A check whose need its problem lacks is recorded as not_applicable, with the
reason, and neither passes nor fails.  One whose input cannot be built fails
with inf (0.0 when it must exceed its limit), and the reason goes to stderr once.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import replace
from functools import cached_property

import numpy as np

from . import discrete, metric, shoot, spectra
from .errors import IllConditionedS, SelfOrthogonalMode, StepTooCoarseWarning

# the refinement-order grids: uniform steps per half-path, halving the step
# twice; the coarsest passes the phase gate on configs/harmonic_line.json
_REFINEMENT_STEPS = (1900, 3800, 7600)
# kappa_homogeneity's scale: complex, so kappa in place of conj(kappa) fails,
# and not a power of two, whose scaling is exact in floating point
_HOMOGENEITY_SCALE = cmath.rect(1.5, 0.7)

# each need a check may declare -> what a config lacking it has instead, or None
NEEDS = {
    "PT balance": lambda c: None if c.model.pt_flag else "the model is not PT-symmetric",
    "winding 0": lambda c: f"the winding is {c.contour.winding}" if c.contour.winding else None,
    "shooting guesses": lambda c: None if c.guesses else "the config has no shoot.guesses",
}


class Unbuildable(Exception):
    """An input of some checks cannot be built; the message says why."""


class Inputs:
    """What the checks read: the mode sets handed in, and the rest built on first read."""

    def __init__(self, config, es, es_raw):
        self.config, self.tol = config, config.tolerances
        self.rng = np.random.default_rng(config.seed)
        self.es, self.es_raw = es, es_raw

    def draw_kappa(self, m: int) -> np.ndarray:
        return self.rng.uniform(0.5, 2.0, m) * np.exp(1j * self.rng.uniform(0, 2 * np.pi, m))

    @cached_property
    def full(self):  # the complete mode set, with no reality filter
        try:
            return spectra.normalize_biorthogonal(self.es_raw, sigma_tol=self.tol["sigma_floor"])
        except SelfOrthogonalMode as exc:
            raise Unbuildable(f"the full mode set cannot be normalized: {exc}") from exc

    kappa = cached_property(lambda self: self.draw_kappa(self.es.m))

    @cached_property
    def kappa_full(self):
        self.kappa  # drawn first: the draw order fixes both kappas of a seed
        return self.draw_kappa(self.full.m)

    # the retained set's metric, whose IllConditionedS stops the run (exit 3),
    # and its Theta, read once, as each read builds it anew
    result = cached_property(lambda self: metric.build_metric(self.es))
    theta = cached_property(lambda self: self.result.Theta)

    @cached_property
    def full_result(self):
        try:
            return metric.build_metric(self.full)
        except IllConditionedS as exc:
            raise Unbuildable(f"the full-set metric is ill-conditioned: {exc}") from exc

    @cached_property
    def roots(self):  # the shooting roots at epsilon and at 2 epsilon
        c, eps = self.config, self.config.contour.epsilon
        return [shoot.find_eigenvalues(c.model, contour, c.shoot_cfg, search=c.guesses)
                for contour in (c.contour, replace(c.contour, epsilon=2.0 * eps))]

    @cached_property
    def refinement(self):  # y'/y of the right half-path at the first guess on each grid
        c, seq = self.config, []
        with warnings.catch_warnings():
            warnings.simplefilter("error", StepTooCoarseWarning)
            for steps in _REFINEMENT_STEPS:
                cfg = replace(c.shoot_cfg, steps=steps, phase_resolution=None)
                try:
                    y, dy = shoot.integrate_halfpath(c.model, c.guesses[0], "right", cfg, c.contour)
                except StepTooCoarseWarning as exc:
                    raise Unbuildable(f"{steps}-step refinement grid too coarse: {exc}") from exc
                seq.append(dy / y)
        return seq


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _kappa_gram_drift(i: Inputs) -> float:
    es_k = spectra.apply_kappa(i.es, i.kappa)
    gram_k = es_k.left.conj().T @ (i.es.pair.w_diag[:, np.newaxis] * es_k.right)
    # Rescaling moves each gram entry by exactly kappa_i / kappa_j.  Undoing
    # that on gram_k, rather than dressing the Gram with it, cancels solver noise
    # in the off-diagonals without amplifying rounding by |kappa_i / kappa_j|.
    undressed = gram_k * (i.kappa[np.newaxis, :] / i.kappa[:, np.newaxis])
    return float(np.abs(undressed - i.es.gram).max())


def _kappa_homogeneity(i: Inputs) -> float:  # Theta[c kappa] = |c|^2 Theta[kappa]
    c = _HOMOGENEITY_SCALE
    theta_c = metric.build_metric(i.es, kappa=np.full(i.es.m, c)).Theta
    return float(np.linalg.norm(theta_c - abs(c) ** 2 * i.theta) / np.linalg.norm(i.theta))


def _epsilon_independence(i: Inputs) -> float:
    # each root against its nearest partner at 2 epsilon; a root without one
    # reads inf, and it and each partner farther than the limit are named
    roots1, roots2 = i.roots
    partner = shoot.pair_nearest(roots1, roots2)
    lonely = [r for k, r in enumerate(roots1) if k not in partner]
    lonely += [r for k, r in enumerate(roots2) if k not in partner.values()]
    guesses = np.asarray(i.config.guesses, dtype=complex)
    for root in lonely:
        g = guesses[np.argmin(np.abs(guesses - root))]
        sys.stderr.write(f"validate: guess {g:g} converged to {root:g} at only one of the "
                         "shifts epsilon, 2*epsilon\n")
    k1, k2 = np.array(list(partner), dtype=int), np.array(list(partner.values()), dtype=int)
    rel = np.abs(roots1[k1] - roots2[k2]) / np.maximum(1.0, np.abs(roots1[k1]))
    for r1, r2, moved in zip(roots1[k1], roots2[k2], rel):
        if moved > i.tol["epsilon_independence"]:
            sys.stderr.write(f"validate: root {r1:g} at epsilon has its nearest partner {r2:g} "
                             f"at 2*epsilon, {moved:.3e} away relative\n")
    return float(rel.max()) if partner and not lonely else math.inf


def _refinement_order(i: Inputs) -> float:  # RK4's error falls ~16x per halving of the step
    y1, y2, y3 = i.refinement
    return abs(y1 - y2) / max(abs(y2 - y3), 1e-300)


# (name, limit: a tolerances key or a fixed number, larger_ok: the value must
# exceed it, need: a key of NEEDS or None, value: a function of Inputs), in
# README order; the mode set is the retained one unless the full set is named
CHECKS = (
    ("pt_residual", "pt", False, "PT balance", lambda i: discrete.pt_residual(i.es.pair)),
    ("max_mode_residual", "residual", False, None,
     lambda i: max(i.es.residual_right.max(), i.es.residual_left.max())),
    ("gram_offdiag", "gram", False, None, lambda i: i.es.max_offdiag_gram()),
    ("completeness", "completeness", False, None, lambda i: spectra.completeness_residual(i.full)),
    ("rebuild", "rebuild", False, None, lambda i: spectra.spectral_rebuild_residual(i.full)),
    ("kappa_gram_drift", "kappa_invariance", False, None, _kappa_gram_drift),
    ("kappa_rebuild_drift", "kappa_invariance", False, None, lambda i: abs(
        spectra.spectral_rebuild_residual(spectra.apply_kappa(i.full, i.kappa_full))
        - spectra.spectral_rebuild_residual(i.full))),
    ("ms_identity", "ms_identity", False, None,
     lambda i: _distance(i.result.M @ i.result.S, np.eye(i.es.m))),
    ("delta_identity", "delta_identity", False, None,
     lambda i: metric.delta_identity_residual(i.es, i.theta)),
    *((name, limit, larger_ok, None, lambda i, key=key: i.result.diagnostics[key])
      for name, key, limit, larger_ok in metric.GATES),
    ("kappa_homogeneity", "kappa_invariance", False, None, _kappa_homogeneity),
    ("degeneration_S_offdiag", "w_identity_offdiag", False, "winding 0",
     lambda i: _distance(i.full_result.S, np.diag(np.diag(i.full_result.S)))),
    ("degeneration_theta", "degeneration", False, "winding 0",
     lambda i: _distance(i.full_result.Theta, metric.single_series_theta(i.full))),
    ("theta_similarity_spectrum", "quasi_hermiticity", False, None,
     lambda i: metric.theta_eigenvector_residual(i.es, i.theta)),
    ("shoot_epsilon_independence", "epsilon_independence", False, "shooting guesses",
     _epsilon_independence),
    ("shoot_refinement_order", 6.0, True, "shooting guesses", _refinement_order),
)


def run(config, es: spectra.Eigensystem, es_raw: spectra.Eigensystem) -> list:
    """Print and return a record of each check of CHECKS on `es` and its raw solve `es_raw`."""
    inputs, records, told = Inputs(config, es, es_raw), [], set()
    for name, limit, larger_ok, need, measure in CHECKS:
        record = {"name": name, "value": None, "limit": float(metric.gate_limit(inputs.tol, limit))}
        unmet = need and NEEDS[need](config)
        if unmet:
            record.update({"pass": None, "not_applicable": f"needs {need}; {unmet}"})
            sys.stdout.write(f"N/A {name}: {record['not_applicable']}\n")
        else:
            try:
                value = measure(inputs)
            except Unbuildable as exc:
                value = 0.0 if larger_ok else math.inf
                if str(exc) not in told:
                    told.add(str(exc))
                    sys.stderr.write(f"validate: {exc}\n")
            ok = metric.passes(value, record["limit"], larger_ok)
            record.update({"value": float(value), "pass": bool(ok)})
            sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {name}: {value:.6e} "
                             f"{'>' if larger_ok else '<='} {record['limit']:.6e}\n")
        records.append(record)
    return records
