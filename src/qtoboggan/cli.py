"""Batch front-end: config in, spectra / metric matrices / residual reports out.

Commands: spectrum, metric, shoot, compare, validate.  Exit codes: 0 success,
2 validation failure, 3 solver error, 4 config error, 5 a compared grid mode
failed its residual or reality gate.

validate takes its identity checks from one ordered, lazy sequence
(`_validate_checks`), prints a PASS/FAIL line per check, stops at the first
failure, and writes every check it ran to validate.json.

The BLAS thread count is capped, if at all, by OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS or MKL_NUM_THREADS set before launch.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import ctypes
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import discrete, model, shoot, spectra
from .errors import (
    ConfigError,
    IllConditionedS,
    QTobogganError,
    SchemaMismatch,
    SelfOrthogonalMode,
    StepTooCoarseWarning,
    UnverifiedMode,
    require_int,
    require_keys,
    require_real,
)

__all__ = ["RunConfig", "load_config", "run", "report_render", "main"]

SCHEMA_VERSION = 1
_TOP_KEYS = {"version", "command", "model", "grid", "shoot", "tolerances", "output_dir", "seed"}
_GRID_KEYS = {"half_width", "n"}
_SHOOT_KEYS = {f.name for f in fields(shoot.ShootConfig)} | {"guesses", "scan"}
_SCAN_KEYS = {"start", "stop", "count"}
_COMMANDS = ("spectrum", "metric", "shoot", "compare", "validate")
_DIAG_SCHEMA = ("quasiH", "quasiW", "hermiticity", "min_eig", "cond_S", "cond_Theta")
# validate's refinement-order grids: uniform steps per half-path, halving the
# step twice; the coarsest passes the phase gate on configs/harmonic_line.json
_REFINEMENT_STEPS = (1900, 3800, 7600)
# validate's kappa_homogeneity scale: complex, so kappa in place of conj(kappa)
# fails, and not a power of two, whose scaling is exact in floating point
_HOMOGENEITY_SCALE = cmath.rect(1.5, 0.7)

DEFAULT_TOLERANCES: Dict[str, float] = {
    "filter_im": 1e-6,
    "pairing": 1e-12,
    "sigma_floor": 1e-12,
    "compare_rel": 1e-3,
    "residual": 1e-8,
    "gram": 1e-8,
    "completeness": 1e-8,
    "rebuild": 1e-8,
    "ms_identity": 1e-10,
    "delta_identity": 1e-8,
    "quasi_hermiticity": 1e-8,
    "theta_hermiticity": 1e-8,
    "kappa_invariance": 1e-12,
    "pt": 1e-12,
    "w_identity_offdiag": 1e-8,
    "degeneration": 1e-10,
    "epsilon_independence": 1e-6,
}


@dataclass
class RunConfig:
    """Parsed and validated run configuration (model, contour, grid, command...)."""

    model: Any
    contour: Any
    grid: Optional[Any]
    command: Optional[str]
    tolerances: Dict[str, float]
    output_dir: str
    seed: int
    shoot_cfg: Optional[Any]
    guesses: List[complex]
    scan: Optional[Dict[str, float]]


def _apply_override(raw: Dict[str, Any], spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override must look like KEY=VALUE, got {spec!r}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    key, text = spec.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses a non-object value")
    node[parts[-1]] = value


def parse_config_dict(raw: Dict[str, Any]) -> RunConfig:
    """Validate the raw config mapping and build the typed RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    if "version" not in raw:
        raise SchemaMismatch("config is missing the schema 'version' field")
    require_int("version", raw["version"])
    if raw["version"] != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"config schema version {raw['version']!r} != supported {SCHEMA_VERSION}"
        )
    require_keys("config", raw, _TOP_KEYS)
    if "model" not in raw:
        raise ConfigError("config is missing the 'model' section")
    model_spec, contour = model.model_from_dict(raw["model"])

    grid = None
    if "grid" in raw:
        require_keys("grid", raw["grid"], _GRID_KEYS)
        try:
            grid = discrete.GridSpec(
                half_width=require_real("grid.half_width", raw["grid"]["half_width"]),
                n=raw["grid"]["n"],
                epsilon=contour.epsilon,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed grid section: {exc}") from exc

    command = raw.get("command")
    if command is not None and command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {_COMMANDS}")

    tolerances = dict(DEFAULT_TOLERANCES)
    tol_raw = raw.get("tolerances", {})
    require_keys("tolerances", tol_raw, set(DEFAULT_TOLERANCES))
    for key, val in tol_raw.items():
        tolerances[key] = require_real(f"tolerances.{key}", val)
        if not tolerances[key] > 0:
            raise ConfigError(f"tolerance {key!r} must be a positive number, got {val!r}")

    shoot_cfg = None
    guesses: List[complex] = []
    scan = None
    if "shoot" in raw:
        require_keys("shoot", raw["shoot"], _SHOOT_KEYS)
        section = dict(raw["shoot"])
        raw_guesses = section.pop("guesses", [])
        if not isinstance(raw_guesses, list):
            raise ConfigError(f"shoot.guesses must be a list, got {raw_guesses!r}")
        for j, g in enumerate(raw_guesses):
            # a real number, or a [re, im] pair of real numbers
            parts = g if isinstance(g, list) and len(g) == 2 else [g]
            guesses.append(complex(*(require_real(f"shoot.guesses[{j}]", p) for p in parts)))
        if "scan" in section:
            scan_raw = section.pop("scan")
            require_keys("shoot.scan", scan_raw, _SCAN_KEYS)
            try:
                scan = {
                    "start": require_real("shoot.scan.start", scan_raw["start"]),
                    "stop": require_real("shoot.scan.stop", scan_raw["stop"]),
                    "count": scan_raw["count"],
                }
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"malformed shoot.scan section: {exc}") from exc
            require_int("shoot.scan.count", scan["count"])
            if scan["count"] < 2:
                raise ConfigError("shoot.scan.count must be >= 2")
        shoot_cfg = shoot.ShootConfig(**section)

    seed = raw.get("seed", 0)
    require_int("seed", seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

    return RunConfig(
        model=model_spec,
        contour=contour,
        grid=grid,
        command=command,
        tolerances=tolerances,
        output_dir=output_dir,
        seed=seed,
        shoot_cfg=shoot_cfg,
        guesses=guesses,
        scan=scan,
    )


def load_config(path: str, overrides: Optional[List[str]] = None) -> RunConfig:
    """Read a JSON config file, apply --override entries, validate the schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    for spec in overrides or []:
        _apply_override(raw, spec)
    return parse_config_dict(raw)


def _json_dump(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_render(diagnostics: Dict[str, Any]) -> str:
    """Deterministic text table of metric diagnostics (fixed order, 10 sig digits)."""
    if not isinstance(diagnostics, dict):
        raise SchemaMismatch("diagnostics must be a mapping")
    unknown = set(diagnostics) - set(_DIAG_SCHEMA)
    if unknown:
        raise SchemaMismatch(f"unknown diagnostics keys: {sorted(unknown)}")
    header = f"{'quantity':<14} {'value':>18}"
    lines = [header, "-" * len(header)]
    for key in _DIAG_SCHEMA:
        if key not in diagnostics:
            continue
        value = diagnostics[key]
        if value is None:
            text = "n/a"
        elif isinstance(value, (int, float)):
            text = format(float(value), ".10g")
        else:
            raise SchemaMismatch(f"diagnostics[{key!r}] must be numeric or null, got {value!r}")
        lines.append(f"{key:<14} {text:>18}")
    return "\n".join(lines) + "\n"


def _require_grid(config: RunConfig) -> None:
    if config.grid is None:
        raise ConfigError("this command needs a 'grid' section in the config")


def _require_shoot(config: RunConfig) -> None:
    if config.shoot_cfg is None:
        raise ConfigError("this command needs a 'shoot' section in the config")
    if not config.guesses:
        raise ConfigError("this command needs shoot.guesses in the config")


def _grid_eigensystem(config: RunConfig, keep_raw: bool = False):
    """Rectify, discretize, solve, filter, and normalize; returns (es, es_raw).

    es_raw is the unfiltered, unnormalized solve, so a caller can normalize the
    complete mode set without solving twice; without `keep_raw` it is None,
    dropped as soon as it is filtered.
    """
    rect = model.rectify_model(config.model, config.contour.winding)
    pair = discrete.build_operators(rect, config.grid)
    tol = config.tolerances
    es_raw = spectra.solve_generalized(pair, tol=tol["pairing"])
    es = spectra.filter_real(es_raw, tol_im=tol["filter_im"], tol_residual=tol["residual"])
    if not keep_raw:
        es_raw = None
    es = spectra.normalize_biorthogonal(es, sigma_tol=tol["sigma_floor"])
    return es, es_raw


def _write_spectrum_artifacts(out_dir: str, es):
    """Write spectrum.csv and residuals.json; returns es, for a caller to hand on."""
    pair = es.pair
    spectra.save_spectrum_csv(es, os.path.join(out_dir, "spectrum.csv"))
    payload = {
        "n": pair.n,
        "retained_modes": es.m,
        "discarded_modes": es.discarded,
        "pt_residual": discrete.pt_residual(pair),
        "max_residual_right": float(es.residual_right.max()),
        "max_residual_left": float(es.residual_left.max()),
        "max_offdiag_gram": es.max_offdiag_gram(),
        "weight_condition": pair.weight_condition,
    }
    _json_dump(payload, os.path.join(out_dir, "residuals.json"))
    return es


def _cmd_spectrum(config: RunConfig, out_dir: str) -> int:
    _require_grid(config)
    _write_spectrum_artifacts(out_dir, _grid_eigensystem(config)[0])
    return 0


def _passes(value: float, limit: float, larger_ok: bool) -> bool:
    """A value passes when it is at most its limit, or above it when `larger_ok`."""
    return value > limit if larger_ok else value <= limit


def _metric_gates(tol: Dict[str, float]) -> List[Tuple[str, str, float, bool]]:
    """(check name, diagnostics key, limit, larger_ok) for each limit a metric must meet."""
    return [
        ("quasiH", "quasiH", tol["quasi_hermiticity"], False),
        ("quasiW", "quasiW", tol["quasi_hermiticity"], False),
        ("theta_hermiticity", "hermiticity", tol["theta_hermiticity"], False),
        ("theta_min_eig", "min_eig", 0.0, True),
    ]


def _cmd_metric(config: RunConfig, out_dir: str) -> int:
    from . import metric  # loads scipy.linalg, which compare and shoot never load

    _require_grid(config)
    # no reference to the eigensystem is kept here, so build_metric frees its
    # vectors once read (Python >= 3.11 keeps no call's arguments on this stack)
    result = metric.build_metric(_write_spectrum_artifacts(out_dir, _grid_eigensystem(config)[0]))
    h = config.grid.h
    eps = config.grid.epsilon
    discrete.save_matrix_bin(result.Theta, os.path.join(out_dir, "theta.bin"), h, eps)
    discrete.save_matrix_bin(result.S, os.path.join(out_dir, "S.bin"), h, eps)
    _json_dump(result.diagnostics, os.path.join(out_dir, "diagnostics.json"))
    sys.stdout.write(report_render(result.diagnostics))
    failed = []
    for _, key, limit, larger_ok in _metric_gates(config.tolerances):
        value = result.diagnostics[key]
        if not _passes(value, limit, larger_ok):
            failed.append(f"{key} {value:.3e} {'<=' if larger_ok else '>'} {limit:.1e}")
    if failed:
        sys.stderr.write(f"metric: diagnostics fail their limits: {', '.join(failed)}\n")
        return 2
    return 0


def _shoot_roots(config: RunConfig) -> np.ndarray:
    return shoot.find_eigenvalues(
        config.model, config.contour, config.shoot_cfg, search=config.guesses
    )


def _cmd_shoot(config: RunConfig, out_dir: str) -> int:
    _require_shoot(config)
    roots = _shoot_roots(config)
    with open(os.path.join(out_dir, "roots.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re_E", "im_E"])
        for j, r in enumerate(roots):
            writer.writerow([j, repr(float(r.real)), repr(float(r.imag))])
    if config.scan is not None:
        energies = np.linspace(config.scan["start"], config.scan["stop"], config.scan["count"])
    else:
        # about the roots, or about the guesses when none converged
        ref = (roots if len(roots) else np.asarray(config.guesses)).real
        energies = np.linspace(float(ref.min()) - 1.0, float(ref.max()) + 1.0, 101)
    abs_F = shoot.scan_mismatch(config.model, config.contour, config.shoot_cfg, energies)
    shoot.save_scan_csv(os.path.join(out_dir, "scan.csv"), energies, abs_F)
    return 0


def _pair_guesses(guesses, roots) -> Dict[int, int]:
    """One root per guess, nearest pairs first: {guess index: root index}."""
    dist = np.abs(guesses[:, np.newaxis] - roots[np.newaxis, :])
    pairs: Dict[int, int] = {}
    for flat in np.argsort(dist, axis=None, kind="stable"):
        g, r = divmod(int(flat), len(roots))
        if g not in pairs and r not in pairs.values():
            pairs[g] = r
    return pairs


def _complex_json(z) -> List[float]:
    return [float(z.real), float(z.imag)]


def _cmd_compare(config: RunConfig, out_dir: str) -> int:
    """Each shooting root against the grid eigenvalue nearest it.

    Only those grid modes are solved, by inverse iteration at each root, and
    each must pass the residual and reality gates (UnverifiedMode otherwise).
    A guess without a converged root, or whose root shares its grid mode with
    a nearer root, is listed in compare.json and makes the command exit 2.
    """
    _require_grid(config)
    _require_shoot(config)
    tol = config.tolerances
    rect = model.rectify_model(config.model, config.contour.winding)
    pair = discrete.build_operators(rect, config.grid)
    roots = _shoot_roots(config)
    grid = spectra.nearest_eigenpairs(pair, roots)
    lams, residuals = grid.lambdas, grid.residual_right
    real = spectra.is_real(lams, tol["filter_im"])
    for root, lam, res, ok in zip(roots, lams, residuals, real):
        if not res <= tol["residual"]:
            raise UnverifiedMode(
                f"grid mode {lam} nearest root {root} has residual {res:.3e} > {tol['residual']}"
            )
        if not ok:
            raise UnverifiedMode(f"grid mode {lam} nearest root {root} is not real")

    guesses = np.asarray(config.guesses, dtype=complex)
    root_of = _pair_guesses(guesses, roots)
    unmatched = []
    claimed: List[int] = []  # roots holding a grid mode, nearest first
    for g in sorted(root_of, key=lambda g: abs(roots[root_of[g]] - lams[root_of[g]])):
        r = root_of[g]
        # grid modes the comparison cannot tell apart count as one mode
        rival = next(
            (c for c in claimed
             if abs(lams[c] - lams[r]) <= tol["compare_rel"] * max(1.0, abs(lams[r]))),
            None,
        )
        if rival is None:
            claimed.append(r)
        else:
            unmatched.append({
                "guess": _complex_json(guesses[g]),
                "root": _complex_json(roots[r]),
                "reason": (f"grid mode {float(lams[r].real)!r} is already matched"
                           f" to root {float(roots[rival].real)!r}"),
            })
    for g in range(len(guesses)):
        if g not in root_of:
            unmatched.append({
                "guess": _complex_json(guesses[g]),
                "root": None,
                "reason": "no converged shooting root of its own",
            })
    unmatched.sort(key=lambda item: item["guess"])

    rows = []
    worst = 0.0
    for j, r in enumerate(sorted(claimed)):
        e_grid = float(lams[r].real)
        e_shoot = float(roots[r].real)
        delta = abs(e_grid - e_shoot)
        rel = delta / max(1.0, abs(e_grid))
        worst = max(worst, rel)
        rows.append([j, repr(e_grid), repr(e_shoot), repr(delta), repr(rel)])
    with open(os.path.join(out_dir, "delta.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re_E_grid", "re_E_shoot", "abs_delta", "rel_delta"])
        writer.writerows(rows)
    rel_tol = tol["compare_rel"]
    _json_dump(
        {
            "compared_modes": len(rows),
            "requested_modes": len(guesses),
            "max_rel_delta": worst if rows else None,
            "tolerance": rel_tol,
            "unmatched_guesses": unmatched,
        },
        os.path.join(out_dir, "compare.json"),
    )
    code = 0
    if unmatched:
        named = ", ".join(f"{complex(*u['guess']):g} ({u['reason']})" for u in unmatched)
        sys.stderr.write(
            f"compare: {len(rows)} of {len(guesses)} guesses compared; unmatched: {named}\n"
        )
        code = 2
    if worst > rel_tol:
        sys.stderr.write(
            f"compare: max relative delta {worst:.3e} exceeds tolerance {rel_tol:.1e}\n"
        )
        code = 2
    return code


def _validate_checks(config: RunConfig) -> Iterator[Tuple[str, float, float, bool]]:
    """validate's checks in order, as (name, value, limit, larger_ok).

    Lazy: each stage runs only when the check before it has been consumed, so
    a caller that stops at a failure runs nothing after it.  The failure-only
    checks (full_set_biorthogonal, full_set_metric_conditioning) and the
    failing branches of the shooting checks end the sequence.
    """
    from . import metric  # loads scipy.linalg, which compare and shoot never load

    tol = config.tolerances
    rng = np.random.default_rng(config.seed)
    es, es_raw = _grid_eigensystem(config, keep_raw=True)
    # The complete mode set (no reality filter) supports resolution-of-identity
    # checks; normalization of it can fail on defective pairs, which we report
    # as a failed check rather than a crash.
    try:
        es_all = spectra.normalize_biorthogonal(es_raw, sigma_tol=tol["sigma_floor"])
    except SelfOrthogonalMode:
        yield "full_set_biorthogonal", math.inf, tol["gram"], False
        return

    if config.model.pt_flag:
        yield "pt_residual", discrete.pt_residual(es.pair), tol["pt"], False
    residual = max(es.residual_right.max(), es.residual_left.max())
    yield "max_mode_residual", residual, tol["residual"], False
    yield "gram_offdiag", es.max_offdiag_gram(), tol["gram"], False
    yield "completeness", spectra.completeness_residual(es_all), tol["completeness"], False
    rebuild = spectra.spectral_rebuild_residual(es_all)
    yield "rebuild", rebuild, tol["rebuild"], False

    # kappa invariance of spectrum-level quantities
    kappa = rng.uniform(0.5, 2.0, es.m) * np.exp(1j * rng.uniform(0, 2 * np.pi, es.m))
    es_k = spectra.apply_kappa(es, kappa)
    gram, gram_k = es.gram, es_k.left.conj().T @ (es.pair.w_diag[:, np.newaxis] * es_k.right)
    # Rescaling moves each gram entry by exactly kappa_i / kappa_j.  Undoing
    # that on gram_k, rather than dressing the Gram with it, cancels solver noise
    # in the off-diagonals without amplifying rounding by |kappa_i / kappa_j|.
    undressed = gram_k * (kappa[np.newaxis, :] / kappa[:, np.newaxis])
    gram_drift = float(np.abs(undressed - gram).max())
    del gram
    yield "kappa_gram_drift", gram_drift, tol["kappa_invariance"], False
    kappa_all = rng.uniform(0.5, 2.0, es_all.m) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, es_all.m)
    )
    drift = abs(
        spectra.spectral_rebuild_residual(spectra.apply_kappa(es_all, kappa_all)) - rebuild
    )
    yield "kappa_rebuild_drift", drift, tol["kappa_invariance"], False

    result = metric.build_metric(es)
    ms = float(np.linalg.norm(result.M @ result.S - np.eye(es.m)) / np.linalg.norm(np.eye(es.m)))
    yield "ms_identity", ms, tol["ms_identity"], False
    theta = result.Theta  # each read builds it anew: read once for the three checks
    delta = metric.delta_identity_residual(es, theta)
    yield "delta_identity", delta, tol["delta_identity"], False
    for name, key, limit, larger_ok in _metric_gates(tol):
        yield name, result.diagnostics[key], limit, larger_ok

    # uniform-kappa homogeneity: Theta[c kappa] = |c|^2 Theta[kappa]
    c = _HOMOGENEITY_SCALE
    theta_c = metric.build_metric(es, kappa=c * result.kappa_used).Theta
    hom = float(np.linalg.norm(theta_c - abs(c) ** 2 * theta) / np.linalg.norm(theta))
    del theta_c
    yield "kappa_homogeneity", hom, tol["kappa_invariance"], False

    try:
        result_full = metric.build_metric(es_all)
    except IllConditionedS:
        yield "full_set_metric_conditioning", math.inf, metric.COND_S_THRESHOLD, False
        return
    if config.contour.winding == 0:
        off = result_full.S - np.diag(np.diag(result_full.S))
        ratio = float(np.linalg.norm(off) / np.linalg.norm(np.diag(np.diag(result_full.S))))
        yield "degeneration_S_offdiag", ratio, tol["w_identity_offdiag"], False
        theta_full = result_full.Theta
        del result_full
        single = metric.single_series_theta(es_all)
        dd = float(np.linalg.norm(theta_full - single) / np.linalg.norm(single))
        yield "degeneration_theta", dd, tol["degeneration"], False

    similarity = metric.theta_eigenvector_residual(es, theta)
    yield "theta_similarity_spectrum", similarity, tol["quasi_hermiticity"], False

    if config.shoot_cfg is None or not config.guesses:
        return
    roots1 = _shoot_roots(config)
    contour2 = replace(config.contour, epsilon=2.0 * config.contour.epsilon)
    roots2 = _shoot_roots(replace(config, contour=contour2))
    # each root against its nearest partner at the doubled shift; a root
    # without one is a mode that only one of the two contours finds
    partner = _pair_guesses(roots1, roots2)
    lonely = [r for i, r in enumerate(roots1) if i not in partner]
    lonely += [r for j, r in enumerate(roots2) if j not in partner.values()]
    if lonely or not partner:
        guesses = np.asarray(config.guesses, dtype=complex)
        for root in lonely:
            g = guesses[np.argmin(np.abs(guesses - root))]
            sys.stderr.write(
                f"validate: guess {g:g} converged to {root:g} at only one of the "
                "shifts epsilon, 2*epsilon\n"
            )
        yield "shoot_epsilon_independence", math.inf, tol["epsilon_independence"], False
        return
    i, j = np.array(list(partner)), np.array(list(partner.values()))
    rel = float(np.max(np.abs(roots1[i] - roots2[j]) / np.maximum(1.0, np.abs(roots1[i]))))
    yield "shoot_epsilon_independence", rel, tol["epsilon_independence"], False

    # refinement order: RK4's error in y'/y of the right half-path at a
    # fixed energy falls ~16x per halving of a uniform step; the grids
    # must pass the integrator's own phase gate, else no order is certified
    seq = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", StepTooCoarseWarning)
        try:
            for steps in _REFINEMENT_STEPS:
                cfg_u = replace(config.shoot_cfg, steps=steps, phase_resolution=None)
                y, dy = shoot.integrate_halfpath(
                    config.model, config.guesses[0], "right", cfg_u, config.contour
                )
                seq.append(dy / y)
        except StepTooCoarseWarning as exc:
            sys.stderr.write(f"validate: {steps}-step refinement grid too coarse: {exc}\n")
    if len(seq) < len(_REFINEMENT_STEPS):
        yield "shoot_refinement_order", 0.0, 6.0, True
        return
    ratio = abs(seq[0] - seq[1]) / max(abs(seq[1] - seq[2]), 1e-300)
    yield "shoot_refinement_order", ratio, 6.0, True


def _cmd_validate(config: RunConfig, out_dir: str) -> int:
    """Run the module invariant suite on the configured problem; stop on first failure."""
    _require_grid(config)
    checks: List[Dict[str, Any]] = []
    for name, value, limit, larger_ok in _validate_checks(config):
        ok = _passes(value, limit, larger_ok)
        checks.append(
            {"name": name, "value": float(value), "limit": float(limit), "pass": bool(ok)}
        )
        word = "PASS" if ok else "FAIL"
        cmp = ">" if larger_ok else "<="
        sys.stdout.write(f"{word} {name}: {value:.6e} {cmp} {limit:.6e}\n")
        if not ok:
            break
    passed = all(item["pass"] for item in checks)
    _json_dump({"checks": checks, "passed": passed}, os.path.join(out_dir, "validate.json"))
    return 0 if passed else 2


def run(config: RunConfig, command: Optional[str] = None, out_dir: Optional[str] = None) -> int:
    """Execute one command; returns the process exit code."""
    cmd = command or config.command
    if cmd is None:
        raise ConfigError("no command given (config 'command' key or --command flag)")
    if cmd not in _COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}; expected one of {_COMMANDS}")
    target = out_dir or config.output_dir
    try:
        os.makedirs(target, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {target!r}: {exc}") from exc
    handler = {
        "spectrum": _cmd_spectrum,
        "metric": _cmd_metric,
        "shoot": _cmd_shoot,
        "compare": _cmd_compare,
        "validate": _cmd_validate,
    }[cmd]
    return handler(config, target)


def main(argv: Optional[List[str]] = None) -> int:
    # glibc raises its mmap threshold to the largest block freed so far, and the
    # n x n arrays then fragment the heap: metric at n = 900 peaked at 110-113 MB
    # without it, and at 99-102 MB with it fixed (-3: M_MMAP_THRESHOLD)
    with contextlib.suppress(AttributeError, OSError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 1 << 20)
    parser = argparse.ArgumentParser(
        prog="qtoboggan",
        description="Winding-contour eigenproblems: rectified spectra, metric operators, shooting.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--command", choices=_COMMANDS, help="override the config's command")
    parser.add_argument("--out", help="override the config's output directory")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry by dotted path (repeatable), e.g. grid.n=800",
    )
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, overrides=args.override)
        return run(config, command=args.command, out_dir=args.out)
    except (ConfigError, SchemaMismatch) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 4
    except UnverifiedMode as exc:
        sys.stderr.write(f"unverified mode: {exc}\n")
        return 5
    except QTobogganError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
