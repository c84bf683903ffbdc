"""Batch front-end: config in, spectra / metric matrices / residual reports out.

Commands: spectrum, metric, shoot, compare, validate.  Exit codes: 0 success,
2 validation failure, 3 solver error, 4 config error, 5 a compared grid mode
failed its residual or reality gate.

The metric's gates are in qtoboggan.metric, and validate's checks are the table
in qtoboggan.validate, handed its eigensystems here.  No module imports this one.

The BLAS thread count is capped, if at all, by OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS or MKL_NUM_THREADS set before launch.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from . import discrete, model, shoot, spectra
from .errors import (
    ConfigError,
    QTobogganError,
    SchemaMismatch,
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


def _write_csv(path: str, header: List[str], rows: Iterable[List[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def report_render(diagnostics: Dict[str, float]) -> str:
    """Deterministic text table of metric diagnostics (their own order, 10 sig digits)."""
    header = f"{'quantity':<14} {'value':>18}"
    lines = [header, "-" * len(header)]
    for key, value in diagnostics.items():
        lines.append(f"{key:<14} {format(float(value), '.10g'):>18}")
    return "\n".join(lines) + "\n"


def _require_grid(config: RunConfig) -> None:
    if config.grid is None:
        raise ConfigError("this command needs a 'grid' section in the config")


def _require_shoot(config: RunConfig) -> None:
    if config.shoot_cfg is None:
        raise ConfigError("this command needs a 'shoot' section in the config")
    if not config.guesses:
        raise ConfigError("this command needs shoot.guesses in the config")


def _grid_eigensystem(config: RunConfig, out_dir: Optional[str] = None, keep_raw: bool = False):
    """Rectify, discretize, solve, filter, and normalize; returns (es, es_raw).

    Given `out_dir`, spectrum.csv is written there before normalization, with
    sigma on unit vectors.  es_raw is the unfiltered, unnormalized solve, so a
    caller can normalize the complete mode set without solving twice; without
    `keep_raw` it is None, dropped as soon as it is filtered.
    """
    rect = model.rectify_model(config.model, config.contour.winding)
    pair = discrete.build_operators(rect, config.grid)
    tol = config.tolerances
    es_raw = spectra.solve_generalized(pair, tol=tol["pairing"])
    es = spectra.filter_real(es_raw, tol_im=tol["filter_im"], tol_residual=tol["residual"])
    if not keep_raw:
        es_raw = None
    if out_dir is not None:
        spectra.save_spectrum_csv(es, os.path.join(out_dir, "spectrum.csv"))
    es = spectra.normalize_biorthogonal(es, sigma_tol=tol["sigma_floor"])
    return es, es_raw


def _write_residuals(out_dir: str, es):
    """Write residuals.json; returns es, for a caller to hand on."""
    pair = es.pair
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
    _write_residuals(out_dir, _grid_eigensystem(config, out_dir)[0])
    return 0


def _cmd_metric(config: RunConfig, out_dir: str) -> int:
    _require_grid(config)
    from . import metric  # loads scipy.linalg, which compare and shoot never load

    # no reference to the eigensystem is kept here, so build_metric frees its
    # vectors once read (Python >= 3.11 keeps no call's arguments on this stack)
    result = metric.build_metric(_write_residuals(out_dir, _grid_eigensystem(config, out_dir)[0]))
    h = config.grid.h
    eps = config.grid.epsilon
    discrete.save_matrix_bin(result.Theta, os.path.join(out_dir, "theta.bin"), h, eps)
    discrete.save_matrix_bin(result.S, os.path.join(out_dir, "S.bin"), h, eps)
    _json_dump(result.diagnostics, os.path.join(out_dir, "diagnostics.json"))
    sys.stdout.write(report_render(result.diagnostics))
    failed = []
    for _, key, limit, larger_ok in metric.GATES:
        limit, value = metric.gate_limit(config.tolerances, limit), result.diagnostics[key]
        if not metric.passes(value, limit, larger_ok):
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
    rows = ([j, repr(float(r.real)), repr(float(r.imag))] for j, r in enumerate(roots))
    _write_csv(os.path.join(out_dir, "roots.csv"), ["index", "re_E", "im_E"], rows)
    if config.scan is not None:
        energies = np.linspace(config.scan["start"], config.scan["stop"], config.scan["count"])
    else:
        # about the roots, or about the guesses when none converged
        ref = (roots if len(roots) else np.asarray(config.guesses)).real
        energies = np.linspace(float(ref.min()) - 1.0, float(ref.max()) + 1.0, 101)
    abs_F = shoot.scan_mismatch(config.model, config.contour, config.shoot_cfg, energies)
    rows = ([repr(float(E.real)), repr(float(E.imag)), repr(float(f))]
            for E, f in zip(energies, abs_F))
    _write_csv(os.path.join(out_dir, "scan.csv"), ["re_E", "im_E", "abs_F"], rows)
    return 0


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
    root_of = shoot.pair_nearest(guesses, roots)
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
    header = ["index", "re_E_grid", "re_E_shoot", "abs_delta", "rel_delta"]
    _write_csv(os.path.join(out_dir, "delta.csv"), header, rows)
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


def _cmd_validate(config: RunConfig, out_dir: str) -> int:
    _require_grid(config)
    from . import validate  # loads scipy.linalg, which compare and shoot never load

    records = validate.run(config, *_grid_eigensystem(config, keep_raw=True))
    passed = all(item["pass"] is not False for item in records)
    _json_dump({"checks": records, "passed": passed}, os.path.join(out_dir, "validate.json"))
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
