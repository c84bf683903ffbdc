#!/usr/bin/env python3
"""Solve the benchmark models and tabulate their lowest eigenvalues.

Each row pairs the package's rectified-grid result with the analytic ladder
(where one exists) or with the independently computed high-resolution
reference (see compute_reference_spectra.py).  Run times are desk scale.

Run:  python3 scripts/run_spectrum_table.py [--k 5]
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
import reference_values as ref  # noqa: E402

from qtoboggan import discrete, model, spectra  # noqa: E402


@dataclass(frozen=True)
class BenchmarkCase:
    name: str
    spec: model.ModelSpec
    winding: int
    half_width: float
    n: int
    epsilon: float
    reference: Optional[Sequence[float]]
    reference_label: str


CASES = [
    BenchmarkCase(
        name="harmonic  V=x^2",
        spec=model.ModelSpec(ell=0.0, coeffs={2: 1.0}, omega=0.0),
        winding=0, half_width=12.0, n=1500, epsilon=0.5,
        reference=ref.HARMONIC_LOWEST, reference_label="2n+1",
    ),
    BenchmarkCase(
        name="tilted    V=x^2+ix",
        spec=model.ModelSpec(ell=0.0, coeffs={2: 1.0, 1: 1j}, omega=0.0),
        winding=0, half_width=8.0, n=2000, epsilon=0.0,
        reference=ref.LINEAR_SHIFT_LOWEST, reference_label="2n+5/4",
    ),
    BenchmarkCase(
        name="cubic     V=ix^3",
        spec=model.ModelSpec(ell=0.0, coeffs={3: 1j}, omega=0.0),
        winding=0, half_width=10.0, n=1500, epsilon=0.5,
        reference=ref.CUBIC_LINE_LOWEST, reference_label="independent grid",
    ),
    BenchmarkCase(
        name="shifted   V=x^2+x",
        spec=model.ModelSpec(ell=0.0, coeffs={2: 1.0, 1: 1.0}, omega=0.0),
        winding=0, half_width=8.0, n=1500, epsilon=0.0,
        reference=[2 * k + 0.75 for k in range(8)], reference_label="2n+3/4",
    ),
    BenchmarkCase(
        name="spiral    V=ix^3+x^2 (one winding)",
        spec=model.ModelSpec(ell=0.0, coeffs={3: 1j}, omega=1.0),
        winding=1, half_width=2.2, n=900, epsilon=0.15,
        reference=ref.CUBIC_TOBOGGAN_GRID_LOWEST, reference_label="frozen grid run",
    ),
]


def run_case(case: BenchmarkCase, k: int) -> None:
    rect = model.rectify_model(case.spec, case.winding)
    grid = discrete.GridSpec(half_width=case.half_width, n=case.n, epsilon=case.epsilon)
    pair = discrete.build_operators(rect, grid)
    t0 = time.time()
    lam = spectra.lowest_eigenvalues(pair, k=k)
    dt = time.time() - t0
    print(f"\n{case.name}   (N={case.winding}, X={case.half_width}, "
          f"n={case.n}, eps={case.epsilon}; {dt:.1f}s)")
    print(f"  {'mode':>4}  {'Re E':>18}  {'Im E':>12}  {case.reference_label:>18}  {'abs err':>10}")
    for i in range(min(k, len(lam))):
        refv = case.reference[i] if case.reference is not None and i < len(case.reference) else None
        err = f"{abs(lam[i].real - refv):.2e}" if refv is not None else "  n/a"
        reftxt = f"{refv:.12f}" if refv is not None else "n/a"
        print(f"  {i:>4}  {lam[i].real:>18.12f}  {lam[i].imag:>12.2e}  {reftxt:>18}  {err:>10}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=5, help="modes per model")
    args = ap.parse_args()
    for case in CASES:
        run_case(case, args.k)


if __name__ == "__main__":
    main()
