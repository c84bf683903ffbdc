"""The traced benchmark's per-layer metrics name functions the package still has.

`perfbench/run.py` reads `metrics[name]` for every per-layer metric in
BENCHMARK.json, and the tracer records `<layer>.<function>.<suffix>` only for
functions in that layer's `__all__`; a renamed or deleted function would crash
the traced run with a KeyError.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layers():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_per_layer_metrics_name_public_functions():
    layers = _layers()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked = 0
    for name in names:
        parts = name.split(".")
        if len(parts) != 3 or parts[0] not in layers:
            continue  # counts read from span attributes or warnings, e.g. spectra.retained_modes
        layer, function, _ = parts
        module = importlib.import_module(f"qtoboggan.{layer}")
        assert function in module.__all__, name
        checked += 1
    assert checked > 0
