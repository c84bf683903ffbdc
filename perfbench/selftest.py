"""Self-test of the benchmark harness at reduced sizes (about two minutes).

    python3 perfbench/selftest.py

It runs the harness on shrunken variants of the workloads (small grid, one
guess) and checks that:

1. every metric named in BENCHMARK.json is printed with its unit, by a
   closed-loop run and by a traced run;
2. in the traced run the self times of the spans under ``cli.run`` add up to
   ``cli.run.s``;
3. a second seed gives the same fail_ratio;
4. deliberately failing outputs raise fail_ratio: a guess dropped by
   ``shoot`` or ``compare``, a failing validate run, and a ``validate.json``
   edited to hold a failed check.

``cubic-compare`` has no reduced variant: below the shipped n=900 the grid
keeps a spurious real mode that compare pairs with the lowest root, so the
command exits 2 at every small n.  ``harmonic-compare`` has no such mode and
runs reduced.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import os
import shutil
import sys
import tempfile

import run

if run.prepare():
    raise SystemExit("perfbench selftest: run it from a qtoboggan checkout")

import checks  # noqa: E402  (needs src on sys.path)
import tracing  # noqa: E402

SPEC = run.load_spec()
VALIDATE = dataclasses.replace(
    run.WORKLOADS["harmonic-validate"], name="harmonic-validate-reduced",
    edits=(("grid.n", 200), ("shoot.guesses", [0.9])),
)
SHOOT = dataclasses.replace(
    run.WORKLOADS["cubic-shoot"], name="cubic-shoot-reduced", edits=(("shoot.guesses", [1.3]),)
)
METRIC = dataclasses.replace(
    run.WORKLOADS["harmonic-metric"], name="harmonic-metric-reduced", edits=(("grid.n", 400),)
)
COMPARE = dataclasses.replace(
    run.WORKLOADS["harmonic-compare"], name="harmonic-compare-reduced",
    edits=(("grid.n", 400), ("shoot.guesses", [0.9])),
)


def with_edits(workload, name, *edits):
    return dataclasses.replace(workload, name=name, edits=workload.edits + edits)


def measured(workload, seed=1, trace=False):
    result, record = run.run_workload(workload, seed, 0.1, trace)
    text = io.StringIO()
    run.report(workload, result, record, out=text)
    return result, record, text.getvalue()


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def printed_with_units(text: str, kind: str) -> bool:
    lines = [line.split() for line in text.splitlines()]
    return all(any(len(p) >= 4 and p[1] == m["name"] and p[-1] == m["unit"] for p in lines)
               for m in SPEC[kind])


def self_times_add_up(spans) -> bool:
    own = tracing.self_times(spans)
    root = next(s for s in spans if s["name"] == "cli.run")
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s["id"])
    total, todo = 0.0, [root["id"]]
    while todo:
        sid = todo.pop()
        total += own[sid]
        todo.extend(children.get(sid, []))
    return abs(total - (root["end"] - root["start"])) < 1e-9


def tampered_validate_fails() -> bool:
    """A real validate.json with one check flipped to failed must be rejected."""
    refs = checks.load_references(run.ROOT)
    check = functools.partial(checks.check, checks.harmonic_validate, refs=refs)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.ROOT, ".perfbench"))
    try:
        config = os.path.join(work, "config.json")
        raw = run.seeded_config(VALIDATE, 1, config)
        out = os.path.join(work, "out")
        sample = run.invoke(VALIDATE, config, raw, out, check)
        path = os.path.join(out, "validate.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["checks"][3]["pass"] = False
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return not sample["problems"] and bool(check(out, raw)[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    for workload in (VALIDATE, SHOOT, METRIC, COMPARE):
        result, record, text = measured(workload)
        expect(result["failed"] == 0, f"{workload.name}: reduced run passes its checks")
        expect(printed_with_units(text, "end_to_end"), f"{workload.name}: end-to-end metrics printed with units")
        result, record, text = measured(workload, trace=True)
        expect(result["failed"] == 0, f"{workload.name}: traced run passes its checks")
        expect(printed_with_units(text, "per_layer"), f"{workload.name}: per-layer metrics printed with units")
        expect(self_times_add_up(record["spans"]), f"{workload.name}: self times sum to cli.run.s")

    first = measured(VALIDATE, seed=1)[1]["fail_ratio"]
    second = measured(VALIDATE, seed=2)[1]["fail_ratio"]
    expect(first == second == 0.0, "a second seed gives the same fail_ratio")

    dropped = with_edits(SHOOT, "cubic-shoot-dropped-guess", ("shoot.max_iter", 1))
    expect(measured(dropped)[1]["fail_ratio"] == 1.0, "a dropped guess raises fail_ratio")
    unpaired = with_edits(COMPARE, "harmonic-compare-dropped-guess", ("shoot.max_iter", 1))
    expect(measured(unpaired)[1]["fail_ratio"] == 1.0, "a guess dropped by compare raises fail_ratio")
    strict = with_edits(VALIDATE, "harmonic-validate-failing", ("tolerances", {"residual": 1e-30}))
    expect(measured(strict)[1]["fail_ratio"] == 1.0, "a failing validate check raises fail_ratio")
    expect(tampered_validate_fails(), "a validate.json holding a failed check is rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
