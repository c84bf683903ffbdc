"""qtoboggan benchmark: closed-loop CLI runs of one workload, or one traced run.

Run from the repository root:

    python3 perfbench/run.py --workload cubic-shoot --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, defaults

With ``--trace 0`` one client runs the real CLI as fresh processes, one after
another, until ``--seconds`` is spent, and reports the end-to-end metrics.
With ``--trace 1`` it runs ``cli.run`` in process twice, untraced then traced,
and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric names
and units come from BENCHMARK.json.  Every run also writes a record with the
host, the seeded inputs, the samples and the spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# BLAS/OpenMP pools pinned to one thread: as fast as two on this package's
# sizes and steadier.  Set for every child and for this process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
INVOCATION_TIMEOUT_S = 100.0
GUESS_JITTER = 0.01  # relative; every seed still converges to the same roots

SETUP_SNIPPET = (
    "import sys, numpy, scipy.linalg, scipy.sparse.linalg, scipy.integrate\n"
    "from qtoboggan import cli\n"
    "cli.load_config(sys.argv[1])\n"
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the repository root
    command: str
    checker: str  # function name in checks.py
    edits: Tuple[Tuple[str, Any], ...] = ()  # dotted config keys set before seeding


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cubic-compare", "configs/cubic_winding1.json", "compare", "cubic_compare"),
        Workload("cubic-shoot", "configs/cubic_winding1.json", "shoot", "cubic_shoot"),
        Workload("harmonic-validate", "configs/harmonic_line.json", "validate", "harmonic_validate"),
        Workload("harmonic-metric", "configs/harmonic_line.json", "metric", "harmonic_metric",
                 edits=(("grid.n", 900),)),
        Workload("harmonic-compare", "configs/harmonic_line.json", "compare", "harmonic_compare",
                 edits=(("grid.n", 900),)),
    )
}


def seeded_config(workload: Workload, seed: int, path: str) -> Dict[str, Any]:
    """Write the workload's config with seed-derived inputs to `path`; return it.

    The seed sets the config ``seed`` (validate's kappa draws) and a small
    relative jitter of each shooting guess.
    """
    with open(os.path.join(ROOT, workload.config), encoding="utf-8") as fh:
        raw = json.load(fh)
    for key, value in workload.edits:
        node = raw
        *parents, leaf = key.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
    rng = random.Random(seed)
    raw["seed"] = rng.randrange(1, 2**31)
    guesses = raw["shoot"]["guesses"]
    raw["shoot"]["guesses"] = [g * (1.0 + rng.uniform(-GUESS_JITTER, GUESS_JITTER)) for g in guesses]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
    return raw


def child_env() -> Dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_process(argv: List[str], stderr_path: str) -> Tuple[float, int, float]:
    """Run argv to completion; return (wall s, exit code, peak RSS MB) of the child."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(config_path: str, work: str) -> float:
    err = os.path.join(work, "setup.err")
    wall, rc, _ = timed_process([sys.executable, "-c", SETUP_SNIPPET, config_path], err)
    if rc != 0:
        raise RuntimeError(f"setup process exited {rc}: {_tail(err)}")
    return wall


def _tail(path: str, limit: int = 400) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-limit:].strip()


def invoke(workload: Workload, config_path: str, raw: dict, out_dir: str, check: Callable) -> Dict[str, Any]:
    """One CLI invocation as a fresh process, plus the correctness check of its output."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, "-m", "qtoboggan.cli", "--config", config_path,
            "--command", workload.command, "--out", out_dir]
    err = out_dir + ".err"
    wall, rc, rss = timed_process(argv, err)
    problems, deviations = check(out_dir, raw) if rc == 0 else ([f"exit code {rc}: {_tail(err)}"], {})
    return {"wall_s": wall, "rc": rc, "peak_rss_mb": rss, "problems": problems, "deviations": deviations}


def tail_percentile(samples: List[float]) -> Optional[Tuple[float, float]]:
    """(p, value) for the highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return None
    p = 100.0 * (n - 10) / n
    return p, statistics.quantiles(samples, n=100, method="inclusive")[int(p) - 1]


def closed_loop(workload: Workload, seed: int, seconds: float, work: str, check: Callable):
    """End-to-end metrics: one client, next CLI process only after the last exits."""
    config_path = os.path.join(work, "config.json")
    raw = seeded_config(workload, seed, config_path)
    setup: List[float] = []
    samples: List[Dict[str, Any]] = []
    rounds: List[float] = []
    start = time.perf_counter()
    while True:
        # One set-up sample per invocation, so both medians span the whole run.
        round_start = time.perf_counter()
        setup.append(measure_setup(config_path, work))
        samples.append(invoke(workload, config_path, raw, os.path.join(work, "out"), check))
        rounds.append(time.perf_counter() - round_start)
        # Start another round only if a typical one still fits in the run.
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    walls = [s["wall_s"] for s in samples]
    failed = sum(1 for s in samples if s["problems"])
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "ok_ratio": 1.0 - failed / len(samples),
    }
    record = {"raw_config": raw, "setup_samples": setup, "samples": samples,
              "wall_tail": tail_percentile(walls), "fail_ratio": failed / len(samples)}
    return len(samples), failed, metrics, record


def traced(workload: Workload, seed: int, work: str, check: Callable):
    """Per-layer metrics from one untraced and one traced in-process cli.run."""
    import tracing

    config_path = os.path.join(work, "config.json")
    raw = seeded_config(workload, seed, config_path)
    plain_dir, traced_dir = os.path.join(work, "plain"), os.path.join(work, "traced")
    plain_rc, plain_s, traced_rc, spans, metrics = tracing.traced_run(
        config_path, workload.command, plain_dir, traced_dir, f"{workload.name}-{seed}")
    problems = [check(plain_dir, raw)[0] if plain_rc == 0 else [f"exit code {plain_rc}"]]
    found, deviations = check(traced_dir, raw) if traced_rc == 0 else ([f"exit code {traced_rc}"], {})
    problems.append(found)
    metrics["spectra.grid_ref_rel_err"] = deviations.get("spectra.grid_ref_rel_err", 0.0)
    metrics["shoot.root_ref_rel_err"] = deviations.get("shoot.root_ref_rel_err", 0.0)
    failed = sum(1 for p in problems if p)
    record = {"raw_config": raw, "untraced_s": plain_s, "problems": problems, "spans": spans,
              "all_metrics": metrics}
    return 2, failed, metrics, record


def host_record() -> Dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in (*THREAD_ENV, "TOBOGGAN_THREADS")},
        "git_commit": commit,
    }


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result printed as the last line, run record)."""
    import checks

    refs = checks.load_references(ROOT)
    check = functools.partial(checks.check, getattr(checks, workload.checker), refs=refs)
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(base, "records"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base)
    try:
        if trace:
            attempted, failed, metrics, record = traced(workload, seed, work, check)
        else:
            attempted, failed, metrics, record = closed_loop(workload, seed, seconds, work, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = load_spec()["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    record.update(workload=workload.name, seed=seed, seconds=seconds, trace=trace,
                  host=host_record(), result=result)
    name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(base, "records", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result, record


def report(workload: Workload, result: Dict[str, Any], record: Dict[str, Any], out=sys.stdout) -> None:
    """Human-readable block: every metric with its unit, then the host record."""
    raw = record["raw_config"]
    out.write(f"# {workload.name}: {workload.config} --command {workload.command}, seed {record['seed']} "
              f"(config seed {raw['seed']}, guesses {[round(g, 6) for g in raw['shoot']['guesses']]})\n")
    if record["trace"]:
        out.write(f"#   traced in process; untraced cli.run {record['untraced_s']:.3f} s\n")
    else:
        n = len(record["samples"])
        tail = record["wall_tail"]
        out.write(f"#   closed loop, 1 client, {n} invocations, {len(record['setup_samples'])} set-ups"
                  + (f", wall p{tail[0]:.0f} {tail[1]:.3f} s" if tail else "") + "\n")
        out.write(f"#   fail_ratio {record['fail_ratio']:.3g} (1) = {result['failed']}/{result['attempted']}\n")
        for s in record["samples"]:
            for problem in s["problems"]:
                out.write(f"#   FAIL {problem}\n")
    for name, m in result["metrics"].items():
        out.write(f"#   {name:<44} {m['value']:>14.6g} {m['unit']}\n")
    out.write(f"# host {json.dumps(record['host'], sort_keys=True)}\n")


def prepare() -> List[str]:
    """Pin threads and put src/ on sys.path; returns the repository files missing."""
    needed = ("src/qtoboggan/cli.py", "tests/reference_values.py", "BENCHMARK.json",
              *{w.config for w in WORKLOADS.values()})
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if not missing:
        os.environ.update(THREAD_ENV)  # before numpy loads in this process
        sys.path.insert(0, SRC)
    return missing


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = prepare()
    if missing:
        sys.stderr.write(f"perfbench: not a qtoboggan checkout, missing {missing}\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except Exception:  # report and exit non-zero without a result line
            traceback.print_exc()
            return 1
        report(WORKLOADS[name], result, record)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
