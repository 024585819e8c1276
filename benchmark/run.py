"""surfcalc benchmark driver.

    python3 benchmark/run.py --workload solver --seed 0 --seconds 30 --trace 0

Runs passes of one workload, each in a fresh single-threaded process
(``workloads.py``), until ``--seconds`` is spent, and derives every check's
verdict itself.  Each pass samples the host's speed while it runs
(``speed.py``), and the driver scales the pass's times to a nominal speed,
so that the host's slow and fast states do not move the figures.  With
``--trace 0`` it prints the end-to-end metrics (medians over passes); with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics plus the tracing overhead.  The last stdout line is one
JSON object: ``correct``, ``attempted`` and ``failed`` (checks) and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
HARD_LIMIT_S = 150
PASS_TIMEOUT_S = 150

# A typical mean probe time of ``speed.py`` on the 2-core VM the benchmark
# was defined on.  A phase of a pass is scaled by PROBE_NOMINAL_S over its
# mean probe time, so the reported times read as seconds on that VM at its
# typical speed.
PROBE_NOMINAL_S = 1.0e-4

# Checks that fail at the commit this benchmark was defined on.  They count in
# ``failed`` and ``checks_failed_frac`` and are printed by name; only a
# failure outside this list makes a run incorrect.
KNOWN_FAILURES = {
    # ROADMAP, Blocking: the torus action-ladder slope is 1.66, not 2 +- 0.1
    "scenarios": {"torus_variational/action_variation_slope"},
}


def verdict(value, tolerance):
    """A check passes only on a finite value within its tolerance."""
    return math.isfinite(value) and value <= tolerance


def tally(checks):
    """(checks run, names of failed checks, inconclusive count) for rows
    ``[name, value, tolerance, inconclusive]``.  An inconclusive check is
    counted apart and still gets its own verdict."""
    failed = [name for name, value, tol, _ in checks
              if not verdict(value, tol)]
    inconclusive = sum(1 for *_, inc in checks if inc)
    return len(checks), failed, inconclusive


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_one(workload, seed, env, trace_path=None):
    """One pass in a fresh process; its record plus set-up and wall time."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_raw_s"] = record["setup_end"] - start
    record["solve_raw_s"] = record["solve_s"]
    for phase in ("setup", "solve"):
        mean, total = record["speed"][phase]
        record[f"{phase}_s"] = ((record[f"{phase}_raw_s"] - total)
                                * PROBE_NOMINAL_S / mean)
    record["wall_s"] = wall
    return record


def median(values):
    return float(statistics.median(values))


def run_passes(workload, seed, seconds, trace, env):
    """Untraced passes (alternating with traced ones when tracing) until the
    next pass would end past ``seconds``, but at least ``MIN_PASSES``
    untraced passes (one of each kind when tracing) unless that would pass
    ``HARD_LIMIT_S``.  Returns (untraced records, traced records)."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        done = traced if trace and len(traced) < len(plain) else plain
        if plain and (traced or not trace):
            ahead = time.monotonic() - start + median(
                [r["wall_s"] for r in done])
            floor_met = len(plain) >= (1 if trace else MIN_PASSES)
            if ahead > seconds and (floor_met or ahead > HARD_LIMIT_S):
                break
        path = None
        if done is traced:
            path = OUT_DIR / (f"trace-{workload}-seed{seed}"
                              f"-pass{len(traced)}.json")
        record = run_one(workload, seed, env, path)
        if path is not None:
            record["trace"] = json.loads(path.read_text())
        done.append(record)
    return plain, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("solver", "ladder", "scenarios"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "surfcalc" / "__init__.py").is_file():
        print(f"error: no surfcalc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()
    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds,
                                   args.trace, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = plain + traced
    versions = records[0]["versions"]
    print(f"surfcalc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"python {versions['python']}, numpy {versions['numpy']}, scipy "
          f"{versions['scipy']}, nproc {os.cpu_count()}, "
          + ", ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    print(f"inputs: {json.dumps(records[0]['inputs'])}")
    lines = {f.stem: len(f.read_text().splitlines())
             for f in sorted((ROOT / "src" / "surfcalc").glob("*.py"))}
    print(f"src lines: {sum(lines.values())} ("
          + ", ".join(f"{k} {v}" for k, v in lines.items()) + ")")

    attempted, failed_names, inconclusive = 0, [], 0
    for n, r in enumerate(records):
        run, failed, inc = tally(r["checks"])
        attempted += run
        failed_names += failed
        inconclusive += inc
        kind = "traced" if "trace" in r else "plain"
        speed = {k: PROBE_NOMINAL_S / m for k, (m, _) in r["speed"].items()}
        print(f"pass {n + 1} ({kind}): setup {r['setup_s']:.4f} s (raw "
              f"{r['setup_raw_s']:.4f} s at speed {speed['setup']:.3f}), "
              f"solve {r['solve_s']:.4f} s (raw {r['solve_raw_s']:.4f} s at "
              f"speed {speed['solve']:.3f}), "
              f"peak rss {r['peak_rss_mb']:.1f} MiB, "
              f"{run} checks, {len(failed)} failed, {inc} inconclusive")
    unexpected = sorted(set(failed_names)
                        - KNOWN_FAILURES.get(args.workload, set()))
    for name in sorted(set(failed_names)):
        tag = "unexpected" if name in unexpected else "known defect"
        print(f"FAILED CHECK ({tag}): {name}")

    summary = {
        "checks_failed_frac": (len(failed_names) / attempted, "ratio"),
        "checks_inconclusive_frac": (inconclusive / attempted, "ratio"),
    }
    labels = {}
    if args.trace:
        metrics, labels = layer_metrics([r["trace"] for r in traced])
        metrics["tracing.overhead_s"] = (
            median([r["solve_s"] for r in traced])
            - median([r["solve_s"] for r in plain]), "s")
    else:
        metrics = {
            "setup_s": (median([r["setup_s"] for r in plain]), "s"),
            "solve_s": (median([r["solve_s"] for r in plain]), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MiB"),
        }
    for name, (value, unit) in {**metrics, **summary}.items():
        print(f"  {name:56s} {value:14.6g} {unit} {labels.get(name, '')}")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed_names),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
