"""thermoshift benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run sets the workload up SETUP_RUNS
times, each in a fresh interpreter (perfbench/worker.py), and reports the
median set-up time.  The last of them then repeats one *pass* of the
workload, each pass a forked child of the set-up, until about --seconds
have gone by.  Every pass starts with thermoshift's word-table caches as a
fresh interpreter has them after set-up, and runs the same jobs on the same
inputs, drawn from --seed.  BLAS threads are pinned for every process.

A job's time is the fastest of its passes.  The jobs are deterministic, so
the passes differ only in how much other tenants of the machine slowed them
down; that interference only ever adds time, and changes within a fraction
of a second, so the fastest pass of each job is the estimate it disturbs
least.  Peak memory is the median over the passes.

With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
alternates untraced, span-traced and tracemalloc passes and carries the
per-layer metrics.  A human-readable summary precedes the result, which is
the last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("equilibrium", "deep_tables", "small_tables", "phase_transition")
SETUP_RUNS = 3
# one BLAS thread: two halve rpf_solve at 4096 words on a two-CPU machine,
# but any other activity there can stall one of them; in one five-seed
# comparison deep_tables' wall_s spread was 0.18 with two and 0.07 with one
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
RUN_TIMEOUT = 150  # every process of a run must have ended by then


def tail(times):
    """Highest percentile in TAIL_PERCENTILES with at least ten jobs beyond
    it (nearest rank), as (value, percentile); the median when there are
    fewer than twenty jobs."""
    ordered = sorted(times)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        if n * (1 - q / 100) >= 10:
            return ordered[max(0, math.ceil(q / 100 * n) - 1)], q
    return statistics.median(ordered), 50


def spawn(args, env, deadline):
    """Run worker.py with `args` in its own session; return its last line
    of output as JSON and the perf_counter time it was spawned at.  On a
    timeout the worker and any pass it has forked are killed and reaped."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        try:  # a pass the worker forked may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                           + err[-2000:])
    return json.loads(out.strip().splitlines()[-1]), spawned


def run_workload(workload, seed, seconds, trace, env):
    """(median set-up seconds, pass results, environment)"""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_RUNS - 1):
        result, spawned = spawn(base + ["--setup-only"], env, deadline)
        setups.append(result["ready"] - spawned)
    budget = seconds - (time.monotonic() - start) - statistics.median(setups)
    result, spawned = spawn(base + ["--budget", f"{budget:.3f}", "--trace", str(trace)],
                            env, deadline)
    setups.append(result["ready"] - spawned)
    return statistics.median(setups), result["passes"], result["env"]


def fastest(passes):
    """Each job's fastest time over the passes (which ran the same jobs)."""
    kinds = [job[0] for job in passes[0]["jobs"]]
    if any([job[0] for job in p["jobs"]] != kinds for p in passes):
        raise ValueError("passes of one seed ran different jobs")
    return [min(p["jobs"][j][1] for p in passes) for j in range(len(kinds))]


def end_to_end(setup_s, passes):
    best = fastest(passes)
    value, q = tail(best)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "job_p50_s": statistics.median(best),
        "job_tail_s": value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, {"tail_percentile": q}


def per_layer(plain, spans, memory):
    metrics = {key: statistics.median(p["layers"][key] for p in spans)
               for key in spans[0]["layers"]}
    for key in memory[0]["peaks"]:
        metrics[key] = statistics.median(p["peaks"][key] for p in memory)
    metrics["trace_overhead_frac"] = sum(fastest(spans)) / sum(fastest(plain)) - 1.0
    coverage = min(c for p in spans for c in p["coverage"])
    return metrics, {"min_job_coverage": coverage}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thermoshift" / "__init__.py").is_file():
        print(f"thermoshift sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)

    try:
        setup_s, passes, environment = run_workload(args.workload, args.seed,
                                                    args.seconds, args.trace, env)
        by_mode = {}
        for p in passes:
            by_mode.setdefault(p["mode"], []).append(p)
        if args.trace:
            metrics, extra = per_layer(by_mode["plain"], by_mode["spans"], by_mode["memory"])
        else:
            metrics, extra = end_to_end(setup_s, by_mode["plain"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1

    executed = [job for p in passes for job in p["jobs"]]
    failed = sum(job[2] != "ok" for job in executed)
    wrong = sum(job[2].startswith("check_failed") for job in executed)
    n_jobs = len(passes[0]["jobs"])
    info = {"workload": args.workload, "seed": args.seed, "passes": len(passes),
            "jobs_per_pass": n_jobs, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), **environment,
            "failed_frac": failed / len(executed), "failed": failed,
            "attempted": len(executed), **extra}
    print(json.dumps(info))
    for name, value in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = f" (p{extra['tail_percentile']:g} of {n_jobs} jobs)"
        print(f"{args.workload} {name} = {value:.6g} {units[name]}{note}")
    print(f"{args.workload} failed_frac = {failed / len(executed):.6g} "
          f"({failed} of {len(executed)} jobs)")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(executed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
