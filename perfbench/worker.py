"""One workload's set-up and passes, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --budget S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Imports thermoshift and builds the seed's inputs (the set-up), then runs
*passes* until the next one would end more than S seconds after the set-up,
judged by the median pass so far; it makes at least MIN_PASSES.  A pass is a
forked child of the set-up process, so every pass starts from the state a
fresh interpreter has after set-up, with thermoshift's caches as the set-up
left them.  Passes take turns on the CPUs the process may use, one at a
time.  It runs every job (timed, with exceptions caught and counted),
checks every result outside the timed region, reports to the parent through
a pipe and exits.  The parent prints one JSON object as its last line of
standard output; its "ready" field is the CLOCK_MONOTONIC time
(``time.perf_counter``, shared by all processes) at which the inputs were
built.  With --setup-only it prints that and nothing else.

Untraced runs make "plain" passes (timing only).  Traced runs go "plain",
"spans" (per-layer spans and counters, spans written to perfbench/out/),
"memory" (tracemalloc peaks of kms_iterate and rpf_solve), then alternate
"plain" and "spans".
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import thermoshift  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORK_DIR, WORKLOADS  # noqa: E402


def run_jobs(jobs, tracer=None):
    """Run every job in order.  Returns (result, error, seconds) per job and
    the process's peak RSS in MB."""
    outcomes = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_begin(i, job.kind)
        t0 = time.perf_counter()
        try:
            result, error = job.run(), None
        except Exception as exc:  # counted as a failed job, never fatal
            result, error = None, f"raised:{type(exc).__name__}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.job_end()
        outcomes.append((result, error, seconds))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outcomes, rss_mb


def check_jobs(jobs, outcomes):
    """[kind, seconds, status] per job; status is "ok", "raised:<type>",
    "check_failed" or "check_failed:<type>" (the check itself raised)."""
    records = []
    for job, (result, error, seconds) in zip(jobs, outcomes):
        status = error
        if status is None:
            try:
                status = "ok" if job.check(result) else "check_failed"
            except Exception as exc:  # a check that cannot run fails the job
                status = f"check_failed:{type(exc).__name__}"
        records.append([job.kind, seconds, status])
    return records


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "thermoshift": thermoshift.__version__}


MIN_PASSES = 3


def pass_mode(index: int, trace: bool) -> str:
    if not trace:
        return "plain"
    return ("plain", "spans", "memory")[index] if index < 3 else ("plain", "spans")[index % 2]


def one_pass(jobs, mode, label):
    tracer = None if mode == "plain" else Tracer(mode)
    if tracer is not None:
        tracer.install()
    outcomes, rss_mb = run_jobs(jobs, tracer)
    if tracer is not None:
        tracer.uninstall()
    out = {"mode": mode, "peak_rss_mb": rss_mb,
           "jobs": check_jobs(jobs, outcomes)}
    if mode == "spans":
        out["layers"] = tracer.layer_metrics()
        out["coverage"] = tracer.job_coverage()
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write(WORK_DIR / f"spans-{label}.jsonl")
    elif mode == "memory":
        out["peaks"] = tracer.peaks
    return out


def forked_pass(jobs, mode, label, cpu):
    """one_pass in a child process on CPU `cpu`, which exits when it has
    reported.  BLAS is pinned to one thread, so the process forks with no
    other threads."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, {cpu})
            with os.fdopen(write_fd, "w") as fh:
                json.dump(one_pass(jobs, mode, label), fh)
            code = 0
        except Exception:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"pass {label} ({mode}) ended with wait status {status}")
    return json.loads(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = WORKLOADS[args.workload](args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    # the children's collections then leave the set-up's objects, and the
    # pages they sit on, alone
    gc.freeze()
    # passes take turns on the CPUs: other tenants slow each CPU at
    # different moments, so a job's fastest pass is drawn from all of them
    cpus = sorted(os.sched_getaffinity(0))
    passes, durations = [], []
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - ready + statistics.median(durations) <= args.budget):
        began = time.perf_counter()
        mode = pass_mode(len(passes), bool(args.trace))
        label = f"{args.workload}-{args.seed}-{len(passes)}"
        passes.append(forked_pass(jobs, mode, label, cpus[len(passes) % len(cpus)]))
        durations.append(time.perf_counter() - began)
    print(json.dumps({"ready": ready, "env": environment(), "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
