"""Steadiness check: run the benchmark on several seeds and report, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--trace-seed N] [--save FILE]

--trace-seed adds one traced run per workload and keeps its per-layer
metrics.  --save writes everything as JSON; perfbench/baseline.json was made
this way.  Runs are sequential, one at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1      # run.py's default
HELD_OUT_SEED = 1009  # kept out of tuning; confirms later performance claims


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(spec, workload, seed, trace):
    """(info line, result line) of one benchmark run."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--save", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = []
        for seed in args.seeds:
            info, result = bench(spec, workload, seed, 0)
            report.setdefault("environment", {
                k: info[k] for k in ("python", "numpy", "scipy", "blas",
                                     "blas_threads", "nproc")})
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            failed.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = report["workloads"][workload] = {"failed_frac": failed, "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": bounds[name], "values": vals}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:17s} {name:12s} median {med:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {spread:6.3f}  bound {bounds[name]}", flush=True)
        print(f"{workload:17s} failed_frac {statistics.median(failed):.3f}", flush=True)
        if args.trace_seed is not None:
            info, result = bench(spec, workload, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed,
                               "min_job_coverage": info["min_job_coverage"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            print(f"{workload:17s} traced: min job coverage {info['min_job_coverage']:.3f}, "
                  f"overhead {result['metrics']['trace_overhead_frac']['value']:.3f}",
                  flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.save:
        Path(args.save).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
