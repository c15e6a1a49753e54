"""Self-test of the benchmark's bookkeeping (about half a minute).

    python3 perfbench/selftest.py

For each workload it runs a cheap subset of one pass's jobs and expects
every check to pass; then it runs the subset again with some jobs' results
slightly perturbed, or with the job made to raise, and expects exactly those
jobs to be counted as failed.
Finally it traces the subset and expects every job's top-level spans to
cover at least 90% of its traced time, and every per-layer metric to be
named in BENCHMARK.json.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import thermoshift as ts  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import check_jobs, run_jobs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _shift_mass(result):
    masses = result.state.masses.copy()
    masses[0] += 1e-6
    masses[1] -= 1e-6
    state = ts.CylinderMeasure(result.state.model, result.state.depth, masses)
    return dataclasses.replace(result, state=state)


def _raise(result):
    raise ts.ConvergenceError("injected")


# workload -> (job kinds in the subset, perturbation of a job's result,
#              kinds whose jobs are perturbed and must fail)
CASES = {
    "equilibrium": ({"kms_iterate.golden"}, _shift_mass, {"kms_iterate.golden"}),
    "deep_tables": ({"apply.full2", "apply.golden", "coarsen.full2", "rpf_solve.golden_const"},
                    lambda out: ts.CylinderFunction(out.model, out.depth,
                                                    out.values * (1 + 1e-9)),
                    {"apply.full2", "apply.golden"}),
    "small_tables": ({"m_value.full2.d3", "m_value.sft3.d2", "twist.full2"},
                     lambda r: (dataclasses.replace(r[0], m=r[0].m + 1e-6), r[1]),
                     {"m_value.full2.d3", "m_value.sft3.d2"}),
    "phase_transition": ({"pressure_at", "tower_pressure_oracle"}, _raise,
                         {"tower_pressure_oracle"}),
}


def subset(workload, kinds, perturb=None, must_fail=()):
    jobs = [job for job in WORKLOADS[workload](1) if job.kind in kinds]
    for job in jobs:
        if job.kind in must_fail:
            job.run = lambda run=job.run: perturb(run())
    return jobs


def records(jobs):
    return check_jobs(jobs, run_jobs(jobs)[0])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload, (kinds, perturb, must_fail) in CASES.items():
        bad = [r for r in records(subset(workload, kinds)) if r[2] != "ok"]
        if bad:
            problems.append(f"{workload}: unperturbed jobs failed: {bad}")

        perturbed = records(subset(workload, kinds, perturb, must_fail))
        for kind, _, status in perturbed:
            if (status != "ok") != (kind in must_fail):
                problems.append(f"{workload}: perturbed {kind} -> {status}")
        hit = sum(r[0] in must_fail for r in perturbed)
        failed = sum(r[2] != "ok" for r in perturbed)
        print(f"{workload}: {hit} of {len(perturbed)} jobs perturbed, "
              f"{failed} counted as failed")

        jobs = subset(workload, kinds)
        tracer = Tracer("spans")
        tracer.install()
        run_jobs(jobs, tracer)
        tracer.uninstall()
        coverage = min(tracer.job_coverage())
        if coverage < 0.9:
            problems.append(f"{workload}: top-level spans cover only {coverage:.1%} of a job")
        unknown = set(tracer.layer_metrics()) - layer_names
        if unknown:
            problems.append(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        print(f"{workload}: traced, minimum job coverage {coverage:.1%}")
    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
