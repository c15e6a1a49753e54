"""Time the items of ROADMAP.md's baseline once, traced, next to its figures.

    python3 perfbench/roadmap.py

Each item runs as one traced job in this fresh interpreter (BLAS threads
pinned as in run.py); the golden-mean kms_iterate runs the three starts of
tests/test_kms.py::test_iterate_start_independent, the first one cold.
Prints the job time, the ROADMAP figure, and the functions with the most
self time inside the job.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import BLAS_ENV, BLAS_THREADS  # noqa: E402

for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import thermoshift as ts  # noqa: E402
from thermoshift.config import default_p  # noqa: E402
from tracer import Tracer  # noqa: E402


def items():
    rng = np.random.default_rng(0)
    full2, golden = ts.full_shift(2), ts.golden_mean_shift()
    weight = ts.CylinderFunction(full2, 2, rng.uniform(0.5, 1.5, 4))
    L = ts.TransferOperator(full2, weight)
    f18 = ts.CylinderFunction(full2, 18, rng.random(2 ** 18))
    H = ts.CylinderFunction.from_dict(golden, 2, {(0, 0): 2.0, (0, 1): 3.0, (1, 0): 1.5})
    # tests/test_kms.py::test_iterate_start_independent: golden_spec(), three starts
    spec = ts.GaugeSpec(golden, H, default_p(golden), 0.7)
    starts_rng = np.random.default_rng(9)
    starts = [ts.random_start(spec, 4, starts_rng) for _ in range(3)]
    renewal = ts.RenewalModel(3.0, 100_000)
    H6 = ts.CylinderFunction(full2, 6, np.exp(rng.uniform(-1, 1, 64)))

    def kms(start):
        return lambda: ts.kms_iterate(spec, start, ts.projection_steps(spec, 4), tol=1e-11)

    return [
        ("rpf_solve, binary depth 12", "0.37 s", lambda: ts.rpf_solve(L, depth=12)),
        ("apply, binary depth 18", "0.83 s", lambda: ts.apply(L, f18)),
        ("golden kms_iterate depth 4, start 1 (cold)", "2.7 s", kms(starts[0])),
        ("golden kms_iterate depth 4, start 2 (warm)", "-", kms(starts[1])),
        ("golden kms_iterate depth 4, start 3 (warm)", "-", kms(starts[2])),
        ("tower_pressure_oracle, K=1e5, one beta", "3.3 s",
         lambda: ts.tower_pressure_oracle(renewal, 0.7)),
        ("m_value, binary depth 6", "0.3 s", lambda: ts.m_value(full2, H6)),
    ]


def main() -> int:
    tracer = Tracer("spans")
    todo = items()
    tracer.install()
    for i, (_, _, run) in enumerate(todo):
        tracer.job_begin(i, str(i))
        run()
        tracer.job_end()
    tracer.uninstall()
    for i, (label, roadmap, _) in enumerate(todo):
        _, start, end, _, _ = tracer.spans[tracer.jobs[i]]
        times = tracer.self_times(i)
        top = sorted(times, key=lambda n: times[n][1], reverse=True)[:3]
        detail = ", ".join(f"{n} {times[n][1]:.3f} s/{times[n][0]} calls" for n in top)
        print(f"{label:44s} {end - start:7.3f} s  (ROADMAP {roadmap})  {detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
