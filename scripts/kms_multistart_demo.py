"""Drive the equilibrium-state iteration from many random starts.

Shows start-independence of the fixed state on the full 2-shift with
energies H = (2, 3): every start lands on the Bernoulli(3/5, 2/5) product
state, and the pairwise total-variation spread collapses to rounding.

Usage: python scripts/kms_multistart_demo.py [--beta 1.0] [--starts 8]
       [--depth 4] [--seed 0]
"""
import argparse

import numpy as np

from thermoshift import (
    CylinderFunction,
    GaugeSpec,
    full_shift,
    gibbs_state,
    kms_iterate,
    projection_steps,
    random_start,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--starts", type=int, default=8)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    model = full_shift(2)
    H = CylinderFunction.from_dict(model, 1, {(0,): 2.0, (1,): 3.0})
    spec = GaugeSpec(model, H, CylinderFunction.constant(model, 0.5), args.beta)
    steps = projection_steps(spec, args.depth)
    rng = np.random.default_rng(args.seed)

    states = []
    print(f"beta = {args.beta}, projection steps = {steps}")
    for i in range(args.starts):
        res = kms_iterate(spec, random_start(spec, args.depth, rng), steps)
        states.append(res.state)
        print(f"start {i}: {res.iterations} steps, last change {res.history[-1]:.2e}")

    spread = max(states[i].total_variation(states[j])
                 for i in range(len(states)) for j in range(i + 1, len(states)))
    ref = gibbs_state(spec, depth=args.depth)
    dist = max(s.total_variation(ref) for s in states)
    print(f"pairwise TV spread: {spread:.2e}")
    print(f"TV distance to the product state: {dist:.2e}")
    print("depth-1 masses:", {0: round(states[0].mass_of((0,)), 12),
                              1: round(states[0].mass_of((1,)), 12)})


if __name__ == "__main__":
    main()
