"""Cross-module verification: every structural identity on one configured model.

Each tag names the identity it exercises; the report carries the worst
defect seen per tag and a pass flag at that tag's tolerance.  Deterministic
given the seed.
"""
from __future__ import annotations

import numpy as np

from .config import RunConfig, gauge_spec
from .kms import (
    F_op,
    GaugeSpec,
    gibbs_state,
    kms_check,
    kms_iterate,
    projection_steps,
    random_start,
)
from .monomial import (
    AlgebraContext,
    AlgebraElement,
    adjoint,
    expectation_G,
    gauge,
    multiply,
    reduce_level,
    represent,
    state_eval,
)
from .ergopt import conditional_minima, ground_support_test
from .shiftspace import (
    CylinderFunction,
    CylinderMeasure,
    admissible_words,
    alpha_power,
    full_shift,
    point_mass,
)
from .transfer import TransferOperator, apply, cond_expectation, quasi_basis


def _default_spec() -> GaugeSpec:
    model = full_shift(2)
    H = CylinderFunction(model, 1, np.array([2.0, 3.0]))
    p = CylinderFunction.constant(model, 0.5)
    return GaugeSpec(model, H, p, 1.0)


def _max_diff(f, g) -> float:
    d = max(f.depth, g.depth)
    return float(np.abs(f.refine(d).values - g.refine(d).values).max())


def verify_all(config: RunConfig | None = None) -> dict:
    if config is not None and config.model is not None:
        spec = gauge_spec(config)
        seed = config.numeric.seed
    else:
        spec = _default_spec()
        seed = config.numeric.seed if config is not None else 0
    model, H, p, beta = spec.model, spec.H, spec.p, spec.beta
    rng = np.random.default_rng(seed)
    Lp = TransferOperator(model, p)
    tags: dict[str, dict] = {}

    # worst defects are kept with np.maximum, which (unlike max) keeps a NaN
    def record(tag, defect, tol):
        tags[tag] = {"max_defect": float(defect), "tolerance": tol,
                     "pass": bool(defect <= tol)}

    def rand_fn(depth):
        n = len(admissible_words(model, depth))
        return CylinderFunction(model, depth, rng.random(n) + 0.1)

    # transfer identity L_p(f * (g o T)) = L_p(f) * g
    defect = 0.0
    for _ in range(5):
        f, g = rand_fn(3), rand_fn(2)
        defect = np.maximum(defect, _max_diff(apply(Lp, f * alpha_power(g, 1)),
                                              apply(Lp, f) * g))
    record("transfer_identity", defect, 1e-12)

    # conditional expectations: idempotent, tower, bimodule, quasi-basis, index
    defect = 0.0
    for n in (1, 2):
        f = rand_fn(4)
        en = cond_expectation(model, p, n, f)
        defect = np.maximum(defect, _max_diff(cond_expectation(model, p, n, en), en))
        defect = np.maximum(defect, _max_diff(
            cond_expectation(model, p, n + 1, en),
            cond_expectation(model, p, n + 1, f)))
        g = rand_fn(2)
        defect = np.maximum(defect, _max_diff(
            cond_expectation(model, p, n, alpha_power(g, n) * f),
            alpha_power(g, n) * en))
    basis, index = quasi_basis(model, p)
    f = rand_fn(3)
    recon = sum((u * cond_expectation(model, p, 1, u * f) for u in basis),
                start=CylinderFunction.constant(model, 0.0))
    defect = np.maximum(defect, _max_diff(recon, f))
    defect = np.maximum(defect, _max_diff(index, 1.0 / p))
    record("expectation_structure", defect, 1e-12)

    # monomial product rule and level reduction agree with the matrix picture
    ctx = AlgebraContext(model, p)
    defect_prod = 0.0
    defect_reduce = 0.0
    for _ in range(5):
        x = AlgebraElement.monomial(ctx, rand_fn(1), int(rng.integers(0, 3)), rand_fn(1))
        y = AlgebraElement.monomial(ctx, rand_fn(1), int(rng.integers(0, 3)), rand_fn(1))
        d = max(x.max_level(), y.max_level()) + 2
        defect_prod = np.maximum(defect_prod, np.abs(
            represent(multiply(x, y), d) - represent(x, d) @ represent(y, d)).max())
        t = x.terms[0]
        m = t.level + 1
        defect_reduce = np.maximum(defect_reduce, np.abs(
            represent(reduce_level(ctx, t, m), m + 2) - represent(x, m + 2)).max())
    record("monomial_product_rule", defect_prod, 1e-12)
    record("monomial_level_reduction", defect_reduce, 1e-12)

    # gauge group law and the imaginary-time formula
    defect = 0.0
    for _ in range(3):
        x = AlgebraElement.monomial(ctx, rand_fn(1), 2, rand_fn(1))
        z, w = complex(rng.random(), rng.random()), complex(rng.random(), rng.random())
        d = 4
        defect = np.maximum(defect, np.abs(
            represent(gauge(spec, gauge(spec, x, z), w), d)
            - represent(gauge(spec, x, z + w), d)).max())
    record("gauge_group_law", defect, 1e-12)

    # fixed-point operator tower F_{n+1} o F_n = F_{n+1}
    defect = 0.0
    for n in (1, 2):
        f = rand_fn(2)
        defect = np.maximum(defect, _max_diff(F_op(spec, n + 1, F_op(spec, n, f)),
                                              F_op(spec, n + 1, f)))
    record("fixed_point_tower", defect, 1e-13)

    # the dual eigenvector is a fixed point of every F_n*
    depth = spec.working_depth(3)
    nu = gibbs_state(spec, depth=depth)
    report = kms_check(spec, nu, 3)
    record("gibbs_fixed_point", report["max_fixed_point_defect"], 1e-10)
    record("operator_bridge", report["max_bridge_defect"], 1e-13)

    # iteration limit is start-independent and matches the dual eigenvector
    steps = projection_steps(spec, depth)
    states = [kms_iterate(spec, random_start(spec, depth, rng), steps).state
              for _ in range(3)]
    pair = [states[i].total_variation(states[j]) for i in range(3) for j in range(i + 1, 3)]
    against_gibbs = [s.total_variation(nu) for s in states]
    record("uniqueness_probe", np.max(pair + against_gibbs), 1e-8)

    # expectation onto functions: bimodule + positivity; state consistency
    defect = 0.0
    x = AlgebraElement.monomial(ctx, rand_fn(1), 2, rand_fn(1))
    a, b = rand_fn(1), rand_fn(1)
    axb = multiply(multiply(AlgebraElement.from_function(ctx, a), x),
                   AlgebraElement.from_function(ctx, b))
    defect = np.maximum(defect, _max_diff(expectation_G(axb), a * expectation_G(x) * b))
    xx = multiply(adjoint(x), x)
    gxx = expectation_G(xx)
    defect = np.maximum(defect, np.maximum(0.0, -np.real(gxx.values).min()))
    defect = np.maximum(defect, abs(state_eval(nu, AlgebraElement.from_function(
        ctx, CylinderFunction.constant(model, 1.0))) - 1.0))
    record("expectation_onto_base", defect, 1e-12)

    # conditional minima nest, and the boundedness dichotomy fires both ways
    nest_ok = True
    prev = conditional_minima(model, H, 1)
    for n in range(2, 5):
        cur = conditional_minima(model, H, n)
        nest_ok &= all(w[:prev.word_length] in prev.members for w in cur.members)
        prev = cur
    record("minima_nesting", 0.0 if nest_ok else 1.0, 0.5)

    # a measure spread evenly over the minimizing cylinders reads bounded
    gs = conditional_minima(model, H, 2)
    depth = spec.working_depth(2)
    on_minima = np.array([w[:gs.word_length] in gs.members
                          for w in admissible_words(model, depth)], dtype=float)
    mu_in = CylinderMeasure(model, depth, on_minima / on_minima.sum())
    in_report = ground_support_test(model, p, H, mu_in, 2)
    dichotomy_defect = 0.0 if in_report["classification"] == "BOUNDED" else 1.0
    # a measure concentrated off the minimizing cylinders must be flagged
    off = None
    minima_starts = {m[:1] for m in gs.members}
    for w in admissible_words(model, 1):
        if model.is_admissible(w + w) and w not in minima_starts:
            off = w
            break
    if off is not None:
        mu_out = point_mass(model, off, spec.working_depth(2))
        out_report = ground_support_test(model, p, H, mu_out, 2)
        if out_report["classification"] != "UNBOUNDED":
            dichotomy_defect = 1.0
    record("boundedness_dichotomy", dichotomy_defect, 0.5)

    all_pass = all(entry["pass"] for entry in tags.values())
    return {"tags": tags, "all_pass": all_pass, "seed": seed}
