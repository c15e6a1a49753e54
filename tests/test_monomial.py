"""Monomial *-algebra: products, adjoints, gauge flow, expectation, state."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (
    AlgebraContext,
    AlgebraElement,
    CylinderFunction,
    GaugeSpec,
    Monomial,
    ShiftSpaceError,
    adjoint,
    admissible_words,
    expectation_G,
    full_shift,
    gauge,
    gibbs_state,
    golden_mean_shift,
    multiply,
    reduce_level,
    represent,
    state_eval,
)
from thermoshift.config import default_p
from thermoshift.monomial import level_quasi_basis

FULL2 = full_shift(2)
GOLDEN = golden_mean_shift()


def full2_ctx():
    return AlgebraContext(FULL2, CylinderFunction.constant(FULL2, 0.5))


def golden_ctx():
    return AlgebraContext(GOLDEN, default_p(GOLDEN))


def full2_spec(beta=1.0):
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    return GaugeSpec(FULL2, H, CylinderFunction.constant(FULL2, 0.5), beta)


def rand_fn(ctx, depth, rng, complex_=False):
    n = len(admissible_words(ctx.model, depth))
    vals = rng.random(n) + 0.2
    if complex_:
        vals = vals + 1j * rng.random(n)
    return CylinderFunction(ctx.model, depth, vals)


def rand_elem(ctx, rng, max_level=3):
    level = int(rng.integers(0, max_level + 1))
    return AlgebraElement.monomial(ctx, rand_fn(ctx, 1, rng, True), level,
                                   rand_fn(ctx, 1, rng, True))


def mats_close(a, b, tol=1e-12):
    return np.abs(a - b).max() < tol


def test_negative_level_rejected():
    ctx = full2_ctx()
    with pytest.raises(ShiftSpaceError):
        Monomial(ctx.constant(1.0), -1, ctx.constant(1.0))


def test_projection_squares_to_itself():
    for ctx in (full2_ctx(), golden_ctx()):
        e1 = AlgebraElement.projection(ctx, 1)
        assert mats_close(represent(multiply(e1, e1), 3), represent(e1, 3))


def test_projections_ordered():
    # e_2 e_1 = e_2 = e_1 e_2
    ctx = full2_ctx()
    e1 = AlgebraElement.projection(ctx, 1)
    e2 = AlgebraElement.projection(ctx, 2)
    r2 = represent(e2, 4)
    assert mats_close(represent(multiply(e1, e2), 4), r2)
    assert mats_close(represent(multiply(e2, e1), 4), r2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_product_rule_is_homomorphism(seed):
    rng = np.random.default_rng(seed)
    for ctx in (full2_ctx(), golden_ctx()):
        x, y = rand_elem(ctx, rng, 2), rand_elem(ctx, rng, 2)
        d = max(x.max_level(), y.max_level()) + 2
        assert mats_close(represent(multiply(x, y), d),
                          represent(x, d) @ represent(y, d), tol=1e-12)


def test_adjoint_is_involution_and_antihomomorphism():
    rng = np.random.default_rng(4)
    ctx = golden_ctx()
    x, y = rand_elem(ctx, rng, 2), rand_elem(ctx, rng, 2)
    d = max(x.max_level(), y.max_level()) + 2
    assert mats_close(represent(adjoint(adjoint(x)), d), represent(x, d))
    assert mats_close(represent(adjoint(multiply(x, y)), d),
                      represent(multiply(adjoint(y), adjoint(x)), d))


def test_function_embedding_multiplicative():
    ctx = full2_ctx()
    rng = np.random.default_rng(8)
    a, b = rand_fn(ctx, 2, rng), rand_fn(ctx, 2, rng)
    lhs = multiply(AlgebraElement.from_function(ctx, a),
                   AlgebraElement.from_function(ctx, b))
    rhs = AlgebraElement.from_function(ctx, a * b)
    assert mats_close(represent(lhs, 3), represent(rhs, 3))


def test_represent_rejects_shallow_depth():
    ctx = full2_ctx()
    x = AlgebraElement.projection(ctx, 3)
    with pytest.raises(ShiftSpaceError):
        represent(x, 2)


def test_reduce_level_preserves_representation():
    rng = np.random.default_rng(2)
    for ctx in (full2_ctx(), golden_ctx()):
        t = Monomial(rand_fn(ctx, 1, rng, True), 1, rand_fn(ctx, 1, rng, True))
        for m in (2, 3):
            lhs = represent(reduce_level(ctx, t, m), m + 2)
            rhs = represent(AlgebraElement(ctx, (t,)), m + 2)
            assert mats_close(lhs, rhs, tol=1e-13)


def test_level_quasi_basis_reconstructs():
    ctx = golden_ctx()
    rng = np.random.default_rng(6)
    f = rand_fn(ctx, 3, rng)
    total = ctx.constant(0.0)
    for u in level_quasi_basis(ctx, 2):
        total = total + u * ctx.expectation(2, u * f)
    d = max(total.depth, f.depth)
    assert total.refine(d).allclose(f.refine(d), tol=1e-12)


def test_gauge_group_law_and_identity():
    spec = full2_spec()
    ctx = AlgebraContext(FULL2, spec.p)
    rng = np.random.default_rng(3)
    x = rand_elem(ctx, rng, 2)
    d = x.max_level() + 2
    assert mats_close(represent(gauge(spec, x, 0.0), d), represent(x, d))
    z, w = 0.3 + 0.2j, -0.1 + 0.5j
    assert mats_close(represent(gauge(spec, gauge(spec, x, z), w), d),
                      represent(gauge(spec, x, z + w), d), tol=1e-12)


def test_gauge_fixes_functions():
    spec = full2_spec()
    ctx = AlgebraContext(FULL2, spec.p)
    f = CylinderFunction.from_dict(FULL2, 1, {(0,): 1.5, (1,): 2.5})
    x = AlgebraElement.from_function(ctx, f)
    assert mats_close(represent(gauge(spec, x, 0.7), 2), represent(x, 2))


def test_expectation_G_bimodule_and_positive():
    ctx = golden_ctx()
    rng = np.random.default_rng(12)
    x = rand_elem(ctx, rng, 2)
    a, b = rand_fn(ctx, 1, rng), rand_fn(ctx, 1, rng)
    axb = multiply(multiply(AlgebraElement.from_function(ctx, a), x),
                   AlgebraElement.from_function(ctx, b))
    lhs = expectation_G(axb)
    rhs = a * expectation_G(x) * b
    d = max(lhs.depth, rhs.depth)
    assert np.abs(lhs.refine(d).values - rhs.refine(d).values).max() < 1e-12
    gxx = expectation_G(multiply(adjoint(x), x))
    assert np.real(gxx.values).min() > -1e-13


def test_projection_expectation_is_p_cocycle():
    ctx = full2_ctx()
    g = expectation_G(AlgebraElement.projection(ctx, 2))
    assert g.allclose(CylinderFunction.constant(FULL2, 0.25).refine(g.depth))


def test_state_hand_value():
    # psi(e_1 sigma_i(e_1)) = 1/2 for H = (2, 3), p = 1/2, beta = 1
    spec = full2_spec(beta=1.0)
    ctx = AlgebraContext(FULL2, spec.p)
    phi = gibbs_state(spec, depth=5)
    e1 = AlgebraElement.projection(ctx, 1)
    val = state_eval(phi, multiply(e1, gauge(spec, e1, 1j)))
    assert abs(val - 0.5) < 1e-12


def test_kms_condition_sampled():
    spec = full2_spec(beta=1.0)
    ctx = AlgebraContext(FULL2, spec.p)
    phi = gibbs_state(spec, depth=7)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rand_elem(ctx, rng, 2), rand_elem(ctx, rng, 2)
        lhs = state_eval(phi, multiply(x, gauge(spec, y, 1j * spec.beta)))
        rhs = state_eval(phi, multiply(y, x))
        assert abs(lhs - rhs) < 1e-10


def test_context_checks_p_once(monkeypatch):
    from thermoshift import TransferOperator, cond_expectation, ground_support_test, point_mass

    checks = []
    is_normalized = TransferOperator.is_normalized
    monkeypatch.setattr(TransferOperator, "is_normalized",
                        lambda self, tol=1e-12: checks.append(tol) or is_normalized(self, tol))
    ctx = golden_ctx()
    assert len(checks) == 1
    rng = np.random.default_rng(3)
    x = AlgebraElement.monomial(ctx, rand_fn(ctx, 1, rng), 2, rand_fn(ctx, 1, rng))
    represent(multiply(x, adjoint(x)), 4)
    ctx.expectation(3, rand_fn(ctx, 2, rng))
    reduce_level(ctx, x.terms[0], 3)
    assert len(checks) == 1
    # a context refuses an unnormalized p up front; the public functions
    # keep their own check and message
    bad = CylinderFunction.constant(FULL2, 0.4)
    f = CylinderFunction.constant(FULL2, 1.0)
    for call in (lambda: AlgebraContext(FULL2, bad),
                 lambda: cond_expectation(FULL2, bad, 1, f),
                 lambda: ground_support_test(FULL2, bad, f, point_mass(FULL2, (0,), 2), 1)):
        with pytest.raises(ShiftSpaceError, match="p is not normalized"):
            call()
