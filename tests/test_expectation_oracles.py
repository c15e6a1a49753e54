"""E_n, ``represent`` and ``birkhoff`` against loop oracles.

The production code builds all three from one tail-class table: p^{[n]} is
a product of window gathers, E_n one bincount over the tails after n
symbols, and ``represent`` the blocks diag(a) P_n diag(b).  The oracles
below are the definitions they replace: E_n as n applications of the
normalized transfer operator followed by n shifts, the matrix column by
column from indicator functions, and p^{[n]} as n refined products.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (
    AlgebraContext,
    AlgebraElement,
    CylinderFunction,
    Monomial,
    ShiftModel,
    ShiftSpaceError,
    TransferOperator,
    admissible_words,
    alpha_power,
    apply,
    birkhoff,
    cond_expectation,
    full_shift,
    golden_mean_shift,
    represent,
)
from thermoshift import wordcodes

FULL2 = full_shift(2)
GOLDEN = golden_mean_shift()
SFT3 = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))
MODELS = (FULL2, GOLDEN, SFT3)
# normalized p of depth 0 or 1 exist only on full shifts
MODEL_P = [(FULL2, 0), (FULL2, 1), (FULL2, 2), (GOLDEN, 2), (SFT3, 2)]


# ------------------------------------------------------------- oracles

def oracle_cond_expectation(model, p, n, f):
    """Oracle: E_n f = (L_p^n f) o T^n, L_p the normalized transfer operator."""
    if n == 0:
        return f
    L = TransferOperator(model, p)
    out = f
    for _ in range(n):
        out = apply(L, out)
    return alpha_power(out, n)


def oracle_represent(x, d):
    """Oracle: column i is the element acting on the indicator of the i-th
    depth-d word."""
    ctx = x.ctx
    words = admissible_words(ctx.model, d)
    mat = np.zeros((len(words), len(words)), dtype=complex)
    for i, w in enumerate(words):
        f = CylinderFunction.indicator(ctx.model, w)
        col = None
        for t in x.terms:
            term = t.left * oracle_cond_expectation(ctx.model, ctx.p, t.level,
                                                    t.right * f)
            col = term if col is None else col + term
        if col.depth > d:
            raise ShiftSpaceError(f"action produced depth {col.depth}")
        mat[:, i] = col.refine(d).values
    return mat


def oracle_birkhoff(f, n):
    """Oracle: f * (f o T) * ... * (f o T^{n-1}) as n refined products."""
    if n == 0:
        return CylinderFunction.constant(f.model, 1.0)
    out = f
    for j in range(1, n):
        out = out * alpha_power(f, j)
    return out


# ------------------------------------------------------------- inputs

def rand_fn(model, depth, rng, complex_=False):
    n = len(admissible_words(model, depth))
    vals = rng.random(n) + 0.2
    return CylinderFunction(model, depth, vals + 1j * rng.random(n) if complex_ else vals)


def rand_p(model, depth, rng):
    """A random strictly positive p whose sum over preimages is 1."""
    if depth == 0:
        return CylinderFunction.constant(model, 1.0 / model.alphabet_size)
    r = rng.random(len(admissible_words(model, depth))) + 0.2
    suffix = wordcodes.suffix_map(model, depth)
    return CylinderFunction(model, depth, r / np.bincount(suffix, r)[suffix])


def assert_rel_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


# ------------------------------------------------------------- tests

@pytest.mark.parametrize("model, p_depth", MODEL_P)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_cond_expectation_matches_iterated_transfer(model, p_depth, n, f_depth,
                                                    complex_, seed):
    rng = np.random.default_rng(seed)
    p = rand_p(model, p_depth, rng)
    f = rand_fn(model, f_depth, rng, complex_)
    got = cond_expectation(model, p, n, f)
    want = oracle_cond_expectation(model, p, n, f)
    assert got.depth == want.depth
    assert got.values.dtype == want.values.dtype
    assert_rel_close(got.values, want.values)


@pytest.mark.parametrize("model, p_depth", MODEL_P)
@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=3),
       st.integers(0, 2 ** 31 - 1))
def test_represent_matches_indicator_columns(model, p_depth, shapes, seed):
    # shapes: (level, left depth, right depth) of each term
    rng = np.random.default_rng(seed)
    ctx = AlgebraContext(model, rand_p(model, p_depth, rng))
    x = AlgebraElement(ctx, tuple(
        Monomial(rand_fn(model, a, rng, True), n, rand_fn(model, b, rng, True))
        for n, a, b in shapes))
    top = x.max_level()
    # every term closes by depth top + 2 (top + 1 once top >= 1), and none
    # at depth top >= 1: both reject, or the matrices agree
    compared = 0
    for d in range(top, top + 3):
        try:
            want = oracle_represent(x, d)
        except ShiftSpaceError:
            with pytest.raises(ShiftSpaceError, match="too small"):
                represent(x, d)
            continue
        assert_rel_close(represent(x, d), want)
        compared += 1
    assert compared


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 3), st.integers(0, 5),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_birkhoff_matches_refined_products(model, depth, n, complex_, seed):
    f = rand_fn(model, depth, np.random.default_rng(seed), complex_)
    got, want = birkhoff(f, n), oracle_birkhoff(f, n)
    assert got.depth == want.depth
    # the same products in the same order: equal to the last bit
    assert got.values.tobytes() == want.values.tobytes()


def test_represent_peak_memory_is_near_its_output():
    # binary depth 10: a 16 MiB complex matrix; an n x n mask and product
    # on top of it would triple the peak
    ctx = AlgebraContext(FULL2, CylinderFunction.constant(FULL2, 0.5))
    f = CylinderFunction(FULL2, 1, np.array([1.0, 2.0]))
    x = AlgebraElement.monomial(ctx, f, 1, f) + AlgebraElement.projection(ctx, 3)
    out_bytes = 16 * 2 ** 20
    tracemalloc.start()
    try:
        mat = represent(x, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.nbytes == out_bytes
    assert peak <= 1.5 * out_bytes
