"""The integer-coded word table against tuple-word references.

Each reference below walks the tuple words of ``admissible_words`` directly,
so refine, alpha_power, coarsen and apply (gathers and bincounts over the
table's index maps) are checked against an independent per-word loop.
"""
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from thermoshift import (
    AlgebraContext,
    AlgebraElement,
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    TransferOperator,
    admissible_words,
    alpha_power,
    apply,
    full_shift,
    golden_mean_shift,
    m_value,
    represent,
    rpf_solve,
)
from thermoshift import wordcodes
from thermoshift.shiftspace import word_position

SFT3 = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))
MODELS = (golden_mean_shift(), full_shift(2), SFT3)


def value(f, z):
    """f on the cylinder of the word z, by position in the word list."""
    return f.values[admissible_words(f.model, f.depth).index(z[:f.depth])]


def ref_words(model, d):
    return [w for w in itertools.product(range(model.alphabet_size), repeat=d)
            if model.is_admissible(w)]


def ref_refine(f, d):
    return [value(f, w) for w in admissible_words(f.model, d)]


def ref_alpha_power(f, n):
    return [value(f, w[n:]) for w in admissible_words(f.model, f.depth + n)]


def ref_coarsen(mu, d):
    words = admissible_words(mu.model, d)
    out = np.zeros(len(words))
    for w, m in zip(admissible_words(mu.model, mu.depth), mu.masses):
        out[words.index(w[:d])] += m
    return out


def ref_apply(weight, f):
    model = weight.model
    d_out = max(weight.depth, f.depth, 2) - 1
    t = model.matrix
    return [sum(value(weight, (a,) + y) * value(f, (a,) + y)
                for a in range(model.alphabet_size) if t[a, y[0]])
            for y in admissible_words(model, d_out)]


def rand_fn(model, depth, rng, complex_=False):
    n = len(admissible_words(model, depth))
    vals = rng.random(n) + 0.1
    return CylinderFunction(model, depth, vals + 1j * rng.random(n) if complex_ else vals)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 2 ** 31 - 1))
def test_table_operations_match_tuple_references(model, d1, d2, seed):
    rng = np.random.default_rng(seed)
    lo, hi = min(d1, d2), max(d1, d2)
    assert admissible_words(model, hi) == ref_words(model, hi)
    f = rand_fn(model, lo, rng)
    assert np.array_equal(f.refine(hi).values, ref_refine(f, hi))
    assert np.array_equal(alpha_power(f, hi - lo).values, ref_alpha_power(f, hi - lo))
    masses = rng.random(len(admissible_words(model, hi)))
    mu = CylinderMeasure(model, hi, masses / masses.sum())
    assert np.allclose(mu.coarsen(lo).masses, ref_coarsen(mu, lo), rtol=0, atol=1e-15)
    weight = rand_fn(model, min(lo, 3), rng)
    g = rand_fn(model, hi, rng, complex_=bool(seed % 2))
    out = apply(TransferOperator(model, weight), g)
    assert out.depth == max(weight.depth, g.depth, 2) - 1
    assert np.allclose(out.values, ref_apply(weight, g), rtol=1e-14, atol=0)


def test_node_graph_links_each_word_prefix_to_suffix():
    for model in MODELS:
        for s in range(1, 5):
            index = {w: i for i, w in enumerate(ref_words(model, s))}
            edges = ref_words(model, s + 1)
            src, dst = wordcodes.node_graph(model, s)
            assert src.tolist() == [index[w[:-1]] for w in edges]
            assert dst.tolist() == [index[w[1:]] for w in edges]


def test_depth_zero_table_is_the_empty_word():
    for model in MODELS:
        assert wordcodes.admissible_codes(model, 0).tolist() == [0]
        assert admissible_words(model, 0) == [()]


@pytest.mark.parametrize("model", MODELS + (full_shift(10),))
def test_word_position_is_the_index_in_the_word_list(model):
    for d in range(5):
        words = ref_words(model, d)
        assert admissible_words(model, d) == words
        # the words are distinct, so words.index(w) is the enumeration index
        assert [word_position(model, w) for w in words] == list(range(len(words)))


def test_word_count_is_exact():
    for model in MODELS:
        for d in range(6):
            assert wordcodes.word_count(model, d) == len(ref_words(model, d))
    # golden-mean counts are Fibonacci numbers; at depth 100 they exceed int64
    count, nxt = 1, 2
    for _ in range(100):
        count, nxt = nxt, count + nxt
    assert wordcodes.word_count(golden_mean_shift(), 100) == count > 2 ** 63


@pytest.mark.parametrize("model", MODELS)
def test_rpf_eigenvalue_matches_arpack(model):
    rng = np.random.default_rng(5)
    weight = rand_fn(model, 2, rng)
    L = TransferOperator(model, weight)
    for d in (3, 5):
        sol = rpf_solve(L, depth=d)
        top = scipy.sparse.linalg.eigs(L.matrix(d), k=1, which="LM",
                                       return_eigenvectors=False)[0]
        assert abs(top.imag) < 1e-12
        assert abs(sol.eigenvalue - top.real) < 1e-10 * top.real


def test_rpf_deep_full_shift_is_matrix_free():
    # 65,536 words: a dense matrix would need 34 GB
    model = full_shift(2)
    q = np.random.default_rng(2).uniform(0.2, 0.8, 2)
    # p(a, b) sums to 1 over the preimage symbol a, so 2p has eigenvalue 2
    p = CylinderFunction.from_dict(model, 2, {(0, 0): q[0], (1, 0): 1 - q[0],
                                              (0, 1): q[1], (1, 1): 1 - q[1]})
    sol = rpf_solve(TransferOperator(model, 2.0 * p), depth=16)
    assert len(sol.eigenfunction.values) == 2 ** 16
    assert abs(sol.pressure - np.log(2.0)) < 1e-12
    assert sol.residual < 1e-10 and sol.dual_residual < 1e-10


def _represent_depth_30():
    model = full_shift(2)
    f = CylinderFunction(model, 1, np.array([1.0, 2.0]))
    ctx = AlgebraContext(model, CylinderFunction.constant(model, 0.5))
    x = AlgebraElement.monomial(ctx, f, 1, f)
    represent(x, 30)


def _karp_depth_14():
    # 8,192 nodes: Karp's tables would take 1 GiB
    model = full_shift(2)
    H = CylinderFunction(model, 14, np.linspace(1.0, 2.0, 2 ** 14))
    m_value(model, H)


@pytest.mark.parametrize("call", [
    _represent_depth_30,
    lambda: TransferOperator(full_shift(2), CylinderFunction.constant(
        full_shift(2), 1.0)).matrix(30),
    _karp_depth_14,
], ids=["represent", "matrix", "karp"])
def test_dense_arrays_past_the_bound_are_rejected_before_allocation(call):
    tracemalloc.start()
    try:
        with pytest.raises(ShiftSpaceError, match="dense"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
