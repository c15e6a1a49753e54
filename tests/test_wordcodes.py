"""The integer-coded word table against tuple-word references.

Each reference below walks the tuple words of ``admissible_words`` directly,
so refine and alpha_power (gathers through the table's index maps) and
coarsen and apply (sums over its contiguous blocks) are checked against an
independent per-word loop.  The block sums are also checked against the
bincounts over index maps that they replace.
"""
import itertools
import math
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
from thermoshift.config import ConfigError, _reject_oversized
from thermoshift.shiftspace import word_position
from thermoshift.transfer import _bincount

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


# -- block sums against the index-map bincounts they replace ------------------

# 0 -> {0, 2} leaves a gap in a successor row
GAP3 = ShiftModel(3, ((1, 0, 1), (0, 1, 1), (1, 1, 0)))
BLOCK_MODELS = (full_shift(2), full_shift(3), golden_mean_shift(), SFT3, GAP3)
EPS = np.finfo(float).eps


def oracle_coarsen(mu, d):
    """The former coarsen: a bincount over the prefix map window_index(D, 0, d)."""
    prefix = wordcodes.window_index(mu.model, mu.depth, 0, d)
    return np.bincount(prefix, mu.masses, len(wordcodes.admissible_codes(mu.model, d)))


def oracle_apply(weight, f):
    """The former apply: the terms w(a.y) f(a.y) in a bincount over the
    suffix map, real and imaginary parts apart."""
    model, d = f.model, max(weight.depth, f.depth, 2)
    terms = weight.refine(d).values * f.refine(d).values
    suffix = wordcodes.suffix_map(model, d)
    n = len(wordcodes.admissible_codes(model, d - 1))
    out = np.bincount(suffix, terms.real, n)
    if np.iscomplexobj(terms):
        out = out.astype(complex)
        out.imag = np.bincount(suffix, terms.imag, n)
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BLOCK_MODELS), st.integers(0, 8), st.integers(0, 8),
       st.integers(0, 3), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_block_sums_match_the_index_map_oracles(model, d1, d2, weight_depth,
                                                complex_, seed):
    rng = np.random.default_rng(seed)
    lo, hi = min(d1, d2), max(d1, d2)
    # a word's extensions begin where the prefix map changes value
    prefix = wordcodes.window_index(model, hi, 0, lo)
    starts = wordcodes.extension_starts(model, lo, hi)
    changes = np.flatnonzero(np.diff(prefix, prepend=-1))
    assert starts.tolist() == changes.tolist() + [len(prefix)]
    assert not starts.flags.writeable

    masses = rng.random(len(prefix))
    mu = CylinderMeasure(model, hi, masses / masses.sum())
    assert mu.coarsen(hi) is mu
    out, ref = mu.coarsen(lo), oracle_coarsen(mu, lo)
    assert out.depth == lo
    # pairwise against sequential sums: within (block size) eps relative
    assert (np.abs(out.masses - ref) <= np.diff(starts) * EPS * ref).all()
    total = mu.coarsen(0).masses
    assert total.shape == (1,)
    assert abs(total[0] - math.fsum(mu.masses)) <= len(masses) * EPS

    weight = rand_fn(model, weight_depth, rng)
    f = rand_fn(model, hi, rng, complex_=complex_)
    out, ref = apply(TransferOperator(model, weight), f), oracle_apply(weight, f)
    assert out.depth == max(weight_depth, hi, 2) - 1
    # each output cell adds its terms in the bincount's order, from 0.0
    assert out.values.dtype == ref.dtype and out.values.tobytes() == ref.tobytes()


def test_preimage_runs_merge_adjoining_successors():
    # a full shift needs one slice add per first symbol
    for k in (2, 3):
        assert len(wordcodes.preimage_runs(full_shift(k), 4)) == k
    # GAP3 at depth 3: 0 -> {0, 2} is two runs; 1 -> {1, 2} and 2 -> {0, 1}
    # one each; every depth-3 word is in exactly one run
    runs = wordcodes.preimage_runs(GAP3, 3)
    assert len(runs) == 4
    z = [i for zs, _ in runs for i in range(zs.start, zs.stop)]
    assert z == list(range(len(wordcodes.admissible_codes(GAP3, 3))))
    suffix = wordcodes.suffix_map(GAP3, 3)
    for zs, ys in runs:
        assert suffix[zs].tolist() == list(range(ys.start, ys.stop))


def test_complex_sums_keep_their_real_part_past_overflow():
    # 1j * inf is NaN + inf j: the parts of a complex sum are set apart
    model = full_shift(2)
    L = TransferOperator(model, CylinderFunction.constant(model, 1.0))
    f = CylinderFunction(model, 2, np.array([1 + 1e308j, 0, 2 + 1e308j, 0]))
    with np.errstate(over="ignore"):
        out = apply(L, f).values
    assert out[0] == complex(3, np.inf) and out[1] == 0
    sums = _bincount(np.array([0, 0, 1]), np.array([complex(1, np.inf), 2, 3j]), 2)
    assert sums[0] == complex(3, np.inf) and sums[1] == 3j


def test_node_graph_links_each_word_prefix_to_suffix():
    for model in MODELS:
        for s in range(1, 5):
            index = {w: i for i, w in enumerate(ref_words(model, s))}
            edges = ref_words(model, s + 1)
            src, dst = wordcodes.node_graph(model, s)
            assert src.tolist() == [index[w[:-1]] for w in edges]
            assert dst.tolist() == [index[w[1:]] for w in edges]


def test_window_maps_are_kept_up_to_the_word_limit(monkeypatch):
    # with the limit at the depth-4 table (16 words on the 2-shift), its maps
    # are shared read-only arrays and the depth-5 table's are rebuilt per call
    model = full_shift(2)
    monkeypatch.setattr(wordcodes, "MAX_KEPT_MAP_WORDS", 16)
    wordcodes._kept_window_index.cache_clear()
    try:
        for depth, kept in ((4, True), (5, False)):
            first = wordcodes.window_index(model, depth, 1, depth - 1)
            assert (wordcodes.window_index(model, depth, 1, depth - 1) is first) == kept
            assert not first.flags.writeable
            assert first.tolist() == wordcodes.window_positions(
                model, depth, 1, depth - 1).tolist()
    finally:
        wordcodes._kept_window_index.cache_clear()


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


def test_codes_past_int64_are_refused():
    # primitive, i -> i + 1 (mod 10) and 9 -> 1: few words at any depth, but
    # depth-19 codes pass 2^63, and the config refuses them by the same rule
    model = ShiftModel(10, tuple(tuple(int(j == (i + 1) % 10 or (i, j) == (9, 1))
                                       for j in range(10)) for i in range(10)))
    codes = wordcodes.admissible_codes(model, 18)
    assert len(codes) == wordcodes.word_count(model, 18) and (np.diff(codes) > 0).all()
    for depth in (19, 20, 25):
        with pytest.raises(ShiftSpaceError, match="codes pass int64"):
            wordcodes.admissible_codes(model, depth)
        with pytest.raises(ConfigError, match=f"depth-{depth} word tables"):
            _reject_oversized(model, depth, "numeric.depth")
    with pytest.raises(ShiftSpaceError, match="codes pass int64"):
        CylinderMeasure(model, 25, np.full(63, 1 / 63))


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
