"""Core symbolic layer: words, cylinder functions, measures."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (
    AlgebraContext,
    AlgebraElement,
    CylinderFunction,
    CylinderMeasure,
    GaugeSpec,
    ShiftModel,
    ShiftSpaceError,
    TransferOperator,
    admissible_words,
    alpha_power,
    apply,
    birkhoff,
    brute_force_max_mean,
    cond_expectation,
    conditional_minima,
    full_shift,
    golden_mean_shift,
    integrate,
    kms_iterate,
    m_value,
    point_mass,
    preimages,
    random_start,
    represent,
    rpf_solve,
    subaction,
)
from thermoshift import wordcodes
from thermoshift.config import default_p
from thermoshift.shiftspace import _table

FULL2 = full_shift(2)
GOLDEN = golden_mean_shift()


def rand_fn(model, depth, rng, lo=0.1):
    n = len(admissible_words(model, depth))
    return CylinderFunction(model, depth, rng.random(n) + lo)


# ---------------------------------------------------------------- models

def test_full_shift_words_count():
    assert len(admissible_words(FULL2, 3)) == 8
    assert len(admissible_words(full_shift(3), 3)) == 27


def test_golden_mean_word_counts_are_fibonacci():
    # 11 forbidden: counts go 2, 3, 5, 8, 13, ...
    counts = [len(admissible_words(GOLDEN, d)) for d in range(1, 8)]
    assert counts == [2, 3, 5, 8, 13, 21, 34]


def test_golden_mean_excludes_11():
    assert (1, 1) not in admissible_words(GOLDEN, 2)
    assert not GOLDEN.is_admissible((0, 1, 1))


def test_words_are_lexicographic():
    ws = admissible_words(GOLDEN, 3)
    assert ws == sorted(ws)


def test_zero_row_rejected():
    with pytest.raises(ShiftSpaceError):
        ShiftModel(2, ((1, 1), (0, 0)))


def test_zero_column_rejected():
    with pytest.raises(ShiftSpaceError):
        ShiftModel(2, ((1, 0), (1, 0)))


def test_primitivity():
    assert GOLDEN.is_primitive()
    assert FULL2.is_primitive()
    period_two = ShiftModel(2, ((0, 1), (1, 0)))
    assert not period_two.is_primitive()


def test_preimages():
    assert preimages(FULL2, (0, 1)) == [(0, 0, 1), (1, 0, 1)]
    # nothing maps into 1 from 1 on the golden mean shift
    assert preimages(GOLDEN, (1, 0)) == [(0, 1, 0)]


# ---------------------------------------------- cylinder function algebra

def test_refine_preserves_values():
    f = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    g = f.refine(3)
    assert g.depth == 3
    for w in admissible_words(FULL2, 3):
        assert g.value_at(w) == f.value_at(w[:1])


def test_binop_refines_to_common_depth():
    f = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    g = CylinderFunction.from_dict(FULL2, 2, {(0, 0): 1.0, (0, 1): 2.0,
                                              (1, 0): 3.0, (1, 1): 4.0})
    h = f * g
    assert h.depth == 2
    assert h.value_at((1, 0)) == 9.0


def test_indicator():
    ind = CylinderFunction.indicator(GOLDEN, (1, 0))
    assert ind.value_at((1, 0)) == 1.0
    assert ind.value_at((0, 0)) == 0.0


def test_pow_complex():
    f = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    g = f ** (1j)
    assert np.iscomplexobj(g.values)
    assert abs(g.value_at((0,)) - np.exp(1j * np.log(2.0))) < 1e-15


def test_alpha_power_shifts_symbols():
    f = CylinderFunction.from_dict(FULL2, 1, {(0,): 5.0, (1,): 7.0})
    g = alpha_power(f, 2)
    assert g.depth == 3
    assert g.value_at((0, 1, 1)) == 7.0


def test_birkhoff_zero_is_one():
    f = CylinderFunction.from_dict(FULL2, 1, {(0,): 5.0, (1,): 7.0})
    assert birkhoff(f, 0).allclose(CylinderFunction.constant(FULL2, 1.0))


def test_birkhoff_hand_value():
    f = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    g = birkhoff(f, 3)
    assert abs(g.value_at((0, 1, 0)) - 2.0 * 3.0 * 2.0) < 1e-14


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_add_commutes_with_refine(d1, d2, seed):
    rng = np.random.default_rng(seed)
    f = rand_fn(GOLDEN, d1, rng)
    g = rand_fn(GOLDEN, d2, rng)
    d = max(d1, d2) + 1
    lhs = (f + g).refine(d)
    rhs = f.refine(d) + g.refine(d)
    assert lhs.allclose(rhs, tol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 31 - 1))
def test_birkhoff_cocycle_identity(n, m, seed):
    # f^[n+m] = f^[n] * alpha^n(f^[m])
    rng = np.random.default_rng(seed)
    f = rand_fn(FULL2, 1, rng)
    lhs = birkhoff(f, n + m)
    rhs = birkhoff(f, n) * alpha_power(birkhoff(f, m), n)
    d = max(lhs.depth, rhs.depth)
    assert lhs.refine(d).allclose(rhs.refine(d), tol=1e-12)


# ----------------------------------------------------------- measures

def test_measure_must_be_probability():
    with pytest.raises(ShiftSpaceError):
        CylinderMeasure(FULL2, 1, np.array([0.4, 0.4]))
    with pytest.raises(ShiftSpaceError):
        CylinderMeasure(FULL2, 1, np.array([1.5, -0.5]))


def test_coarsen_sums_extensions():
    mu = CylinderMeasure(FULL2, 2, np.array([0.1, 0.2, 0.3, 0.4]))
    nu = mu.coarsen(1)
    assert np.allclose(nu.masses, [0.3, 0.7])
    assert abs(mu.mass_of((1,)) - 0.7) < 1e-15


def test_integrate_rejects_deeper_function():
    mu = CylinderMeasure(FULL2, 1, np.array([0.5, 0.5]))
    f = CylinderFunction.constant(FULL2, 1.0).refine(3)
    with pytest.raises(ShiftSpaceError):
        integrate(mu, f)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_integrate_refinement_invariant(d, seed):
    rng = np.random.default_rng(seed)
    masses = rng.random(len(admissible_words(GOLDEN, 4))) + 0.01
    mu = CylinderMeasure(GOLDEN, 4, masses / masses.sum())
    f = rand_fn(GOLDEN, d, rng)
    assert abs(integrate(mu, f) - integrate(mu, f.refine(4))) < 1e-13


def test_total_variation_across_depths():
    mu = CylinderMeasure(FULL2, 2, np.array([0.1, 0.2, 0.3, 0.4]))
    nu = CylinderMeasure(FULL2, 1, np.array([0.3, 0.7]))
    assert mu.total_variation(nu) < 1e-15


def test_point_mass_periodic():
    mu = point_mass(FULL2, (0, 1), 4)
    assert mu.mass_of((0, 1, 0, 1)) == 1.0
    assert integrate(mu, CylinderFunction.indicator(FULL2, (1,))) == 0.0


def test_point_mass_inadmissible_rejected():
    with pytest.raises(ShiftSpaceError):
        point_mass(GOLDEN, (1, 1), 3)
    # a symbol outside 0..k-1 makes a word inadmissible wherever it is looked up
    assert not FULL2.is_admissible((-1, 0))
    f = CylinderFunction(FULL2, 1, np.array([2.0, 3.0]))
    mu = CylinderMeasure(FULL2, 1, np.array([0.5, 0.5]))
    for bad in (lambda: point_mass(FULL2, (2,), 3),
                lambda: point_mass(FULL2, (-1,), 3),
                lambda: preimages(FULL2, (-1,)),
                lambda: CylinderFunction.indicator(FULL2, (5,)),
                lambda: CylinderFunction.indicator(FULL2, (0, -1)),
                lambda: f.value_at((3,)),
                lambda: f.value_at((-2, 0)),
                lambda: mu.mass_of((2,))):
        with pytest.raises(ShiftSpaceError):
            bad()



# ------------------------------------------------------ mixed shift models

# 00 forbidden: three depth-2 words, like the golden mean's (11 forbidden),
# so a table on one has the other's shape and only its model tells them apart
NOZERO = ShiftModel(2, ((0, 1), (1, 1)))
H_NOZERO = CylinderFunction(NOZERO, 2, np.array([2.0, 3.0, 1.5]))
H_GOLDEN = CylinderFunction(GOLDEN, 2, np.array([2.0, 3.0, 1.5]))
SPEC = GaugeSpec(GOLDEN, H_GOLDEN, default_p(GOLDEN), 1.0)
CTX = AlgebraContext(GOLDEN, default_p(GOLDEN))

MIXED = {
    "GaugeSpec-H": lambda: GaugeSpec(GOLDEN, H_NOZERO, default_p(GOLDEN), 1.0),
    "GaugeSpec-p": lambda: GaugeSpec(GOLDEN, H_GOLDEN,
                                     CylinderFunction.constant(FULL2, 0.5), 1.0),
    "m_value": lambda: m_value(GOLDEN, H_NOZERO),
    "subaction": lambda: subaction(GOLDEN, H_NOZERO, m=0.0),
    "brute_force_max_mean": lambda: brute_force_max_mean(GOLDEN, H_NOZERO.log()),
    "conditional_minima": lambda: conditional_minima(
        FULL2, CylinderFunction(full_shift(3), 1, np.array([1.0, 2.0, 3.0])), 1),
    "represent": lambda: represent(
        AlgebraElement.monomial(CTX, H_NOZERO, 1, H_NOZERO), 3),
    "kms_iterate": lambda: kms_iterate(
        SPEC, CylinderMeasure(FULL2, 1, np.array([0.5, 0.5])), 10),
}


@pytest.mark.parametrize("case", MIXED)
def test_mixed_models_are_refused(case):
    # each call would read one model's table at the other's positions
    with pytest.raises(ShiftSpaceError, match="mixed shift models"):
        MIXED[case]()


# ------------------------------------------- immutability and cached model data

SFT3 = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))


def test_measure_refuses_nan_and_imaginary_masses():
    # NaN fails both the sign test and the sum test as plain comparisons
    with pytest.raises(ShiftSpaceError, match="nonnegative"):
        CylinderMeasure(FULL2, 1, np.array([np.nan, np.nan]))
    with pytest.raises(ShiftSpaceError, match="nonnegative"):
        CylinderMeasure(FULL2, 1, np.array([np.nan, 1.0]))
    with pytest.raises(ShiftSpaceError, match="imaginary"):
        CylinderMeasure(FULL2, 1, np.array([0.5 + 0.25j, 0.5 - 0.25j]))
    with pytest.raises(ShiftSpaceError, match="imaginary"):
        CylinderMeasure._owned(FULL2, 1, np.array([0.5 + 1e-300j, 0.5]))
    # a zero imaginary part is dropped, not refused
    mu = CylinderMeasure(FULL2, 1, np.array([0.25 + 0j, 0.75 + 0j]))
    assert mu.masses.dtype == float and mu.masses.tolist() == [0.25, 0.75]


def test_public_constructors_copy():
    vals = np.array([2.0, 3.0])
    masses = np.array([0.25, 0.75])
    f = CylinderFunction(FULL2, 1, vals)
    mu = CylinderMeasure(FULL2, 1, masses)
    vals[0] = 7.0
    masses[:] = 0.5
    assert f.values.tolist() == [2.0, 3.0]
    assert mu.masses.tolist() == [0.25, 0.75]
    assert vals.flags.writeable and masses.flags.writeable


def _library_tables():
    rng = np.random.default_rng(3)
    f, g = rand_fn(GOLDEN, 2, rng), rand_fn(GOLDEN, 1, rng)
    p = default_p(GOLDEN)
    H = CylinderFunction(GOLDEN, 2, np.array([2.0, 3.0, 1.5]))
    spec = GaugeSpec(GOLDEN, H, p, 1.0)
    mu = CylinderMeasure(GOLDEN, 3, np.full(5, 0.2))
    sol = rpf_solve(TransferOperator(GOLDEN, f), depth=3)
    state = kms_iterate(spec, random_start(spec, 2, rng), 40, report_depth=2).state
    functions = {
        "refine": f.refine(4), "add": f + g, "radd": 1.0 + f, "sub": f - g,
        "rsub": 1.0 - f, "mul": f * g, "rmul": 2.0 * f, "truediv": f / g,
        "rtruediv": 1.0 / f, "pow": f ** 0.5, "complex pow": f ** 0.5j,
        "neg": -f, "conj": f.conj(), "log": f.log(), "exp": f.exp(),
        "constant": CylinderFunction.constant(GOLDEN, 1.0),
        "indicator": CylinderFunction.indicator(GOLDEN, (0, 1)),
        "alpha_power": alpha_power(f, 2), "birkhoff": birkhoff(f, 3),
        "birkhoff 1": birkhoff(f, 1), "apply": apply(TransferOperator(GOLDEN, p), f),
        "cond_expectation": cond_expectation(GOLDEN, p, 2, f),
        "eigenfunction": sol.eigenfunction,
    }
    measures = {"coarsen": mu.coarsen(1), "eigenmeasure": sol.eigenmeasure,
                "kms state": state, "point_mass": point_mass(GOLDEN, (0, 1), 4)}
    return ({k: v.values for k, v in functions.items()}
            | {k: v.masses for k, v in measures.items()})


@pytest.mark.parametrize("name, table", _library_tables().items())
def test_library_built_tables_are_read_only(name, table):
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 0.0


def test_equal_models_hash_equal_and_share_the_cache():
    a = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))
    b = ShiftModel(3, tuple(tuple(row) for row in [[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
    assert a is not b and a == b and hash(a) == hash(b)
    codes = wordcodes.admissible_codes(a, 7)
    hits = wordcodes.admissible_codes.cache_info().hits
    assert wordcodes.admissible_codes(b, 7) is codes
    assert wordcodes.admissible_codes.cache_info().hits == hits + 1


def test_model_matrix_is_stored_read_only():
    for model in (FULL2, GOLDEN, SFT3):
        assert model.matrix is model.matrix
        assert model.matrix.dtype == np.int64 and not model.matrix.flags.writeable
        assert np.array_equal(model.matrix, np.array(model.transition))


def test_owned_constructor_checks_length():
    # it takes the array itself, read-only, with no copy
    table = np.array([2.0, 3.0, 1.5])
    assert CylinderFunction._owned(GOLDEN, 2, table).values is table
    assert not table.flags.writeable
    with pytest.raises(ShiftSpaceError, match="expected 3 values at depth 2"):
        CylinderFunction._owned(GOLDEN, 2, np.ones(4))
    with pytest.raises(ShiftSpaceError, match="expected 2 masses at depth 1"):
        CylinderMeasure._owned(GOLDEN, 1, np.ones(3) / 3)
    with pytest.raises(ShiftSpaceError, match="sum to"):
        CylinderMeasure._owned(GOLDEN, 1, np.ones(2))


@pytest.mark.parametrize("model", [FULL2, GOLDEN, SFT3], ids=["full2", "golden", "sft3"])
def test_table_is_refine_without_the_object(model):
    rng = np.random.default_rng(11)
    for e in range(7):
        f = rand_fn(model, e, rng)
        for d in range(e, 7):
            table = _table(f, d)
            assert table.tobytes() == f.refine(d).values.tobytes()
            # and the same as reading f on every depth-d word
            oracle = [f.value_at(w) for w in admissible_words(model, d)]
            assert table.tobytes() == np.array(oracle).tobytes()
        if e:
            with pytest.raises(ShiftSpaceError):
                _table(f, e - 1)
