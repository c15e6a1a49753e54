"""Core symbolic layer: words, cylinder functions, measures."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    admissible_words,
    alpha_power,
    birkhoff,
    full_shift,
    golden_mean_shift,
    integrate,
    point_mass,
    preimages,
)

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
