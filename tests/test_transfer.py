"""Transfer operator, leading eigendata, conditional expectations."""
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (
    ConvergenceError,
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    TransferOperator,
    admissible_words,
    alpha_power,
    apply,
    cond_expectation,
    full_shift,
    golden_mean_shift,
    integrate,
    pressure,
    quasi_basis,
    rpf_solve,
)
from thermoshift import transfer, wordcodes
from thermoshift.config import default_p, parse_config
from thermoshift.transfer import RpfSolution, boltzmann_weight

FULL2 = full_shift(2)
GOLDEN = golden_mean_shift()
SFT3 = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))
GAP3 = ShiftModel(3, ((1, 0, 1), (0, 1, 1), (1, 1, 0)))
PHI = (1.0 + np.sqrt(5.0)) / 2.0
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def rand_fn(model, depth, rng, lo=0.1):
    n = len(admissible_words(model, depth))
    return CylinderFunction(model, depth, rng.random(n) + lo)


def test_weight_must_be_positive():
    with pytest.raises(ShiftSpaceError):
        TransferOperator(FULL2, CylinderFunction.constant(FULL2, -1.0))


def test_weight_must_be_finite():
    # a NaN weight would pass the positivity check (NaN <= 0 is False)
    for bad in (np.nan, np.inf):
        with pytest.raises(ShiftSpaceError, match="finite"):
            TransferOperator(FULL2, CylinderFunction(FULL2, 1, [bad, 1.0]))


def test_apply_counts_preimages():
    L = TransferOperator(FULL2, CylinderFunction.constant(FULL2, 1.0))
    out = apply(L, CylinderFunction.constant(FULL2, 1.0))
    assert out.allclose(CylinderFunction.constant(FULL2, 2.0).refine(out.depth))


def test_apply_golden_mean_preimage_count_depends_on_point():
    # points starting with 1 have a single preimage
    L = TransferOperator(GOLDEN, CylinderFunction.constant(GOLDEN, 1.0))
    out = apply(L, CylinderFunction.constant(GOLDEN, 1.0))
    assert out.value_at((0,)) == 2.0
    assert out.value_at((1,)) == 1.0


def test_apply_matches_matrix():
    rng = np.random.default_rng(3)
    w = rand_fn(GOLDEN, 2, rng)
    L = TransferOperator(GOLDEN, w)
    f = rand_fn(GOLDEN, 3, rng)
    mat = L.matrix(3)
    out = apply(L, f)
    assert np.allclose(mat @ f.values, out.refine(3).values, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_transfer_module_identity(seed):
    # L_w(f * (g o T)) = L_w(f) * g
    rng = np.random.default_rng(seed)
    w = rand_fn(GOLDEN, 1, rng)
    L = TransferOperator(GOLDEN, w)
    f, g = rand_fn(GOLDEN, 2, rng), rand_fn(GOLDEN, 2, rng)
    lhs = apply(L, f * alpha_power(g, 1))
    rhs = apply(L, f) * g
    d = max(lhs.depth, rhs.depth)
    assert lhs.refine(d).allclose(rhs.refine(d), tol=1e-12)


def test_rpf_golden_mean_eigenvalue():
    L = TransferOperator(GOLDEN, CylinderFunction.constant(GOLDEN, 1.0))
    sol = rpf_solve(L)
    assert abs(sol.eigenvalue - PHI) < 1e-10
    assert sol.iterations <= 500


def test_rpf_eigenfunction_equation():
    L = TransferOperator(GOLDEN, CylinderFunction.constant(GOLDEN, 1.0))
    sol = rpf_solve(L)
    lhs = apply(L, sol.eigenfunction)
    rhs = sol.eigenvalue * sol.eigenfunction
    d = max(lhs.depth, rhs.depth)
    assert lhs.refine(d).allclose(rhs.refine(d), tol=1e-10)


def test_rpf_eigenmeasure_is_dual_eigenvector():
    rng = np.random.default_rng(0)
    w = rand_fn(FULL2, 1, rng)
    L = TransferOperator(FULL2, w)
    sol = rpf_solve(L, depth=3)
    f = rand_fn(FULL2, 2, rng)
    lhs = integrate(sol.eigenmeasure, apply(L, f))
    rhs = sol.eigenvalue * integrate(sol.eigenmeasure, f)
    assert abs(lhs - rhs) < 1e-11


def test_rpf_normalization():
    L = TransferOperator(GOLDEN, CylinderFunction.constant(GOLDEN, 1.0))
    sol = rpf_solve(L)
    assert abs(integrate(sol.eigenmeasure, sol.eigenfunction) - 1.0) < 1e-12


def test_pressure_full_shift_closed_form():
    # weight 2^-beta on the full 2-shift: pressure (1 - beta) log 2
    for beta in (0.0, 0.5, 1.0, 2.0):
        w = CylinderFunction.constant(FULL2, 2.0 ** -beta)
        P = pressure(TransferOperator(FULL2, w))
        assert abs(P - (1.0 - beta) * np.log(2.0)) < 1e-12


def test_bernoulli_eigenmeasure_closed_form():
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    sol = rpf_solve(TransferOperator(FULL2, H ** -1.0))
    assert abs(sol.eigenvalue - 5.0 / 6.0) < 1e-12
    assert abs(sol.eigenmeasure.mass_of((0,)) - 0.6) < 1e-12
    assert abs(sol.eigenmeasure.mass_of((1,)) - 0.4) < 1e-12


def test_rpf_non_primitive_raises():
    # asymmetric weights on the period-two shift and the 3-cycle i -> i+1:
    # the top of the spectrum is p eigenvalues of equal modulus, so power
    # iteration cycles forever.  A block of a multiple of p steps has every
    # table as a fixed point; the plain steps after it must still fail.
    period_two = ShiftModel(2, ((0, 1), (1, 0)))
    cycle3 = ShiftModel(3, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    for model, values in ((period_two, [2.0, 1.0]), (cycle3, [3.0, 1.0, 2.0])):
        L = TransferOperator(model, CylinderFunction(model, 1, values))
        for depth in range(1, 9):
            with pytest.raises(ConvergenceError):
                rpf_solve(L, depth=depth, max_iter=300)


def test_rpf_rejects_a_bad_tol_or_max_iter():
    L = TransferOperator(GOLDEN, CylinderFunction.constant(GOLDEN, 1.0))
    for tol in (np.nan, -1.0, 0.0, np.inf):
        with pytest.raises(ShiftSpaceError, match="tol"):
            rpf_solve(L, tol=tol)
    for max_iter in (0, -5):
        with pytest.raises(ShiftSpaceError, match="max_iter"):
            rpf_solve(L, max_iter=max_iter)


def test_rpf_depth_below_the_weight_graph_raises():
    # a depth-4 weight closes on the length-3 cylinders, not the length-2 ones
    w = rand_fn(FULL2, 4, np.random.default_rng(4))
    with pytest.raises(ShiftSpaceError):
        rpf_solve(TransferOperator(FULL2, w), depth=2)


def test_rpf_rejects_complex_weight():
    # the leading eigenvalue is 2 + 0.5j; taking the real part would say 2
    L = TransferOperator(FULL2, CylinderFunction.constant(FULL2, 1 + 0.25j))
    with pytest.raises(ShiftSpaceError):
        rpf_solve(L)


# ------------------------------------------- rpf_solve against the oracle

def power_iteration_oracle(L, depth, tol=1e-14, max_iter=10_000):
    """Test oracle: power iteration on the whole depth-d table, as rpf_solve
    ran before it solved at the weight's own depth.  Returns (c, k, nu) with
    nu(X) = 1 = nu(k)."""
    pre, suf, w = L._closed_action(depth)
    w = np.real(w)
    n = len(wordcodes.admissible_codes(L.model, depth))

    def matvec(v):
        return np.bincount(suf, w * v[pre], n)

    def rmatvec(v):
        return np.bincount(pre, w * v[suf], n)

    k = np.ones(n)
    nu = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        k_new = matvec(k)
        k_new = k_new / np.abs(k_new).max()
        nu_new = rmatvec(nu)
        nu_new = nu_new / np.abs(nu_new).sum()
        res = np.abs(k_new - k).max()
        dual_res = np.abs(nu_new - nu).sum()
        k, nu = k_new, nu_new
        if res <= tol and dual_res <= tol:
            break
    else:
        raise ConvergenceError("oracle power iteration did not converge")
    c = matvec(k).max() / k.max()
    nu = nu / nu.sum()
    return c, k / np.dot(nu, k), nu


def rel_diff(a, b):
    return np.abs(np.asarray(a) - b).max() / np.abs(b).max()


def plain_rpf_oracle(L, depth=None, tol=1e-12, max_iter=10_000):
    """Test oracle: rpf_solve as it ran before its blocks of power steps,
    one step of L per iteration, the action and its transpose as two
    bincounts.  Where rpf_solve's block is one step it must agree bit for
    bit, `iterations` included."""
    model = L.model
    if depth is None:
        depth = max(L.weight.depth, 1)

    def products(d):
        pre, suf, w = L._closed_action(d)
        n, w = len(wordcodes.admissible_codes(model, d)), np.real(w)
        return (lambda v: np.bincount(suf, w * v[pre], n),
                lambda v: np.bincount(pre, w * v[suf], n))

    act_d, ract_d = products(depth)
    s = max(L.weight.depth - 1, 1)
    act, ract = products(s)
    k = np.ones(len(wordcodes.admissible_codes(model, s)))
    nu = k / len(k)
    met = None
    for iterations in range(1, max_iter + 1):
        k_new = act(k)
        k_new /= k_new.max()
        nu_new = ract(nu)
        nu_new /= nu_new.sum()
        res = float(np.abs(k_new - k).max())
        dual_res = float(np.abs(nu_new - nu).sum())
        k, nu = k_new, nu_new
        if res <= tol and dual_res <= tol:
            met = met or iterations
            if max(res, dual_res) <= 4 * np.finfo(float).eps or iterations == 2 * met:
                break
    if met is None:
        raise ConvergenceError("oracle power iteration did not converge")
    c = float(act(k).max() / k.max())
    v = np.real(L.weight.refine(s + 1).values) / c
    for e in range(s + 1, depth + 1):
        nu = v[wordcodes.window_index(model, e, 0, s + 1)] * nu[
            wordcodes.window_index(model, e, 1, e - 1)]
    k = k[wordcodes.window_index(model, depth, 0, s)]
    nu = nu / nu.sum()
    k = k / float(np.dot(nu, k))
    return RpfSolution(c, CylinderFunction(model, depth, k),
                       CylinderMeasure(model, depth, nu), iterations,
                       float(np.abs(act_d(k) - c * k).max()),
                       float(np.abs(ract_d(nu) - c * nu).sum()))


def block_length(L, depth):
    s = max(L.weight.depth - 1, 1)
    return transfer._block(L.model, s, depth, *L._closed_action(s))[0]


def test_rpf_block_is_the_power_of_the_action():
    # one stacked product of a block of b steps is L^b on k and its
    # transpose on nu, against powers of the dense matrix
    rng = np.random.default_rng(8)
    for model in (FULL2, GOLDEN, SFT3, GAP3):
        L = TransferOperator(model, rand_fn(model, 3, rng))
        pre, suf, w = L._closed_action(2)
        mat = L.matrix(2)
        n = len(mat)
        for b in (2, 3, 5):
            got, *block = transfer._block(model, 2, 2 + b, pre, suf, w)
            assert 1 < got <= b
            step = transfer._stacked(*block, n)
            k, nu = rng.random(n), rng.random(n)
            out = step(np.concatenate((k, nu)))
            power = np.linalg.matrix_power(mat, got)
            assert rel_diff(out[:n], power @ k) <= 1e-14
            assert rel_diff(out[n:], power.T @ nu) <= 1e-14


# the 5-cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0 with the chord 4 -> 1: its word
# counts grow slowly (81 words at depth 19), so only MAX_BLOCK stops its block
CYCLE5 = ShiftModel(5, tuple(tuple(int(j == (i + 1) % 5 or (i, j) == (4, 1))
                                   for j in range(5)) for i in range(5)))


@pytest.mark.parametrize("model, weight, depth, b", [
    (CYCLE5, rand_fn(CYCLE5, 2, np.random.default_rng(5)), 20, transfer.MAX_BLOCK),
    (FULL2, rand_fn(FULL2, 2, np.random.default_rng(6)), 20, 7),  # 2^8 = BLOCK_WORDS
    (FULL2, rand_fn(FULL2, 2, np.random.default_rng(7)), 4, 3),  # s + b = depth
    (FULL2, CylinderFunction(FULL2, 1, np.array([1e-150, 1e150])), 20, 1),  # 2 * 345 > 600
], ids=["MAX_BLOCK", "BLOCK_WORDS", "depth", "BLOCK_LOG_RANGE"])
def test_rpf_block_stops_at_each_limit(model, weight, depth, b):
    s = max(weight.depth - 1, 1)
    pre, suf, w = TransferOperator(model, weight)._closed_action(s)
    got, pre_b, suf_b, w_b = transfer._block(model, s, depth, pre, suf, w)
    assert got == b and len(w_b) == wordcodes.word_count(model, s + b)
    if b == 1:  # the node graph's own arrays, not copies
        assert np.shares_memory(pre_b, pre) and suf_b is suf and w_b is w


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([FULL2, GOLDEN, SFT3, GAP3]), st.integers(0, 3),
       st.integers(0, 8), st.sampled_from([(0.2, 1.2), (0.9, 1.1)]),
       st.integers(0, 2 ** 31 - 1))
def test_rpf_blocks_match_the_plain_loop(model, m, extra, weight_range, seed):
    n = len(wordcodes.admissible_codes(model, m))
    weight = CylinderFunction(model, m, np.random.default_rng(seed).uniform(*weight_range, n))
    L = TransferOperator(model, weight)
    depth = max(m - 1, 1) + extra
    sol, want = rpf_solve(L, depth=depth), plain_rpf_oracle(L, depth)
    if block_length(L, depth) == 1:
        assert sol == want
    else:
        # both are rounding-level fixed points of L: c = max(L k) errs by up
        # to about the 4 eps residual floor on each side, and each extension
        # level past the nodes adds at most one rounding to each table
        eps = np.finfo(float).eps
        assert rel_diff(sol.eigenvalue, want.eigenvalue) <= 8 * eps
        assert rel_diff(sol.eigenfunction.values, want.eigenfunction.values) <= (4 + extra) * eps
        assert rel_diff(sol.eigenmeasure.masses, want.eigenmeasure.masses) <= (4 + extra) * eps


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FULL2, GOLDEN, SFT3]), st.integers(0, 3),
       st.integers(0, 8), st.integers(0, 2 ** 31 - 1))
def test_rpf_extension_matches_the_depth_d_oracle(model, m, extra, seed):
    weight = rand_fn(model, m, np.random.default_rng(seed), lo=0.2)
    L = TransferOperator(model, weight)
    depth = max(m - 1, 1) + extra
    sol = rpf_solve(L, depth=depth)
    c, k, nu = power_iteration_oracle(L, depth)
    assert rel_diff(sol.eigenvalue, c) <= 1e-12
    assert rel_diff(sol.eigenfunction.values, k) <= 1e-12
    assert rel_diff(sol.eigenmeasure.masses, nu) <= 1e-12
    assert sol.residual <= 1e-10 * c and sol.dual_residual <= 1e-10 * c


def deep_tables_weights():
    """Depth-2 weights in [0.9, 1.1] at the working depths of the benchmark's
    rpf jobs, and the constant weight on the golden-mean shift."""
    rng = np.random.default_rng(1)
    for model, depth in ((FULL2, 11), (GOLDEN, 15), (SFT3, 8)):
        n = len(wordcodes.admissible_codes(model, 2))
        for _ in range(4):
            yield model, CylinderFunction(model, 2, rng.uniform(0.9, 1.1, n)), depth
    yield GOLDEN, CylinderFunction.constant(GOLDEN, 1.0), 15


@pytest.mark.parametrize("model, weight, depth", list(deep_tables_weights()))
def test_rpf_eigenvalue_matches_dense_and_oracle(model, weight, depth):
    L = TransferOperator(model, weight)
    c = rpf_solve(L, depth=depth).eigenvalue
    eig = np.linalg.eigvals(L.matrix(max(weight.depth - 1, 1)))
    top = eig[np.argmax(np.abs(eig))]
    assert abs(top.imag) < 1e-14 * abs(top)
    assert abs(c - top.real) <= 1e-14 * top.real
    assert rel_diff(c, power_iteration_oracle(L, depth)[0]) <= 1e-14


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")
                                        if json.loads(p.read_text())["task"] == "rpf"))
def test_rpf_config_runs_match_the_oracle(name):
    config = parse_config(json.loads((CONFIGS / name).read_text()))
    if config.H is not None:
        weight = boltzmann_weight(config.H, config.beta)
    elif config.p is not None:
        weight = config.p
    else:
        weight = CylinderFunction.constant(config.model, 1.0)
    L = TransferOperator(config.model, weight)
    depth = config.numeric.depth or max(weight.depth, 1)
    sol = rpf_solve(L, depth=depth, tol=config.numeric.tol)
    assert rel_diff(sol.eigenvalue, power_iteration_oracle(L, depth)[0]) <= 1e-14


def test_rpf_golden_mean_eigenvalue_to_rounding():
    # past tol the iteration runs on until the residuals are at rounding level
    sol = rpf_solve(TransferOperator(GOLDEN, CylinderFunction.constant(GOLDEN, 1.0)),
                    depth=4, tol=1e-13)
    assert abs(sol.eigenvalue - PHI) <= 2 * np.spacing(PHI)


@pytest.mark.parametrize("model", [FULL2, SFT3])
def test_rpf_weight_spanning_300_decades_gives_finite_masses(model):
    n = len(wordcodes.admissible_codes(model, 2))
    weight = CylinderFunction(model, 2, np.logspace(-150, 150, n))
    L = TransferOperator(model, weight)
    sol = rpf_solve(L, depth=12)
    assert block_length(L, 12) == 1 and sol == plain_rpf_oracle(L, 12)
    masses, k = sol.eigenmeasure.masses, sol.eigenfunction.values
    assert np.isfinite(masses).all() and np.isfinite(k).all()
    assert (masses >= 0).all() and abs(masses.sum() - 1.0) <= 1e-12
    assert sol.residual <= 1e-10 * sol.eigenvalue
    assert sol.dual_residual <= 1e-10 * sol.eigenvalue


def test_boltzmann_weight_out_of_doubles_is_a_numerical_failure():
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    assert boltzmann_weight(H, 2.0).allclose(H ** -2.0, tol=0.0)
    for beta in (2000.0, -2000.0):
        with pytest.raises(ConvergenceError, match="model.beta"):
            boltzmann_weight(H, beta)


# ------------------------------------------------ conditional expectations

def test_expectation_worked_example():
    # p constant 1/2 on the full 2-shift, f the depth-1 (2, 3) table:
    # E_1(f) averages the first symbol given the class of the rest
    p = CylinderFunction.constant(FULL2, 0.5)
    f = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    e1 = cond_expectation(FULL2, p, 1, f)
    assert e1.allclose(CylinderFunction.constant(FULL2, 2.5).refine(e1.depth))


def test_expectation_class_table_example():
    # golden mean, p = 1/#preimages: averaging the indicator of [0] over
    # each one-step class gives 1/2 after 0 and 1 after 1
    p = default_p(GOLDEN)
    f = CylinderFunction.indicator(GOLDEN, (0,))
    e1 = cond_expectation(GOLDEN, p, 1, f)
    table = CylinderFunction.from_dict(GOLDEN, 1, {(0,): 0.5, (1,): 1.0})
    want = alpha_power(table, 1)
    d = max(e1.depth, want.depth)
    assert e1.refine(d).allclose(want.refine(d), tol=1e-13)


def test_expectation_requires_normalized_p():
    bad = CylinderFunction.constant(FULL2, 0.3)
    with pytest.raises(ShiftSpaceError):
        cond_expectation(FULL2, bad, 1, CylinderFunction.constant(FULL2, 1.0))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2 ** 31 - 1))
def test_expectation_idempotent_and_tower(n, seed):
    rng = np.random.default_rng(seed)
    p = default_p(GOLDEN)
    f = rand_fn(GOLDEN, 3, rng)
    en = cond_expectation(GOLDEN, p, n, f)
    twice = cond_expectation(GOLDEN, p, n, en)
    d = max(en.depth, twice.depth)
    assert en.refine(d).allclose(twice.refine(d), tol=1e-12)
    up = cond_expectation(GOLDEN, p, n + 1, en)
    direct = cond_expectation(GOLDEN, p, n + 1, f)
    d = max(up.depth, direct.depth)
    assert up.refine(d).allclose(direct.refine(d), tol=1e-12)


def test_quasi_basis_reconstruction_and_index():
    rng = np.random.default_rng(7)
    for model in (FULL2, GOLDEN):
        p = default_p(model)
        basis, index = quasi_basis(model, p)
        f = rand_fn(model, 3, rng)
        recon = sum((u * cond_expectation(model, p, 1, u * f) for u in basis),
                    start=CylinderFunction.constant(model, 0.0))
        d = max(recon.depth, f.depth)
        assert recon.refine(d).allclose(f.refine(d), tol=1e-12)
        inv_p = 1.0 / p
        d = max(index.depth, inv_p.depth)
        assert index.refine(d).allclose(inv_p.refine(d), tol=1e-12)


def test_golden_mean_index_values():
    # 1/p = #preimages(Tz): 2 when the second symbol is 0, 1 when it is 1
    _, index = quasi_basis(GOLDEN, default_p(GOLDEN))
    assert abs(index.value_at((0, 0)) - 2.0) < 1e-14
    assert abs(index.value_at((0, 1)) - 1.0) < 1e-14
