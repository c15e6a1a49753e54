"""Equilibrium states: fixed-point operators, iteration, Gibbs construction."""
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermoshift import (
    ConvergenceError,
    CylinderFunction,
    CylinderMeasure,
    F_op,
    GaugeSpec,
    ShiftModel,
    ShiftSpaceError,
    TransferOperator,
    admissible_words,
    apply,
    full_shift,
    gibbs_state,
    golden_mean_shift,
    integrate,
    kms_check,
    kms_iterate,
    lambda_cocycle,
    projection_steps,
    random_start,
)
from thermoshift.config import default_p
from thermoshift.shiftspace import _table
from thermoshift.transfer import _preimage_sum, boltzmann_weight
from thermoshift import kms
from thermoshift.kms import KmsResult
from thermoshift import wordcodes

FULL2 = full_shift(2)
FULL3 = full_shift(3)
GOLDEN = golden_mean_shift()
# a 3-symbol SFT that is not a full shift (0 -/-> 2, 2 -/-> 0)
SFT3 = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))
# 0 -> {0, 2} leaves a gap in a successor row, so its preimage runs split
GAP3 = ShiftModel(3, ((1, 0, 1), (0, 1, 1), (1, 1, 0)))


def _f_matrix(spec: GaugeSpec, n: int, depth: int) -> np.ndarray:
    """F_n as a matrix on depth-`depth` tabulations (exactly closed).

    The oracle for the closed-form dual step: one F_op per word.
    """
    words = admissible_words(spec.model, depth)
    mat = np.zeros((len(words), len(words)))
    for i, w in enumerate(words):
        ind = CylinderFunction.indicator(spec.model, w)
        out = F_op(spec, n, ind)
        if out.depth > depth:
            raise ShiftSpaceError(
                f"working depth {depth} too small: F_{n} output has depth {out.depth}")
        mat[:, i] = out.refine(depth).values
    return mat


def _dual_step(masses: np.ndarray, inv: np.ndarray, cum_w: np.ndarray,
               cum_lam_inv: np.ndarray) -> np.ndarray:
    """Normalized dual of F_n on deep masses, in closed form (test oracle).

    Writing out phi(F_n 1_w) = phi(Lam^{-[n]} alpha^n(L_{H,beta}^n 1_w))
    and collecting terms gives

        (F_n* phi)(w)  propto  (H^{-beta})^{[n]}(w) * rho(w_n..w_{D-1}),
        rho(y) = sum over z with the same tail y of  mass(z) * Lam^{-[n]}(z),

    so one step is a tail-class reduction followed by a weighted spread.
    `inv` indexes each word's length-(D-n) tail, `cum_w` and `cum_lam_inv`
    carry the length-n ordered products of H^{-beta} and of Lam^{-1}.
    """
    rho = np.bincount(inv, weights=masses * cum_lam_inv)
    new = cum_w * rho[inv]
    return new / new.sum()


def full2_spec(beta=1.0):
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    p = CylinderFunction.constant(FULL2, 0.5)
    return GaugeSpec(FULL2, H, p, beta)


def golden_spec(beta=0.7):
    H = CylinderFunction.from_dict(GOLDEN, 2,
                                   {(0, 0): 2.0, (0, 1): 3.0, (1, 0): 1.5})
    return GaugeSpec(GOLDEN, H, default_p(GOLDEN), beta)


def sft3_spec(depth, beta, seed=3):
    H = rand_fn(SFT3, depth, np.random.default_rng(seed), lo=0.5)
    return GaugeSpec(SFT3, H, default_p(SFT3), beta)


def rand_fn(model, depth, rng, lo=0.1):
    n = len(admissible_words(model, depth))
    return CylinderFunction(model, depth, rng.random(n) + lo)


def _growing_table_iterate(spec, phi0, N, tol=1e-12, report_depth=None):
    """Test oracle for kms_iterate: step n is `_dual_step` on the whole
    depth-(n + margin) word table, which grows one symbol per step (so time
    and memory double with every step; run it at small N)."""
    model = spec.model
    k = model.alphabet_size
    margin = max(1, spec.H.depth - 1, spec.p.depth - 1)
    if report_depth is None:
        report_depth = phi0.depth
    min_steps = report_depth + margin - 1
    w0 = spec.H ** (-spec.beta)
    lam0_inv = spec.p * spec.H ** spec.beta
    lut = wordcodes.table_lookup(model, phi0.depth, phi0.masses)
    n_reported = len(wordcodes.admissible_codes(model, report_depth))

    def coarse(m):
        out = np.bincount(report, weights=m, minlength=n_reported)
        return out / out.sum()

    depth, cum_w, cum_lam_inv = 0, np.ones(1), np.ones(1)
    reported = None
    history = []
    for n in range(1, N + 1):
        grown = max(n + margin, phi0.depth, report_depth)
        if grown > depth:
            codes = wordcodes.admissible_codes(model, grown)
            prefix = wordcodes.window_positions(model, grown, 0, depth)
            cum_w, cum_lam_inv = cum_w[prefix], cum_lam_inv[prefix]
            depth = grown
            # spread the start uniformly within each of its cylinders
            cyl = wordcodes.window_codes(codes, depth, k, 0, phi0.depth)
            counts = np.bincount(cyl, minlength=k ** phi0.depth)
            start = lut[cyl] / counts[cyl]
            report = wordcodes.window_positions(model, depth, 0, report_depth)
            if reported is None:
                reported = coarse(start)
        cum_w = cum_w * np.real(wordcodes.gather(model, w0, codes, depth, n - 1))
        cum_lam_inv = cum_lam_inv * np.real(
            wordcodes.gather(model, lam0_inv, codes, depth, n - 1))
        tail = wordcodes.window_positions(model, depth, n, depth - n)
        new_reported = coarse(_dual_step(start, tail, cum_w, cum_lam_inv))
        change = 0.5 * float(np.abs(new_reported - reported).sum())
        history.append(change)
        reported = new_reported
        if n >= min_steps and change <= tol:
            state = CylinderMeasure(model, report_depth, reported)
            return KmsResult(state, n, tuple(history))
    raise ConvergenceError(f"oracle did not converge within N={N} steps")


def _one_step_iterate(spec, phi0, N, tol=1e-12, report_depth=None):
    """Test oracle for kms_iterate's blocks: the one-step loop.  Each step
    sums A over preimages (to n0 = D - s) or along the node graph's edges,
    beside the H^-beta path sums B, and takes one change; A and the H^-beta
    products are rescaled every step, by powers of two up to n0."""
    model = spec.model
    k = model.alphabet_size
    s = kms._margin(spec)
    d0 = phi0.depth
    if report_depth is None:
        report_depth = d0
    min_steps = report_depth + s - 1
    w0, lam0_inv = spec.weight, spec.lam_inv
    depth = max(report_depth, d0, s + 1)
    blocks = wordcodes.extension_starts(model, report_depth, depth)[:-1]

    def coarse(m):
        m = np.add.reduceat(m, blocks)
        return m / m.sum()

    def rescaled(x):
        return x * 2.0 ** -math.frexp(x.max())[1]

    def duals():
        cyl = wordcodes.window_index(model, depth, 0, d0)
        last = wordcodes.admissible_codes(model, d0)[cyl] % k
        A = np.zeros((len(cyl), k))
        A[np.arange(len(cyl)), last] = phi0.masses[cyl]
        trans, c = model.matrix.astype(float), np.ones(k)
        for _ in range(depth - max(d0, 1)):
            c = trans @ c
        share, cum_w = 1.0 / c, 1.0
        yield coarse(A @ share)
        for n in range(1, depth - s + 1):
            A = rescaled(_preimage_sum(model, depth - n + 1,
                                       np.real(_table(lam0_inv, depth - n + 1))[:, None] * A))
            cum_w = rescaled(cum_w * np.real(
                w0.values[wordcodes.window_index(model, depth, n - 1, w0.depth)]))
            tail = wordcodes.window_index(model, depth, n, depth - n)
            yield coarse(cum_w * (A @ share)[tail])
        n_nodes, n_reported = len(A), len(blocks)
        report = wordcodes.window_index(model, depth, 0, report_depth)
        cols = k + n_reported
        paths = np.hstack([A, np.bincount(tail * n_reported + report, cum_w,
                                          n_nodes * n_reported).reshape(n_nodes, n_reported)])
        src, dst = wordcodes.node_graph(model, s)
        weights = np.real(np.hstack([
            np.repeat(_table(lam0_inv, s + 1)[:, None], k, axis=1),
            np.repeat(_table(w0, s + 1)[:, None], n_reported, axis=1)]))
        into = (dst[:, None] * cols + np.arange(cols)).ravel()
        while True:
            paths = np.bincount(into, (paths[src] * weights).ravel(),
                                n_nodes * cols).reshape(n_nodes, cols)
            A, B = paths[:, :k], paths[:, k:]
            A /= A.max()
            B /= B.max()
            c = trans @ c
            c /= c.max()
            state = B.T @ (A @ (1.0 / c))
            yield state / state.sum()

    steps = duals()
    reported = next(steps)
    history = []
    for n in range(1, N + 1):
        new_reported = next(steps)
        history.append(0.5 * float(np.abs(new_reported - reported).sum()))
        reported = new_reported
        if n >= min_steps and history[-1] <= tol:
            return KmsResult(CylinderMeasure(model, report_depth, reported), n, tuple(history))
    raise ConvergenceError(f"oracle did not converge within N={N} steps")


def test_spec_validation():
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): -3.0})
    p = CylinderFunction.constant(FULL2, 0.5)
    with pytest.raises(ShiftSpaceError):
        GaugeSpec(FULL2, H, p, 1.0)
    with pytest.raises(ShiftSpaceError):
        GaugeSpec(FULL2, CylinderFunction.constant(FULL2, 2.0),
                  CylinderFunction.constant(FULL2, 0.3), 1.0)
    with pytest.raises(ShiftSpaceError, match=">= 0"):
        GaugeSpec(FULL2, full2_spec().H, p, -1.0)
    for beta in (float("nan"), float("inf")):
        with pytest.raises(ShiftSpaceError, match="beta must be finite"):
            GaugeSpec(FULL2, full2_spec().H, p, beta)


def test_spec_rejects_complex_energies():
    p = CylinderFunction.constant(FULL2, 0.5)
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0 + 1j, (1,): 3.0})
    with pytest.raises(ShiftSpaceError):
        GaugeSpec(FULL2, H, p, 1.0)
    with pytest.raises(ShiftSpaceError):
        GaugeSpec(FULL2, CylinderFunction.constant(FULL2, 2.0), p + 0.1j, 1.0)
    # a zero imaginary part carries no information and is accepted
    real_as_complex = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0 + 0j, (1,): 3.0})
    spec = GaugeSpec(FULL2, real_as_complex, p, 1.0)
    res = kms_iterate(spec, random_start(spec, 2, np.random.default_rng(0)),
                      projection_steps(spec, 2))
    assert res.state.total_variation(gibbs_state(full2_spec(), depth=2)) < 1e-12
    nu = gibbs_state(full2_spec(), depth=4)
    got, want = (kms_check(s, nu, 3)["fixed_point_defect"] for s in (spec, full2_spec()))
    assert all(abs(got[n] - want[n]) <= 1e-15 for n in want)


def test_lambda_cocycle_hand_value():
    spec = full2_spec(beta=1.0)
    lam2 = lambda_cocycle(spec, 2)
    # H^-1 p^-1 at (0, 1): (1/2 * 2) * (1/3 * 2) on consecutive symbols
    assert abs(lam2.value_at((0, 1)) - (2.0 / 2.0) * (2.0 / 3.0)) < 1e-14


def test_F1_hand_value():
    # F_1(1) = Lam^{-1} E_1(Lam) with Lam = H^{-1} p^{-1} = (1, 2/3)
    spec = full2_spec(beta=1.0)
    out = F_op(spec, 1, CylinderFunction.constant(FULL2, 1.0))
    want = CylinderFunction.from_dict(FULL2, 1, {(0,): 5.0 / 6.0,
                                                 (1,): 5.0 / 4.0})
    assert out.allclose(want.refine(out.depth), tol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2 ** 31 - 1))
def test_F_tower_property(n, seed):
    # F_{n+1} o F_n = F_{n+1}
    rng = np.random.default_rng(seed)
    for spec in (full2_spec(), golden_spec()):
        f = rand_fn(spec.model, 2, rng)
        lhs = F_op(spec, n + 1, F_op(spec, n, f))
        rhs = F_op(spec, n + 1, f)
        d = max(lhs.depth, rhs.depth)
        assert lhs.refine(d).allclose(rhs.refine(d), tol=1e-12)


def test_F_idempotent():
    rng = np.random.default_rng(5)
    spec = golden_spec()
    f = rand_fn(GOLDEN, 2, rng)
    once = F_op(spec, 2, f)
    twice = F_op(spec, 2, once)
    d = max(once.depth, twice.depth)
    assert once.refine(d).allclose(twice.refine(d), tol=1e-12)


def test_bridge_identity():
    # L_{H,beta}^n f = L_p^n(Lam^{[n]} f)
    rng = np.random.default_rng(11)
    for spec in (full2_spec(beta=1.3), golden_spec()):
        L_hb = TransferOperator(spec.model, spec.H ** -spec.beta)
        L_p = TransferOperator(spec.model, spec.p)
        f = rand_fn(spec.model, 2, rng)
        for n in range(1, 5):
            lhs = f
            for _ in range(n):
                lhs = apply(L_hb, lhs)
            rhs = lambda_cocycle(spec, n) * f
            for _ in range(n):
                rhs = apply(L_p, rhs)
            d = max(lhs.depth, rhs.depth)
            assert np.abs(lhs.refine(d).values - rhs.refine(d).values).max() < 1e-13


def test_dual_step_matches_matrix():
    # the closed-form dual of F_n equals the transposed matrix action
    spec = golden_spec()
    N = 3
    margin = max(1, spec.H.depth - 1, spec.p.depth - 1)
    depth = N + margin + 1
    codes = wordcodes.admissible_codes(GOLDEN, depth)
    rng = np.random.default_rng(1)
    m = rng.random(len(codes))
    m /= m.sum()
    w0 = spec.H ** -spec.beta
    lam0_inv = spec.p * spec.H ** spec.beta
    cw = np.ones(len(codes))
    cl = np.ones(len(codes))
    inv = None
    for n in range(1, N + 1):
        cw = cw * np.real(wordcodes.gather(GOLDEN, w0, codes, depth, n - 1))
        cl = cl * np.real(wordcodes.gather(GOLDEN, lam0_inv, codes, depth, n - 1))
        smap = wordcodes.suffix_map(GOLDEN, depth - n + 1)
        inv = smap if inv is None else smap[inv]
        closed = _dual_step(m, inv, cw, cl)
        ref = _f_matrix(spec, n, depth).T @ m
        ref /= ref.sum()
        assert np.abs(closed - ref).max() < 1e-14
        m = closed


def test_gibbs_state_bernoulli():
    nu = gibbs_state(full2_spec(beta=1.0), depth=3)
    assert abs(nu.mass_of((0,)) - 0.6) < 1e-12
    assert abs(nu.mass_of((0, 1, 0)) - 0.6 * 0.4 * 0.6) < 1e-12


def test_gibbs_is_fixed_point():
    spec = full2_spec(beta=1.0)
    nu = gibbs_state(spec, depth=spec.working_depth(3))
    report = kms_check(spec, nu, 3)
    assert report["max_fixed_point_defect"] < 1e-10
    assert report["max_bridge_defect"] < 1e-13
    assert report["passes"]


def test_iterate_reaches_gibbs_full_shift():
    spec = full2_spec(beta=1.0)
    depth = 4
    rng = np.random.default_rng(2)
    res = kms_iterate(spec, random_start(spec, depth, rng),
                      projection_steps(spec, depth))
    nu = gibbs_state(spec, depth=depth)
    assert res.state.total_variation(nu) < 1e-10


def test_iterate_start_independent():
    spec = golden_spec()
    depth = 4
    steps = projection_steps(spec, depth)
    rng = np.random.default_rng(9)
    states = [kms_iterate(spec, random_start(spec, depth, rng), steps,
                          tol=1e-11).state
              for _ in range(3)]
    worst = max(states[i].total_variation(states[j])
                for i in range(3) for j in range(i + 1, 3))
    assert worst < 1e-9
    nu = gibbs_state(spec, depth=depth)
    assert max(s.total_variation(nu) for s in states) < 1e-8


def test_iterate_change_history_decays():
    spec = full2_spec(beta=1.0)
    res = kms_iterate(spec, random_start(spec, 4, np.random.default_rng(0)),
                      projection_steps(spec, 4))
    assert res.history[-1] <= 1e-12
    assert res.history[0] > res.history[-1]


def test_iterate_rejects_insufficient_steps():
    spec = full2_spec()
    phi0 = random_start(spec, 6, np.random.default_rng(0))
    with pytest.raises(ShiftSpaceError):
        kms_iterate(spec, phi0, 2)
    with pytest.raises(ShiftSpaceError, match="report depth must be >= 0"):
        projection_steps(spec, -1)


def test_iterate_rejects_a_bad_tol():
    # tol = inf stopped after 2 steps, 0.045 in total variation from
    # gibbs_state; NaN and -1 ran all N steps into "did not converge"
    spec = golden_spec()
    phi0 = random_start(spec, 3, np.random.default_rng(0))
    for tol in (np.inf, np.nan, -1.0, 0.0):
        with pytest.raises(ShiftSpaceError, match="tol must be positive and finite"):
            kms_iterate(spec, phi0, 60, tol=tol)


def test_other_betas_match_dual_eigenvector():
    for beta in (0.5, 2.0):
        spec = full2_spec(beta=beta)
        depth = 4
        res = kms_iterate(spec, random_start(spec, depth, np.random.default_rng(1)),
                          projection_steps(spec, depth))
        nu = gibbs_state(spec, depth=depth)
        assert res.state.total_variation(nu) < 1e-10


@pytest.mark.parametrize("model", [GOLDEN, SFT3], ids=["golden", "sft3"])
def test_dual_tower_telescopes(model):
    # F_n* after F_j* is F_n* for j <= n, exactly on the depth-(n + 2)
    # table: so step n of kms_iterate is F_n* of the start, and one more
    # F_n* replays all n steps
    H = rand_fn(model, 2, np.random.default_rng(4), lo=0.5)
    spec = GaugeSpec(model, H, default_p(model), 0.8)
    rng = np.random.default_rng(8)
    for n in range(1, 4):
        depth = n + 2
        m = rng.random(len(admissible_words(model, depth)))
        direct = _f_matrix(spec, n, depth).T @ m
        direct /= direct.sum()
        for j in range(1, n + 1):
            chained = _f_matrix(spec, n, depth).T @ (_f_matrix(spec, j, depth).T @ m)
            chained /= chained.sum()
            assert np.abs(chained - direct).max() < 1e-13


def test_iterate_codes_only_the_depth_it_tabulates():
    # a budget of N = 100 steps costs nothing past the step that converges
    spec = full2_spec(beta=1.0)
    res = kms_iterate(spec, random_start(spec, 4, np.random.default_rng(0)), 100)
    assert res.iterations == 5


def test_iterate_tables_stop_at_the_fixed_depth(monkeypatch):
    # golden mean at beta 2 takes tens of steps; the deepest word table
    # kms_iterate builds, reads a window or a block of, or sums preimages
    # over stays at max(report depth, start depth, s + 1), with every cache
    # cleared so none is hidden
    spec = golden_spec(beta=2.0)
    margin = max(1, spec.H.depth - 1, spec.p.depth - 1)
    originals = {name: getattr(wordcodes, name) for name in
                 ("admissible_codes", "window_index", "window_positions",
                  "preimage_runs", "extension_starts")}
    for start_depth, report_depth in ((3, 3), (1, 1), (4, 2)):
        phi0 = random_start(spec, start_depth, np.random.default_rng(1))
        steps = projection_steps(spec, report_depth)
        depths = []

        def recording(name):
            # a window's start and length lie within its depth; the second
            # depth of extension_starts is the deeper table
            def call(model, depth, *rest):
                depths.extend((depth, *rest))
                return originals[name](model, depth, *rest)
            return call

        for name in ("admissible_codes", "preimage_runs", "extension_starts"):
            originals[name].cache_clear()
        wordcodes._kept_window_index.cache_clear()
        for name in originals:
            monkeypatch.setattr(wordcodes, name, recording(name))
        res = kms_iterate(spec, phi0, steps, report_depth=report_depth)
        monkeypatch.undo()
        assert res.iterations > 20
        assert max(depths) == max(report_depth, start_depth, margin + 1)


SFT3_CASES = [(1, 0.1), (1, 0.3), (2, 0.2), (2, 0.4)]


@pytest.mark.parametrize(
    "energy_depth,beta,report_depth,tol",
    [pytest.param(d, b, 1, 1e-7, id=f"{d}-{b}") for d, b in SFT3_CASES]
    + [pytest.param(d, b, q, 1e-12, id=f"{d}-{b}-q{q}")
       for d, b in SFT3_CASES for q in (2, 3)])
def test_iterate_reaches_gibbs_on_sft3(energy_depth, beta, report_depth, tol):
    # the changes decay by about 0.41 per step (the transition matrix's
    # eigenvalue ratio at small beta)
    spec = sft3_spec(energy_depth, beta)
    rng = np.random.default_rng(energy_depth * 10 + int(beta * 10))
    res = kms_iterate(spec, random_start(spec, report_depth, rng),
                      projection_steps(spec, report_depth), tol=tol)
    assert res.history[-1] <= tol
    nu = gibbs_state(spec, depth=report_depth)
    assert res.state.total_variation(nu) < 10 * tol


@pytest.mark.parametrize("model", [FULL2, GOLDEN, SFT3, GAP3],
                         ids=["full2", "golden", "sft3", "gap3"])
def test_iterate_matches_growing_table_oracle(model):
    # the preimage sums and node-graph path sums against the whole table,
    # for depth-1 to -3 H and depth-0 to -4 starts reported at their own
    # depth, below it, and above it; the tolerances keep the oracle's table
    # under 20k words
    beta, tol = (0.3, 1e-3) if model.alphabet_size == 3 else (1.0, 1e-6)
    for energy_depth in (1, 2, 3):
        H = rand_fn(model, energy_depth, np.random.default_rng(energy_depth), lo=0.5)
        spec = GaugeSpec(model, H, default_p(model), beta)
        for start_depth, report_depth in ((1, 1), (2, 2), (2, 1), (3, 3), (3, 1),
                                          (4, 4), (4, 2), (1, 3), (0, 2)):
            phi0 = random_start(spec, start_depth, np.random.default_rng(start_depth))
            want = _growing_table_iterate(spec, phi0, 40, tol, report_depth)
            got = kms_iterate(spec, phi0, 40, tol, report_depth)
            assert got.iterations == want.iterations
            assert np.abs(np.subtract(got.history, want.history)).max() < 1e-13
            assert np.abs(got.state.masses - want.state.masses).max() < 1e-13


def test_step_budget_follows_the_spectral_gap(monkeypatch):
    # changes shrink by |l2/l1| = 0.68 a step: 67 steps, past report depth +
    # margin + 30 mixing steps
    H = CylinderFunction.from_dict(GOLDEN, 2, {(0, 0): 3.546, (0, 1): 1.504,
                                               (1, 0): 2.611})
    spec = GaugeSpec(GOLDEN, H, default_p(GOLDEN), 1.6)
    steps = projection_steps(spec, 2)
    res = kms_iterate(spec, random_start(spec, 2, np.random.default_rng(0)), steps)
    assert res.iterations > 2 + 30
    assert res.state.total_variation(gibbs_state(spec, depth=2)) < 1e-10
    # the budget is capped at MAX_STEPS, here set below this spec's budget,
    # and a model with no spectral gap is rejected
    assert steps > 50
    monkeypatch.setattr(kms, "MAX_STEPS", 50)
    assert projection_steps(spec, 2) == 50
    period_two = ShiftModel(2, ((0, 1), (1, 0)))
    flat = GaugeSpec(period_two, CylinderFunction.constant(period_two, 2.0),
                     default_p(period_two), 1.0)
    with pytest.raises(ShiftSpaceError, match="spectral gap"):
        projection_steps(flat, 1)


def _gap_ratio(spec: GaugeSpec) -> float:
    """Test oracle for the cached `GaugeSpec.gap_ratio`: |l2/l1| of the
    node matrix of a freshly formed H^-beta, by one dense eigensolve."""
    s = kms._margin(spec)
    src, dst = wordcodes.node_graph(spec.model, s)
    e_w = _table(boltzmann_weight(spec.H, spec.beta), s + 1)
    n = len(wordcodes.admissible_codes(spec.model, s))
    nodes = np.bincount(src * n + dst, np.real(e_w), n * n).reshape(n, n)
    top = np.sort(np.abs(np.linalg.eigvals(nodes)))
    return float(top[-2] / top[-1])


@pytest.mark.parametrize("make", [full2_spec, golden_spec, lambda: sft3_spec(3, 1.4)],
                         ids=["full2", "golden", "sft3"])
def test_spec_caches_equal_fresh_values(make):
    # a used spec's H^-beta, p H^beta and gap are bitwise the fresh ones
    spec = make()
    kms_iterate(spec, random_start(spec, 2, np.random.default_rng(0)),
                projection_steps(spec, 2))
    gibbs_state(spec, depth=2)
    assert spec.weight is spec.weight and spec.lam_inv is spec.lam_inv
    fresh = make()
    assert spec.weight == boltzmann_weight(fresh.H, fresh.beta)
    assert spec.lam_inv == fresh.p * fresh.H ** fresh.beta
    assert spec.gap_ratio == _gap_ratio(fresh)


def test_starts_on_one_spec_equal_starts_on_fresh_specs():
    shared = golden_spec(beta=1.6)
    steps = projection_steps(shared, 3)
    rng = np.random.default_rng(5)
    for phi0 in [random_start(shared, 3, rng) for _ in range(5)]:
        fresh = golden_spec(beta=1.6)
        got = kms_iterate(shared, phi0, projection_steps(shared, 3))
        want = kms_iterate(fresh, phi0, projection_steps(fresh, 3))
        assert projection_steps(fresh, 3) == steps
        assert got.iterations == want.iterations
        assert got.history == want.history
        assert np.array_equal(got.state.masses, want.state.masses)


def test_a_weight_past_the_doubles_is_refused_on_every_use():
    # the spec constructs; the ConvergenceError is raised again, never cached
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 1e10, (1,): 3.0})
    spec = GaugeSpec(FULL2, H, CylinderFunction.constant(FULL2, 0.5), 40.0)
    phi0 = random_start(spec, 2, np.random.default_rng(0))
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="model.beta = 40"):
            projection_steps(spec, 2)
        with pytest.raises(ConvergenceError, match="model.beta = 40"):
            kms_iterate(spec, phi0, 30)
    assert "weight" not in vars(spec) and "gap_ratio" not in vars(spec)


def oracle_fixed_point_defect(spec, phi, N):
    """Test oracle for kms_check's fixed-point defect: phi(F_n 1_w) by one
    F_op per indicator word, paired with phi by `integrate`."""
    model = spec.model
    depth = phi.depth
    fixed_point_defect = {}
    for n in range(1, N + 1):
        worst = 0.0
        for w in admissible_words(model, 1) + admissible_words(model, min(2, depth)):
            ind = CylinderFunction.indicator(model, w)
            lhs = float(np.real(integrate(phi, F_op(spec, n, ind))))
            worst = np.maximum(worst, abs(lhs - phi.mass_of(w)))
        fixed_point_defect[n] = float(worst)
    return fixed_point_defect


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([FULL2, full_shift(3), GOLDEN, SFT3]), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 1), st.integers(0, 2 ** 31 - 1))
@example(GOLDEN, 2, 1, 1, 100)  # defect 8.1e-4, sides 8.3e-17 apart
def test_fixed_point_defect_matches_indicator_oracle(model, N, depth, extra, seed):
    # uneven random measures are far from fixed: the defects are O(1e-2),
    # rarely below 1e-3, so a relative agreement of 1e-13 checks every term.
    # Each side sums, over phi's words, products of O(N) rounded factors
    # (cocycle, p^{[n]}, rho), so it is within about 3N + log2(#words) ulps
    # of the largest total it reaches, at most the largest depth-1 mass.
    # Twice that is the absolute term, which defects near 1e-3 need: there
    # one rounding step of the masses passes the relative term (the worst
    # draw seen put the sides 8.2 such ulps apart)
    rng = np.random.default_rng(seed)
    spec = GaugeSpec(model, rand_fn(model, depth, rng, lo=0.5), default_p(model),
                     float(rng.uniform(0.2, 1.5)))
    phi_depth = N + max(1, depth - 1) + extra
    masses = rng.random(len(admissible_words(model, phi_depth))) ** 4
    phi = CylinderMeasure(model, phi_depth, masses / masses.sum())
    got = kms_check(spec, phi, N)["fixed_point_defect"]
    want = oracle_fixed_point_defect(spec, phi, N)
    rounding = (2 * (3 * N + np.log2(len(masses))) * np.finfo(float).eps
                * phi.coarsen(1).masses.max())
    assert got.keys() == want.keys()
    for n in want:
        assert want[n] > 1e-4
        assert abs(got[n] - want[n]) <= 1e-13 * want[n] + rounding


def test_kms_check_errors_match_the_oracle():
    spec = golden_spec()  # depth-2 H: F_n closes at depth n + 1
    nu = gibbs_state(spec, depth=4)
    cases = [(spec, nu.coarsen(3), 3), (spec, gibbs_state(full2_spec(), depth=5), 3),
             (golden_spec(beta=1000.0), nu, 3)]  # 3^-1000 is no double
    for args in cases:
        with pytest.raises((ShiftSpaceError, ConvergenceError)) as got:
            kms_check(*args)
        with pytest.raises(got.type, match=f"^{re.escape(str(got.value))}$"):
            oracle_fixed_point_defect(*args)
    with pytest.raises(ShiftSpaceError, match="exceeds measure depth 3"):
        kms_check(*cases[0])
    # past the doubles in Lam^{-[n]}, the defects stop being finite where the
    # oracle's do, and the worst one is NaN
    with np.errstate(all="ignore"):
        report = kms_check(golden_spec(beta=400.0), nu, 3)
        want = oracle_fixed_point_defect(golden_spec(beta=400.0), nu, 3)
    got = report["fixed_point_defect"]
    assert [np.isfinite(got[n]) for n in want] == [np.isfinite(v) for v in want.values()]
    assert np.isnan(report["max_fixed_point_defect"]) and not report["passes"]


@pytest.mark.parametrize("N", [0, -1])
def test_kms_check_needs_a_step(N):
    spec = full2_spec()
    with pytest.raises(ShiftSpaceError, match="N must be >= 1"):
        kms_check(spec, gibbs_state(spec, depth=3), N)


def _assert_matches_one_step(spec, phi0, N, report_depth):
    want = _one_step_iterate(spec, phi0, N, report_depth=report_depth)
    got = kms_iterate(spec, phi0, N, report_depth=report_depth)
    assert got.iterations == want.iterations
    assert np.abs(np.subtract(got.history, want.history)).max() <= 1e-15
    assert np.abs(got.state.masses - want.state.masses).max() <= 1e-13


@pytest.mark.parametrize("model", [FULL2, FULL3, GOLDEN, SFT3, GAP3],
                         ids=["full2", "full3", "golden", "sft3", "gap3"])
def test_blocks_match_the_one_step_oracle(model):
    # depth-1 to -3 H at beta 0.3 to 8, reported at, below and above the
    # start's depth: the same stop, histories and states
    for energy_depth in (1, 2, 3):
        rng = np.random.default_rng(energy_depth)
        n = len(admissible_words(model, energy_depth))
        H = CylinderFunction(model, energy_depth, np.exp(rng.uniform(-1, 1, n)))
        for beta in (0.3, 2.0, 8.0):
            spec = GaugeSpec(model, H, default_p(model), beta)
            for start_depth, report_depth in ((3, 3), (1, 1), (0, 2), (4, 2), (2, 5)):
                phi0 = random_start(spec, start_depth, rng)
                _assert_matches_one_step(spec, phi0, projection_steps(spec, report_depth),
                                         report_depth)


def test_block_length_follows_the_log_range_and_the_node_graph():
    # (b + 1) * (largest |log| of p H^beta, plus that of H^-beta) > 600 >=
    # b * (...): at beta 100, 109.2 + 109.9 cuts b to 2.  A depth-5 H has 16
    # nodes, and one 16 x 16 power fills BLOCK_WORDS: b = 1
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    cut = GaugeSpec(FULL2, H, CylinderFunction.constant(FULL2, 0.5), 100.0)
    H5 = rand_fn(FULL2, 5, np.random.default_rng(7), lo=0.5)
    wide = GaugeSpec(FULL2, H5, default_p(FULL2), 1.3)
    for spec, b in ((cut, 2), (wide, 1)):
        assert spec.node_powers[0] == b
        for start_depth, report_depth in ((3, 3), (6, 2), (0, 5)):
            phi0 = random_start(spec, start_depth, np.random.default_rng(start_depth))
            _assert_matches_one_step(spec, phi0, projection_steps(spec, report_depth),
                                     report_depth)


def _bernoulli(spec, depth):
    """The closed form for a depth-1 H on a full shift: the product measure
    with p_a propto H_a^-beta."""
    q = spec.H.values ** -spec.beta
    q /= q.sum()
    return np.array([math.prod(q[list(w)]) for w in
                     itertools.product(range(len(q)), repeat=depth)])


@pytest.mark.parametrize("blocks", [True, False], ids=["blocks", "b1"])
def test_low_temperature_states_are_the_closed_form(monkeypatch, blocks):
    # the pre-n0 products leave the doubles here unless rescaled (the full
    # 3-shift case raised no error and put NaN in its changes); b = 1 by the
    # node graph's log range, by MAX_BLOCK, or both
    if not blocks:
        monkeypatch.setattr(kms, "MAX_BLOCK", 1)
    wild = np.exp(np.random.default_rng([1, 50]).uniform(-5, 5, 3))
    cases = [(FULL2, (2.0, 3.0), 150.0), (FULL2, (1.0, 1.5), 150.0),
             (FULL2, (1.0, 1.5), 50.0), (FULL3, (1.0, 1.2, 1.5), 100.0),
             (FULL3, wild, 50.0)]
    for model, values, beta in cases:
        spec = GaugeSpec(model, CylinderFunction(model, 1, np.array(values)),
                         default_p(model), beta)
        assert (spec.node_powers[0] > 1) == (blocks and max(values) < 2)
        for start_depth, report_depth in ((3, 3), (1, 4), (0, 2)):
            phi0 = random_start(spec, start_depth, np.random.default_rng(start_depth))
            res = kms_iterate(spec, phi0, projection_steps(spec, report_depth),
                              report_depth=report_depth)
            want = _bernoulli(spec, report_depth)
            assert np.isfinite(res.history).all() and res.history[-1] <= 1e-12
            assert 0.5 * np.abs(res.state.masses - want).sum() <= 1e-15
            normal = want > np.finfo(float).tiny
            assert np.abs(res.state.masses[normal] / want[normal] - 1).max() <= 1e-12
