"""Equilibrium states: fixed-point operators, iteration, Gibbs construction."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from thermoshift import kms
from thermoshift.kms import KmsResult, _dual_step
from thermoshift import wordcodes

FULL2 = full_shift(2)
GOLDEN = golden_mean_shift()
# a 3-symbol SFT that is not a full shift (0 -/-> 2, 2 -/-> 0)
SFT3 = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))


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
        n_tails = len(wordcodes.admissible_codes(model, depth - n))
        masses = _dual_step(start, tail, n_tails, cum_w, cum_lam_inv)
        new_reported = coarse(masses)
        change = 0.5 * float(np.abs(new_reported - reported).sum())
        history.append(change)
        reported = new_reported
        if n >= min_steps and change <= tol:
            again = coarse(_dual_step(masses, tail, n_tails, cum_w, cum_lam_inv))
            residual = 0.5 * float(np.abs(again - reported).sum())
            state = CylinderMeasure(model, report_depth, reported)
            return KmsResult(state, n, residual, tuple(history))
    raise ConvergenceError(f"oracle did not converge within N={N} steps")


def test_spec_validation():
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): -3.0})
    p = CylinderFunction.constant(FULL2, 0.5)
    with pytest.raises(ShiftSpaceError):
        GaugeSpec(FULL2, H, p, 1.0)
    with pytest.raises(ShiftSpaceError):
        GaugeSpec(FULL2, CylinderFunction.constant(FULL2, 2.0),
                  CylinderFunction.constant(FULL2, 0.3), 1.0)


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
        n_tails = len(wordcodes.admissible_codes(GOLDEN, depth - n))
        closed = _dual_step(m, inv, n_tails, cw, cl)
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
    assert res.residual < 1e-12


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
    assert res.residual < 1e-12


def test_iterate_tables_stop_at_the_fixed_depth(monkeypatch):
    # golden mean at beta 2 takes tens of steps; the largest word table
    # kms_iterate asks for stays at max(report depth, start depth, s + 1)
    spec = golden_spec(beta=2.0)
    margin = max(1, spec.H.depth - 1, spec.p.depth - 1)
    codes = wordcodes.admissible_codes
    for start_depth, report_depth in ((3, 3), (1, 1), (4, 2)):
        phi0 = random_start(spec, start_depth, np.random.default_rng(1))
        steps = projection_steps(spec, report_depth)
        depths = []

        def recording(model, depth):
            depths.append(depth)
            return codes(model, depth)

        monkeypatch.setattr(wordcodes, "admissible_codes", recording)
        res = kms_iterate(spec, phi0, steps, report_depth=report_depth)
        monkeypatch.setattr(wordcodes, "admissible_codes", codes)
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


@pytest.mark.parametrize("model", [FULL2, GOLDEN, SFT3], ids=["full2", "golden", "sft3"])
def test_iterate_matches_growing_table_oracle(model):
    # the node-graph path sums against the whole table, for depth-1 to -3 H
    # and depth-1 to -4 starts reported at their own depth, below it, and
    # above it; the tolerances keep the oracle's table under 20k words
    beta, tol = (0.3, 1e-3) if model is SFT3 else (1.0, 1e-6)
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
            assert abs(got.residual - want.residual) < 1e-13
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
def test_fixed_point_defect_matches_indicator_oracle(model, N, depth, extra, seed):
    # uneven random measures are far from fixed: the defects are O(1e-2)
    # (at least 1e-3 in 2000 draws), so a relative agreement of 1e-13 (the
    # worst of those draws: 2e-14) checks every term
    rng = np.random.default_rng(seed)
    spec = GaugeSpec(model, rand_fn(model, depth, rng, lo=0.5), default_p(model),
                     float(rng.uniform(0.2, 1.5)))
    phi_depth = N + max(1, depth - 1) + extra
    masses = rng.random(len(admissible_words(model, phi_depth))) ** 4
    phi = CylinderMeasure(model, phi_depth, masses / masses.sum())
    got = kms_check(spec, phi, N)["fixed_point_defect"]
    want = oracle_fixed_point_defect(spec, phi, N)
    assert got.keys() == want.keys()
    for n in want:
        assert want[n] > 1e-4
        assert abs(got[n] - want[n]) <= 1e-13 * want[n]


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
