"""Equilibrium states: fixed-point operators, iteration, Gibbs construction."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (
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
    kms_check,
    kms_iterate,
    lambda_cocycle,
    projection_steps,
    random_start,
)
from thermoshift.config import default_p
from thermoshift.kms import _dual_step, _f_matrix
from thermoshift import wordcodes

FULL2 = full_shift(2)
GOLDEN = golden_mean_shift()
# a 3-symbol SFT that is not a full shift (0 -/-> 2, 2 -/-> 0)
SFT3 = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))


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


def test_spec_validation():
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): -3.0})
    p = CylinderFunction.constant(FULL2, 0.5)
    with pytest.raises(ShiftSpaceError):
        GaugeSpec(FULL2, H, p, 1.0)
    with pytest.raises(ShiftSpaceError):
        GaugeSpec(FULL2, CylinderFunction.constant(FULL2, 2.0),
                  CylinderFunction.constant(FULL2, 0.3), 1.0)


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
    # N = 100 would code depth-101 words; the iteration converges at depth 6
    spec = full2_spec(beta=1.0)
    res = kms_iterate(spec, random_start(spec, 4, np.random.default_rng(0)), 100)
    assert res.iterations == 5
    assert res.residual < 1e-12


def test_iterate_tables_stay_within_steps_plus_margin(monkeypatch):
    spec = golden_spec(beta=2.0)
    margin = max(1, spec.H.depth - 1, spec.p.depth - 1)
    depths = []
    codes = wordcodes.admissible_codes

    def recording(model, depth):
        depths.append(depth)
        return codes(model, depth)

    monkeypatch.setattr(wordcodes, "admissible_codes", recording)
    res = kms_iterate(spec, random_start(spec, 3, np.random.default_rng(1)),
                      projection_steps(spec, 3))
    assert max(depths) == res.iterations + margin


@pytest.mark.parametrize("energy_depth,beta", [(1, 0.1), (1, 0.3), (2, 0.2), (2, 0.4)])
def test_iterate_reaches_gibbs_on_sft3(energy_depth, beta):
    # the changes decay by about 0.41 per step (the transition matrix's
    # eigenvalue ratio at small beta), so at the 8M-word step budget the
    # tolerance is 1e-7 and the report depth 1
    spec = sft3_spec(energy_depth, beta)
    rng = np.random.default_rng(energy_depth * 10 + int(beta * 10))
    res = kms_iterate(spec, random_start(spec, 1, rng), projection_steps(spec, 1),
                      tol=1e-7)
    assert res.history[-1] <= 1e-7
    assert res.state.total_variation(gibbs_state(spec, depth=1)) < 1e-6
