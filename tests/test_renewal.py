"""Renewal tower: zeta weights, pressure root, phase transition at beta = 1."""
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

import thermoshift
from thermoshift import renewal
from thermoshift.transfer import ConvergenceError

from thermoshift import (
    RenewalModel,
    eigenmeasure_masses,
    phase_transition_report,
    pressure_at,
    pressure_curve,
    tower_pressure_oracle,
    zeta,
)


def test_zeta_matches_scipy():
    for g in (2.1, 3.0, 4.5, 7.0):
        assert abs(zeta(g) - scipy.special.zeta(g, 1)) < 1e-11


@pytest.mark.parametrize("gamma", [2.1, 3.0, 4.5])
def test_tail_mass_matches_hurwitz_zeta(gamma):
    for K in (1, 10, renewal._HEAD - 2, renewal._HEAD - 1, renewal._HEAD,
              1000, 100_000, 10 ** 7):
        m = RenewalModel(gamma, K)
        want = scipy.special.zeta(gamma, K + 2) / scipy.special.zeta(gamma, 1)
        assert abs(m.tail_mass() / want - 1.0) < 1e-10, K


def test_model_validation():
    with pytest.raises(ValueError):
        RenewalModel(2.0, 10)
    with pytest.raises(ValueError):
        RenewalModel(3.0, 0)


def test_model_refuses_a_non_finite_gamma_and_a_non_integer_K():
    # gamma NaN passed `gamma <= 2` and gamma inf gave zeta_value NaN, both
    # failing later in pressure_at; K = 2.5 raised a bare TypeError
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            RenewalModel(gamma, 10)
    for K in (2.5, 10.0):
        with pytest.raises(ValueError, match="K must be an integer"):
            RenewalModel(3.0, K)
    assert RenewalModel(3.0, np.int64(10)).tail_mass() == RenewalModel(3.0, 10).tail_mass()


def test_cell_weights_telescope():
    # the cell energies a_k accumulate to s_k = log((k+1)^-gamma / zeta)
    m = RenewalModel(3.0, 50)
    k = np.arange(51, dtype=float)
    want = -3.0 * np.log(k + 1) - np.log(m.zeta_value)
    assert np.abs(np.cumsum(m.a) - want).max() < 1e-12
    assert np.abs(m.s - want).max() < 1e-12


def test_eigenmeasure_head_and_total():
    m = RenewalModel(3.0, 100_000)
    nu = eigenmeasure_masses(m)
    assert abs(nu[0] - 0.8319073725807077) < 1e-10
    deficit = 1.0 - nu.sum()
    assert 0.0 < deficit < 2.0 * m.tail_mass()
    assert abs(deficit - m.tail_mass()) < 1e-3 * m.tail_mass()


def test_pressure_root_properties():
    m = RenewalModel(3.0, 20_000)
    p_half, res = pressure_at(m, 0.5)
    assert p_half > 0 and res < 1e-11
    # the critical value: P vanishes at and beyond beta = 1
    p_one, _ = pressure_at(m, 1.0)
    assert p_one <= 1e-6
    assert pressure_at(m, 1.2)[0] == 0.0
    curve = pressure_curve(m, np.arange(0.5, 0.95, 0.1))
    assert (np.diff(curve.P) < 0).all()


def brentq_pressure(m, beta, tol=1e-12):
    """Test oracle, kept off the production path: the bracketed brentq root
    of the renewal equation that `pressure_at` used before its Newton run."""
    bs, n = beta * m.s, np.arange(1, m.K + 2, dtype=float)

    def f(P):
        return float(np.exp(bs - n * P).sum()) - 1.0

    if f(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
    return brentq(f, 0.0, hi, xtol=tol)


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(2.1, 5.0, exclude_min=True, exclude_max=True),
       K=st.integers(1, 5000), beta=st.floats(-0.5, 1.5))
def test_pressure_matches_brentq_oracle(gamma, K, beta):
    m = RenewalModel(gamma, K)
    P, res = pressure_at(m, beta)
    assert abs(P - brentq_pressure(m, beta)) <= 1e-11
    assert res <= 1e-12


def test_pressure_matches_brentq_on_the_curve_grid():
    m = RenewalModel(3.0, 100_000)
    for beta in np.linspace(0.3, 1.3, 41):
        P, res = pressure_at(m, float(beta))
        assert abs(P - brentq_pressure(m, float(beta))) <= 1e-12
        assert res <= 1e-12


@pytest.mark.parametrize("K", [1, 7, renewal._HEAD - 1, renewal._HEAD,
                               renewal._HEAD + 1, 20_000])
@pytest.mark.parametrize("beta", [0.3, 0.999, 0.9999, 1.0])
def test_pressure_near_the_transition_and_short_towers(K, beta):
    m = RenewalModel(3.0, K)
    P, res = pressure_at(m, beta)
    assert abs(P - brentq_pressure(m, beta)) <= 1e-12
    assert P >= 0.0 and res <= 1e-12


def test_pressure_closed_forms_at_beta_zero():
    # S(P) = sum_{k<=K} exp(-(k+1) P): e^-P + e^-2P = 1 gives log(golden
    # ratio); the geometric series of a long tower sums to 1 at P = log 2
    P, _ = pressure_at(RenewalModel(3.0, 1), 0.0)
    assert abs(P - math.log((1 + math.sqrt(5)) / 2)) <= 1e-15
    P, _ = pressure_at(RenewalModel(3.0, 100_000), 0.0)
    assert abs(P - math.log(2.0)) <= 1e-12


def full_sums(P, q, N):
    """Test oracle, kept off the production path: (S, T) = (sum_n n^-q e^-nP,
    sum_n n^(1-q) e^-nP) over all N terms, each sum by math.fsum."""
    n = np.arange(1, N + 1, dtype=float)
    terms = n ** -q * np.exp(-n * P)
    return math.fsum(terms.tolist()), math.fsum((n * terms).tolist())


@settings(max_examples=40, deadline=None)
@given(q=st.floats(-3.0, 10.0), P=st.floats(0.0, 2.0),
       K=st.sampled_from([1, renewal._HEAD - 1, renewal._HEAD, renewal._HEAD + 1,
                          100_000, 1_000_000]))
@example(q=-3.0, P=0.0, K=1_000_000)
@example(q=0.0, P=0.0, K=100_000)
@example(q=0.5, P=1e-5, K=1_000_000)
@example(q=1.0, P=0.0, K=renewal._HEAD + 1)
@example(q=2.9, P=1e-4, K=100_000)
@example(q=-3.0, P=0.01, K=100_000)
def test_log_sums_match_the_full_sum_oracle(q, P, K):
    S, T = full_sums(P, q, K + 1)
    log_s, mean = renewal._log_sums(P, q, K + 1)
    assert abs(math.expm1(log_s - math.log(S))) <= 1e-14
    assert abs(mean / (T / S) - 1.0) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(q=st.floats(2.0, 8.0),
       N=st.sampled_from([1, 10, renewal._HEAD, renewal._HEAD + 1,
                          renewal._HEAD + 2, 100_000, 1_000_000]))
@example(q=2.0, N=1_000_000)
def test_log_moment_matches_the_full_sum_oracle(q, N):
    n = np.arange(1, N + 1, dtype=float)
    want = math.fsum((n ** -q * np.log(n)).tolist())
    got = renewal._log_moment(q, N)
    assert abs(got - want) <= 1e-14 * max(want, 1e-300), (got, want)


def oracle_panels(a, b):
    """Test oracle, kept off the production path: `renewal._panels` before
    it was memoized, built afresh on every call, without the nodes' logs."""
    k = max(1, math.ceil(math.log2(b / a)))
    edges = np.minimum(a * 2.0 ** np.arange(k + 1), b)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (1.0 + renewal._GL_X), half * renewal._GL_W


def oracle_tail_sums(P, q, a, b, m):
    """Test oracle: `renewal._tail_sums` on `oracle_panels`, logs by np.log."""
    x, wx = oracle_panels(a, b)
    wf = wx * np.exp(-q * np.log(x) - P * x - m)
    S, T = float(wf.sum()), float((wf * x).sum())
    for t, sign in ((a, -1.0), (b, 1.0)):
        f = math.exp(-q * math.log(t) - P * t - m)
        if f:
            s_end, t_end = renewal._em_ends(q, P, t)
            S += f * (0.5 + sign * s_end)
            T += f * (0.5 * t + sign * t_end)
    return S, T


def oracle_log_sums(P, q, N):
    """Test oracle: `renewal._log_sums` before it was memoized, with -q log n,
    the head maximum, the panels and every temporary formed afresh."""
    h = min(N, renewal._HEAD)
    g = -q * renewal._LOG_N[:h] - P * renewal._N[:h]
    m = float(g.max())
    tail = N > renewal._HEAD
    if tail:
        a, b = renewal._HEAD + 1.0, float(N)
        xs = (a, b, min(max(-q / P, a), b)) if q < 0 < P else (a, b)
        top = max(-q * math.log(x) - P * x for x in xs)
        m = max(m, top)
        tail = top - m >= -40.0 - 2.0 * math.log(b)
    w = np.exp(g - m)
    S, T = float(w.sum()), float(w @ renewal._N[:h])
    if tail:
        dS, dT = oracle_tail_sums(P, q, a, b, m)
        S, T = S + dS, T + dT
    return m + math.log(S), T / S


def assert_same_bits(got, want):
    """Equal floats, each with the sign of its zero."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), (got, want)


@settings(max_examples=40, deadline=None)
@given(q=st.floats(-3.0, 10.0), P=st.floats(0.0, 2.0),
       K=st.sampled_from([1, renewal._HEAD - 1, renewal._HEAD, renewal._HEAD + 1,
                          100_000, 1_000_000]))
@example(q=0.0, P=0.0, K=1)
@example(q=-0.0, P=0.0, K=renewal._HEAD - 1)
@example(q=0.0, P=-0.0, K=renewal._HEAD)
@example(q=-0.0, P=-0.0, K=100_000)
@example(q=3.0, P=-0.0, K=1)
@example(q=-3.0, P=-0.0, K=renewal._HEAD + 1)
@example(q=1.0, P=0.0, K=renewal._HEAD + 1)
@example(q=-3.0, P=0.01, K=100_000)
def test_log_sums_match_the_unmemoized_oracle_bit_for_bit(q, P, K):
    for N in (K + 1, min(K, renewal._HEAD)):
        assert_same_bits(renewal._log_sums(P, q, N), oracle_log_sums(P, q, N))


@pytest.mark.parametrize("N", [1, renewal._HEAD, renewal._HEAD + 1, 100_000])
def test_log_sums_keep_the_signs_of_zero_in_either_call_order(N):
    # the memo's keys compare 0.0 and -0.0 equal: whichever is evaluated
    # first, the other must still read its own oracle's bits
    zeros = [(P, q) for P in (0.0, -0.0) for q in (0.0, -0.0, 2.5)]
    for order in (zeros, zeros[::-1]):
        renewal._log_sums.cache_clear()
        renewal._head_exponent.cache_clear()
        for P, q in order:
            assert_same_bits(renewal._log_sums(P, q, N), oracle_log_sums(P, q, N))


def test_memoized_arrays_are_read_only():
    arrays = (*renewal._panels(renewal._HEAD + 1.0, 1e5), renewal._head_exponent(3.0))
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_pressure_matches_the_unmemoized_path_bit_for_bit(monkeypatch):
    betas = [*np.linspace(-2.0, 3.0, 26).tolist(), 0.0, -0.0, 0.999, 1.0, 1.001]
    models = [RenewalModel(g, K) for g in (2.5, 4.0)
              for K in (1, renewal._HEAD, renewal._HEAD + 1, 100_000)]
    got = [pressure_at(m, b) for m in models for b in betas]
    monkeypatch.setattr(renewal, "_log_sums", oracle_log_sums)
    want = [pressure_at(m, b) for m in models for b in betas]
    for g, w in zip(got, want):
        assert_same_bits(g, w)


def test_pressure_needs_at_most_five_full_sums(monkeypatch):
    # counted with the existence test at P = 0 and the residual; the head
    # sums run on _HEAD terms and are not counted
    m = RenewalModel(3.0, 100_000)
    lengths = []
    sums = renewal._log_sums

    def counting(P, q, N):
        lengths.append(N)
        return sums(P, q, N)

    monkeypatch.setattr(renewal, "_log_sums", counting)
    betas = np.concatenate([np.linspace(0.3, 0.99, 24),
                            [0.995, 0.999, 0.9999, 0.99999]])
    for beta in betas:
        lengths.clear()
        pressure_at(m, float(beta))
        assert 2 <= lengths.count(m.K + 1) <= 5, (beta, lengths)


def test_pressure_root_past_the_range_of_exp():
    # at beta = -1000 the terms of S reach e^20000.  At K = 1,
    # zeta^-beta (u + 2^-q u^2) = 1 with u = e^-P, q = beta gamma, so
    # u = 2 zeta^beta / (1 + sqrt(1 + e^X)), X = log(4 2^-q zeta^beta)
    beta, gamma = -1000.0, 3.0
    m = RenewalModel(gamma, 1)
    log_b = beta * math.log(m.zeta_value)
    X = math.log(4.0) - beta * gamma * math.log(2.0) + log_b
    want = -(math.log(2.0) + log_b - np.logaddexp(0.0, 0.5 * np.logaddexp(0.0, X)))
    P, res = pressure_at(m, beta)
    assert abs(P - want) <= 1e-12 * want and res <= 1e-12
    # a long tower: log S at the root, from max-shifted terms by math.fsum
    m = RenewalModel(gamma, 1000)
    P, res = pressure_at(m, beta)
    n = np.arange(1, m.K + 2, dtype=float)
    g = beta * m.s - n * P
    log_s = g.max() + math.log(math.fsum(np.exp(g - g.max()).tolist()))
    assert P > 1000.0 and abs(log_s) <= 1e-11 and res <= 1e-11


def test_pressure_curve_allocates_nothing_of_size_K():
    tracemalloc.start()
    try:
        m = RenewalModel(3.0, 10 ** 7)
        pressure_curve(m, np.linspace(0.5, 1.2, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_newton_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(renewal, "_MAX_NEWTON", 1)
    with pytest.raises(RuntimeError, match="beta=0.99"):
        pressure_at(RenewalModel(3.0, 100_000), 0.99)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_pressure_refuses_a_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite"):
        pressure_at(RenewalModel(3.0, 100_000), beta)


def test_pressure_curve_refuses_a_non_finite_beta_up_front(monkeypatch):
    monkeypatch.setattr(renewal, "pressure_at", None)  # never reached
    with pytest.raises(ValueError, match="beta_grid must be finite"):
        pressure_curve(RenewalModel(3.0, 100_000), [0.5, math.nan, 0.9])


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_tower_oracle_refuses_a_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta must be finite"):
        tower_pressure_oracle(RenewalModel(3.0, 1_000), beta)


def test_import_leaves_scipy_optimize_unloaded():
    # nor any other scipy module: only the renewal names need it, on first use
    src = pathlib.Path(thermoshift.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for module in ("thermoshift", "thermoshift.cli"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; print(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0 and proc.stdout.strip() == "[]", \
            (module, proc.stdout, proc.stderr)


def test_package_renewal_names_are_the_module_objects():
    from thermoshift import pressure_at as imported
    assert imported is renewal.pressure_at
    assert thermoshift.RenewalModel is renewal.RenewalModel
    for name in ("PressureCurve", "eigenmeasure_masses", "phase_transition_report",
                 "pressure_curve", "tower_pressure_oracle", "zeta"):
        assert getattr(thermoshift, name) is getattr(renewal, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        thermoshift.no_such_name


def test_package_renewal_names_follow_a_patch_of_the_module(monkeypatch):
    def fake(model, beta):
        return 0.0, 0.0
    monkeypatch.setattr(renewal, "pressure_at", fake)
    assert thermoshift.pressure_at is fake
    # nothing was copied into the package namespace
    assert "pressure_at" not in vars(thermoshift)


def test_pressure_matches_tower_oracle():
    m = RenewalModel(3.0, 3_000)
    for beta in (0.5, 0.8, 0.95):
        root, _ = pressure_at(m, beta)
        assert abs(root - tower_pressure_oracle(m, beta)) < 1e-10


def test_tower_oracle_matches_dense_eigenvalues():
    # a route to the truncated tower's leading eigenvalue that shares
    # neither the renewal equation nor the oracle's banded solves
    for K in (1, 2, 5, 50, 200, 400):
        m = RenewalModel(3.0, K)
        for beta in (-1.0, 0.0, 0.3, 0.5, 0.8, 0.95, 1.0, 1.5, 3.0):
            w = np.exp(beta * m.a)
            A = np.diag(w[1:], 1)
            A[:, 0] += w[0]
            want = max(0.0, float(np.log(np.abs(np.linalg.eigvals(A)).max())))
            assert abs(tower_pressure_oracle(m, beta) - want) < 1e-12, (K, beta)


def test_tower_oracle_takes_a_handful_of_solves(monkeypatch):
    solves = []
    dtbsv = renewal.dtbsv

    def counting(*args, **kwargs):
        solves.append(1)
        return dtbsv(*args, **kwargs)

    monkeypatch.setattr(renewal, "dtbsv", counting)
    m = RenewalModel(3.0, 10_000)
    for beta in np.linspace(0.5, 0.99, 12):
        solves.clear()
        tower_pressure_oracle(m, float(beta))
        assert 3 <= len(solves) <= 10, (beta, len(solves))
    # past the transition on a long tower d grows like t^-K below t = 1,
    # where secant steps from one side alone would creep for 100 solves
    m = RenewalModel(4.0, 100_000)
    for beta in (1.3, 1.4):
        solves.clear()
        assert tower_pressure_oracle(m, beta) == 0.0
        assert len(solves) <= 16, (beta, len(solves))


def test_tower_oracle_solve_cap_raises(monkeypatch):
    monkeypatch.setattr(renewal, "_MAX_SOLVES", 2)
    with pytest.raises(ConvergenceError, match="beta=0.8"):
        tower_pressure_oracle(RenewalModel(3.0, 1000), 0.8)


def equilibrium_density(m):
    """Test oracle, kept off the production path: the fixed function of the
    beta = 1 operator on the truncated tower, over all K + 1 cells.

    The tail-sum ratio phi(j) = sum_{l >= j} e^{s_l} / e^{s_j} satisfies
    phi(j) = e^{a_{j+1}} phi(j+1) + e^{a_0} phi(0) up to the truncated tail
    mass, since the cell masses e^{s_l} sum to one.  Normalized against the
    closed-form eigenmeasure to a probability density.
    """
    es = np.exp(m.s)
    tail = np.cumsum(es[::-1])[::-1]
    phi = tail / es
    nu = eigenmeasure_masses(m)
    return phi / float(np.dot(phi, nu))


def equilibrium_arrays(m):
    """Test oracle, kept off the production path: the equilibrium measure
    density * eigenmeasure over all K + 1 cells, and (its mean cell energy,
    its first ten masses) as `phase_transition_report` once built them."""
    mu = equilibrium_density(m) * eigenmeasure_masses(m)
    mu = mu / mu.sum()
    return float(np.dot(m.a, mu)), mu[:10]


def tower_matvec(m, beta, phi):
    """One application of the truncated transfer operator on cell functions.

    Test oracle: the closed-form equilibrium density is checked against it.

    Preimages of a point in cell j sit in cell j+1 (one point) and in cell 0
    (the point prepending symbol 0), so
        (L phi)(j) = exp(beta a_{j+1}) phi(j+1) + exp(beta a_0) phi(0).
    The escaping j = K upward branch is dropped.
    """
    w = np.exp(beta * m.a)
    out = np.empty_like(phi)
    out[:-1] = w[1:] * phi[1:]
    out[-1] = 0.0
    out += w[0] * phi[0]
    return out


def test_equilibrium_density_is_fixed_point():
    m = RenewalModel(3.0, 4_000)
    f = equilibrium_density(m)
    defect = np.abs(tower_matvec(m, 1.0, f) - f)
    # the truncated tail shows up as a uniform defect of tail-mass size
    assert defect[:-1].max() < 2.0 * f[0] * m.tail_mass()
    nu = eigenmeasure_masses(m)
    assert abs(np.dot(f, nu) - 1.0) < 1e-12


@pytest.mark.parametrize("gamma", [3.0, 10.0, 20.0])
@pytest.mark.parametrize("K", [1, 10, renewal._HEAD - 1, renewal._HEAD,
                               renewal._HEAD + 1, 100_000])
def test_report_sums_match_the_array_oracle(K, gamma):
    # at large gamma the head masses are far below S's last digit, so they
    # must not be formed as S less the leading terms
    m = RenewalModel(gamma, K)
    rep = phase_transition_report(m)
    mean_energy, head = equilibrium_arrays(m)
    assert abs(rep["mean_energy_equilibrium"] / mean_energy - 1.0) <= 1e-10
    got = np.array(rep["equilibrium_masses_head"])
    assert got.shape == head.shape and np.abs(got / head - 1.0).max() <= 1e-10


def test_report_allocates_nothing_of_size_K():
    tracemalloc.start()
    try:
        phase_transition_report(RenewalModel(3.0, 10 ** 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_derivative_jump_at_one():
    m = RenewalModel(3.0, 100_000)
    rep = phase_transition_report(m)
    assert rep["right_derivative"] == 0.0
    assert rep["left_derivative"] < -1e-3
    assert abs(rep["jump"]) > 1e-3
    lhs = rep["left_derivative_richardson"]
    rhs = rep["mean_energy_equilibrium"]
    assert rhs < 0
    assert abs(lhs - rhs) / abs(rhs) < 0.02
    assert not rep["truncation_flag"]


@pytest.mark.parametrize("gamma, rel", [(3.0, 1e-3), (4.0, 1e-4)])
def test_richardson_slope_uses_the_stencils_step_ratio(gamma, rel):
    # widths 1e-2 and 1e-3: (10 fine - coarse) / 9; 2 fine - coarse was off
    # by 4.9e-3 and 7.9e-3 relative
    rep = phase_transition_report(RenewalModel(gamma, 100_000))
    want = rep["mean_energy_equilibrium"]
    assert abs(rep["left_derivative_richardson"] - want) <= rel * abs(want)
