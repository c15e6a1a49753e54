"""Optimal invariant averages, subactions, tilts, and ground-set probes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (
    ConvergenceError,
    CylinderFunction,
    CylinderMeasure,
    GaugeSpec,
    ShiftModel,
    ShiftSpaceError,
    admissible_words,
    birkhoff,
    brute_force_max_mean,
    cohomologous_tilt,
    conditional_minima,
    full_shift,
    golden_mean_shift,
    ground_support_test,
    integrate,
    kms_iterate,
    m_value,
    point_mass,
    random_start,
    subaction,
)
from thermoshift.config import default_p
from thermoshift.ergopt import _simple_cycles, _word_graph
from thermoshift.transfer import cond_expectation

FULL2 = full_shift(2)
GOLDEN = golden_mean_shift()
SFT3 = ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1)))
FULL3 = full_shift(3)


def rand_H(model, depth, rng):
    n = len(admissible_words(model, depth))
    return CylinderFunction(model, depth, np.exp(rng.uniform(-2, 2, n)))


def worked_H():
    # -log H = (0, 2, -1, 3) on (00, 01, 10, 11): optimum 0 on the fixed
    # point at symbol 0, subaction (1, -1)
    return CylinderFunction.from_dict(FULL2, 2, {
        (0, 0): 1.0, (0, 1): math.exp(2.0),
        (1, 0): math.exp(-1.0), (1, 1): math.exp(3.0)})


def test_m_value_rejects_nonpositive():
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 1.0, (1,): 0.0})
    with pytest.raises(ShiftSpaceError):
        m_value(FULL2, H)
    with pytest.raises(ShiftSpaceError):
        m_value(FULL2, CylinderFunction(FULL2, 1, np.array([1.0, 2.0 + 1.0j])))


def test_energy_must_be_real_positive_and_on_the_model():
    # all were accepted: conditional_minima read the real part of a complex
    # H and returned "minima" of a negative or zero one, ground_support_test
    # called the complex H UNBOUNDED, and subaction ran its value iteration
    # on H = (-2, -3) into a ConvergenceError
    p, mu = CylinderFunction.constant(FULL2, 0.5), point_mass(FULL2, (1,), 2)
    calls = (lambda H: m_value(FULL2, H),
             lambda H: subaction(FULL2, H, m=0.0),
             lambda H: conditional_minima(FULL2, H, 2),
             lambda H: ground_support_test(FULL2, p, H, mu, 1))
    for values, message in (((2.0, 3.0 + 7.0j), "H must be real; it has imaginary parts"),
                            ((-2.0, -3.0), "H must be strictly positive"),
                            ((0.0, 3.0), "H must be strictly positive")):
        for call in calls:
            with pytest.raises(ShiftSpaceError, match=message):
                call(CylinderFunction(FULL2, 1, np.array(values)))
    for call in calls:
        with pytest.raises(ShiftSpaceError, match="mixed shift models"):
            call(CylinderFunction.constant(GOLDEN, 2.0))


def test_a_complex_typed_real_energy_is_the_real_one():
    # H = (2+0j, 3+0j): m_value and subaction refused it ("the word graph
    # needs a real energy"), conditional_minima and ground_support_test cast
    # it with a ComplexWarning, and GaugeSpec kept it complex
    p, mu = CylinderFunction.constant(FULL2, 0.5), point_mass(FULL2, (1,), 2)
    real = CylinderFunction(FULL2, 1, np.array([2.0, 3.0]))
    typed = CylinderFunction(FULL2, 1, np.array([2.0 + 0j, 3.0 + 0j]))
    calls = (lambda H: m_value(FULL2, H),
             lambda H: subaction(FULL2, H).values,
             lambda H: conditional_minima(FULL2, H, 2),
             lambda H: ground_support_test(FULL2, p, H, mu, 1),
             lambda H: kms_iterate(GaugeSpec(FULL2, H, p, 1.0), random_start(
                 GaugeSpec(FULL2, real, p, 1.0), 2, np.random.default_rng(0)), 10).state)
    for call in calls:
        got, want = call(typed), call(real)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
    spec = GaugeSpec(FULL2, typed, p, 1.0)
    assert spec.H == real and not np.iscomplexobj(spec.weight.values)


def test_worked_example():
    opt = m_value(FULL2, worked_H())
    assert abs(opt.m) < 1e-14
    assert opt.witness_cycle == (0,)
    assert not opt.tie
    V = subaction(FULL2, worked_H())
    assert np.allclose(V.values, [1.0, -1.0], atol=1e-12)
    tilt = cohomologous_tilt(FULL2, worked_H(), V)
    g = -tilt.log()
    eq = {w for w, v in zip(admissible_words(FULL2, g.depth), g.values)
          if abs(v - opt.m) < 1e-10}
    assert eq == {(0, 0), (0, 1)}


def test_fixed_point_values_golden():
    # only admissible cycles count: constant-1 word is forbidden
    H = CylinderFunction.from_dict(GOLDEN, 1, {(0,): 2.0, (1,): 0.25})
    opt = m_value(GOLDEN, H)
    # best cycle is the 01-loop: mean of -(log 2 + log 1/4)/2 = (log 2)/2
    assert abs(opt.m - 0.5 * math.log(2.0)) < 1e-12
    assert set(opt.witness_cycle) == {0, 1}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_karp_matches_cycle_enumeration(seed):
    rng = np.random.default_rng(seed)
    for model in (FULL2, GOLDEN):
        H = rand_H(model, 2, rng)
        opt = m_value(model, H)
        best, cycle = brute_force_max_mean(model, -H.log())
        assert abs(opt.m - best) < 1e-12
        assert cycle in opt.all_witnesses


def assert_tight_subaction(model, H):
    """Criterion 7: the tilted energy never beats m and is tight on the
    witness cycle."""
    opt = m_value(model, H)
    V = subaction(model, H, m=opt.m)
    g = -cohomologous_tilt(model, H, V).log()
    slack = opt.m - np.real(g.values)
    assert slack.min() > -1e-10
    # equality along the witness cycle edges
    words = admissible_words(model, g.depth)
    cyc = opt.witness_cycle
    for i in range(len(cyc)):
        w = tuple((cyc * (g.depth + 1))[i:i + g.depth])
        assert abs(slack[words.index(w)]) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_subaction_slack_nonnegative(seed):
    rng = np.random.default_rng(seed)
    for model in (FULL2, GOLDEN):
        assert_tight_subaction(model, rand_H(model, 2, rng))


@pytest.mark.parametrize("model, depth", [(FULL2, 10), (full_shift(3), 5)])
def test_subaction_tight_on_deep_graphs(model, depth):
    # 512 and 81 nodes: far past what enumerating every cycle can reach
    assert_tight_subaction(model, rand_H(model, depth, np.random.default_rng(depth)))


def enumerated_optimum(model, H):
    """m, witnesses and subaction by per-edge Karp and value-iteration loops
    and by enumerating every simple cycle of the whole word graph."""
    n, edges = _word_graph(model, -H.log())
    edges = edges.tolist()  # (src, dst, w, first symbol)
    dp = np.full((n + 1, n), -np.inf)
    dp[0] = 0.0
    for k in range(1, n + 1):
        for u, v, w, _ in edges:
            dp[k, v] = max(dp[k, v], dp[k - 1, u] + w)
    m = float(max(min((dp[n, v] - dp[k, v]) / (n - k) for k in range(n))
                  for v in range(n)))
    witnesses = []
    for cyc in _simple_cycles(n, edges):
        if abs(sum(edges[i][2] for i in cyc) / len(cyc) - m) <= 1e-12:
            witnesses.append(tuple(edges[i][3] for i in cyc))
    witnesses.sort(key=lambda w: (len(w), w))
    v1 = np.full(n, -np.inf)
    for _, v, w, _ in edges:
        v1[v] = max(v1[v], w - m)
    V, stable = v1, 0
    while stable < 3:
        new = v1.copy()
        for u, v, w, _ in edges:
            new[v] = max(new[v], V[u] + (w - m))
        new = np.maximum(new, V)
        stable = stable + 1 if np.max(np.abs(new - V)) < 1e-12 else 0
        V = new
    return m, tuple(witnesses), V


def swapped(word):
    return tuple(1 - a if a < 2 else a for a in word)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([FULL2, GOLDEN, SFT3]), st.integers(1, 4),
       st.sampled_from(["random", "constant", "symmetric", "rounded"]),
       st.integers(0, 2 ** 31 - 1))
def test_critical_graph_search_matches_full_enumeration(model, depth, kind, seed):
    rng = np.random.default_rng(seed)
    words = admissible_words(model, depth)
    energy = {w: e for w, e in zip(words, rng.uniform(-2, 2, len(words)))}
    if kind == "constant":
        energy = dict.fromkeys(words, energy[words[0]])
    elif kind == "symmetric":  # under 0 <-> 1, where the swapped word exists
        energy = {w: e + energy.get(swapped(w), e) for w, e in energy.items()}
    elif kind == "rounded":
        energy = {w: float(np.round(e)) for w, e in energy.items()}
    H = CylinderFunction.from_dict(model, depth, {w: math.exp(-e) for w, e in energy.items()})
    m, witnesses, V = enumerated_optimum(model, H)
    opt = m_value(model, H)
    assert np.float64(opt.m).tobytes() == np.float64(m).tobytes()
    assert opt.all_witnesses == witnesses
    assert opt.witness_cycle == witnesses[0]
    assert subaction(model, H, m=opt.m).values.tobytes() == V.tobytes()


def test_tilt_minimum_is_exp_minus_m():
    rng = np.random.default_rng(7)
    H = rand_H(FULL2, 2, rng)
    opt = m_value(FULL2, H)
    tilt = cohomologous_tilt(FULL2, H, subaction(FULL2, H, m=opt.m))
    assert abs(np.real(tilt.values).min() - math.exp(-opt.m)) < 1e-10


def test_conditional_minima_validation_and_shape():
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})
    with pytest.raises(ShiftSpaceError):
        conditional_minima(FULL2, H, 0)
    gs = conditional_minima(FULL2, H, 2)
    assert gs.n == 2 and gs.word_length == 2
    assert gs.members == frozenset({(0, 0)})


def test_conditional_minima_nested():
    # members at n+1 refine members at n: prefixes stay minimal
    for model, H in (
        (FULL2, CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})),
        (GOLDEN, CylinderFunction.from_dict(
            GOLDEN, 2, {(0, 0): 2.0, (0, 1): 1.0, (1, 0): 1.5})),
    ):
        prev = None
        for n in range(1, 6):
            gs = conditional_minima(model, H, n)
            if prev is not None:
                for w in gs.members:
                    assert w[:prev.word_length] in prev.members
            prev = gs


def oracle_conditional_minima(model, H, n):
    """Oracle: group the words by (tail after n symbols, continuation symbol)
    in a dict and keep each group's ties with its minimum."""
    length = n + max(H.depth, 1) - 1
    hn = birkhoff(H, n).refine(length)
    t = model.matrix
    classes = {}
    for w, val in zip(admissible_words(model, length), hn.values):
        for a in range(model.alphabet_size):
            if t[w[-1], a]:
                classes.setdefault((w[n:], a), []).append((w, float(val)))
    members = set()
    for group in classes.values():
        lo = min(v for _, v in group)
        members.update(w for w, v in group if v <= lo + 1e-12 * max(1.0, abs(lo)))
    return length, frozenset(members)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([FULL2, GOLDEN, SFT3]), st.integers(1, 5), st.integers(0, 3),
       st.sampled_from(["random", "constant", "rounded"]), st.integers(0, 2 ** 31 - 1))
def test_conditional_minima_match_class_loop(model, n, depth, kind, seed):
    energy = np.random.default_rng(seed).uniform(-2, 2, len(admissible_words(model, depth)))
    if kind == "constant":
        energy[:] = energy[0]
    elif kind == "rounded":  # integer energies: ties across words
        energy = np.round(energy)
    H = CylinderFunction(model, depth, np.exp(-energy))
    gs = conditional_minima(model, H, n)
    assert (gs.word_length, gs.members) == oracle_conditional_minima(model, H, n)


def ground_H():
    return CylinderFunction.from_dict(FULL2, 1, {(0,): 2.0, (1,): 3.0})


def test_ground_support_bounded_on_minimizing_orbit():
    mu = point_mass(FULL2, (0,), 6)
    rep = ground_support_test(FULL2, CylinderFunction.constant(FULL2, 0.5),
                              ground_H(), mu, 3)
    assert rep["classification"] == "BOUNDED"
    assert rep["sup_I"] <= 1.0 + 1e-9
    assert rep["witness"] is None


def test_ground_support_unbounded_off_minimum():
    # mass on the cylinder 1 0 0 ... whose head is not a conditional minimum
    d = 6
    mu = CylinderMeasure.from_dict(FULL2, d, {(1,) + (0,) * (d - 1): 1.0})
    rep = ground_support_test(FULL2, CylinderFunction.constant(FULL2, 0.5),
                              ground_H(), mu, 3)
    assert rep["classification"] == "UNBOUNDED"
    assert abs(rep["slope"] - math.log(1.5)) / math.log(1.5) < 0.05
    assert rep["witness"] is not None
    assert rep["witness"][0] == 1


def test_ground_witness_is_first_massive_non_minimum():
    # mass on two cylinders whose heads are not conditional minima: the
    # witness is the lexicographically first of them
    d, n = 6, 3
    mu = CylinderMeasure.from_dict(FULL2, d, {(1, 1) + (0,) * (d - 2): 0.5,
                                              (1,) + (0,) * (d - 1): 0.5})
    rep = ground_support_test(FULL2, CylinderFunction.constant(FULL2, 0.5),
                              ground_H(), mu, n)
    members = conditional_minima(FULL2, ground_H(), n).members
    first = next(w for w in admissible_words(FULL2, n)
                 if w not in members and mu.mass_of(w) > 1e-12)
    assert rep["witness"] == first == (1, 0, 0)


def test_ground_support_rejects_nonpositive():
    # the class ratios r = h / min h need h > 0: with H = (-2, -3) they fall
    # below 1, where neither verdict means anything
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): -2.0, (1,): -3.0})
    for w in ((0,), (1,)):
        with pytest.raises(ShiftSpaceError, match="strictly positive"):
            ground_support_test(FULL2, CylinderFunction.constant(FULL2, 0.5),
                                H, point_mass(FULL2, w, 2), 1)


def oracle_ground_support_test(model, p, H, mu, n):
    """Test oracle for ground_support_test.  I: one E_n per beta, through
    CylinderFunction arithmetic and `integrate`.  The verdict: by tuples,
    each depth-d word's tail class after n symbols, the class minimum of h
    by direct comparison, and the words mu charges above 1e-12."""
    beta_grid = np.arange(0.0, 55.0, 5.0)
    h = birkhoff(H, n)
    vals = []
    for beta in beta_grid:
        eb = (h ** beta) * cond_expectation(model, p, n, h ** (-beta))
        vals.append(float(np.real(integrate(mu, eb))))
    vals = np.array(vals)
    bad = beta_grid[~(np.isfinite(vals) & (vals > 0))]
    if bad.size:
        raise ConvergenceError(f"I(beta) is not a positive double at beta = "
                               f"{bad[0]:g}: h^beta leaves the range of doubles")
    d = max(h.depth, n + p.depth - 1, n + 1)
    words = admissible_words(model, d)
    hv = dict(zip(words, h.refine(d).values.tolist()))
    classes = {}
    for w in words:
        classes.setdefault(w[n:], []).append(hv[w])
    slope, witness = 0.0, None
    for w in words:
        lo = min(classes[w[n:]])
        if hv[w] > lo + 1e-12 * max(1.0, abs(lo)) and mu.mass_of(w) > 1e-12:
            slope = max(slope, math.log(hv[w] / lo))
            witness = witness or w[:n + max(H.depth, 1) - 1]
    return {"I": vals.tolist(), "slope": slope, "witness": witness,
            "classification": "BOUNDED" if witness is None else "UNBOUNDED"}


# periodic words with an admissible orbit, for point masses
PERIODS = {FULL2: [(0,), (1,), (0, 1)], FULL3: [(2,), (0, 1, 2), (1, 1, 0)],
           GOLDEN: [(0,), (0, 1), (0, 0, 1)], SFT3: [(0,), (1, 2), (0, 1, 2, 1)]}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([FULL2, FULL3, GOLDEN, SFT3]), st.integers(1, 3),
       st.integers(1, 3), st.sampled_from(["random", "point", "witness"]),
       st.integers(0, 2 ** 31 - 1))
def test_ground_support_matches_per_beta_oracle(model, n, depth, kind, seed):
    rng = np.random.default_rng(seed)
    H = CylinderFunction(model, depth,
                         np.exp(rng.uniform(-1, 1, len(admissible_words(model, depth)))))
    p = default_p(model)
    mu_depth = depth + n + int(rng.integers(0, 2))
    if kind == "random":
        masses = rng.random(len(admissible_words(model, mu_depth))) + 0.05
        mu = CylinderMeasure(model, mu_depth, masses / masses.sum())
    else:
        periods = PERIODS[model]
        word = (m_value(model, H).witness_cycle if kind == "witness"
                else periods[int(rng.integers(len(periods)))])
        mu = point_mass(model, word, mu_depth)
    rep = ground_support_test(model, p, H, mu, n)
    want = oracle_ground_support_test(model, p, H, mu, n)
    np.testing.assert_allclose(rep["I"], want["I"], rtol=1e-12, atol=0)
    assert rep["sup_I"] == max(rep["I"])
    assert abs(rep["slope"] - want["slope"]) <= 1e-12 * max(1.0, abs(want["slope"]))
    assert rep["classification"] == want["classification"]
    assert rep["witness"] == want["witness"]


@pytest.mark.parametrize("g", [1e-3, 1e-5, 1e-7, 1e-9])
def test_ground_support_sees_a_tiny_gap(g):
    # mu uniform at depth 2 charges (1,), which is not the conditional minimum
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 1.0, (1,): 1.0 + g})
    mu = CylinderMeasure(FULL2, 2, np.full(4, 0.25))
    rep = ground_support_test(FULL2, default_p(FULL2), H, mu, 1)
    assert rep["classification"] == "UNBOUNDED" and rep["witness"] == (1,)
    assert abs(rep["slope"] - math.log1p(g)) <= 1e-15


def test_ground_witness_reads_the_charged_continuation():
    # 0 is the least H after 0 but not after 1; mu charges 0 0
    H = CylinderFunction.from_dict(GOLDEN, 1, {(0,): 2.0, (1,): 1.0})
    rep = ground_support_test(GOLDEN, default_p(GOLDEN), H, point_mass(GOLDEN, (0,), 3), 1)
    assert rep["classification"] == "UNBOUNDED" and rep["witness"] == (0,)
    assert abs(rep["slope"] - math.log(2.0)) <= 1e-15


def test_ground_support_bounded_where_h_beta_overflows():
    H = CylinderFunction.from_dict(FULL2, 1, {(0,): 1e10, (1,): 3.0})
    rep = ground_support_test(FULL2, default_p(FULL2), H, point_mass(FULL2, (1,), 3), 2)
    assert rep["classification"] == "BOUNDED" and rep["slope"] == 0.0
    assert rep["sup_I"] == 1.0 and rep["witness"] is None


def _raised(fn):
    # h^beta past the doubles warns on the way to the ConvergenceError
    with pytest.raises((ShiftSpaceError, ConvergenceError)) as info, \
            np.errstate(all="ignore"):
        fn()
    return info.type, str(info.value)


def test_ground_support_errors_match_the_oracle():
    H = CylinderFunction(GOLDEN, 2, np.array([1.5, 3.0, 2.0]))
    p = default_p(GOLDEN)
    shallow = point_mass(GOLDEN, (0,), 3)  # E_3 of h closes at depth 4
    other = point_mass(FULL2, (0,), 6)
    steep = CylinderFunction(GOLDEN, 2, np.array([1.0, 1e8, 1e-8]))
    deep = point_mass(GOLDEN, (0, 1), 6)
    for args in ((GOLDEN, p, H, shallow, 3), (GOLDEN, p, H, other, 3),
                 (FULL2, default_p(FULL2), H, other, 3),
                 (GOLDEN, p, steep, deep, 3)):
        got = _raised(lambda: ground_support_test(*args))
        assert got == _raised(lambda: oracle_ground_support_test(*args))
    assert "exceeds measure depth" in _raised(
        lambda: ground_support_test(GOLDEN, p, H, shallow, 3))[1]
    assert _raised(lambda: ground_support_test(GOLDEN, p, steep, deep, 3))[0] \
        is ConvergenceError
