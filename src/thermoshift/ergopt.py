"""Ergodic optimization: best invariant averages, subactions, ground sets.

For a cylinder potential the sup of -log H over invariant measures is the
maximum mean cycle of the word graph (nodes: words of length d-1, edges:
words of length d): Karp's recurrence gives it and a subaction, whose tight
edges (the critical graph, carrying the Mane/Aubry set) hold the optimizing
cycles.  Ground sets and the ground verdict share one exact class-minimum pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wordcodes
from .shiftspace import (
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    _check_pairing,
    _table,
    alpha_power,
    birkhoff,
)
from .transfer import (ConvergenceError, _bincount, _check_energy, _check_normalized_p,
                       _tail_classes)

_TIE_TOL = 1e-12
_EDGE = np.dtype([("src", np.intp), ("dst", np.intp), ("w", float), ("sym", np.intp)])


def _word_graph(model: ShiftModel, f: CylinderFunction):
    """Node count and edges of the depth-d tabulation of f (d >= 2): nodes
    are the depth-(d-1) words, edge i the i-th depth-d word, from its
    prefix (src) to its suffix (dst), with weight w and first symbol sym."""
    if f.model != model:
        raise ShiftSpaceError("mixed shift models")
    if np.iscomplexobj(f.values):
        raise ShiftSpaceError("the word graph needs a real energy")
    d = max(f.depth, 2)
    edges = np.empty(len(wordcodes.admissible_codes(model, d)), dtype=_EDGE)
    edges["src"], edges["dst"] = wordcodes.node_graph(model, d - 1)
    edges["w"] = _table(f, d)
    edges["sym"] = wordcodes.window_index(model, d, 0, 1)  # depth-1 positions are symbols
    return len(wordcodes.admissible_codes(model, d - 1)), edges


def _karp(n_nodes: int, edges):
    """Karp's maximum cycle mean m, and a subaction V from the same table.

    dp[k, v] is the heaviest k-edge walk ending at v (finite: the model has
    no zero column); V(v) = max_k dp[k, v] - k m has V(dst) >= V(src) + w - m
    up to rounding, as a longer walk closes a cycle of mean at most m.
    """
    n = n_nodes
    wordcodes.check_dense(2 * n + 1, n, 8, "Karp's tables")
    src, dst, w = edges["src"], edges["dst"], edges["w"]
    dp = np.full((n + 1, n), -np.inf)
    dp[0] = 0.0
    for k in range(1, n + 1):
        np.maximum.at(dp[k], dst, dp[k - 1][src] + w)
    lengths = np.arange(1, n + 1)[:, None]
    m = float(np.minimum.reduce((dp[n] - dp[:n]) / lengths[::-1]).max())
    dp[1:] -= m * lengths
    return m, np.maximum.reduce(dp[1:])


def _simple_cycles(n_nodes: int, edges):
    """All simple cycles as edge-index lists, canonical rotation.

    Exponential: over the whole graph it is the test oracle (through
    ``brute_force_max_mean``); ``m_value`` runs it on the critical graph.
    """
    out_edges = [[] for _ in range(n_nodes)]
    for i, (u, v, _, _) in enumerate(edges):
        out_edges[u].append((v, i))
    cycles = []

    def dfs(start, node, path_nodes, path_edges):
        for nxt, ei in out_edges[node]:
            if nxt == start:
                cycles.append(list(path_edges) + [ei])
            elif nxt > start and nxt not in path_nodes:
                dfs(start, nxt, path_nodes | {nxt}, path_edges + [ei])

    for s in range(n_nodes):
        dfs(s, s, {s}, [])
    return cycles


def brute_force_max_mean(model: ShiftModel, f: CylinderFunction,
                         max_len: int = 12):
    """Independent oracle: enumerate simple cycles up to max_len edges."""
    n, edges = _word_graph(model, f)
    edges = edges.tolist()  # (src, dst, w, sym) tuples
    best = -np.inf
    best_cycle = None
    for cyc in _simple_cycles(n, edges):
        if len(cyc) > max_len:
            continue
        mean = sum(edges[i][2] for i in cyc) / len(cyc)
        word = tuple(edges[i][3] for i in cyc)
        if mean > best + _TIE_TOL or (abs(mean - best) <= _TIE_TOL
                                      and (best_cycle is None or word < best_cycle)):
            best = max(best, mean)
            best_cycle = word
    return best, best_cycle


@dataclass(frozen=True)
class Optimum:
    """Best invariant average of -log H with a periodic witness."""

    m: float
    witness_cycle: tuple[int, ...]
    all_witnesses: tuple[tuple[int, ...], ...]

    @property
    def tie(self) -> bool:
        return len(self.all_witnesses) > 1


def m_value(model: ShiftModel, H: CylinderFunction) -> Optimum:
    """Maximum mean of -log H over cycles of the word graph.

    Karp's recurrence gives the value m and a subaction V.  Witnesses are the
    simple cycles whose mean ties with m (shortest, then lexicographically
    least first).  Only the critical graph, of the edges V makes tight within
    edge_tol, is searched; it holds every tied cycle.  A constant H makes
    every edge critical, so there the search stays exponential in the depth.
    """
    H = _check_energy(model, H)
    f = -H.log()
    n, edges = _word_graph(model, f)
    m, V = _karp(n, edges)
    w = edges["w"]
    # The reduced costs of a tied cycle (L <= n edges) sum to at least
    # -L * _TIE_TOL less rounding, and none exceeds the rounding of V, whose
    # terms are at most n * (|w| + |m|) in size.
    scale = n * (np.abs(w).max() + abs(m))
    edge_tol = 2 * n * (_TIE_TOL + 4 * (n + 3) * np.finfo(float).eps * scale)
    # the critical graph, as (src, dst, w, sym) tuples
    edges = edges[V[edges["src"]] + (w - m) - V[edges["dst"]] >= -edge_tol].tolist()
    witnesses = []
    for cyc in _simple_cycles(n, edges):
        mean = sum(edges[i][2] for i in cyc) / len(cyc)
        word = tuple(edges[i][3] for i in cyc)
        if abs(mean - m) <= _TIE_TOL:
            witnesses.append(word)
    witnesses.sort(key=lambda w: (len(w), w))
    if not witnesses:
        raise ConvergenceError("no cycle attains the Karp value", residual=None)
    return Optimum(m, witnesses[0], tuple(witnesses))


def subaction(model: ShiftModel, H: CylinderFunction,
              m: float | None = None) -> CylinderFunction:
    """Max-plus value iteration for V with V(Tx) - V(x) >= -log H(x) - m.

    V(x) is the best total of -log H - m over backward orbits ending at x
    (at least one step); it is attained at finite length because no cycle
    has positive mean once m is subtracted.
    """
    H = _check_energy(model, H)
    if m is None:
        m = m_value(model, H).m
    fbar = -H.log() - m
    n, edges = _word_graph(model, fbar)
    src, dst, w = edges["src"], edges["dst"], edges["w"]
    # one-step seed, then keep extending backward while anything improves
    neg_inf = -np.inf
    v1 = np.full(n, neg_inf)
    np.maximum.at(v1, dst, w)
    V = v1.copy()
    stable = 0
    for _ in range(10_000):
        new = v1.copy()
        np.maximum.at(new, dst, V[src] + w)
        new = np.maximum(new, V)
        change = float(np.max(np.abs(new - V)))
        V = new
        stable = stable + 1 if change < 1e-12 else 0
        if stable >= 3:
            break
    else:
        raise ConvergenceError(
            "subaction iteration did not settle; a cycle with positive mean "
            "remains (m too small?)", residual=change)
    return CylinderFunction._owned(model, max(H.depth, 2) - 1, V)


def cohomologous_tilt(model: ShiftModel, H: CylinderFunction,
                      V: CylinderFunction) -> CylinderFunction:
    """The tilted energy H * exp(-V + V o T).

    Shares all invariant averages with H; after the tilt -log of it never
    exceeds the optimal mean, with equality on the witness cycle.
    """
    return H * (-V + alpha_power(V, 1)).exp()


@dataclass(frozen=True)
class GroundSet:
    """Cylinder-level conditional minima of the n-fold product of H."""

    n: int
    word_length: int
    members: frozenset


def _class_minima(vals: np.ndarray, key: np.ndarray):
    """Each word's minimum of vals over its key class, and whether it lies above it."""
    lo = np.full(key.max() + 1, np.inf)
    np.minimum.at(lo, key, vals)
    lo = lo[key]
    return lo, vals > lo + _TIE_TOL * np.maximum(1.0, np.abs(lo))


def conditional_minima(model: ShiftModel, H: CylinderFunction, n: int) -> GroundSet:
    """Words minimizing H^{[n]} within their class.

    Classes fix the trailing H.depth - 1 symbols plus one admissible
    lookahead symbol (so only prefixes with a common continuation compete);
    ties are all kept.
    """
    if n < 1:
        raise ShiftSpaceError("n must be >= 1")
    H = _check_energy(model, H)
    length = n + max(H.depth, 1) - 1
    # a word w with an admissible continuation a is the depth-(length + 1)
    # word w.a, in the class of its tail after n symbols
    word = wordcodes.window_index(model, length + 1, 0, length)
    key = wordcodes.window_index(model, length + 1, n, length + 1 - n)
    vals = _table(birkhoff(H, n), length)[word]
    tied = np.unique(word[~_class_minima(vals, key)[1]])
    words = wordcodes.digits(wordcodes.admissible_codes(model, length)[tied], length,
                             model.alphabet_size)
    return GroundSet(n, length, frozenset(map(tuple, words.tolist())))


def ground_support_test(model: ShiftModel, p: CylinderFunction,
                        H: CylinderFunction, mu: CylinderMeasure, n: int) -> dict:
    """Decide exactly whether I(beta) = int h^beta E_n(h^{-beta}) d mu is bounded.

    With h = H^{[n]} and r = h / (its minimum over x's tail class) >= 1,
    I(beta) sums mu(x) r(x)^beta p^{[n]}(z) r(z)^{-beta} over x and the z of
    x's class: `slope`, the limit of log I / beta, is the largest log r on
    words mu charges above 1e-12, 0.0 (BOUNDED) if all are class minima;
    else the first word off them, cut to the conditional minima's length,
    is the witness.  I sums over charged words only; if not finite, it is a
    ConvergenceError (h not finite, or an unbounded I past the doubles)."""
    H = _check_energy(model, H)
    h = birkhoff(H, n)
    if n > 0:
        _check_normalized_p(model, p)
    d, tail, pn = _tail_classes(model, p, n, h.depth)
    _check_pairing(mu, model, d)
    h = _table(h, d)
    lo, above = _class_minima(h, tail)
    r = h / lo
    masses = mu.coarsen(d).masses
    on = np.flatnonzero(masses > 0)
    mass, r_on, tail_on = masses[on], r[on], tail[on]
    beta_grid, n_classes = np.arange(0.0, 55.0, 5.0), tail.max() + 1
    vals = np.empty(len(beta_grid))
    for i, b in enumerate(beta_grid):
        sums = _bincount(tail, pn * r ** -b, n_classes)
        vals[i] = np.real(mass @ (r_on ** b * sums[tail_on]))
    bad = beta_grid[~(np.isfinite(vals) & (vals > 0))]
    if bad.size:
        raise ConvergenceError(f"I(beta) is not a positive double at beta = "
                               f"{bad[0]:g}: h^beta leaves the range of doubles")
    off = np.flatnonzero(above & (masses > 1e-12))
    k, length = model.alphabet_size, n + max(H.depth, 1) - 1
    first = wordcodes.admissible_codes(model, d)[off[:1]] // k ** (d - length)
    return {
        "beta_grid": beta_grid.tolist(),
        "I": vals.tolist(),
        "sup_I": float(vals.max()),
        "slope": float(np.log(r[off]).max()) if off.size else 0.0,
        "classification": "UNBOUNDED" if off.size else "BOUNDED",
        "witness": tuple(wordcodes.digits(first, length, k)[0].tolist()) if off.size else None,
    }
