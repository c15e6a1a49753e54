"""Equilibrium states at inverse temperature beta.

The characterization used throughout: a probability phi on the shift space
is an equilibrium functional iff phi(F_n f) = phi(f) for every n, where

    F_n(f) = Lam^{-[n]} E_n(Lam^{[n]} f),      Lam = H^{-beta} p^{-1}.

The fixed-point iteration below produces such a phi from any start; the
Gibbs construction (dual RPF eigenvector of the weight H^{-beta}) gives the
same state, and kms_check measures the defect of any candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import wordcodes
from .shiftspace import (
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    _check_pairing,
    _table,
    birkhoff,
)
from .transfer import (
    BLOCK_LOG_RANGE, BLOCK_WORDS, MAX_BLOCK,
    ConvergenceError,
    TransferOperator,
    _check_energy, _check_normalized_p,
    _cond_expectation,
    _preimage_sum,
    _tail_classes,
    apply,
    boltzmann_weight,
    rpf_solve,
)


@dataclass(frozen=True)
class GaugeSpec:
    """Strictly positive energy H, normalized p and finite beta >= 0, with H^-beta,
    p H^beta and the spectral gap computed once each: reuse one spec across starts."""

    model: ShiftModel
    H: CylinderFunction
    p: CylinderFunction
    beta: float
    weight = cached_property(lambda self: boltzmann_weight(self.H, self.beta))
    lam_inv = cached_property(lambda self: self.p * self.H ** self.beta)

    def __post_init__(self):
        object.__setattr__(self, "H", _check_energy(self.model, self.H))
        if self.p.model != self.model:
            raise ShiftSpaceError("mixed shift models")
        if np.iscomplexobj(self.p.values) and (self.p.values.imag != 0).any():
            raise ShiftSpaceError("p must be real; it has imaginary parts")
        if not 0 <= self.beta < math.inf:
            raise ShiftSpaceError(f"beta must be {'>= 0' if self.beta < 0 else 'finite'}")
        _check_normalized_p(self.model, self.p)

    def working_depth(self, n_max: int) -> int:
        """Depth at which F_1..F_{n_max} applied to depth-1 functions close."""
        return max(self.H.depth, self.p.depth, 1) + n_max + 1

    @cached_property
    def gap_ratio(self) -> float:
        """|lambda_2 / lambda_1| of the H^{-beta} transfer operator on depth-s
        tables: the node matrix, dense, at most k^s rows."""
        top = np.sort(np.abs(np.linalg.eigvals(_node_matrix(self, self.weight))))
        return float(top[-2] / top[-1])

    @cached_property
    def node_powers(self):
        """(b, src, dst, weights, trans) for `_forward_duals`' blocks: M^1..M^b,
        max-normalized, of the node matrices of p H^beta and H^-beta (weights'
        columns; M^j's entry (u, v) sums node u into row (j-1) n + v) and of the
        transition matrix.  b <= MAX_BLOCK dense powers fit in BLOCK_WORDS, b
        steps of both in e^BLOCK_LOG_RANGE; b = 1: the node graph's edges."""
        model, s, k = self.model, _margin(self), self.model.alphabet_size
        n = len(wordcodes.admissible_codes(model, s))
        edge_w = np.column_stack([np.real(_table(f, s + 1)) for f in (self.lam_inv, self.weight)])
        b, trans = max(1, min(MAX_BLOCK, BLOCK_WORDS // n ** 2)), model.matrix.astype(float)
        while b > 1 and b * np.abs(np.log(edge_w)).max(axis=0).sum() > BLOCK_LOG_RANGE:
            b -= 1
        if b == 1:
            return 1, *wordcodes.node_graph(model, s), edge_w, trans[None]
        m = np.zeros((3, n, n))  # trans in a corner: each symbol starts a node
        m[:2] = [_node_matrix(self, f) for f in (self.lam_inv, self.weight)]
        m[2, :k, :k] = trans
        p = m[None] / m.max(axis=(1, 2), keepdims=True)
        while len(p) < b:  # doubling: m^(i+j) from m^i m^j, with no BLAS kernel to page in
            q = np.einsum("...ab,...bc->...ac", p, p[-1])
            p = np.concatenate((p, q / q.max(axis=(2, 3), keepdims=True)))
        i = np.arange(b * n * n)  # level i // n^2, from node i // n % n into i % n
        return (b, i // n % n, i // (n * n) * n + i % n,
                p[:b, :2].transpose(0, 2, 3, 1).reshape(-1, 2), p[:b, 2, :k, :k])


def lambda_cocycle(spec: GaugeSpec, n: int) -> CylinderFunction:
    """Ordered product of the first n shifts of H^{-beta} p^{-1}."""
    if n < 0:
        raise ShiftSpaceError("n must be >= 0")
    return birkhoff(spec.weight * (1.0 / spec.p), n)


def F_op(spec: GaugeSpec, n: int, f: CylinderFunction) -> CylinderFunction:
    """F_n(f) = Lam^{-[n]} E_n(Lam^{[n]} f); F_0 is the identity."""
    if n == 0:
        return f
    lam = lambda_cocycle(spec, n)
    return (1.0 / lam) * _cond_expectation(spec.model, spec.p, n, lam * f)


@dataclass(frozen=True)
class KmsResult:
    state: CylinderMeasure
    iterations: int
    history: tuple[float, ...] = field(repr=False, default=())


# Largest step budget projection_steps hands out: at a gap ratio of
# 1 - 5e-3 the changes need about 5500 steps to reach 1e-12.
MAX_STEPS = 10_000


def _margin(spec: GaugeSpec) -> int:
    """Node length s: every window of H and p lies inside one length-(s+1)
    word, so their ordered products are products over the edges of the
    length-s node graph."""
    return max(1, spec.H.depth - 1, spec.p.depth - 1)


def _node_matrix(spec: GaugeSpec, f: CylinderFunction) -> np.ndarray:
    """f on the edges of the length-s node graph, dense: row src, column dst."""
    s = _margin(spec)
    src, dst = wordcodes.node_graph(spec.model, s)
    n = len(wordcodes.admissible_codes(spec.model, s))
    wordcodes.check_dense(n, n, 8, "the spectral gap's node matrix")
    return np.bincount(src * n + dst, np.real(_table(f, s + 1)), n * n).reshape(n, n)


def _forward_duals(spec: GaugeSpec, phi0: CylinderMeasure, report_depth: int, tol: float):
    """Reported masses of F_n* phi0, for n = 0, 1, 2, ..., in blocks of rows.

    Writing out phi0(F_n 1_w) = phi0(Lam^{-[n]} alpha^n(L_{H,beta}^n 1_w))
    gives (F_n* phi0)(w) propto (H^{-beta})^{[n]}(w) rho(w's tail after n),
    rho(y) the sum over the words z of tail y of mass(z) Lam^{-[n]}(z), with
    the start spread uniformly within its cylinders at the step's depth: a
    word extending a start cylinder that ends in symbol a gets the share
    1 / c(a) of its mass, c the extension counts of the transition matrix M.
    So rho = A (1 / c), A(y, a) the start mass times the Lam^{-1} = p H^beta
    product over the words of tail y from start cylinders that end in a.

    A starts on the depth-D words, D = max(report depth, start depth, s + 1),
    and each step sums it over preimages with weight Lam^{-1}
    (`transfer._preimage_sum`): on the tails, one symbol shorter each step,
    down to the length-s words at n0 = D - s (A and the H^{-beta} products
    rescaled by powers of two every b steps): the first block.  Past n0 a
    word of depth n + s is a path of n edges on the graph of length-s words
    (nodes) and length-(s+1) words (edges).  A advances along it, and so
    does B(v, u), the H^{-beta} product over the paths from report word u,
    read off the depth-D words at n0; F_n* phi0 on the report words is
    B^T rho.  A block advances both, and c, by up to b steps in one stacked
    bincount over `GaugeSpec.node_powers`: the steps the caller still needs,
    or those the gap's rate needs to shrink its last change to `tol`.  Its
    states can differ from b single steps' in the last bits.  Memory is
    fixed by D and s, whatever n.
    """
    model = spec.model
    k = model.alphabet_size
    s = _margin(spec)
    d0 = phi0.depth
    w0, lam0_inv = spec.weight, spec.lam_inv
    depth = max(report_depth, d0, s + 1)
    extensions = wordcodes.extension_starts(model, report_depth, depth)[:-1]

    # A's column is a start cylinder's last symbol, c its extension count to
    # depth D.  A depth-0 start has one cylinder, in column 0; the columns
    # never mix, so any share of it normalizes to the same state.
    cyl = wordcodes.window_index(model, depth, 0, d0)
    last = wordcodes.admissible_codes(model, d0)[cyl] % k
    A = np.zeros((len(cyl), k))
    A[np.arange(len(cyl)), last] = phi0.masses[cyl]
    trans, c = model.matrix.astype(float), np.ones(k)
    for _ in range(depth - max(d0, 1)):
        c = trans @ c
    b, src, dst, weights, trans_powers = spec.node_powers
    share, cum_w = 1.0 / c, 1.0
    states = [np.add.reduceat(A @ share, extensions)]
    for n in range(1, depth - s + 1):
        A = _preimage_sum(model, depth - n + 1,
                          np.real(_table(lam0_inv, depth - n + 1))[:, None] * A)
        cum_w = cum_w * np.real(
            w0.values[wordcodes.window_index(model, depth, n - 1, w0.depth)])
        if n % b == 0:  # each by a power of two: exact
            A *= 2.0 ** -math.frexp(A.max())[1]
            cum_w *= 2.0 ** -math.frexp(cum_w.max())[1]
        tail = wordcodes.window_index(model, depth, n, depth - n)
        states.append(np.add.reduceat(cum_w * (A @ share)[tail], extensions))
    states = np.array(states)
    steps, change = yield states / states.sum(axis=1, keepdims=True)

    # the two path sums at n0, as the columns of one array: A, then B, each
    # column with its own edge weight
    n_nodes, n_reported, cols = len(A), len(extensions), k + len(extensions)
    report = wordcodes.window_index(model, depth, 0, report_depth)
    B = np.bincount(tail * n_reported + report, cum_w, n_nodes * n_reported)
    paths = np.concatenate((A, B.reshape(n_nodes, n_reported)), axis=1)
    wordcodes.check_dense(len(src), cols, 8, "kms_iterate's path sums")
    weights = np.repeat(weights, (k, n_reported), axis=1)
    into = dst[:, None] * cols + np.arange(cols)
    while True:
        r = spec.gap_ratio if b > 1 and change > tol else 0.0
        gap_steps = math.ceil(math.log(tol / change) / math.log(r)) + 1 if 0 < r < 1 else 0
        m = min(max(steps, gap_steps, 1), b)
        e = m * len(src) // b
        levels = np.bincount(into[:e].ravel(), (paths[src[:e]] * weights[:e]).ravel(),
                             m * n_nodes * cols).reshape(m, n_nodes, cols)
        A, B = levels[:, :, :k], levels[:, :, k:]
        A /= A.max(axis=(1, 2), keepdims=True)
        B /= B.max(axis=(1, 2), keepdims=True)
        cs = trans_powers[:m] @ c
        cs /= cs.max(axis=1, keepdims=True)
        state = (B.transpose(0, 2, 1) @ (A @ (1.0 / cs)[:, :, None]))[:, :, 0]
        paths, c = levels[-1], cs[-1]
        steps, change = yield state / state.sum(axis=1, keepdims=True)


def kms_iterate(spec: GaugeSpec, phi0: CylinderMeasure, N: int,
                tol: float = 1e-12,
                report_depth: int | None = None) -> KmsResult:
    """Push phi through the normalized duals of F_1..F_N until it stops moving.

    The duals telescope (F_n* after F_j* is F_n* for j <= n), so step n is
    F_n* of the start itself, which `_forward_duals` computes in memory
    that does not grow with n, in blocks of steps whose changes are read in
    one pass.  The changes decay at the spectral-gap rate of the normalized
    H^{-beta} transfer operator.  The state is tabulated at `report_depth`
    (default: the depth of the start), at least the ordered-product depth
    short of N so the limit is start-independent.
    `history` holds each step's change in total variation; the run stops
    at the first change of at most `tol` (positive and finite) past that
    depth.  By the same telescoping every F_m* with m <= n leaves step n
    unmoved, so no fixed-point residual can tell whether it converged:
    `history[-1]` and the agreement between starts can.
    """
    if N < 1:
        raise ShiftSpaceError("N must be >= 1")
    if not (tol > 0 and math.isfinite(tol)):
        raise ShiftSpaceError(f"tol must be positive and finite, not {tol}")
    if phi0.model != spec.model:
        raise ShiftSpaceError("mixed shift models")
    margin = _margin(spec)
    if report_depth is None:
        report_depth = phi0.depth
    if report_depth > N - margin + 1:
        raise ShiftSpaceError(
            f"report depth {report_depth} needs N >= {report_depth + margin - 1}")
    min_steps = report_depth + margin - 1

    duals = _forward_duals(spec, phi0, report_depth, tol)
    block, history = next(duals), []  # the start, then blocks of steps
    while True:
        changes = 0.5 * np.abs(block[1:] - block[:-1]).sum(axis=1)
        for i, change in enumerate(changes.tolist(), 1):
            history.append(change)
            if len(history) >= min_steps and change <= tol:
                state = CylinderMeasure._owned(spec.model, report_depth, block[i].copy())
                return KmsResult(state, len(history), tuple(history))
            if len(history) == N:
                raise ConvergenceError(
                    f"kms_iterate did not converge within N={N} steps (last change "
                    f"{change:.3e})", residual=change, iterations=N)
        # a step past the start-independent depth, and what the gap's rate needs
        block = np.vstack((block[-1], duals.send((min_steps - len(history) + 1, change))))


def projection_steps(spec: GaugeSpec, report_depth: int,
                     max_words: int = wordcodes.MAX_WORDS) -> int:
    """Step budget for kms_iterate: enough for the limit at `report_depth` to
    be start-independent, plus the larger of 30 and twice the steps
    the spectral gap needs to shrink a change to 1e-12, at most MAX_STEPS.
    The changes shrink by about r = |lambda_2 / lambda_1| of the H^{-beta}
    transfer operator a step, and kms_iterate stops once converged, so a
    generous budget only costs time when it does not converge.  `max_words`
    bounds its one word table, at the report depth or the node graph's
    edges; a model with no spectral gap (not primitive) is rejected."""
    if report_depth < 0:
        raise ShiftSpaceError("report depth must be >= 0")
    margin = _margin(spec)
    n_min = report_depth + margin - 1
    if wordcodes.word_count(spec.model, max(report_depth, margin + 1)) > max_words:
        raise ShiftSpaceError(
            f"report depth {report_depth} needs more than {max_words} words")
    r = spec.gap_ratio
    if r >= 1 - 1e-9:
        raise ShiftSpaceError(
            f"the H^-beta transfer operator has no spectral gap (|l2/l1| = {r:.12g}); "
            "is the model primitive?")
    gap_steps = math.ceil(2 * math.log(1e-12) / math.log(r)) if r > 0 else 0
    return min(n_min + max(30, gap_steps), MAX_STEPS)


def gibbs_state(spec: GaugeSpec, depth: int | None = None) -> CylinderMeasure:
    """Dual RPF eigenvector of the transfer operator with weight H^{-beta}."""
    L = TransferOperator(spec.model, spec.weight)
    return rpf_solve(L, depth=depth, tol=1e-13).eigenmeasure


def random_start(spec: GaugeSpec, depth: int, rng: np.random.Generator) -> CylinderMeasure:
    n = len(wordcodes.admissible_codes(spec.model, depth))
    masses = rng.random(n) + 0.05
    return CylinderMeasure._owned(spec.model, depth, masses / masses.sum())


def kms_check(spec: GaugeSpec, phi: CylinderMeasure, N: int) -> dict:
    """Report the fixed-point defect of phi under F_1..F_N and the operator
    bridge defect between the H^{-beta} transfer powers and the p-weighted
    powers of the cocycle; phi passes at a fixed-point defect of 1e-10.

    The defect at n is the worst |phi(F_n 1_w) - phi(1_w)| over the words w
    of length 1 and 2.  On phi's words, phi(F_n f) is the sum over z of
    f(z) p^{[n]}(z) Lam^{[n]}(z) rho(z's tail after n), with rho the sum over
    each tail class of phi's masses times Lam^{-[n]} (the rho of
    `_forward_duals`): one array per n, summed onto the words w.

    A finite-N defect is an identity on any F_n* output with n >= N: the
    duals telescope, so such a state is already a fixed point of F_1*..F_N*,
    converged or not.  It detects only states that are not F-invariant,
    such as a random start.

    Report only; nothing is raised for large defects.
    """
    if N < 1:
        raise ShiftSpaceError("N must be >= 1")
    model = spec.model
    depth = phi.depth
    _check_pairing(phi, model, N + _margin(spec))  # the depth where F_N closes
    first = wordcodes.window_index(model, 2, 0, 1)
    head = wordcodes.window_index(model, depth, 0, 2)
    fixed_point_defect = {}
    for n in range(1, N + 1):
        lam = np.real(_table(lambda_cocycle(spec, n), depth))
        _, tail, pn = _tail_classes(model, spec.p, n, depth)
        rho = np.bincount(tail, phi.masses / lam)
        gap = np.bincount(head, np.real(pn) * lam * rho[tail] - phi.masses)
        fixed_point_defect[n] = float(np.abs(np.append(gap, np.bincount(first, gap))).max())

    rng = np.random.default_rng(0)
    bridge_defect = {}
    L_hb = TransferOperator(model, spec.weight)
    L_p = TransferOperator(model, spec.p)
    for n in range(1, N + 1):
        f = CylinderFunction._owned(
            model, 2, rng.random(len(wordcodes.admissible_codes(model, 2))))
        lhs = f
        for _ in range(n):
            lhs = apply(L_hb, lhs)
        rhs = lambda_cocycle(spec, n) * f
        for _ in range(n):
            rhs = apply(L_p, rhs)
        d = max(lhs.depth, rhs.depth)
        bridge_defect[n] = float(np.abs(_table(lhs, d) - _table(rhs, d)).max())

    worst_fixed_point = float(np.max(list(fixed_point_defect.values())))
    return {
        "fixed_point_defect": fixed_point_defect,
        "bridge_defect": bridge_defect,
        "max_fixed_point_defect": worst_fixed_point,
        "max_bridge_defect": float(np.max(list(bridge_defect.values()))),
        "passes": worst_fixed_point <= 1e-10,
    }

