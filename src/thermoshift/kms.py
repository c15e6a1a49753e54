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
    ConvergenceError,
    TransferOperator,
    _check_normalized_p,
    _tail_classes,
    apply,
    boltzmann_weight,
    cond_expectation,
    rpf_solve,
)


@dataclass(frozen=True)
class GaugeSpec:
    """Strictly positive energy function H, normalized p, and beta >= 0."""

    model: ShiftModel
    H: CylinderFunction
    p: CylinderFunction
    beta: float

    def __post_init__(self):
        if self.H.model != self.model or self.p.model != self.model:
            raise ShiftSpaceError("mixed shift models")
        for name, f in (("H", self.H), ("p", self.p)):
            if np.iscomplexobj(f.values) and (f.values.imag != 0).any():
                raise ShiftSpaceError(f"{name} must be real; it has imaginary parts")
        if (np.real(self.H.values) <= 0).any():
            raise ShiftSpaceError("H must be strictly positive")
        if self.beta < 0:
            raise ShiftSpaceError("beta must be >= 0")
        _check_normalized_p(self.model, self.p)

    def working_depth(self, n_max: int) -> int:
        """Depth at which F_1..F_{n_max} applied to depth-1 functions close."""
        return max(self.H.depth, self.p.depth, 1) + n_max + 1


def lambda_cocycle(spec: GaugeSpec, n: int) -> CylinderFunction:
    """Ordered product of the first n shifts of H^{-beta} p^{-1}."""
    if n < 0:
        raise ShiftSpaceError("n must be >= 0")
    lam0 = boltzmann_weight(spec.H, spec.beta) * (1.0 / spec.p)
    return birkhoff(lam0, n)


def F_op(spec: GaugeSpec, n: int, f: CylinderFunction) -> CylinderFunction:
    """F_n(f) = Lam^{-[n]} E_n(Lam^{[n]} f); F_0 is the identity."""
    if n == 0:
        return f
    lam = lambda_cocycle(spec, n)
    return (1.0 / lam) * cond_expectation(spec.model, spec.p, n, lam * f)


@dataclass(frozen=True)
class KmsResult:
    state: CylinderMeasure
    iterations: int
    history: tuple[float, ...] = field(repr=False, default=())


def _dual_step(masses: np.ndarray, inv: np.ndarray, cum_w: np.ndarray,
               cum_lam_inv: np.ndarray) -> np.ndarray:
    """Normalized dual of F_n on deep masses, in closed form.

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


# Largest step budget projection_steps hands out: at a gap ratio of
# 1 - 5e-3 the changes need about 5500 steps to reach 1e-12.
MAX_STEPS = 10_000


def _margin(spec: GaugeSpec) -> int:
    """Node length s: every window of H and p lies inside one length-(s+1)
    word, so their ordered products are products over the edges of the
    length-s node graph."""
    return max(1, spec.H.depth - 1, spec.p.depth - 1)


def _forward_duals(spec: GaugeSpec, phi0: CylinderMeasure, report_depth: int):
    """Reported masses of F_n* phi0, for n = 0, 1, 2, ...

    Step n is exact on the depth-(n + s) words with the start spread
    uniformly within its cylinders (`_dual_step` there).  The steps up to
    n0 = D - s run on the one depth-D table, D = max(report depth, start
    depth, s + 1), that holds the start, the report words and the edges.
    Past it, a word of depth n + s is a path of n edges on the graph whose
    nodes are the length-s words and whose edges are the length-(s+1)
    words, and the step only ever needs two path sums into each node v,
    both advanced one edge per step:

        A(v, a)   start mass times the Lam^{-1} = p H^beta product, over the
                  paths from start cylinders that end in symbol a,
        B(v, u)   the H^{-beta} product, over the paths from report word u.

    A word extending a depth-d0 start cylinder that ends in a gets the
    share 1 / c(a) of its mass, c = M^{n + s - d0} 1 the extension counts
    of the transition matrix M, so rho = A (1 / c) is `_dual_step`'s tail
    reduction and F_n* phi0 on the report words is B^T rho.  Memory is
    fixed by D and s, whatever n.  Every table read is a window of the depth-D
    words, through `wordcodes.window_index`.
    """
    model = spec.model
    k = model.alphabet_size
    s = _margin(spec)
    d0 = phi0.depth
    w0 = boltzmann_weight(spec.H, spec.beta)
    lam0_inv = spec.p * spec.H ** spec.beta
    n_reported = len(wordcodes.admissible_codes(model, report_depth))
    depth = max(report_depth, d0, s + 1)
    report = wordcodes.window_index(model, depth, 0, report_depth)

    def coarse(m):
        m = np.bincount(report, weights=m, minlength=n_reported)
        return m / m.sum()

    cyl = wordcodes.window_index(model, depth, 0, d0)
    start = phi0.masses[cyl]
    spread = start / np.bincount(cyl)[cyl]
    cum_w, cum_lam_inv = np.ones(len(cyl)), np.ones(len(cyl))
    yield coarse(spread)
    for n in range(1, depth - s + 1):
        cum_w = cum_w * np.real(
            w0.values[wordcodes.window_index(model, depth, n - 1, w0.depth)])
        cum_lam_inv = cum_lam_inv * np.real(
            lam0_inv.values[wordcodes.window_index(model, depth, n - 1, lam0_inv.depth)])
        tail = wordcodes.window_index(model, depth, n, depth - n)
        yield coarse(_dual_step(spread, tail, cum_w, cum_lam_inv))

    # the two path sums at n0, read off the table, as the columns of one
    # array: A, then B, each column with its own edge weight
    n_nodes = len(wordcodes.admissible_codes(model, s))
    node = wordcodes.window_index(model, depth, depth - s, s)
    # the symbol whose extension count c sets a word's share of the start:
    # a start cylinder's last one, or the first one for a depth-0 start
    lead = max(d0, 1) - 1
    sym = wordcodes.window_index(model, depth, lead, 1)
    cols = k + n_reported
    paths = np.hstack([
        np.bincount(node * k + sym, start * cum_lam_inv,
                    n_nodes * k).reshape(n_nodes, k),
        np.bincount(node * n_reported + report, cum_w,
                    n_nodes * n_reported).reshape(n_nodes, n_reported)])
    src, dst = wordcodes.node_graph(model, s)
    wordcodes.check_dense(len(src), cols, 8, "kms_iterate's path sums")
    weights = np.real(np.hstack([
        np.repeat(_table(lam0_inv, s + 1)[:, None], k, axis=1),
        np.repeat(_table(w0, s + 1)[:, None], n_reported, axis=1)]))
    into = (dst[:, None] * cols + np.arange(cols)).ravel()
    trans = model.matrix.astype(float)
    c = np.linalg.matrix_power(trans, depth - lead - 1) @ np.ones(k)
    while True:
        paths = np.bincount(into, (paths[src] * weights).ravel(),
                            n_nodes * cols).reshape(n_nodes, cols)
        A, B = paths[:, :k], paths[:, k:]
        A /= A.max()
        B /= B.max()
        c = trans @ c
        c /= c.max()
        rho = A @ (1.0 / c if d0 else np.full(k, 1.0 / c.sum()))
        state = B.T @ rho
        yield state / state.sum()


def kms_iterate(spec: GaugeSpec, phi0: CylinderMeasure, N: int,
                tol: float = 1e-12,
                report_depth: int | None = None) -> KmsResult:
    """Push phi through the normalized duals of F_1..F_N until it stops moving.

    The duals telescope (F_n* after F_j* is F_n* for j <= n), so step n is
    F_n* of the start itself, which `_forward_duals` computes in memory
    that does not grow with n.  The changes decay at the spectral-gap rate
    of the normalized H^{-beta} transfer operator.  The state is tabulated
    at `report_depth` (default: the depth of the start), at least the
    ordered-product depth short of N so the limit is start-independent.
    `history` holds each step's change in total variation; the run stops
    at the first change of at most `tol` past that depth.  By the same
    telescoping every F_m* with m <= n leaves step n unmoved, so no
    fixed-point residual can tell whether it converged: `history[-1]` and
    the agreement between starts can.
    """
    if N < 1:
        raise ShiftSpaceError("N must be >= 1")
    if phi0.model != spec.model:
        raise ShiftSpaceError("mixed shift models")
    margin = _margin(spec)
    if report_depth is None:
        report_depth = phi0.depth
    if report_depth > N - margin + 1:
        raise ShiftSpaceError(
            f"report depth {report_depth} needs N >= {report_depth + margin - 1}")
    min_steps = report_depth + margin - 1

    duals = _forward_duals(spec, phi0, report_depth)
    reported = next(duals)
    history = []
    for n in range(1, N + 1):
        new_reported = next(duals)
        change = 0.5 * float(np.abs(new_reported - reported).sum())
        history.append(change)
        reported = new_reported
        if n >= min_steps and change <= tol:
            state = CylinderMeasure._owned(spec.model, report_depth, reported)
            return KmsResult(state, n, tuple(history))
    raise ConvergenceError(
        f"kms_iterate did not converge within N={N} steps "
        f"(last change {change:.3e})",
        residual=change, iterations=N)


def _gap_ratio(spec: GaugeSpec) -> float:
    """|lambda_2 / lambda_1| of the H^{-beta} transfer operator on depth-s
    tables: the node matrix, dense, at most k^s rows."""
    s = _margin(spec)
    src, dst = wordcodes.node_graph(spec.model, s)
    e_w = _table(boltzmann_weight(spec.H, spec.beta), s + 1)
    n = len(wordcodes.admissible_codes(spec.model, s))
    wordcodes.check_dense(n, n, 8, "the spectral gap's node matrix")
    nodes = np.bincount(src * n + dst, np.real(e_w), n * n).reshape(n, n)
    top = np.sort(np.abs(np.linalg.eigvals(nodes)))
    return float(top[-2] / top[-1])


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
    margin = _margin(spec)
    n_min = report_depth + margin - 1
    if wordcodes.word_count(spec.model, max(report_depth, margin + 1)) > max_words:
        raise ShiftSpaceError(
            f"report depth {report_depth} needs more than {max_words} words")
    r = _gap_ratio(spec)
    if r >= 1 - 1e-9:
        raise ShiftSpaceError(
            f"the H^-beta transfer operator has no spectral gap (|l2/l1| = {r:.12g}); "
            "is the model primitive?")
    gap_steps = math.ceil(2 * math.log(1e-12) / math.log(r)) if r > 0 else 0
    return min(n_min + max(30, gap_steps), MAX_STEPS)


def gibbs_state(spec: GaugeSpec, depth: int | None = None) -> CylinderMeasure:
    """Dual RPF eigenvector of the transfer operator with weight H^{-beta}."""
    L = TransferOperator(spec.model, boltzmann_weight(spec.H, spec.beta))
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
    each tail class of phi's masses times Lam^{-[n]} (`_dual_step` before it
    normalizes): one array per n, summed onto the words w.

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
    L_hb = TransferOperator(model, boltzmann_weight(spec.H, spec.beta))
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

