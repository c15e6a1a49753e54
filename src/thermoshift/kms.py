"""Equilibrium states at inverse temperature beta.

The characterization used throughout: a probability phi on the shift space
is an equilibrium functional iff phi(F_n f) = phi(f) for every n, where

    F_n(f) = Lam^{-[n]} E_n(Lam^{[n]} f),      Lam = H^{-beta} p^{-1}.

The fixed-point iteration below produces such a phi from any start; the
Gibbs construction (dual RPF eigenvector of the weight H^{-beta}) gives the
same state, and kms_check measures the defect of any candidate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import wordcodes
from .shiftspace import (
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    admissible_words,
    birkhoff,
    integrate,
)
from .transfer import (
    ConvergenceError,
    TransferOperator,
    apply,
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
        if (np.real(self.H.values) <= 0).any():
            raise ShiftSpaceError("H must be strictly positive")
        if self.beta < 0:
            raise ShiftSpaceError("beta must be >= 0")
        TransferOperator(self.model, self.p)  # positivity check
        if not TransferOperator(self.model, self.p).is_normalized(1e-10):
            raise ShiftSpaceError("p is not normalized")

    def working_depth(self, n_max: int, extra: int = 1) -> int:
        """Depth at which F_1..F_{n_max} applied to depth-`extra` functions close."""
        return max(self.H.depth, self.p.depth, 1) + n_max + extra


def lambda_cocycle(spec: GaugeSpec, n: int) -> CylinderFunction:
    """Ordered product of the first n shifts of H^{-beta} p^{-1}."""
    if n < 0:
        raise ShiftSpaceError("n must be >= 0")
    lam0 = spec.H ** (-spec.beta) * (1.0 / spec.p)
    return birkhoff(lam0, n)


def F_op(spec: GaugeSpec, n: int, f: CylinderFunction) -> CylinderFunction:
    """F_n(f) = Lam^{-[n]} E_n(Lam^{[n]} f); F_0 is the identity."""
    if n == 0:
        return f
    lam = lambda_cocycle(spec, n)
    return (1.0 / lam) * cond_expectation(spec.model, spec.p, n, lam * f)


def _f_matrix(spec: GaugeSpec, n: int, depth: int) -> np.ndarray:
    """F_n as a matrix on depth-`depth` tabulations (exactly closed).

    A test oracle for the closed-form dual step; one F_op per word.
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


@dataclass(frozen=True)
class KmsResult:
    state: CylinderMeasure
    iterations: int
    residual: float
    history: tuple[float, ...] = field(repr=False, default=())


def _dual_step(masses: np.ndarray, inv: np.ndarray, n_classes: int,
               cum_w: np.ndarray, cum_lam_inv: np.ndarray) -> np.ndarray:
    """Normalized dual of F_n on deep masses, in closed form.

    Writing out phi(F_n 1_w) = phi(Lam^{-[n]} alpha^n(L_{H,beta}^n 1_w))
    and collecting terms gives

        (F_n* phi)(w)  propto  (H^{-beta})^{[n]}(w) * rho(w_n..w_{D-1}),
        rho(y) = sum over z with the same tail y of  mass(z) * Lam^{-[n]}(z),

    so one step is a tail-class reduction followed by a weighted spread.
    `inv` indexes each word's length-(D-n) tail, `cum_w` and `cum_lam_inv`
    carry the length-n ordered products of H^{-beta} and of Lam^{-1}.
    """
    rho = np.bincount(inv, weights=masses * cum_lam_inv, minlength=n_classes)
    new = cum_w * rho[inv]
    return new / new.sum()


def kms_iterate(spec: GaugeSpec, phi0: CylinderMeasure, N: int,
                tol: float = 1e-12,
                report_depth: int | None = None) -> KmsResult:
    """Push phi through the normalized duals of F_1..F_N until it stops moving.

    The duals telescope (F_n* after F_j* is F_n* for j <= n), so step n is
    F_n* of the start itself, exact on the depth-(n + margin) table where
    F_n closes; the table grows one symbol per step, and the start is
    spread uniformly within its cylinders onto it.  The changes decay at the
    spectral-gap rate of the normalized H^{-beta} transfer operator.  The
    state is tabulated at `report_depth` (default: the depth of the start),
    at least the ordered-product depth short of N so the limit is
    start-independent.  The residual is the move under one more F_n*, which
    by the same telescoping is replaying all n steps.
    """
    if N < 1:
        raise ShiftSpaceError("N must be >= 1")
    model = spec.model
    k = model.alphabet_size
    margin = max(1, spec.H.depth - 1, spec.p.depth - 1)
    if report_depth is None:
        report_depth = phi0.depth
    if report_depth > N - margin + 1:
        raise ShiftSpaceError(
            f"report depth {report_depth} needs N >= {report_depth + margin - 1}")
    min_steps = report_depth + margin - 1
    w0 = spec.H ** (-spec.beta)
    lam0_inv = spec.p * spec.H ** spec.beta
    lut = wordcodes.table_lookup(model, phi0.depth, phi0.masses)
    n_reported = len(wordcodes.admissible_codes(model, report_depth))

    def coarse(m):
        out = np.bincount(report, weights=m, minlength=n_reported)
        return out / out.sum()

    # the ordered products over no positions, on the depth-0 table
    depth, cum_w, cum_lam_inv = 0, np.ones(1), np.ones(1)
    reported = None
    history = []
    for n in range(1, N + 1):
        grown = max(n + margin, phi0.depth, report_depth)
        if grown > depth:
            if k ** grown > 2 ** 62:
                raise ShiftSpaceError("internal depth too large to code words")
            codes = wordcodes.admissible_codes(model, grown)
            # uncached: holding every depth's maps costs 10% more peak memory
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
    raise ConvergenceError(
        f"kms_iterate did not converge within N={N} steps "
        f"(last change {change:.3e})",
        residual=change, iterations=N)


def projection_steps(spec: GaugeSpec, report_depth: int, mixing: int = 30,
                     max_words: int = wordcodes.MAX_WORDS) -> int:
    """Step budget for kms_iterate: enough for the limit at `report_depth` to
    be start-independent, plus `mixing` extra steps for the spectral gap,
    trimmed so the internal tabulation stays within `max_words` words.
    kms_iterate grows its table one step at a time and stops once converged,
    so a generous value only costs time when the gap is actually small."""
    margin = max(1, spec.H.depth - 1, spec.p.depth - 1)
    n_min = report_depth + margin - 1
    n = n_min + mixing
    while n > n_min and wordcodes.word_count(spec.model, n + margin) > max_words:
        n -= 1
    if wordcodes.word_count(spec.model, n + margin) > max_words:
        raise ShiftSpaceError(
            f"report depth {report_depth} needs more than {max_words} words")
    return n


def gibbs_state(spec: GaugeSpec, depth: int | None = None,
                tol: float = 1e-13, max_iter: int = 10_000) -> CylinderMeasure:
    """Dual RPF eigenvector of the transfer operator with weight H^{-beta}."""
    L = TransferOperator(spec.model, spec.H ** (-spec.beta))
    return rpf_solve(L, depth=depth, tol=tol, max_iter=max_iter).eigenmeasure


def random_start(spec: GaugeSpec, depth: int, rng: np.random.Generator) -> CylinderMeasure:
    n = len(wordcodes.admissible_codes(spec.model, depth))
    masses = rng.random(n) + 0.05
    return CylinderMeasure(spec.model, depth, masses / masses.sum())


def kms_check(spec: GaugeSpec, phi: CylinderMeasure, N: int,
              tol: float = 1e-10) -> dict:
    """Report the fixed-point defect of phi under F_1..F_N and the operator
    bridge defect between the H^{-beta} transfer powers and the p-weighted
    powers of the cocycle.

    Report only; nothing is raised for large defects.
    """
    model = spec.model
    depth = phi.depth
    fixed_point_defect = {}
    for n in range(1, N + 1):
        worst = 0.0
        for w in admissible_words(model, 1):
            ind = CylinderFunction.indicator(model, w)
            lhs = float(np.real(integrate(phi, F_op(spec, n, ind))))
            rhs = phi.mass_of(w)
            worst = max(worst, abs(lhs - rhs))
        # spanning deeper indicators when the depth allows it
        span_depth = min(2, depth)
        for w in admissible_words(model, span_depth):
            ind = CylinderFunction.indicator(model, w)
            lhs = float(np.real(integrate(phi, F_op(spec, n, ind))))
            worst = max(worst, abs(lhs - phi.mass_of(w)))
        fixed_point_defect[n] = worst

    rng = np.random.default_rng(0)
    bridge_defect = {}
    L_hb = TransferOperator(model, spec.H ** (-spec.beta))
    L_p = TransferOperator(model, spec.p)
    for n in range(1, N + 1):
        f = CylinderFunction(model, 2, rng.random(len(admissible_words(model, 2))))
        lhs = f
        for _ in range(n):
            lhs = apply(L_hb, lhs)
        rhs = lambda_cocycle(spec, n) * f
        for _ in range(n):
            rhs = apply(L_p, rhs)
        d = max(lhs.depth, rhs.depth)
        bridge_defect[n] = float(
            np.abs(lhs.refine(d).values - rhs.refine(d).values).max())

    return {
        "fixed_point_defect": fixed_point_defect,
        "bridge_defect": bridge_defect,
        "max_fixed_point_defect": max(fixed_point_defect.values()),
        "max_bridge_defect": max(bridge_defect.values()),
        "passes": max(fixed_point_defect.values()) <= tol,
    }

