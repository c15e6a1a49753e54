"""Ruelle transfer operators, conditional expectations and the RPF eigenproblem.

All operators act on depth-d tabulations where the action closes exactly:
cylinder weights are exactly representable, so the analytic statements of
thermodynamic formalism become finite linear algebra here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import wordcodes
from .shiftspace import (
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    _table,
    birkhoff,
)


# Largest word table a block of power steps in rpf_solve may span, unless the
# node graph is larger: up to here a stacked bincount product costs little
# more than its dispatch (measured in CHANGES.md).
BLOCK_WORDS = 256
# Longest block, for shifts whose word counts do not grow with the depth.
MAX_BLOCK = 16
# Bound on |log| of a block's products of weights: e^600 leaves the doubles
# room for the sums over words and the normalizations.
BLOCK_LOG_RANGE = 600.0


class ConvergenceError(RuntimeError):
    """Iterative solver did not reach tolerance; carries diagnostics."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class TransferOperator:
    """(L f)(x) = sum over preimages z of x of weight(z) * f(z)."""

    model: ShiftModel
    weight: CylinderFunction

    def __post_init__(self):
        if self.weight.model != self.model:
            raise ShiftSpaceError("weight defined on a different model")
        if not np.isfinite(self.weight.values).all():
            raise ShiftSpaceError("weight must be finite")
        if (np.real(self.weight.values) <= 0).any():
            raise ShiftSpaceError("weight must be strictly positive")

    def is_normalized(self, tol: float = 1e-12) -> bool:
        one = CylinderFunction.constant(self.model, 1.0)
        return apply(self, one).allclose(one, tol)

    def _closed_action(self, d: int):
        """(pre, suf, w) over the depth-(d+1) words z: the depth-d indices of
        z[:d] and z[1:], and the weight at z.  The action on depth-d tables
        sums w(z) f(z[:d]) into row z[1:]."""
        if d < max(self.weight.depth - 1, 1):
            raise ShiftSpaceError("depth too small for an exact closed action")
        pre, suf = wordcodes.node_graph(self.model, d)
        return pre, suf, _table(self.weight, d + 1)

    def matrix(self, d: int) -> np.ndarray:
        """The exact action on depth-d tabulations as a dense n x n matrix.

        A test oracle for small depths; solvers use ``apply`` and the
        matrix-free products inside ``rpf_solve``.  Past
        ``wordcodes.MAX_DENSE_BYTES`` it raises ShiftSpaceError.
        """
        n = wordcodes.word_count(self.model, d)
        wordcodes.check_dense(n, n, self.weight.values.itemsize,
                              f"the transfer matrix at depth {d}")
        pre, suf, w = self._closed_action(d)
        mat = np.zeros((n, n), dtype=w.dtype)
        np.add.at(mat, (suf, pre), w)
        return mat


def boltzmann_weight(H: CylinderFunction, beta: float) -> CylinderFunction:
    """The weight H^-beta of a strictly positive energy H.

    Where it leaves the normal doubles (H^-beta underflows, or it or H^beta
    overflows) the inputs are valid but the arithmetic is not: that raises
    ConvergenceError, naming model.beta.
    """
    with np.errstate(over="ignore", under="ignore"):
        w = H ** (-beta)
    size = np.abs(w.values)
    if not ((size >= np.finfo(float).tiny) & (size <= np.finfo(float).max)).all():
        raise ConvergenceError(
            f"H^-beta leaves the range of doubles at model.beta = {beta:g} "
            f"(H from {np.abs(H.values).min():g} to {np.abs(H.values).max():g})")
    return w


def apply(L: TransferOperator, f: CylinderFunction) -> CylinderFunction:
    """Sum over the preimage words a.y, tabulated at the exact output depth.

    The output depends on x through the admissibility of a (first symbol of
    x) and the leading max(depths)-1 symbols, hence depth max(D-1, 1).
    """
    if f.model != L.model:
        raise ShiftSpaceError("mixed shift models")
    d_in = max(L.weight.depth, f.depth, 2)
    terms = _table(L.weight, d_in) * _table(f, d_in)
    return CylinderFunction._owned(L.model, d_in - 1, _preimage_sum(L.model, d_in, terms))


def _preimage_sum(model: ShiftModel, d_in: int, terms: np.ndarray) -> np.ndarray:
    """A depth-`d_in` table, or its rows, summed over the preimage words a.y
    into row y of the depth-(d_in - 1) table."""
    out = np.zeros((len(wordcodes.admissible_codes(model, d_in - 1)),) + terms.shape[1:],
                   dtype=complex if np.iscomplexobj(terms) else float)
    for z, y in wordcodes.preimage_runs(model, d_in):
        out[y] += terms[z]
    return out


def _bincount(rows: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """np.bincount for real or complex terms, one part at a time."""
    out = np.bincount(rows, terms.real, n)
    if np.iscomplexobj(terms):  # set apart: out + 1j * imag makes 0 * inf = NaN
        out = out.astype(complex)
        out.imag = np.bincount(rows, terms.imag, n)
    return out


def _check_normalized_p(model: ShiftModel, p: CylinderFunction):
    if (np.real(p.values) <= 0).any():
        raise ShiftSpaceError("p must be strictly positive")
    if not TransferOperator(model, p).is_normalized(1e-10):
        raise ShiftSpaceError("p is not normalized: sum over preimages must be 1")


def _tail_classes(model: ShiftModel, p: CylinderFunction, n: int, depth: int):
    """(D, tail, p^{[n]}) for E_n of a depth-`depth` function: the depth D
    where it closes, max(depth, n + p.depth - 1, n + 1) (depth for n = 0),
    each depth-D word's tail after n symbols as an index into the
    depth-(D - n) table, and p^{[n]} on the depth-D words.  For n >= 1 p
    must be normalized; callers check that once (`_check_normalized_p`)."""
    if n < 0:
        raise ShiftSpaceError("n must be >= 0")
    if n:
        depth = max(depth, n + p.depth - 1, n + 1)
    tail = wordcodes.window_index(model, depth, n, depth - n)
    return depth, tail, _table(birkhoff(p, n), depth)


def cond_expectation(model: ShiftModel, p: CylinderFunction, n: int,
                     f: CylinderFunction) -> CylinderFunction:
    """Projection onto functions constant where the n-th shift iterates agree.

    E_n f(x) is the p^{[n]}-weighted sum of f over the words that share x's
    tail after n symbols: one bincount over the tails, gathered back.
    """
    if n > 0:
        _check_normalized_p(model, p)
    return _cond_expectation(model, p, n, f)


def _cond_expectation(model, p, n, f):
    """cond_expectation without the check that p is normalized."""
    if n == 0:
        return f
    if f.model != model:
        raise ShiftSpaceError("mixed shift models")
    d, tail, pn = _tail_classes(model, p, n, f.depth)
    sums = _bincount(tail, pn * _table(f, d), tail.max() + 1)
    return CylinderFunction._owned(model, d, sums[tail])


def quasi_basis(model: ShiftModel, p: CylinderFunction):
    """The family u_a = sqrt(p^{-1} 1_[a]) and the index p^{-1}.

    Satisfies sum_a u_a E_1(u_a f) = f for every f.
    """
    _check_normalized_p(model, p)
    inv_p = 1.0 / p
    basis = []
    for a in range(model.alphabet_size):
        ind = CylinderFunction.indicator(model, (a,))
        basis.append((inv_p * ind) ** 0.5)
    return basis, inv_p


@dataclass(frozen=True)
class RpfSolution:
    """Leading eigendata of a transfer operator at a fixed working depth."""

    eigenvalue: float
    eigenfunction: CylinderFunction
    eigenmeasure: CylinderMeasure
    iterations: int
    residual: float
    dual_residual: float

    @property
    def pressure(self) -> float:
        return float(np.log(self.eigenvalue))


def rpf_solve(L: TransferOperator, depth: int | None = None,
              tol: float = 1e-12, max_iter: int = 10_000) -> RpfSolution:
    """The leading eigentriple (c, k, nu) on depth-`depth` tables.

    A depth-m weight fixes it on the length-s cylinders, s = max(m - 1, 1),
    where power iteration runs matrix-free: each product applies the action
    and its transpose (l1-normalized, for nu) in one bincount.  On a small
    node graph the products are of L^b, a block of b power steps summed
    over the depth-(s+b) words, until both residuals meet `tol`: `_block`
    grows it a level at a time and stops at the first level past its limits;
    then plain steps of L run until they meet it too, after n power steps
    in all, and on to rounding level, at most n power steps more.
    `iterations` counts the products applied, each block one, and
    `max_iter` bounds them; a positive finite `tol` and a `max_iter` of at
    least 1 are required.  Deeper, k is constant and nu conformal,
    nu[a y] = w(a y) nu[y] / c; the residuals check the extended triple on
    the depth-d action.  Complex weights are rejected rather than truncated
    to their real part.  Primitive transition matrices guarantee
    convergence; otherwise the residuals in the raised ConvergenceError
    tell the story.
    """
    model = L.model
    if np.iscomplexobj(L.weight.values) and (L.weight.values.imag != 0).any():
        raise ShiftSpaceError(
            "rpf_solve needs a real weight; this one has imaginary parts")
    if not (tol > 0 and math.isfinite(tol)):
        raise ShiftSpaceError(f"tol must be positive and finite, not {tol}")
    if max_iter < 1:
        raise ShiftSpaceError(f"max_iter must be >= 1, not {max_iter}")
    if depth is None:
        depth = max(L.weight.depth, 1)
    pre_d, suf_d, w_d = L._closed_action(depth)  # checks depth
    s = max(L.weight.depth - 1, 1)
    pre, suf, w = L._closed_action(s)
    w = np.real(w)
    n = len(wordcodes.admissible_codes(model, s))
    plain = _stacked(pre, suf, w, n)
    b, *block = _block(model, s, depth, pre, suf, w)
    step = _stacked(*block, n) if b > 1 else plain

    v = np.ones(2 * n)  # k, then nu
    v[n:] /= n
    res = dual_res = np.inf
    taken = 0  # power steps taken
    met = None  # the power step at which both residuals of L first met tol
    for iterations in range(1, max_iter + 1):
        v_new = step(v)  # positive, as the weight is
        v_new[:n] /= v_new[:n].max()
        v_new[n:] /= v_new[n:].sum()
        diff = np.abs(v_new - v)
        res, dual_res = float(diff[:n].max()), float(diff[n:].sum())
        v = v_new
        taken += b
        if res <= tol and dual_res <= tol:
            if b > 1:  # the block's fixed point: finish with L itself
                step, b = plain, 1
                continue
            met = met or taken
            if max(res, dual_res) <= 4 * np.finfo(float).eps or taken == 2 * met:
                break
    if met is None:
        raise ConvergenceError(
            f"power iteration did not converge in {max_iter} iterations "
            f"(residual {res:.3e}, dual {dual_res:.3e}); "
            f"transition primitive: {model.is_primitive()}",
            residual=max(res, dual_res), iterations=max_iter)

    k, nu = v[:n], v[n:]
    c = float(plain(v)[:n].max() / k.max())
    # nu[a y] = w(a y) nu[y] / c, a level at a time, from each depth-e word's
    # first edge and depth-(e-1) suffix (k: its length-s prefix)
    w_c = w / c
    for e in range(s + 1, depth + 1):
        nu = w_c[wordcodes.window_index(model, e, 0, s + 1)] * nu[
            wordcodes.window_index(model, e, 1, e - 1)]
    k = k[wordcodes.window_index(model, depth, 0, s)]
    nu = nu / nu.sum()  # normalize: nu(X) = 1, nu(k) = 1
    k = k / float(np.dot(nu, k))
    # the residuals on the depth-d action and its transpose: two bincounts,
    # as `_stacked`'s copies of the depth-d edges would double their memory
    w_d = np.real(w_d)
    return RpfSolution(c, CylinderFunction._owned(model, depth, k),
                       CylinderMeasure._owned(model, depth, nu), iterations,
                       float(np.abs(np.bincount(suf_d, w_d * k[pre_d], len(k)) - c * k).max()),
                       float(np.abs(np.bincount(pre_d, w_d * nu[suf_d], len(nu)) - c * nu).sum()))


def _block(model: ShiftModel, s: int, depth: int, pre, suf, w):
    """(b, pre, suf, w) of the block L^b on the depth-s tables, over the
    depth-(s+b) words Z: the indices of Z's length-s prefix and of its last
    s symbols, and its b-step weight w(Z[:s+1]) w(Z[1:s+2]) ... w(Z[b-1:]).
    Grown a level at a time, from the window maps the eigenmeasure's
    extension reads (each depth-e word's first edge and its depth-(e-1)
    suffix), while the next level keeps b <= MAX_BLOCK, s + b <= depth, the
    b-step products within e^BLOCK_LOG_RANGE and the table within
    max(nodes, BLOCK_WORDS) words.  At b = 1 these are the node graph's own
    arrays."""
    words = max(len(wordcodes.admissible_codes(model, s)), BLOCK_WORDS)
    log_w = float(np.abs(np.log(w)).max())
    b, head, wb, sufb = 1, slice(None), w, suf
    while (b < MAX_BLOCK and s + b < depth and (b + 1) * log_w <= BLOCK_LOG_RANGE
           and len(wordcodes.admissible_codes(model, s + b + 1)) <= words):
        b += 1
        head = wordcodes.window_index(model, s + b, 0, s + 1)
        tail = wordcodes.window_index(model, s + b, 1, s + b - 1)
        wb, sufb = w[head] * wb[tail], sufb[tail]
    return b, pre[head], sufb, wb


def _stacked(pre, suf, w, n: int):
    """The action on depth-s tables (n words) and its transpose as one
    bincount on v = (k, nu): edges into suf from pre, and into pre + n from
    suf + n.  Each half sums its terms in the order of a bincount of that
    half alone, so the result is two such bincounts' bit for bit."""
    rows, cols = np.concatenate((suf, pre + n)), np.concatenate((pre, suf + n))
    w2 = np.concatenate((w, w))
    return lambda v: np.bincount(rows, w2 * v[cols], 2 * n)


def pressure(L: TransferOperator) -> float:
    """log of the leading eigenvalue, which no working depth changes."""
    return rpf_solve(L).pressure
