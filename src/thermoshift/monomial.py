"""Finite model of the dense *-algebra spanned by monomials a.e_n.b.

The projections e_n act on cylinder functions as the conditional
expectations built from the normalized weight p, and functions act by
multiplication, so every algebra element has a faithful matrix picture at
sufficient depth (``represent``).  Equality of elements is always tested
through that picture, never by canonicalizing term lists.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wordcodes
from .kms import GaugeSpec
from .shiftspace import (
    CylinderFunction,
    CylinderMeasure,
    ShiftModel,
    ShiftSpaceError,
    _table,
    birkhoff,
    integrate,
)
from .transfer import _check_normalized_p, _cond_expectation, _tail_classes


@dataclass(frozen=True)
class AlgebraContext:
    """Fixed (model, p) pair giving meaning to the projections e_n."""

    model: ShiftModel
    p: CylinderFunction

    def __post_init__(self):
        # checked once here, so expectations and `represent` skip it
        _check_normalized_p(self.model, self.p)

    def expectation(self, n: int, f: CylinderFunction) -> CylinderFunction:
        return _cond_expectation(self.model, self.p, n, f)

    def constant(self, value) -> CylinderFunction:
        return CylinderFunction.constant(self.model, value)


@dataclass(frozen=True)
class Monomial:
    """a . e_n . b with cylinder-function coefficients (complex allowed)."""

    left: CylinderFunction
    level: int
    right: CylinderFunction

    def __post_init__(self):
        if self.level < 0:
            raise ShiftSpaceError("level must be >= 0")
        if self.left.model != self.right.model:
            raise ShiftSpaceError("mixed shift models")


@dataclass(frozen=True)
class AlgebraElement:
    """Finite sum of monomials; kept as a term list."""

    ctx: AlgebraContext
    terms: tuple[Monomial, ...]

    @classmethod
    def from_function(cls, ctx: AlgebraContext, f: CylinderFunction) -> "AlgebraElement":
        return cls(ctx, (Monomial(f, 0, ctx.constant(1.0)),))

    @classmethod
    def projection(cls, ctx: AlgebraContext, n: int) -> "AlgebraElement":
        one = ctx.constant(1.0)
        return cls(ctx, (Monomial(one, n, one),))

    @classmethod
    def monomial(cls, ctx: AlgebraContext, left: CylinderFunction, level: int,
                 right: CylinderFunction) -> "AlgebraElement":
        return cls(ctx, (Monomial(left, level, right),))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if other.ctx != self.ctx:
            raise ShiftSpaceError("mixed algebra contexts")
        return AlgebraElement(self.ctx, self.terms + other.terms)

    def max_level(self) -> int:
        return max((t.level for t in self.terms), default=0)


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Termwise product: (a e_n b)(c e_m d) = a E_n(bc) e_m d for n <= m,
    and a e_n E_m(bc) d for n >= m."""
    if x.ctx != y.ctx:
        raise ShiftSpaceError("mixed algebra contexts")
    ctx = x.ctx
    out = []
    for s in x.terms:
        for t in y.terms:
            bc = s.right * t.left
            if s.level <= t.level:
                out.append(Monomial(s.left * ctx.expectation(s.level, bc),
                                    t.level, t.right))
            else:
                out.append(Monomial(s.left, s.level,
                                    ctx.expectation(t.level, bc) * t.right))
    return AlgebraElement(ctx, tuple(out))


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """(a e_n b)* = b* e_n a*."""
    return AlgebraElement(
        x.ctx,
        tuple(Monomial(t.right.conj(), t.level, t.left.conj()) for t in x.terms))


def gauge(spec: GaugeSpec, x: AlgebraElement, z: complex) -> AlgebraElement:
    """Gauge automorphism at complex parameter z:

        a e_n b  ->  a h^{iz[n]} e_n h^{-iz[n]} b,

    with h^{iz[n]} the ordered n-fold product of exp(iz log H).
    """
    out = []
    for t in x.terms:
        cocycle = birkhoff((1j * z * spec.H.log()).exp(), t.level)
        out.append(Monomial(t.left * cocycle, t.level, (1.0 / cocycle) * t.right))
    return AlgebraElement(x.ctx, tuple(out))


def expectation_G(x: AlgebraElement) -> CylinderFunction:
    """The expectation onto functions: G(a e_n b) = a p^{[n]} b, summed."""
    ctx = x.ctx
    total = None
    for t in x.terms:
        term = t.left * birkhoff(ctx.p, t.level) * t.right
        total = term if total is None else total + term
    return total if total is not None else ctx.constant(0.0)


def state_eval(phi: CylinderMeasure, x: AlgebraElement):
    """psi(x) = integral of G(x) against phi."""
    return integrate(phi, expectation_G(x))


def level_quasi_basis(ctx: AlgebraContext, m: int) -> list[CylinderFunction]:
    """Quasi-basis for E_m: u_w = (p^{[m]})^{-1/2} 1_[w] over words of length m."""
    if m < 1:
        raise ShiftSpaceError("m must be >= 1")
    inv_sqrt = birkhoff(ctx.p, m) ** -0.5
    rows = np.eye(len(wordcodes.admissible_codes(ctx.model, m)))
    return [inv_sqrt * CylinderFunction(ctx.model, m, row) for row in rows]


def reduce_level(ctx: AlgebraContext, x: Monomial, m: int) -> AlgebraElement:
    """Rewrite a e_n b at the deeper level m >= n:

        a e_n b = sum_w (a v_w) e_m (v_w* b),   v_w = E_n(u_w),

    with {u_w} a quasi-basis for E_m.  Represents identically to x.
    """
    n = x.level
    if m < n:
        raise ShiftSpaceError("target level must be >= current level")
    if m == n:
        return AlgebraElement(ctx, (x,))
    out = []
    for u in level_quasi_basis(ctx, m):
        v = ctx.expectation(n, u)
        out.append(Monomial(x.left * v, m, v.conj() * x.right))
    return AlgebraElement(ctx, tuple(out))


def represent(x: AlgebraElement, d: int) -> np.ndarray:
    """Matrix of f -> sum_i a_i E_{n_i}(b_i f) in the depth-d word basis.

    A term a e_n b is diag(a) P_n diag(b), P_n[x, z] = p^{[n]}(z) when x and
    z share the tail after n symbols, else 0, filled a block of rows at a
    time.  A d too small for some term's action to close is rejected, and so
    is a d whose matrix exceeds ``wordcodes.MAX_DENSE_BYTES``.
    """
    ctx = x.ctx
    n = wordcodes.word_count(ctx.model, d)
    wordcodes.check_dense(n, n, 16, f"represent at depth {d}")
    mat = np.zeros((n, n), dtype=complex)
    rows = max(1, 2 ** 16 // n)  # row blocks of 1 MiB: temporaries stay small
    for t in x.terms:
        if t.left.model != ctx.model:
            raise ShiftSpaceError("mixed shift models")
        depth, tail, pn = _tail_classes(ctx.model, ctx.p, t.level,
                                        max(d, t.left.depth, t.right.depth))
        if depth > d:
            raise ShiftSpaceError(
                f"depth {d} too small to represent this element "
                f"(action produced depth {depth})")
        a = _table(t.left, d)
        w = pn * _table(t.right, d)
        for lo in range(0, n, rows):
            block = slice(lo, lo + rows)
            same = tail[block, None] == tail[None, :]
            mat[block] += a[block, None] * np.where(same, w, 0)
    return mat
