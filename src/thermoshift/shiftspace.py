"""Subshifts of finite type, cylinder functions and cylinder measures.

Everything downstream works on finite tabulations: a function (or measure)
at depth d is a vector indexed by the admissible words of length d, in
lexicographic order, as listed by the integer-coded word table in
``wordcodes``.  Refine, shift and coarsen are gathers and bincounts over
that table's index maps.  Tuple words only appear at the I/O edge, decoded
from the codes (``admissible_words``) or located among them by their code
(``word_position``).  Binary operations refine both operands to the larger
depth; refinement is exact because a depth-d cylinder function is constant
on every deeper cylinder it contains.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import wordcodes
from .wordcodes import ShiftSpaceError

Word = tuple[int, ...]

# the retired tuple-word cache: uncalled, but perfbench/tracer.py wraps this name
_words_and_index = None


@dataclass(frozen=True)
class ShiftModel:
    """One-sided Markov shift: alphabet {0..k-1} and a 0/1 transition matrix.

    A word w0..w_{d-1} is admissible iff transition[w_i, w_{i+1}] == 1 for
    every consecutive pair.
    """

    alphabet_size: int
    transition: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = self.alphabet_size
        if k < 2:
            raise ShiftSpaceError("alphabet_size must be >= 2")
        t = np.asarray(self.transition)
        if t.shape != (k, k) or not np.isin(t, (0, 1)).all():
            raise ShiftSpaceError("transition must be a k x k 0/1 matrix")
        if (t.sum(axis=1) == 0).any() or (t.sum(axis=0) == 0).any():
            raise ShiftSpaceError("transition must have no zero row or column")

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.transition, dtype=np.int64)

    def is_admissible(self, w: Word) -> bool:
        """Every symbol is in 0..k-1 and every consecutive pair is allowed."""
        t = self.matrix
        return all(0 <= s < self.alphabet_size for s in w) and \
            all(t[w[i], w[i + 1]] for i in range(len(w) - 1))

    def is_primitive(self) -> bool:
        """Some power of the transition matrix is strictly positive."""
        t = self.matrix.astype(bool)
        power = t.copy()
        for _ in range(self.alphabet_size ** 2):
            if power.all():
                return True
            power = power @ t
        return False


def full_shift(k: int = 2) -> ShiftModel:
    return ShiftModel(k, tuple(tuple(1 for _ in range(k)) for _ in range(k)))


def golden_mean_shift() -> ShiftModel:
    """Two symbols, the word 11 forbidden."""
    return ShiftModel(2, ((1, 1), (1, 0)))


def admissible_words(model: ShiftModel, d: int) -> list[Word]:
    """All admissible words of length d, lexicographically ordered."""
    codes = wordcodes.admissible_codes(model, d)
    return list(map(tuple, wordcodes.digits(codes, d, model.alphabet_size).tolist()))


def word_position(model: ShiftModel, w: Word) -> int:
    """Index of the admissible word w in the depth-len(w) table, by its code."""
    if not model.is_admissible(w):
        raise ShiftSpaceError(f"word {w} not admissible")
    code = sum(s * model.alphabet_size ** i for i, s in enumerate(reversed(w)))
    return int(np.searchsorted(wordcodes.admissible_codes(model, len(w)), code))


def preimages(model: ShiftModel, w: Word) -> list[Word]:
    """All words a.w mapping onto [w] under the shift.

    For the empty word this is just the list of single symbols.
    """
    if not model.is_admissible(w):
        raise ShiftSpaceError(f"word {w} not admissible")
    t = model.matrix
    if len(w) == 0:
        return [(a,) for a in range(model.alphabet_size)]
    return [(a,) + w for a in range(model.alphabet_size) if t[a, w[0]]]


@dataclass(frozen=True)
class CylinderFunction:
    """Function on the shift space constant on depth-d cylinders.

    values[i] is the value on the cylinder of the i-th admissible word of
    length ``depth`` in canonical order.  Immutable; arithmetic returns new
    instances and refines both operands to the common depth first.
    """

    model: ShiftModel
    depth: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "fc":
            vals = vals.astype(float)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        n = len(wordcodes.admissible_codes(self.model, self.depth))
        if self.values.shape != (n,):
            raise ShiftSpaceError(
                f"expected {n} values at depth {self.depth}, got {self.values.shape}")

    @classmethod
    def constant(cls, model: ShiftModel, value) -> "CylinderFunction":
        """The depth-0 function equal to `value` everywhere."""
        return cls(model, 0, np.full(1, value))

    @classmethod
    def from_dict(cls, model: ShiftModel, depth: int, table: dict) -> "CylinderFunction":
        words = admissible_words(model, depth)
        missing = [w for w in words if w not in table]
        if missing:
            raise ShiftSpaceError(f"missing values for words {missing}")
        return cls(model, depth, np.array([table[w] for w in words]))

    @classmethod
    def indicator(cls, model: ShiftModel, w: Word) -> "CylinderFunction":
        """Indicator of the cylinder [w]."""
        vals = np.zeros(len(wordcodes.admissible_codes(model, len(w))))
        vals[word_position(model, w)] = 1.0
        return cls(model, len(w), vals)

    def refine(self, d: int) -> "CylinderFunction":
        """Exact re-tabulation at depth d >= depth."""
        if d < self.depth:
            raise ShiftSpaceError("cannot refine to a smaller depth")
        if d == self.depth:
            return self
        rows = wordcodes.window_index(self.model, d, 0, self.depth)
        return CylinderFunction(self.model, d, self.values[rows])

    def value_at(self, w: Word):
        """Evaluate on the cylinder [w]; requires len(w) >= depth."""
        if len(w) < self.depth:
            raise ShiftSpaceError("word shorter than tabulation depth")
        return self.values[word_position(self.model, w[:self.depth])]

    def as_dict(self) -> dict:
        return dict(zip(admissible_words(self.model, self.depth), self.values))

    # -- arithmetic (operands refined to the common depth) --------------------
    def _binop(self, other, op):
        if isinstance(other, CylinderFunction):
            if other.model != self.model:
                raise ShiftSpaceError("mixed shift models")
            d = max(self.depth, other.depth)
            return CylinderFunction(
                self.model, d, op(self.refine(d).values, other.refine(d).values))
        return CylinderFunction(self.model, self.depth, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __radd__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __rmul__(self, other):
        return self._binop(other, np.multiply)

    def __truediv__(self, other):
        return self._binop(other, np.divide)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, exponent):
        vals = self.values
        if np.iscomplexobj(vals) or np.iscomplex(exponent):
            vals = vals.astype(complex)
        return CylinderFunction(self.model, self.depth, vals ** exponent)

    def __neg__(self):
        return CylinderFunction(self.model, self.depth, -self.values)

    def conj(self):
        return CylinderFunction(self.model, self.depth, np.conj(self.values))

    def log(self):
        return CylinderFunction(self.model, self.depth, np.log(self.values))

    def exp(self):
        return CylinderFunction(self.model, self.depth, np.exp(self.values))

    def allclose(self, other, tol: float = 1e-12) -> bool:
        d = max(self.depth, other.depth)
        return bool(np.abs(self.refine(d).values - other.refine(d).values).max() <= tol)


def alpha_power(f: CylinderFunction, n: int) -> CylinderFunction:
    """f composed with the n-th iterate of the shift: drops n leading symbols."""
    if n < 0:
        raise ShiftSpaceError("n must be >= 0")
    if n == 0:
        return f
    rows = wordcodes.window_index(f.model, f.depth + n, n, f.depth)
    return CylinderFunction(f.model, f.depth + n, f.values[rows])


def birkhoff(f: CylinderFunction, n: int) -> CylinderFunction:
    """Product f * (f o T) * ... * (f o T^{n-1}), left to right, of window
    gathers on the depth-(f.depth + n - 1) table; the empty product is 1."""
    if n < 0:
        raise ShiftSpaceError("n must be >= 0")
    if n == 0:
        return CylinderFunction.constant(f.model, 1.0)
    d = f.depth + n - 1
    out = f.refine(d).values
    for j in range(1, n):
        out = out * f.values[wordcodes.window_index(f.model, d, j, f.depth)]
    return CylinderFunction(f.model, d, out)


@dataclass(frozen=True)
class CylinderMeasure:
    """Borel probability given by masses on the depth-d cylinders."""

    model: ShiftModel
    depth: int
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)
        n = len(wordcodes.admissible_codes(self.model, self.depth))
        if m.shape != (n,):
            raise ShiftSpaceError(
                f"expected {n} masses at depth {self.depth}, got {m.shape}")
        if (m < -1e-12).any():
            raise ShiftSpaceError("masses must be nonnegative")
        if abs(m.sum() - 1.0) > 1e-9:
            raise ShiftSpaceError(f"masses sum to {m.sum()}, not 1")

    @classmethod
    def from_dict(cls, model: ShiftModel, depth: int, table: dict) -> "CylinderMeasure":
        words = admissible_words(model, depth)
        return cls(model, depth, np.array([table.get(w, 0.0) for w in words]))

    def coarsen(self, d: int) -> "CylinderMeasure":
        """Exact masses at a smaller depth d (sums over extensions)."""
        if d > self.depth:
            raise ShiftSpaceError("coarsen target exceeds current depth")
        if d == self.depth:
            return self
        out = np.bincount(wordcodes.window_index(self.model, self.depth, 0, d),
                          weights=self.masses,
                          minlength=len(wordcodes.admissible_codes(self.model, d)))
        return CylinderMeasure(self.model, d, out)

    def mass_of(self, w: Word) -> float:
        """Mass of the cylinder [w]; requires len(w) <= depth."""
        if len(w) > self.depth:
            raise ShiftSpaceError("cylinder deeper than tabulation")
        return float(self.coarsen(len(w)).masses[word_position(self.model, w)])

    def as_dict(self) -> dict:
        return dict(zip(admissible_words(self.model, self.depth), self.masses))

    def total_variation(self, other: "CylinderMeasure") -> float:
        if other.depth > self.depth:
            return other.total_variation(self)
        a = self.coarsen(other.depth)
        return 0.5 * float(np.abs(a.masses - other.masses).sum())


def integrate(mu: CylinderMeasure, f: CylinderFunction):
    """Pairing sum_w mass(w) * value(w) at the measure's depth.

    The function must not be deeper than the measure: a shallower measure
    does not determine the integral of a deeper function.
    """
    _check_pairing(mu, f.model, f.depth)
    val = complex(np.dot(mu.masses, f.refine(mu.depth).values))
    return val if np.iscomplexobj(f.values) else val.real


def _check_pairing(mu: CylinderMeasure, model: ShiftModel, depth: int):
    """Refuse to pair mu with a function on another model or deeper than mu."""
    if model != mu.model:
        raise ShiftSpaceError("mixed shift models")
    if depth > mu.depth:
        raise ShiftSpaceError(f"function depth {depth} exceeds measure depth {mu.depth}")


def point_mass(model: ShiftModel, periodic_word: Word, d: int) -> CylinderMeasure:
    """Dirac mass at the periodic point periodic_word^infinity, at depth d."""
    if len(periodic_word) == 0:
        raise ShiftSpaceError("period must be nonempty")
    if not model.is_admissible(periodic_word + periodic_word):
        raise ShiftSpaceError(f"period {periodic_word} gives no admissible periodic point")
    reps = d // len(periodic_word) + 2
    masses = np.zeros(len(wordcodes.admissible_codes(model, d)))
    masses[word_position(model, (periodic_word * reps)[:d])] = 1.0
    return CylinderMeasure(model, d, masses)
