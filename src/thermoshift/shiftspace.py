"""Subshifts of finite type, cylinder functions and cylinder measures.

Everything downstream works on finite tabulations: a function (or measure)
at depth d is a vector indexed by the admissible words of length d, in
lexicographic order, as listed by the integer-coded word table in
``wordcodes``.  Refine, shift and coarsen are gathers and bincounts over
that table's index maps.  Tuple words only appear at the I/O edge, decoded
from the codes (``admissible_words``) or located among them by their code
(``word_position``).  Binary operations refine both operands to the larger
depth; refinement is exact because a depth-d cylinder function is constant
on every deeper cylinder it contains.  Every table is read-only: the public
constructors of ``CylinderFunction`` and ``CylinderMeasure`` copy and validate
their array, and the tables the library builds (gathers, ufunc results,
bincounts) go through ``_owned``: validated the same way, never copied.
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
    every consecutive pair.  ``matrix`` is the transition matrix, int64 and
    read-only.
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
        # every cache lookup hashes the model: hash it once
        object.__setattr__(self, "_hash", hash((k, self.transition)))
        object.__setattr__(self, "matrix", t.astype(np.int64))
        self.matrix.setflags(write=False)

    def __hash__(self):
        return self._hash

    def is_admissible(self, w: Word) -> bool:
        """Every symbol is in 0..k-1 and every consecutive pair is allowed."""
        return all(0 <= s < self.alphabet_size for s in w) and \
            all(self.matrix[w[i], w[i + 1]] for i in range(len(w) - 1))

    def is_primitive(self) -> bool:
        """Some power of the transition matrix is strictly positive."""
        power = t = self.matrix.astype(bool)
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
    if len(w) == 0:
        return [(a,) for a in range(model.alphabet_size)]
    return [(a,) + w for a in range(model.alphabet_size) if model.matrix[a, w[0]]]


class _Table:
    """Construction shared by cylinder functions and measures."""

    @classmethod
    def _owned(cls, model: ShiftModel, depth: int, table: np.ndarray):
        """The public constructor minus its copy, for an array nothing else
        writes to: one the library has just built, or a read-only table."""
        obj = object.__new__(cls)
        obj.__dict__.update(model=model, depth=depth)
        obj._seal(table)
        return obj

    def _store(self, name: str, table: np.ndarray):
        """Set the field `name` to `table`, read-only, and check its length."""
        table.setflags(write=False)
        object.__setattr__(self, name, table)
        n = len(wordcodes.admissible_codes(self.model, self.depth))
        if table.shape != (n,):
            raise ShiftSpaceError(
                f"expected {n} {name} at depth {self.depth}, got {table.shape}")


@dataclass(frozen=True)
class CylinderFunction(_Table):
    """Function on the shift space constant on depth-d cylinders.

    values[i] is the value on the cylinder of the i-th admissible word of
    length ``depth`` in canonical order.  Immutable; arithmetic returns new
    instances and refines both operands to the common depth first.
    """

    model: ShiftModel
    depth: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._seal(np.array(self.values))

    def _seal(self, vals: np.ndarray):
        self._store("values", vals if vals.dtype.kind in "fc" else vals.astype(float))

    @classmethod
    def constant(cls, model: ShiftModel, value) -> "CylinderFunction":
        """The depth-0 function equal to `value` everywhere."""
        return cls._owned(model, 0, np.full(1, value))

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
        return cls._owned(model, len(w), vals)

    def refine(self, d: int) -> "CylinderFunction":
        """Exact re-tabulation at depth d >= depth."""
        return self if d == self.depth else CylinderFunction._owned(
            self.model, d, _table(self, d))

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
            return CylinderFunction._owned(
                self.model, d, op(_table(self, d), _table(other, d)))
        return CylinderFunction._owned(self.model, self.depth, op(self.values, other))

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
        return CylinderFunction._owned(self.model, self.depth, vals ** exponent)

    def __neg__(self):
        return CylinderFunction._owned(self.model, self.depth, -self.values)

    def conj(self):
        return CylinderFunction._owned(self.model, self.depth, np.conj(self.values))

    def log(self):
        return CylinderFunction._owned(self.model, self.depth, np.log(self.values))

    def exp(self):
        return CylinderFunction._owned(self.model, self.depth, np.exp(self.values))

    def allclose(self, other, tol: float = 1e-12) -> bool:
        d = max(self.depth, other.depth)
        return bool(np.abs(_table(self, d) - _table(other, d)).max() <= tol)


def _table(f: CylinderFunction, d: int) -> np.ndarray:
    """``f.refine(d).values`` without building the refined function."""
    if d == f.depth:
        return f.values
    if d < f.depth:
        raise ShiftSpaceError("cannot refine to a smaller depth")
    return f.values[wordcodes.window_index(f.model, d, 0, f.depth)]


def alpha_power(f: CylinderFunction, n: int) -> CylinderFunction:
    """f composed with the n-th iterate of the shift: drops n leading symbols."""
    if n < 0:
        raise ShiftSpaceError("n must be >= 0")
    if n == 0:
        return f
    rows = wordcodes.window_index(f.model, f.depth + n, n, f.depth)
    return CylinderFunction._owned(f.model, f.depth + n, f.values[rows])


def birkhoff(f: CylinderFunction, n: int) -> CylinderFunction:
    """Product f * (f o T) * ... * (f o T^{n-1}), left to right, of window
    gathers on the depth-(f.depth + n - 1) table; the empty product is 1."""
    if n < 0:
        raise ShiftSpaceError("n must be >= 0")
    if n == 0:
        return CylinderFunction.constant(f.model, 1.0)
    d = f.depth + n - 1
    out = _table(f, d)
    for j in range(1, n):
        out = out * f.values[wordcodes.window_index(f.model, d, j, f.depth)]
    return CylinderFunction._owned(f.model, d, out)


@dataclass(frozen=True)
class CylinderMeasure(_Table):
    """Borel probability given by masses on the depth-d cylinders."""

    model: ShiftModel
    depth: int
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._seal(np.array(self.masses))

    def _seal(self, m: np.ndarray):
        if np.iscomplexobj(m) and (m.imag != 0).any():
            raise ShiftSpaceError("masses must be real; they have imaginary parts")
        m = np.real(m).astype(float, copy=False)
        self._store("masses", m)
        if not (m >= -1e-12).all():  # NaN fails too
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
        return CylinderMeasure._owned(self.model, d, out)

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
    val = complex(np.dot(mu.masses, _table(f, mu.depth)))
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
    return CylinderMeasure._owned(model, d, masses)
