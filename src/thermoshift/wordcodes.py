"""The one word table: admissible words as sorted base-k integer codes.

A word w0..w_{D-1} is coded as the base-k integer with w0 the most
significant digit, so the sorted code array lists the depth-D words in
lexicographic order and a word's position in it is its index in every
depth-D cylinder table.  Depth 0 holds the single code 0, the empty word.
Window maps between tables (``window_index``) are searchsorted over these
arrays; sums across depths read contiguous blocks (``extension_starts``,
``preimage_runs``).  Codes, blocks and the maps out of tables of at most
MAX_KEPT_MAP_WORDS words are memoized in bounded caches of one size.  Tuple
words and CLI keys are decoded from the codes, uncached, by ``digits`` at the
I/O edge; the dense lookups ``table_lookup`` and ``gather`` serve test oracles.
"""
from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .shiftspace import CylinderFunction, ShiftModel


class ShiftSpaceError(ValueError):
    """Invalid model, word or tabulation."""


# codes and window maps for the depths one run visits, over a few models;
# kms_check's F_1..F_N reach every depth up to the working depth
_CACHE_SIZE = 64

# Largest table whose window maps are kept (1 MiB each, the cache 64 MiB at
# most); a larger table's maps, as large as its codes, are rebuilt per call.
MAX_KEPT_MAP_WORDS = 2 ** 17

# Largest word table a run may ask for: 64 MB of codes, a few hundred MB
# with the float tables built over it.
MAX_WORDS = 8_000_000

# Largest dense array a call may build (Karp's tables, ``represent``,
# ``TransferOperator.matrix``): 256 MiB.
MAX_DENSE_BYTES = 2 ** 28


def codes_fit(model: ShiftModel, depth: int) -> bool:
    """Whether depth-`depth` codes fit int64: k^depth <= 2^62, in exact integers."""
    return model.alphabet_size ** min(depth, 63) <= 2 ** 62


@functools.lru_cache(maxsize=_CACHE_SIZE)
def admissible_codes(model: ShiftModel, depth: int) -> np.ndarray:
    """Sorted codes of all admissible depth-`depth` words (memoized)."""
    if depth < 0:
        raise ShiftSpaceError("depth must be >= 0")
    if not codes_fit(model, depth):
        raise ShiftSpaceError(f"depth-{depth} word codes pass int64")
    if depth <= 1:
        codes = np.arange(model.alphabet_size ** depth, dtype=np.int64)
    else:
        shorter = admissible_codes(model, depth - 1)
        k = model.alphabet_size
        # extending sorted codes by each allowed symbol, in order, stays sorted
        rows, last = np.nonzero(model.matrix.astype(bool)[shorter % k])
        codes = shorter[rows] * k + last
    codes.setflags(write=False)
    return codes


def digits(codes: np.ndarray, depth: int, k: int) -> np.ndarray:
    """The symbols of each depth-`depth` coded word: a row of base-k digits."""
    return codes[:, None] // k ** np.arange(depth - 1, -1, -1) % k


def word_count(model: ShiftModel, depth: int) -> int:
    """Number of admissible depth-`depth` words, exact at any depth (none
    at a negative depth)."""
    if depth <= 0:
        return int(depth == 0)
    t = np.array(model.transition, dtype=object)
    return int(np.linalg.matrix_power(t, depth - 1).sum())


def check_dense(rows: int, cols: int, itemsize: int, what: str):
    """Reject a dense rows x cols array past MAX_DENSE_BYTES, unallocated."""
    if rows * cols * itemsize > MAX_DENSE_BYTES:
        raise ShiftSpaceError(f"{what} needs a dense {rows} x {cols} array, "
                              f"more than {MAX_DENSE_BYTES} bytes")


def window_positions(model: ShiftModel, depth: int, start: int,
                     length: int) -> np.ndarray:
    """Index in the depth-`length` table of each depth-`depth` word's window
    z_start .. z_{start+length-1}, read-only and uncached."""
    k, short = model.alphabet_size, admissible_codes(model, length)
    win = window_codes(admissible_codes(model, depth), depth, k, start, length)
    if k ** length <= len(win):  # a code -> position table no larger than the map
        lut = np.empty(k ** length, dtype=np.intp)
        lut[short] = np.arange(len(short))
        idx = lut[win]
    else:
        idx = np.searchsorted(short, win)
    idx.setflags(write=False)
    return idx


def window_index(model: ShiftModel, depth: int, start: int,
                 length: int) -> np.ndarray:
    """`window_positions`, memoized unless the depth-`depth` table has more
    than MAX_KEPT_MAP_WORDS words."""
    kept = _kept_window_index(model, depth, start, length)
    return window_positions(model, depth, start, length) if kept is None else kept


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _kept_window_index(model: ShiftModel, depth: int, start: int, length: int):
    """`window_index`'s cache: the map, or None for a larger table."""
    if len(admissible_codes(model, depth)) <= MAX_KEPT_MAP_WORDS:
        return window_positions(model, depth, start, length)
    return None


def suffix_map(model: ShiftModel, depth: int) -> np.ndarray:
    """Index of each depth-`depth` word's length-(depth-1) suffix, both in
    sorted code order."""
    return window_index(model, depth, 1, depth - 1)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def extension_starts(model: ShiftModel, depth: int, deeper: int) -> np.ndarray:
    """Where each depth-`depth` word's extensions begin in the depth-`deeper`
    table (where it sorts, padded with zeros), then its length; memoized."""
    k = model.alphabet_size
    ends = np.append(admissible_codes(model, depth), k ** depth) * k ** (deeper - depth)
    starts = np.searchsorted(admissible_codes(model, deeper), ends)
    starts.setflags(write=False)
    return starts


@functools.lru_cache(maxsize=_CACHE_SIZE)
def preimage_runs(model: ShiftModel, depth: int) -> tuple:
    """(z, y) slice pairs, in table order: the depth-`depth` words a.y at z have
    their suffixes at y; allowed pairs (a, b) share a run while b steps by 1."""
    y, b = extension_starts(model, 1, depth - 1).tolist(), np.nonzero(model.matrix)[1]
    z = np.r_[0, np.cumsum(np.diff(y)[b])].tolist()
    cuts = np.flatnonzero(np.diff(b, prepend=-2, append=-2) != 1).tolist()
    return tuple((slice(z[i], z[j]), slice(y[b[i]], y[b[j - 1] + 1]))
                 for i, j in zip(cuts, cuts[1:]))


def node_graph(model: ShiftModel, s: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of the length-s node graph: edge i is the i-th depth-(s+1)
    word, from its length-s prefix to its length-s suffix, both as indices
    into the depth-s table."""
    return window_index(model, s + 1, 0, s), suffix_map(model, s + 1)


def window_codes(codes: np.ndarray, depth: int, k: int, start: int,
                 length: int) -> np.ndarray:
    """Codes of the sub-words z_start .. z_{start+length-1}."""
    if start < 0 or start + length > depth:
        raise ValueError("window out of range")
    return (codes // k ** (depth - start - length)) % k ** length


def table_lookup(model: ShiftModel, depth: int, values: np.ndarray) -> np.ndarray:
    """Dense code -> value table for a shallow depth-`depth` tabulation
    (inadmissible codes hold NaN), for test oracles."""
    lut = np.full(model.alphabet_size ** depth, np.nan,
                  dtype=complex if np.iscomplexobj(values) else float)
    lut[admissible_codes(model, depth)] = values
    return lut


def gather(model: ShiftModel, f: CylinderFunction, codes: np.ndarray,
           depth: int, start: int) -> np.ndarray:
    """Values of f on each coded word's window at `start` (test oracles)."""
    lut = table_lookup(model, f.depth, f.values)
    return lut[window_codes(codes, depth, model.alphabet_size, start, f.depth)]
