"""The one word table: admissible words as sorted base-k integer codes.

A word w0..w_{D-1} is coded as the base-k integer with w0 the most
significant digit, so the sorted code array lists the depth-D words in
lexicographic order and a word's position in it is its index in every
depth-D cylinder table.  Depth 0 holds the single code 0, the empty word.
Maps between tables (a window of each deeper word located in a shallower
table) are searchsorted over these arrays; codes and maps are memoized in
bounded caches of one size.  Tuple words and CLI keys are decoded from the
codes, uncached, by ``digits`` at the I/O edge.
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

# Largest word table a run may ask for: 64 MB of codes, a few hundred MB
# with the float tables built over it.
MAX_WORDS = 8_000_000

# Largest dense array a call may build (Karp's tables, ``represent``,
# ``TransferOperator.matrix``): 256 MiB.
MAX_DENSE_BYTES = 2 ** 28


@functools.lru_cache(maxsize=_CACHE_SIZE)
def admissible_codes(model: ShiftModel, depth: int) -> np.ndarray:
    """Sorted codes of all admissible depth-`depth` words (memoized)."""
    if depth < 0:
        raise ShiftSpaceError("depth must be >= 0")
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
    z_start .. z_{start+length-1}."""
    win = window_codes(admissible_codes(model, depth), depth,
                       model.alphabet_size, start, length)
    return np.searchsorted(admissible_codes(model, length), win)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def window_index(model: ShiftModel, depth: int, start: int,
                 length: int) -> np.ndarray:
    """`window_positions`, memoized and read-only."""
    idx = window_positions(model, depth, start, length)
    idx.setflags(write=False)
    return idx


def suffix_map(model: ShiftModel, depth: int) -> np.ndarray:
    """Index of each depth-`depth` word's length-(depth-1) suffix, both in
    sorted code order."""
    return window_index(model, depth, 1, depth - 1)


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
    (inadmissible codes hold NaN)."""
    lut = np.full(model.alphabet_size ** depth, np.nan,
                  dtype=complex if np.iscomplexobj(values) else float)
    lut[admissible_codes(model, depth)] = values
    return lut


def gather(model: ShiftModel, f: CylinderFunction, codes: np.ndarray,
           depth: int, start: int) -> np.ndarray:
    """Values of f on the window of each coded word starting at `start`."""
    lut = table_lookup(model, f.depth, f.values)
    return lut[window_codes(codes, depth, model.alphabet_size, start, f.depth)]
