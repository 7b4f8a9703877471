"""Substitutability evidence extracted from labeled alloy datasets.

Every pair of alloys that shares elements and differs on both sides is
one piece of evidence about its pair of difference combinations, judged
under the shared elements as context: mass alpha lands on {similar} when
the labels agree and on {dissimilar} when they differ, the rest on the
full frame. Each piece is simple support with weight of evidence
-ln(1 - alpha), and Dempster's rule adds weights, so a pair's pooled
evidence is its (agree, disagree) counts times that weight, as stored.

The pair scan is the hot loop; alloys are folded to bitmasks and each
block of alloys is compared with all later ones in numpy array operations,
so a 14,950-alloy dataset stays tractable in one process. The counts are
alpha-independent, so one scan serves every alpha. `informative_pairs` is
the one informative-pair predicate, a generator of row-major blocks of
pairs with their keys and larger side sizes: the upper triangle of one
mask array serves the scan (`pair_counts`) and the cross-validated γ
estimate (`fusion`), the rectangle of candidates x hosts serves
prediction (`inference.analogy_weights`). A block's informative cells are
flat indices into its pair mask, and every gather is a 1-D `take` by cell
or by row. The scan counts pairs by sorting values, never a permutation:
each key row is one sortable value (the word itself, or the row's words as
a big-endian byte string), a batch of pairs is counted by the runs of its
sorted values and of its sorted disagreeing values, and the batch's
distinct keys are merged into a running sorted table. On the full-scale
Fe fold of the E1 enumeration (12,650 alloys, 42,149,800 informative pairs,
1,809,250 keys; 2-core Intel Xeon, Python 3.11, numpy 2.4) `extract_all`
took 4.7 s in two runs, and the process's peak RSS after it was 257 MB.

Stores are columnar. A `SimilarityStore` holds its element tuple (bit i of
a side mask is element i), one row of packed key words per entry and two
float64 columns of weights of evidence. A side mask is split into 32-bit
words, and key word w packs word w of the smaller side mask (compared as integers) in its high
half and word w of the larger side's in its low half, so one layout covers
every table up to the 103-symbol element table. Rows are distinct and
sorted lexicographically, word 0 first, which is the order `pair_counts`
produces, so the scan's arrays become a store without per-entry objects.
A key row is one sortable value everywhere (`_row_values`, as in the
scan): every sort, search and de-duplication of key rows is one `argsort`,
`np.unique` or `np.searchsorted` of row values, and `KeyTable` looks up a
block of key rows with one `np.searchsorted`; no lookup takes one pair.
Combination pairs and element strings appear only at the edges:
`from_entries` (which `llm_evidence` builds expert stores with), `items`,
`write_store` and the error messages of `read_store`.
`content_hash` digests one canonical byte buffer: the used element names
sorted, the keys re-packed in that bit order and sorted, then the weight
columns, so it does not depend on bit or insertion order. Store files
hold the weights as 17-digit floats or `inf`, so their round trip is exact.

The library names bits in one order: element symbols sorted. Alloy masks
follow `Dataset.element_index` (bit i is symbol i of the sorted universe),
`extract_all` keys its store by the same `Dataset.bit_names`,
`from_entries` and `read_store` sort their elements, and `union_rows`
sorts the union of its stores' elements. So the alignments of a fold
(`content_hash`, `fusion.estimate_reliability`, `fusion.fuse` and
`mask_view`) find every bit in place and re-key no store; only a store
that leaves an element of its tuple unused, such as a fold's md store
without its held-out element, is re-keyed for its hash. No result depends
on the bit order: sums run in host order, the hash is canonical and
`write_store` sorts its rows by name. One pass re-keys a store for every
key width and bit map (`_remap`): the kept bits move in groups of equal
(source word, target word, shift), one AND and one shift of the packed
words per group. Only a map that is not increasing on the kept bits
re-packs the rows, and only such a map or one that moves a bit to
another word sorts them. A map that keeps every row in its place gives
the rows as `slice(None)`, so the re-keyed store's weight columns, the
key table's weights and the hash's canonical columns are views of the
store's own. This module alone reads the key layout; other modules size
keys with `largest_side`.

Store files are read and written a block of rows at a time, with no
Python list per row. `read_store` takes blocks from `alloys.read_blocks`,
which splits a block of plain lines as text; per block, one lookup pass
numbers the side texts and one the weight texts, each new side text is
parsed once and each distinct weight text converted once per block.
`write_store` orders the rows with one `argsort`, formats each distinct
side with its comma and each distinct pair of weight bit patterns as a
line tail once, and writes each block of lines as one join of those
texts. On a 2-core Intel Xeon (Python 3.11, numpy 2.4; medians of 9), the
benchmark's md store (66,063 rows) reads in 77-91 ms and writes in 36-44
ms; its fused store reads in 91-92 ms and writes in 45-47 ms. The
full-scale Fe-fold md store (1,809,250 rows, 103 MB) is written in
0.9-1.1 s and reads back to the same `content_hash` in 2.2-3.0 s; the
process's peak RSS is 180 MB after the read and 344 MB after a write that
follows it.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .alloys import (
    BLOCK_ROWS,
    MASK_WORD_BITS,
    Alloy,
    Dataset,
    element_words,
    key_width,
    parse_symbols,
    read_blocks,
)
from .errors import AlphaOutOfRange, ConfigError, LengthMismatch, ParseError

__all__ = [
    "CombinationPair",
    "ExtractionConfig",
    "KeyTable",
    "PairBlock",
    "PairCounts",
    "SimilarityStore",
    "analogy_weight",
    "extract_all",
    "extract_counts",
    "informative_pairs",
    "pair_counts",
    "counts_to_store",
    "evidence_weight",
    "largest_side",
    "pack_keys",
    "read_store",
    "substitution_limit",
    "union_rows",
    "write_store",
]


@dataclass(frozen=True, order=True)
class CombinationPair:
    """Unordered pair of disjoint element combinations keying evidence.

    Sides are kept as sorted tuples and the smaller side (lexicographically)
    is stored first, so equal pairs compare and hash equal regardless of
    argument order.
    """

    first: tuple[str, ...]
    second: tuple[str, ...]

    def __init__(self, first: Iterable[str], second: Iterable[str]):
        a = tuple(sorted(first))
        b = tuple(sorted(second))
        if not a or not b:
            raise ValueError("both sides of a combination pair must be non-empty")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("combination sides must not contain duplicates")
        if set(a) & set(b):
            raise ValueError(f"combination sides must be disjoint, got {a} and {b}")
        if b < a:
            a, b = b, a
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    def __str__(self) -> str:
        return f"({'-'.join(self.first)}, {'-'.join(self.second)})"


@dataclass(frozen=True)
class ExtractionConfig:
    """Extraction parameters: evidence weight alpha, largest side size kept."""

    alpha: float = 0.1
    max_subst_size: int | None = None

    def __post_init__(self) -> None:
        evidence_weight(self.alpha)  # raises AlphaOutOfRange outside (0, 1)


def substitution_limit(alloys: Iterable[Alloy], max_subst_size: int | None) -> int:
    """The largest substitution side kept: max_subst_size, which must be at
    least 1, or by default the largest alloy size minus one, which keeps
    every informative pair."""
    if max_subst_size is None:
        return max((len(alloy.elements) for alloy in alloys), default=2) - 1
    if max_subst_size < 1:
        raise ConfigError(f"max_subst_size must be >= 1, got {max_subst_size}")
    return max_subst_size


# A pair key packs one 32-bit word of each side into a uint64, so masks are
# split into W 32-bit words: one word for E1 and E2, at most four for the
# 103-symbol element table.
_WORD = np.uint64(MASK_WORD_BITS)
_LOW = np.uint64((1 << MASK_WORD_BITS) - 1)
_BLOCK_PAIRS = 1 << 17  # alloy pairs compared per block of first rows (`informative_pairs`)
_MERGE_ROWS = 1 << 22  # pending pair rows before they are merged into the running counts
_DICT_ROWS = 1 << 16  # keys added to the `extract_counts` dict at a time


def _words_to_ints(words: np.ndarray) -> list[int]:
    """Inverse of `element_words`: one mask as a Python int per row."""
    ints = words[:, -1].tolist()
    for w in range(words.shape[1] - 2, -1, -1):
        ints = [hi << MASK_WORD_BITS | lo for hi, lo in zip(ints, words[:, w].tolist())]
    return ints


def _less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a < b of multi-word masks: a higher word decides unless
    its two words are equal, so the comparison builds up from word 0."""
    less = a[:, 0] < b[:, 0]
    for w in range(1, a.shape[1]):
        less = (a[:, w] < b[:, w]) | ((a[:, w] == b[:, w]) & less)
    return less


def pack_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Key rows of the unordered side-mask pairs (a, b), given as (n, W)
    word arrays: the smaller mask's words high, the larger's low. Rows to
    swap XOR both sides with their difference, which is faster than
    selecting each side with `np.where`."""
    flip = a ^ b
    flip &= (_less(b, a) * _LOW)[:, None]  # words hold 32 bits
    keys = a ^ flip
    keys <<= _WORD
    flip ^= b
    keys |= flip
    return keys


class PairBlock(NamedTuple):
    """A block of informative pairs, in row-major order: the row of each
    pair's first and second alloy, the pair's key row (`pack_keys` of its
    two difference masks) and the size of its larger difference side."""

    first: np.ndarray
    second: np.ndarray
    keys: np.ndarray
    larger: np.ndarray


def informative_pairs(
    words: np.ndarray,
    max_size: int,
    others: np.ndarray | None = None,
    folds: np.ndarray | None = None,
) -> Iterator[PairBlock]:
    """The informative pairs among the rows of `words`, i < j (the upper
    triangle), or of the rows of `words` with those of `others` (the
    rectangle), both (n, W) `element_words` arrays.

    A pair is informative when the alloys share an element and each
    difference side holds 1 to max_size elements. A block of first rows is
    compared with all second rows at once, so every pair of a first row
    lies in one block; blocks without a pair are skipped. `folds`, one id
    per row of the triangle, skips the pairs of two rows in one fold.
    """
    if folds is not None and others is not None:
        raise ValueError("fold ids apply to the triangle of one word array")
    seconds = words if others is None else others
    # a difference side holds s = size - shared elements; 1 <= s <= max_size
    # iff (size - 1) - shared < max_size in uint8 arithmetic, where s = 0
    # wraps round to 255 (masks hold at most 103 bits)
    first_less_one = np.bitwise_count(words).sum(axis=1, dtype=np.uint8) - np.uint8(1)
    second_less_one = np.bitwise_count(seconds).sum(axis=1, dtype=np.uint8) - np.uint8(1)
    limit = np.uint8(min(max(max_size, 0), 128))
    block = max(1, _BLOCK_PAIRS // max(1, len(seconds)))
    for start in range(0, len(words), block):
        stop = min(start + block, len(words))
        low = start + 1 if others is None else 0  # the block's first second row
        a = words[start:stop, None]  # (b, 1, W) against the second rows (m, W)
        b = seconds[low:]
        n_shared = np.bitwise_count(a & b).sum(axis=2, dtype=np.uint8)
        informative = n_shared > 0
        informative &= first_less_one[start:stop, None] - n_shared < limit
        informative &= second_less_one[low:] - n_shared < limit
        if others is None:
            informative &= np.arange(low, len(seconds)) > np.arange(start, stop)[:, None]
            if folds is not None:
                informative &= folds[start:stop, None] != folds[low:]
        # flat cell indices are row-major; 1-D gathers by them and by row
        # are much faster than 2-D fancy indexes
        cells = np.flatnonzero(informative)
        if not len(cells):
            continue
        first, second = np.divmod(cells, informative.shape[1])
        first += start
        second += low
        larger = np.maximum(first_less_one.take(first), second_less_one.take(second))
        larger -= n_shared.take(cells)
        larger += np.uint8(1)
        first_side, second_side = words.take(first, axis=0), seconds.take(second, axis=0)
        shared = first_side & second_side
        first_side ^= shared  # the difference masks
        second_side ^= shared
        yield PairBlock(first, second, pack_keys(first_side, second_side), larger)


def _row_values(keys: np.ndarray) -> np.ndarray:
    """One value per key row that sorts, compares and searches as the rows
    do (lexicographically, first word first): the word of a one-word row,
    else the row's words as one big-endian byte string. A view of one-word
    rows, a new array otherwise."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return np.ascontiguousarray(keys, dtype=">u8").view(f"V{8 * keys.shape[1]}")[:, 0]


def _value_rows(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of `_row_values`: (n, width) uint64 key rows."""
    return values.view(">u8" if width > 1 else np.uint64).reshape(-1, width).astype(np.uint64, copy=False)


def _row_order(keys: np.ndarray) -> np.ndarray:
    """Permutation sorting key rows lexicographically, first word first."""
    return np.argsort(_row_values(keys), kind="stable")


def _fit_width(keys: np.ndarray, width: int) -> np.ndarray:
    """Key rows cut or zero-padded to `width` words; cut words must be 0."""
    if keys.shape[1] >= width:
        return keys[:, :width]
    return np.pad(keys, ((0, 0), (0, width - keys.shape[1])))


class KeyTable:
    """Distinct key rows, sorted lexicographically (first word first), with
    one weight, row of weights or weight palette row number per key.

    A key row is one sortable value (`_row_values`), so the table holds its
    rows' values and `find` locates a block of query rows with one
    `np.searchsorted` of theirs. Rows compare as integers: a word beyond a
    row's width is 0.
    """

    def __init__(self, keys: np.ndarray, weights: np.ndarray | None = None):
        self.keys = keys
        self.weights = weights
        self._values = _row_values(keys)

    def find(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row position, found) of each (q, W') query row; positions of
        rows not found are arbitrary valid indices."""
        width = self.keys.shape[1]
        # the flags come before the search's temporaries; allocated after
        # them, they raised the process's peak RSS (heap layout)
        found = np.zeros(len(queries), dtype=bool)
        if not len(self.keys):
            return np.zeros(len(queries), dtype=np.intp), found
        # searched in order of their first word, which keeps searchsorted's
        # successive probes close together
        order = np.argsort(queries[:, 0])
        values = _row_values(_fit_width(queries, width).take(order, axis=0))  # faster than a 2-D fancy index
        rank = np.searchsorted(self._values, values)
        np.minimum(rank, len(self._values) - 1, out=rank)
        found[order] = self._values[rank] == values
        if queries.shape[1] > width:  # a word the table's rows lack must be 0
            found &= ~queries[:, width:].any(axis=1)
        position = np.empty_like(rank)
        position[order] = rank
        return position, found


def _both_halves(bits: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Per group, the key word that sets the group's bits in both side
    masks; each bit is taken at its offset within its 32-bit word."""
    half = np.zeros(n_groups, dtype=np.uint64)
    np.bitwise_or.at(half, groups, np.uint64(1) << (bits % MASK_WORD_BITS).astype(np.uint64))
    return half << _WORD | half


def _remap(keys: np.ndarray, bits: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray | slice]:
    """Key rows with bit i of both sides moved to bit bits[i], at `width`
    words per side, re-packed and sorted, with the source row of each:
    `slice(None)` when every row is kept in place, so that the caller's
    gathers of its columns are views, not copies.

    Rows using an element with bits[i] < 0 are dropped. The kept bits are
    grouped by (source word, target word, shift); both halves of a key
    word hold the same bit offsets, so each group moves with one AND and
    one shift of the packed words. A map strictly increasing on the kept
    bits keeps every side comparison, so the smaller side stays high and
    no row is re-packed; if it also leaves every bit in its word, the rows
    stay sorted.
    """
    n_src = len(bits)
    if np.array_equal(bits, np.arange(n_src)) and key_width(n_src) <= width:
        return _fit_width(keys, width), slice(None)
    keys = _fit_width(keys, key_width(n_src))
    dropped = np.flatnonzero(bits < 0)
    rows, words = slice(None), keys
    if len(dropped):
        used = (keys & _both_halves(dropped, dropped // MASK_WORD_BITS, keys.shape[1])).any(axis=1)
        if used.any():
            rows = np.flatnonzero(~used)
            words = keys.take(rows, axis=0)  # faster than a boolean index of 2-D rows
    kept = np.flatnonzero(bits >= 0)
    target = bits[kept]
    source_word, target_word = kept // MASK_WORD_BITS, target // MASK_WORD_BITS
    shift = target % MASK_WORD_BITS - kept % MASK_WORD_BITS  # -31..31
    codes, group = np.unique((source_word * width + target_word) * 64 + shift + 31, return_inverse=True)
    out = np.zeros((len(words), width), dtype=np.uint64)
    for code, mask in zip(codes.tolist(), _both_halves(kept, group, len(codes))):
        (source, to), shift = divmod(code >> 6, width), (code & 63) - 31
        moved = words[:, source] & mask
        out[:, to] |= moved << np.uint64(shift) if shift >= 0 else moved >> np.uint64(-shift)
    increasing = bool(np.all(np.diff(target) > 0))
    if not increasing:
        out = pack_keys(out >> _WORD, out & _LOW)
    elif np.array_equal(source_word, target_word):
        return out, rows
    order = _row_order(out)
    return out[order], order if isinstance(rows, slice) else rows[order]


def _no_keys() -> np.ndarray:
    return np.zeros((0, 1), dtype=np.uint64)


def _no_weights() -> np.ndarray:
    return np.zeros(0)


@dataclass(frozen=True, eq=False)
class SimilarityStore:
    """Map from combination pair to pooled substitutability evidence, held
    as columns of weights of evidence.

    `elements` names the mask bits; `keys` holds one row of packed words
    per entry (see the module docstring), distinct and sorted; `w_first`
    and `w_second` are the rows' non-negative weights of evidence on
    similar and on dissimilar, never both infinite. An absent pair weighs
    (0, 0), which reads out vacuous. The constructor trusts its arrays;
    build stores with `from_entries`, `counts_to_store` or the library's
    combinators. Treat as immutable once built.
    """

    elements: tuple[str, ...] = ()
    keys: np.ndarray = field(default_factory=_no_keys)
    w_first: np.ndarray = field(default_factory=_no_weights)
    w_second: np.ndarray = field(default_factory=_no_weights)

    def __post_init__(self) -> None:
        if not isinstance(self.elements, tuple):
            raise TypeError(f"elements must be a tuple of symbols, got {type(self.elements).__name__}")
        if self.keys.ndim != 2 or self.keys.dtype != np.uint64:
            raise TypeError("keys must be a 2-D uint64 array")
        if not len(self.keys) == len(self.w_first) == len(self.w_second):
            raise ValueError("keys and weight columns differ in length")

    @classmethod
    def from_entries(cls, entries: Mapping[CombinationPair, Sequence[float]]) -> "SimilarityStore":
        """Store of the given (w_first, w_second) entries, over their
        elements in sorted order."""
        elements = tuple(sorted({e for pair in entries for e in pair.first + pair.second}))
        bit = {e: i for i, e in enumerate(elements)}
        width = key_width(len(elements))
        keys = pack_keys(*(element_words([getattr(pair, side) for pair in entries], bit, width)
                           for side in ("first", "second")))
        weights = np.array([tuple(w) for w in entries.values()], dtype=float).reshape(-1, 2)
        order = _row_order(keys)
        return cls(elements, keys[order], *(np.ascontiguousarray(weights[order, j]) for j in range(2)))

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def analogy_weights(self) -> np.ndarray:
        """`analogy_weight` of each row, computed once per store: the
        column that `mask_view` and the γ estimate look keys up in."""
        return analogy_weight(self.w_first, self.w_second)

    def _named_sides(self) -> tuple[list[tuple[str, ...]], np.ndarray, np.ndarray]:
        """The distinct sides of the rows as sorted element tuples, in
        sorted order, and per row the positions of its first and second
        side among them: the side whose tuple sorts first comes first.
        Each distinct side mask is named once: one `np.nonzero` over its
        bits, taken in element name order, lists every side's symbols."""
        halves = np.concatenate([self.keys >> _WORD, self.keys & _LOW])
        _, first_seen, inverse = np.unique(_row_values(halves), return_index=True, return_inverse=True)
        bits = np.unpackbits(halves[first_seen].astype("<u4").view(np.uint8), axis=1, bitorder="little")
        by_name = np.argsort(np.array(self.elements, dtype=str))  # bit of each element, in name order
        sides, columns = np.nonzero(bits[:, by_name])  # row-major: each side's symbols in name order
        symbols = [self.elements[i] for i in by_name[columns].tolist()]
        ends = np.cumsum(np.bincount(sides, minlength=len(bits))).tolist()
        names = [tuple(symbols[start:end]) for start, end in zip([0, *ends], ends)]
        order = sorted(range(len(names)), key=names.__getitem__)
        rank = np.empty(len(names), dtype=np.intp)
        rank[order] = np.arange(len(names))
        side = rank[inverse.reshape(-1)].reshape(2, len(self))
        return [names[i] for i in order], side.min(axis=0), side.max(axis=0)

    def items(self) -> Iterator[tuple[CombinationPair, tuple[float, float]]]:
        """(pair, (w_first, w_second)) of every entry, in key row order."""
        names, first, second = self._named_sides()
        for a, b, weights in zip(first.tolist(), second.tolist(), zip(self.w_first.tolist(), self.w_second.tolist())):
            yield CombinationPair(names[a], names[b]), weights

    def reindexed(self, elements: Sequence[str]) -> "SimilarityStore":
        """The entries over the given elements, keyed in their bit order;
        entries naming other elements are dropped. The store itself when
        the elements are its own."""
        elements = tuple(elements)
        if elements == self.elements:
            return self
        target = {e: i for i, e in enumerate(elements)}
        bits = np.array([target.get(e, -1) for e in self.elements], dtype=np.int64)
        keys, rows = _remap(self.keys, bits, key_width(len(elements)))
        return SimilarityStore(elements, keys, self.w_first[rows], self.w_second[rows])

    def mask_view(self, index: Mapping[str, int]) -> KeyTable:
        """`analogy_weight` of each entry in a key table whose bits follow
        `index` (element -> bit), for hot-loop lookups.

        Entries naming elements outside the index cannot be reached by any
        substitution within that universe and are skipped.
        """
        bits = np.array([index.get(e, -1) for e in self.elements], dtype=np.int64)
        keys, rows = _remap(self.keys, bits, key_width(max(index.values(), default=-1) + 1))
        return KeyTable(keys, self.analogy_weights[rows])

    def content_hash(self) -> str:
        """SHA-256 of the canonical form: the used element names sorted,
        then the key rows packed in that bit order and sorted, then the
        w_first and w_second columns in that row order, each array as its
        little-endian bytes. Computed once per store. The canonical form
        keeps every row (no key names an unused element), so its weight
        columns are views of the store's (`_remap`); the digest reads each
        array's buffer, and only a big-endian or strided array is copied."""
        return self._content_hash

    @cached_property
    def _content_hash(self) -> str:
        used = np.bitwise_or.reduce(self.keys, axis=0) if len(self) else np.zeros(1, dtype=np.uint64)
        side_bits = np.unpackbits(((used >> _WORD) | (used & _LOW)).astype("<u4").view(np.uint8), bitorder="little")
        names = sorted(self.elements[i] for i in np.flatnonzero(side_bits))
        canonical = self.reindexed(names)
        digest = hashlib.sha256()
        digest.update(f"heafusion-store-3\n{','.join(names)}\n{canonical.keys.shape}\n".encode())
        digest.update(np.ascontiguousarray(canonical.keys, dtype="<u8"))
        for column in (canonical.w_first, canonical.w_second):
            digest.update(np.ascontiguousarray(column, dtype="<f8"))
        return digest.hexdigest()


def largest_side(store: SimilarityStore) -> int:
    """Most elements on one side of any key of the store (0 when empty)."""
    if not len(store):
        return 0
    return int(max(np.bitwise_count(side).sum(axis=1).max() for side in (store.keys >> _WORD, store.keys & _LOW)))


def union_rows(stores: Sequence[SimilarityStore]) -> tuple[tuple[str, ...], np.ndarray, list[np.ndarray]]:
    """Alignment of several stores: the union of their elements sorted
    (the library's one bit order, so stores keyed by it align without
    re-keying), the distinct key rows of all of them in that bit order,
    sorted, and for each store the position of each of its rows among
    them."""
    elements = tuple(sorted({e for store in stores for e in store.elements}))
    width = key_width(len(elements))
    target = {e: i for i, e in enumerate(elements)}
    parts = [_remap(store.keys, np.array([target[e] for e in store.elements], dtype=np.int64), width)
             for store in stores]
    keys = np.concatenate([np.zeros((0, width), dtype=np.uint64), *(keys for keys, _ in parts)])
    distinct, inverse = np.unique(_row_values(keys), return_inverse=True)
    positions, offset = [], 0
    for rekeyed, rows in parts:
        at = inverse[offset:offset + len(rekeyed)]
        if not isinstance(rows, slice):  # the rows moved: place each at its source row
            at = np.empty_like(at)
            at[rows] = inverse[offset:offset + len(rekeyed)]
        positions.append(at)
        offset += len(rekeyed)
    return elements, _value_rows(distinct, width), positions


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and the length of each run."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(starts)
    return values[starts], np.diff(starts, append=len(values))


_Counts = tuple[np.ndarray, np.ndarray, np.ndarray]  # sorted distinct row values, agree, disagree


def _batch_counts(keys: Sequence[np.ndarray], same: Sequence[np.ndarray], width: int) -> _Counts:
    """The counts of single pairs, given as blocks of key rows and of
    label-agreement flags: runs of the sorted row values count every pair,
    and runs of the disagreeing values, sorted alone and placed among the
    distinct values by `searchsorted`, count the disagreements."""
    # the concatenation is a new array, so its row values may be sorted in place
    values = _row_values(np.concatenate([np.zeros((0, width), dtype=np.uint64), *keys]))
    same = np.concatenate([np.zeros(0, dtype=bool), *same])
    disagreeing = values[~same]
    disagreeing.sort()
    values.sort()
    distinct, count = _runs(values)
    disagreed, disagree_count = _runs(disagreeing)
    disagree = np.zeros(len(distinct), dtype=np.int64)
    disagree[np.searchsorted(distinct, disagreed)] = disagree_count
    return distinct, count - disagree, disagree


def _merge(table: _Counts, batch: _Counts) -> _Counts:
    """The running count table with a batch's counts added: rows of keys
    in both add in place, and the batch's other rows are placed, in order,
    before the table row `searchsorted` finds for them."""
    values, agree, disagree = table
    new, new_agree, new_disagree = batch
    if not len(values):
        return batch
    at = np.searchsorted(values, new)
    held = values[np.minimum(at, len(values) - 1)] == new
    agree[at[held]] += new_agree[held]
    disagree[at[held]] += new_disagree[held]
    added = ~held
    placed = at[added] + np.arange(np.count_nonzero(added))
    kept = np.ones(len(values) + len(placed), dtype=bool)
    kept[placed] = False
    merged = []
    for column, new_column in ((values, new), (agree, new_agree), (disagree, new_disagree)):
        out = np.empty(len(kept), dtype=column.dtype)
        out[kept] = column
        out[placed] = new_column[added]
        merged.append(out)
    return tuple(merged)


class PairCounts(NamedTuple):
    """(agree, disagree) evidence counts per pair: distinct key rows in
    store layout, sorted, with int64 count columns."""

    keys: np.ndarray
    agree: np.ndarray
    disagree: np.ndarray

    def count_pair_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, ids): the first row of each distinct (agree, disagree)
        pair, in ascending pair order, and each row's pair number. Pairs
        are told apart by one int64 code, agree * (max disagree + 1) +
        disagree, or, where that code would overflow, by the rows of both
        columns."""
        agree, disagree = self.agree, self.disagree
        span = int(disagree.max(initial=0)) + 1
        if int(agree.max(initial=0)) * span + span - 1 <= np.iinfo(np.int64).max:
            _, first, ids = np.unique(agree * span + disagree, return_index=True, return_inverse=True)
        else:
            rows = np.stack((agree, disagree), axis=1)
            _, first, ids = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        return first, ids


def pair_counts(words: np.ndarray, labels: Sequence[bool], max_size: int) -> PairCounts:
    """(agree, disagree) counts of every informative alloy pair, keyed by
    the pair's two difference masks; alloys are the rows of an
    `element_words` array, one label each.

    The pairs are the upper triangle of `informative_pairs`. Once pending
    pairs outnumber both the running count table and a fixed batch, they
    are counted by value sorts (`_batch_counts`) and merged into the table,
    so memory follows the number of distinct keys rather than the number
    of pairs. Every key width takes this one path: a key row is one
    sortable value (`_row_values`), and no permutation is computed.
    """
    flags = np.asarray(labels, dtype=bool)
    if len(flags) != len(words):
        raise LengthMismatch(f"{len(flags)} labels vs {len(words)} alloys")
    width = words.shape[1]
    table = _batch_counts([], [], width)
    new_keys: list[np.ndarray] = []
    new_same: list[np.ndarray] = []
    n_new = 0
    for block in informative_pairs(words, max_size):
        new_keys.append(block.keys)
        new_same.append(flags.take(block.first) == flags.take(block.second))
        n_new += len(block.keys)
        if n_new >= max(_MERGE_ROWS, len(table[0])):
            table = _merge(table, _batch_counts(new_keys, new_same, width))
            new_keys, new_same, n_new = [], [], 0
    values, agree, disagree = _merge(table, _batch_counts(new_keys, new_same, width))
    return PairCounts(_value_rows(values, width), agree, disagree)


def _dataset_counts(dataset: Dataset, max_subst_size: int | None) -> PairCounts:
    limit = substitution_limit(dataset.alloys, max_subst_size)
    return pair_counts(dataset.words, dataset.labels, limit)


def extract_counts(
    dataset: Dataset,
    max_subst_size: int | None = None,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Per-pair (agree, disagree) evidence counts, keyed by bitmask pair
    (smaller, larger) as Python ints.

    The counts are a sufficient statistic for the combined mass at any
    alpha, which is what makes the alpha grid search affordable. Bit i
    is element i of the sorted universe (`Dataset.element_index`);
    max_subst_size resolves through `substitution_limit`.

    Keys share few side masks and fewer count pairs, so each distinct
    side mask becomes one int and each distinct count pair one tuple, and
    every key holding it shares that object: one `np.unique` of both key
    halves gives the masks, `PairCounts.count_pair_ids` the count pairs,
    and the dict is filled a block of keys at a time by object-array
    gathers of them.
    """
    counts = _dataset_counts(dataset, max_subst_size)
    first, ids = counts.count_pair_ids()
    pairs = np.fromiter(zip(counts.agree[first].tolist(), counts.disagree[first].tolist()),
                        dtype=object, count=len(first))
    keys = counts.keys
    sides = np.unique(_row_values(np.concatenate([keys >> _WORD, keys & _LOW])))
    masks = np.array(_words_to_ints(_value_rows(sides, keys.shape[1])), dtype=object)
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for start in range(0, len(keys), _DICT_ROWS):
        part = keys[start:start + _DICT_ROWS]
        smaller, larger = (masks.take(np.searchsorted(sides, _row_values(half))).tolist()
                           for half in (part >> _WORD, part & _LOW))
        out.update(zip(zip(smaller, larger), pairs.take(ids[start:start + _DICT_ROWS]).tolist()))
    return out


def evidence_weight(alpha: float) -> float:
    """Weight of evidence -ln(1 - alpha) of one piece of pair evidence."""
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    return -math.log1p(-alpha)


_EXP_LIMIT = 700.0  # below the largest x with a finite e**x


def analogy_weight(w_first, w_second) -> np.ndarray:
    """Weight of evidence -ln(1 - s) of the similarity s read out from
    store weights (arrays, never both infinite): with P = e^-w_first and
    Q = e^-w_second, 1 - s = P / (P + Q - PQ), so the weight is
    ln(1 + Q (e^w_first - 1)), exactly 0 where w_first is 0. Above
    w_first = 700 the -1 is below rounding, and ln(1 + e^(w_first -
    w_second)) keeps e^w_first from overflowing."""
    w1 = np.asarray(w_first, dtype=float)
    w2 = np.asarray(w_second, dtype=float)
    weight = np.log1p(np.exp(-w2) * np.expm1(np.minimum(w1, _EXP_LIMIT)))
    far = w1 > _EXP_LIMIT
    weight[far] = np.logaddexp(0.0, w1[far] - w2[far])
    return weight


def counts_to_store(counts: PairCounts, alpha: float, elements: Sequence[str]) -> SimilarityStore:
    """The store of every key's counts times the weight of one piece of
    evidence; bit i of the keys names elements[i] (for counts of a
    dataset, its `bit_names`)."""
    weight = evidence_weight(alpha)
    return SimilarityStore(tuple(elements), counts.keys, weight * counts.agree, weight * counts.disagree)


def extract_all(dataset: Dataset, config: ExtractionConfig) -> SimilarityStore:
    """Scan all alloy pairs and pool their evidence into a similarity store."""
    return counts_to_store(_dataset_counts(dataset, config.max_subst_size), config.alpha, dataset.bit_names)


_HEADER = ["combo_a", "combo_b", "w_similar", "w_dissimilar"]
# Blocks whose columns `read_store` joins into one chunk as it reads. A
# chunk's arrays (about 10 MB) are mapped apart from the heap and go back to
# the OS once joined; block arrays stay in a heap that the reader's text has
# fragmented. On the full-scale Fe-fold md store (1,809,250 rows) the
# process's peak RSS after the read is 180 MB in chunks and 237 MB without.
_CHUNK_BLOCKS = 64
_END = "\r\n"  # a store row ends as csv.writer ends it; no cell of a store needs quoting


def write_store(store: SimilarityStore, path: str | Path) -> None:
    """Serialize a store as CSV, rows sorted by combination pair; weights
    are written with 17 significant digits, or as `inf`, so the round-trip
    is bit-exact. Each distinct side is formatted once with its comma, and
    each distinct pair of weight bit patterns (so -0.0 apart from 0.0) once
    as the tail of its lines; a block of lines is one join of those texts."""
    path = Path(path)
    names, first, second = store._named_sides()
    order = np.argsort(first * len(names) + second)  # the keys are distinct, so are these codes
    n = len(store)
    weights = np.concatenate((store.w_first[order], store.w_second[order])).astype(float, copy=False)
    patterns, weight_ids = np.unique(weights.view(np.uint64), return_inverse=True)
    tail_codes, tail_ids = np.unique(weight_ids[:n] * len(patterns) + weight_ids[n:], return_inverse=True)
    weight_text = [f"{w:.17g}" for w in patterns.view(float).tolist()]
    tails = [f"{weight_text[c // len(patterns)]},{weight_text[c % len(patterns)]}{_END}" for c in tail_codes.tolist()]
    side_text = np.array([f"{'-'.join(name)}," for name in names], dtype=object)
    columns = (side_text, first[order]), (side_text, second[order]), (np.array(tails, dtype=object), tail_ids)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_HEADER) + _END)
        for start in range(0, n, BLOCK_ROWS):
            part = slice(start, start + BLOCK_ROWS)
            fh.write("".join(np.stack([text[ids[part]] for text, ids in columns], axis=1).ravel().tolist()))


def _first_row(ids: np.ndarray, n: int, target: int) -> int:
    """Position in a block's rows of the first row holding id `target` in
    `ids`, the ids of two columns of n rows, one column after the other."""
    return int(np.argmax((ids[:n] == target) | (ids[n:] == target)))


def read_store(path: str | Path) -> SimilarityStore:
    """Load a store written by `write_store`; a malformed row, weights
    that are negative, NaN or both infinite, sides that overlap and a
    repeated pair raise ParseError with the row number.

    A store repeats few distinct sides and weights over many rows. Per
    block, one lookup pass numbers the side texts and one the weight
    texts, each new text taking the next number; each new side text is
    parsed once per file, each distinct weight text converted once per
    block, and the numbers index the block's columns.
    """
    path = Path(path)
    side_ids: defaultdict[str, int] = defaultdict(count().__next__)
    sides: list[list[str]] = []
    blocks: list[tuple[np.ndarray, ...]] = []
    chunks: list[tuple[np.ndarray, ...]] = [
        (np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),) * 2  # the columns of an empty store
    ]
    for block in read_blocks(path, _HEADER):
        combo_a, combo_b, w_similar, w_dissimilar = block.columns
        n = len(combo_a)
        side_of = np.fromiter(map(side_ids.__getitem__, chain(combo_a, combo_b)), dtype=np.intp, count=2 * n)
        for side in islice(side_ids, len(sides), None):
            try:
                sides.append(parse_symbols(side))
            except ParseError as exc:
                raise ParseError(str(exc), int(block.rows[_first_row(side_of, n, len(sides))])) from None
        value_ids: defaultdict[str, int] = defaultdict(count().__next__)
        value_of = np.fromiter(map(value_ids.__getitem__, chain(w_similar, w_dissimilar)), dtype=np.intp, count=2 * n)
        values = []
        for text in value_ids:
            try:
                values.append(float(text))
            except ValueError:
                i = _first_row(value_of, n, len(values))
                raise ParseError(f"weights must be numbers, got {w_similar[i]!r} and {w_dissimilar[i]!r}",
                                 int(block.rows[i])) from None
        weights = np.array(values, dtype=float)[value_of]
        blocks.append((block.rows, side_of[:n], side_of[n:], weights[:n], weights[n:]))
        if len(blocks) == _CHUNK_BLOCKS:
            chunks.append(tuple(map(np.concatenate, zip(*blocks))))
            blocks.clear()
    linenos, first, second, w_first, w_second = map(np.concatenate, zip(*chunks, *blocks))
    del chunks, blocks  # copied into the columns above
    w_first += 0.0  # -0.0 reads as 0.0
    w_second += 0.0
    elements = tuple(sorted({e for side in sides for e in side}))
    words = element_words(sides, {e: i for i, e in enumerate(elements)}, key_width(len(elements)))
    bad = ~((w_first >= 0.0) & (w_second >= 0.0)) | (np.isinf(w_first) & np.isinf(w_second))
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"weights must be non-negative and not both infinite, got {w_first[i]} and {w_second[i]}",
                         int(linenos[i]))
    overlap = (words[first] & words[second]).any(axis=1)
    if overlap.any():
        i = int(np.argmax(overlap))
        raise ParseError(f"combination sides must be disjoint, got {sides[first[i]]} and {sides[second[i]]}",
                         int(linenos[i]))
    keys = pack_keys(words[first], words[second])
    order = _row_order(keys)  # stable: equal keys keep their file order
    keys = keys[order]
    values = _row_values(keys)
    repeat = np.flatnonzero(values[1:] == values[:-1])
    if len(repeat):
        earlier, later = order[repeat], order[repeat + 1]
        j = int(np.argmin(later))
        pair = CombinationPair(sides[first[later[j]]], sides[second[later[j]]])
        raise ParseError(f"pair {pair} repeats row {linenos[earlier[j]]}", int(linenos[later[j]]))
    return SimilarityStore(elements, keys, w_first[order], w_second[order])
