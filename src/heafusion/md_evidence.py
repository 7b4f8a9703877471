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
prediction (`inference.analogy_weights`).

Stores are columnar. A `SimilarityStore` holds its element tuple (bit i of
a side mask is element i), one row of packed key words per entry and two
float64 columns of weights of evidence. A side mask is split into 32-bit
words, and key word w packs word w of the smaller side mask (compared as integers) in its high
half and word w of the larger side's in its low half, so one layout covers
every table up to the 103-symbol element table. Rows are distinct and
sorted lexicographically, word 0 first, which is the order `pair_counts`
produces, so the scan's arrays become a store without per-entry objects.
Lookups use `np.searchsorted` (`KeyTable`), a block of key rows at a
time; no lookup takes one pair. Combination pairs and element strings
appear only at the edges: `from_entries` (which `llm_evidence` builds
expert stores with), `items`, `write_store` and the error messages of
`read_store`.
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
another word sorts them. This module alone reads the key layout; other
modules size keys with `largest_side`.

Store files are read and written a block of rows at a time, with no
per-row Python loop: `read_store` takes blocks from `alloys.read_blocks`,
parses each distinct side text and converts each distinct weight text
once, and `write_store` formats each distinct side and weight bit pattern
once, then writes each block of lines with one call. The benchmark's md
store (66,063 rows, 8 distinct weights; 2-core Intel Xeon, Python 3.11,
numpy 2.4, median of 9) reads in 0.15 s, against 0.22 s row by row, and
writes in 0.10 s, against 0.18 s; a read's tracemalloc peak went from
19.4 to 6.0 MB and a write's from 11.3 to 8.2 MB.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .alloys import BLOCK_ROWS, Alloy, Dataset, parse_symbols, read_blocks
from .errors import AlphaOutOfRange, ConfigError, ParseError

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
    "element_words",
    "key_width",
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
        if not 0.0 < self.alpha < 1.0:
            raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {self.alpha!r}")


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
_WORD_BITS = 32
_WORD = np.uint64(_WORD_BITS)
_LOW = np.uint64((1 << _WORD_BITS) - 1)
_BLOCK_PAIRS = 1 << 17  # alloy pairs compared per block of first rows (`informative_pairs`)
_MERGE_ROWS = 1 << 22  # pending pair rows before they are merged into the running counts
_DICT_ROWS = 1 << 16  # keys converted to Python ints at a time


def key_width(n_bits: int) -> int:
    """Words per side mask for bit positions below n_bits (at least one)."""
    return max(1, -(-n_bits // _WORD_BITS))


def element_words(combinations: Iterable[Sequence[str]], index: Mapping[str, int], width: int) -> np.ndarray:
    """(n, width) uint64 array of each element combination's bitmask under
    index (element -> bit), split into 32-bit words, least significant
    first: the one mask representation of the library."""
    combinations = list(combinations)
    sizes = [len(c) for c in combinations]
    bits = np.fromiter((index[e] for c in combinations for e in c), dtype=np.int64, count=sum(sizes))
    words = np.zeros((len(combinations), width), dtype=np.uint64)
    # a combination's elements are distinct, so adding their bits is OR-ing them
    np.add.at(words, (np.repeat(np.arange(len(combinations)), sizes), bits // _WORD_BITS),
              np.uint64(1) << (bits % _WORD_BITS).astype(np.uint64))
    return words


def _words_to_ints(words: np.ndarray) -> list[int]:
    """Inverse of `element_words`: one mask as a Python int per row."""
    ints = words[:, -1].tolist()
    for w in range(words.shape[1] - 2, -1, -1):
        ints = [hi << _WORD_BITS | lo for hi, lo in zip(ints, words[:, w].tolist())]
    return ints


def _less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a < b of multi-word masks, compared from the top word down."""
    less = np.zeros(len(a), dtype=bool)
    equal = np.ones(len(a), dtype=bool)
    for w in range(a.shape[1] - 1, -1, -1):
        less |= equal & (a[:, w] < b[:, w])
        equal &= a[:, w] == b[:, w]
    return less


def pack_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Key rows of the unordered side-mask pairs (a, b), given as (n, W)
    word arrays: the smaller mask's words high, the larger's low."""
    swap = _less(b, a)[:, None]
    return np.where(swap, b, a) << _WORD | np.where(swap, a, b)


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
        shared = a & b
        n_shared = np.bitwise_count(shared).sum(axis=2, dtype=np.uint8)
        informative = (
            (n_shared > 0)
            & (first_less_one[start:stop, None] - n_shared < limit)
            & (second_less_one[low:] - n_shared < limit)
        )
        if others is None:
            informative &= np.arange(low, len(seconds)) > np.arange(start, stop)[:, None]
            if folds is not None:
                informative &= folds[start:stop, None] != folds[low:]
        rows, cols = np.nonzero(informative)  # row-major
        if not len(rows):
            continue
        shared = shared[rows, cols]
        first, second = start + rows, low + cols
        larger = np.maximum(first_less_one[first], second_less_one[second]) - n_shared[rows, cols] + np.uint8(1)
        yield PairBlock(first, second, pack_keys(shared ^ words[first], shared ^ seconds[second]), larger)


def _row_code(keys: np.ndarray) -> np.ndarray:
    """One integer per key row, ordered and equal as the rows are
    (lexicographically, first word first): the first word itself, with
    each further word folded in through dense ranks, which stay below
    rows**2 and so fit in int64."""
    code = keys[:, 0]
    for w in range(1, keys.shape[1]):
        _, code = np.unique(code, return_inverse=True)
        values, rank = np.unique(keys[:, w], return_inverse=True)
        code = code * len(values) + rank
    return code


def _row_order(keys: np.ndarray) -> np.ndarray:
    """Permutation sorting key rows lexicographically, first word first."""
    return np.argsort(_row_code(keys), kind="stable")


def _fit_width(keys: np.ndarray, width: int) -> np.ndarray:
    """Key rows cut or zero-padded to `width` words; cut words must be 0."""
    if keys.shape[1] >= width:
        return keys[:, :width]
    return np.pad(keys, ((0, 0), (0, width - keys.shape[1])))


class KeyTable:
    """Distinct key rows, sorted lexicographically (first word first), with
    one weight (or one row of weights) per key.

    `find` locates query rows with one `np.searchsorted` per word: the
    first word's distinct values give each row a rank, and every further
    word refines that rank into the distinct (prefix rank, word rank)
    codes, so a row's final rank is its position. Rows compare as
    integers: a word beyond a row's width is 0.
    """

    def __init__(self, keys: np.ndarray, weights: np.ndarray | None = None):
        self.keys = keys
        self.weights = weights
        self._levels: list[tuple[np.ndarray, np.ndarray]] = []
        if len(keys):
            first = keys[:, 0]  # sorted, as the rows are
            values = first[np.r_[True, first[1:] != first[:-1]]]
            self._levels.append((values, values))
            prefix = np.searchsorted(values, first)
            for column in keys.T[1:]:
                values, rank = np.unique(column, return_inverse=True)
                code = prefix * len(values) + rank
                codes = code[np.r_[True, code[1:] != code[:-1]]]  # sorted, as the rows are
                prefix = np.searchsorted(codes, code)
                self._levels.append((values, codes))

    def find(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row position, found) of each (q, W') query row; positions of
        rows not found are arbitrary valid indices."""
        width = self.keys.shape[1]
        found = np.ones(len(queries), dtype=bool)
        if not len(self.keys):
            return np.zeros(len(queries), dtype=np.intp), ~found
        if queries.shape[1] > width:
            found &= ~queries[:, width:].any(axis=1)
        # searched in order of their first word, which keeps searchsorted's
        # successive probes close together
        order = np.argsort(queries[:, 0])
        queries = _fit_width(queries, width).take(order, axis=0)  # faster than a 2-D fancy index
        found = found[order]
        for level, ((values, codes), column) in enumerate(zip(self._levels, queries.T)):
            rank = np.minimum(np.searchsorted(values, column), len(values) - 1)
            found &= values[rank] == column
            if level == 0:
                prefix = rank
            else:
                code = prefix * len(values) + rank
                prefix = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
                found &= codes[prefix] == code
        position = np.empty_like(prefix)
        position[order] = prefix
        hit = np.empty_like(found)
        hit[order] = found
        return position, hit


def _both_halves(bits: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Per group, the key word that sets the group's bits in both side
    masks; each bit is taken at its offset within its 32-bit word."""
    half = np.zeros(n_groups, dtype=np.uint64)
    np.bitwise_or.at(half, groups, np.uint64(1) << (bits % _WORD_BITS).astype(np.uint64))
    return half << _WORD | half


def _remap(keys: np.ndarray, bits: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Key rows with bit i of both sides moved to bit bits[i], at `width`
    words per side, re-packed and sorted, with the source row of each.

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
        return _fit_width(keys, width), np.arange(len(keys))
    keys = _fit_width(keys, key_width(n_src))
    dropped = np.flatnonzero(bits < 0)
    keep = ~(keys & _both_halves(dropped, dropped // _WORD_BITS, keys.shape[1])).any(axis=1)
    rows = np.flatnonzero(keep)
    words = keys.take(rows, axis=0)  # faster than a boolean index of 2-D rows
    kept = np.flatnonzero(bits >= 0)
    target = bits[kept]
    source_word, target_word = kept // _WORD_BITS, target // _WORD_BITS
    shift = target % _WORD_BITS - kept % _WORD_BITS  # -31..31
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
    return out[order], rows[order]


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
    def _analogy_weights(self) -> np.ndarray:
        return analogy_weight(self.w_first, self.w_second)

    def _named_sides(self) -> tuple[list[tuple[str, ...]], np.ndarray, np.ndarray]:
        """The distinct sides of the rows as sorted element tuples, in
        sorted order, and per row the positions of its first and second
        side among them: the side whose tuple sorts first comes first.
        Each distinct side mask is named once: one `np.nonzero` over its
        bits, taken in element name order, lists every side's symbols."""
        halves = np.concatenate([self.keys >> _WORD, self.keys & _LOW])
        _, first_seen, inverse = np.unique(_row_code(halves), return_index=True, return_inverse=True)
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
        entries naming other elements are dropped."""
        elements = tuple(elements)
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
        return KeyTable(keys, self._analogy_weights[rows])

    def content_hash(self) -> str:
        """SHA-256 of the canonical form: the used element names sorted,
        then the key rows packed in that bit order and sorted, then the
        w_first and w_second columns in that row order."""
        used = np.bitwise_or.reduce(self.keys, axis=0) if len(self) else np.zeros(1, dtype=np.uint64)
        side_bits = np.unpackbits(((used >> _WORD) | (used & _LOW)).astype("<u4").view(np.uint8), bitorder="little")
        names = sorted(self.elements[i] for i in np.flatnonzero(side_bits))
        canonical = self.reindexed(names)
        digest = hashlib.sha256()
        digest.update(f"heafusion-store-3\n{','.join(names)}\n{canonical.keys.shape}\n".encode())
        digest.update(canonical.keys.astype("<u8").tobytes())
        for column in (canonical.w_first, canonical.w_second):
            digest.update(column.astype("<f8").tobytes())
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
    parts, sources = [], []
    for store in stores:
        keys, rows = _remap(store.keys, np.array([target[e] for e in store.elements], dtype=np.int64), width)
        parts.append(keys)
        sources.append(rows)
    keys = np.concatenate(parts) if parts else np.zeros((0, width), dtype=np.uint64)
    order = _row_order(keys)
    ordered = keys[order]
    starts = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)] if len(keys) else np.zeros(0, dtype=bool)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    positions, offset = [], 0
    for rows in sources:
        at = np.empty(len(rows), dtype=np.intp)
        at[rows] = inverse[offset:offset + len(rows)]
        positions.append(at)
        offset += len(rows)
    return elements, ordered[starts], positions


def _merge(
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
    new_keys: list[np.ndarray],
    new_same: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The running (keys, agree, disagree) table with single pairs added,
    one per key row with its label-agreement flag: distinct key rows,
    sorted, with the counts of equal rows summed."""
    keys = np.concatenate([table[0], *new_keys])
    agree = np.concatenate([table[1], *new_same], dtype=np.int64)
    disagree = np.concatenate([table[2], *(~same for same in new_same)], dtype=np.int64)
    if not len(keys):
        return keys, agree, disagree
    code = _row_code(keys)
    order = np.argsort(code)
    code = code[order]
    starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    return keys[order[starts]], np.add.reduceat(agree[order], starts), np.add.reduceat(disagree[order], starts)


class PairCounts(NamedTuple):
    """(agree, disagree) evidence counts per pair: distinct key rows in
    store layout, sorted, with int64 count columns."""

    keys: np.ndarray
    agree: np.ndarray
    disagree: np.ndarray


def pair_counts(words: np.ndarray, labels: Sequence[bool], max_size: int) -> PairCounts:
    """(agree, disagree) counts of every informative alloy pair, keyed by
    the pair's two difference masks; alloys are the rows of an
    `element_words` array.

    The pairs are the upper triangle of `informative_pairs`. They are
    merged into one running sorted count table once they outnumber both it
    and a fixed batch, so memory follows the number of distinct keys rather
    than the number of pairs.
    """
    flags = np.asarray(labels, dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    table = (np.zeros((0, words.shape[1]), dtype=np.uint64), empty, empty)
    new_keys: list[np.ndarray] = []
    new_same: list[np.ndarray] = []
    n_new = 0
    for block in informative_pairs(words, max_size):
        new_keys.append(block.keys)
        new_same.append(flags[block.first] == flags[block.second])
        n_new += len(block.keys)
        if n_new >= max(_MERGE_ROWS, len(table[0])):
            table = _merge(table, new_keys, new_same)
            new_keys, new_same, n_new = [], [], 0
    return PairCounts(*_merge(table, new_keys, new_same))


def _dataset_counts(dataset: Dataset, max_subst_size: int | None) -> PairCounts:
    alloys = [la.alloy for la in dataset.alloys]
    index = dataset.element_index()
    words = element_words((alloy.elements for alloy in alloys), index, key_width(len(index)))
    return pair_counts(words, dataset.labels(), substitution_limit(alloys, max_subst_size))


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
    """
    keys, agree, disagree = _dataset_counts(dataset, max_subst_size)
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for start in range(0, len(keys), _DICT_ROWS):
        part = slice(start, start + _DICT_ROWS)
        lo, hi = _words_to_ints(keys[part] >> _WORD), _words_to_ints(keys[part] & _LOW)
        out.update(zip(zip(lo, hi), zip(agree[part].tolist(), disagree[part].tolist())))
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
_LINE = "{},{},{},{}\r\n"  # a store row as csv.writer writes it: no cell needs quoting


def write_store(store: SimilarityStore, path: str | Path) -> None:
    """Serialize a store as CSV, rows sorted by combination pair; weights
    are written with 17 significant digits, or as `inf`, so the round-trip
    is bit-exact. Each distinct side and each distinct weight bit pattern
    (so -0.0 apart from 0.0) is formatted once, and lines are written a
    block of rows at a time."""
    path = Path(path)
    names, first, second = store._named_sides()
    order = np.lexsort((second, first))
    weights = np.concatenate((store.w_first[order], store.w_second[order])).astype(float, copy=False)
    patterns, weight_ids = np.unique(weights.view(np.uint64), return_inverse=True)
    side_text = ["-".join(name) for name in names]
    weight_text = [f"{w:.17g}" for w in patterns.view(float).tolist()]
    n = len(store)
    columns = ((side_text, first[order]), (side_text, second[order]),
               (weight_text, weight_ids[:n]), (weight_text, weight_ids[n:]))
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(_LINE.format(*_HEADER))
        for start in range(0, n, BLOCK_ROWS):
            fh.write("".join(map(_LINE.format, *(
                map(text.__getitem__, ids[start:start + BLOCK_ROWS].tolist()) for text, ids in columns
            ))))


def _first_holding(text: str, columns: Sequence[list[str]]) -> int:
    """Index of the first row that holds text in one of the columns."""
    return min(column.index(text) for column in columns if text in column)


def read_store(path: str | Path) -> SimilarityStore:
    """Load a store written by `write_store`; a malformed row, weights
    that are negative, NaN or both infinite, sides that overlap and a
    repeated pair raise ParseError with the row number.

    A store repeats few distinct sides and weights over many rows, so each
    distinct side text is parsed and each distinct weight text converted
    once, and the rows' ids and weights are gathered a block at a time.
    """
    path = Path(path)
    side_ids: dict[str, int] = {}
    sides: list[list[str]] = []
    values: dict[str, float] = {}
    blocks: list[tuple[np.ndarray, ...]] = [
        (np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),) * 2  # the columns of an empty store
    ]
    for block in read_blocks(path, _HEADER):
        combo_a, combo_b, w_similar, w_dissimilar = block.columns
        for side in dict.fromkeys(chain(combo_a, combo_b)):
            if side not in side_ids:
                try:
                    sides.append(parse_symbols(side))
                except ParseError as exc:
                    i = _first_holding(side, (combo_a, combo_b))
                    raise ParseError(str(exc), int(block.rows[i])) from None
                side_ids[side] = len(side_ids)
        for text in dict.fromkeys(chain(w_similar, w_dissimilar)):
            if text not in values:
                try:
                    values[text] = float(text)
                except ValueError:
                    i = _first_holding(text, (w_similar, w_dissimilar))
                    raise ParseError(f"weights must be numbers, got {w_similar[i]!r} and {w_dissimilar[i]!r}",
                                     int(block.rows[i])) from None
        n = len(combo_a)
        ids = [np.fromiter(map(side_ids.__getitem__, column), dtype=np.intp, count=n) for column in (combo_a, combo_b)]
        weights = [np.fromiter(map(values.__getitem__, column), dtype=float, count=n)
                   for column in (w_similar, w_dissimilar)]
        blocks.append((block.rows, *ids, *weights))
    linenos, first, second, w_first, w_second = map(np.concatenate, zip(*blocks))
    del blocks  # copied into the columns above
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
    repeat = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
    if len(repeat):
        earlier, later = order[repeat], order[repeat + 1]
        j = int(np.argmin(later))
        pair = CombinationPair(sides[first[later[j]]], sides[second[later[j]]])
        raise ParseError(f"pair {pair} repeats row {linenos[earlier[j]]}", int(linenos[later[j]]))
    return SimilarityStore(elements, keys, w_first[order], w_second[order])
