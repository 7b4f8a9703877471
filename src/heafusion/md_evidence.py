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
alpha-independent, so one scan serves every alpha.

Stores are columnar. A `SimilarityStore` holds its element tuple (bit i of
a side mask is element i), one row of packed key words per entry and two
float64 columns of weights of evidence. A side mask is split into 32-bit
words, and key word w packs word w of the smaller side mask (compared as integers) in its high
half and word w of the larger side's in its low half, so one layout covers
every table up to the 103-symbol element table. Rows are distinct and
sorted lexicographically, word 0 first, which is the order `pair_counts`
produces, so the scan's arrays become a store without per-entry objects.
Lookups use `np.searchsorted` (`KeyTable`); combination pairs and element
strings appear only at the edges: `get`, `weights`, `items`,
`from_entries`, `write_store` and the error messages of `read_store`.
`content_hash` digests one canonical byte buffer: the used element names
sorted, the keys re-packed in that bit order and sorted, then the weight
columns, so it does not depend on bit or insertion order. Store files
hold the weights as 17-digit floats or `inf`, so their round trip is exact.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .alloys import Alloy, Dataset, parse_symbols, read_rows
from .belief import BinaryMass, from_weights
from .errors import AlphaOutOfRange, ConfigError, ParseError

__all__ = [
    "CombinationPair",
    "ExtractionConfig",
    "KeyTable",
    "PairCounts",
    "SimilarityStore",
    "analogy_weight",
    "extract_all",
    "extract_counts",
    "pair_counts",
    "counts_to_store",
    "evidence_weight",
    "element_words",
    "key_width",
    "mass_from_counts",
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
_BLOCK_PAIRS = 1 << 15  # alloy pairs compared per block of outer rows
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
        queries = _fit_width(queries, width)[order]
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


_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(np.uint64)  # (byte value, bit)


def _remap(keys: np.ndarray, bits: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Key rows with bit i of both sides moved to bit bits[i], at `width`
    words per side, re-packed and sorted, with the source row of each.

    Rows using an element with bits[i] < 0 are dropped. Each byte of a
    side word is mapped through a 256-entry table of target words, so the
    cost is a few gathers per row, not one pass per bit.
    """
    n_src = len(bits)
    if np.array_equal(bits, np.arange(n_src)) and key_width(n_src) <= width:
        return _fit_width(keys, width), np.arange(len(keys))
    n_bytes = -(-n_src // 8)
    target = np.zeros((8 * n_bytes, width), dtype=np.uint64)  # the target bit of each source bit
    moved = np.flatnonzero(bits >= 0)
    target[moved, bits[moved] // _WORD_BITS] = np.uint64(1) << (bits[moved] % _WORD_BITS).astype(np.uint64)
    dropped = np.zeros(8 * n_bytes, dtype=np.uint64)
    dropped[:n_src] = bits < 0
    # distinct target bits, so a sum over a byte's set bits is their OR
    tables = np.einsum("vt,ptw->pvw", _BYTE_BITS, target.reshape(n_bytes, 8, width))  # (byte position, value, word)
    drops = (_BYTE_BITS @ dropped.reshape(n_bytes, 8).T).T > 0  # (byte position, value)

    keep = np.ones(len(keys), dtype=bool)
    sides = []
    for side in (keys >> _WORD, keys & _LOW):
        as_bytes = side.astype("<u4").view(np.uint8).reshape(len(keys), 4 * side.shape[1])
        out = np.zeros((len(keys), width), dtype=np.uint64)
        for p in range(min(n_bytes, as_bytes.shape[1])):  # higher bytes of the words are 0
            out |= tables[p][as_bytes[:, p]]
            keep &= ~drops[p][as_bytes[:, p]]
        sides.append(out)
    remapped = pack_keys(*(side[keep] for side in sides))
    order = _row_order(remapped)
    return remapped[order], np.flatnonzero(keep)[order]


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
    def _table(self) -> KeyTable:
        return KeyTable(self.keys)

    @cached_property
    def _analogy_weights(self) -> np.ndarray:
        return analogy_weight(self.w_first, self.w_second)

    @cached_property
    def _bit(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def _rows(self, pairs: Sequence[CombinationPair]) -> np.ndarray:
        """Row of each pair, -1 where the store does not hold it."""
        bit = self._bit
        known = [i for i, pair in enumerate(pairs) if all(e in bit for e in pair.first + pair.second)]
        width = key_width(len(self.elements))
        pos, found = self._table.find(pack_keys(*(
            element_words([getattr(pairs[i], side) for i in known], bit, width) for side in ("first", "second")
        )))
        rows = np.full(len(pairs), -1, dtype=np.intp)
        rows[np.array(known, dtype=np.intp)[found]] = pos[found]
        return rows

    def weights(self, pairs: Sequence[CombinationPair]) -> np.ndarray:
        """(w_first, w_second) row of each pair, (0, 0) where absent."""
        rows = self._rows(pairs)
        out = np.zeros((len(pairs), 2))
        held = rows >= 0
        out[held] = np.stack([self.w_first[rows[held]], self.w_second[rows[held]]], axis=1)
        return out

    def get(self, pair: CombinationPair) -> BinaryMass:
        """The pair's evidence read out as a mass."""
        return BinaryMass(*from_weights(*self.weights([pair])[0].tolist()))

    def similarity(self, pair: CombinationPair) -> float:
        return self.get(pair).m_first

    def __contains__(self, pair: CombinationPair) -> bool:
        return bool(self._rows([pair])[0] >= 0)

    def _named_sides(self) -> tuple[list[tuple[str, ...]], np.ndarray, np.ndarray]:
        """The distinct sides of the rows as sorted element tuples, in
        sorted order, and per row the positions of its first and second
        side among them: the side whose tuple sorts first comes first.
        Each distinct side mask is named once."""
        halves = np.concatenate([self.keys >> _WORD, self.keys & _LOW])
        _, first_seen, inverse = np.unique(_row_code(halves), return_index=True, return_inverse=True)
        bits = np.unpackbits(halves[first_seen].astype("<u4").view(np.uint8), axis=1, bitorder="little")
        names = [tuple(sorted(self.elements[i] for i in np.flatnonzero(row))) for row in bits]
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


def union_rows(stores: Sequence[SimilarityStore]) -> tuple[tuple[str, ...], np.ndarray, list[np.ndarray]]:
    """Alignment of several stores: their element tuples merged in order
    (first appearance), the distinct key rows of all of them in that bit
    order, sorted, and for each store the position of each of its rows
    among them."""
    elements = tuple(dict.fromkeys(e for store in stores for e in store.elements))
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

    A pair is informative when the alloys share an element, neither
    contains the other, and each difference side has at most max_size
    elements. A block of outer rows is compared with all later rows at
    once. The kept pairs are merged into one running sorted count table
    once they outnumber both it and a fixed batch, so memory follows the
    number of distinct keys rather than the number of pairs.
    """
    flags = np.asarray(labels, dtype=bool)
    n = len(words)
    empty = np.zeros(0, dtype=np.int64)
    table = (np.zeros((0, words.shape[1]), dtype=np.uint64), empty, empty)
    new_keys: list[np.ndarray] = []
    new_same: list[np.ndarray] = []
    n_new = 0
    block = max(1, _BLOCK_PAIRS // max(1, n))
    for start in range(0, n - 1, block):
        outer = words[start:start + block, None]  # (b, 1, W) against all later rows (m, W)
        later = words[start + 1:]
        shared = outer & later
        left = shared ^ outer  # in the outer alloy only
        right = shared ^ later  # in the later alloy only
        n_left = np.bitwise_count(left).sum(axis=2)
        n_right = np.bitwise_count(right).sum(axis=2)
        after = np.arange(len(later)) >= np.arange(len(outer))[:, None]  # later row index > outer row index
        rows, cols = np.nonzero(
            after & shared.any(axis=2) & (n_left > 0) & (n_right > 0) & (n_left <= max_size) & (n_right <= max_size)
        )
        new_keys.append(pack_keys(left[rows, cols], right[rows, cols]))
        new_same.append(flags[start + rows] == flags[start + 1 + cols])
        n_new += len(rows)
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
    of a mask is element i of the dataset's universe; max_subst_size
    resolves through `substitution_limit`.
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


def mass_from_counts(n_agree: int, n_disagree: int, alpha: float) -> BinaryMass:
    """Dempster fold of n_agree agreeing and n_disagree disagreeing pieces.

    Equals combining n_agree copies of (alpha, 0, 1-alpha) with n_disagree
    copies of (0, alpha, 1-alpha) in any order: the weights of evidence add
    up to n * -ln(1 - alpha) per side.
    """
    weight = evidence_weight(alpha)
    return BinaryMass(*from_weights(n_agree * weight, n_disagree * weight))


def counts_to_store(counts: PairCounts, alpha: float, universe: Sequence[str]) -> SimilarityStore:
    """The store of every key's counts times the weight of one piece of
    evidence; the keys' bits name the universe's elements."""
    weight = evidence_weight(alpha)
    return SimilarityStore(tuple(universe), counts.keys, weight * counts.agree, weight * counts.disagree)


def extract_all(dataset: Dataset, config: ExtractionConfig) -> SimilarityStore:
    """Scan all alloy pairs and pool their evidence into a similarity store."""
    return counts_to_store(_dataset_counts(dataset, config.max_subst_size), config.alpha, dataset.universe)


_HEADER = ["combo_a", "combo_b", "w_similar", "w_dissimilar"]


def write_store(store: SimilarityStore, path: str | Path) -> None:
    """Serialize a store as CSV, rows sorted by combination pair; weights
    are written with 17 significant digits, or as `inf`, so the round-trip
    is bit-exact."""
    path = Path(path)
    names, first, second = store._named_sides()
    text = ["-".join(name) for name in names]
    order = np.lexsort((second, first))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        writer.writerows(
            [text[a], text[b], f"{w1:.17g}", f"{w2:.17g}"]
            for a, b, w1, w2 in zip(first[order].tolist(), second[order].tolist(),
                                    store.w_first[order].tolist(), store.w_second[order].tolist())
        )


def read_store(path: str | Path) -> SimilarityStore:
    """Load a store written by `write_store`; a malformed row, weights
    that are negative, NaN or both infinite, sides that overlap and a
    repeated pair raise ParseError with the row number."""
    path = Path(path)
    side_ids: dict[str, int] = {}  # a store repeats few distinct sides over many rows
    sides: list[list[str]] = []
    rows: list[tuple[int, int, int]] = []
    weights: list[tuple[float, float]] = []
    for lineno, (combo_a, combo_b, w_similar, w_dissimilar) in read_rows(path, _HEADER):
        for side in (combo_a, combo_b):
            if side not in side_ids:
                side_ids[side] = len(sides)
                sides.append(parse_symbols(side, lineno))
        try:
            weights.append((float(w_similar), float(w_dissimilar)))
        except ValueError:
            raise ParseError(f"weights must be numbers, got {w_similar!r} and {w_dissimilar!r}", lineno) from None
        rows.append((lineno, side_ids[combo_a], side_ids[combo_b]))
    linenos, first, second = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    w = np.array(weights, dtype=float).reshape(-1, 2) + 0.0  # -0.0 reads as 0.0
    elements = tuple(sorted({e for side in sides for e in side}))
    words = element_words(sides, {e: i for i, e in enumerate(elements)}, key_width(len(elements)))
    bad = ~(w >= 0.0).all(axis=1) | np.isinf(w).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"weights must be non-negative and not both infinite, got {w[i, 0]} and {w[i, 1]}",
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
    return SimilarityStore(elements, keys, w[order, 0], w[order, 1])
