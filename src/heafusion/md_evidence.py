"""Substitutability evidence extracted from labeled alloy datasets.

Every pair of alloys that shares elements and differs on both sides is
one piece of evidence about its pair of difference combinations, judged
under the shared elements as context: mass alpha lands on {similar} when
the labels agree and on {dissimilar} when they differ, the rest on the
full frame. Each piece is simple support with weight of evidence
-ln(1 - alpha), and Dempster's rule adds weights, so a pair's pooled
evidence is its (agree, disagree) counts times that weight, read out once
by `belief.from_weights` into the similarity store.

The pair scan is the hot loop; alloys are folded to bitmasks and each
block of alloys is compared with all later ones in numpy array operations,
so a 14,950-alloy dataset stays tractable in one process. The counts are
alpha-independent, so one scan serves every alpha.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .alloys import Dataset, alloy_masks, mask_to_elements
from .belief import BinaryMass, from_weights, support_weight, vacuous
from .errors import AlphaOutOfRange, ParseError

__all__ = [
    "CombinationPair",
    "ExtractionConfig",
    "SimilarityStore",
    "extract_all",
    "extract_counts",
    "pair_counts",
    "counts_to_store",
    "evidence_weight",
    "mass_from_counts",
    "read_store",
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
        if self.max_subst_size is not None and self.max_subst_size < 1:
            raise ValueError(f"max_subst_size must be >= 1, got {self.max_subst_size}")


@dataclass(frozen=True)
class SimilarityStore:
    """Sparse map from CombinationPair to combined substitutability mass.

    Lookup of an absent pair is vacuous (total uncertainty). Symmetry in
    the two sides is guaranteed by the canonical pair key. Treat as
    immutable once built.
    """

    entries: dict[CombinationPair, BinaryMass] = field(default_factory=dict)

    def get(self, pair: CombinationPair) -> BinaryMass:
        return self.entries.get(pair, vacuous())

    def similarity(self, pair: CombinationPair) -> float:
        return self.entries[pair].m_first if pair in self.entries else 0.0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, pair: CombinationPair) -> bool:
        return pair in self.entries

    def items(self) -> Iterator[tuple[CombinationPair, BinaryMass]]:
        return iter(self.entries.items())

    def mask_view(self, index: Mapping[str, int]) -> dict[tuple[int, int], float]:
        """Analogy weight of evidence -ln(m_second + m_both), the
        `belief.support_weight` of each entry's similarity, keyed by
        bitmask pair for hot-loop lookups.

        Entries naming elements outside the index cannot be reached by any
        substitution within that universe and are skipped.
        """
        keys: list[tuple[int, int]] = []
        rest: list[float] = []
        for pair, mass in self.entries.items():
            try:
                a = sum(1 << index[e] for e in pair.first)
                b = sum(1 << index[e] for e in pair.second)
            except KeyError:
                continue
            keys.append((a, b) if a < b else (b, a))
            rest.append(mass.m_second + mass.m_both)
        return dict(zip(keys, support_weight(np.array(rest, dtype=float)).tolist()))

    def rows(self) -> list[tuple[str, str, float, float, float]]:
        """Canonical row form used by serialization and hashing."""
        out = []
        for pair in sorted(self.entries):
            m = self.entries[pair]
            out.append(("-".join(pair.first), "-".join(pair.second), m.m_first, m.m_second, m.m_both))
        return out

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        for row in self.rows():
            digest.update(f"{row[0]},{row[1]},{row[2]:.17g},{row[3]:.17g},{row[4]:.17g}\n".encode())
        return digest.hexdigest()


# A pair key packs one 32-bit word of each side into a uint64, so masks are
# split into W 32-bit words, enough for the highest bit in use: one word for
# E1 and E2, at most four for the 103-symbol element table.
_WORD_BITS = 32
_WORD = np.uint64(_WORD_BITS)
_LOW = np.uint64((1 << _WORD_BITS) - 1)
_BLOCK_PAIRS = 1 << 15  # alloy pairs compared per block of outer rows
_MERGE_ROWS = 1 << 22  # pending pair rows before they are merged into the running counts
_DICT_ROWS = 1 << 16  # keys converted to Python ints at a time


def _mask_words(masks: Sequence[int]) -> np.ndarray:
    """(n, W) uint64 array of each mask's 32-bit words, least significant first."""
    width = max(1, -(-max(masks, default=0).bit_length() // _WORD_BITS))
    low = (1 << _WORD_BITS) - 1
    rows = [[m >> (_WORD_BITS * w) & low for w in range(width)] for m in masks]
    return np.array(rows, dtype=np.uint64).reshape(len(masks), width)


def _words_to_ints(words: np.ndarray) -> list[int]:
    """Inverse of `_mask_words`: one Python int per row."""
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


def pair_counts(
    masks: Sequence[int], labels: Sequence[bool], max_size: int
) -> dict[tuple[int, int], tuple[int, int]]:
    """(agree, disagree) counts of every informative alloy pair, keyed by
    the pair's two difference masks as (smaller, larger).

    A pair is informative when the alloys share an element, neither
    contains the other, and each difference side has at most max_size
    elements. A block of outer rows is compared with all later rows at
    once. The kept pairs are merged into one running sorted count table
    once they outnumber both it and a fixed batch, so memory follows the
    number of distinct keys rather than the number of pairs.
    """
    words = _mask_words(masks)
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
        left, right = left[rows, cols], right[rows, cols]
        swap = _less(right, left)[:, None]
        lo, hi = np.where(swap, right, left), np.where(swap, left, right)
        new_keys.append(lo << _WORD | hi)
        new_same.append(flags[start + rows] == flags[start + 1 + cols])
        n_new += len(rows)
        if n_new >= max(_MERGE_ROWS, len(table[0])):
            table = _merge(table, new_keys, new_same)
            new_keys, new_same, n_new = [], [], 0
    keys, agree, disagree = _merge(table, new_keys, new_same)

    out: dict[tuple[int, int], tuple[int, int]] = {}
    for start in range(0, len(keys), _DICT_ROWS):
        part = slice(start, start + _DICT_ROWS)
        lo, hi = _words_to_ints(keys[part] >> _WORD), _words_to_ints(keys[part] & _LOW)
        out.update(zip(zip(lo, hi), zip(agree[part].tolist(), disagree[part].tolist())))
    return out


def extract_counts(
    dataset: Dataset,
    max_subst_size: int | None = None,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Per-pair (agree, disagree) evidence counts, keyed by bitmask pair.

    The counts are a sufficient statistic for the combined mass at any
    alpha, which is what makes the alpha grid search affordable. Bits
    follow `alloy_masks` under the dataset's element index; max_subst_size
    defaults to the largest alloy size minus one, which keeps every
    informative pair.
    """
    masks = alloy_masks((la.alloy for la in dataset.alloys), dataset.element_index())
    if max_subst_size is None:
        max_subst_size = max((len(la.alloy.elements) for la in dataset.alloys), default=2) - 1
    return pair_counts(masks, dataset.labels(), max_subst_size)


def evidence_weight(alpha: float) -> float:
    """Weight of evidence -ln(1 - alpha) of one piece of pair evidence."""
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    return -math.log1p(-alpha)


def mass_from_counts(n_agree: int, n_disagree: int, alpha: float) -> BinaryMass:
    """Dempster fold of n_agree agreeing and n_disagree disagreeing pieces.

    Equals combining n_agree copies of (alpha, 0, 1-alpha) with n_disagree
    copies of (0, alpha, 1-alpha) in any order: the weights of evidence add
    up to n * -ln(1 - alpha) per side.
    """
    weight = evidence_weight(alpha)
    return BinaryMass(*from_weights(n_agree * weight, n_disagree * weight))


def counts_to_store(
    counts: Mapping[tuple[int, int], tuple[int, int]],
    alpha: float,
    universe: Sequence[str],
) -> SimilarityStore:
    """`mass_from_counts` of every key, read out in one array call, keyed
    by the combination pair of its two difference masks."""
    weight = evidence_weight(alpha)
    agree, disagree = np.array(list(counts.values()), dtype=float).reshape(-1, 2).T
    masses = from_weights(weight * agree, weight * disagree)
    entries: dict[CombinationPair, BinaryMass] = {}
    for (mask_a, mask_b), m_first, m_second, m_both in zip(counts, *(m.tolist() for m in masses)):
        pair = CombinationPair(mask_to_elements(mask_a, universe), mask_to_elements(mask_b, universe))
        entries[pair] = BinaryMass(m_first, m_second, m_both)
    return SimilarityStore(entries)


def extract_all(dataset: Dataset, config: ExtractionConfig) -> SimilarityStore:
    """Scan all alloy pairs and pool their evidence into a similarity store."""
    counts = extract_counts(dataset, config.max_subst_size)
    return counts_to_store(counts, config.alpha, dataset.universe)


_HEADER = ["combo_a", "combo_b", "m_similar", "m_dissimilar", "m_uncertain"]


def write_store(store: SimilarityStore, path: str | Path) -> None:
    """Serialize a store as CSV; floats carry 17 significant digits so the
    round-trip is bit-exact."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for combo_a, combo_b, m_sim, m_dis, m_unc in store.rows():
            writer.writerow([combo_a, combo_b, f"{m_sim:.17g}", f"{m_dis:.17g}", f"{m_unc:.17g}"])


def read_store(path: str | Path) -> SimilarityStore:
    """Load a store written by `write_store`; any malformed row raises
    ParseError with its row number."""
    path = Path(path)
    entries: dict[CombinationPair, BinaryMass] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != _HEADER:
            raise ParseError(f"header must be {','.join(_HEADER)}, got {header}", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_HEADER):
                raise ParseError(f"expected {len(_HEADER)} columns, got {len(row)}", lineno)
            try:
                pair = CombinationPair(row[0].split("-"), row[1].split("-"))
                entries[pair] = BinaryMass(float(row[2]), float(row[3]), float(row[4]))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    return SimilarityStore(entries)
