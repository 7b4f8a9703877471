"""Canonical alloy representation, element universes, dataset file I/O
and dataset splits.

Alloys are equiatomic element sets; labels are booleans with True as the
positive class (phase forms / property present), held by a dataset as one
bool array. Datasets are immutable after load and safe to share between
threads. Splits take their rows with `Dataset.take` and draw all
randomness from explicit seeds.
"""

from __future__ import annotations

import csv
import io
import random
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, compress, islice
from math import comb
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ElementAbsent,
    EmptyDataset,
    FoldsOutOfRange,
    FractionDegenerate,
    FractionOutOfRange,
    KTooLarge,
    ParseError,
    TooFewElements,
)

# IUPAC symbols for elements 1-103.
ELEMENT_SYMBOLS: tuple[str, ...] = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr",
)
_ELEMENT_SET = frozenset(ELEMENT_SYMBOLS)
_SYMBOL_RE = re.compile(r"^[A-Z][a-z]?$")

# Named element universes selectable by preset.
UNIVERSES: dict[str, tuple[str, ...]] = {
    # 26 elements covering the quaternary stability datasets.
    "E1": (
        "Fe", "Co", "Ir", "Cu", "Ni", "Pt", "Pd", "Rh", "Au", "Ag",
        "Ru", "Os", "Si", "As", "Al", "Re", "Mn", "Ta", "Ti", "W",
        "Mo", "Cr", "V", "Hf", "Nb", "Zr",
    ),
    # 21 transition metals covering the magnetic-property datasets.
    "E2": (
        "Fe", "Co", "Ir", "Cu", "Ni", "Pt", "Pd", "Rh", "Au", "Ag",
        "Ru", "Os", "Tc", "Re", "Mn", "Ta", "W", "Mo", "Cr", "V",
        "Nb",
    ),
}

_TRUE_LABELS = {"1", "true", "hea"}
_FALSE_LABELS = {"0", "false", "nonhea"}


MASK_WORD_BITS = 32  # bits per word of a mask; a store key word packs two such words


def key_width(n_bits: int) -> int:
    """Words per side mask for bit positions below n_bits (at least one)."""
    return max(1, -(-n_bits // MASK_WORD_BITS))


def element_words(combinations: Iterable[Sequence[str]], index: Mapping[str, int], width: int) -> np.ndarray:
    """(n, width) uint64 array of each element combination's bitmask under
    index (element -> bit), split into 32-bit words, least significant
    first: the one mask representation of the library."""
    combinations = list(combinations)
    sizes = [len(c) for c in combinations]
    bits = np.fromiter((index[e] for c in combinations for e in c), dtype=np.int64, count=sum(sizes))
    words = np.zeros((len(combinations), width), dtype=np.uint64)
    # a combination's elements are distinct, so adding their bits is OR-ing them
    np.add.at(words, (np.repeat(np.arange(len(combinations)), sizes), bits // MASK_WORD_BITS),
              np.uint64(1) << (bits % MASK_WORD_BITS).astype(np.uint64))
    return words


def is_element_symbol(symbol: str) -> bool:
    """Structural check: one or two letters, first uppercase."""
    return bool(_SYMBOL_RE.match(symbol))


@dataclass(frozen=True, order=True)
class Alloy:
    """Canonically ordered set of element symbols (equiatomic composition)."""

    elements: tuple[str, ...]

    def __init__(self, elements: Iterable[str]):
        elems = tuple(sorted(elements))
        if len(set(elems)) != len(elems):
            raise ValueError(f"duplicate element in alloy {elems}")
        if len(elems) < 2:
            raise ValueError(f"alloy needs at least 2 elements, got {elems}")
        for e in elems:
            if not is_element_symbol(e):
                raise ValueError(f"invalid element symbol {e!r}")
        object.__setattr__(self, "elements", elems)

    @property
    def element_set(self) -> frozenset[str]:
        return frozenset(self.elements)

    def composition(self) -> str:
        return "-".join(self.elements)

    def __str__(self) -> str:
        return self.composition()


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable labeled alloys over a declared universe: a tuple of alloys
    and a read-only bool array of their labels, row for row (True = positive
    class). Compared by identity, as `SimilarityStore` is; a label column of
    another length than the alloys raises ValueError."""

    name: str
    alloys: tuple[Alloy, ...]
    labels: np.ndarray
    universe: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alloys", tuple(self.alloys))
        labels = np.array(self.labels, dtype=bool)
        if labels.shape != (len(self.alloys),):
            raise ValueError(f"label column of shape {labels.shape} for {len(self.alloys)} alloys")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        universe_set = set(self.universe)
        if len(universe_set) != len(self.universe):
            raise ValueError("universe contains duplicate symbols")
        unknown = universe_set - _ELEMENT_SET
        if unknown:
            raise ValueError(f"universe symbols not in element table: {sorted(unknown)}")
        seen: set[tuple[str, ...]] = set()
        for alloy in self.alloys:
            if alloy.elements in seen:
                raise ValueError(f"duplicate alloy {alloy}")
            seen.add(alloy.elements)
            outside = set(alloy.elements) - universe_set
            if outside:
                raise ValueError(f"alloy {alloy} uses elements outside universe: {sorted(outside)}")

    def __len__(self) -> int:
        return len(self.alloys)

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.labels))

    def element_index(self) -> dict[str, int]:
        """Universe symbol -> bit position, the one bit order of the
        library: bit i of every alloy mask and store key built over this
        dataset is symbol i of the sorted universe. The universe keeps its
        own order for everything shown to the user."""
        return {e: i for i, e in enumerate(sorted(self.universe))}

    @property
    def bit_names(self) -> tuple[str, ...]:
        """The symbol of each bit of `element_index`: the universe sorted."""
        return tuple(self.element_index())

    @cached_property
    def words(self) -> np.ndarray:
        """The alloys' masks under `element_index`, as read-only
        `element_words` rows of `key_width(len(universe))` words; built
        once per dataset, so the scan, the γ estimate and prediction over
        one training set share them."""
        words = element_words((a.elements for a in self.alloys), self.element_index(),
                              key_width(len(self.universe)))
        words.flags.writeable = False
        return words

    def take(self, indices: Sequence[int] | np.ndarray, suffix: str = "") -> "Dataset":
        """The rows at `indices`, in that order, over the same universe and
        named with `suffix`: every split and fold. Its masks are the
        parent's rows `words[indices]`, not rebuilt."""
        indices = np.asarray(indices, dtype=np.intp)
        subset = Dataset(self.name + suffix, tuple(map(self.alloys.__getitem__, indices.tolist())),
                         self.labels[indices], self.universe)
        words = self.words[indices]
        words.flags.writeable = False
        subset.__dict__["words"] = words  # where `cached_property` keeps its value
        return subset


def _resolve_universe(universe: Sequence[str] | str | None, elements_seen: Iterable[str]) -> tuple[str, ...]:
    if universe is None:
        return tuple(sorted(set(elements_seen)))
    if isinstance(universe, str):
        try:
            return UNIVERSES[universe]
        except KeyError:
            raise ConfigError(f"unknown universe preset {universe!r}; have {sorted(UNIVERSES)}") from None
    return tuple(universe)


def parse_label(text: str, row: int | None = None) -> bool:
    value = text.strip().lower()
    if value in _TRUE_LABELS:
        return True
    if value in _FALSE_LABELS:
        return False
    raise ParseError(f"unrecognized label {text!r}", row)


def parse_symbols(text: str, row: int | None = None) -> list[str]:
    """Hyphen-joined element symbols. Duplicate symbols and symbols
    outside the element table raise ParseError carrying the row number."""
    symbols = [s.strip() for s in text.split("-")]
    if len(set(symbols)) != len(symbols):
        raise ParseError(f"duplicate element in composition {text!r}", row)
    for s in symbols:
        if s not in _ELEMENT_SET:
            raise ParseError(f"unknown element {s!r}", row)
    return symbols


def parse_composition(text: str, row: int | None = None) -> Alloy:
    """Alloy from `parse_symbols`; a single element also raises
    ParseError carrying the row number."""
    symbols = parse_symbols(text, row)
    try:
        return Alloy(symbols)
    except ValueError as exc:
        raise ParseError(str(exc), row) from None


BLOCK_ROWS = 4096  # rows per block; 65,536-row blocks took the cli-pipeline benchmark from 67 to 83 MB peak RSS
_READ_CHARS = 1 << 16  # characters per read while a block's lines are gathered
_ASCII_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f"  # the ASCII white space of `str.isspace` besides line ends


class RowBlock(NamedTuple):
    """Up to BLOCK_ROWS non-blank rows of a CSV file: their row numbers and
    one list of cells per requested column."""

    rows: np.ndarray
    columns: list[list[str]]


def read_blocks(
    path: str | Path, columns: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[RowBlock]:
    """The one CSV reader of every input format: yields blocks of rows,
    each with the row numbers and the cells of `columns` then `optional`,
    in that order.

    Row 1 is the header, whose cells name the columns in any order and
    case; a UTF-8 byte-order mark is allowed. Blank rows (no cell holds
    more than white space) are skipped. An optional column the header
    lacks, or a row ends before, reads as "".

    The checks run in this order. First the header: a missing column or a
    column named twice raises ParseError on row 1. Then, per block of at
    most BLOCK_ROWS rows, the encoding (bytes that are not UTF-8 or CSV
    the csv module rejects raise ParseError) and the width (a row without
    a cell for one of `columns`, or with more cells than the header,
    raises ParseError with its row number). Last the caller checks the
    block's cells. A file with a single fault raises the same error as a
    row-at-a-time reader would; in a file with several faults, another of
    them may be reported, such as a width fault before a content fault in
    an earlier row of the same block.

    After the header, the file is read a block of BLOCK_ROWS lines at a
    time, and the input picks each block's path. A regular block is split
    as text, with no Python list per row: its lines are joined with a NUL
    cell between them, one `str.split(",")` lists its cells, and every
    column is one slice of them. A block is regular when the csv module
    would read each of its lines as one row of the header's width with no
    quoting and no blank cell: it holds no `"` and no NUL, its lines end
    all in `\\n` or all in `\\r\\n` and hold no other `\\r`, every line has
    the header's width in cells, and no cell is empty, white space or
    beyond the csv field size limit. Store and dataset files as this
    library writes them are regular throughout. The first block that is
    not regular, and the rest of the file after it, go through the csv
    module, the one reader of quoted, ragged and blank rows: a quoted cell
    may span lines, so once quotes appear, lines are no longer rows. Both
    paths yield the same rows and cells and raise the same errors. Bytes
    that are not UTF-8 raise the error of reading the file line by line,
    whose message names the byte by its place in that reading.
    """
    path = Path(path)
    try:
        yield from _read_blocks(path, columns, optional)
    except UnicodeDecodeError as exc:
        raise _decode_fault(path, exc) from None


def _read_blocks(path: Path, columns: Sequence[str], optional: Sequence[str]) -> Iterator[RowBlock]:
    with path.open(newline="", encoding="utf-8-sig") as fh:
        header = _next_rows(csv.reader(fh), 1, path)
        if not header:
            raise ParseError(f"{path} is empty", 1)
        header = [h.strip().lower() for h in header[0]]
        missing = [name for name in columns if name not in header]
        if missing:
            raise ParseError(f"header must declare columns {list(columns)}, missing {missing}", 1)
        repeated = [name for name in dict.fromkeys((*columns, *optional)) if header.count(name) > 1]
        if repeated:
            raise ParseError(f"header names column {repeated[0]!r} more than once", 1)
        width = len(header)
        # absent optional columns read index `width`, beyond every row
        take = [header.index(name) for name in columns]
        take_optional = [header.index(name) if name in header else width for name in optional]
        start = 2
        for lines, unread in _line_blocks(fh):
            cells = _regular_cells(lines, width)
            if cells is None:
                # the text from this block on, cut at a line end, then the rest of the file
                reader = csv.reader(chain(io.StringIO(unread + fh.readline(), newline=""), fh))
                yield from _csv_blocks(reader, path, start, width, take, take_optional)
                return
            n = len(lines)
            yield RowBlock(np.arange(start, start + n),
                           [cells[i::width + 1] if i < width else [""] * n for i in (*take, *take_optional)])
            start += n


def _line_blocks(fh) -> Iterator[tuple[list[str], str]]:
    """The rest of a text file in blocks of BLOCK_ROWS lines (fewer in the
    last), each with the text not yet yielded, from the block's first line
    to the end of what was read. A block's lines end as its first line
    does, with "\\r\\n" or with "\\n", and hold no line end of that kind."""
    rest = ""
    while True:
        pieces, ends = [rest], rest.count("\n")
        while ends < BLOCK_ROWS and (piece := fh.read(_READ_CHARS)):
            pieces.append(piece)
            ends += piece.count("\n")
        unread = "".join(pieces)
        if not unread:
            return
        first_end = unread.find("\n")
        lines = unread.split("\r\n" if unread[first_end - 1:first_end] == "\r" else "\n", BLOCK_ROWS)
        rest = lines.pop()
        if ends < BLOCK_ROWS and rest:  # the file's last line, with no line end
            lines.append(rest)
            rest = ""
        yield lines, unread


def _regular_cells(lines: list[str], width: int) -> list[str] | None:
    """The cells of a regular block of lines (see `read_blocks`), row by
    row with a NUL cell after each row but the last, or None."""
    # with a NUL cell between lines, the lines all hold `width` cells exactly
    # when every (width + 1)-th cell is one and the text holds no other NUL
    n = len(lines)
    text = ",\x00,".join(lines)
    if '"' in text or "\r" in text or "\n" in text or text.count("\x00") != n - 1:
        return None  # quotes, a line end of another kind, or a NUL
    if not text or text[0] == "," or text[-1] == "," or ",," in text:
        return None  # an empty cell
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    cells = text.split(",")
    if len(cells) != n * (width + 1) - 1 or cells[width::width + 1].count("\x00") != n - 1:
        return None
    if (not text.isascii() or any(map(text.__contains__, _ASCII_SPACES))) and any(map(str.isspace, cells)):
        return None
    return cells


def _csv_blocks(reader, path: Path, start: int, width: int, take: list[int],
                take_optional: list[int]) -> Iterator[RowBlock]:
    """The blocks of the rows of a csv reader, numbered from `start`."""
    needed = max(take) + 1
    while rows := _next_rows(reader, BLOCK_ROWS, path):
        numbers = np.arange(start, start + len(rows))
        start += len(rows)
        filled = list(map(bool, map(str.strip, map("".join, rows))))
        if not all(filled):
            rows = list(compress(rows, filled))
            numbers = numbers[np.array(filled, dtype=bool)]
            if not rows:
                continue
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        misfit = (lengths < needed) | (lengths > width)
        if misfit.any():
            i = int(np.argmax(misfit))
            if lengths[i] < needed:
                raise ParseError(f"expected at least {needed} columns, got {lengths[i]}", int(numbers[i]))
            raise ParseError(f"expected at most {width} columns, as in the header, got {lengths[i]}",
                             int(numbers[i]))
        cells = [list(map(itemgetter(i), rows)) for i in take]
        cells += [[row[i] if i < len(row) else "" for row in rows] for i in take_optional]
        yield RowBlock(numbers, cells)


def _next_rows(reader, n: int, path: Path) -> list[list[str]]:
    """Up to n more rows of a csv reader; CSV the csv module rejects
    raises ParseError."""
    try:
        return list(islice(reader, n))
    except csv.Error as exc:
        raise ParseError(f"{path} is not UTF-8 CSV: {exc}") from None


def _decode_fault(path: Path, exc: UnicodeDecodeError) -> ParseError:
    """ParseError for bytes of `path` that are not UTF-8, with the message
    of reading the file line by line through the csv module. That message
    names the byte by its place in the chunk the line reader decoded, and
    block reads decode other chunks."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            deque(csv.reader(fh), maxlen=0)
        except (UnicodeDecodeError, csv.Error) as line_exc:
            exc = line_exc
    return ParseError(f"{path} is not UTF-8 CSV: {exc}")


def parse_dataset(
    path: str | Path,
    universe: Sequence[str] | str | None = None,
    name: str | None = None,
) -> Dataset:
    """Load a labeled alloy dataset from CSV.

    Expected header `composition,label`; compositions are hyphen-joined
    element symbols, labels one of 0/1/true/false/HEA/NonHEA (any case).
    `universe` may be a preset name ("E1", "E2"), an explicit symbol list,
    or None to derive the universe from the file contents.
    """
    path = Path(path)
    alloys: list[Alloy] = []
    labels: list[bool] = []
    seen: dict[tuple[str, ...], int] = {}
    elements_seen: set[str] = set()
    for block in read_blocks(path, ("composition", "label")):
        for lineno, composition, label in zip(block.rows.tolist(), *block.columns):
            alloy = parse_composition(composition, lineno)
            if alloy.elements in seen:
                raise ParseError(f"duplicate alloy {alloy} (first at row {seen[alloy.elements]})", lineno)
            seen[alloy.elements] = lineno
            elements_seen.update(alloy.elements)
            alloys.append(alloy)
            labels.append(parse_label(label, lineno))
    if not alloys:
        raise EmptyDataset(f"{path} contains no alloy rows")
    resolved = _resolve_universe(universe, elements_seen)
    missing = elements_seen - set(resolved)
    if missing:
        raise ParseError(f"elements {sorted(missing)} not in declared universe")
    return Dataset(name or path.stem, tuple(alloys), labels, resolved)


def serialize_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to the CSV format understood by `parse_dataset`."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["composition", "label"])
        for alloy, label in zip(dataset.alloys, dataset.labels.tolist()):
            writer.writerow([alloy.composition(), "1" if label else "0"])


def enumerate_combinations(universe: Sequence[str], k: int) -> list[Alloy]:
    """All k-element alloys over the universe, in lexicographic symbol order."""
    symbols = sorted(set(universe))
    if k > len(symbols):
        raise KTooLarge(f"k={k} exceeds universe size {len(symbols)}")
    if k < 2:
        raise TooFewElements(f"an alloy needs at least 2 elements, got k={k}")
    alloys = [Alloy(combo) for combo in combinations(symbols, k)]
    assert len(alloys) == comb(len(symbols), k)
    return alloys


def _stratified_indices(labels: Sequence[bool], seed: int) -> tuple[list[int], list[int]]:
    labels = np.asarray(labels, dtype=bool)
    pos, neg = np.flatnonzero(labels).tolist(), np.flatnonzero(~labels).tolist()
    rng = random.Random(seed)
    rng.shuffle(pos)
    rng.shuffle(neg)
    return pos, neg


def fraction_split(
    dataset: Dataset, fraction: float, seed: int, stratified: bool = True
) -> tuple[Dataset, Dataset]:
    """(training, test) with round(fraction * n) seeded training rows,
    drawn per class by default; fraction must lie in (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise FractionOutOfRange(f"fraction must lie in (0, 1), got {fraction!r}")
    labels = dataset.labels
    n = len(labels)
    n_train = round(fraction * n)
    if n_train <= 0 or n_train >= n:
        raise FractionDegenerate(f"fraction {fraction} on {n} rows leaves an empty side")
    if stratified:
        pos, neg = _stratified_indices(labels, seed)
        n_pos_train = min(round(fraction * len(pos)), n_train, len(pos))
        # keep one row of each class in training whenever there is room
        if pos and neg and n_train >= 2:
            n_pos_train = min(max(n_pos_train, 1), n_train - 1)
        n_neg_train = n_train - n_pos_train
        if n_neg_train > len(neg):
            n_pos_train += n_neg_train - len(neg)
            n_neg_train = len(neg)
        train = set(pos[:n_pos_train]) | set(neg[:n_neg_train])
    else:
        order = list(range(n))
        random.Random(seed).shuffle(order)
        train = set(order[:n_train])
    test_idx = [i for i in range(n) if i not in train]
    return dataset.take(sorted(train), "[train]"), dataset.take(test_idx, "[test]")


def kfold_indices(labels: Sequence[bool], k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """(train, test) row indices of k label-stratified, seeded folds that
    partition the rows."""
    n = len(labels)
    if k < 2:
        raise FoldsOutOfRange(f"folds must be >= 2, got {k}")
    if k > n:
        raise FoldsOutOfRange(f"{k} folds exceed the dataset's {n} rows")
    pos, neg = _stratified_indices(labels, seed)
    # continuous round-robin across classes keeps fold sizes within one
    # of each other even when a class is smaller than k
    buckets: list[list[int]] = [[] for _ in range(k)]
    for slot, idx in enumerate(pos + neg):
        buckets[slot % k].append(idx)
    folds = [sorted(b) for b in buckets]
    out = []
    for f in range(k):
        test = folds[f]
        test_set = set(test)
        train = [i for i in range(n) if i not in test_set]
        out.append((train, test))
    return out


def element_split(dataset: Dataset, element: str) -> tuple[Dataset, Dataset]:
    """(training, test) with every alloy containing element held out."""
    held = np.array([element in alloy.elements for alloy in dataset.alloys], dtype=bool)
    if not held.any():
        raise ElementAbsent(f"no alloy in {dataset.name} contains {element!r}")
    return (dataset.take(np.flatnonzero(~held), f"[no-{element}]"),
            dataset.take(np.flatnonzero(held), f"[{element}]"))
