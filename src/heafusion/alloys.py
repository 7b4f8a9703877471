"""Canonical alloy representation, element universes, and dataset file I/O.

Alloys are equiatomic element sets; labels are booleans with True as the
positive class (phase forms / property present). Datasets are immutable
after load and safe to share between threads.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import EmptyDataset, KTooLarge, ParseError

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

    def composition(self, delimiter: str = "-") -> str:
        return delimiter.join(self.elements)

    def __str__(self) -> str:
        return self.composition()


@dataclass(frozen=True)
class LabeledAlloy:
    """Alloy plus boolean class label (True = positive class)."""

    alloy: Alloy
    label: bool


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of labeled alloys over a declared universe."""

    name: str
    alloys: tuple[LabeledAlloy, ...] = field(default=())
    universe: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        universe_set = set(self.universe)
        if len(universe_set) != len(self.universe):
            raise ValueError("universe contains duplicate symbols")
        unknown = universe_set - _ELEMENT_SET
        if unknown:
            raise ValueError(f"universe symbols not in element table: {sorted(unknown)}")
        seen: set[tuple[str, ...]] = set()
        for la in self.alloys:
            if la.alloy.elements in seen:
                raise ValueError(f"duplicate alloy {la.alloy}")
            seen.add(la.alloy.elements)
            outside = set(la.alloy.elements) - universe_set
            if outside:
                raise ValueError(f"alloy {la.alloy} uses elements outside universe: {sorted(outside)}")

    def __len__(self) -> int:
        return len(self.alloys)

    @property
    def n_positive(self) -> int:
        return sum(1 for la in self.alloys if la.label)

    def element_index(self) -> dict[str, int]:
        """Universe symbol -> bit position, in universe order."""
        return {e: i for i, e in enumerate(self.universe)}

    def with_alloys(self, alloys: Sequence[LabeledAlloy], suffix: str = "") -> "Dataset":
        """Same universe, different rows; used by split/fold machinery."""
        return Dataset(self.name + suffix, tuple(alloys), self.universe)

    def labels(self) -> list[bool]:
        return [la.label for la in self.alloys]


def _resolve_universe(universe: Sequence[str] | str | None, elements_seen: Iterable[str]) -> tuple[str, ...]:
    if universe is None:
        return tuple(sorted(set(elements_seen)))
    if isinstance(universe, str):
        try:
            return UNIVERSES[universe]
        except KeyError:
            raise ValueError(f"unknown universe preset {universe!r}; have {sorted(UNIVERSES)}") from None
    return tuple(universe)


def parse_label(text: str, row: int | None = None) -> bool:
    value = text.strip().lower()
    if value in _TRUE_LABELS:
        return True
    if value in _FALSE_LABELS:
        return False
    raise ParseError(f"unrecognized label {text!r}", row)


def parse_symbols(text: str, row: int | None = None, delimiter: str = "-") -> list[str]:
    """Delimiter-joined element symbols. Duplicate symbols and symbols
    outside the element table raise ParseError carrying the row number."""
    symbols = [s.strip() for s in text.split(delimiter)]
    if len(set(symbols)) != len(symbols):
        raise ParseError(f"duplicate element in composition {text!r}", row)
    for s in symbols:
        if s not in _ELEMENT_SET:
            raise ParseError(f"unknown element {s!r}", row)
    return symbols


def parse_composition(text: str, row: int | None = None, delimiter: str = "-") -> Alloy:
    """Alloy from `parse_symbols`; a single element also raises
    ParseError carrying the row number."""
    symbols = parse_symbols(text, row, delimiter)
    try:
        return Alloy(symbols)
    except ValueError as exc:
        raise ParseError(str(exc), row) from None


def read_rows(
    path: str | Path, columns: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[tuple[int, list[str]]]:
    """The one CSV reader of every input format: yields (row number, cells)
    with the cells of `columns` then `optional`, in that order.

    Row 1 is the header, whose cells name the columns in any order and
    case; a UTF-8 byte-order mark is allowed. Blank rows are skipped. An
    optional column the header lacks, or a row ends before, reads as "".
    A missing column, a row without a cell for one of `columns` and a row
    with more cells than the header raise ParseError with the row number.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path} is empty", 1)
        header = [h.strip().lower() for h in header]
        missing = [name for name in columns if name not in header]
        if missing:
            raise ParseError(f"header must declare columns {list(columns)}, missing {missing}", 1)
        width = len(header)
        take = [header.index(name) for name in columns]
        needed = max(take) + 1
        # absent optional columns read index `width` of a row padded with ""
        take += [header.index(name) if name in header else width for name in optional]
        padded = width + 1 if optional else 0
        for lineno, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) < needed:
                raise ParseError(f"expected at least {needed} columns, got {len(row)}", lineno)
            if len(row) > width:
                raise ParseError(f"expected at most {width} columns, as in the header, got {len(row)}", lineno)
            if len(row) < padded:
                row += [""] * (padded - len(row))
            yield lineno, [row[i] for i in take]


def parse_dataset(
    path: str | Path,
    universe: Sequence[str] | str | None = None,
    delimiter: str = "-",
    name: str | None = None,
) -> Dataset:
    """Load a labeled alloy dataset from CSV.

    Expected header `composition,label`; compositions are delimiter-joined
    element symbols, labels one of 0/1/true/false/HEA/NonHEA (any case).
    `universe` may be a preset name ("E1", "E2"), an explicit symbol list,
    or None to derive the universe from the file contents.
    """
    path = Path(path)
    rows: list[LabeledAlloy] = []
    seen: dict[tuple[str, ...], int] = {}
    elements_seen: set[str] = set()
    for lineno, (composition, label) in read_rows(path, ("composition", "label")):
        alloy = parse_composition(composition, lineno, delimiter)
        if alloy.elements in seen:
            raise ParseError(f"duplicate alloy {alloy} (first at row {seen[alloy.elements]})", lineno)
        seen[alloy.elements] = lineno
        elements_seen.update(alloy.elements)
        rows.append(LabeledAlloy(alloy, parse_label(label, lineno)))
    if not rows:
        raise EmptyDataset(f"{path} contains no alloy rows")
    resolved = _resolve_universe(universe, elements_seen)
    missing = elements_seen - set(resolved)
    if missing:
        raise ParseError(f"elements {sorted(missing)} not in declared universe")
    return Dataset(name or path.stem, tuple(rows), resolved)


def serialize_dataset(dataset: Dataset, path: str | Path, delimiter: str = "-") -> None:
    """Write a dataset back to the CSV format understood by `parse_dataset`."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["composition", "label"])
        for la in dataset.alloys:
            writer.writerow([la.alloy.composition(delimiter), "1" if la.label else "0"])


def enumerate_combinations(universe: Sequence[str], k: int) -> list[Alloy]:
    """All k-element alloys over the universe, in lexicographic symbol order."""
    symbols = sorted(set(universe))
    if k > len(symbols):
        raise KTooLarge(f"k={k} exceeds universe size {len(symbols)}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    alloys = [Alloy(combo) for combo in combinations(symbols, k)]
    assert len(alloys) == comb(len(symbols), k)
    return alloys


def alloy_masks(alloys: Iterable[Alloy], index: dict[str, int]) -> list[int]:
    """Bitmask per alloy under the given element->bit index (hot-loop helper)."""
    masks = []
    for alloy in alloys:
        m = 0
        for e in alloy.elements:
            m |= 1 << index[e]
        masks.append(m)
    return masks
