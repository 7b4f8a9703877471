"""Element clustering and alloy distance matrices for interpretability.

Element distances are the pignistic dissimilarity of single-element pairs
in a similarity store; alloy distances blend that dissimilarity with the
Jaccard compositional distance. Matrices are exported for external
embedding tools; the clustering itself is a small deterministic complete-
linkage agglomeration.

Both matrices take the mask path of the rest of the library: the
combinations become `element_words` rows over their sorted symbols, the
store is taken over the same bits (`reindexed`) and its two weight
columns held in one `KeyTable`. A block of rows at a time, each pair's
substitution sides are its masks minus their shared bits, looked up with
`pack_keys` and `KeyTable.find` and read out by one `pignistic`; the
Jaccard term counts shared elements with one product of the 0/1
incidence matrix per block. No pair object is built, and only the
n-by-n result grows with n**2. With the md store of a full-scale E1 Fe
fold (1,809,250 keys; 2-core Intel Xeon, Python 3.11, numpy 2.4) the
hybrid matrix of 1,000 alloys takes 0.21-0.26 s, against 4.3-4.6 s one
pair object at a time, and of 2,000 alloys a median of 0.57 s and 45 MB
above the inputs, against 19.7-20.4 s and 966 MB.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .alloys import Alloy, element_words, key_width
from .belief import pignistic
from .errors import LengthMismatch, MatrixMalformed, TooFewAlloys, TooFewElements
from .md_evidence import KeyTable, SimilarityStore, pack_keys

__all__ = [
    "Dendrogram",
    "element_distance_matrix",
    "hybrid_distance_matrix",
    "hac_complete",
    "write_matrix_csv",
]

_VACUOUS_DISTANCE = 0.5  # pignistic dissimilarity of an unobserved pair
_BLOCK_CELLS = 1 << 17  # pairs compared per block of rows, and cells written per block of rows
_QUOTED = ',"\r\n'  # characters that make csv.writer quote a cell


def _distances(combinations: Sequence[Sequence[str]], store: SimilarityStore) -> np.ndarray:
    """Symmetric n-by-n matrix over element combinations: the pignistic
    dissimilarity of each pair's substitution sides (each combination
    minus the shared elements) times the pair's Jaccard distance. A pair
    with an empty side or absent from the store takes the vacuous 0.5.

    A block of rows is compared with every later row, and its cells are
    mirrored below the diagonal; `pack_keys` is symmetric in its sides, so
    both halves hold the same values. Shared-element counts are one
    product of the 0/1 incidence matrix with itself, exact in float64.
    """
    names = sorted({e for c in combinations for e in c})
    bit = {e: i for i, e in enumerate(names)}
    width = key_width(len(names))
    words = element_words(combinations, bit, width)
    n = len(words)
    sizes = np.array([len(c) for c in combinations])
    incidence = np.zeros((n, len(names)))
    incidence[np.repeat(np.arange(n), sizes), [bit[e] for c in combinations for e in c]] = 1.0
    held = store.reindexed(names)
    table = KeyTable(held.keys, np.column_stack((held.w_first, held.w_second)))
    out = np.empty((n, n))
    block = max(1, _BLOCK_CELLS // n)
    for start in range(0, n, block):
        stop = start + block  # slices stop at n
        rows, cols = words[start:stop, None], words[start:]
        shared = rows & cols
        first, second = (rows ^ shared).reshape(-1, width), (cols ^ shared).reshape(-1, width)
        factor = np.full(len(first), _VACUOUS_DISTANCE)
        cells = np.flatnonzero(first.any(axis=1) & second.any(axis=1))
        pos, found = table.find(pack_keys(first.take(cells, axis=0), second.take(cells, axis=0)))
        w_similar, w_dissimilar = table.weights[pos[found]].T
        factor[cells[found]] = pignistic(w_dissimilar, w_similar)
        n_shared = incidence[start:stop] @ incidence[start:].T
        union = sizes[start:stop, None] + sizes[start:] - n_shared
        out[start:stop, start:] = factor.reshape(union.shape) * (1.0 - n_shared / union)
        out[start:, start:stop] = out[start:stop, start:].T
    return out


def element_distance_matrix(store: SimilarityStore, universe: Sequence[str]) -> np.ndarray:
    """Symmetric element-by-element distance: dissimilarity mass plus half
    the ignorance mass; unobserved pairs sit at 0.5, the diagonal at 0."""
    if len(universe) < 2:
        raise TooFewElements(f"need at least 2 elements, got {list(universe)}")
    return _distances([(e,) for e in universe], store)


def hybrid_distance_matrix(alloys: Sequence[Alloy], store: SimilarityStore) -> np.ndarray:
    """Alloy-by-alloy distance: pignistic dissimilarity of the substitution
    sides times the Jaccard distance of the compositions.

    Pairs with no possible substitution (one composition containing the
    other) and pairs absent from the store use the vacuous factor 0.5.
    """
    if len(alloys) < 2:
        raise TooFewAlloys(f"need at least 2 alloys, got {len(alloys)}")
    return _distances([a.elements for a in alloys], store)


@dataclass(frozen=True)
class Dendrogram:
    """Agglomeration record: leaves 0..n-1 carry the labels; each merge
    joins two cluster ids at a height and mints id n, n+1, ..."""

    labels: tuple[str, ...]
    merges: tuple[tuple[int, int, float, int], ...]

    def __post_init__(self) -> None:
        if len(self.merges) != len(self.labels) - 1:
            raise ValueError("a dendrogram over n leaves needs n-1 merges")

    def heights(self) -> list[float]:
        return [m[2] for m in self.merges]

    def to_tree(self) -> dict:
        """Nested dict tree: leaves {name}, internal {height, children}."""
        nodes: dict[int, dict] = {
            i: {"name": label} for i, label in enumerate(self.labels)
        }
        root: dict = nodes[0] if nodes else {}
        for a, b, height, new_id in self.merges:
            node = {"height": height, "children": [nodes.pop(a), nodes.pop(b)]}
            nodes[new_id] = node
            root = node
        return root

    def to_newick(self) -> str:
        """Newick string with ultrametric branch lengths (parent height
        minus child height)."""
        heights = {i: 0.0 for i in range(len(self.labels))}
        texts = {i: label for i, label in enumerate(self.labels)}
        root_id = len(self.labels) - 1
        for a, b, height, new_id in self.merges:
            la = height - heights[a]
            lb = height - heights[b]
            texts[new_id] = f"({texts.pop(a)}:{la:g},{texts.pop(b)}:{lb:g})"
            heights[new_id] = height
            root_id = new_id
        return texts[root_id] + ";"

    def write_json(self, path: str | Path) -> None:
        payload = {
            "labels": list(self.labels),
            "merges": [list(m) for m in self.merges],
            "tree": self.to_tree(),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _validate_distances(distances: np.ndarray) -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise MatrixMalformed(f"distance matrix must be square, got shape {d.shape}")
    if not np.allclose(d, d.T, atol=1e-12):
        raise MatrixMalformed("distance matrix must be symmetric")
    if np.any(np.abs(np.diag(d)) > 1e-12):
        raise MatrixMalformed("distance matrix diagonal must be zero")
    return d


def hac_complete(distances: np.ndarray, labels: Sequence[str]) -> Dendrogram:
    """Agglomerative clustering under complete linkage.

    Cluster distances follow the Lance-Williams update for the maximum
    criterion; at each step the candidate pair with the smallest
    (distance, id_a, id_b) triple merges, so ties resolve toward the
    lowest cluster ids.
    """
    d = _validate_distances(distances)
    n = d.shape[0]
    if len(labels) != n:
        raise MatrixMalformed(f"{n}x{n} matrix needs {n} labels, got {len(labels)}")
    if n < 2:
        raise MatrixMalformed("need at least 2 items to cluster")
    # dist maps frozen id pairs; active ids start as leaves 0..n-1
    dist: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = float(d[i, j])
    active = list(range(n))
    merges = []
    next_id = n
    while len(active) > 1:
        best = min((dist[(a, b)], a, b) for idx, a in enumerate(active) for b in active[idx + 1:])
        height, a, b = best
        merges.append((a, b, height, next_id))
        active.remove(a)
        active.remove(b)
        for other in active:
            da = dist.pop((min(a, other), max(a, other)))
            db = dist.pop((min(b, other), max(b, other)))
            dist[(other, next_id)] = max(da, db)
        del dist[(a, b)]
        active.append(next_id)
        next_id += 1
    return Dendrogram(tuple(labels), tuple(merges))


def _csv_cell(text: str) -> str:
    """`text` as csv.writer writes it in a row of several cells: quoted,
    with its quotes doubled, when it holds a comma, a quote or a line end."""
    if any(c in text for c in _QUOTED):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_matrix_csv(matrix: np.ndarray, labels: Sequence[str], path: str | Path) -> None:
    """CSV with a leading header row and label column, as csv.writer
    writes it: each value with 17 significant digits. Each line is one
    `%` format of its label and values, and a block of lines one write.
    Raises LengthMismatch, before the file is opened, unless there is one
    label per row and per column of the matrix."""
    matrix = np.asarray(matrix)
    if matrix.shape != (len(labels), len(labels)):
        raise LengthMismatch(f"{len(labels)} labels for a {'x'.join(map(str, matrix.shape))} matrix")
    cells = [_csv_cell(label) for label in labels]
    line = ",".join(["%s", *["%.17g"] * len(cells)]) + "\r\n"
    step = max(1, _BLOCK_CELLS // max(1, len(cells)))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write((",".join(["", *cells]) if cells else '""') + "\r\n")  # csv.writer quotes a lone empty cell
        for start in range(0, len(cells), step):
            rows = zip(cells[start:start + step], matrix[start:start + step].tolist())
            fh.write("".join([line % (label, *row) for label, row in rows]))
