"""Element clustering and alloy distance matrices for interpretability.

Element distances are the pignistic dissimilarity of single-element pairs
in a similarity store; alloy distances blend that dissimilarity with the
Jaccard compositional distance. Matrices are exported for external
embedding tools; the clustering itself is a small deterministic complete-
linkage agglomeration.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .alloys import Alloy
from .belief import from_weights
from .errors import MatrixMalformed, TooFewAlloys, TooFewElements
from .md_evidence import CombinationPair, SimilarityStore

__all__ = [
    "Dendrogram",
    "element_distance_matrix",
    "hybrid_distance_matrix",
    "hac_complete",
    "write_matrix_csv",
]

_VACUOUS_DISTANCE = 0.5  # pignistic dissimilarity of an unobserved pair


def _pignistic_dissimilarity(store: SimilarityStore, pairs: Sequence[CombinationPair]) -> np.ndarray:
    _, m_second, m_both = from_weights(*store.weights(pairs).T)
    return m_second + m_both / 2.0


def element_distance_matrix(store: SimilarityStore, universe: Sequence[str]) -> np.ndarray:
    """Symmetric element-by-element distance: dissimilarity mass plus half
    the ignorance mass; unobserved pairs sit at 0.5, the diagonal at 0."""
    if len(universe) < 2:
        raise TooFewElements(f"need at least 2 elements, got {list(universe)}")
    n = len(universe)
    i, j = np.triu_indices(n, 1)
    out = np.zeros((n, n))
    out[i, j] = _pignistic_dissimilarity(
        store, [CombinationPair((universe[a],), (universe[b],)) for a, b in zip(i.tolist(), j.tolist())]
    )
    out[j, i] = out[i, j]
    return out


def jaccard(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def hybrid_distance_matrix(alloys: Sequence[Alloy], store: SimilarityStore) -> np.ndarray:
    """Alloy-by-alloy distance: pignistic dissimilarity of the substitution
    sides times the Jaccard distance of the compositions.

    Pairs with no possible substitution (one composition containing the
    other) and pairs absent from the store use the vacuous factor 0.5.
    """
    if len(alloys) < 2:
        raise TooFewAlloys(f"need at least 2 alloys, got {len(alloys)}")
    n = len(alloys)
    sets = [a.element_set for a in alloys]
    cells, pairs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            ct = sets[i] - sets[j]
            cv = sets[j] - sets[i]
            if ct and cv:
                cells.append((i, j))
                pairs.append(CombinationPair(ct, cv))
    factors = np.full((n, n), _VACUOUS_DISTANCE)
    if cells:
        rows, cols = np.array(cells).T
        factors[rows, cols] = _pignistic_dissimilarity(store, pairs)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = factors[i, j] * (1.0 - jaccard(sets[i], sets[j]))
            out[i, j] = out[j, i] = d
    return out


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

    def cut(self, k: int) -> list[tuple[str, ...]]:
        """Labels grouped into k clusters by undoing the last k-1 merges."""
        n = len(self.labels)
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        members: dict[int, list[int]] = {i: [i] for i in range(n)}
        for a, b, _, new_id in self.merges[: n - k]:
            members[new_id] = members.pop(a) + members.pop(b)
        return [
            tuple(self.labels[i] for i in sorted(group)) for group in members.values()
        ]


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


def write_matrix_csv(matrix: np.ndarray, labels: Sequence[str], path: str | Path) -> None:
    """CSV with a leading header row and label column."""
    matrix = np.asarray(matrix)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(labels))
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [f"{v:.17g}" for v in row])

