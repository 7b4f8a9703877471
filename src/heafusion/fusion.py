"""Reliability weighting and multi-source fusion of similarity stores.

Each evidence source gets a reliability weight gamma in [0, 1]: the
macro-averaged F1 its store achieves when predicting held-out folds of the
reference dataset by analogy. Before fusion, every source's evidence is
discounted by its gamma (committed mass shrinks toward ignorance), then
the discounted stores are Dempster-combined pair by pair, so unreliable
sources pull the result toward the vacuous mass instead of injecting
conflict.

Both steps align the stores with `md_evidence.union_rows` on the sorted
union of their keys. `estimate_reliability` holds every source's analogy
weights in one key table, one column per source and 0 where a source
lacks the key, and scores each fold for all sources with one kernel call
(`inference.fold_macro_f1`). Stores hold weights of evidence, and
Dempster's rule adds them, so fusion is one sum: each source's weight
columns, discounted by `belief.discount_weights`, are added into the fused
columns in source order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .alloys import Dataset, kfold_indices
from .belief import discount_weights
from .errors import DegenerateDataset, EmptySourceList, GammaOutOfRange, ParseError, TotalConflict
# predict_batch is unused here; it stays while the benchmark's tracer wraps heafusion.fusion.predict_batch
from .inference import fold_macro_f1, predict_batch  # noqa: F401
from .md_evidence import (
    KeyTable,
    SimilarityStore,
    analogy_weight,
    element_words,
    key_width,
    substitution_limit,
    union_rows,
)

__all__ = ["SourceReliability", "estimate_reliability", "fuse", "write_gammas", "read_gammas"]


@dataclass(frozen=True)
class SourceReliability:
    """Per-source discount factor."""

    source_id: str
    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise GammaOutOfRange(f"gamma must lie in [0, 1], got {self.gamma!r}")


def estimate_reliability(
    stores: Sequence[SimilarityStore],
    dataset: Dataset,
    folds: int = 10,
    seed: int = 42,
    max_subst_size: int | None = None,
) -> list[float]:
    """Per store, in order: the mean macro-F1 of single-source analogy
    prediction over stratified CV folds of the dataset, clipped to [0, 1].

    Each fold is predicted from the remaining alloys' labels and each
    store (the stores themselves are not re-derived per fold) and
    classified by `inference.classify`. All stores are scored in one pass:
    their analogy weights are aligned on the union of their keys over the
    dataset's universe (0 where a store lacks a key) as the columns of one
    key table, and `inference.fold_macro_f1` scores every column of a fold
    with one kernel call. A fold count below 2 or above the dataset's size
    raises FoldsOutOfRange; a store whose fold readout has infinite weight
    on both classes raises TotalConflict.
    """
    if not stores:
        return []
    n_pos = dataset.n_positive
    if n_pos == 0 or n_pos == len(dataset):
        raise DegenerateDataset(f"{dataset.name} has a single class; reliability undefined")
    labels = dataset.labels()
    splits = kfold_indices(labels, folds, seed)
    alloys = [la.alloy for la in dataset.alloys]
    max_size = substitution_limit(alloys, max_subst_size)
    index = dataset.element_index()
    words = element_words((alloy.elements for alloy in alloys), index, key_width(len(index)))
    aligned = [store.reindexed(dataset.universe) for store in stores]
    _, keys, positions = union_rows(aligned)
    columns = np.zeros((len(keys), len(aligned)))
    for j, (store, rows) in enumerate(zip(aligned, positions)):
        columns[rows, j] = analogy_weight(store.w_first, store.w_second)
    table = KeyTable(keys, columns)
    totals = np.zeros(len(stores))
    for train, test in splits:
        totals += fold_macro_f1(
            words[test], words[train], [labels[i] for i in train], [labels[i] for i in test], table, max_size
        )
    return np.clip(totals / len(splits), 0.0, 1.0).tolist()


def fuse(
    stores: Sequence[tuple[str, SimilarityStore]],
    gammas: Sequence[SourceReliability],
) -> SimilarityStore:
    """Discount every source by its reliability and Dempster-combine the
    stores over the union of their pairs: the sum of the discounted
    weights.

    Sources missing a pair contribute weight 0 there. Every store must
    have a matching reliability entry. Raises TotalConflict for a pair
    whose fused weights are infinite on both outcomes.
    """
    if not stores:
        raise EmptySourceList("no stores to fuse")
    gamma_by_id = {g.source_id: g.gamma for g in gammas}
    missing = [sid for sid, _ in stores if sid not in gamma_by_id]
    if missing:
        raise ValueError(f"no reliability given for sources {missing}")

    elements, keys, positions = union_rows([store for _, store in stores])
    w_first, w_second = np.zeros(len(keys)), np.zeros(len(keys))
    for (sid, store), rows in zip(stores, positions):
        d_first, d_second = discount_weights(store.w_first, store.w_second, gamma_by_id[sid])
        w_first[rows] += d_first  # a store's rows are distinct
        w_second[rows] += d_second
    fused = SimilarityStore(elements, keys, w_first, w_second)
    if np.any(np.isinf(w_first) & np.isinf(w_second)):
        pair = next(pair for pair, (w1, w2) in fused.items() if math.isinf(w1) and math.isinf(w2))
        raise TotalConflict(f"infinite weight of evidence on both outcomes for pair {pair}")
    return fused


def write_gammas(gammas: Sequence[SourceReliability], path: str | Path) -> None:
    """Sidecar JSON mapping source id to reliability."""
    Path(path).write_text(
        json.dumps({g.source_id: g.gamma for g in gammas}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def read_gammas(path: str | Path) -> list[SourceReliability]:
    """Load a sidecar written by `write_gammas`: a JSON object mapping
    source ids to finite numbers in [0, 1]; anything else raises
    ParseError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"gamma file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"gamma file {path} must hold a JSON object, got {type(data).__name__}")
    for sid, gamma in data.items():
        if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
            raise ParseError(f"gamma for {sid!r} must be a number, got {gamma!r}")
        if not (math.isfinite(gamma) and 0.0 <= gamma <= 1.0):
            raise ParseError(f"gamma for {sid!r} must lie in [0, 1], got {gamma!r}")
    return [SourceReliability(sid, float(g)) for sid, g in sorted(data.items())]
