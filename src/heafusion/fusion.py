"""Reliability weighting and multi-source fusion of similarity stores.

Each evidence source gets a reliability weight gamma in [0, 1]: the
macro-averaged F1 its store achieves when predicting held-out folds of the
reference dataset by analogy. Before fusion, every source's masses are
discounted by its gamma (committed mass shrinks toward ignorance), then
the discounted stores are Dempster-combined pair by pair, so unreliable
sources pull the result toward the vacuous mass instead of injecting
conflict.

Fusion works on the stores' columns: `md_evidence.union_rows` aligns the
stores on the sorted union of their keys, and the mass columns are folded
source by source with `belief.discount_masses` and
`belief.combine_masses`, the arithmetic `discount` and `combine` use. Every
key starts vacuous and meets its present sources in source order, so each
fused mass is the one a per-pair fold gives, to the bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .alloys import Dataset
from .belief import combine_masses, discount_masses
from .errors import DegenerateDataset, EmptySourceList, GammaOutOfRange, ParseError
from .evaluation import kfold_splits, macro_f1
from .inference import predict_batch
from .md_evidence import SimilarityStore, union_rows

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
    store: SimilarityStore,
    dataset: Dataset,
    folds: int = 10,
    seed: int = 42,
    max_subst_size: int | None = None,
) -> float:
    """Mean macro-F1 of single-source analogy prediction over stratified CV
    folds of the dataset, clipped to [0, 1].

    Each fold is predicted from the remaining alloys' labels and the given
    store (the store itself is not re-derived per fold); classification
    uses threshold 0.5 with ties negative.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    n_pos = dataset.n_positive
    if n_pos == 0 or n_pos == len(dataset):
        raise DegenerateDataset(f"{dataset.name} has a single class; reliability undefined")
    total = 0.0
    splits = kfold_splits(dataset, folds, seed)
    for training, test in splits:
        predictions = predict_batch(
            [la.alloy for la in test.alloys], training, store, max_subst_size
        )
        preds = [p.score > 0.5 for p in predictions]
        total += macro_f1(test.labels(), preds)
    return min(1.0, max(0.0, total / len(splits)))


def fuse(
    stores: Sequence[tuple[str, SimilarityStore]],
    gammas: Sequence[SourceReliability],
) -> SimilarityStore:
    """Discount every source by its reliability and Dempster-combine the
    stores over the union of their pairs.

    Sources missing a pair contribute the vacuous mass there and are
    skipped (vacuous is the combination identity). Every store must have a
    matching reliability entry.
    """
    if not stores:
        raise EmptySourceList("no stores to fuse")
    gamma_by_id = {g.source_id: g.gamma for g in gammas}
    missing = [sid for sid, _ in stores if sid not in gamma_by_id]
    if missing:
        raise ValueError(f"no reliability given for sources {missing}")

    elements, keys, positions = union_rows([store for _, store in stores])
    fused = (np.zeros(len(keys)), np.zeros(len(keys)), np.ones(len(keys)))
    for (sid, store), rows in zip(stores, positions):
        held = tuple(column[rows] for column in fused)
        contribution = discount_masses((store.m_first, store.m_second, store.m_both), gamma_by_id[sid])
        for column, values in zip(fused, combine_masses(held, contribution)):
            column[rows] = values
    return SimilarityStore(elements, keys, *fused)


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
