"""Reliability weighting and multi-source fusion of similarity stores.

Each evidence source gets a reliability weight gamma in [0, 1]: the
macro-averaged F1 its store achieves when predicting held-out folds of the
reference dataset by analogy. Before fusion, every source's evidence is
discounted by its gamma (committed mass shrinks toward ignorance), then
the discounted stores are Dempster-combined pair by pair, so unreliable
sources pull the result toward the vacuous mass instead of injecting
conflict.

Both steps align the stores with `md_evidence.union_rows` on the sorted
union of their keys, in the library's one bit order (sorted symbols), so
stores keyed by it are aligned without re-keying. `estimate_reliability`
groups the stores by the size of their largest substitution side, since
a store only meets analogies whose sides fit its own. Per group it holds
every source's analogy weights in one key table, one column per source
and 0 where a source lacks the key; a group of one store looks up that
store's own cached column (`SimilarityStore.analogy_weights`). One
upper-triangle pass of `md_evidence.informative_pairs` over all rows,
skipping the pairs within a fold, serves every group: each unordered pair
is looked up once per group its larger side fits and credited to both of
its rows by two `np.add.at` calls, in host order, so every sum is the one
a candidates x hosts kernel gives, to the bit
(`inference.columns_macro_f1` reads out the folds). A key the table lacks
adds +0.0, which leaves a sum of non-negative weights as it is, so no pair
is filtered out of the pass. Stores hold weights
of evidence, and Dempster's rule adds them,
so fusion is one sum: each source's weight columns, discounted by
`belief.discount_weights`, are added into the fused columns in source
order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .alloys import Dataset, fold_ids
from .belief import discount_weights
from .errors import ConfigError, DegenerateDataset, EmptySourceList, TotalConflict
# predict_batch is unused here; it stays while the benchmark's tracer wraps heafusion.fusion.predict_batch
from .inference import columns_macro_f1, predict_batch  # noqa: F401
from .md_evidence import (
    KeyTable,
    SimilarityStore,
    informative_pairs,
    largest_side,
    substitution_limit,
    union_rows,
)

__all__ = ["estimate_reliability", "fuse", "source_gammas", "write_gammas"]


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
    classified by `inference.classify`. The stores are taken over the
    dataset's `bit_names` (the library's one bit order, so a store keyed
    by it is not re-keyed) and grouped by their largest side, capped at the
    substitution limit; a store with no key there reads out vacuous. Each
    group's analogy weights are aligned on the union of its stores' keys
    (0 where a store lacks a key) as the columns of one key table, and one
    pass over the pairs of rows (`_cross_fold_weights`) predicts every row
    from the rows of the other folds, in host order.
    `inference.columns_macro_f1` scores each (fold, store) from the summed
    weights, and the fold scores are added in fold order. A fold count
    below 2 or above the dataset's size raises FoldsOutOfRange; a store
    whose readout has infinite weight on both classes raises
    TotalConflict.
    """
    if not stores:
        return []
    n_pos = dataset.n_positive
    if n_pos == 0 or n_pos == len(dataset):
        raise DegenerateDataset(f"{dataset.name} has a single class; reliability undefined")
    labels = dataset.labels
    fold_of = fold_ids(labels, folds, seed)
    max_size = substitution_limit(dataset.alloys, max_subst_size)
    aligned = [store.reindexed(dataset.bit_names) for store in stores]
    sizes = [min(largest_side(store), max_size) for store in aligned]
    groups = []
    for size in sorted(set(sizes) - {0}):
        members = [j for j, s in enumerate(sizes) if s == size]
        if len(members) == 1:  # a store's own keys are distinct and sorted: no union to build
            store = aligned[members[0]]
            table = KeyTable(store.keys, store.analogy_weights[:, None])
        else:
            _, keys, positions = union_rows([aligned[j] for j in members])
            columns = np.zeros((len(keys), len(members)))
            for c, (j, rows) in enumerate(zip(members, positions)):
                columns[rows, c] = aligned[j].analogy_weights
            table = KeyTable(keys, columns)
        groups.append((size, members, table))
    w_pos, w_neg = _cross_fold_weights(dataset.words, labels, fold_of, groups, len(stores))
    totals = np.zeros(len(stores))
    for scores in columns_macro_f1(labels, w_pos, w_neg, fold_of, folds):
        totals += scores
    return np.clip(totals / folds, 0.0, 1.0).tolist()


def _cross_fold_weights(
    words: np.ndarray,
    labels: Sequence[bool],
    fold_of: np.ndarray,
    groups: Sequence[tuple[int, Sequence[int], KeyTable]],
    n_columns: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, n_columns) summed positive and negative analogy weights of
    every row predicted from the rows of the other folds, for groups of
    (side size, columns, key table of those columns).

    One upper-triangle pass of `informative_pairs` at the largest size
    serves every group with a key; a group looks up the pairs whose larger
    side fits its size, and a key its table lacks weighs 0.0. Every weight
    is at least +0.0 and every sum starts at +0.0, so adding that 0.0
    leaves each partial sum's bits as they are. A pair (i, j), i < j, is
    looked up once and credited both ways: to candidate j with host i's
    label, then to candidate i with host j's label. Within a block one
    `np.add.at` call adds the (j, i) entries, then a second adds the (i, j)
    entries, each in row-major order; `np.add.at` adds in input order. So
    candidate c receives its hosts i < c in increasing order (from earlier
    blocks, then its own), then its hosts j > c: host order, the order a
    rectangle of candidates x hosts adds them in, so every sum is that
    rectangle's to the bit.
    """
    labels = np.asarray(labels, dtype=bool)
    n = len(words)
    sums = np.zeros((2, n, n_columns))  # [host positive, row, column]
    flat = sums.reshape(-1)
    groups = [(size, np.asarray(members), table) for size, members, table in groups if len(table.keys)]
    top = max((size for size, _, _ in groups), default=0)
    for block in informative_pairs(words, top, folds=fold_of) if groups else ():
        for size, members, table in groups:
            fits = slice(None) if size == top else np.flatnonzero(block.larger <= size)
            keys = block.keys if size == top else block.keys.take(fits, axis=0)  # faster than a 2-D fancy index
            pos, found = table.find(keys)
            weights = table.weights.take(pos, axis=0)
            weights[~found] = 0.0  # adds +0.0: a sum of non-negative weights keeps its bits
            first, second = block.first[fits], block.second[fits]
            for candidates, hosts in ((second, first), (first, second)):
                code = (labels.take(hosts) * n + candidates)[:, None] * n_columns + members
                np.add.at(flat, code.ravel(), weights.ravel())  # 1-D indices take add.at's fast path
    return sums[1], sums[0]


def source_gammas(
    stores: Sequence[tuple[str, SimilarityStore]],
    gammas: Mapping[str, float],
    dataset: Dataset | None,
    folds: int = 10,
    seed: int = 42,
    max_subst_size: int | None = None,
) -> dict[str, float]:
    """Source id -> γ of every (id, store) source, in store order: the γ
    given in `gammas`, else one `estimate_reliability` call over the
    dataset for all the others (the dataset may be None when every source
    has a γ)."""
    estimated = [(sid, store) for sid, store in stores if sid not in gammas]
    estimates = estimate_reliability([store for _, store in estimated], dataset, folds=folds, seed=seed,
                                     max_subst_size=max_subst_size)
    given = {**gammas, **dict(zip((sid for sid, _ in estimated), estimates))}
    return {sid: given[sid] for sid, _ in stores}


def fuse(
    stores: Sequence[tuple[str, SimilarityStore]],
    gammas: Mapping[str, float],
) -> SimilarityStore:
    """Discount every source by its reliability, source id -> γ in [0, 1],
    and Dempster-combine the stores over the union of their pairs: the sum
    of the discounted weights.

    Sources missing a pair contribute weight 0 there. A store whose id has
    no γ raises ConfigError naming the ids. Raises TotalConflict for a pair
    whose fused weights are infinite on both outcomes.
    """
    if not stores:
        raise EmptySourceList("no stores to fuse")
    missing = [sid for sid, _ in stores if sid not in gammas]
    if missing:
        raise ConfigError(f"no reliability given for sources {missing}")

    elements, keys, positions = union_rows([store for _, store in stores])
    w_first, w_second = np.zeros(len(keys)), np.zeros(len(keys))
    for (sid, store), rows in zip(stores, positions):
        d_first, d_second = discount_weights(store.w_first, store.w_second, gammas[sid])
        w_first[rows] += d_first  # a store's rows are distinct
        w_second[rows] += d_second
    fused = SimilarityStore(elements, keys, w_first, w_second)
    if np.any(np.isinf(w_first) & np.isinf(w_second)):
        pair = next(pair for pair, (w1, w2) in fused.items() if math.isinf(w1) and math.isinf(w2))
        raise TotalConflict(f"infinite weight of evidence on both outcomes for pair {pair}")
    return fused


def write_gammas(gammas: Mapping[str, float], path: str | Path) -> None:
    """Sidecar JSON of the source id -> reliability mapping."""
    Path(path).write_text(json.dumps(dict(gammas), indent=2, sort_keys=True) + "\n", encoding="utf-8")
