"""Analogy-based phase prediction for candidate alloys, and the metrics
that score predictions against labels.

A candidate is compared against every labeled alloy it shares elements
with. Each such host defines a substitution: replace the host elements
missing from the candidate with the candidate elements missing from the
host. The store's belief s that those two combinations are substitutable
is simple support for the host's class (host positive) or the other class
(host negative), with weight of evidence -ln(1 - s). Dempster's rule adds
weights, so the analogy pool is one sum of weights per class, scored once
by `belief.pignistic`, the pignistic probability of the positive class.
`predict_batch` returns the columns of a batch as one `Predictions`
result, with no object per candidate.

The weights come from `SimilarityStore.mask_view`, finite for
similarities that round to 1. TotalConflict means infinite weight on both
classes: hosts of both classes whose store entries have infinite weight on
similar, which counts never give.

`analogy_weights` is one array kernel. Candidates and hosts are rows of
32-bit mask words; `md_evidence.informative_pairs` yields the rectangle
of candidates x hosts a block of whole candidates at a time, with the
replaced and replacement masks packed into store keys, which are looked
up with `np.searchsorted` in the `mask_view` key table. One `np.bincount`
per block sums every candidate's weights per class over a combined
(class, candidate) code, its analogies in host order. bincount adds in
input order, so every weight sum is the one a sequential loop over the
hosts gives, to the bit. The α grid search (`fold_macro_f1`) scores every
grid point in one call: its key table holds, per key, the row of a
(distinct count pairs × α) palette, and each analogy adds that row, one
sum per (class, candidate, α) code. The cross-validated γ estimate
(`fusion`) walks the upper triangle of the same generator instead and
adds each pair's weight both ways in the same host order.

The metrics count (label, prediction) outcomes with one `np.bincount`
(`accuracy`, `macro_f1`, and per fold and weight column in
`columns_macro_f1`), and divide the integer counts as Python's `/` does.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .alloys import Alloy, Dataset, element_words, key_width
from .belief import pignistic
from .errors import CandidateInTraining, LengthMismatch, SingleClass
from .md_evidence import KeyTable, SimilarityStore, informative_pairs, substitution_limit

__all__ = [
    "Predictions",
    "accuracy",
    "analogy_weights",
    "classify",
    "columns_macro_f1",
    "fold_macro_f1",
    "macro_f1",
    "predict_batch",
    "roc_auc",
    "usable_cpus",
    "youden_threshold_stats",
]


class _Row(NamedTuple):
    candidate: Alloy
    score: float
    n_analogies: int


@dataclass(frozen=True, eq=False)
class Predictions:
    """The columns of one `predict_batch` call, one entry per candidate in
    order: the summed weights of evidence of the positive and negative
    class (`w_pos`, `w_neg`; `belief.from_weights` reads them out as the
    combined class mass), the number of analogies and the pignistic score
    of the positive class."""

    candidates: tuple[Alloy, ...]
    w_pos: np.ndarray
    w_neg: np.ndarray
    n_analogies: np.ndarray
    score: np.ndarray

    # A row view, (candidate, score, n_analogies) per candidate, for callers
    # that read a batch one candidate at a time: the benchmark harness under
    # perfbench/ takes len(), p.score and p.n_analogies from the result.
    def __len__(self) -> int:
        return len(self.candidates)

    def __getitem__(self, i: int) -> _Row:
        return _Row(self.candidates[i], float(self.score[i]), int(self.n_analogies[i]))

    def __iter__(self) -> Iterator[_Row]:
        return map(_Row, self.candidates, self.score.tolist(), self.n_analogies.tolist())


def analogy_weights(
    cand_words: np.ndarray,
    host_words: np.ndarray,
    host_labels: Sequence[bool],
    table: KeyTable,
    max_size: int,
    palette: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per candidate: summed positive weight, summed negative weight and
    number of analogies.

    Candidates and hosts are (n, W) arrays of 32-bit mask words
    (`alloys.element_words`). A candidate's analogies are its
    `informative_pairs` with the hosts, at most max_size elements a side;
    each adds its pair's weight from `table` (a `SimilarityStore.mask_view`;
    absent pairs weigh 0) to its host's class. With a (rows, k) palette,
    `table` holds a palette row number per key, each analogy adds that
    row, and the sums are (candidates, k) arrays, one column per palette
    column.
    """
    labels = np.asarray(host_labels, dtype=bool)
    if len(labels) != len(host_words):
        raise LengthMismatch(f"{len(labels)} host labels vs {len(host_words)} hosts")
    n_cand = len(cand_words)
    k = 1 if palette is None else palette.shape[1]
    sums = np.zeros((2, n_cand, k))  # [host positive, candidate, column]
    n = np.zeros(n_cand, dtype=np.int64)
    for block in informative_pairs(cand_words, max_size, host_words):
        # a block holds every analogy of its candidates, each candidate's in host order
        low = block.first[0]
        rows = block.first - low
        size = int(rows[-1]) + 1
        n[low:low + size] = np.bincount(rows, minlength=size)
        pos, found = table.find(block.keys)
        # an absent pair adds +0.0, which leaves a sum of non-negative weights as it is
        rows, cols, pos = rows[found], block.second[found], pos[found]
        weights = table.weights[pos] if palette is None else palette[table.weights[pos]]
        code = (labels[cols] * size + rows)[:, None] * k + np.arange(k)
        sums[:, low:low + size] = np.bincount(
            code.ravel(), weights=weights.ravel(), minlength=2 * size * k
        ).reshape(2, size, k)
    shape = (n_cand,) if palette is None else (n_cand, k)
    return sums[1].reshape(shape), sums[0].reshape(shape), n


def columns_macro_f1(
    labels: Sequence[bool],
    w_pos: np.ndarray,
    w_neg: np.ndarray,
    groups: np.ndarray | None = None,
    n_groups: int = 1,
) -> np.ndarray:
    """(groups, k) macro-F1 of every column of (rows, k) class-weight sums
    within each group of rows (all rows in group 0 without `groups`): the
    sums are scored by `belief.pignistic` and classified by `classify`, as
    `predict_batch` would with that column alone, and each group's rows
    scored as `macro_f1` scores them."""
    return _macro_f1(_outcomes(labels, _positive(pignistic(w_pos, w_neg)), groups, n_groups))


def fold_macro_f1(
    test_words: np.ndarray,
    train_words: np.ndarray,
    train_labels: Sequence[bool],
    test_labels: Sequence[bool],
    table: KeyTable,
    palette: np.ndarray,
    max_size: int,
) -> list[float]:
    """Macro-F1 of every column of a (rows, k) weight palette on one fold,
    `table` holding each key's palette row: one `analogy_weights` call
    predicts the test rows from the training rows, and `columns_macro_f1`
    scores each column."""
    w_pos, w_neg, _ = analogy_weights(test_words, train_words, train_labels, table, max_size, palette)
    return columns_macro_f1(test_labels, w_pos, w_neg)[0].tolist()


# Candidates from which a process pool pays: on a 2-core Intel Xeon, 520 training
# alloys and their fused store, two workers took 0.104-0.115 s against
# 0.093-0.121 s in one process at 2,000 candidates (best of 5), lost at
# 1,500 (0.139 against 0.089-0.095 s) and won from 2,500 on.
_POOL_MIN_CANDIDATES = 2000


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def predict_batch(
    candidates: Sequence[Alloy],
    training: Dataset,
    store: SimilarityStore,
    max_subst_size: int | None = None,
    jobs: int = 1,
) -> Predictions:
    """Predict many candidates against one training set and store: the
    columns of their analogy weights, analogy counts and scores.

    Pure in its inputs; candidates are processed independently, so the
    batch may be chunked across worker processes, one per usable CPU at most.
    """
    max_subst_size = substitution_limit(chain(training.alloys, candidates), max_subst_size)
    training_sets = {a.elements for a in training.alloys}
    index = training.element_index()
    extra = sorted({e for c in candidates for e in c.elements} - set(training.universe))
    for offset, e in enumerate(extra):
        index[e] = len(training.universe) + offset
    width = key_width(len(index))
    host_words = training.words
    if width > host_words.shape[1]:  # the candidates' elements add a mask word
        host_words = np.pad(host_words, ((0, 0), (0, width - host_words.shape[1])))
    table = store.mask_view(index)
    for c in candidates:
        if c.elements in training_sets:
            raise CandidateInTraining(f"candidate {c} is in the training set")
    cand_words = element_words((c.elements for c in candidates), index, width)

    jobs = min(max(1, jobs), usable_cpus())
    if jobs == 1 or len(candidates) < _POOL_MIN_CANDIDATES:
        w_pos, w_neg, n = analogy_weights(cand_words, host_words, training.labels, table, max_subst_size)
    else:
        lanes = [cand_words[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(
                pool.map(
                    analogy_weights,
                    lanes,
                    [host_words] * jobs,
                    [training.labels] * jobs,
                    [table] * jobs,
                    [max_subst_size] * jobs,
                )
            )
        w_pos, w_neg = np.empty(len(candidates)), np.empty(len(candidates))
        n = np.empty(len(candidates), dtype=np.int64)
        for lane, (lane_pos, lane_neg, lane_n) in enumerate(parts):
            w_pos[lane::jobs], w_neg[lane::jobs], n[lane::jobs] = lane_pos, lane_neg, lane_n
    return Predictions(tuple(candidates), w_pos, w_neg, n, pignistic(w_pos, w_neg))


def _positive(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    return np.asarray(scores, dtype=float) > 0.5


def classify(scores: Sequence[float] | np.ndarray) -> list[bool]:
    """Positive iff the score strictly exceeds 0.5 (ties are negative, so
    the positive class needs positive evidence)."""
    return _positive(scores).tolist()


def _check_paired(labels: Sequence[bool], other: Sequence, what: str) -> None:
    if len(labels) != len(other):
        raise LengthMismatch(f"{len(labels)} labels vs {len(other)} {what}")
    if not len(labels):
        raise LengthMismatch("empty inputs")


def _outcomes(
    labels: Sequence[bool], predictions: Sequence[bool] | np.ndarray, groups: np.ndarray | None = None, n_groups: int = 1
) -> np.ndarray:
    """int64 counts [group, column, label, prediction] of (rows,) labels
    against (rows,) or (rows, k) predictions, one bincount over a combined
    code; rows count in their group, all in group 0 without `groups`."""
    y = np.asarray(labels, dtype=bool)
    p = np.asarray(predictions, dtype=bool).reshape(len(y), -1)
    k = p.shape[1]
    g = np.zeros(len(y), dtype=np.intp) if groups is None else np.asarray(groups)
    code = ((g[:, None] * k + np.arange(k)) * 2 + y[:, None]) * 2 + p
    return np.bincount(code.ravel(), minlength=4 * k * n_groups).reshape(n_groups, k, 2, 2)


def _macro_f1(counts: np.ndarray) -> np.ndarray:
    """Macro-F1 of [..., label, prediction] counts, by `macro_f1`'s rule."""
    f1 = 0.0
    for cls in (1, 0):
        tp, fp, fn = counts[..., cls, cls], counts[..., 1 - cls, cls], counts[..., cls, 1 - cls]
        denom = 2 * tp + fp + fn
        f1 = f1 + np.where(denom == 0, 1.0, 2 * tp / np.maximum(denom, 1))
    return f1 / 2


def accuracy(labels: Sequence[bool], predictions: Sequence[bool]) -> float:
    """Fraction of correct predictions."""
    _check_paired(labels, predictions, "predictions")
    counts = _outcomes(labels, predictions)[0, 0]
    return float((counts[0, 0] + counts[1, 1]) / len(labels))


def macro_f1(labels: Sequence[bool], predictions: Sequence[bool]) -> float:
    """Unweighted mean of per-class F1.

    A class absent from both labels and predictions counts as F1 = 1; a
    class never labeled but predicted counts as 0 (it produced only false
    positives).
    """
    _check_paired(labels, predictions, "predictions")
    return float(_macro_f1(_outcomes(labels, predictions))[0, 0])


def _roc_sweep(
    labels: Sequence[bool], scores: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Cumulative TP/FP after each distinct-score group (descending scores)."""
    _check_paired(labels, scores, "scores")
    y = np.asarray(labels, dtype=bool)
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC analysis needs both classes among the labels")
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    ends = np.r_[np.where(np.diff(s_sorted))[0], len(s_sorted) - 1]
    tp = np.cumsum(y_sorted)[ends]
    fp = np.cumsum(~y_sorted)[ends]
    return tp, fp, s_sorted[ends], n_pos, n_neg


def roc_auc(
    labels: Sequence[bool], scores: Sequence[float]
) -> tuple[float, list[tuple[float, float]]]:
    """ROC curve and area from a descending-score sweep with tied scores
    grouped into single steps; the trapezoidal area equals the
    Mann-Whitney statistic with ties counted one half."""
    tp, fp, _, n_pos, n_neg = _roc_sweep(labels, scores)
    tpr = np.r_[0.0, tp / n_pos]
    fpr = np.r_[0.0, fp / n_neg]
    auc = float(np.trapezoid(tpr, fpr))
    return auc, list(zip(fpr.tolist(), tpr.tolist()))


def youden_threshold_stats(
    labels: Sequence[bool], scores: Sequence[float]
) -> tuple[float, float]:
    """(threshold, accuracy) at the sweep point maximizing TPR - FPR.

    The all-negative operating point is a candidate; ties resolve toward
    the more conservative (higher) threshold.
    """
    tp, fp, thresholds, n_pos, n_neg = _roc_sweep(labels, scores)
    n = n_pos + n_neg
    j = np.r_[0.0, tp / n_pos - fp / n_neg]
    best = int(np.argmax(j))
    if best == 0:
        return 1.0, n_neg / n
    acc = (tp[best - 1] + (n_neg - fp[best - 1])) / n
    return float(thresholds[best - 1]), float(acc)
