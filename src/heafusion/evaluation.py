"""Experiment protocols, dataset splitting, metrics, and alpha tuning.

Two evaluation protocols are provided: fractional cross-validation, where
a stratified random slice of the dataset trains the pipeline and the rest
is scored, and leave-element-out extrapolation, where every alloy
containing a chosen element is held out to probe generalization to unseen
chemistry. Evidence stores and reliability weights are always computed
from the training partition alone.

All randomness is drawn from explicit seeds; identical inputs produce
identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

import numpy as np

from . import inference
from .alloys import Dataset, alloy_masks
from .belief import from_weights, support_weight
from .errors import (
    ElementAbsent,
    EmptySourceList,
    FractionDegenerate,
    LengthMismatch,
    SingleClass,
)
from .md_evidence import (
    ExtractionConfig,
    KeyTable,
    SimilarityStore,
    evidence_weight,
    extract_all,
    key_width,
    mask_words,
    pair_counts,
)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

DEFAULT_FRACTIONS: tuple[float, ...] = tuple(round(0.01 * i, 2) for i in range(1, 11)) + (0.2, 0.3)
DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(round(0.01 * i, 2) for i in range(1, 51))

SplitKind = Literal["fraction", "kfold", "leave_element_out"]


@dataclass(frozen=True)
class SplitSpec:
    """Declarative train/test split request.

    Exactly the fields required by `kind` may be set: fraction for
    "fraction", k (plus an optional fold index) for "kfold", element for
    "leave_element_out".
    """

    kind: SplitKind
    fraction: float | None = None
    k: int | None = None
    element: str | None = None
    seed: int = 0
    fold: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        if self.kind == "fraction":
            if self.fraction is None or self.k is not None or self.element is not None:
                raise ValueError("fraction split requires fraction only")
            if not 0.0 < self.fraction < 1.0:
                raise ValueError(f"fraction must lie in (0, 1), got {self.fraction!r}")
        elif self.kind == "kfold":
            if self.k is None or self.fraction is not None or self.element is not None:
                raise ValueError("kfold split requires k only")
            if self.k < 2:
                raise ValueError(f"k must be >= 2, got {self.k}")
            if not 0 <= self.fold < self.k:
                raise ValueError(f"fold must lie in [0, {self.k}), got {self.fold}")
        elif self.kind == "leave_element_out":
            if self.element is None or self.fraction is not None or self.k is not None:
                raise ValueError("leave_element_out split requires element only")
        else:
            raise ValueError(f"unknown split kind {self.kind!r}")


def _stratified_indices(labels: Sequence[bool], seed: int) -> tuple[list[int], list[int]]:
    pos = [i for i, y in enumerate(labels) if y]
    neg = [i for i, y in enumerate(labels) if not y]
    rng = random.Random(seed)
    rng.shuffle(pos)
    rng.shuffle(neg)
    return pos, neg


def _fraction_indices(
    labels: Sequence[bool], fraction: float, seed: int, stratified: bool
) -> tuple[list[int], list[int]]:
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
    train_idx = sorted(train)
    test_idx = [i for i in range(n) if i not in train]
    return train_idx, test_idx


def _kfold_indices(
    labels: Sequence[bool], k: int, seed: int, stratified: bool = True
) -> list[tuple[list[int], list[int]]]:
    n = len(labels)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds dataset size {n}")
    if stratified:
        pos, neg = _stratified_indices(labels, seed)
        # continuous round-robin across classes keeps fold sizes within one
        # of each other even when a class is smaller than k
        buckets: list[list[int]] = [[] for _ in range(k)]
        for slot, idx in enumerate(pos + neg):
            buckets[slot % k].append(idx)
        folds = [sorted(b) for b in buckets]
    else:
        order = list(range(n))
        random.Random(seed).shuffle(order)
        folds = [sorted(order[f::k]) for f in range(k)]
    out = []
    for f in range(k):
        test = folds[f]
        test_set = set(test)
        train = [i for i in range(n) if i not in test_set]
        out.append((train, test))
    return out


def _take(dataset: Dataset, indices: Sequence[int], suffix: str) -> Dataset:
    return dataset.with_alloys([dataset.alloys[i] for i in indices], suffix)


def kfold_splits(
    dataset: Dataset, k: int, seed: int, stratified: bool = True
) -> list[tuple[Dataset, Dataset]]:
    """Deterministic (train, test) fold sequence; folds are label-stratified
    by default and partition the dataset."""
    labels = dataset.labels()
    return [
        (_take(dataset, tr, f"[fold{f}-train]"), _take(dataset, te, f"[fold{f}-test]"))
        for f, (tr, te) in enumerate(_kfold_indices(labels, k, seed, stratified))
    ]


def make_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Materialize a split request as a (training, test) dataset pair."""
    if spec.kind == "fraction":
        train_idx, test_idx = _fraction_indices(
            dataset.labels(), spec.fraction, spec.seed, spec.stratified
        )
        return _take(dataset, train_idx, "[train]"), _take(dataset, test_idx, "[test]")
    if spec.kind == "leave_element_out":
        element = spec.element
        test_idx = [i for i, la in enumerate(dataset.alloys) if element in la.alloy.elements]
        if not test_idx:
            raise ElementAbsent(f"no alloy in {dataset.name} contains {element!r}")
        test_set = set(test_idx)
        train_idx = [i for i in range(len(dataset)) if i not in test_set]
        return (
            _take(dataset, train_idx, f"[no-{element}]"),
            _take(dataset, test_idx, f"[{element}]"),
        )
    return kfold_splits(dataset, spec.k, spec.seed, spec.stratified)[spec.fold]


def _check_paired(labels: Sequence[bool], other: Sequence, what: str) -> None:
    if len(labels) != len(other):
        raise LengthMismatch(f"{len(labels)} labels vs {len(other)} {what}")
    if not labels:
        raise LengthMismatch("empty inputs")


def accuracy(labels: Sequence[bool], predictions: Sequence[bool]) -> float:
    """Fraction of correct predictions."""
    _check_paired(labels, predictions, "predictions")
    return sum(1 for y, p in zip(labels, predictions) if y == p) / len(labels)


def macro_f1(labels: Sequence[bool], predictions: Sequence[bool]) -> float:
    """Unweighted mean of per-class F1.

    A class absent from both labels and predictions counts as F1 = 1; a
    class never labeled but predicted counts as 0 (it produced only false
    positives).
    """
    _check_paired(labels, predictions, "predictions")
    f1s = []
    for cls in (True, False):
        tp = sum(1 for y, p in zip(labels, predictions) if y == cls and p == cls)
        fp = sum(1 for y, p in zip(labels, predictions) if y != cls and p == cls)
        fn = sum(1 for y, p in zip(labels, predictions) if y == cls and p != cls)
        denom = 2 * tp + fp + fn
        f1s.append(1.0 if denom == 0 else 2 * tp / denom)
    return sum(f1s) / len(f1s)


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
    auc = float(_trapezoid(tpr, fpr))
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


def grid_search_alpha(
    dataset: Dataset,
    grid: Sequence[float] | None = None,
    folds: int = 10,
    repeats: int = 3,
    seed: int = 42,
    max_subst_size: int | None = None,
) -> float:
    """Pick the evidence weight alpha maximizing mean CV macro-F1 of the
    dataset-evidence-only predictor; ties break toward the smallest alpha.

    The fold pair scan is alpha-independent (it only counts agreeing and
    disagreeing evidence), so each fold is scanned once; every grid point
    reads the counts out as `extract_all` and `predict_batch` would, one
    weight column per alpha, and one `analogy_weights` call sums all
    columns.
    """
    if grid is None:
        grid = DEFAULT_ALPHA_GRID
    if not grid:
        raise ValueError("alpha grid must be non-empty")
    weights = [evidence_weight(alpha) for alpha in grid]
    labels = dataset.labels()
    index = dataset.element_index()
    masks = alloy_masks((la.alloy for la in dataset.alloys), index)
    words = mask_words(masks, key_width(len(index)))
    if max_subst_size is None:
        max_subst_size = max((len(la.alloy.elements) for la in dataset.alloys), default=2) - 1
    totals = {alpha: 0.0 for alpha in grid}
    n_runs = 0
    for rep in range(repeats):
        for train_idx, test_idx in _kfold_indices(labels, folds, seed + rep):
            train_labels = [labels[i] for i in train_idx]
            test_labels = [labels[i] for i in test_idx]
            counts = pair_counts([masks[i] for i in train_idx], train_labels, max_subst_size)
            agree, disagree = counts.agree.astype(float), counts.disagree.astype(float)
            n_runs += 1
            columns = []
            for weight in weights:
                _, m_second, m_both = from_weights(weight * agree, weight * disagree)
                columns.append(support_weight(m_second + m_both))
            table = KeyTable(counts.keys, np.stack(columns, axis=1))
            w_pos, w_neg, _ = inference.analogy_weights(
                words[test_idx], words[train_idx], train_labels, table, max_subst_size
            )
            for j, alpha in enumerate(grid):
                m_pos, _, m_unc = from_weights(w_pos[:, j], w_neg[:, j])
                totals[alpha] += macro_f1(test_labels, (m_pos + m_unc / 2.0 > 0.5).tolist())
    best_alpha = grid[0]
    best_score = -1.0
    for alpha in grid:
        mean = totals[alpha] / n_runs
        if mean > best_score:
            best_alpha, best_score = alpha, mean
    return best_alpha


@dataclass(frozen=True)
class SourcesConfig:
    """Evidence sources entering one experiment run.

    The dataset-evidence source is extracted from each training partition;
    expert stores are fixed inputs whose reliability is still estimated per
    partition. gamma_overrides skips estimation for the named sources.
    """

    use_md: bool = True
    md_alpha: float = 0.1
    max_subst_size: int | None = None
    llm_stores: Mapping[str, SimilarityStore] = field(default_factory=dict)
    gamma_folds: int = 10
    gamma_overrides: Mapping[str, float] | None = None

    def source_ids(self) -> list[str]:
        ids = ["md"] if self.use_md else []
        ids.extend(self.llm_stores)
        return ids


@dataclass(frozen=True)
class MetricsReport:
    """Metrics for one evaluation job, with enough config echo to rerun it."""

    kind: str
    key: str
    repeat: int
    n_test: int
    accuracy: float
    accuracy_youden: float
    youden_threshold: float
    macro_f1: float
    auc: float
    roc: tuple[tuple[float, float], ...]
    gammas: dict[str, float]
    config: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "key": self.key,
            "repeat": self.repeat,
            "n_test": self.n_test,
            "accuracy": self.accuracy,
            "accuracy_youden": self.accuracy_youden,
            "youden_threshold": self.youden_threshold,
            "macro_f1": self.macro_f1,
            "auc": self.auc,
            "roc": [list(pt) for pt in self.roc],
            "gammas": dict(self.gammas),
            "config": self.config,
        }


def _evaluate_split(
    training: Dataset,
    test: Dataset,
    sources: SourcesConfig,
    seed: int,
    jobs: int = 1,
) -> tuple[list[float], list[bool], dict[str, float], dict[str, str]]:
    """Run the full pipeline on one split: extract, weight, fuse, predict.

    Returns (scores, labels, gammas, store hashes). Everything the test
    side sees is derived from the training partition alone.
    """
    from .fusion import SourceReliability, estimate_reliability, fuse

    stores: list[tuple[str, SimilarityStore]] = []
    if sources.use_md:
        config = ExtractionConfig(sources.md_alpha, sources.max_subst_size)
        stores.append(("md", extract_all(training, config)))
    for source_id, store in sources.llm_stores.items():
        stores.append((source_id, store))
    if not stores:
        raise EmptySourceList("experiment configured with no evidence sources")

    overrides = sources.gamma_overrides or {}
    folds = max(2, min(sources.gamma_folds, len(training)))
    gammas = []
    for source_id, store in stores:
        if source_id in overrides:
            gamma = overrides[source_id]
        else:
            gamma = estimate_reliability(
                store, training, folds=folds, seed=seed, max_subst_size=sources.max_subst_size
            )
        gammas.append(SourceReliability(source_id, gamma))
    fused = fuse(stores, gammas)
    predictions = inference.predict_batch(
        [la.alloy for la in test.alloys], training, fused,
        max_subst_size=sources.max_subst_size, jobs=jobs,
    )
    scores = [p.score for p in predictions]
    hashes = {source_id: store.content_hash() for source_id, store in stores}
    hashes["fused"] = fused.content_hash()
    return scores, test.labels(), {g.source_id: g.gamma for g in gammas}, hashes


def _build_report(
    kind: str,
    key: str,
    repeat: int,
    scores: list[float],
    labels: list[bool],
    gammas: dict[str, float],
    config: dict,
) -> MetricsReport:
    auc, roc = roc_auc(labels, scores)
    preds = [s > 0.5 for s in scores]
    threshold, acc_youden = youden_threshold_stats(labels, scores)
    return MetricsReport(
        kind=kind,
        key=key,
        repeat=repeat,
        n_test=len(labels),
        accuracy=accuracy(labels, preds),
        accuracy_youden=acc_youden,
        youden_threshold=threshold,
        macro_f1=macro_f1(labels, preds),
        auc=auc,
        roc=tuple(roc),
        gammas=gammas,
        config=config,
    )


def _config_echo(sources: SourcesConfig, seed: int, extra: dict) -> dict:
    echo = {
        "use_md": sources.use_md,
        "md_alpha": sources.md_alpha,
        "max_subst_size": sources.max_subst_size,
        "llm_sources": sorted(sources.llm_stores),
        "gamma_folds": sources.gamma_folds,
        "gamma_overrides": dict(sources.gamma_overrides or {}),
        "gamma_method": "single-source-cv-macro-f1@0.5",
        "seed": seed,
    }
    echo.update(extra)
    return echo


def run_cv_experiment(
    dataset: Dataset,
    sources: SourcesConfig,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int = 42,
    repeats: int = 1,
    stratified: bool = True,
    jobs: int = 1,
) -> list[MetricsReport]:
    """Fraction-CV protocol: one report per (fraction, repeat).

    Each repeat reseeds the split with seed + repeat; evidence and
    reliabilities are recomputed from each training slice.
    """
    reports = []
    for fraction in fractions:
        for repeat in range(repeats):
            split_seed = seed + repeat
            spec = SplitSpec("fraction", fraction=fraction, seed=split_seed, stratified=stratified)
            training, test = make_split(dataset, spec)
            scores, labels, gammas, hashes = _evaluate_split(training, test, sources, split_seed, jobs)
            config = _config_echo(
                sources, split_seed,
                {"fraction": fraction, "stratified": stratified, "n_train": len(training),
                 "store_hashes": hashes, "dataset": dataset.name},
            )
            reports.append(
                _build_report("cv", f"fraction={fraction}", repeat, scores, labels, gammas, config)
            )
    return reports


def run_extrapolation_experiment(
    dataset: Dataset,
    sources: SourcesConfig,
    elements: Sequence[str],
    seed: int = 42,
    jobs: int = 1,
) -> list[MetricsReport]:
    """Leave-element-out protocol: one report per held-out element."""
    reports = []
    for element in elements:
        spec = SplitSpec("leave_element_out", element=element)
        training, test = make_split(dataset, spec)
        scores, labels, gammas, hashes = _evaluate_split(training, test, sources, seed, jobs)
        config = _config_echo(
            sources, seed,
            {"element": element, "n_train": len(training), "store_hashes": hashes,
             "dataset": dataset.name},
        )
        reports.append(
            _build_report("extrapolation", f"element={element}", 0, scores, labels, gammas, config)
        )
    return reports


def summarize_reports(reports: Sequence[MetricsReport]) -> dict[str, dict[str, float]]:
    """Mean and population standard deviation of the scalar metrics across
    jobs, in the shape used by the summary tables."""
    if not reports:
        return {}
    out = {}
    for metric in ("accuracy", "accuracy_youden", "macro_f1", "auc"):
        values = np.array([getattr(r, metric) for r in reports], dtype=float)
        out[metric] = {"mean": float(values.mean()), "std": float(values.std()), "n": len(values)}
    return out
