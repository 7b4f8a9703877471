"""Experiment protocols and alpha tuning.

Two evaluation protocols are provided: fractional cross-validation, where
a stratified random slice of the dataset trains the pipeline and the rest
is scored, and leave-element-out extrapolation, where every alloy
containing a chosen element is held out to probe generalization to unseen
chemistry. Evidence stores and reliability weights are always computed
from the training partition alone. The splits live in `alloys`, the
metrics in `inference`.

All randomness is drawn from explicit seeds; identical inputs produce
identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import fusion, inference
from .alloys import Dataset, element_split, fold_ids, fraction_split
from .errors import ConfigError, EmptySourceList, GammaOutOfRange
from .inference import accuracy, classify, macro_f1, roc_auc, youden_threshold_stats
from .md_evidence import (
    ExtractionConfig,
    KeyTable,
    SimilarityStore,
    analogy_weight,
    evidence_weight,
    extract_all,
    pair_counts,
    substitution_limit,
)

DEFAULT_FRACTIONS: tuple[float, ...] = tuple(round(0.01 * i, 2) for i in range(1, 11)) + (0.2, 0.3)
DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(round(0.01 * i, 2) for i in range(1, 51))


def grid_search_alpha(
    dataset: Dataset,
    grid: Sequence[float] | None = None,
    folds: int = 10,
    repeats: int = 3,
    seed: int = 42,
    max_subst_size: int | None = None,
    scores: dict[float, float] | None = None,
) -> float:
    """Pick the evidence weight alpha maximizing mean CV macro-F1 of the
    dataset-evidence-only predictor; ties break toward the smallest alpha,
    and each distinct alpha of the grid is scored once. A `scores` dict
    receives every distinct alpha's mean macro-F1, in ascending alpha.
    """
    if grid is None:
        grid = DEFAULT_ALPHA_GRID
    if not grid:
        raise ConfigError("alpha grid must be non-empty")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    alphas = sorted(set(grid))
    means = _alpha_scores(dataset, alphas, folds, repeats, seed, max_subst_size)
    if scores is not None:
        scores.update(zip(alphas, means.tolist()))
    # argmax takes the first of equal means, the smallest alpha
    return alphas[int(np.argmax(means))]


def _alpha_scores(
    dataset: Dataset,
    alphas: Sequence[float],
    folds: int,
    repeats: int,
    seed: int,
    max_subst_size: int | None,
) -> np.ndarray:
    """Mean macro-F1 of each alpha over `repeats` rounds of `folds`-fold CV.

    The fold pair scan is alpha-independent (it only counts agreeing and
    disagreeing evidence), so each fold is scanned once. A key's analogy
    weight depends only on its (agree, disagree) counts, so each distinct
    count pair is weighted once per alpha, as `extract_all` and
    `predict_batch` would weigh its keys, into a (count pairs, alpha)
    palette; the fold's key table holds each key's palette row, and one
    `inference.fold_macro_f1` call scores every alpha. A fold's training
    and test rows are the dataset's mask and label rows outside and inside
    it, in row order; no dataset is built per fold.
    """
    weights = [evidence_weight(alpha) for alpha in alphas]
    max_subst_size = substitution_limit(dataset.alloys, max_subst_size)
    totals = np.zeros(len(alphas))
    for rep in range(repeats):
        fold_of = fold_ids(dataset.labels, folds, seed + rep)
        for f in range(folds):
            train, test = fold_of != f, fold_of == f
            train_words, train_labels = dataset.words[train], dataset.labels[train]
            counts = pair_counts(train_words, train_labels, max_subst_size)
            first, ids = counts.count_pair_ids()
            agree, disagree = counts.agree[first], counts.disagree[first]
            palette = np.stack([analogy_weight(weight * agree, weight * disagree) for weight in weights], axis=1)
            totals += inference.fold_macro_f1(
                dataset.words[test], train_words, train_labels, dataset.labels[test],
                KeyTable(counts.keys, ids), palette, max_subst_size,
            )
    return totals / (repeats * folds)


@dataclass(frozen=True)
class SourcesConfig:
    """Evidence sources entering one experiment run.

    The dataset-evidence source is extracted from each training partition;
    expert stores are fixed inputs whose reliability is still estimated per
    partition; an expert store may take the id "md" only without the
    dataset source. gamma_overrides skips estimation for the named sources,
    each of which must be one of `source_ids`, with a gamma in [0, 1].
    """

    use_md: bool = True
    md_alpha: float = 0.1
    max_subst_size: int | None = None
    llm_stores: Mapping[str, SimilarityStore] = field(default_factory=dict)
    gamma_folds: int = 10
    gamma_overrides: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.gamma_folds < 2:
            raise ConfigError(f"gamma_folds must be >= 2, got {self.gamma_folds}")
        if self.use_md and "md" in self.llm_stores:
            raise ConfigError("expert store id 'md' names the dataset-evidence source; choose another id")
        unknown = sorted(set(self.gamma_overrides or ()) - set(self.source_ids()))
        if unknown:
            raise ConfigError(f"gamma given for {unknown}, which name no source of {self.source_ids()}")
        for source_id, gamma in (self.gamma_overrides or {}).items():
            if not 0.0 <= gamma <= 1.0:
                raise GammaOutOfRange(f"gamma for {source_id!r} must lie in [0, 1], got {gamma!r}")

    def source_ids(self) -> list[str]:
        ids = ["md"] if self.use_md else []
        ids.extend(self.llm_stores)
        return ids


@dataclass(frozen=True)
class MetricsReport:
    """Metrics for one evaluation job, with enough config echo to rerun it;
    `dataclasses.asdict` gives its JSON form."""

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


def _evaluate_split(
    training: Dataset,
    test: Dataset,
    sources: SourcesConfig,
    seed: int,
) -> tuple[np.ndarray, dict[str, float], dict[str, str]]:
    """Run the full pipeline on one split: extract, weight, fuse, predict.

    Returns (the test rows' scores, gammas, store hashes). Everything the
    test side sees is derived from the training partition alone.
    """
    stores: list[tuple[str, SimilarityStore]] = []
    if sources.use_md:
        config = ExtractionConfig(sources.md_alpha, sources.max_subst_size)
        stores.append(("md", extract_all(training, config)))
    stores.extend(sources.llm_stores.items())
    if not stores:
        raise EmptySourceList("experiment configured with no evidence sources")
    gammas = fusion.source_gammas(
        stores, sources.gamma_overrides or {}, training,
        folds=min(sources.gamma_folds, len(training)), seed=seed, max_subst_size=sources.max_subst_size,
    )
    fused = fusion.fuse(stores, gammas)
    scores = inference.predict_batch(test.alloys, training, fused, max_subst_size=sources.max_subst_size).score
    hashes = {source_id: store.content_hash() for source_id, store in stores}
    hashes["fused"] = fused.content_hash()
    return scores, gammas, hashes


def _report(
    kind: str,
    key: str,
    repeat: int,
    dataset: Dataset,
    split: tuple[Dataset, Dataset],
    sources: SourcesConfig,
    seed: int,
    params: dict,
) -> MetricsReport:
    """Evaluate one split of dataset; the report's config echo holds the
    sources, the seed, the split's params and the store hashes."""
    training, test = split
    scores, gammas, hashes = _evaluate_split(training, test, sources, seed)
    labels = test.labels
    config = {
        "use_md": sources.use_md,
        "md_alpha": sources.md_alpha,
        "max_subst_size": sources.max_subst_size,
        "llm_sources": sorted(sources.llm_stores),
        "gamma_folds": sources.gamma_folds,
        "gamma_overrides": dict(sources.gamma_overrides or {}),
        "gamma_method": "single-source-cv-macro-f1@0.5",
        "seed": seed,
        **params,
        "n_train": len(training),
        "store_hashes": hashes,
        "dataset": dataset.name,
    }
    auc, roc = roc_auc(labels, scores)
    preds = classify(scores)
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


def run_cv_experiment(
    dataset: Dataset,
    sources: SourcesConfig,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int = 42,
    repeats: int = 1,
    stratified: bool = True,
) -> list[MetricsReport]:
    """Fraction-CV protocol: one report per (fraction, repeat).

    Each repeat reseeds the split with seed + repeat; evidence and
    reliabilities are recomputed from each training slice. Every split is
    drawn before the first is evaluated, so a bad fraction fails before
    any work.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    splits = [(fraction, repeat, fraction_split(dataset, fraction, seed + repeat, stratified))
              for fraction in fractions for repeat in range(repeats)]
    return [
        _report("cv", f"fraction={fraction}", repeat, dataset, split, sources, seed + repeat,
                {"fraction": fraction, "stratified": stratified})
        for fraction, repeat, split in splits
    ]


def run_extrapolation_experiment(
    dataset: Dataset,
    sources: SourcesConfig,
    elements: Sequence[str],
    seed: int = 42,
    jobs: int = 1,
) -> list[MetricsReport]:
    """Leave-element-out protocol: one report per held-out element. Every
    split is drawn before the first is evaluated, so an absent element
    fails before any work. `jobs` is accepted for callers that pass it and
    ignored: every fold runs in this process."""
    splits = [(element, element_split(dataset, element)) for element in elements]
    return [
        _report("extrapolation", f"element={element}", 0, dataset, split, sources, seed, {"element": element})
        for element, split in splits
    ]


def summarize_reports(reports: Sequence[MetricsReport]) -> dict[str, dict[str, float]]:
    """Mean and population standard deviation of the scalar metrics across
    reports, in the shape used by the summary tables."""
    if not reports:
        return {}
    out = {}
    for metric in ("accuracy", "accuracy_youden", "macro_f1", "auc"):
        values = np.array([getattr(r, metric) for r in reports], dtype=float)
        out[metric] = {"mean": float(values.mean()), "std": float(values.std()), "n": len(values)}
    return out
